"""Frame-level F0/energy prediction (causal CNNs) and the learned injection
of the predicted streams into the decoder's feature stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .kernels import F32, ConvLayer, linear, relu
from .weights import WeightStore

# The f0 scale is a pitch ratio. Human voices span about 50 Hz to 1.1 kHz, under
# 4.5 octaves, so five octaves (32x) bounds any real conversion. Far larger
# scales let the injected f0 column swamp the decoder's features until
# layer_norm's square overflows (near 1e30) and the frames normalize to 0.
MAX_F0_SCALE = 32.0


@dataclass
class PredictorHead:
    """One predictor past the shared first conv: a causal conv and a projection."""

    conv2: ConvLayer
    proj_w: np.ndarray
    proj_b: np.ndarray

    @classmethod
    def from_store(cls, store, prefix, hidden):
        return cls(
            conv2=ConvLayer.from_store(store, f"{prefix}.conv2", hidden, hidden, 3),
            proj_w=store.get(f"{prefix}.proj.weight", (1, hidden)),
            proj_b=store.get(f"{prefix}.proj.bias", (1,)),
        )


@dataclass
class ProsodyParams:
    """f0 and energy predictors, causal CNNs (kernel 3, ReLU) with a projection each; both
    read the content frames, so their first convs are one stored conv, rows f0 then energy."""

    conv1: ConvLayer
    f0: PredictorHead
    energy: PredictorHead
    inject_w: np.ndarray  # (d_model, 2)
    inject_b: np.ndarray

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig):
        hidden = cfg.prosody_hidden
        return cls(
            conv1=ConvLayer.from_store(store, "prosody.conv1", cfg.d_model, 2 * hidden, 3),
            f0=PredictorHead.from_store(store, "prosody.f0", hidden),
            energy=PredictorHead.from_store(store, "prosody.energy", hidden),
            inject_w=store.get("prosody.inject.weight", (cfg.d_model, 2)),
            inject_b=store.get("prosody.inject.bias", (cfg.d_model,)),
        )

    def init_states(self):
        return [conv.init_state() for conv in (self.conv1, self.f0.conv2, self.energy.conv2)]


def predict_f0_energy(features, params: ProsodyParams, states=None):
    """Frame features (T, d_model) -> ((T, 2) [f0, log_energy], states): one
    first conv, then each head on its half of the rows."""
    if states is None:
        states = params.init_states()
    h, trunk_state = params.conv1.apply(np.ascontiguousarray(features.T), states[0])
    pred = np.empty((features.shape[0], 2), dtype=F32)
    new_states = [trunk_state]
    for i, (head, rows) in enumerate(zip((params.f0, params.energy), np.split(relu(h), 2))):
        g, state = head.conv2.apply(rows, states[1 + i])
        pred[:, i] = linear(relu(g).T, head.proj_w, head.proj_b)[:, 0]
        new_states.append(state)
    return pred, new_states


def inject_prosody(features, predictions, params: ProsodyParams, f0_scale=1.0):
    """Add the learned embedding of [f0 * scale, energy] to the feature stream."""
    pred = np.array(predictions, dtype=F32)
    pred[:, 0] *= F32(f0_scale)
    emb = linear(pred, params.inject_w, params.inject_b)
    return np.add(features, emb, out=emb)
