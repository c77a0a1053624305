"""Frame-level F0/energy prediction (causal CNNs) and the learned injection
of the predicted streams into the decoder's feature stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ConfigError
from .kernels import F32, ConvLayer, ConvSpec, linear, relu
from .weights import WeightStore

# The f0 scale is a pitch ratio. Human voices span about 50 Hz to 1.1 kHz, under
# 4.5 octaves, so five octaves (32x) bounds any real conversion. Far larger
# scales let the injected f0 column swamp the decoder's features until
# layer_norm's square overflows (near 1e30) and the frames normalize to 0.
MAX_F0_SCALE = 32.0


@dataclass
class PredictorParams:
    """2-layer causal CNN (kernel 3, ReLU) with a point-wise projection."""

    conv1: ConvLayer
    conv2: ConvLayer
    proj_w: np.ndarray
    proj_b: np.ndarray

    @classmethod
    def from_store(cls, store, prefix, in_dim, hidden):
        return cls(
            conv1=ConvLayer.from_store(store, f"{prefix}.conv1", ConvSpec(in_dim, hidden, 3)),
            conv2=ConvLayer.from_store(store, f"{prefix}.conv2", ConvSpec(hidden, hidden, 3)),
            proj_w=store.get(f"{prefix}.proj.weight", (1, hidden)),
            proj_b=store.get(f"{prefix}.proj.bias", (1,)),
        )

    def init_states(self):
        return [self.conv1.init_state(), self.conv2.init_state()]

    def apply(self, feats_ct, states):
        h, state1 = self.conv1.apply(feats_ct, states[0])
        h, state2 = self.conv2.apply(relu(h), states[1])
        return linear(relu(h).T, self.proj_w, self.proj_b)[:, 0], [state1, state2]


@dataclass
class ProsodyParams:
    f0: PredictorParams
    energy: PredictorParams
    inject_w: np.ndarray  # (d_model, 2)
    inject_b: np.ndarray

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig):
        return cls(
            f0=PredictorParams.from_store(store, "prosody.f0", cfg.d_model, cfg.prosody_hidden),
            energy=PredictorParams.from_store(store, "prosody.energy", cfg.d_model,
                                              cfg.prosody_hidden),
            inject_w=store.get("prosody.inject.weight", (cfg.d_model, 2)),
            inject_b=store.get("prosody.inject.bias", (cfg.d_model,)),
        )

    def init_states(self):
        return [self.f0.init_states(), self.energy.init_states()]


def predict_f0_energy(features, params: ProsodyParams, states=None):
    """Frame features (T, d_model) -> ((T, 2) [f0, log_energy], states)."""
    if states is None:
        states = params.init_states()
    feats_ct = np.ascontiguousarray(features.T)
    f0, f0_states = params.f0.apply(feats_ct, states[0])
    en, en_states = params.energy.apply(feats_ct, states[1])
    return np.stack([f0, en], axis=1).astype(F32), [f0_states, en_states]


def check_f0_scale(f0_scale) -> float:
    """The scale as a float; NaN or a magnitude above MAX_F0_SCALE is a
    ConfigError."""
    f0_scale = float(f0_scale)
    if not abs(f0_scale) <= MAX_F0_SCALE:
        raise ConfigError(f"f0_scale must be finite with magnitude <= {MAX_F0_SCALE:g}, "
                          f"got {f0_scale}")
    return f0_scale


def inject_prosody(features, predictions, params: ProsodyParams, f0_scale=1.0):
    """Add the learned embedding of [f0 * scale, energy] to the feature stream."""
    pred = np.array(predictions, dtype=F32)
    pred[:, 0] *= F32(f0_scale)
    emb = linear(pred, params.inject_w, params.inject_b)
    return np.add(features, emb, out=emb)
