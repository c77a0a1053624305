"""Frame-level F0/energy prediction (causal CNNs) and the reference
extractors used as training-free oracles and metric targets.

Extractors are deterministic and emit exactly one value per 20 ms frame, so
their frame count always matches the encoder's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FRAME_HOP, SAMPLE_RATE, ModelConfig
from .encoder import ConvLayer
from .errors import ConfigError, InputError
from .kernels import F32, ConvSpec, causal_conv1d, conv_state_init, linear, relu
from .weights import WeightStore

F0_MIN_HZ = 50.0
F0_MAX_HZ = 500.0
VOICING_THRESHOLD = 0.3
ENERGY_FLOOR = 1e-8
F0_WINDOW = 2 * FRAME_HOP  # two frames of context per F0 estimate


@dataclass
class ProsodyFrame:
    f0_hz: float
    log_energy: float


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
        return [conv_state_init(self.conv1.spec), conv_state_init(self.conv2.spec)]

    def apply(self, feats_ct, states):
        h = feats_ct
        for i, conv in enumerate((self.conv1, self.conv2)):
            h, states[i] = causal_conv1d(h, conv.spec, conv.weight, conv.bias, states[i])
            h = relu(h)
        return linear(h.T, self.proj_w, self.proj_b)[:, 0]


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
    f0 = params.f0.apply(feats_ct, states[0])
    en = params.energy.apply(feats_ct, states[1])
    return np.stack([f0, en], axis=1).astype(F32), states


def check_f0_scale(f0_scale) -> float:
    f0_scale = float(f0_scale)
    if not math.isfinite(f0_scale):
        raise ConfigError(f"f0_scale must be finite, got {f0_scale}")
    return f0_scale


def inject_prosody(features, predictions, params: ProsodyParams, f0_scale=1.0):
    """Add the learned embedding of [f0 * scale, energy] to the feature stream."""
    pred = predictions.astype(F32).copy()
    pred[:, 0] *= F32(f0_scale)
    return features + linear(pred, params.inject_w, params.inject_b)


def extract_energy(wave):
    """Per-20 ms-frame log RMS: log(sqrt(mean(x^2)) + 1e-8)."""
    wave = np.asarray(wave, dtype=F32).reshape(-1)
    n_frames = wave.size // FRAME_HOP
    frames = wave[:n_frames * FRAME_HOP].reshape(n_frames, FRAME_HOP)
    rms = np.sqrt(np.mean(np.square(frames), axis=1))
    return np.log(rms + F32(ENERGY_FLOOR)).astype(F32)


def extract_f0(wave):
    """Autocorrelation F0 per 20 ms frame: values in [50, 500] Hz, 0 = unvoiced.

    Each frame is scored on a two-frame trailing window with normalized
    autocorrelation and parabolic peak refinement; frames whose peak
    periodicity falls below 0.3 are reported unvoiced.
    """
    wave = np.asarray(wave, dtype=np.float64).reshape(-1)
    n_frames = wave.size // FRAME_HOP
    lag_min = int(np.floor(SAMPLE_RATE / F0_MAX_HZ))
    lag_max = int(np.ceil(SAMPLE_RATE / F0_MIN_HZ))
    out = np.zeros(n_frames, dtype=F32)
    padded = np.concatenate([np.zeros(F0_WINDOW - FRAME_HOP), wave])
    for t in range(n_frames):
        seg = padded[t * FRAME_HOP:t * FRAME_HOP + F0_WINDOW]
        if np.max(np.abs(seg)) < 1e-6:
            continue
        n = seg.size
        ac = np.correlate(seg, seg, mode="full")[n - 1:]
        sq = np.concatenate([[0.0], np.cumsum(seg * seg)])
        total = sq[n]
        lags = np.arange(lag_min, min(lag_max, n - 1) + 1)
        e_lead = total - sq[lags]          # energy of seg[lag:]
        e_lag = sq[n - lags]               # energy of seg[:-lag]
        norm = np.sqrt(np.maximum(e_lead * e_lag, 1e-12))
        r = ac[lags] / norm
        best = int(np.argmax(r))
        if r[best] < VOICING_THRESHOLD:
            continue
        # prefer the shortest local peak near the max to avoid octave errors
        strong = np.flatnonzero(r >= 0.95 * r[best])
        for cand in strong:
            left_ok = cand == 0 or r[cand] >= r[cand - 1]
            right_ok = cand == r.size - 1 or r[cand] >= r[cand + 1]
            if left_ok and right_ok:
                best = int(cand)
                break
        lag = float(lags[best])
        if 0 < best < lags.size - 1:
            a, b, c = r[best - 1], r[best], r[best + 1]
            denom = a - 2.0 * b + c
            if abs(denom) > 1e-12:
                lag += 0.5 * (a - c) / denom
        f0 = SAMPLE_RATE / lag
        out[t] = np.clip(f0, F0_MIN_HZ, F0_MAX_HZ)
    return out


def extract_prosody(wave):
    """Paired reference [ProsodyFrame] for a waveform."""
    f0 = extract_f0(wave)
    energy = extract_energy(wave)
    return [ProsodyFrame(float(f), float(e)) for f, e in zip(f0, energy)]


def f0_energy_l2(predicted, target) -> float:
    """Mean squared error between (T, 2) prediction and target streams."""
    predicted = np.atleast_2d(predicted)
    target = np.atleast_2d(target)
    if predicted.shape != target.shape:
        raise InputError(f"prosody stream shapes differ: {predicted.shape} vs {target.shape}")
    diff = predicted.astype(np.float64) - target.astype(np.float64)
    return float(np.mean(diff * diff))
