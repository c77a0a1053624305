"""Full-model assembly: bind a weight store to typed parameter groups, draw
seeded random weights through the same loaders, and run the single-pass
(offline) synthesis pipeline.

The offline pass recomputes everything with whole-sequence attention and
one-shot convolutions; `block_frames` reproduces the chunked runtime's
within-chunk lookahead masks, which makes this the reference computation the
streaming session is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FRAME_HOP, ModelConfig
from .decoder import DecoderParams, decode_context, synthesize_wave
from .encoder import EncoderParams, encode_frames, vq_quantize
from .errors import ConfigError, InputError
from .kernels import F32
from .prosody import ProsodyParams, check_f0_scale, predict_f0_energy
from .timbre import TvtParams, build_gtm, tvt_sequence
from .weights import WeightStore


@dataclass
class TvtSynModel:
    cfg: ModelConfig
    encoder: EncoderParams
    tvt: TvtParams
    prosody: ProsodyParams
    decoder: DecoderParams

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig) -> "TvtSynModel":
        """Bind the store's tensors to the typed parameter groups.

        The loaders name every tensor with its shape, so they are the layout:
        a missing entry, a wrong shape or an entry no loader takes is a
        ConfigError.
        """
        source = _Source(store)
        model = cls._bind(source, cfg)
        unknown = [name for name in store.names() if name not in source.taken]
        if unknown:
            raise ConfigError(f"weight store has {len(unknown)} unknown entries, "
                              f"first: {unknown[:3]}")
        return model

    @classmethod
    def _bind(cls, source, cfg: ModelConfig) -> "TvtSynModel":
        return cls(
            cfg=cfg,
            encoder=EncoderParams.from_store(source, cfg),
            tvt=TvtParams.from_store(source, cfg),
            prosody=ProsodyParams.from_store(source, cfg),
            decoder=DecoderParams.from_store(source, cfg),
        )


class _Source:
    """The store as the loaders read it: records every name taken and, given
    `draw`, first puts an absent entry drawn by draw(name, shape)."""

    def __init__(self, store: WeightStore, draw=None):
        self.store = store
        self.draw = draw
        self.taken = set()

    def get(self, name, shape=None):
        self.taken.add(name)
        if self.draw is not None and name not in self.store:
            self.store.put(name, self.draw(name, shape))
        return self.store.get(name, shape)


def random_init(seed: int, cfg: ModelConfig) -> WeightStore:
    """Deterministic random weights for the full architecture.

    Each tensor is drawn when a loader first asks for it, so the entry order
    and the rng draws follow the loaders.
    """
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    store = WeightStore()

    def draw(name, shape):
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("bias", "beta"):
            return np.zeros(shape)
        if leaf in ("gamma", "scale"):
            return np.ones(shape)
        if leaf.startswith("ls_"):
            return np.full(shape, cfg.layer_scale)
        if leaf.endswith("_prior"):
            return rng.normal(0.0, 0.02, size=shape)
        if leaf == "codebook":
            arr = rng.normal(0.0, 1.0, size=shape)
            return arr / np.linalg.norm(arr, axis=1, keepdims=True)
        if name == "encoder.vq.proj_down.weight":
            return np.linalg.pinv(store.get("encoder.vq.proj_up.weight").astype(np.float64))
        # a transposed conv stores (in_ch, out_ch, kernel)
        if name.endswith(".up.weight"):
            fan_in = shape[0] * shape[2]
        else:
            fan_in = math.prod(shape[1:])
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    TvtSynModel._bind(_Source(store, draw), cfg)
    return store


def as_wave(samples, what="input wave"):
    """float32 array of mono samples; any shape but 1-D is an InputError
    (a stereo or batched array is not silently flattened into one wave)."""
    samples = np.asarray(samples, dtype=F32)
    if samples.ndim != 1:
        raise InputError(f"{what} must be a 1-D array of samples, got shape {samples.shape}")
    return samples


def align_wave(wave):
    """Zero-pad to the next multiple of the 320-sample hop."""
    wave = as_wave(wave)
    rem = wave.size % FRAME_HOP
    if rem:
        wave = np.concatenate([wave, np.zeros(FRAME_HOP - rem, dtype=F32)])
    return wave


def synthesize(model: TvtSynModel, wave, speaker, *, lookahead=None,
               block_frames=None, f0_scale=1.0, return_details=False):
    """One-shot synthesis: waveform + 704-dim speaker vector -> waveform.

    Output has exactly the (hop-aligned) input length. With return_details,
    returns (waveform, facet weights (T, slots), gate alpha (T,)).
    """
    f0_scale = check_f0_scale(f0_scale)
    wave = align_wave(wave)
    if not wave.size:
        raise InputError("input wave has no samples")
    if not np.isfinite(wave).all():
        raise InputError("input wave contains non-finite samples")
    frames = encode_frames(wave, model.encoder, None,
                           lookahead=lookahead, block_frames=block_frames)
    content, _ = vq_quantize(frames, model.encoder.vq)
    gtm = build_gtm(speaker, model.tvt)
    tvt, facet_weights, alpha = tvt_sequence(content, speaker, gtm, model.tvt)
    pred, _ = predict_f0_energy(content, model.prosody)
    ctxout = decode_context(content, tvt, pred, model.decoder, model.prosody,
                            f0_scale=f0_scale)
    out = synthesize_wave(ctxout, tvt, model.decoder)
    if return_details:
        return out, facet_weights, alpha
    return out
