"""Full-model assembly: bind a weight store to typed parameter groups, draw
seeded random weights through the same loaders, and run the single-pass
(offline) pipeline, whole or up to the timbre stream.

The offline pass recomputes everything with whole-sequence attention and
one-shot convolutions; `block_frames` reproduces the chunked runtime's
within-chunk lookahead masks, which makes this the reference computation the
streaming session is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (FRAME_HOP, LAYER_SCALE, MAX_LOOKAHEAD, ModelConfig, check_float_array,
                     check_int, check_lookahead, check_offline_samples, check_real)
from .decoder import DecoderParams, decode_context, synthesize_wave
from .encoder import EncoderParams, encode_frames, vq_quantize
from .errors import ConfigError, InputError
from .prosody import MAX_F0_SCALE, ProsodyParams, predict_f0_energy
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
    and the rng draws follow the loaders. A seed that is not an int >= 0 is a
    ConfigError.
    """
    rng = np.random.Generator(np.random.PCG64(check_int(seed, "seed", 0, None)))
    store = WeightStore()

    def draw(name, shape):
        # past the address space numpy raises a ValueError, not a MemoryError
        if math.prod(shape) > np.iinfo(np.intp).max // 8:  # float64 elements
            raise MemoryError(f"cannot allocate {name} of shape {shape}")
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("bias", "beta"):
            return np.zeros(shape)
        if leaf in ("gamma", "scale"):
            return np.ones(shape)
        if leaf.startswith("ls_"):
            return np.full(shape, LAYER_SCALE)
        if leaf.endswith("_prior"):
            return rng.normal(0.0, 0.02, size=shape)
        if leaf == "codebook":
            arr = rng.normal(0.0, 1.0, size=shape)
            return arr / np.linalg.norm(arr, axis=1, keepdims=True)
        if name == "encoder.vq.proj_down.weight":
            return np.linalg.pinv(store.get("encoder.vq.proj_up.weight").astype(np.float64))
        bound = 1.0 / np.sqrt(math.prod(shape[1:]))
        return rng.uniform(-bound, bound, size=shape)

    TvtSynModel._bind(_Source(store, draw), cfg)
    return store


# largest sample magnitude accepted: int16 full scale, far above the [-1, 1)
# of a PCM WAV. Much larger samples overflow layer_norm's float32 square (from
# about 1e25) and normalize the frames to 0, a wrong output that stays finite.
MAX_SAMPLE = 32768.0


def as_wave(samples, what="input wave"):
    """float32 mono samples, from real floats (see check_float_array). Any shape
    but 1-D is an InputError (a stereo or batched array is not flattened into
    one wave), and so is a sample that is NaN or of magnitude above MAX_SAMPLE."""
    samples = check_float_array(samples, what)
    if samples.ndim != 1:
        raise InputError(f"{what} must be a 1-D array of samples, got shape {samples.shape}")
    # NaN fails the comparison
    if not (np.abs(samples) <= MAX_SAMPLE).all():
        raise InputError(f"{what} contains non-finite samples or samples of magnitude "
                         f"above {MAX_SAMPLE:g}")
    return samples


def content_and_timbre(model: TvtSynModel, wave, speaker, *, lookahead=MAX_LOOKAHEAD,
                       block_frames=None):
    """The offline front half, up to the timbre stream: waveform + 704-dim
    speaker vector -> (content, timbre stream, facet weights (T, slots), gate
    alpha (T,)), one frame per 320-sample hop of the wave zero-padded to whole
    hops. Memory grows with the wave, so one over MAX_SPAN_SECONDS is an
    InputError: a stream's state is constant. A look-ahead outside [0,
    MAX_LOOKAHEAD] or a `block_frames` that is not an int >= 1 is a
    ConfigError. Every input is checked before the encoder runs.
    """
    check_lookahead(lookahead, "lookahead")
    if block_frames is not None:
        check_int(block_frames, "block_frames", 1, None)
    wave = as_wave(wave)
    wave = np.pad(wave, (0, -wave.size % FRAME_HOP))
    if not wave.size:
        raise InputError("input wave has no samples")
    check_offline_samples(wave.size, "input wave")
    gtm = build_gtm(speaker, model.tvt)  # checks the speaker
    frames = encode_frames(wave, model.encoder, None,
                           lookahead=lookahead, block_frames=block_frames)
    content, _ = vq_quantize(frames, model.encoder.vq)
    tvt, facet_weights, alpha = tvt_sequence(content, speaker, gtm, model.tvt)
    return content, tvt, facet_weights, alpha


def synthesize(model: TvtSynModel, wave, speaker, *, lookahead=MAX_LOOKAHEAD,
               block_frames=None, f0_scale=1.0):
    """One-shot synthesis: waveform + 704-dim speaker vector -> waveform of
    exactly the hop-aligned input length, at most MAX_SPAN_SECONDS (see
    content_and_timbre)."""
    f0_scale = check_real(f0_scale, "f0_scale", -MAX_F0_SCALE, MAX_F0_SCALE)
    content, tvt, _, _ = content_and_timbre(model, wave, speaker, lookahead=lookahead,
                                            block_frames=block_frames)
    pred, _ = predict_f0_energy(content, model.prosody)
    ctxout = decode_context(content, tvt, pred, model.decoder, model.prosody,
                            f0_scale=f0_scale)
    return synthesize_wave(ctxout, tvt, model.decoder)
