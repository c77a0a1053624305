"""Full-model assembly: bind a weight store to typed parameter groups and run
the single-pass (offline) synthesis pipeline.

The offline pass recomputes everything with whole-sequence attention and
one-shot convolutions; `block_frames` reproduces the chunked runtime's
within-chunk lookahead masks, which makes this the reference computation the
streaming session is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FRAME_HOP, ModelConfig
from .decoder import DecoderParams, decode_context, synthesize_wave
from .encoder import EncoderParams, encode_frames, vq_quantize
from .errors import ConfigError, InputError
from .kernels import F32
from .prosody import ProsodyParams, check_f0_scale, predict_f0_energy
from .timbre import TvtParams, build_gtm, tvt_sequence
from .weights import WeightStore, parameter_specs


@dataclass
class TvtSynModel:
    cfg: ModelConfig
    encoder: EncoderParams
    tvt: TvtParams
    prosody: ProsodyParams
    decoder: DecoderParams

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig) -> "TvtSynModel":
        expected = {s.name for s in parameter_specs(cfg)}
        present = set(store.names())
        missing = sorted(expected - present)
        extra = sorted(present - expected)
        if missing:
            raise ConfigError(f"weight store is missing {len(missing)} entries, "
                              f"first: {missing[:3]}")
        if extra:
            raise ConfigError(f"weight store has {len(extra)} unknown entries, "
                              f"first: {extra[:3]}")
        return cls(
            cfg=cfg,
            encoder=EncoderParams.from_store(store, cfg),
            tvt=TvtParams.from_store(store, cfg),
            prosody=ProsodyParams.from_store(store, cfg),
            decoder=DecoderParams.from_store(store, cfg),
        )


def align_wave(wave):
    """Zero-pad to the next multiple of the 320-sample hop."""
    wave = np.asarray(wave, dtype=F32).reshape(-1)
    rem = wave.size % FRAME_HOP
    if rem:
        wave = np.concatenate([wave, np.zeros(FRAME_HOP - rem, dtype=F32)])
    return wave


def synthesize(model: TvtSynModel, wave, speaker, *, lookahead=None,
               block_frames=None, f0_scale=1.0, force_alpha=None,
               return_details=False):
    """One-shot synthesis: waveform + 704-dim speaker vector -> waveform.

    Output has exactly the (hop-aligned) input length. With return_details,
    also returns a dict of intermediate streams for probes and dumps.
    """
    f0_scale = check_f0_scale(f0_scale)
    wave = align_wave(wave)
    if not wave.size:
        raise InputError("input wave has no samples")
    if not np.isfinite(wave).all():
        raise InputError("input wave contains non-finite samples")
    frames, _ = encode_frames(wave, model.encoder, None,
                              lookahead=lookahead, block_frames=block_frames)
    content, codes = vq_quantize(frames, model.encoder.vq)
    gtm = build_gtm(speaker, model.tvt)
    tvt, facet_weights, top1, alpha = tvt_sequence(
        content, speaker, gtm, model.tvt, force_alpha=force_alpha, return_details=True)
    pred, _ = predict_f0_energy(content, model.prosody)
    ctxout = decode_context(content, tvt, pred, model.decoder, model.prosody,
                            f0_scale=f0_scale)
    out, _ = synthesize_wave(ctxout, tvt, model.decoder)
    if return_details:
        return out, {
            "frames": frames,
            "content": content,
            "codes": codes,
            "tvt": tvt,
            "facet_weights": facet_weights,
            "top1": top1,
            "alpha": alpha,
            "prosody": pred,
        }
    return out
