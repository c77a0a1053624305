"""Waveform decoder: cLN-with-fusion conditioning, a strictly causal context
transformer, and the mirrored SEANet upsampler back to 16 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DECODER_STRIDES, FINAL_KERNEL, INIT_KERNEL, ModelConfig
from .context import TransformerParams, transformer_full, transformer_step
from .encoder import ResBlock, SeanetCnn, encoder_stage_widths
from .errors import InputError
from .kernels import F32, ConvLayer, layer_norm, linear, sigmoid
from .prosody import inject_prosody
from .weights import WeightStore


@dataclass
class ClnFusionParams:
    """Conditional layer norm with fusion:
    y = Proj((1 + gamma_t) * Norm(x_t) + beta_t || sigmoid(g_t) * Norm(s_t)),
    gamma_t, beta_t and g_t one FiLM product of s_t: the rows of `film_w` are
    gamma's d_model, then beta's d_model, then g's timbre_dim.
    """

    ln_x_g: np.ndarray
    ln_x_b: np.ndarray
    ln_s_g: np.ndarray
    ln_s_b: np.ndarray
    film_w: np.ndarray
    film_b: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray

    @classmethod
    def from_store(cls, store, prefix, cfg: ModelConfig):
        d, s = cfg.d_model, cfg.timbre_dim
        return cls(
            ln_x_g=store.get(f"{prefix}.ln_x.gamma", (d,)),
            ln_x_b=store.get(f"{prefix}.ln_x.beta", (d,)),
            ln_s_g=store.get(f"{prefix}.ln_s.gamma", (s,)),
            ln_s_b=store.get(f"{prefix}.ln_s.beta", (s,)),
            film_w=store.get(f"{prefix}.film.weight", (2 * d + s, s)),
            film_b=store.get(f"{prefix}.film.bias", (2 * d + s,)),
            proj_w=store.get(f"{prefix}.proj.weight", (d, d + s)),
            proj_b=store.get(f"{prefix}.proj.bias", (d,)),
        )


def cln_fuse(x, s, p: ClnFusionParams):
    """Condition content frames (T, d_model) on timbre frames (T, timbre_dim)."""
    if x.shape[0] != s.shape[0]:
        raise InputError(f"content/timbre frame counts differ: {x.shape[0]} vs {s.shape[0]}")
    nx = layer_norm(x, p.ln_x_g, p.ln_x_b)
    ns = layer_norm(s, p.ln_s_g, p.ln_s_b)
    d = nx.shape[1]
    film = linear(s, p.film_w, p.film_b)
    gamma, beta = film[:, :d], film[:, d:2 * d]
    fused = np.empty((x.shape[0], d + ns.shape[1]), dtype=F32)
    gamma += 1.0
    np.multiply(gamma, nx, out=fused[:, :d])
    fused[:, :d] += beta
    np.multiply(sigmoid(film[:, 2 * d:]), ns, out=fused[:, d:])
    return linear(fused, p.proj_w, p.proj_b).astype(F32, copy=False)


class DecoderCnn(SeanetCnn):
    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig):
        widths = list(reversed(encoder_stage_widths(cfg)))
        layers = [ConvLayer.from_store(store, "decoder.cnn.conv_in",
                                       cfg.d_model, widths[0], FINAL_KERNEL)]
        for i, stride in enumerate(DECODER_STRIDES):
            layers.append(ConvLayer.from_store(store, f"decoder.cnn.stage{i}.up", widths[i],
                                               widths[i + 1], 2, up=stride))
            layers.append(ResBlock.from_store(store, f"decoder.cnn.stage{i}.res", widths[i + 1]))
        layers.append(ConvLayer.from_store(store, "decoder.cnn.conv_out",
                                           widths[-1], 1, INIT_KERNEL))
        return cls(layers)

    def apply(self, frames, states=None):
        """Conditioned frames (T, d_model) -> ((T*320,) samples, states)."""
        x, states = self.run(np.ascontiguousarray(frames.T), states)
        wave = x[0]
        return np.tanh(wave, out=wave), states


@dataclass
class DecoderParams:
    cln_in: ClnFusionParams
    ctx: TransformerParams
    cln_out: ClnFusionParams
    cnn: DecoderCnn

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig):
        return cls(
            cln_in=ClnFusionParams.from_store(store, "decoder.cln_in", cfg),
            ctx=TransformerParams.from_store(store, "decoder.attn", cfg),
            cln_out=ClnFusionParams.from_store(store, "decoder.cln_out", cfg),
            cnn=DecoderCnn.from_store(store, cfg),
        )


def decode_context(frames, tvt, prosody_stream, params: DecoderParams,
                   prosody_params, *, f0_scale=1.0, cache=None):
    """Condition content on timbre, inject prosody, run the causal context stack.

    frames/tvt/prosody_stream must be frame-aligned 2-D streams. Stateless
    when cache is None (whole sequence); incremental from `cache.next_pos`
    otherwise.
    """
    if not (frames.shape[0] == tvt.shape[0] == prosody_stream.shape[0]):
        raise InputError(
            f"stream lengths differ: content {frames.shape[0]}, timbre {tvt.shape[0]}, "
            f"prosody {prosody_stream.shape[0]}")
    x = cln_fuse(frames, tvt, params.cln_in)
    x = inject_prosody(x, prosody_stream, prosody_params, f0_scale=f0_scale)
    if cache is None:
        return transformer_full(x, params.ctx, lookahead=0)
    return transformer_step(x, params.ctx, cache, lookahead=0)


def synthesize_wave(frames, tvt, params: DecoderParams):
    """Context output + timbre -> (T*320,) waveform in [-1, 1] (the CNN ends
    in tanh)."""
    wave, _ = params.cnn.apply(cln_fuse(frames, tvt, params.cln_out))
    return wave
