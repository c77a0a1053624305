"""Streaming content encoder: causal SEANet CNN to 50 Hz frames, masked
context attention, and the factorized VQ bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (CODEBOOK_SIZE, ENCODER_STRIDES, FINAL_KERNEL, FRAME_HOP, INIT_KERNEL,
                     MAX_LOOKAHEAD, RES_DILATION, RES_KERNEL, VQ_DIM, ModelConfig)
from .context import KvCache, TransformerParams, transformer_full, transformer_step
from .errors import ConfigError, InputError
from .kernels import F32, ConvLayer, elu, l2_normalize_rows, linear, weight_product
from .weights import REGENERATE, WeightStore


def encoder_stage_widths(cfg: ModelConfig):
    return [cfg.base_width * (2 ** i) for i in range(len(ENCODER_STRIDES) + 1)]


@dataclass
class ResBlock:
    """conv(k, dilated) -> ELU -> conv(1x1) -> true skip. The 1x1 conv reads
    no earlier input, so it runs as the one product it is, and the block's
    state is conv1's."""

    conv1: ConvLayer
    conv2: ConvLayer

    @classmethod
    def from_store(cls, store, prefix, width):
        return cls(
            conv1=ConvLayer.from_store(store, f"{prefix}.conv1", width, width, RES_KERNEL,
                                       dilation=RES_DILATION),
            conv2=ConvLayer.from_store(store, f"{prefix}.conv2", width, width, 1),
        )

    def init_state(self):
        return self.conv1.init_state()

    def apply(self, x, state):
        h, state = self.conv1.apply(x, state)
        conv2 = self.conv2
        y = weight_product(conv2.weight.reshape(conv2.out_ch, conv2.in_ch), elu(h))
        y += conv2.bias[:, None]
        return np.add(x, y, out=y), state


@dataclass
class SeanetCnn:
    """A causal SEANet CNN as one list of layers in forward order: ConvLayers
    and ResBlocks, each carrying one state array."""

    layers: list

    def init_states(self):
        return [layer.init_state() for layer in self.layers]

    def run(self, x, states):
        """(C_in, T) -> ((C_out, T'), one new state per layer). An ELU goes
        before every conv but the first; a residual block takes its input
        as it is."""
        if states is None:
            states = self.init_states()
        new_states = []
        for i, (layer, state) in enumerate(zip(self.layers, states, strict=True)):
            if i and isinstance(layer, ConvLayer):
                x = elu(x)
            x, state = layer.apply(x, state)
            new_states.append(state)
        return x, new_states


class EncoderCnn(SeanetCnn):
    """The content encoder's CNN, 16 kHz samples -> 50 Hz frames. Frame j
    depends only on samples 0..320*j, up to the first sample of its own hop:
    a hop of lag, since the rest of that hop first reaches frame j + 1."""

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig):
        widths = encoder_stage_widths(cfg)
        layers = [ConvLayer.from_store(store, "encoder.cnn.conv_in", 1, widths[0], INIT_KERNEL)]
        for i, stride in enumerate(ENCODER_STRIDES):
            layers.append(ResBlock.from_store(store, f"encoder.cnn.stage{i}.res", widths[i]))
            layers.append(ConvLayer.from_store(store, f"encoder.cnn.stage{i}.down",
                                               widths[i], widths[i + 1], 2 * stride, stride))
        layers.append(ConvLayer.from_store(store, "encoder.cnn.conv_out",
                                           widths[-1], cfg.d_model, FINAL_KERNEL))
        return cls(layers)

    def apply(self, wave, states=None):
        """(T,) samples -> ((T/FRAME_HOP, d_model) frames, states)."""
        x, states = self.run(np.asarray(wave, dtype=F32).reshape(1, -1), states)
        return np.ascontiguousarray(x.T), states


@dataclass
class VqParams:
    proj_down: np.ndarray  # (VQ_DIM, d_model)
    proj_up: np.ndarray    # (d_model, VQ_DIM)
    codebook: np.ndarray   # (CODEBOOK_SIZE, VQ_DIM), unit-norm rows
    # for vq_nearest, built once with the codebook: the codebook in float64
    # and its rows' squared norms, both read-only
    codebook64: np.ndarray = field(init=False, repr=False)
    code_sq_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.codebook64 = self.codebook.astype(np.float64)
        self.code_sq_norms = np.einsum("ij,ij->i", self.codebook64, self.codebook64)
        self.codebook64.setflags(write=False)
        self.code_sq_norms.setflags(write=False)

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig):
        proj_up = store.get("encoder.vq.proj_up.weight", (cfg.d_model, VQ_DIM))
        proj_down = store.get("encoder.vq.proj_down.weight", (VQ_DIM, cfg.d_model))
        codebook = store.get("encoder.vq.codebook", (CODEBOOK_SIZE, VQ_DIM))
        vq = cls(proj_down=proj_down, proj_up=proj_up, codebook=codebook)
        # written so that a NaN norm fails it too
        if not np.all(np.abs(np.sqrt(vq.code_sq_norms) - 1.0) <= 1e-5):
            raise ConfigError(f"codebook rows must be finite and unit-norm; {REGENERATE}")
        return vq


def vq_latents(frames, vq: VqParams):
    """L2-normalized projections of (T, d_model) frames onto the code space."""
    return l2_normalize_rows(linear(frames, vq.proj_down))


def vq_nearest(latents, vq: VqParams):
    """Row-wise nearest code by L2, ties broken toward the lowest index.

    Distances are computed in float64, against the codebook and squared row
    norms VqParams keeps, so the argmin is stable against formula-level
    rounding; only indices leave this function.
    """
    z = latents.astype(np.float64)
    d = (np.sum(z * z, axis=1, keepdims=True)
         - 2.0 * (z @ vq.codebook64.T)
         + vq.code_sq_norms[None, :])
    return np.argmin(d, axis=1)


def vq_quantize(frames, vq: VqParams):
    """Quantize (T, d_model) frames -> ((T, d_model) reconstruction, indices).
    A non-finite latent is an InputError: argmin would map it to code 0."""
    z = vq_latents(frames, vq)
    if not np.isfinite(z).all():
        raise InputError("the encoder gave non-finite VQ latents from finite input; "
                         "check the weight file for NaN or inf values")
    idx = vq_nearest(z, vq)
    out = linear(vq.codebook[idx], vq.proj_up)
    return out.astype(F32, copy=False), idx


@dataclass
class EncoderParams:
    cnn: EncoderCnn
    ctx: TransformerParams
    vq: VqParams

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig):
        return cls(
            cnn=EncoderCnn.from_store(store, cfg),
            ctx=TransformerParams.from_store(store, "encoder.attn", cfg),
            vq=VqParams.from_store(store, cfg),
        )


class EncoderState:
    """Per-stream encoder state: conv buffers and the KV cache (whose
    `next_pos` is the frame clock) for blocks of at most `block` frames."""

    def __init__(self, params: EncoderParams, block: int):
        self.conv = params.cnn.init_states()
        self.cache = KvCache(params.ctx, block)


def encode_frames(wave, params: EncoderParams, state: EncoderState = None,
                  *, lookahead=MAX_LOOKAHEAD, block_frames=None):
    """Waveform -> frames (T/FRAME_HOP, d_model). Frame j sees input samples
    up to at most 320*(j + lookahead): the CNN's frames up to j + lookahead,
    each of which reaches only the first sample of its hop (see EncoderCnn).

    Stateless call (state=None): one-shot pass whose attention mask optionally
    mirrors chunked execution via `block_frames`. Stateful call: incremental
    block with lookahead confined to the supplied block; `state` is updated
    in place.
    """
    wave = np.asarray(wave, dtype=F32).reshape(-1)
    if wave.size % FRAME_HOP:
        raise InputError(
            f"wave length {wave.size} is not a multiple of the {FRAME_HOP}-sample hop")
    if state is None:
        frames, _ = params.cnn.apply(wave)
        return transformer_full(frames, params.ctx, lookahead=lookahead,
                                block_frames=block_frames)
    frames, state.conv = params.cnn.apply(wave, state.conv)
    return transformer_step(frames, params.ctx, state.cache, lookahead=lookahead)
