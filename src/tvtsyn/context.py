"""Causal multi-head self-attention stacks with rotary positions.

One layer loop serves both entry points; they differ only in where each
layer's keys come from:
  - `transformer_full`: the whole sequence attends to itself (offline),
    optionally with lookahead truncated at block boundaries to mirror a stream,
  - `transformer_step`: one block of new frames attends to the stack's KV
    ring, which holds the look-back window and the block itself (streaming).

Either way the mask is `band_mask` over absolute frame positions, so the
ring's keys need not be in time order. Keys are cached post-rotation at
absolute positions; rotary attention depends only on relative offsets, so
cached entries stay valid as the stream advances. Each head's rotary pairs
are its adjacent dims (2i, 2i+1): each pass builds one complex64 table for
its frames, and every layer rotates its q and k together with one complex
multiply by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LOOKBACK_FRAMES
from .errors import ConfigError, InternalError
from .kernels import F32, layer_norm, linear, masked_softmax, mlp, rope_cos_sin
from .weights import WeightStore


@dataclass
class AttnLayer:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wqkv: np.ndarray
    bqkv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ls_attn: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ls_ffn: np.ndarray


@dataclass
class TransformerParams:
    layers: list
    ln_out_g: np.ndarray
    ln_out_b: np.ndarray
    n_heads: int

    @property
    def d_model(self) -> int:
        return self.ln_out_g.shape[0]

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @classmethod
    def from_store(cls, store: WeightStore, prefix: str, cfg) -> "TransformerParams":
        d, f = cfg.d_model, cfg.ffn_dim
        layers = []
        for i in range(cfg.n_layers):
            b = f"{prefix}.layer{i}"
            layers.append(AttnLayer(
                ln1_g=store.get(f"{b}.ln1.gamma", (d,)),
                ln1_b=store.get(f"{b}.ln1.beta", (d,)),
                wqkv=store.get(f"{b}.qkv.weight", (3 * d, d)),
                bqkv=store.get(f"{b}.qkv.bias", (3 * d,)),
                wo=store.get(f"{b}.o.weight", (d, d)), bo=store.get(f"{b}.o.bias", (d,)),
                ls_attn=store.get(f"{b}.ls_attn", (d,)),
                ln2_g=store.get(f"{b}.ln2.gamma", (d,)),
                ln2_b=store.get(f"{b}.ln2.beta", (d,)),
                w1=store.get(f"{b}.ffn1.weight", (f, d)), b1=store.get(f"{b}.ffn1.bias", (f,)),
                w2=store.get(f"{b}.ffn2.weight", (d, f)), b2=store.get(f"{b}.ffn2.bias", (d,)),
                ls_ffn=store.get(f"{b}.ls_ffn", (d,)),
            ))
        return cls(
            layers=layers,
            ln_out_g=store.get(f"{prefix}.ln_out.gamma", (d,)),
            ln_out_b=store.get(f"{prefix}.ln_out.beta", (d,)),
            n_heads=cfg.n_heads,
        )


class KvCache:
    """Ring of rotated keys/values for every layer of one stack, stored
    (layers, heads, slots, head_dim) with slots = LOOKBACK_FRAMES + block.

    Frame p lives in slot p % slots, and `pos` holds the absolute frame of
    each slot (a slot not yet written holds a position no query admits).
    Attention masks keys by position through `band_mask` and does not care
    about their order, so a layer writes its block at the slots `advance`
    returns and attends over its whole ring as a view; no frame is ever
    moved. After a block of at most `block` frames the ring still holds the
    look-back window of every frame in it. `next_pos` is the absolute frame
    the next block starts at: the stack's only frame clock. The buffers are
    allocated once, so per-session memory is constant in stream length.
    """

    def __init__(self, params: TransformerParams, block: int):
        self.block = block
        slots = LOOKBACK_FRAMES + block
        shape = (len(params.layers), params.n_heads, slots, params.head_dim)
        self.k = np.zeros(shape, dtype=F32)
        self.v = np.zeros(shape, dtype=F32)
        self.pos = np.full(slots, np.iinfo(np.int64).min, dtype=np.int64)
        self.next_pos = 0

    @property
    def nbytes(self) -> int:
        return self.k.nbytes + self.v.nbytes + self.pos.nbytes

    def advance(self, n: int) -> np.ndarray:
        """Take a block of n frames at positions next_pos, next_pos + 1, ...
        and return the ring slots the block's keys/values go to."""
        if n > self.block:
            raise InternalError(
                f"block of {n} frames exceeds the KV cache's {self.block}-frame block")
        frames = self.next_pos + np.arange(n)
        slots = frames % self.pos.shape[0]
        self.pos[slots] = frames
        self.next_pos += n
        return slots


def band_mask(q_pos, k_pos, lookback: int, lookahead: int, block_frames=None):
    """Boolean (len(q_pos), len(k_pos)) mask over absolute frame positions.

    A query at q sees keys in [q - lookback, q + lookahead]. With
    `block_frames`, lookahead also stops at the end of q's block (blocks
    start at multiples of block_frames), which is the mask a chunked runtime
    applies when its chunks are block_frames long. A query that sees no key
    is a ConfigError.
    """
    q = np.asarray(q_pos)[:, None]
    k = np.asarray(k_pos)[None, :]
    allowed = (k >= q - lookback) & (k <= q + lookahead)
    if block_frames is not None:
        if block_frames < 1:
            raise ConfigError("block_frames must be >= 1")
        block_end = (q // block_frames + 1) * block_frames - 1
        allowed &= (k <= q) | (k <= block_end)
    if not allowed.any(axis=-1).all():
        raise ConfigError("attention row is fully masked")
    return allowed


def _attend(q, k, v, allowed):
    """q: (T,H,Dh), head-major k/v: (H,S,Dh), allowed: (T,S) from band_mask
    -> (T,H,Dh)."""
    scale = F32(1.0 / np.sqrt(q.shape[-1]))
    # per-head batched matmuls, (H,T,Dh) @ (H,Dh,S): BLAS, where einsum is not
    scores = q.transpose(1, 0, 2) @ k.transpose(0, 2, 1)
    scores *= scale
    w = masked_softmax(scores, allowed)
    return (w @ v).transpose(1, 0, 2)


def _block(x, layer, params: TransformerParams, rope, allowed, kv, owned: bool):
    """One pre-norm layer over the frames x, with `rope` the frames'
    (T, head_dim/2) rotary table.

    The keys are the frames' own (offline, kv None) or, when streaming, this
    layer's (keys, values, slots): views of its whole ring, with the frames'
    own written at the ring slots `slots` first. The residual sums go into x
    itself when the caller `owned` it.
    """
    h = layer_norm(x, layer.ln1_g, layer.ln1_b)
    t, d = x.shape
    # (T, 3 * d_model) as (T, q/k/v, heads, head_dim), sliced as views
    qkv = linear(h, layer.wqkv, layer.bqkv).reshape(t, 3, params.n_heads, -1)
    # q and k as complex pairs, rotated in one multiply; the complex view
    # needs a contiguous last axis, which a GEMM's (F-ordered) output lacks
    qk = np.ascontiguousarray(qkv[:, :2]).view(np.complex64)
    qk *= rope[:, None, None]
    rotated = qk.view(F32)
    q, k = rotated[:, 0], rotated[:, 1]
    v = qkv[:, 2]
    if kv is None:
        keys, values = k.transpose(1, 0, 2), v.transpose(1, 0, 2)
    else:
        keys, values, slots = kv
        keys[:, slots] = k.transpose(1, 0, 2)
        values[:, slots] = v.transpose(1, 0, 2)
    a = linear(_attend(q, keys, values, allowed).reshape(t, d), layer.wo, layer.bo)
    a *= layer.ls_attn
    x = np.add(x, a, out=x if owned else None)
    f = mlp(layer_norm(x, layer.ln2_g, layer.ln2_b), layer.w1, layer.b1, layer.w2, layer.b2)
    f *= layer.ls_ffn
    x += f
    return x.astype(F32, copy=False)


def _stack(x, params: TransformerParams, lookahead: int, block_frames, cache: KvCache | None):
    """Every layer over the frames x, at positions 0, 1, ... offline or from
    `cache.next_pos` on when streaming, then the output norm.

    The lookahead window (truncated at block_frames) applies to the first
    layer only; deeper layers are strictly causal. Stacking lookahead at every
    layer would compound the horizon (layer n sees n * lookahead frames ahead),
    breaking the fixed-budget future access the runtime promises. So each
    call builds two masks, one for the first layer and one for the rest; a
    stream's keys are its cache's ring slots, at the positions `cache.pos`.
    """
    n = x.shape[0]
    pos = (0 if cache is None else cache.next_pos) + np.arange(n)
    slots = None if cache is None else cache.advance(n)
    key_pos = pos if cache is None else cache.pos
    first = band_mask(pos, key_pos, LOOKBACK_FRAMES, lookahead, block_frames)
    rest = band_mask(pos, key_pos, LOOKBACK_FRAMES, 0)
    rope = rope_cos_sin(pos, params.head_dim)
    for i, layer in enumerate(params.layers):
        kv = None if cache is None else (cache.k[i], cache.v[i], slots)
        x = _block(x, layer, params, rope, first if i == 0 else rest, kv, owned=i > 0)
    return layer_norm(x, params.ln_out_g, params.ln_out_b)


def transformer_full(x, params: TransformerParams, *, lookahead: int, block_frames=None):
    """Whole-sequence pass over (T, d_model) frames at positions 0, 1, ...;
    `block_frames` reproduces the masks of a stream fed in blocks of that
    many frames."""
    return _stack(x, params, lookahead, block_frames, None)


def transformer_step(x, params: TransformerParams, cache: KvCache, *, lookahead: int):
    """Incremental pass over one block (T, d_model) of new frames at
    positions from `cache.next_pos` on.

    Lookahead reaches only within the supplied block; the cache is updated
    in place so the next call continues T frames later.
    """
    return _stack(x, params, lookahead, None, cache)
