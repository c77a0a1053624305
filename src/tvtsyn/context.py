"""Causal multi-head self-attention stacks with rotary positions.

Two execution paths over the same weights:
  - `transformer_full`: whole-sequence pass with an explicit banded mask
    (optionally truncated at chunk-block boundaries, to mirror streaming),
  - `transformer_step`: incremental pass over one block of new frames using
    per-layer ring KV caches holding the rolling look-back window.

Keys are cached post-rotation at absolute positions; rotary attention depends
only on relative offsets, so cached entries stay valid as the stream advances.
Each pass builds one rotary cos/sin table for its frames and shares it across
every layer and both of q and k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalError
from .kernels import F32, elu, layer_norm, linear, masked_softmax, rope_cos_sin, rope_rotate
from .weights import WeightStore


@dataclass
class AttnLayer:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
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
    lookback: int

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
                wq=store.get(f"{b}.q.weight", (d, d)), bq=store.get(f"{b}.q.bias", (d,)),
                wk=store.get(f"{b}.k.weight", (d, d)), bk=store.get(f"{b}.k.bias", (d,)),
                wv=store.get(f"{b}.v.weight", (d, d)), bv=store.get(f"{b}.v.bias", (d,)),
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
            lookback=cfg.lookback_frames,
        )


class KvRing:
    """Fixed-capacity rolling cache of rotated keys/values for one layer.

    Entries hold the most recent `capacity` frames; `next_pos` is the absolute
    frame index the next append must start at (desync raises InternalError).
    Buffers are preallocated, so per-session memory is constant in stream length.
    """

    def __init__(self, capacity: int, n_heads: int, head_dim: int):
        self.capacity = capacity
        self.k = np.zeros((capacity, n_heads, head_dim), dtype=F32)
        self.v = np.zeros((capacity, n_heads, head_dim), dtype=F32)
        self.count = 0
        self.write = 0
        self.next_pos = 0

    def _check_start(self, start_pos: int):
        if start_pos != self.next_pos:
            raise InternalError(
                f"KV cache desync: block at position {start_pos}, expected {self.next_pos}")

    def window(self, k_new, v_new, start_pos: int):
        """(keys, values, positions): the cached frames oldest first, then the
        new ones from start_pos on. The cache is left as it is; `append`
        stores the new frames.

        Until the ring wraps, `write == count`; after, the oldest entry sits
        at `write`. Either way the cached frames are k[write:count] + k[:write].
        """
        self._check_start(start_pos)
        w, n = self.write, self.count
        keys = np.concatenate([self.k[w:n], self.k[:w], k_new])
        values = np.concatenate([self.v[w:n], self.v[:w], v_new])
        return keys, values, self.next_pos - n + np.arange(keys.shape[0])

    def append(self, k_new, v_new, start_pos: int):
        self._check_start(start_pos)
        n = k_new.shape[0]
        keep = min(n, self.capacity)
        # the newest `keep` frames go in at `write`, wrapping at most once
        head = min(keep, self.capacity - self.write)
        src = n - keep
        self.k[self.write:self.write + head] = k_new[src:src + head]
        self.v[self.write:self.write + head] = v_new[src:src + head]
        self.k[:keep - head] = k_new[src + head:]
        self.v[:keep - head] = v_new[src + head:]
        self.write = (self.write + keep) % self.capacity
        self.count = min(self.count + n, self.capacity)
        self.next_pos += n

    def state_nbytes(self) -> int:
        return self.k.nbytes + self.v.nbytes


def make_rings(params: TransformerParams) -> list:
    return [KvRing(params.lookback, params.n_heads, params.head_dim)
            for _ in params.layers]


def _split_heads(x, n_heads):
    t, d = x.shape
    return x.reshape(t, n_heads, d // n_heads)


def _merge_heads(x):
    t, h, dh = x.shape
    return x.reshape(t, h * dh)


def _ffn(x, layer):
    h = elu(linear(x, layer.w1, layer.b1))
    return linear(h, layer.w2, layer.b2)


def context_mask(n_frames: int, lookback: int, lookahead: int, block_frames=None):
    """Banded causal mask with lookahead truncated at block boundaries.

    Reproduces the mask a chunked runtime applies: queries see up to
    `lookahead` future frames but never past the end of their own block.
    """
    t = np.arange(n_frames)[:, None]
    s = np.arange(n_frames)[None, :]
    allowed = (s >= t - lookback) & (s <= t + lookahead)
    if block_frames is not None:
        if block_frames < 1:
            raise ConfigError("block_frames must be >= 1")
        block_end = (t // block_frames + 1) * block_frames - 1
        allowed &= (s <= t) | (s <= block_end)
    return allowed


def _attend(q, k, v, allowed):
    """q: (T,H,Dh), k/v: (S,H,Dh), allowed: (T,S) -> (T,H,Dh)."""
    scale = F32(1.0 / np.sqrt(q.shape[-1]))
    # per-head batched matmuls, (H,T,Dh) @ (H,Dh,S): BLAS, where einsum is not
    scores = (q.transpose(1, 0, 2) @ k.transpose(1, 2, 0)) * scale
    w = masked_softmax(scores, allowed) if allowed is not None else masked_softmax(scores)
    return (w.astype(F32, copy=False) @ v.transpose(1, 0, 2)).transpose(1, 0, 2)


def _qkv(h, layer, n_heads, rope):
    q = rope_rotate(_split_heads(linear(h, layer.wq, layer.bq), n_heads), *rope)
    k = rope_rotate(_split_heads(linear(h, layer.wk, layer.bk), n_heads), *rope)
    v = _split_heads(linear(h, layer.wv, layer.bv), n_heads)
    return q, k, v


def _block_full(x, layer, n_heads, allowed, rope):
    q, k, v = _qkv(layer_norm(x, layer.ln1_g, layer.ln1_b), layer, n_heads, rope)
    ctx = _merge_heads(_attend(q, k, v, allowed))
    x = x + layer.ls_attn * linear(ctx, layer.wo, layer.bo)
    x = x + layer.ls_ffn * _ffn(layer_norm(x, layer.ln2_g, layer.ln2_b), layer)
    return x.astype(F32, copy=False)


def transformer_full(x, params: TransformerParams, *, lookahead: int,
                     block_frames=None, position_offset: int = 0):
    """Whole-sequence pass over (T, d_model) with an explicit banded mask.

    The lookahead window applies to the first layer only; deeper layers are
    strictly causal. Stacking lookahead at every layer would compound the
    horizon (layer n sees n * lookahead frames ahead), breaking the
    fixed-budget future access the runtime promises.
    """
    first = context_mask(x.shape[0], params.lookback, lookahead, block_frames)
    rest = context_mask(x.shape[0], params.lookback, 0) if lookahead else first
    rope = rope_cos_sin(position_offset + np.arange(x.shape[0]), params.head_dim)
    for i, layer in enumerate(params.layers):
        x = _block_full(x, layer, params.n_heads, first if i == 0 else rest, rope)
    return layer_norm(x, params.ln_out_g, params.ln_out_b)


def _block_step(x, layer, n_heads, ring: KvRing, start_pos: int,
                lookahead: int, lookback: int, rope):
    t = x.shape[0]
    q, k_new, v_new = _qkv(layer_norm(x, layer.ln1_g, layer.ln1_b), layer, n_heads, rope)

    keys, values, key_pos = ring.window(k_new, v_new, start_pos)
    q_pos = start_pos + np.arange(t)[:, None]
    allowed = (key_pos[None, :] >= q_pos - lookback) & (key_pos[None, :] <= q_pos + lookahead)

    ctx = _merge_heads(_attend(q, keys, values, allowed))
    x = x + layer.ls_attn * linear(ctx, layer.wo, layer.bo)
    x = x + layer.ls_ffn * _ffn(layer_norm(x, layer.ln2_g, layer.ln2_b), layer)
    ring.append(k_new, v_new, start_pos)
    return x.astype(F32, copy=False)


def transformer_step(x, params: TransformerParams, rings: list, start_pos: int,
                     *, lookahead: int):
    """Incremental pass over one block (T, d_model) of new frames.

    Lookahead applies within the supplied block only, and (as in
    transformer_full) at the first layer only; the rolling caches are updated
    in place so the next call continues at start_pos + T.
    """
    if len(rings) != len(params.layers):
        raise InternalError("ring cache count does not match layer count")
    rope = rope_cos_sin(start_pos + np.arange(x.shape[0]), params.head_dim)
    for i, (layer, ring) in enumerate(zip(params.layers, rings)):
        x = _block_step(x, layer, params.n_heads, ring, start_pos,
                        lookahead if i == 0 else 0, params.lookback, rope)
    return layer_norm(x, params.ln_out_g, params.ln_out_b)
