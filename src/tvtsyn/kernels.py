"""Deterministic numeric kernels: the stored causal conv layer, the
two-layer MLP, normalization, masked softmax and rotary positions.

Conventions:
  - all tensors are float32 numpy arrays,
  - conv feature maps are (channels, time), frame sequences are (time, dim),
  - every stateful kernel is pure given its explicit state argument, so
    kernels are safe to call concurrently on disjoint data,
  - every product of an activation with a weight goes through
    `weight_product(W, x)`, W on the left exactly as loaded (`linear` is the
    helper for frame sequences). Every weight is stored output-major, so W
    is always a C-contiguous (outputs, inputs) matrix: a stored (out, in)
    linear weight, or a conv weight reshaped to (out, in*K). No weight is
    copied, fused or transposed at load time, and an attention layer's q, k
    and v projections are stored as one weight.
  - with more than GEMV_MAX_COLS activation columns (offline synthesis:
    100 or more everywhere) the product is one GEMM. With 2 to that many
    (a 60 ms chunk's 3 frames at 50 Hz and 6 at 100 Hz) it is one stacked
    GEMV call per block of weight rows, which numpy runs as one sgemv per
    column. A few-column GEMM packs the weight before it multiplies and
    streams it at 6-8 GB/s; a GEMV reads the block from DRAM once and from
    cache for the other columns. One column (a 20 ms chunk, the speaker's
    GTM products) re-reads nothing, so it is one GEMV over the whole weight.
    OpenBLAS 0.3.31 runs an sgemv on one thread below 460,800 weight
    elements (cold, 2-vCPU Xeon: 449x1024 in ~120 us, 450x1024 in ~70 us),
    so a several-column M x K weight is cut into max(1, M*K // GEMV_BLOCK)
    near-equal blocks and no block of a weight of at least GEMV_BLOCK
    elements falls under that cut. A full-config attention layer's
    (1536, 512) q/k/v weight is one block: a cold 3-column product takes
    ~310 us, against ~390 us as blocks of 1024 + 512 rows and ~470 us as
    three 512x512 products. The
    weights under the cut still run on one thread: in a 60 ms chunk, the
    16 512x512 `o` products and 14 smaller ones of up to 1.5 MB
    (BENCH_qkv.json has the per-stage times).
  - `ConvLayer.apply` runs every conv that carries state, through one
    kernel. It makes no temporary of kernel x channels x input length
    (low-memory GEMM convolution, Anderson et al., arXiv:1709.03395): it
    builds im2col columns IM2COL_BLOCK elements at a time in one buffer and
    issues one weight product per block. A 1x1 conv carries none, so the
    model's one (a residual block's second conv) is a plain weight product
    of its (out, in) matrix.
  - the SEANet up conv, a transposed conv of kernel 2*stride, is that
    kernel's 2-tap conv over frames with `up` = stride output phases per
    channel: its stored (out_ch*up, in_ch, 2) weight's row c*up + j holds
    channel c's taps for sample j of each frame, on the previous frame and
    on its own. The phases interleave into time as the bias is added, so a
    stride-s transposed conv is a stride-1 conv and a periodic shuffle (Shi
    et al., arXiv:1609.07009).

Causality convention: a causal conv output at index j depends only on input
columns <= j*stride, with the left context held in an explicit state buffer
(zeros at stream start); an up conv's samples j*up .. j*up + up - 1 depend
only on input columns <= j. Every state is the layer's last
(kernel-1)*dilation input columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_int
from .errors import ConfigError, InternalError

F32 = np.float32

# float32 elements in one block of the forward conv's im2col buffer: 2 MB, the
# L2 of one core on the 2-vCPU Xeon it was tuned on. Of 2^16..2^22, 2^19 was
# fastest on the 16 kHz convs of a 2 s utterance: res 96x96 k3 d2 in 21 ms and
# down 96->192 k16 s8 in 29 ms, against 22 and 34 ms at 2^20.
IM2COL_BLOCK = 1 << 19

# weight_product's per-column GEMV path: the fewest float32 weight elements
# in a block of a weight at least this large (2 MB, the L2 of one core; a
# block holds less than twice that) and the most activation columns that
# take it. The sweep below cut blocks of exactly GEMV_BLOCK elements and a
# smaller tail.
# In two interleaved sweeps of the 60 ms stream (full config, 2-vCPU Xeon),
# median feed was lowest at 2^19 (62 and 50 ms, against 71-74 and 57-64 ms
# for GEMMs); 2^20-2^21 gave back 3-6 ms, and 2^17-2^18 most or all of the
# gain. On cold weights the tiled GEMVs beat a GEMM up to 6 columns and lose
# from 8 (BENCH_9.json).
GEMV_BLOCK = 1 << 19
GEMV_MAX_COLS = 6


@dataclass(frozen=True)
class ConvLayer:
    """One stored 1-D conv. Its sizes are its weight's shape, (out_ch * up,
    in_ch, kernel): with `up` > 1 each output channel has `up` phases that
    interleave into time, so T input columns give T * up samples (the SEANet
    up conv). The tensors are checked once, here."""

    weight: np.ndarray
    bias: np.ndarray
    stride: int = 1
    dilation: int = 1
    up: int = 1

    def __post_init__(self):
        if self.weight.ndim != 3 or not self.weight.size:
            raise ConfigError(f"conv weight must be 3-D and non-empty, got shape "
                              f"{self.weight.shape}")
        check_int(self.stride, "conv stride", 1, None)
        check_int(self.dilation, "conv dilation", 1, None)
        check_int(self.up, "conv up", 1, None)
        if self.weight.shape[0] % self.up:
            raise ConfigError(f"conv weight of {self.weight.shape[0]} rows does not split "
                              f"into up = {self.up} phases")
        if self.bias.shape != (self.out_ch,):
            raise ConfigError(f"bias shape {self.bias.shape} does not match out_ch {self.out_ch}")

    @classmethod
    def from_store(cls, store, prefix, in_ch, out_ch, kernel, stride=1, dilation=1, up=1):
        return cls(store.get(f"{prefix}.weight", (out_ch * up, in_ch, kernel)),
                   store.get(f"{prefix}.bias", (out_ch,)), stride, dilation, up)

    @property
    def out_ch(self) -> int:
        return self.weight.shape[0] // self.up

    @property
    def in_ch(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]

    @property
    def state_shape(self):
        """Carried state: the left context, the last (kernel-1)*dilation input columns."""
        return (self.in_ch, (self.kernel - 1) * self.dilation)

    def init_state(self):
        """Zeros: the state at stream start."""
        return np.zeros(self.state_shape, dtype=F32)

    def apply(self, x, state):
        """(C_in, T) -> ((C_out, ceil(T/stride) * up), new_state)."""
        if x.ndim != 2 or x.shape[0] != self.in_ch:
            raise ConfigError(f"input shape {x.shape} does not match in_ch {self.in_ch}")
        if state.shape != self.state_shape:
            raise ConfigError(f"state shape {state.shape}, expected {self.state_shape}")
        return _causal_conv(x, self, state)


def _causal_conv(x, layer, state):
    """Strided/dilated causal conv over (C_in, T) -> ((C_out, ceil(T/stride) * up),
    new_state).

    Output column j reads input columns j*stride - k*dilation for k in
    [0, kernel); the (kernel-1)*dilation columns of left context come from
    `state`. When carrying state across calls, T must be a multiple of
    stride so the output grid stays aligned. im2col over [state | x] is built
    IM2COL_BLOCK elements at a time in one buffer, each block of columns one
    weight product into its slice of the (C_out * up, T') product. With
    up > 1, phase j of column t is output sample t*up + j: the product is
    written into the output, phases interleaved, by the one add of the bias.
    """
    s, d, pad = layer.stride, layer.dilation, state.shape[1]
    t_in = x.shape[1]
    t_out = -(-t_in // s)
    w = layer.weight.reshape(layer.weight.shape[0], -1)       # (C_out*up, C_in*K)
    rows = w.shape[1]
    block = max(1, IM2COL_BLOCK // rows)
    buf = np.empty(rows * min(block, t_out), dtype=F32)
    y = np.empty((w.shape[0], t_out), dtype=F32)
    for j0 in range(0, t_out, block):
        n = min(block, t_out - j0)
        # window of [state | x] from column j0*stride that output columns
        # j0..j0+n-1 read; only a window that reaches into the state is copied
        lo, span = j0 * s, (n - 1) * s + 1
        if lo >= pad:
            win = x[:, lo - pad:lo + span]
        else:
            win = np.concatenate([state[:, lo:], x[:, :lo + span]], axis=1)
        # cols[c, k, j] = win[c, j*stride + k*dilation]
        cols = buf[:rows * n].reshape(layer.in_ch, layer.kernel, n)
        for k in range(layer.kernel):
            cols[:, k] = win[:, k * d:k * d + span:s]
        weight_product(w, cols.reshape(rows, n), out=y[:, j0:j0 + n])
    # the last (kernel-1)*dilation columns of [state | x]
    new_state = np.concatenate([state[:, t_in:], x[:, max(t_in - pad, 0):]], axis=1)
    c, up = layer.out_ch, layer.up
    if up == 1:
        y += layer.bias[:, None]
        return y, new_state
    out = np.empty((c, t_out * up), dtype=F32)
    np.add(y.reshape(c, up, t_out).transpose(0, 2, 1), layer.bias[:, None, None],
           out=out.reshape(c, t_out, up))
    return out, new_state


def weight_product(w, x, out=None):
    """w @ x for a C-contiguous weight w (M, K) and activation columns x (K, n).

    Into `out` when given. More than GEMV_MAX_COLS columns: one GEMM. One
    column: one GEMV over the whole weight. From 2 to GEMV_MAX_COLS: one
    stacked GEMV call per block of weight rows (numpy runs one sgemv per
    column), so the first column streams the block from DRAM and the others
    read it from cache. The weight is then cut into max(1, M*K // GEMV_BLOCK)
    blocks that differ by at most one row, so a weight of at least
    GEMV_BLOCK elements has no block under GEMV_BLOCK less one row
    (OpenBLAS's one-thread cut is below that) nor of twice GEMV_BLOCK or
    more. No weight is copied; any other weight layout is an InternalError.
    """
    if not w.flags.c_contiguous:
        raise InternalError(f"weight of shape {w.shape} is not C-contiguous: strides {w.strides}")
    n = x.shape[1]
    if n > GEMV_MAX_COLS:
        return np.matmul(w, x, out=out)
    m, k = w.shape
    xt = np.ascontiguousarray(x.T)[:, :, None]                # (n, K, 1)
    yt = np.empty((n, m), dtype=np.result_type(w, x)) if out is None else out.T
    # blocks only pay where a later column reads them again from cache
    blocks = max(1, m * k // GEMV_BLOCK) if n > 1 else 1
    cuts = [m * i // blocks for i in range(blocks + 1)]
    for r0, r1 in zip(cuts, cuts[1:]):
        np.matmul(w[r0:r1], xt, out=yt[:, r0:r1, None])
    return yt.T


def linear(x, w, b=None):
    """Frames (T, in) through a weight stored (out, in) -> (T, out).

    Issued weight-major through weight_product(w, x.T).T: the same products
    as x @ w.T, with the weight streamed row-major. x may also be a single
    (in,) vector.
    """
    if x.ndim == 1:
        return linear(x[None], w, b)[0]
    y = weight_product(w, x.T).T
    if b is not None:
        y += b
    return y


def mlp(x, w1, b1, w2, b2):
    """linear -> ELU -> linear."""
    h = linear(x, w1, b1)
    return linear(elu(h), w2, b2)


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gamma.shape[-1] != x.shape[-1] or beta.shape[-1] != x.shape[-1]:
        raise ConfigError("layer_norm affine shape mismatch")
    d = x - _mean_last(x)
    var = _mean_last(np.square(d))
    var += F32(1e-5)
    d /= np.sqrt(var, out=var)
    d *= gamma
    d += beta
    return d


def _mean_last(x):
    """x.mean(axis=-1, keepdims=True, dtype=float32), computed as np.mean
    does: a float32 sum divided by the count as an intp, unsafe-cast back."""
    total = np.add.reduce(x, axis=-1, dtype=F32, keepdims=True)
    return np.true_divide(total, np.intp(x.shape[-1]), out=total, casting="unsafe")


def elu(x):
    """max(x, expm1(min(x, 0))) written over x, a caller's own contiguous
    float32 temporary (else InternalError), and returned. Bitwise equal to
    where(x > 0, x, expm1(min(x, 0))) on every non-NaN float32, +-0 and +-inf
    included; NaN maps to NaN. Done a block at a time through one temporary
    of a quarter of the im2col budget, so that a block of x and its
    temporary stay in L2 (on a 12 MB map: 5.5 -> 4.0 ms)."""
    if x.dtype != F32 or not x.flags.forc:  # C or F contiguous
        raise InternalError(f"elu works in place on a contiguous float32 array, got "
                            f"{x.dtype} of strides {x.strides}")
    flat = x.ravel(order="K")
    block = IM2COL_BLOCK // 4
    tmp = np.empty(min(block, flat.size), dtype=F32)
    for i in range(0, flat.size, block):
        part = flat[i:i + block]
        neg = np.minimum(part, F32(0), out=tmp[:part.size])
        np.expm1(neg, out=neg)
        np.maximum(part, neg, out=part)
    return x


def relu(x):
    return np.maximum(x, F32(0))


def sigmoid(x):
    # exp of -|x| only, so it never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def masked_softmax(scores, allowed=None):
    """Row softmax over the last axis with an optional boolean (rows, cols)
    mask; disallowed cells get weight 0. Every row must keep an allowed cell
    (`context.band_mask` checks the masks it builds). The result is written
    over the scores, which are returned."""
    if allowed is not None and allowed.shape != scores.shape[-2:]:
        raise ConfigError(f"mask shape {allowed.shape} vs scores {scores.shape}")
    out = scores
    if allowed is not None:
        np.copyto(out, F32(-np.inf), where=~allowed)
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def rope_cos_sin(positions, dim):
    """(T, dim/2) complex64 rotary table e^{i*pos*theta_j}, theta_j =
    10000^(-2j/dim), angles in f64: times features (2j, 2j+1) viewed as one
    complex64, entry j turns that pair (RoFormer, arXiv:2104.09864). Row i is
    position i, so a stream builds it at its absolute positions."""
    if dim % 2:
        raise ConfigError("rotary embedding requires an even dim")
    inv_freq = 10000.0 ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    return (np.cos(ang) + 1j * np.sin(ang)).astype(np.complex64)


def l2_normalize_rows(x):
    n = np.sqrt(np.sum(np.square(x), axis=-1, keepdims=True))
    return (x / np.maximum(n, 1e-12)).astype(F32, copy=False)
