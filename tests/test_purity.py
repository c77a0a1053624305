"""The kernels and entry points write only their own temporaries and the
state they are passed: no call writes an input array or a weight (weights
are read-only, so a write there raises), a conv shifts its state in place
to the last columns of [state before | input] and a KV ring is written in
place, and no returned array shares memory with an input or a state.
"""

import numpy as np
import pytest

from conftest import random_wave, state_arrays
from tvtsyn.config import LOOKBACK_FRAMES, StreamConfig
from tvtsyn.context import KvCache, transformer_full, transformer_step
from tvtsyn.kernels import ConvLayer, layer_norm, linear
from tvtsyn.model import synthesize
from tvtsyn.streaming import open_session

F32 = np.float32


def _normal(rng, *shape):
    return rng.normal(size=shape).astype(F32)


class Snapshot:
    """Bitwise copies of arrays, checked after a call."""

    def __init__(self, *arrays):
        self.arrays = arrays
        self.bytes = [a.tobytes() for a in arrays]

    def assert_unchanged(self):
        for i, (a, b) in enumerate(zip(self.arrays, self.bytes)):
            assert a.tobytes() == b, f"input {i} of shape {a.shape} was written"

    def assert_not_aliased(self, *results):
        for r in results:
            for a in self.arrays:
                assert not np.shares_memory(r, a), f"result of shape {r.shape} aliases an input"


def check_conv(layer, x, state):
    """x and the weight and bias are unchanged, the state is shifted to the
    last columns of [state before | x], and y aliases neither x nor state."""
    window = np.concatenate([state, x], axis=1)
    snap = Snapshot(x, layer.weight, layer.bias)
    y = layer.apply(x, state)
    snap.assert_unchanged()
    assert np.array_equal(state, window[:, window.shape[1] - state.shape[1]:])
    snap.assert_not_aliased(y)
    assert not np.shares_memory(y, state)


# t = 1 is shorter than the state of every kernel here but 1: the shift overlaps
@pytest.mark.parametrize("t", [1, 3, 960])
@pytest.mark.parametrize("kernel,stride,dilation", [(1, 1, 1), (3, 1, 2), (16, 8, 1), (7, 1, 1)])
def test_causal_conv_is_pure(t, kernel, stride, dilation):
    rng = np.random.default_rng(t + kernel)
    x, w, b = _normal(rng, 6, t * stride), _normal(rng, 5, 6, kernel), _normal(rng, 5)
    check_conv(ConvLayer(w, b, stride, dilation), x, _normal(rng, 6, (kernel - 1) * dilation))


# the up convs of a transposed conv of kernel 2 * stride: 2 taps, stride phases
@pytest.mark.parametrize("t", [1, 3, 960])
@pytest.mark.parametrize("kernel,stride", [(2, 1), (4, 2), (10, 5), (16, 8)])
def test_transposed_conv_is_pure(t, kernel, stride):
    rng = np.random.default_rng(t + kernel)
    x, w, b = _normal(rng, 6, t), _normal(rng, 5 * stride, 6, 2), _normal(rng, 5)
    check_conv(ConvLayer(w, b, up=stride), x, _normal(rng, 6, 1))


@pytest.mark.parametrize("t", [1, 3, 960])
def test_linear_and_layer_norm_are_pure(t):
    # elu is left out: it writes over its argument, a caller's temporary
    rng = np.random.default_rng(t)
    x, w, b = _normal(rng, t, 48), _normal(rng, 80, 48), _normal(rng, 80)
    gamma, beta = _normal(rng, 48), _normal(rng, 48)
    snap = Snapshot(x, w, b, gamma, beta)
    outs = [linear(x, w, b), linear(x[0], w, b), layer_norm(x, gamma, beta)]
    snap.assert_unchanged()
    snap.assert_not_aliased(*outs)


def test_transformer_full_and_step_are_pure(model):
    ctx = model.encoder.ctx
    rng = np.random.default_rng(3)
    x = _normal(rng, LOOKBACK_FRAMES + 6, ctx.d_model)
    snap = Snapshot(x)
    outs = [transformer_full(x, ctx, lookahead=4),
            transformer_full(x, ctx, lookahead=4, block_frames=3)]
    cache = KvCache(ctx, 3)
    # the cache is the step's state, updated in place by design; the frames
    # are the caller's
    for start in range(0, x.shape[0], 3):
        outs.append(transformer_step(x[start:start + 3], ctx, cache, lookahead=4))
    snap.assert_unchanged()
    snap.assert_not_aliased(*outs)
    snap.assert_not_aliased(cache.k, cache.v)


def test_feed_and_synthesize_are_pure(model, speaker):
    speaker = speaker.copy()
    wave = random_wave(5, 960 * 4)
    snap = Snapshot(wave, speaker)
    outs = [synthesize(model, wave, speaker), synthesize(model, wave, speaker, block_frames=3)]
    session = open_session(model, StreamConfig(chunk_ms=60), speaker)
    outs += [session.feed(wave[k * 960:(k + 1) * 960]) for k in range(4)]
    snap.assert_unchanged()
    snap.assert_not_aliased(*outs)
    # the session's states are its own: no feed returns a view of one
    assert not any(np.shares_memory(out, state)
                   for out in outs[2:] for state in state_arrays(session))
