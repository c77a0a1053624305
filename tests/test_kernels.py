"""Numeric kernel tests: hand-computed values, independent oracles, and the
causality / streaming-equivalence properties every other module relies on.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import random_wave, up_weight
from tvtsyn import kernels
from tvtsyn.config import StreamConfig
from tvtsyn.context import _attend, band_mask
from tvtsyn.errors import ConfigError, InputError, InternalError
from tvtsyn.kernels import ConvLayer, layer_norm, rope_cos_sin
from tvtsyn.kernels import elu, linear, sigmoid
from tvtsyn.model import synthesize
from tvtsyn.streaming import open_session

F32 = np.float32


def conv_layer(w, b=None, **geometry):
    """A ConvLayer of weight w and bias b (zeros when omitted)."""
    return ConvLayer(w, np.zeros(w.shape[0], F32) if b is None else b, **geometry)


def conv(x, layer, state=None):
    """One call of `layer` from `state` (zeros when omitted), which it shifts."""
    return layer.apply(x, layer.init_state() if state is None else state)


def up_layer(w, b=None):
    """The up ConvLayer of the transposed conv weight w (out_ch, 2*stride, in_ch)."""
    return conv_layer(up_weight(w), np.zeros(w.shape[0], F32) if b is None else b,
                      up=w.shape[1] // 2)


def conv_oracle(x, w, b, stride, dilation):
    """Direct-loop causal convolution in float64."""
    c_out, c_in, k = w.shape
    t = x.shape[1]
    pad = (k - 1) * dilation
    xx = np.concatenate([np.zeros((c_in, pad)), x.astype(np.float64)], axis=1)
    t_out = -(-t // stride)
    y = np.zeros((c_out, t_out))
    for j in range(t_out):
        for kk in range(k):
            y[:, j] += w[:, :, kk].astype(np.float64) @ xx[:, j * stride + kk * dilation]
    if b is not None:
        y += b.astype(np.float64)[:, None]
    return y


def tconv_oracle(x, w, b, stride):
    """Direct-loop causal transposed convolution in float64 (no tail carry)."""
    c_out, k, c_in = w.shape
    t = x.shape[1]
    y = np.zeros((c_out, t * stride + k - stride))
    for j in range(t):
        for kk in range(k):
            y[:, j * stride + kk] += w[:, kk].astype(np.float64) @ x.astype(np.float64)[:, j]
    y = y[:, :t * stride]
    if b is not None:
        y += b.astype(np.float64)[:, None]
    return y


class TestCausalConv:
    def test_identity_kernel(self):
        y = conv(np.array([[1, 2, 3]], F32), conv_layer(np.ones((1, 1, 1), F32)))
        assert np.array_equal(y, [[1, 2, 3]])

    def test_hand_computed_k2(self):
        # y[j] = x[j-1] + x[j] with zero left state
        y = conv(np.array([[1, 2, 3]], F32), conv_layer(np.ones((1, 1, 2), F32)))
        assert np.array_equal(y, [[1, 3, 5]])

    def test_stride_output_count(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 320)).astype(F32)
        y = conv(x, conv_layer(rng.normal(size=(2, 1, 16)).astype(F32), stride=8))
        assert y.shape == (2, 40)

    @pytest.mark.parametrize("stride,dilation", [(1, 1), (1, 2), (2, 1), (5, 1), (4, 3)])
    def test_matches_direct_oracle(self, stride, dilation):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 40)).astype(F32)
        w = rng.normal(size=(5, 3, 4)).astype(F32)
        b = rng.normal(size=5).astype(F32)
        y = conv(x, conv_layer(w, b, stride=stride, dilation=dilation))
        expected = conv_oracle(x, w, b, stride, dilation)
        assert y.shape == expected.shape
        np.testing.assert_allclose(y, expected, atol=1e-5)

    def test_causality_exact(self):
        # zeroing any column after t never changes outputs <= t
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 30)).astype(F32)
        layer = conv_layer(rng.normal(size=(2, 2, 3)).astype(F32), dilation=2)
        base = conv(x, layer)
        for t in (5, 12, 28):
            poked = x.copy()
            poked[:, t + 1:] = 0
            y = conv(poked, layer)
            assert np.array_equal(base[:, :t + 1], y[:, :t + 1])

    def test_streaming_equals_one_shot_arbitrary_splits(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 64)).astype(F32)
        layer = conv_layer(rng.normal(size=(3, 2, 5)).astype(F32),
                           rng.normal(size=3).astype(F32), dilation=2)
        full = conv(x, layer)
        for seed in range(5):
            cuts = np.sort(np.random.default_rng(seed).choice(
                np.arange(1, 64), size=4, replace=False))
            state = layer.init_state()
            parts = []
            prev = 0
            for cut in list(cuts) + [64]:
                y = conv(x[:, prev:cut], layer, state)
                parts.append(y)
                prev = cut
            np.testing.assert_allclose(np.concatenate(parts, axis=1), full, atol=1e-6)

    def test_strided_streaming_state(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 48)).astype(F32)
        layer = conv_layer(rng.normal(size=(2, 1, 8)).astype(F32), stride=4)
        full = conv(x, layer)
        state = layer.init_state()
        parts = []
        for k in range(0, 48, 16):
            y = conv(x[:, k:k + 16], layer, state)
            parts.append(y)
        np.testing.assert_allclose(np.concatenate(parts, axis=1), full, atol=1e-6)

    def test_shape_mismatch_is_config_error(self):
        with pytest.raises(ConfigError):
            conv_layer(np.zeros((3, 8), F32))
        with pytest.raises(ConfigError):
            conv(np.zeros((1, 8), F32), conv_layer(np.zeros((3, 2, 4), F32)))


class TestTransposedConv:
    def test_hand_computed(self):
        # frame t adds x[t] to samples 2t..2t+3; the last frame is carried
        layer = up_layer(np.ones((1, 4, 1), F32))
        state = layer.init_state()
        y = conv(np.array([[1, 2]], F32), layer, state)
        assert np.array_equal(y, [[1, 1, 3, 3]])
        assert np.array_equal(state, [[2]])
        y = conv(np.array([[4]], F32), layer, state)
        assert np.array_equal(y, [[6, 6]]) and np.array_equal(state, [[4]])

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(0)
        layer = up_layer(rng.normal(size=(2, 8, 3)).astype(F32))
        y = conv(np.zeros((3, 6), F32), layer)
        assert y.shape == (2, 24) and not y.any()

    def test_composed_strides_restore_factor_320(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 50)).astype(F32)
        for stride in (2, 4, 5, 8):
            w = rng.normal(size=(2, 2 * stride, 2)).astype(F32)
            x = conv(x, up_layer(w))
        assert x.shape == (2, 16000)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 12)).astype(F32)
        w = rng.normal(size=(2, 4, 3)).astype(F32)
        b = rng.normal(size=2).astype(F32)
        y = conv(x, up_layer(w, b))
        np.testing.assert_allclose(y, tconv_oracle(x, w, b, 2), atol=1e-5)

    def test_streaming_tail_carry(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 20)).astype(F32)
        layer = up_layer(rng.normal(size=(3, 10, 2)).astype(F32), rng.normal(size=3).astype(F32))
        full = conv(x, layer)
        state = layer.init_state()
        parts = []
        for k in range(0, 20, 5):
            y = conv(x[:, k:k + 5], layer, state)
            parts.append(y)
        np.testing.assert_allclose(np.concatenate(parts, axis=1), full, atol=1e-6)

    def test_down_then_up_restores_length(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 3200)).astype(F32)
        h = x
        for stride in (8, 5, 4, 2):
            w = rng.normal(size=(2, h.shape[0], 2 * stride)).astype(F32)
            h = conv(h, conv_layer(w, stride=stride))
        assert h.shape[1] == 10
        for stride in (2, 4, 5, 8):
            w = rng.normal(size=(2, 2 * stride, h.shape[0])).astype(F32)
            h = conv(h, up_layer(w))
        assert h.shape[1] == 3200


class TestConvLayer:
    """A ConvLayer is its weight and geometry: in_ch, out_ch and kernel are
    the weight's shape. It checks its tensors and geometry once, when it is
    built, and each call's input and state; it cannot be changed after."""

    @staticmethod
    def weight(up, out_ch=3, in_ch=2, kernel=4):
        return np.zeros((out_ch * up, in_ch, kernel), F32)

    @pytest.mark.parametrize("up", [1, 2])
    def test_wrong_weight_or_bias_is_config_error_at_construction(self, up):
        w = self.weight(up)
        ConvLayer(w, np.zeros(3, F32), stride=2, up=up)
        for bad in (np.zeros((24,), F32), np.zeros((3, 8), F32), np.zeros((1, 3, 2, 4), F32),
                    self.weight(up, out_ch=0), self.weight(up, in_ch=0),
                    self.weight(up, kernel=0)):
            with pytest.raises(ConfigError, match="conv weight must be 3-D and non-empty"):
                ConvLayer(bad, np.zeros(3, F32), stride=2, up=up)
        # one bias per output channel, not per weight row
        for bad in (np.zeros(2, F32), np.zeros((3, 1), F32), np.zeros(6, F32)):
            with pytest.raises(ConfigError, match="bias shape"):
                ConvLayer(w, bad, stride=2, up=up)

    @pytest.mark.parametrize("name", ["stride", "dilation", "up"])
    @pytest.mark.parametrize("value", [0, -2, 2.0, True])
    def test_stride_dilation_or_up_not_an_int_of_at_least_one_is_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"conv {name} must be an int >= 1"):
            ConvLayer(self.weight(1), np.zeros(3, F32), **{name: value})

    # 7 rows in phases of 2, 6 in phases of 4, 3 in phases of 5
    @pytest.mark.parametrize("rows,up", [(7, 2), (6, 4), (3, 5)])
    def test_weight_rows_that_up_does_not_divide_are_rejected(self, rows, up):
        with pytest.raises(ConfigError, match=f"conv weight of {rows} rows does not split "
                                              f"into up = {up} phases"):
            ConvLayer(np.zeros((rows, 2, 2), F32), np.zeros(rows // up, F32), up=up)

    def test_sizes_are_the_weight_shape(self):
        layer = ConvLayer(self.weight(1), np.zeros(3, F32), 2, 3)
        assert (layer.in_ch, layer.out_ch, layer.kernel) == (2, 3, 4)
        assert layer.init_state().shape == (2, 9)
        # the up conv's state is its last input column, whatever its up
        up = ConvLayer(self.weight(5, kernel=2), np.zeros(3, F32), up=5)
        assert (up.in_ch, up.out_ch, up.kernel) == (2, 3, 2)
        assert up.init_state().shape == (2, 1)

    def test_fields_cannot_be_assigned(self):
        layer = ConvLayer(self.weight(1), np.zeros(3, F32))
        for name, value in (("weight", np.zeros((3, 2, 5), F32)), ("bias", None),
                            ("stride", 2), ("dilation", 2), ("up", 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layer, name, value)
        assert [f.name for f in dataclasses.fields(ConvLayer)] == [
            "weight", "bias", "stride", "dilation", "up"]

    @pytest.mark.parametrize("up", [1, 2])
    def test_input_and_state_are_checked_per_call(self, up):
        layer = ConvLayer(self.weight(up), np.zeros(3, F32), stride=2, up=up)
        state = layer.init_state()
        for bad in (np.zeros((3, 4), F32), np.zeros(4, F32), np.zeros((1, 2, 4), F32)):
            with pytest.raises(ConfigError, match="input shape"):
                layer.apply(bad, state)
        with pytest.raises(ConfigError, match="state shape"):
            layer.apply(np.zeros((2, 4), F32), np.zeros((state.shape[0], state.shape[1] + 1), F32))


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        y = layer_norm(np.full((4,), 3.0, F32), np.ones(4, F32), np.zeros(4, F32))
        assert np.allclose(y, 0.0)

    def test_closed_form_two_points(self):
        # mean 2, var 1 -> [-1, 1] in the eps->0 limit
        y = layer_norm(np.array([1.0, 3.0], F32), np.ones(2, F32), np.zeros(2, F32))
        np.testing.assert_allclose(y, [-1.0, 1.0], atol=1e-4)

    def test_zero_gamma_returns_beta(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 8)).astype(F32)
        beta = rng.normal(size=8).astype(F32)
        y = layer_norm(x, np.zeros(8, F32), beta)
        assert np.array_equal(y, np.broadcast_to(beta, (3, 8)))

    def test_normalizes_rows(self):
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 3.0, size=(5, 64)).astype(F32)
        y = layer_norm(x, np.ones(64, F32), np.zeros(64, F32))
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("big", [1e20, 1e35, -3e38])
    def test_row_whose_variance_overflows_is_input_error(self, big):
        # finite, but its square is past float32: a warning and a row of
        # zeros otherwise
        x = np.ones((3, 64), F32)
        x[1, 5] = big
        with pytest.raises(InputError, match="layer norm input overflows float32"):
            layer_norm(x, np.ones(64, F32), np.zeros(64, F32))


def sdpa(q, k, v, allowed=None):
    """Single-head scaled dot-product attention through `context._attend`
    (keys and values head-major): (T,d) x (S,d) x (S,dv) -> (T,dv)."""
    return _attend(q[:, None], k[None], v[None], allowed)[:, 0]


class TestSdpa:
    def test_single_key_returns_value(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(3, 4)).astype(F32)
        k = rng.normal(size=(1, 4)).astype(F32)
        v = rng.normal(size=(1, 6)).astype(F32)
        np.testing.assert_allclose(sdpa(q, k, v), np.broadcast_to(v, (3, 6)), atol=1e-7)

    def test_identical_keys_average_values(self):
        q = np.array([[1.0, 2.0]], F32)
        k = np.array([[0.5, -1.0], [0.5, -1.0]], F32)
        v = np.array([[1.0, 0.0], [0.0, 1.0]], F32)
        np.testing.assert_allclose(sdpa(q, k, v), [[0.5, 0.5]], atol=1e-7)

    def test_softmax_saturation_against_f64_oracle(self):
        d = 4
        keys = np.eye(d, dtype=F32)
        values = np.arange(d * 3, dtype=F32).reshape(d, 3)
        q = (np.eye(d, dtype=F32)[0] * 50.0)[None, :]
        out = sdpa(q, keys, values)
        # independent f64 softmax oracle
        scores = (q.astype(np.float64) @ keys.T.astype(np.float64)) / np.sqrt(d)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        expected = w @ values.astype(np.float64)
        np.testing.assert_allclose(out, expected, atol=1e-6)
        np.testing.assert_allclose(out[0], values[0], atol=1e-3)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(10, 8)).astype(F32)
        k = rng.normal(size=(12, 8)).astype(F32)
        allowed = band_mask(np.arange(10), np.arange(12), lookback=5, lookahead=2)
        # identity values make the output the attention weights themselves
        w = sdpa(q, k, np.eye(12, dtype=F32), allowed)
        assert (w >= 0).all()
        assert (w[~allowed] == 0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)

    def test_fully_masked_row_raises(self):
        # attention masks come from band_mask, which checks each mask once:
        # here the query at 3 sees no key in [2, 3]
        with pytest.raises(ConfigError, match="fully masked"):
            band_mask(np.array([0, 3]), np.array([-1, 0]), lookback=1, lookahead=0)


def rope(x, offset):
    """x (T, d) rotated as one head's rows at positions offset, offset + 1,
    ..., as the attention layers rotate q and k: adjacent dims as complex
    pairs, times the table."""
    table = rope_cos_sin(offset + np.arange(x.shape[0]), x.shape[-1])
    return (x.view(np.complex64) * table).view(F32)


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 16)).astype(F32)
        assert np.array_equal(rope(x, 0)[0], x[0])

    def test_norm_preserved_per_pair(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 16)).astype(F32)
        y = rope(x, 1234)
        nx = x[:, 0::2] ** 2 + x[:, 1::2] ** 2
        ny = y[:, 0::2] ** 2 + y[:, 1::2] ** 2
        np.testing.assert_allclose(ny, nx, atol=1e-4)

    def test_pair_j_turns_by_pos_theta_j(self):
        # dims 2j and 2j+1 turn by pos * 10000^(-2j/d), the f32-rounded cos
        # and sin of the f64 angle
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 16)).astype(F32)
        pos = 77 + np.arange(5)
        ang = pos[:, None] * 10000.0 ** (-np.arange(0, 16, 2) / 16.0)
        table = rope_cos_sin(pos, 16)
        assert table.dtype == np.complex64 and table.shape == (5, 8)
        assert np.array_equal(table.real, np.cos(ang).astype(F32))
        assert np.array_equal(table.imag, np.sin(ang).astype(F32))
        c, s = np.cos(ang), np.sin(ang)
        y = rope(x, 77).astype(np.float64)
        a, b = _f64(x[:, 0::2]), _f64(x[:, 1::2])
        np.testing.assert_allclose(y[:, 0::2], a * c - b * s, atol=1e-5)
        np.testing.assert_allclose(y[:, 1::2], a * s + b * c, atol=1e-5)

    def test_relative_position_property(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 32)).astype(F32)
        k = rng.normal(size=(1, 32)).astype(F32)
        for p, delta, shift in [(0, 3, 17), (40, 7, 101), (5, 0, 999)]:
            s1 = float(rope(q, p)[0] @ rope(k, p + delta)[0])
            s2 = float(rope(q, p + shift)[0] @ rope(k, p + delta + shift)[0])
            assert abs(s1 - s2) < 1e-3

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            rope(np.zeros((2, 5), F32), 0)


def _f64(a):
    return np.asarray(a, dtype=np.float64)


def _check_causal_conv(rng, t, c_in, c_out, kernel, stride, dilation):
    """A forward ConvLayer from a random state against a float64 einsum over [state | x]."""
    x = rng.normal(size=(c_in, t)).astype(F32)
    w = rng.normal(size=(c_out, c_in, kernel)).astype(F32)
    b = rng.normal(size=c_out).astype(F32)
    pad = (kernel - 1) * dilation
    state = rng.normal(size=(c_in, pad)).astype(F32)
    xx = np.concatenate([_f64(state), _f64(x)], axis=1)
    t_out = -(-t // stride)
    cols = np.arange(t_out)[:, None] * stride + np.arange(kernel)[None, :] * dilation
    want = np.einsum("ock,cjk->oj", _f64(w), xx[:, cols]) + _f64(b)[:, None]
    got = conv(x, ConvLayer(w, b, stride, dilation), state)
    assert got.shape == (c_out, t_out) and got.dtype == F32
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-4)
    assert np.array_equal(state, xx[:, xx.shape[1] - pad:].astype(F32))


def _check_transposed_conv(rng, t, c_in, c_out, stride):
    """An up ConvLayer (a transposed conv of kernel 2*stride) from a random
    carried frame against a float64 einsum and overlap-add over [state | x],
    less the carried frame's own samples."""
    kernel = 2 * stride
    x = rng.normal(size=(c_in, t)).astype(F32)
    w = rng.normal(size=(c_out, kernel, c_in)).astype(F32)
    b = rng.normal(size=c_out).astype(F32)
    state = rng.normal(size=(c_in, 1)).astype(F32)
    xx = np.concatenate([_f64(state), _f64(x)], axis=1)
    contrib = np.einsum("okc,ct->okt", _f64(w), xx)
    full = np.zeros((c_out, (t + 2) * stride))
    for k in range(kernel):
        full[:, k:k + t * stride + 1:stride] += contrib[:, k]
    got = conv(x, up_layer(w, b), state)
    assert got.shape == (c_out, t * stride) and got.dtype == F32
    np.testing.assert_allclose(got, full[:, stride:(t + 1) * stride] + _f64(b)[:, None],
                               rtol=1e-5, atol=1e-4)
    assert np.array_equal(state, xx[:, -1:].astype(F32))


class TestWeightMajorProducts:
    """linear and the forward and up convs against float64 einsum references, at one frame,
    a 60 ms chunk's three frames, 960 samples, inputs that span three im2col
    blocks, and weights that span three GEMV blocks."""

    @pytest.mark.parametrize("t", [1, 3, 960])
    def test_linear_matches_einsum(self, t):
        rng = np.random.default_rng(t)
        x = rng.normal(size=(t, 48)).astype(F32)
        w = rng.normal(size=(80, 48)).astype(F32)
        b = rng.normal(size=80).astype(F32)
        want = np.einsum("oi,ti->to", _f64(w), _f64(x))
        got = linear(x, w, b)
        assert got.shape == (t, 80) and got.dtype == F32
        np.testing.assert_allclose(got, want + _f64(b), rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(linear(x, w), want, rtol=1e-5, atol=1e-4)

    def test_linear_accepts_one_vector(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=48).astype(F32)
        w = rng.normal(size=(80, 48)).astype(F32)
        got = linear(x, w)
        assert got.shape == (80,)
        np.testing.assert_allclose(got, _f64(w) @ _f64(x), rtol=1e-5, atol=1e-4)

    # t = 0 takes the general path: (C_out, 0) out, the state left as it was
    @pytest.mark.parametrize("t", [0, 1, 3, 960])
    @pytest.mark.parametrize("kernel,stride,dilation", [(3, 1, 1), (3, 1, 2), (4, 2, 1),
                                                        (16, 8, 1), (5, 3, 2)])
    def test_causal_conv_matches_einsum(self, t, kernel, stride, dilation):
        _check_causal_conv(np.random.default_rng(100 * kernel + 10 * stride + dilation),
                           t, 6, 5, kernel, stride, dilation)

    # no input columns: no output, and the state left as it was
    @pytest.mark.parametrize("kernel,stride", [(4, 2), (16, 8)])
    def test_transposed_conv_of_no_columns(self, kernel, stride):
        rng = np.random.default_rng(kernel)
        w = rng.normal(size=(5, kernel, 6)).astype(F32)
        state = rng.normal(size=(6, 1)).astype(F32)
        layer = up_layer(w, rng.normal(size=5).astype(F32))
        before = state.copy()
        y = conv(np.zeros((6, 0), F32), layer, state)
        assert y.shape == (5, 0) and y.dtype == F32
        assert np.array_equal(state, before) and not np.shares_memory(y, state)

    # the model's (kernel, stride, dilation) sets: res units, every down
    # conv, conv_in/conv_out and the frame-rate convs; and a 1-tap conv,
    # which the model runs as a plain product but a ConvLayer still takes
    @pytest.mark.parametrize("kernel,stride,dilation", [(3, 1, 2), (1, 1, 1), (4, 2, 1),
                                                        (8, 4, 1), (10, 5, 1), (16, 8, 1),
                                                        (7, 1, 1), (3, 1, 1)])
    def test_causal_conv_over_three_blocks_matches_einsum(self, kernel, stride, dilation):
        # two full im2col blocks and a ragged third
        block = kernels.IM2COL_BLOCK // (6 * kernel)
        t_out = 2 * block + block // 2 + 1
        _check_causal_conv(np.random.default_rng(kernel + stride),
                           (t_out - 1) * stride + 1, 6, 5, kernel, stride, dilation)

    @pytest.mark.parametrize("t", [1, 3, 960, 40000])
    @pytest.mark.parametrize("stride,dilation", [(1, 1), (1, 2), (2, 1)])
    def test_single_output_conv_matches_einsum(self, t, stride, dilation):
        # out_ch == 1 with carried state, as the decoder's conv_out; 40000
        # samples span four blocks of this layer's 42 im2col rows
        _check_causal_conv(np.random.default_rng(t + dilation),
                           t, 6, 1, 7, stride, dilation)

    @pytest.mark.parametrize("block_cols", [1, 7, None])
    @pytest.mark.parametrize("out_ch,kernel,stride,dilation", [(5, 3, 1, 2), (5, 16, 8, 1),
                                                               (5, 1, 1, 1), (1, 7, 1, 2)])
    def test_streaming_across_blocks_equals_one_shot(self, monkeypatch, block_cols,
                                                     out_ch, kernel, stride, dilation):
        # blocks of 1 and 7 columns put block edges everywhere, and windows of
        # later blocks still reach into the state; None keeps the real budget
        if block_cols:
            monkeypatch.setattr(kernels, "IM2COL_BLOCK", 6 * kernel * block_cols)
        rng = np.random.default_rng(kernel * 10 + (block_cols or 0))
        t_out = max(3 * (kernels.IM2COL_BLOCK // (6 * kernel)) - 1, 200)
        x = rng.normal(size=(6, t_out * stride)).astype(F32)
        w = rng.normal(size=(out_ch, 6, kernel)).astype(F32)
        b = rng.normal(size=out_ch).astype(F32)
        layer = ConvLayer(w, b, stride, dilation)
        full = conv(x, layer)
        cuts = np.sort(rng.choice(np.arange(1, t_out), size=6, replace=False)) * stride
        state, parts, prev = layer.init_state(), [], 0
        for cut in [*cuts, t_out * stride]:
            y = conv(x[:, prev:cut], layer, state)
            parts.append(y)
            prev = cut
        np.testing.assert_allclose(np.concatenate(parts, axis=1), full, rtol=1e-5, atol=1e-4)

    # kernel 2*stride at stride 1 and at every stride of the model
    @pytest.mark.parametrize("t", [1, 3, 960])
    @pytest.mark.parametrize("kernel,stride", [(2, 1), (4, 2), (8, 4), (10, 5), (16, 8)])
    def test_transposed_conv_matches_einsum(self, t, kernel, stride):
        _check_transposed_conv(np.random.default_rng(10 * kernel + stride),
                               t, 6, 5, stride)

    @pytest.mark.parametrize("kernel,stride", [(2, 1), (4, 2), (8, 4), (10, 5), (16, 8)])
    def test_transposed_conv_chunked_equals_one_call(self, kernel, stride):
        # from a random carried state, chunks of 1 to 7 frames against one
        # call over all 960
        rng = np.random.default_rng(500 + 10 * kernel + stride)
        x = rng.normal(size=(6, 960)).astype(F32)
        w = rng.normal(size=(5, kernel, 6)).astype(F32)
        b = rng.normal(size=5).astype(F32)
        state = rng.normal(size=(6, 1)).astype(F32)
        layer = up_layer(w, b)
        full_state = state.copy()
        full = conv(x, layer, full_state)
        parts, prev = [], 0
        while prev < x.shape[1]:
            cut = min(prev + int(rng.integers(1, 8)), x.shape[1])
            y = conv(x[:, prev:cut], layer, state)
            parts.append(y)
            prev = cut
        np.testing.assert_allclose(np.concatenate(parts, axis=1), full, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(state, full_state, rtol=1e-5, atol=1e-5)

    # weight_product's per-column GEMVs: GEMV_BLOCK is cut so each 50-row
    # weight has 50 * K // GEMV_BLOCK = 3 blocks of 16, 17 and 17 rows, and 1
    # to GEMV_MAX_COLS + 1 activation columns run both sides of the switch
    @pytest.mark.parametrize("t", range(1, kernels.GEMV_MAX_COLS + 2))
    def test_linear_over_three_gemv_blocks_matches_einsum(self, monkeypatch, t):
        monkeypatch.setattr(kernels, "GEMV_BLOCK", 48 * 16)
        rng = np.random.default_rng(200 + t)
        x = rng.normal(size=(t, 48)).astype(F32)
        w = rng.normal(size=(50, 48)).astype(F32)
        b = rng.normal(size=50).astype(F32)
        got = linear(x, w, b)
        assert got.shape == (t, 50) and got.dtype == F32
        np.testing.assert_allclose(got, np.einsum("oi,ti->to", _f64(w), _f64(x)) + _f64(b),
                                   rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(linear(x[0], w, b), got[0], rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("t", range(1, kernels.GEMV_MAX_COLS + 2))
    @pytest.mark.parametrize("kernel,stride,dilation", [(1, 1, 1), (3, 1, 2), (16, 8, 1)])
    def test_causal_conv_over_three_gemv_blocks_matches_einsum(self, monkeypatch, t,
                                                               kernel, stride, dilation):
        # t output columns, one im2col block
        monkeypatch.setattr(kernels, "GEMV_BLOCK", 6 * kernel * 16)
        _check_causal_conv(np.random.default_rng(300 + 10 * kernel + t),
                           t * stride, 6, 50, kernel, stride, dilation)

    @pytest.mark.parametrize("t", range(1, kernels.GEMV_MAX_COLS + 2))
    def test_transposed_conv_over_three_gemv_blocks_matches_einsum(self, monkeypatch, t):
        # the stored (C_out * 2, C_in, 2) weight is a (10, 100) matrix: its 10
        # rows are cut into blocks of 3, 3 and 4
        monkeypatch.setattr(kernels, "GEMV_BLOCK", 10 * 100 // 3)
        _check_transposed_conv(np.random.default_rng(400 + t),
                               t, 50, 5, 2)

    # a weight of m * k elements just over 1, 1.5 and 2 GEMV_BLOCKs: one
    # block, one block, and two blocks of 20 and 21 rows
    @pytest.mark.parametrize("t", range(1, kernels.GEMV_MAX_COLS + 1))
    @pytest.mark.parametrize("m", [21, 31, 41])
    def test_weight_product_near_block_multiples_matches_einsum(self, monkeypatch, t, m):
        monkeypatch.setattr(kernels, "GEMV_BLOCK", 48 * 20)
        rng = np.random.default_rng(600 + 10 * m + t)
        w = rng.normal(size=(m, 48)).astype(F32)
        x = rng.normal(size=(48, t)).astype(F32)
        got = kernels.weight_product(w, x)
        assert got.shape == (m, t) and got.dtype == F32
        np.testing.assert_allclose(got, np.einsum("mk,kt->mt", _f64(w), _f64(x)),
                                   rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("t", [1, kernels.GEMV_MAX_COLS + 1])
    def test_weight_product_rejects_a_weight_that_is_not_c_contiguous(self, t):
        # every weight is stored output-major, so a strided view is a caller's bug
        w = np.ones((48, 21), F32).T
        with pytest.raises(InternalError, match=r"shape \(21, 48\).*strides \(4, 84\)"):
            kernels.weight_product(w, np.ones((48, t), F32))

    # the model's few-column weights: q/k/v, o, the FFN pair, a cLN's FiLM
    # weight and a frame-rate conv, each cut into 1 to 9 row blocks from 2
    # columns on; 1 column is never cut
    @pytest.mark.parametrize("t", range(1, kernels.GEMV_MAX_COLS + 1))
    @pytest.mark.parametrize("shape", [(1536, 512), (512, 512), (2048, 512), (512, 2048),
                                       (1216, 192), (768, 2304)])
    def test_stacked_gemv_equals_per_column_dot_bitwise(self, monkeypatch, shape, t):
        # one stacked np.matmul per block issues the sgemv calls of one np.dot
        # per column over that block, so the products are bitwise equal
        m, k = shape
        rng = np.random.default_rng(m + k + t)
        w = rng.normal(size=shape).astype(F32)
        x = rng.normal(size=(k, t)).astype(F32)
        xt = np.ascontiguousarray(x.T)
        for blocks in range(1, 10):
            monkeypatch.setattr(kernels, "GEMV_BLOCK", m * k // blocks)
            cuts = [0, m] if t == 1 else [m * i // blocks for i in range(blocks + 1)]
            want = np.empty((t, m), F32)
            for r0, r1 in zip(cuts, cuts[1:]):
                for j in range(t):
                    np.dot(w[r0:r1], xt[j], out=want[j, r0:r1])
            assert np.array_equal(kernels.weight_product(w, x), want.T), blocks
            out = np.full((m, t), np.nan, F32)
            kernels.weight_product(w, x, out=out)
            assert np.array_equal(out, want.T), blocks

    @pytest.mark.parametrize("t", range(1, kernels.GEMV_MAX_COLS + 1))
    @pytest.mark.parametrize("shape", [(1536, 512), (768, 2304), (512, 4608), (1536, 1536),
                                       (768, 768), (96, 960)])
    def test_no_gemv_block_below_the_block_size(self, monkeypatch, shape, t):
        # the model's few-column products: from 2 columns a weight of at
        # least GEMV_BLOCK elements is cut into blocks of GEMV_BLOCK to
        # 2 * GEMV_BLOCK, so no tail block falls under OpenBLAS's one-thread
        # sgemv cut; 1 column reads each block once, so it is one GEMV over
        # the whole weight
        blocks = []
        matmul = np.matmul

        def spy(a, b, out=None):
            blocks.append(a.size)
            return matmul(a, b, out=out)

        monkeypatch.setattr(kernels.np, "matmul", spy)
        m, k = shape
        kernels.weight_product(np.ones((m, k), F32), np.ones((k, t), F32))
        if m * k < kernels.GEMV_BLOCK or t == 1:
            assert blocks == [m * k]
        else:
            assert sum(blocks) == m * k
            assert all(kernels.GEMV_BLOCK <= n < 2 * kernels.GEMV_BLOCK for n in blocks)

    def test_every_model_weight_is_c_contiguous(self, monkeypatch, model, speaker):
        # every weight is stored output-major, so each product of a
        # synthesize and of three 60 ms feeds gets a C-contiguous matrix
        product = kernels.weight_product
        weights = []

        def spy(w, x, out=None):
            weights.append(w)
            return product(w, x, out=out)

        monkeypatch.setattr(kernels, "weight_product", spy)
        synthesize(model, random_wave(60, 960 * 3), speaker)
        session = open_session(model, StreamConfig(chunk_ms=60), speaker)
        for k in range(3):
            session.feed(random_wave(61 + k, 960))
        assert [w.shape for w in weights if not w.flags.c_contiguous] == []
        shapes = {w.shape for w in weights}
        ups = [layer for layer in model.decoder.cnn.layers
               if isinstance(layer, ConvLayer) and layer.up > 1]
        assert len(ups) == 4
        assert all((up.out_ch * up.up, up.in_ch * up.kernel) in shapes for up in ups)


class TestConvTemporaries:
    """A forward conv's working memory is bounded by the im2col block budget,
    not by kernel x channels x input length (at 2 s of 16 kHz audio the old
    one-shot im2col was 86 MB for 96->1 k7 and 37 MB for 96->96 k3 d2)."""

    @pytest.mark.parametrize("out_ch,kernel,dilation", [(1, 7, 1), (96, 3, 2)])
    def test_peak_within_input_output_and_block_budget(self, out_ch, kernel, dilation):
        rng = np.random.default_rng(kernel)
        x = rng.normal(size=(96, 32000)).astype(F32)
        w = rng.normal(size=(out_ch, 96, kernel)).astype(F32)
        b = rng.normal(size=out_ch).astype(F32)
        state = rng.normal(size=(96, (kernel - 1) * dilation)).astype(F32)
        layer = ConvLayer(w, b, dilation=dilation)
        tracemalloc.start()
        try:
            y = layer.apply(x, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 1 << 20
        assert peak <= x.nbytes + y.nbytes + 4 * kernels.IM2COL_BLOCK + slack


class TestElu:
    def test_matches_where_formula_bitwise(self):
        # every float32 class: 5M random bit patterns (normals, subnormals,
        # infinities, NaNs) plus the edge values, against the where() form
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2 ** 32, 5_000_000, dtype=np.uint64).astype(np.uint32)
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45,
                          -1e-30, -88.0, -104.0, 3e38, -3e38, 1.0, -1.0], F32)
        x = np.concatenate([bits.view(F32), edges])
        with np.errstate(invalid="ignore"):
            want = np.where(x > 0, x, np.expm1(np.minimum(x, 0))).astype(F32)
            got = elu(x.copy())
        assert got.dtype == F32
        nan = np.isnan(x)
        assert np.array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))
        assert np.isnan(got[nan]).all()
        quiet = np.flatnonzero(nan)[-2:]  # the two edge NaNs
        assert np.array_equal(got[quiet].view(np.uint32), want[quiet].view(np.uint32))
        # block by block over an F-ordered buffer too (many blocks and a
        # ragged last one), written over the buffer
        fortran = np.asfortranarray(x[:5_000_000].reshape(2000, 2500))
        with np.errstate(invalid="ignore"):
            assert elu(fortran) is fortran
        assert np.array_equal(fortran.view(np.uint32),
                              got[:5_000_000].reshape(2000, 2500).view(np.uint32))

    @pytest.mark.parametrize("x", [np.zeros(9, F32)[::3], np.zeros(3, np.float64)],
                             ids=["strided", "float64"])
    def test_only_contiguous_float32_in_place(self, x):
        with pytest.raises(InternalError, match="in place"):
            elu(x)

    def test_values(self):
        x = np.array([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf], F32)
        assert np.array_equal(elu(x), np.array([-1.0, np.expm1(F32(-1.0)), 0.0, 0.0, 2.0,
                                                np.inf], F32))


def _two_branch_sigmoid(x):
    """1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere (NaN
    included), each exp over its own branch's elements only."""
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_matches_two_branch_formula_bitwise(self):
        # 10^6 values over the whole range where exp over- or underflows,
        # plus the edges: signed zeros, infinities, NaN, the float32 exp
        # overflow (88.7) and subnormal-result (103.9) bounds, the smallest
        # subnormal and the largest finite value. A RuntimeWarning fails it.
        x = (np.random.default_rng(0).standard_normal(1_000_000) * 30).astype(F32)
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 88.7, -88.7, 103.9, -103.9,
                          1e-45, -1e-45, 3.4e38, -3.4e38], F32)
        for v in (x, edges, x.reshape(1000, 1000)):
            got = sigmoid(v)
            assert got.dtype == F32 and got.shape == v.shape
            assert np.array_equal(got.view(np.uint32), _two_branch_sigmoid(v).view(np.uint32))
        assert np.array_equal(sigmoid(edges[:4]), np.array([0.5, 0.5, 1.0, 0.0], F32))


class TestTanhRange:
    def test_float32_tanh_stays_in_unit_range(self):
        # the decoder's last op is tanh and nothing clips after it: the
        # output range [-1, 1] rests on np.tanh itself
        big = float(np.finfo(F32).max)
        x = np.array([np.inf, -np.inf, big, -big, 20.0, -20.0, 1e-45, -1e-45, 0.0, -0.0], F32)
        y = np.tanh(x)
        assert y.dtype == F32
        assert np.all(np.abs(y) <= 1.0)
        assert np.array_equal(y[:6], np.array([1, -1, 1, -1, 1, -1], F32))
        assert np.isnan(np.tanh(np.array([np.nan], F32))).all()
