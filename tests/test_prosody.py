"""Prosody predictor tests: the stacked first conv equals its two halves,
constant output from zeroed weights, causality, and chunked runs equal to one
shot.
"""

import dataclasses

import numpy as np
import pytest

from tvtsyn.kernels import ConvLayer
from tvtsyn.prosody import ProsodyParams, predict_f0_energy

F32 = np.float32


def _zero_predictor(params: ProsodyParams, f0_bias: float,
                    energy_bias: float) -> ProsodyParams:
    """All weights zero, each head's projection bias set: both predictors
    become constant."""
    def zero_conv(c):
        return dataclasses.replace(c, weight=np.zeros_like(c.weight),
                                   bias=np.zeros_like(c.bias))

    def zero_head(head, bias_value):
        return dataclasses.replace(head, conv2=zero_conv(head.conv2),
                                   proj_w=np.zeros_like(head.proj_w),
                                   proj_b=np.full_like(head.proj_b, bias_value))

    return dataclasses.replace(params, conv1=zero_conv(params.conv1),
                               f0=zero_head(params.f0, f0_bias),
                               energy=zero_head(params.energy, energy_bias))


class TestTrunk:
    # the full config's (512, 512, 3) first conv is one GEMV block above
    # OpenBLAS's one-thread cut, where each (256, 512, 3) half is under it;
    # and the small config's (32, 64, 3). 1, 3 and 6 columns take the GEMV
    # path, 100 (a 2 s utterance) the GEMM path
    @pytest.mark.parametrize("d_model,hidden", [(512, 256), (64, 16)])
    @pytest.mark.parametrize("t", [1, 3, 6, 100])
    def test_stacked_first_conv_equals_its_halves(self, d_model, hidden, t):
        rng = np.random.default_rng(t)
        bound = 1.0 / np.sqrt(3 * d_model)
        stacked = ConvLayer(rng.uniform(-bound, bound, (2 * hidden, d_model, 3)).astype(F32),
                            rng.normal(0, 0.1, 2 * hidden).astype(F32))
        x = rng.normal(0, 1, (d_model, t)).astype(F32)
        state = rng.normal(0, 1, (d_model, 2)).astype(F32)
        stacked_state = state.copy()
        y = stacked.apply(x, stacked_state)
        assert y.shape == (2 * hidden, t)
        for w, b, y_half in zip(np.split(stacked.weight, 2), np.split(stacked.bias, 2),
                                np.split(y, 2)):
            half_state = state.copy()
            y_sep = ConvLayer(w, b).apply(x, half_state)
            assert np.array_equal(y_half, y_sep)
            assert np.array_equal(stacked_state, half_state)


class TestPredictor:
    def _features(self, model, seed=0, t=30):
        rng = np.random.default_rng(seed)
        return rng.normal(0, 1, (t, model.cfg.d_model)).astype(F32)

    def test_zero_weights_constant_bias(self, model):
        params = _zero_predictor(model.prosody, 2.5, -1.25)
        pred = predict_f0_energy(self._features(model), params)
        assert np.all(pred[:, 0] == F32(2.5))
        assert np.all(pred[:, 1] == F32(-1.25))

    def test_causality(self, model):
        x = self._features(model, seed=1)
        base = predict_f0_energy(x, model.prosody)
        rng = np.random.default_rng(2)
        for t in (4, 15, 27):
            poked = x.copy()
            poked[t + 1:] = rng.normal(0, 1, poked[t + 1:].shape).astype(F32)
            y = predict_f0_energy(poked, model.prosody)
            assert np.array_equal(base[:t + 1], y[:t + 1])

    def test_chunked_equals_one_shot(self, model):
        x = self._features(model, seed=3, t=24)
        full = predict_f0_energy(x, model.prosody)
        states = model.prosody.init_states()
        parts = []
        for k in range(0, 24, 6):
            y = predict_f0_energy(x[k:k + 6], model.prosody, states)
            parts.append(y)
        np.testing.assert_allclose(np.concatenate(parts), full, atol=1e-6)
