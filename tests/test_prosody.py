"""Prosody predictor tests: constant output from zeroed weights, causality,
and chunked runs equal to one shot.
"""

import dataclasses

import numpy as np

from tvtsyn.prosody import PredictorParams, predict_f0_energy

F32 = np.float32


def _zero_predictor(pred: PredictorParams, bias_value: float) -> PredictorParams:
    """All weights zero, projection bias set: the predictor becomes constant."""
    def zero_conv(c):
        return dataclasses.replace(c, weight=np.zeros_like(c.weight),
                                   bias=np.zeros_like(c.bias))

    return dataclasses.replace(
        pred,
        conv1=zero_conv(pred.conv1),
        conv2=zero_conv(pred.conv2),
        proj_w=np.zeros_like(pred.proj_w),
        proj_b=np.full_like(pred.proj_b, bias_value),
    )


class TestPredictor:
    def _features(self, model, seed=0, t=30):
        rng = np.random.default_rng(seed)
        return rng.normal(0, 1, (t, model.cfg.d_model)).astype(F32)

    def test_zero_weights_constant_bias(self, model):
        params = dataclasses.replace(
            model.prosody,
            f0=_zero_predictor(model.prosody.f0, 2.5),
            energy=_zero_predictor(model.prosody.energy, -1.25),
        )
        pred, _ = predict_f0_energy(self._features(model), params)
        assert np.all(pred[:, 0] == F32(2.5))
        assert np.all(pred[:, 1] == F32(-1.25))

    def test_causality(self, model):
        x = self._features(model, seed=1)
        base, _ = predict_f0_energy(x, model.prosody)
        rng = np.random.default_rng(2)
        for t in (4, 15, 27):
            poked = x.copy()
            poked[t + 1:] = rng.normal(0, 1, poked[t + 1:].shape).astype(F32)
            y, _ = predict_f0_energy(poked, model.prosody)
            assert np.array_equal(base[:t + 1], y[:t + 1])

    def test_chunked_equals_one_shot(self, model):
        x = self._features(model, seed=3, t=24)
        full, _ = predict_f0_energy(x, model.prosody)
        states = None
        parts = []
        for k in range(0, 24, 6):
            y, states = predict_f0_energy(x[k:k + 6], model.prosody, states)
            parts.append(y)
        np.testing.assert_allclose(np.concatenate(parts), full, atol=1e-6)
