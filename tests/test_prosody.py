"""Prosody predictor and extractor tests."""

import dataclasses

import numpy as np
import pytest

from conftest import random_wave
from tvtsyn.errors import InputError
from tvtsyn.prosody import (PredictorParams, extract_energy, extract_f0,
                            extract_prosody, f0_energy_l2, predict_f0_energy)

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


class TestExtractors:
    def test_silence(self):
        wave = np.zeros(3200, F32)
        np.testing.assert_allclose(extract_energy(wave), np.log(1e-8))
        assert np.all(extract_f0(wave) == 0)

    def test_full_scale_square_wave(self):
        wave = np.ones(3200, F32)
        wave[::2] = -1.0
        np.testing.assert_allclose(extract_energy(wave), np.log(1.0 + 1e-8), atol=1e-6)

    def test_sine_rms_closed_form(self):
        t = np.arange(16000) / 16000.0
        for amp in (0.25, 0.5, 0.9):
            wave = (amp * np.sin(2 * np.pi * 200.0 * t)).astype(F32)
            e = extract_energy(wave)
            expected = np.log(amp / np.sqrt(2.0) + 1e-8)
            assert np.abs(e - expected).max() <= 1e-4

    def test_tone_f0(self):
        t = np.arange(2 * 16000) / 16000.0
        wave = (0.6 * np.sin(2 * np.pi * 200.0 * t)).astype(F32)
        f0 = extract_f0(wave)
        voiced = f0[f0 > 0]
        assert voiced.size >= 0.9 * f0.size
        assert np.abs(voiced - 200.0).max() <= 2.0

    @pytest.mark.parametrize("hz", [75.0, 120.0, 333.0, 440.0])
    def test_tone_f0_sweep(self, hz):
        t = np.arange(16000) / 16000.0
        wave = (0.5 * np.sin(2 * np.pi * hz * t)).astype(F32)
        f0 = extract_f0(wave)
        voiced = f0[5:][f0[5:] > 0]
        assert voiced.size > 0
        assert np.abs(voiced - hz).max() <= 0.02 * hz

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(0)
        wave = rng.normal(0, 0.3, 2 * 16000).astype(F32)
        f0 = extract_f0(wave)
        assert (f0 > 0).mean() <= 0.1

    def test_frame_counts_match_encoder(self, model):
        from tvtsyn.encoder import encode_frames

        for n in (3200, 48000):
            wave = random_wave(4, n)
            frames, _ = encode_frames(wave, model.encoder)
            assert extract_energy(wave).shape[0] == frames.shape[0]
            assert extract_f0(wave).shape[0] == frames.shape[0]

    def test_extractors_deterministic(self):
        wave = random_wave(5, 9600, amp=0.8)
        assert np.array_equal(extract_f0(wave), extract_f0(wave))
        assert np.array_equal(extract_energy(wave), extract_energy(wave))

    def test_extract_prosody_pairs(self):
        frames = extract_prosody(random_wave(6, 3200))
        assert len(frames) == 10
        assert all(f.f0_hz == 0 or 50.0 <= f.f0_hz <= 500.0 for f in frames)


class TestMetric:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (20, 2)).astype(F32)
        assert f0_energy_l2(x, x) == 0.0

    def test_positive_and_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (20, 2)).astype(F32)
        b = rng.normal(0, 1, (20, 2)).astype(F32)
        assert f0_energy_l2(a, b) > 0
        assert f0_energy_l2(a, b) == f0_energy_l2(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            f0_energy_l2(np.zeros((3, 2), F32), np.zeros((4, 2), F32))

    def test_predictions_vs_extractor_targets(self, model):
        # the training-time pairing is computable as an offline diagnostic
        from tvtsyn.encoder import encode_frames, vq_quantize

        wave = random_wave(7, 9600)
        frames, _ = encode_frames(wave, model.encoder)
        content, _ = vq_quantize(frames, model.encoder.vq)
        pred, _ = predict_f0_energy(content, model.prosody)
        target = np.stack([extract_f0(wave), extract_energy(wave)], axis=1)
        assert f0_energy_l2(pred, target) >= 0.0
