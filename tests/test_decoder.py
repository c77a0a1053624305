"""Decoder tests: cLN-fusion algebra, causal context, upsampler shapes,
chunked synthesis continuity, and speaker sensitivity.
"""

import dataclasses

import numpy as np
import pytest

from conftest import random_wave
from tvtsyn.decoder import ClnFusionParams, cln_fuse, decode_context, synthesize_wave
from tvtsyn.encoder import encode_frames, vq_quantize
from tvtsyn.errors import InputError
from tvtsyn.kernels import layer_norm
from tvtsyn.model import synthesize
from tvtsyn.prosody import predict_f0_energy
from tvtsyn.timbre import build_gtm, tvt_sequence

F32 = np.float32


def _identity_cln(p: ClnFusionParams) -> ClnFusionParams:
    """gamma/beta/gate generators zeroed (gate forced hard closed), projection
    = identity on the content half: y must equal Norm(x)."""
    d, s = p.proj_w.shape[0], p.ln_s_g.shape[0]
    proj = np.zeros((d, d + s), F32)
    proj[:, :d] = np.eye(d, dtype=F32)
    return ClnFusionParams(
        ln_x_g=np.ones_like(p.ln_x_g), ln_x_b=np.zeros_like(p.ln_x_b),
        ln_s_g=np.ones_like(p.ln_s_g), ln_s_b=np.zeros_like(p.ln_s_b),
        gamma_w=np.zeros_like(p.gamma_w), gamma_b=np.zeros_like(p.gamma_b),
        beta_w=np.zeros_like(p.beta_w), beta_b=np.zeros_like(p.beta_b),
        gate_w=np.zeros_like(p.gate_w), gate_b=np.full_like(p.gate_b, -40.0),
        proj_w=proj, proj_b=np.zeros(d, F32),
    )


class TestClnFuse:
    def _streams(self, model, seed=0, t=6):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (t, model.cfg.d_model)).astype(F32)
        s = rng.normal(0, 1, (t, model.cfg.timbre_dim)).astype(F32)
        return x, s

    def test_identity_configuration_returns_norm_x(self, model):
        x, s = self._streams(model)
        p = _identity_cln(model.decoder.cln_in)
        y = cln_fuse(x, s, p)
        expected = layer_norm(x, np.ones(x.shape[1], F32), np.zeros(x.shape[1], F32))
        np.testing.assert_allclose(y, expected, atol=1e-6)

    def test_constant_x_collapses_to_conditioning(self, model):
        # Norm of a constant row is zero, so y = Proj([beta_t || g_t * Norm(s_t)])
        x, s = self._streams(model, seed=1)
        x = np.broadcast_to(x[:1] * 0 + 3.0, x.shape).copy()
        p = model.decoder.cln_in
        y = cln_fuse(x, s, p)
        beta = s @ p.beta_w.T + p.beta_b
        from tvtsyn.kernels import sigmoid

        gate = sigmoid(s @ p.gate_w.T + p.gate_b)
        ns = layer_norm(s, p.ln_s_g, p.ln_s_b)
        expected = np.concatenate([beta, gate * ns], axis=1) @ p.proj_w.T + p.proj_b
        np.testing.assert_allclose(y, expected, atol=1e-5)

    def test_conditioning_is_live(self, model):
        x, s1 = self._streams(model, seed=2)
        _, s2 = self._streams(model, seed=3)
        y1 = cln_fuse(x, s1, model.decoder.cln_in)
        y2 = cln_fuse(x, s2, model.decoder.cln_in)
        assert np.abs(y1 - y2).max() > 0

    def test_length_mismatch_rejected(self, model):
        x, s = self._streams(model)
        with pytest.raises(InputError):
            cln_fuse(x, s[:-1], model.decoder.cln_in)


class TestDecodeContext:
    def _streams(self, model, seed, t=30):
        rng = np.random.default_rng(seed)
        content = rng.normal(0, 1, (t, model.cfg.d_model)).astype(F32)
        tvt = rng.normal(0, 1, (t, model.cfg.timbre_dim)).astype(F32)
        pros = rng.normal(0, 1, (t, 2)).astype(F32)
        return content, tvt, pros

    def test_strictly_causal(self, model):
        content, tvt, pros = self._streams(model, 0)
        base = decode_context(content, tvt, pros, model.decoder, model.prosody)
        rng = np.random.default_rng(1)
        for t in (5, 15, 28):
            c2, t2, p2 = content.copy(), tvt.copy(), pros.copy()
            c2[t + 1:] = rng.normal(0, 1, c2[t + 1:].shape).astype(F32)
            t2[t + 1:] = rng.normal(0, 1, t2[t + 1:].shape).astype(F32)
            p2[t + 1:] = rng.normal(0, 1, p2[t + 1:].shape).astype(F32)
            y = decode_context(c2, t2, p2, model.decoder, model.prosody)
            assert np.array_equal(base[:t + 1], y[:t + 1])

    def test_chunked_equals_one_shot(self, model):
        from tvtsyn.context import KvCache

        content, tvt, pros = self._streams(model, 2)
        full = decode_context(content, tvt, pros, model.decoder, model.prosody)
        cache = KvCache(model.decoder.ctx, 5)
        parts = []
        for k in range(0, 30, 5):
            parts.append(decode_context(content[k:k + 5], tvt[k:k + 5], pros[k:k + 5],
                                        model.decoder, model.prosody, cache=cache))
        np.testing.assert_allclose(np.concatenate(parts), full, atol=1e-5)

    def test_length_mismatch_rejected(self, model):
        content, tvt, pros = self._streams(model, 3)
        with pytest.raises(InputError):
            decode_context(content, tvt[:-1], pros, model.decoder, model.prosody)

    def test_f0_scale_changes_output(self, model):
        content, tvt, pros = self._streams(model, 4)
        a = decode_context(content, tvt, pros, model.decoder, model.prosody, f0_scale=1.0)
        b = decode_context(content, tvt, pros, model.decoder, model.prosody, f0_scale=2.0)
        assert np.abs(a - b).max() > 0


class TestSynthesizeWave:
    def test_shape_and_range(self, model):
        rng = np.random.default_rng(0)
        frames = rng.normal(0, 1, (150, model.cfg.d_model)).astype(F32)
        tvt = rng.normal(0, 1, (150, model.cfg.timbre_dim)).astype(F32)
        wave = synthesize_wave(frames, tvt, model.decoder)
        assert wave.shape == (48000,)
        assert wave.min() >= -1.0 and wave.max() <= 1.0

    def test_zero_frames_zero_bias_is_silence(self, model):
        # zero the decoder-CNN weights/biases: zero input -> exact silence
        layers = list(model.decoder.cnn.layers)
        for i in (0, -1):  # conv_in and conv_out
            layers[i] = dataclasses.replace(layers[i], weight=np.zeros_like(layers[i].weight),
                                            bias=np.zeros_like(layers[i].bias))
        zcnn = dataclasses.replace(model.decoder.cnn, layers=layers)
        wave, _ = zcnn.apply(np.zeros((10, model.cfg.d_model), F32))
        assert not wave.any()

    def test_speaker_sensitivity(self, model):
        # swapping the global timbre changes the waveform with content fixed
        rng = np.random.default_rng(5)
        wave_in = random_wave(6, 9600)
        g1 = rng.normal(0, 1, model.cfg.global_dim).astype(F32)
        g2 = rng.normal(0, 1, model.cfg.global_dim).astype(F32)
        out1 = synthesize(model, wave_in, g1)
        out2 = synthesize(model, wave_in, g2)
        assert np.abs(out1 - out2).max() > 0

    def test_timbre_stream_reaches_output(self, model, speaker):
        # same content, alpha pinned 0 vs 1 through synthesize's stages: the
        # conditioning path is live
        wave_in = random_wave(8, 9600)
        content, _ = vq_quantize(encode_frames(wave_in, model.encoder), model.encoder.vq)
        gtm = build_gtm(speaker, model.tvt)
        pred, _ = predict_f0_energy(content, model.prosody)
        outs = []
        for alpha in (0.0, 1.0):
            tvt, _, _ = tvt_sequence(content, speaker, gtm, model.tvt, force_alpha=alpha)
            ctxout = decode_context(content, tvt, pred, model.decoder, model.prosody)
            outs.append(synthesize_wave(ctxout, tvt, model.decoder))
        assert np.abs(outs[0] - outs[1]).max() > 0

    def test_chunked_synthesis_boundary_continuity(self, model, speaker):
        """Crossfaded chunk boundaries are no rougher than chunk interiors."""
        from tvtsyn.config import StreamConfig
        from tvtsyn.streaming import stream_file

        sc = StreamConfig(chunk_ms=60)
        wave_in = random_wave(9, 48000)
        out, _ = stream_file(model, sc, speaker, wave_in)
        jumps = np.abs(np.diff(out.astype(np.float64)))
        c = sc.chunk_samples
        boundary_idx = np.arange(c, out.size - 1, c)
        interior = np.ones(jumps.size, dtype=bool)
        for b in boundary_idx:
            interior[max(b - 2, 0):b + 2] = False
        assert jumps[~interior].max() <= 2.0 * jumps[interior].max()
