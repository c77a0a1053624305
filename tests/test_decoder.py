"""Decoder tests: cLN-fusion algebra, causal context, upsampler shapes,
chunked synthesis continuity, and speaker sensitivity.
"""

import dataclasses

import numpy as np
import pytest

from conftest import fold_film, fold_pre_norm, pin_gate, random_wave
from tvtsyn.config import LOOKBACK_FRAMES
from tvtsyn.context import AttnLayer, TransformerParams, band_mask, transformer_full
from tvtsyn.decoder import ClnFusionParams, cln_fuse, decode_context, synthesize_wave
from tvtsyn.encoder import encode_frames, vq_quantize
from tvtsyn.errors import InputError
from tvtsyn.kernels import layer_norm, normalize
from tvtsyn.model import synthesize
from tvtsyn.prosody import predict_f0_energy
from tvtsyn.timbre import build_gtm, tvt_sequence

F32 = np.float32


def _identity_cln(p: ClnFusionParams) -> ClnFusionParams:
    """FiLM weight zeroed, its gamma and beta biases zero and its gate bias
    -40 (gate hard closed), projection = identity on the content half: y must
    equal Norm(x)."""
    d, s = p.proj_w.shape[0], p.ln_s_g.shape[0]
    proj = np.zeros((d, d + s), F32)
    proj[:, :d] = np.eye(d, dtype=F32)
    film_b = np.zeros_like(p.film_b)
    film_b[2 * d:] = -40.0
    return ClnFusionParams(
        ln_s_g=np.ones_like(p.ln_s_g), ln_s_b=np.zeros_like(p.ln_s_b),
        film_w=np.zeros_like(p.film_w), film_b=film_b,
        proj_w=proj, proj_b=np.zeros(d, F32),
    )


def _f64(a):
    return np.asarray(a, dtype=np.float64)


def _norm64(x, g, b):
    """Layer norm over the last axis in float64."""
    d = x - x.mean(axis=-1, keepdims=True)
    return d / np.sqrt((d * d).mean(axis=-1, keepdims=True) + 1e-5) * g + b


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
        expected = normalize(x)
        np.testing.assert_allclose(y, expected, atol=1e-6)

    def test_constant_x_collapses_to_conditioning(self, model):
        # Norm of a constant row is zero, so y = Proj([beta_t || g_t * Norm(s_t)])
        x, s = self._streams(model, seed=1)
        x = np.broadcast_to(x[:1] * 0 + 3.0, x.shape).copy()
        p = model.decoder.cln_in
        y = cln_fuse(x, s, p)
        d = x.shape[1]
        beta = s @ p.film_w[d:2 * d].T + p.film_b[d:2 * d]
        from tvtsyn.kernels import sigmoid

        gate = sigmoid(s @ p.film_w[2 * d:].T + p.film_b[2 * d:])
        ns = layer_norm(s, p.ln_s_g, p.ln_s_b)
        expected = np.concatenate([beta, gate * ns], axis=1) @ p.proj_w.T + p.proj_b
        np.testing.assert_allclose(y, expected, atol=1e-5)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_float64_reference(self, model, seed):
        # y = Proj((1 + gamma) * Norm(x) + beta || sigmoid(g) * Norm_s(s)), with
        # gamma, beta and g the FiLM rows and Norm(x) affine-free (ln_x is
        # folded into the FiLM rows), on random (nonzero) biases and ln_s
        x, s = self._streams(model, seed=seed)
        rng = np.random.default_rng(10 + seed)
        p = dataclasses.replace(model.decoder.cln_out, **{
            f: rng.normal(0, 0.5, getattr(model.decoder.cln_out, f).shape).astype(F32)
            for f in ("ln_s_g", "ln_s_b", "film_b", "proj_b")})
        d = x.shape[1]
        film = _f64(s) @ _f64(p.film_w).T + _f64(p.film_b)
        gamma, beta, g = film[:, :d], film[:, d:2 * d], film[:, 2 * d:]
        nx = _norm64(_f64(x), 1.0, 0.0)
        ns = _norm64(_f64(s), _f64(p.ln_s_g), _f64(p.ln_s_b))
        fused = np.concatenate([(1 + gamma) * nx + beta, ns / (1 + np.exp(-g))], axis=1)
        want = fused @ _f64(p.proj_w).T + _f64(p.proj_b)
        y = cln_fuse(x, s, p)
        assert y.shape == want.shape and y.dtype == F32
        np.testing.assert_allclose(y, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_folded_ln_x_matches_unfolded_reference(self, model, seed):
        # a trained ln_x (g, b) of non-unit g and nonzero b, folded into the
        # FiLM gamma and beta rows: (1 + gamma)(g Norm(x) + b) + beta, in float64
        x, s = self._streams(model, seed=seed)
        rng = np.random.default_rng(20 + seed)
        p = dataclasses.replace(model.decoder.cln_in, **{
            f: rng.normal(0, 0.5, getattr(model.decoder.cln_in, f).shape).astype(F32)
            for f in ("ln_s_g", "ln_s_b", "film_b", "proj_b")})
        d = x.shape[1]
        g, b = rng.normal(1, 0.5, d), rng.normal(0, 0.5, d)
        film = _f64(s) @ _f64(p.film_w).T + _f64(p.film_b)
        gamma, beta, gate = film[:, :d], film[:, d:2 * d], film[:, 2 * d:]
        nx = _norm64(_f64(x), g, b)
        ns = _norm64(_f64(s), _f64(p.ln_s_g), _f64(p.ln_s_b))
        fused = np.concatenate([(1 + gamma) * nx + beta, ns / (1 + np.exp(-gate))], axis=1)
        want = fused @ _f64(p.proj_w).T + _f64(p.proj_b)
        film_w, film_b = fold_film(p.film_w, p.film_b, g, b, d)
        folded = dataclasses.replace(p, film_w=film_w.astype(F32), film_b=film_b.astype(F32))
        np.testing.assert_allclose(cln_fuse(x, s, folded), want, rtol=1e-5, atol=1e-5)
        # the gate rows do not change
        assert np.array_equal(folded.film_w[2 * d:], p.film_w[2 * d:])
        assert np.array_equal(folded.film_b[2 * d:], p.film_b[2 * d:])

    def test_stores_no_ln_x_affine(self):
        assert [f.name for f in dataclasses.fields(ClnFusionParams)] == [
            "ln_s_g", "ln_s_b", "film_w", "film_b", "proj_w", "proj_b"]

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


class TestPreNormFold:
    """A trained attention layer's ln1 and ln2 affines, folded into its qkv and
    ffn1 weights, give the unfolded layer's output: the rule a converted
    checkpoint follows."""

    @pytest.mark.parametrize("lookahead", [0, 4])
    def test_folded_layer_matches_unfolded_reference(self, model, lookahead):
        ctx = model.decoder.ctx
        layer, t, d, h = ctx.layers[0], 40, ctx.d_model, ctx.n_heads
        dh = d // h
        rng = np.random.default_rng(30 + lookahead)
        x = _f64(rng.normal(0, 1, (t, d)).astype(F32))
        g1, b1, g2, b2, g_out, b_out = (rng.normal(m, 0.5, d) for m in (1, 0, 1, 0, 1, 0))
        # the unfolded pre-norm layer and the output norm, in float64
        qkv = _norm64(x, g1, b1) @ _f64(layer.wqkv).T + _f64(layer.bqkv)
        q, k, v = qkv.reshape(t, 3, h, dh).transpose(1, 2, 0, 3)       # each (H, T, Dh)
        turn = np.exp(1j * np.arange(t)[:, None] * 10000.0 ** (-np.arange(0, dh, 2) / dh))
        q, k = (((a[..., 0::2] + 1j * a[..., 1::2]) * turn) for a in (q, k))
        q, k = (np.stack([a.real, a.imag], axis=-1).reshape(h, t, dh) for a in (q, k))
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
        scores[:, ~band_mask(np.arange(t), np.arange(t), LOOKBACK_FRAMES, lookahead)] = -np.inf
        w = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        mid = x + (w @ v).transpose(1, 0, 2).reshape(t, d) @ _f64(layer.wo).T + _f64(layer.bo)
        hidden = _norm64(mid, g2, b2) @ _f64(layer.w1).T + _f64(layer.b1)
        hidden = np.where(hidden > 0, hidden, np.expm1(np.minimum(hidden, 0)))
        want = _norm64(mid + hidden @ _f64(layer.w2).T + _f64(layer.b2), g_out, b_out)

        def f32(a):
            return np.ascontiguousarray(a, dtype=F32)

        wqkv, bqkv = fold_pre_norm(layer.wqkv, layer.bqkv, g1, b1)
        w1, c1 = fold_pre_norm(layer.w1, layer.b1, g2, b2)
        folded = dataclasses.replace(layer, wqkv=f32(wqkv), bqkv=f32(bqkv), w1=f32(w1),
                                     b1=f32(c1))
        one = TransformerParams(layers=[folded], ln_out_g=f32(g_out), ln_out_b=f32(b_out),
                                n_heads=h)
        y = transformer_full(f32(x), one, lookahead=lookahead)
        np.testing.assert_allclose(y, want, rtol=1e-5, atol=1e-5)

    def test_attention_layer_stores_no_pre_norm_affine(self):
        assert [f.name for f in dataclasses.fields(AttnLayer)] == [
            "wqkv", "bqkv", "wo", "bo", "w1", "b1", "w2", "b2"]


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
        wave = zcnn.apply(np.zeros((10, model.cfg.d_model), F32))
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

    def test_timbre_stream_reaches_output(self, model, speaker, monkeypatch):
        # same content, alpha pinned 0 vs 1 through synthesize's stages: the
        # conditioning path is live
        wave_in = random_wave(8, 9600)
        content, _ = vq_quantize(encode_frames(wave_in, model.encoder), model.encoder.vq)
        gtm = build_gtm(speaker, model.tvt)
        pred = predict_f0_energy(content, model.prosody)
        outs = []
        for alpha in (0.0, 1.0):
            pin_gate(monkeypatch, alpha)
            tvt, _, _ = tvt_sequence(content, speaker, gtm, model.tvt)
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
