"""Global Timbre Memory, facet retrieval, gating, and slerp geometry."""

import inspect

import numpy as np
import pytest

from conftest import pin_gate, random_wave
from tvtsyn.config import MAX_LOOKAHEAD
from tvtsyn.encoder import encode_frames, vq_quantize
from tvtsyn.errors import ConfigError, InputError
from tvtsyn.kernels import l2_normalize_rows
from tvtsyn.model import content_and_timbre, synthesize
from tvtsyn.timbre import (GtmMemory, TvtParams, build_gtm, gate_alpha,
                           project_global, retrieve_facet, slerp, tvt_sequence)

F32 = np.float32


def chord_angle(u, v):
    """Angle between unit vectors via the chord formula (stable near 0)."""
    u = np.atleast_2d(u).astype(np.float64)
    v = np.atleast_2d(v).astype(np.float64)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return 2.0 * np.arcsin(np.clip(np.linalg.norm(u - v, axis=-1) / 2.0, 0.0, 1.0))


def geodesic_angle(u, v):
    """Angle between rows as 2 atan2(|u - v|, |u + v|) of the normalized rows
    in float64, well conditioned near 0 and near pi alike."""
    u, v = (x / np.linalg.norm(x, axis=-1, keepdims=True)
            for x in (np.atleast_2d(u).astype(np.float64), np.atleast_2d(v).astype(np.float64)))
    return 2.0 * np.arctan2(np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1))


def _zeroed(params, attr_names):
    """Copy of TvtParams with the given weight tuples zeroed."""
    import dataclasses

    kwargs = {}
    for f in dataclasses.fields(params):
        v = getattr(params, f.name)
        if f.name in attr_names:
            v = tuple(np.zeros_like(a) for a in v) if isinstance(v, tuple) else np.zeros_like(v)
        kwargs[f.name] = v
    return TvtParams(**kwargs)


class TestBuildGtm:
    def test_zero_mlp_gives_priors_exactly(self, model, speaker):
        p = _zeroed(model.tvt, {"mlp_k", "mlp_v"})
        gtm = build_gtm(speaker, p)
        assert np.array_equal(gtm.keys, p.key_prior)
        assert np.array_equal(gtm.values, p.value_prior)

    def test_zero_priors_gives_mlp_output(self, model, speaker):
        p = _zeroed(model.tvt, {"key_prior", "value_prior"})
        gtm = build_gtm(speaker, p)
        full = build_gtm(speaker, model.tvt)
        np.testing.assert_allclose(gtm.keys + model.tvt.key_prior, full.keys, atol=1e-6)

    def test_distinct_speakers_distinct_memories(self, model):
        rng = np.random.default_rng(0)
        g1 = rng.normal(0, 1, model.cfg.global_dim).astype(F32)
        g2 = rng.normal(0, 1, model.cfg.global_dim).astype(F32)
        m1, m2 = build_gtm(g1, model.tvt), build_gtm(g2, model.tvt)
        assert np.all(np.any(m1.keys != m2.keys, axis=1))
        assert np.all(np.any(m1.values != m2.values, axis=1))

    def test_prior_sharing_across_speakers(self, model):
        # changing g changes the MLP contribution only; every speaker's memory
        # is built from the one shared prior parameter
        rng = np.random.default_rng(1)
        zero_prior = _zeroed(model.tvt, {"key_prior", "value_prior"})
        for seed in range(3):
            g = rng.normal(0, 1, model.cfg.global_dim).astype(F32)
            full = build_gtm(g, model.tvt)
            mlp_only = build_gtm(g, zero_prior)
            np.testing.assert_allclose(full.keys - mlp_only.keys,
                                       model.tvt.key_prior, atol=1e-5)
            np.testing.assert_allclose(full.values - mlp_only.values,
                                       model.tvt.value_prior, atol=1e-5)

    def test_bad_speaker_rejected(self, model):
        with pytest.raises(InputError):
            build_gtm(np.zeros(model.cfg.global_dim, F32), model.tvt)
        with pytest.raises(InputError):
            build_gtm(np.ones(3, F32), model.tvt)
        bad = np.ones(model.cfg.global_dim, F32)
        bad[0] = np.nan
        with pytest.raises(InputError):
            build_gtm(bad, model.tvt)


class TestRetrieveFacet:
    def test_identical_keys_average_values(self, model):
        rng = np.random.default_rng(2)
        k = model.tvt.n_slots
        keys = np.broadcast_to(rng.normal(0, 1, model.tvt.attn_dim).astype(F32),
                               (k, model.tvt.attn_dim)).copy()
        values = rng.normal(0, 1, (k, model.tvt.timbre_dim)).astype(F32)
        # retrieve_facet reads only the slots, not the speaker projection g_hat
        gtm = GtmMemory(keys=keys, values=values, g_hat=np.zeros(model.tvt.timbre_dim, F32))
        c = rng.normal(0, 1, (3, model.tvt.query_w.shape[1])).astype(F32)
        v, w = retrieve_facet(c, gtm, model.tvt)
        np.testing.assert_allclose(v, np.broadcast_to(values.mean(axis=0), v.shape),
                                   atol=1e-5)
        np.testing.assert_allclose(w, 1.0 / k, atol=1e-6)

    def test_saturated_key_dominates(self, model):
        rng = np.random.default_rng(3)
        k = model.tvt.n_slots
        d = model.tvt.attn_dim
        keys = rng.normal(0, 0.01, (k, d)).astype(F32)
        c = rng.normal(0, 1, (1, model.tvt.query_w.shape[1])).astype(F32)
        q = c @ model.tvt.query_w.T + model.tvt.query_b
        keys[5] = 200.0 * q[0] / np.linalg.norm(q[0])  # saturate slot 5
        values = rng.normal(0, 1, (k, model.tvt.timbre_dim)).astype(F32)
        gtm = GtmMemory(keys=keys, values=values, g_hat=np.zeros(model.tvt.timbre_dim, F32))
        v, w = retrieve_facet(c, gtm, model.tvt)
        assert int(np.argmax(w[0])) == 5
        np.testing.assert_allclose(v[0], values[5], atol=1e-3)

    def test_weights_are_distribution(self, model, speaker):
        rng = np.random.default_rng(4)
        gtm = build_gtm(speaker, model.tvt)
        c = rng.normal(0, 1, (20, model.tvt.query_w.shape[1])).astype(F32)
        _, w = retrieve_facet(c, gtm, model.tvt)
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)


class TestGateAlpha:
    def _inputs(self, model, seed=0):
        rng = np.random.default_rng(seed)
        c = rng.normal(0, 1, (4, model.cfg.d_model)).astype(F32)
        v = rng.normal(0, 1, (4, model.cfg.timbre_dim)).astype(F32)
        g = l2_normalize_rows(rng.normal(0, 1, model.cfg.timbre_dim).astype(F32))
        return c, v, g

    def test_bias_limits(self, model):
        import dataclasses

        c, v, g = self._inputs(model)
        for bias, expect in ((-30.0, 0.0), (30.0, 1.0)):
            w1, b1, w2, b2 = model.tvt.gate
            p = dataclasses.replace(model.tvt, gate=(w1, b1, np.zeros_like(w2),
                                                     np.full_like(b2, bias)))
            np.testing.assert_allclose(gate_alpha(c, v, g, p), expect, atol=1e-9)

    def test_zero_weights_gives_half(self, model):
        c, v, g = self._inputs(model)
        p = _zeroed(model.tvt, {"gate"})
        np.testing.assert_allclose(gate_alpha(c, v, g, p), 0.5, atol=1e-7)

    def test_open_interval(self, model, speaker):
        c, v, g = self._inputs(model, seed=5)
        a = gate_alpha(c, v, g, model.tvt)
        assert np.all(a > 0) and np.all(a < 1)


class TestSlerp:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(0)
        a = l2_normalize_rows(rng.normal(0, 1, (64, 24)).astype(F32))
        b = l2_normalize_rows(rng.normal(0, 1, (64, 24)).astype(F32))
        assert np.array_equal(slerp(a, b, 0.0), a)
        assert np.array_equal(slerp(a, b, 1.0), b)

    def test_geodesic_midpoint_2d(self):
        out = slerp(np.array([1.0, 0.0], F32), np.array([0.0, 1.0], F32), 0.5)
        np.testing.assert_allclose(out, np.sqrt(2) / 2, atol=1e-7)

    def test_unit_norm_and_angular_proportionality(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (5000, 24)).astype(F32)
        b = rng.normal(0, 1, (5000, 24)).astype(F32)
        alpha = rng.uniform(0, 1, 5000).astype(F32)
        s = slerp(a, b, alpha)
        np.testing.assert_allclose(np.linalg.norm(s.astype(np.float64), axis=1),
                                   1.0, atol=1e-6)
        err = np.abs(chord_angle(a, s) - alpha.astype(np.float64) * chord_angle(a, b))
        assert err.max() <= 1e-5

    def test_near_parallel_fallback(self):
        a = np.array([1.0, 0.0, 0.0], F32)
        b = np.array([1.0, 2e-7, 0.0], F32)
        s = slerp(a, b, 0.5)
        assert abs(np.linalg.norm(s.astype(np.float64)) - 1.0) <= 1e-6
        assert abs(chord_angle(a, s)[0] - 0.5 * chord_angle(a, b)[0]) <= 1e-5

    def test_antipodal_fallback(self):
        a = np.array([1.0, 0.0, 0.0], F32)
        s = slerp(a, -a, 0.5)
        assert abs(np.linalg.norm(s.astype(np.float64)) - 1.0) <= 1e-6
        # half the geodesic to (a perturbation of) the antipode: a right angle
        assert abs(chord_angle(a, s)[0] - np.pi / 2) <= 1e-4

    @pytest.mark.parametrize("delta", [1e-4, 1e-5, 1e-6])
    @pytest.mark.parametrize("antipodal", [False, True])
    def test_midpoint_on_geodesic_near_degenerate(self, delta, antipodal):
        # pairs at angle delta or pi - delta: the midpoint stays in the plane of
        # a and b at half their angle (an endpoint perturbation left it 0.78 off)
        rng = np.random.default_rng(3)
        a = l2_normalize_rows(rng.normal(0, 1, (2000, 192))).astype(F32)
        w = rng.normal(0, 1, (2000, 192))
        w = l2_normalize_rows(w - np.sum(w * a, axis=1, keepdims=True) * a).astype(F32)
        theta = np.pi - delta if antipodal else delta
        b = (np.cos(theta) * a.astype(np.float64) + np.sin(theta) * w).astype(F32)
        s = slerp(a, b, 0.5).astype(np.float64)
        # orthonormal basis (e1, e2) of span(a, b), in float64
        e1 = a / np.linalg.norm(a.astype(np.float64), axis=1, keepdims=True)
        e2 = b - np.sum(b * e1, axis=1, keepdims=True) * e1
        e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
        in_plane = np.sum(s * e1, axis=1, keepdims=True) * e1 \
            + np.sum(s * e2, axis=1, keepdims=True) * e2
        assert np.linalg.norm(s - in_plane, axis=1).max() <= 1e-6
        angle_err = np.abs(geodesic_angle(a, s) - 0.5 * geodesic_angle(a, b))
        assert angle_err.max() <= 1e-6

    def test_alpha_out_of_range_rejected(self):
        a = np.array([1.0, 0.0], F32)
        with pytest.raises(InputError):
            slerp(a, a, 1.5)

    def test_nan_alpha_rejected(self):
        # NaN compares False against both ends of [0, 1]; it used to return NaNs
        a = np.array([1.0, 0.0], F32)
        b = np.array([0.0, 1.0], F32)
        with pytest.raises(InputError, match="alpha"):
            slerp(a, b, np.nan)
        with pytest.raises(InputError, match="alpha"):
            slerp(np.stack([a, a]), np.stack([b, b]), np.array([0.5, np.nan]))

    def test_angle_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        a = l2_normalize_rows(rng.normal(0, 1, (1, 16)).astype(F32))
        b = l2_normalize_rows(rng.normal(0, 1, (1, 16)).astype(F32))
        angles = [chord_angle(a, slerp(a, b, al))[0] for al in np.linspace(0, 1, 11)]
        assert all(x <= y + 1e-9 for x, y in zip(angles, angles[1:]))


class TestTvtSequence:
    def _content(self, model, seed=0, t=25):
        wave = random_wave(seed, 320 * t)
        frames = encode_frames(wave, model.encoder)
        content, _ = vq_quantize(frames, model.encoder.vq)
        return content

    def test_alpha_zero_is_static_projected_global(self, model, speaker, monkeypatch):
        content = self._content(model)
        gtm = build_gtm(speaker, model.tvt)
        pin_gate(monkeypatch, 0.0)
        s, _, _ = tvt_sequence(content, speaker, gtm, model.tvt)
        g_hat = project_global(speaker, model.tvt) * model.tvt.scale[0]
        assert np.array_equal(s, np.broadcast_to(g_hat.astype(F32), s.shape))

    def test_alpha_one_is_normalized_facet(self, model, speaker, monkeypatch):
        content = self._content(model, seed=1)
        gtm = build_gtm(speaker, model.tvt)
        pin_gate(monkeypatch, 1.0)
        s, _, _ = tvt_sequence(content, speaker, gtm, model.tvt)
        facets, _ = retrieve_facet(content, gtm, model.tvt)
        expected = l2_normalize_rows(facets) * model.tvt.scale[0]
        np.testing.assert_allclose(s, expected, atol=1e-6)

    def test_constant_content_constant_stream(self, model, speaker):
        content = self._content(model, seed=2)[:1]
        content = np.broadcast_to(content, (12, content.shape[1])).copy()
        gtm = build_gtm(speaker, model.tvt)
        s, _, _ = tvt_sequence(content, speaker, gtm, model.tvt)
        assert np.array_equal(s, np.broadcast_to(s[0], s.shape))

    def test_unit_sphere_closure_before_scale(self, model, speaker):
        content = self._content(model, seed=3)
        gtm = build_gtm(speaker, model.tvt)
        s, _, _ = tvt_sequence(content, speaker, gtm, model.tvt)
        norms = np.linalg.norm(s.astype(np.float64) / model.tvt.scale[0], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_angular_bound(self, model, speaker):
        content = self._content(model, seed=4)
        gtm = build_gtm(speaker, model.tvt)
        s, _, _ = tvt_sequence(content, speaker, gtm, model.tvt)
        g_hat = project_global(speaker, model.tvt)
        facets, _ = retrieve_facet(content, gtm, model.tvt)
        v_hat = l2_normalize_rows(facets)
        lhs = chord_angle(np.broadcast_to(g_hat, s.shape), s / model.tvt.scale[0])
        rhs = chord_angle(np.broadcast_to(g_hat, s.shape), v_hat)
        assert np.all(lhs <= rhs + 1e-6)

    def test_facet_usage_not_collapsed(self, model):
        # across random utterances no slot hogs >99% of the attention mass
        rng = np.random.default_rng(5)
        masses = []
        for seed in range(5):
            g = rng.normal(0, 1, model.cfg.global_dim).astype(F32)
            content = self._content(model, seed=seed + 10)
            gtm = build_gtm(g, model.tvt)
            _, w = retrieve_facet(content, gtm, model.tvt)
            masses.append(w.mean(axis=0))
        mean_mass = np.mean(masses, axis=0)
        assert mean_mass.max() < 0.99

    def test_top1_varies_across_frames(self, model, speaker):
        content = self._content(model, seed=6, t=50)
        gtm = build_gtm(speaker, model.tvt)
        _, weights, _ = tvt_sequence(content, speaker, gtm, model.tvt)
        assert len(np.unique(np.argmax(weights, axis=1))) > 1


class TestContentAndTimbre:
    """The offline front half, the part of `synthesize` that `dump-tvt` runs."""

    def test_timbre_stream_is_tvt_sequence_of_its_content(self, model, speaker):
        content, *got = content_and_timbre(model, random_wave(30, 320 * 20 + 17), speaker)
        assert content.shape[0] == 21  # zero-padded to whole hops
        want = tvt_sequence(content, speaker, build_gtm(speaker, model.tvt), model.tvt)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("entry", [content_and_timbre, synthesize])
    @pytest.mark.parametrize("setting", [
        {"lookahead": MAX_LOOKAHEAD + 1}, {"lookahead": 50}, {"lookahead": -1},
        {"lookahead": 2.5}, {"lookahead": True},
        {"block_frames": 0}, {"block_frames": 2.5}, {"block_frames": True}],
        ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
    def test_lookahead_and_block_checked_first(self, model, speaker, entry, setting):
        # checked before any work: the wave (None) is never looked at
        with pytest.raises(ConfigError, match=next(iter(setting))):
            entry(model, None, speaker, **setting)

    def test_synthesize_returns_audio_only(self, model, speaker):
        # no flag turns the waveform into a tuple, and no **kwargs takes one:
        # any other keyword is a TypeError
        params = inspect.signature(synthesize).parameters
        assert list(params) == ["model", "wave", "speaker", "lookahead", "block_frames",
                                "f0_scale"]
        out = synthesize(model, random_wave(31, 960), speaker)
        assert isinstance(out, np.ndarray) and out.shape == (960,)
