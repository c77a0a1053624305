"""Content encoder tests: frame rates, masked context attention with the ring
KV cache, and the factorized VQ bottleneck against an exhaustive oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_wave, store_of
from tvtsyn import context
from tvtsyn.config import LOOKBACK_FRAMES, small_config
from tvtsyn.context import KvCache, TransformerParams, transformer_full, transformer_step
from tvtsyn.encoder import EncoderState, VqParams, encode_frames, vq_nearest, vq_quantize
from tvtsyn.errors import ConfigError, InputError, InternalError
from tvtsyn.model import random_init

F32 = np.float32


class TestFrameRates:
    def test_three_seconds_gives_150_frames(self, model):
        frames = encode_frames(random_wave(0, 48000), model.encoder)
        assert frames.shape == (150, model.cfg.d_model)

    def test_single_hop_gives_one_frame(self, model):
        frames = encode_frames(random_wave(1, 320), model.encoder)
        assert frames.shape[0] == 1

    def test_frame_count_floor_rule(self, model):
        for n in (320, 640, 9600, 48000):
            frames = encode_frames(random_wave(2, n), model.encoder)
            assert frames.shape[0] == n // 320

    @pytest.mark.parametrize("j", [5, 10, 17])
    def test_frame_sees_its_hop_first_sample_only(self, model, j):
        # frame j depends on input samples 0..320*j: the first sample of its
        # own hop, and none after it (at look-ahead 0)
        wave = random_wave(j, 320 * 25)
        base = encode_frames(wave, model.encoder, lookahead=0)
        for start, first_changed in ((320 * j, j), (320 * j + 1, j + 1)):
            redrawn = wave.copy()
            redrawn[start:] = random_wave(100 + j, wave.size - start)
            out = encode_frames(redrawn, model.encoder, lookahead=0)
            changed = np.flatnonzero(np.any(out != base, axis=1))
            assert changed[0] == first_changed

    def test_unaligned_wave_rejected(self, model):
        with pytest.raises(InputError):
            encode_frames(np.zeros(321, F32), model.encoder)


class TestStreamingEquivalence:
    @pytest.mark.parametrize("chunk_frames", [3, 5])
    def test_chunked_equals_offline_with_matched_masks(self, model, chunk_frames):
        wave = random_wave(3, 320 * chunk_frames * 10)
        offline = encode_frames(wave, model.encoder, lookahead=4,
                                block_frames=chunk_frames)
        state = EncoderState(model.encoder, chunk_frames)
        parts = []
        step = 320 * chunk_frames
        for k in range(10):
            f = encode_frames(wave[k * step:(k + 1) * step], model.encoder,
                              state, lookahead=4)
            parts.append(f)
        streamed = np.concatenate(parts, axis=0)
        assert np.abs(streamed - offline).max() <= 1e-5

    def test_different_chunkings_agree(self, model):
        # 60 ms vs 100 ms chunks, mask-equivalent offline both ways
        wave = random_wave(4, 48000)
        a = encode_frames(wave, model.encoder, lookahead=0, block_frames=3)
        b = encode_frames(wave, model.encoder, lookahead=0, block_frames=5)
        # with lookahead 0 block truncation is irrelevant: outputs identical
        assert np.abs(a - b).max() <= 1e-5


class TestContextAttend:
    def _random_frames(self, model, seed, t=40):
        rng = np.random.default_rng(seed)
        return rng.normal(0, 1, (t, model.cfg.d_model)).astype(F32)

    def test_lookahead_zero_causal_exact(self, model):
        rng = np.random.default_rng(10)
        x = self._random_frames(model, 0)
        base = transformer_full(x, model.encoder.ctx, lookahead=0)
        for t in (5, 20, 38):
            poked = x.copy()
            poked[t + 1:] = rng.normal(0, 1, poked[t + 1:].shape).astype(F32)
            y = transformer_full(poked, model.encoder.ctx, lookahead=0)
            assert np.array_equal(base[:t + 1], y[:t + 1])

    def test_lookahead_four_horizon_exact(self, model):
        # the 4-frame window is an end-to-end budget across the whole stack
        rng = np.random.default_rng(11)
        x = self._random_frames(model, 1)
        base = transformer_full(x, model.encoder.ctx, lookahead=4)
        for t in (5, 20, 30):
            poked = x.copy()
            poked[t + 5:] = rng.normal(0, 1, poked[t + 5:].shape).astype(F32)
            y = transformer_full(poked, model.encoder.ctx, lookahead=4)
            assert np.array_equal(base[:t + 1], y[:t + 1])
        # liveness: a perturbation inside the window does reach frame t
        poked = x.copy()
        t = 20
        poked[t + 1:] = rng.normal(0, 1, poked[t + 1:].shape).astype(F32)
        y = transformer_full(poked, model.encoder.ctx, lookahead=4)
        assert not np.array_equal(base[:t + 1], y[:t + 1])

    def test_lookback_window_exact_per_layer(self, model):
        # a single attention layer ignores keys beyond the lookback window
        # exactly (per-layer contract; the stack compounds windows per layer)
        from tvtsyn.context import TransformerParams

        ctx = model.encoder.ctx
        one = TransformerParams(layers=ctx.layers[:1], ln_out_g=ctx.ln_out_g,
                                ln_out_b=ctx.ln_out_b, n_heads=ctx.n_heads)
        t_total = LOOKBACK_FRAMES + 30
        x = self._random_frames(model, 2, t=t_total)
        base = transformer_full(x, one, lookahead=0)
        poked = x.copy()
        poked[:10] += 1.0  # visible only to queries with t - lookback < 10
        y = transformer_full(poked, one, lookahead=0)
        safe = 10 + LOOKBACK_FRAMES
        assert np.array_equal(base[safe:], y[safe:])
        assert not np.array_equal(base[:safe], y[:safe])

    def test_cache_eviction_matches_full_mask(self, model):
        # stream one frame at a time past the lookback horizon
        t_total = LOOKBACK_FRAMES + 20
        x = self._random_frames(model, 3, t=t_total)
        full = transformer_full(x, model.encoder.ctx, lookahead=0)
        cache = KvCache(model.encoder.ctx, 1)
        outs = [transformer_step(x[t:t + 1], model.encoder.ctx, cache, lookahead=0)
                for t in range(t_total)]
        streamed = np.concatenate(outs, axis=0)
        assert np.abs(streamed - full).max() <= 1e-5

    @pytest.mark.parametrize("lookahead", [0, 4])
    def test_block_longer_than_ring_matches_full_pass(self, model, lookahead):
        # one block longer than the look-back (only its newest `lookback`
        # frames are kept), then a second block reads that window
        ctx = model.encoder.ctx
        t = LOOKBACK_FRAMES + 50
        x = self._random_frames(model, 5, t=2 * t)
        cache = KvCache(ctx, t)
        first = transformer_step(x[:t], ctx, cache, lookahead=lookahead)
        np.testing.assert_allclose(
            first, transformer_full(x[:t], ctx, lookahead=lookahead, block_frames=t),
            rtol=0, atol=1e-6)
        second = transformer_step(x[t:], ctx, cache, lookahead=lookahead)
        full = transformer_full(x, ctx, lookahead=lookahead, block_frames=t)
        np.testing.assert_allclose(second, full[t:], rtol=0, atol=1e-6)

    @pytest.mark.parametrize("lookahead", [0, 4])
    def test_block_at_position_1e9_matches_position_0(self, model, lookahead):
        # 10^9 frames is about 230 days at 50 Hz. Attention under RoPE and
        # band_mask depends only on relative position and the rotary angles
        # are built in float64, so a full look-back window and then a 3-frame
        # block (the per-column GEMV products) match the same frames at 0
        ctx = model.encoder.ctx
        x = self._random_frames(model, 7, t=LOOKBACK_FRAMES + 3)
        outs = []
        for start in (0, 10 ** 9):
            cache = KvCache(ctx, LOOKBACK_FRAMES)
            cache.next_pos = start
            hist = transformer_step(x[:LOOKBACK_FRAMES], ctx, cache, lookahead=lookahead)
            block = transformer_step(x[LOOKBACK_FRAMES:], ctx, cache, lookahead=lookahead)
            outs.append((hist, block))
        for far, near in zip(outs[1], outs[0]):
            np.testing.assert_allclose(far, near, rtol=0, atol=1e-4)

    def test_block_frames_below_one_rejected(self, model):
        x = self._random_frames(model, 6, t=4)
        with pytest.raises(ConfigError):
            transformer_full(x, model.encoder.ctx, lookahead=4, block_frames=0)

    def test_block_longer_than_cache_block_raises(self, model):
        x = self._random_frames(model, 4, t=4)
        cache = KvCache(model.encoder.ctx, 3)
        untouched = cache.pos.copy()
        with pytest.raises(InternalError, match="block"):
            transformer_step(x, model.encoder.ctx, cache, lookahead=0)
        assert cache.next_pos == 0 and np.array_equal(cache.pos, untouched)

    @pytest.mark.parametrize("lookahead", [0, 4])
    def test_ring_wrapping_mid_block_matches_full_pass(self, model, lookahead):
        # 7-frame blocks give 107 slots, which 7 does not divide, so most
        # wraps fall inside a block; 92 blocks wrap the ring 6 times
        ctx = model.encoder.ctx
        cache = KvCache(ctx, 7)
        slots = cache.pos.shape[0]
        assert slots == LOOKBACK_FRAMES + 7 and slots % 7
        t = 7 * 92
        assert t >= 6 * slots
        x = self._random_frames(model, 12, t=t)
        streamed = np.concatenate([
            transformer_step(x[s:s + 7], ctx, cache, lookahead=lookahead)
            for s in range(0, t, 7)])
        full = transformer_full(x, ctx, lookahead=lookahead, block_frames=7)
        assert np.abs(streamed - full).max() <= 1e-5
        assert np.array_equal(np.sort(cache.pos), np.arange(t - slots, t))

    @pytest.mark.parametrize("block", [1, 3, 110])
    def test_ring_has_lookback_plus_block_slots(self, model, block):
        ctx = model.encoder.ctx
        cache = KvCache(ctx, block)
        slots = LOOKBACK_FRAMES + block
        assert cache.k.shape == cache.v.shape == (len(ctx.layers), ctx.n_heads, slots,
                                                  ctx.head_dim)
        assert cache.pos.shape == (slots,)


class TestCopyFreeWindow:
    """A stream's attention reads its look-back window in place from the cache,
    and each step builds its masks once, not once per layer."""

    def test_streamed_keys_and_values_are_views_of_the_ring(self, model, monkeypatch):
        # 3-frame blocks well past the look-back, so the ring wraps several
        # times on the way and every layer attends over all of its slots
        ctx = model.encoder.ctx
        seen = []

        def spy(q, k, v, allowed, real=context._attend):
            seen.append((k, v))
            return real(q, k, v, allowed)

        monkeypatch.setattr(context, "_attend", spy)
        x = np.random.default_rng(8).normal(0, 1, (3 * LOOKBACK_FRAMES, ctx.d_model))
        x = x.astype(F32)
        cache = KvCache(ctx, 3)
        for start in range(0, x.shape[0], 3):
            seen.clear()
            transformer_step(x[start:start + 3], ctx, cache, lookahead=4)
            assert len(seen) == len(ctx.layers)
            for i, (k, v) in enumerate(seen):
                assert k.shape[1] == v.shape[1] == LOOKBACK_FRAMES + 3
                assert np.shares_memory(k, cache.k[i]) and np.shares_memory(v, cache.v[i])

    def test_band_mask_runs_at_most_twice_per_step(self, monkeypatch):
        cfg = replace(small_config(), n_layers=4)
        ctx = TransformerParams.from_store(random_init(0, cfg), "encoder.attn", cfg)
        calls = []

        def counting(*args, real=context.band_mask, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(context, "band_mask", counting)
        x = np.random.default_rng(9).normal(0, 1, (9, ctx.d_model)).astype(F32)
        cache = KvCache(ctx, 3)
        for start in range(0, 9, 3):
            calls.clear()
            transformer_step(x[start:start + 3], ctx, cache, lookahead=4)
            assert len(calls) <= 2


class TestVq:
    def test_nearest_matches_exhaustive_scan(self, model):
        rng = np.random.default_rng(5)
        cb = model.encoder.vq.codebook
        z = rng.normal(0, 1, (2000, cb.shape[1])).astype(F32)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        fast = vq_nearest(z, model.encoder.vq)
        cb64 = cb.astype(np.float64)
        for i in range(0, len(z), 97):
            d = np.sum((cb64 - z[i].astype(np.float64)) ** 2, axis=1)
            assert fast[i] == int(np.argmin(d))

    def test_projection_geometry_example(self, model):
        # codebook {e1, e2, ...}: latent (0.9, 0.2, 0...) -> index 0
        vq = model.encoder.vq
        cb = np.eye(8, dtype=F32)
        test_vq = VqParams(proj_down=vq.proj_down, proj_up=vq.proj_up, codebook=cb)
        z = np.array([0.9, 0.2, 0, 0, 0, 0, 0, 0], F32)
        assert vq_nearest(z[None, :], test_vq)[0] == 0

    def test_exact_code_zero_residual(self, model):
        vq = model.encoder.vq
        j = 137
        idx = vq_nearest(vq.codebook[j][None, :], vq)
        assert idx[0] == j

    def test_tie_breaks_toward_lowest_index(self):
        vq = VqParams(proj_down=None, proj_up=None,
                      codebook=np.array([[1, 0], [0, 1], [1, 0]], F32))
        assert vq_nearest(np.array([[1.0, 0.0]], F32), vq)[0] == 0
        # equidistant from both distinct codes
        assert vq_nearest(np.array([[0.5, 0.5]], F32), vq)[0] == 0

    def test_idempotence(self, model):
        frames = encode_frames(random_wave(6, 9600), model.encoder)
        out1, idx1 = vq_quantize(frames, model.encoder.vq)
        out2, idx2 = vq_quantize(out1, model.encoder.vq)
        assert np.array_equal(idx1, idx2)
        assert np.array_equal(out1, out2)

    def test_indices_in_range(self, model):
        frames = encode_frames(random_wave(7, 9600), model.encoder)
        _, idx = vq_quantize(frames, model.encoder.vq)
        assert idx.min() >= 0 and idx.max() < model.encoder.vq.codebook.shape[0]

    def test_unnormalized_codebook_rejected(self, cfg, store):
        bad = store_of({n: store.get(n) for n in store.names()
                        if n != "encoder.vq.codebook"})
        bad.put("encoder.vq.codebook", store.get("encoder.vq.codebook") * 2.0)
        with pytest.raises(ConfigError, match="unit-norm"):
            VqParams.from_store(bad, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_codebook_row_rejected(self, cfg, store, value):
        # a NaN norm is no farther than 1e-5 from 1 by `>`; it must not bind
        cb = store.get("encoder.vq.codebook").copy()
        cb[5, 0] = value
        bad = store_of({n: cb if n == "encoder.vq.codebook" else store.get(n)
                        for n in store.names()})
        with pytest.raises(ConfigError, match="unit-norm.*tvtsyn init-weights"):
            VqParams.from_store(bad, cfg)


class TestAttend:
    @pytest.mark.parametrize("t,s", [(1, 1), (3, 103), (40, 40)])
    def test_matches_float64_reference(self, t, s):
        from tvtsyn.context import _attend

        rng = np.random.default_rng(t + s)
        q = rng.normal(size=(t, 4, 16)).astype(F32)
        k = rng.normal(size=(s, 4, 16)).astype(F32)
        v = rng.normal(size=(s, 4, 16)).astype(F32)
        allowed = rng.random((t, s)) < 0.7
        allowed[:, -1] = True
        scores = np.einsum("thd,shd->hts", q.astype(np.float64), k.astype(np.float64)) / 4.0
        scores = np.where(allowed, scores, -np.inf)
        w = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        want = np.einsum("hts,shd->thd", w, v.astype(np.float64))
        got = _attend(q, k.transpose(1, 0, 2), v.transpose(1, 0, 2), allowed)
        assert got.shape == (t, 4, 16) and got.dtype == F32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
