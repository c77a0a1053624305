"""Acceptance suite: one test per release criterion, each printing a PASS line
with the measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.

Criteria use the reduced-width config (same topology, strides, and code paths)
wherever model widths are not the quantity under test; the parameter-budget
criterion builds the full-size config.
"""

import time

import numpy as np
import pytest

from conftest import random_wave
from tvtsyn.config import StreamConfig
from tvtsyn.errors import ConfigError
from tvtsyn.kernels import l2_normalize_rows
from tvtsyn.metrics import causality_probe, latency_bench, latency_report, probe_influence
from tvtsyn.model import random_init, synthesize
from tvtsyn.streaming import open_session, stream_file
from tvtsyn.timbre import build_gtm, project_global, slerp, tvt_sequence
from tvtsyn.encoder import encode_frames, vq_nearest, vq_quantize

F32 = np.float32

CHUNK_SIZES_MS = (20, 40, 60, 100, 140)


def _chord_angle(u, v):
    u = np.atleast_2d(u).astype(np.float64)
    v = np.atleast_2d(v).astype(np.float64)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return 2.0 * np.arcsin(np.clip(np.linalg.norm(u - v, axis=-1) / 2.0, 0.0, 1.0))


def test_criterion_1_streaming_equals_offline(model, speaker):
    """Streamed chunks equal the single-pass mask-equivalent computation."""
    t0 = time.time()
    worst = 0.0
    runs = 0
    for chunk_ms in CHUNK_SIZES_MS:
        sc = StreamConfig(chunk_ms=chunk_ms)
        for rep in range(4):
            wave = random_wave(1000 + runs, 48000)  # 3 s
            wave = wave[:(wave.size // sc.chunk_samples) * sc.chunk_samples]
            streamed, _ = stream_file(model, sc, speaker, wave)
            offline = synthesize(model, wave, speaker, block_frames=sc.chunk_frames)
            assert streamed.shape == offline.shape
            worst = max(worst, float(np.abs(streamed - offline).max()))
            runs += 1
    elapsed = time.time() - t0
    assert runs == 20
    assert worst <= 1e-4
    assert elapsed < 120.0
    print(f"\nACCEPT 1 PASS streaming==offline: {runs} runs over "
          f"{CHUNK_SIZES_MS} ms, max abs diff {worst:.2e} <= 1e-4, {elapsed:.1f}s")


def test_criterion_2_causality(model, speaker):
    """Zero violations at lookahead 0 and 4; mutated mask is caught."""
    for lookahead in (0, 4):
        rep = causality_probe(
            lambda w: synthesize(model, w, speaker, lookahead=lookahead),
            lookahead, trials=100, seed=17)
        assert rep["trials"] == 100
        assert rep["violations"] == [], rep["violations"][:3]
    broken = lambda w: synthesize(model, w, speaker, lookahead=500)
    mutated = causality_probe(broken, 0, trials=20, seed=17)
    assert len(mutated["violations"]) >= 1
    influenced = probe_influence(
        lambda w: synthesize(model, w, speaker, lookahead=4), 4, trials=15, seed=5)
    assert influenced >= 1
    print(f"\nACCEPT 2 PASS causality: 0 violations in 100 trials at lookahead 0 "
          f"and 4; mask-removal mutation caught ({len(mutated['violations'])}/20), "
          f"in-horizon influence live ({influenced}/15)")


def test_criterion_3_slerp_geometry():
    """Unit-sphere closure, exact endpoints, angular proportionality."""
    rng = np.random.default_rng(29)
    a = l2_normalize_rows(rng.normal(0, 1, (10000, 24)).astype(F32))
    b = l2_normalize_rows(rng.normal(0, 1, (10000, 24)).astype(F32))
    alpha = rng.uniform(0, 1, 10000).astype(F32)
    s = slerp(a, b, alpha)
    norm_err = float(np.abs(np.linalg.norm(s.astype(np.float64), axis=1) - 1.0).max())
    assert norm_err <= 1e-6
    assert np.array_equal(slerp(a, b, 0.0), a)
    assert np.array_equal(slerp(a, b, 1.0), b)
    angle_err = float(np.abs(_chord_angle(a, s)
                             - alpha.astype(np.float64) * _chord_angle(a, b)).max())
    assert angle_err <= 1e-5
    # degenerate fallbacks: near-parallel and near-antipodal
    u = np.array([1.0, 0.0, 0.0], F32)
    near = slerp(u, np.array([1.0, 2e-7, 0.0], F32), 0.5)
    anti = slerp(u, -u, 0.5)
    for out in (near, anti):
        assert abs(np.linalg.norm(out.astype(np.float64)) - 1.0) <= 1e-6
    assert abs(_chord_angle(u, near)[0] - 0.5 * _chord_angle(
        u, np.array([1.0, 2e-7, 0.0], F32))[0]) <= 1e-5
    assert abs(_chord_angle(u, anti)[0] - np.pi / 2) <= 1e-4
    print(f"\nACCEPT 3 PASS slerp geometry: 10^4 pairs, norm err {norm_err:.1e} "
          f"<= 1e-6, endpoints exact, angle err {angle_err:.1e} <= 1e-5, "
          f"degenerate fallbacks covered")


def test_criterion_4_vq_oracle(model):
    """Nearest-code indices match exhaustive scan on 10^4 latents; ties low."""
    rng = np.random.default_rng(31)
    cb = model.encoder.vq.codebook  # 4096 x 8, unit rows
    assert cb.shape == (4096, 8)
    z = l2_normalize_rows(rng.normal(0, 1, (10000, 8)).astype(F32))
    fast = vq_nearest(z, cb)
    cb64 = cb.astype(np.float64)
    mismatches = 0
    for i in range(z.shape[0]):
        d = np.sum((cb64 - z[i].astype(np.float64)) ** 2, axis=1)
        if int(np.argmin(d)) != fast[i]:
            mismatches += 1
    assert mismatches == 0
    tie_cb = np.array([[1, 0], [0, 1], [1, 0]], F32)
    assert vq_nearest(np.array([[1.0, 0.0]], F32), tie_cb)[0] == 0
    assert vq_nearest(np.array([[0.5, 0.5]], F32), tie_cb)[0] == 0
    print("\nACCEPT 4 PASS vq: 10^4 latents, exhaustive-scan oracle exact "
          "index match; ties break to lowest index")


def test_criterion_5_rates_and_shapes(model, speaker):
    """Hop-320 rates: 3 s -> 150 frames -> 48000 samples; chunk alignment."""
    wave = random_wave(37, 48000)
    frames = encode_frames(wave, model.encoder)
    assert frames.shape[0] == 150
    out = synthesize(model, wave, speaker)
    assert out.shape == (48000,)
    assert StreamConfig(chunk_ms=60).chunk_frames == 3
    assert StreamConfig(chunk_ms=100).chunk_frames == 5
    with pytest.raises(ConfigError):
        StreamConfig(chunk_ms=50)
    with pytest.raises(ConfigError):
        StreamConfig(chunk_ms=33.3)
    print("\nACCEPT 5 PASS rates and shapes: 3 s -> 150 frames -> 48000 samples; "
          "60 ms -> 3 frames, 100 ms -> 5 frames; misaligned sizes rejected")


def test_criterion_6_parameter_budget(full_budget):
    """Full-config init lands the published parameter counts within 15%."""
    enc_dev = full_budget["encoder"] / 37.5e6 - 1.0
    dec_dev = full_budget["decoder"] / 48.7e6 - 1.0
    assert abs(enc_dev) <= 0.15
    assert abs(dec_dev) <= 0.15
    print(f"\nACCEPT 6 PASS parameter budget: encoder "
          f"{full_budget['encoder'] / 1e6:.2f}M vs 37.5M ({enc_dev:+.1%}), "
          f"decoder-side {full_budget['decoder'] / 1e6:.2f}M vs 48.7M ({dec_dev:+.1%})")


def test_criterion_7_latency_methodology(model, speaker):
    """The report reproduces the published arithmetic from fixed chunk times;
    the real run completes 110 synthetic utterances and flags realtime status."""
    rep = latency_report([[18.51] * 5] * 110, 60.0, cycled=True)
    assert rep["latency_ms_mean"] == 78.51
    assert rep["rtf_mean"] == pytest.approx(18.51 / 60.0, abs=1e-12)
    assert int(rep["rtf_mean"] * 1000) / 1000 == 0.308

    sc = StreamConfig(chunk_ms=60)
    real_utts = [random_wave(40 + i, 960 * 5) for i in range(110)]
    real = latency_bench(model, sc, speaker, real_utts)
    assert real["measured_count"] == 100
    assert real["cycled"] is False
    assert isinstance(real["realtime"], bool)
    print(f"\nACCEPT 7 PASS latency methodology: fixed 18.51 ms -> latency "
          f"78.51 ms, RTF {rep['rtf_mean']:.5f} (published table value 0.308); real clock: "
          f"latency {real['latency_ms_mean']:.2f} ms, RTF {real['rtf_mean']:.3f}, "
          f"realtime={real['realtime']} over 110 utterances")


def test_criterion_8_tvt_behavior(model, speaker):
    """Forced alpha=0 freezes the stream at the projected global; with live
    gates the top-1 facet varies across frames on >= 8 of 10 utterances."""
    gtm = build_gtm(speaker, model.tvt)
    wave = random_wave(51, 9600)
    frames = encode_frames(wave, model.encoder)
    content, _ = vq_quantize(frames, model.encoder.vq)
    s, _, _ = tvt_sequence(content, speaker, gtm, model.tvt, force_alpha=0.0)
    g_hat = (project_global(speaker, model.tvt) * model.tvt.scale[0]).astype(F32)
    assert np.array_equal(s, np.broadcast_to(g_hat, s.shape))

    rng = np.random.default_rng(53)
    varied = 0
    for i in range(10):
        g_i = rng.normal(0, 1, model.cfg.global_dim).astype(F32)
        w_i = random_wave(60 + i, 16000)
        f_i = encode_frames(w_i, model.encoder)
        c_i, _ = vq_quantize(f_i, model.encoder.vq)
        _, weights, _ = tvt_sequence(c_i, g_i, build_gtm(g_i, model.tvt), model.tvt)
        if len(np.unique(np.argmax(weights, axis=1))) > 1:
            varied += 1
    assert varied >= 8
    print(f"\nACCEPT 8 PASS tvt behavior: alpha=0 stream constant and equal to "
          f"scaled projected global (exact); top-1 facet varies on {varied}/10 "
          f"random utterances")


def test_criterion_9_determinism_and_io(cfg, model, speaker, tmp_path):
    """Bitwise-identical weights, containers, WAVs, and session audio."""
    from tvtsyn import wavio
    from tvtsyn.weights import save_weights, load_weights

    a = random_init(7, cfg)
    b = random_init(7, cfg)
    assert a.to_bytes() == b.to_bytes()

    p1, p2 = tmp_path / "a.tvtw", tmp_path / "b.tvtw"
    save_weights(a, p1)
    save_weights(load_weights(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    w1, w2 = tmp_path / "a.wav", tmp_path / "b.wav"
    wavio.write_wav(w1, random_wave(71, 12800, amp=1.1))
    wavio.write_wav(w2, wavio.read_wav(w1))
    assert w1.read_bytes() == w2.read_bytes()

    sc = StreamConfig(chunk_ms=60)
    wave = random_wave(73, 960 * 8)
    outs = []
    for _ in range(2):
        s = open_session(model, sc, speaker)
        pieces = [s.feed(wave[k * 960:(k + 1) * 960]) for k in range(8)]
        pieces.append(s.flush())
        outs.append(np.concatenate(pieces))
    assert np.array_equal(outs[0], outs[1])
    print("\nACCEPT 9 PASS determinism & I/O: same-seed weights bitwise equal; "
          "TVTW and WAV round trips bit-identical; twin sessions produce "
          "bitwise-identical audio")
