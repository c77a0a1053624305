"""The latency/RTF benchmark and the causality probes.

Latency follows the streaming definition: chunk duration plus per-chunk
processing time, averaged per utterance and then across utterances. RTF is
processing time over chunk duration, averaged the same way.
"""

from __future__ import annotations

import time

import numpy as np

from .config import FRAME_HOP, MAX_LOOKAHEAD
from .errors import ConfigError, InputError
from .kernels import F32
from .model import as_wave

WARMUP_UTTERANCES = 10
MEASURED_UTTERANCES = 100
PROBE_MIN_FRAMES = 16  # each probe trial draws a wave of 16-40 frames
PROBE_MAX_FRAMES = 40


def _time_utterance(session_factory, wave, chunk_ms, chunk_samples, clock):
    n_chunks = wave.size // chunk_samples
    if n_chunks < 1:
        raise InputError(f"utterance shorter than one {chunk_ms} ms chunk")
    session = session_factory()
    proc_ms = np.empty(n_chunks)
    for k in range(n_chunks):
        chunk = wave[k * chunk_samples:(k + 1) * chunk_samples]
        t0 = clock()
        session.feed(chunk)
        t1 = clock()
        proc_ms[k] = (t1 - t0) * 1000.0
    return {
        "latency_ms": float(chunk_ms + proc_ms.mean()),
        "rtf": float((proc_ms / chunk_ms).mean()),
    }


def latency_bench(session_factory, utterances, chunk_ms, *,
                  warmup=WARMUP_UTTERANCES, measured=MEASURED_UTTERANCES,
                  clock=time.perf_counter) -> dict:
    """Feed utterances through fresh sessions, timing feed() only.

    Each utterance must be a 1-D array of mono samples (InputError
    otherwise). The first `warmup` utterances are excluded from statistics. When fewer
    than warmup + measured utterances are supplied, the list is reused
    cyclically and the report is flagged. `clock` is injectable so the
    report arithmetic can be verified with a mocked timer. Sessions run one
    after another.
    """
    utterances = [as_wave(u, "utterance") for u in utterances]
    if not utterances:
        raise InputError("latency_bench needs at least one utterance")
    needed = warmup + measured
    cycled = len(utterances) < needed
    chunk_samples = int(round(chunk_ms * 16.0))
    waves = [utterances[i % len(utterances)] for i in range(needed)]

    # the warm-up utterances are timed like the rest, then dropped
    per_utt = [_time_utterance(session_factory, wave, chunk_ms, chunk_samples, clock)
               for wave in waves][warmup:]

    latency_mean = float(np.mean([u["latency_ms"] for u in per_utt]))
    rtf_mean = float(np.mean([u["rtf"] for u in per_utt]))
    return {
        "chunk_ms": float(chunk_ms),
        "latency_ms_mean": latency_mean,
        "rtf_mean": rtf_mean,
        "utterances": per_utt,
        "warmup_count": warmup,
        "measured_count": len(per_utt),
        "cycled": cycled,
        "realtime": rtf_mean < 1.0,
    }


def check_probe(lookahead_frames, trials):
    """The probes' settings; checked before a probe synthesizes anything."""
    if not 0 <= int(lookahead_frames) <= MAX_LOOKAHEAD:
        raise ConfigError(
            f"lookahead_frames must be in [0, {MAX_LOOKAHEAD}], got {lookahead_frames}")
    if int(trials) < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")


def _probe_trials(synth_fn, lookahead_frames, trials, seed, first_cut, lead):
    """The probes' trial loop. Per trial: draw a wave of PROBE_MIN_FRAMES to
    PROBE_MAX_FRAMES frames and a cut frame t in [first_cut, frames -
    lookahead - 1), redraw every input sample after sample 320*(t + lead), and
    yield t with both outputs up to sample 320*t inclusive."""
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    for _ in range(int(trials)):
        n_frames = int(rng.integers(PROBE_MIN_FRAMES, PROBE_MAX_FRAMES + 1))
        wave = rng.uniform(-0.5, 0.5, size=n_frames * FRAME_HOP).astype(F32)
        t = int(rng.integers(first_cut, n_frames - lookahead_frames - 1))
        start = FRAME_HOP * (t + lead) + 1
        perturbed = wave.copy()
        perturbed[start:] = rng.uniform(-0.5, 0.5, size=wave.size - start).astype(F32)
        guard = FRAME_HOP * t + 1
        yield t, synth_fn(wave)[:guard], synth_fn(perturbed)[:guard]


def causality_probe(synth_fn, lookahead_frames, trials, seed) -> dict:
    """Verify that samples after the allowed horizon never reach earlier output.

    Per trial: draw a random wave and a cut frame t, perturb input samples
    strictly after sample 320*(t + lookahead), and require output samples
    <= 320*t to be exactly unchanged. Violations are listed in the report.
    """
    check_probe(lookahead_frames, trials)
    violations = []
    for trial, (t, base, poked) in enumerate(
            _probe_trials(synth_fn, lookahead_frames, trials, seed, 1, lookahead_frames)):
        diff = np.abs(base.astype(np.float64) - poked.astype(np.float64))
        max_diff = float(diff.max()) if diff.size else 0.0
        if max_diff != 0.0:
            violations.append({"trial": trial, "cut_frame": t, "max_diff": max_diff})
    return {
        "lookahead_frames": int(lookahead_frames),
        "trials": int(trials),
        "violations": violations,
        "clean": not violations,
    }


def probe_influence(synth_fn, lookahead_frames, trials, seed) -> int:
    """Positive control: perturb from one frame after the cut frame t and count
    trials where protected output actually changed (expected > 0 with lookahead > 0)."""
    check_probe(lookahead_frames, trials)
    return sum(bool(np.any(base != poked)) for _, base, poked in
               _probe_trials(synth_fn, lookahead_frames, trials, seed,
                             lookahead_frames + 1, 1))
