"""The latency/RTF benchmark and the causality probes.

Latency follows the streaming definition: chunk duration plus per-chunk
processing time, averaged per utterance and then across utterances. RTF is
processing time over chunk duration, averaged the same way.
"""

from __future__ import annotations

import numpy as np

from .config import FRAME_HOP, MAX_LOOKAHEAD
from .errors import ConfigError, InputError
from .kernels import F32
from .model import as_wave
from .streaming import stream_file

WARMUP_UTTERANCES = 10
MEASURED_UTTERANCES = 100
PROBE_MIN_FRAMES = 16  # each probe trial draws a wave of 16-40 frames
PROBE_MAX_FRAMES = 40


def latency_report(feed_ms, chunk_ms, cycled) -> dict:
    """The bench report from per-utterance lists of per-chunk `feed` times in
    milliseconds. The first WARMUP_UTTERANCES are timed like the rest, then
    dropped; `cycled` flags utterances reused to fill the run."""
    per_utt = [{"latency_ms": float(chunk_ms + np.mean(ms)),
                "rtf": float((np.asarray(ms) / chunk_ms).mean())}
               for ms in feed_ms[WARMUP_UTTERANCES:]]
    rtf_mean = float(np.mean([u["rtf"] for u in per_utt]))
    return {
        "chunk_ms": float(chunk_ms),
        "latency_ms_mean": float(np.mean([u["latency_ms"] for u in per_utt])),
        "rtf_mean": rtf_mean,
        "utterances": per_utt,
        "warmup_count": WARMUP_UTTERANCES,
        "measured_count": len(per_utt),
        "cycled": cycled,
        "realtime": rtf_mean < 1.0,
    }


def latency_bench(model, stream_cfg, speaker, utterances) -> dict:
    """Stream WARMUP_UTTERANCES + MEASURED_UTTERANCES utterances, each cut to
    whole chunks, through fresh sessions one after another, timing `feed`
    only, and report the times.

    Each utterance must be a 1-D array of mono samples at least one chunk
    long (InputError otherwise). When fewer utterances are supplied, the
    list is reused cyclically and the report is flagged.
    """
    utterances = [as_wave(u, "utterance") for u in utterances]
    if not utterances:
        raise InputError("latency_bench needs at least one utterance")
    c = stream_cfg.chunk_samples
    if min(u.size for u in utterances) < c:
        raise InputError(f"utterance shorter than one {stream_cfg.chunk_ms} ms chunk")
    needed = WARMUP_UTTERANCES + MEASURED_UTTERANCES
    feed_ms = []
    for i in range(needed):
        wave = utterances[i % len(utterances)]
        feed_ms.append(stream_file(model, stream_cfg, speaker, wave[:wave.size // c * c])[1])
    return latency_report(feed_ms, stream_cfg.chunk_ms, len(utterances) < needed)


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
