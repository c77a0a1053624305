"""The latency/RTF benchmark and the causality probes.

Latency follows the streaming definition: chunk duration plus per-chunk
processing time, averaged per utterance and then across utterances. RTF is
processing time over chunk duration, averaged the same way.
"""

from __future__ import annotations

import numpy as np

from .config import FRAME_HOP, check_int, check_lookahead
from .errors import InputError
from .kernels import F32
from .model import as_wave
from .streaming import stream_file

WARMUP_UTTERANCES = 10
MEASURED_UTTERANCES = 100
PROBE_MIN_FRAMES = 16  # each probe trial draws a wave of 16-40 frames
PROBE_MAX_FRAMES = 40
# the most trials a probe runs: each costs 3 syntheses of up to 0.8 s of
# audio, so more would run for hours on the full config (a typo, not a probe)
PROBE_MAX_TRIALS = 10_000
PROBE_CONTROL_FRAMES = 3  # causality_probe's control redraws from this many frames before the cut


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
    try:
        items = iter(utterances)
    except TypeError as exc:
        raise InputError(f"utterances must be a list of waves, got {utterances!r}") from exc
    utterances = [as_wave(u, "utterance") for u in items]
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


def check_probe(lookahead_frames, trials, seed):
    """The probes' settings; checked before a probe synthesizes anything."""
    check_lookahead(lookahead_frames, "lookahead_frames")
    check_int(trials, "trials", 1, PROBE_MAX_TRIALS)
    check_int(seed, "seed", 0, None)  # PCG64 takes only seeds >= 0


def _probe_trials(synth_fn, lookahead_frames, trials, seed, first_cut, leads):
    """The probes' trial loop. Per trial: draw a wave of PROBE_MIN_FRAMES to
    PROBE_MAX_FRAMES frames and a cut frame t in [first_cut, frames -
    lookahead - 1); then, for each lead in `leads`, redraw every input sample
    after sample 320*(t + lead). Yield t and the outputs up to sample 320*t
    inclusive: the wave's, then each redraw's."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(trials):
        n_frames = int(rng.integers(PROBE_MIN_FRAMES, PROBE_MAX_FRAMES + 1))
        wave = rng.uniform(-0.5, 0.5, size=n_frames * FRAME_HOP).astype(F32)
        t = int(rng.integers(first_cut, n_frames - lookahead_frames - 1))
        guard = FRAME_HOP * t + 1
        outs = [synth_fn(wave)[:guard]]
        for lead in leads:
            start = FRAME_HOP * (t + lead) + 1
            perturbed = wave.copy()
            perturbed[start:] = rng.uniform(-0.5, 0.5, size=wave.size - start).astype(F32)
            outs.append(synth_fn(perturbed)[:guard])
        yield t, outs


def causality_probe(synth_fn, lookahead_frames, trials, seed) -> dict:
    """Verify that samples after the allowed horizon never reach earlier output.

    Per trial: draw a random wave and a cut frame t, perturb input samples
    strictly after sample 320*(t + lookahead), and require output samples
    <= 320*t to be exactly unchanged. Violations are listed in the report.

    The same trial also redraws the input after sample 320*(t -
    PROBE_CONTROL_FRAMES), input that output up to sample 320*t depends on
    at any lookahead, and `influenced` counts the trials where that output
    changed: 0 means the probe cannot see a change, and so would pass any
    model.
    """
    check_probe(lookahead_frames, trials, seed)
    violations = []
    influenced = 0
    for trial, (t, (base, poked, control)) in enumerate(_probe_trials(
            synth_fn, lookahead_frames, trials, seed, PROBE_CONTROL_FRAMES,
            (lookahead_frames, -PROBE_CONTROL_FRAMES))):
        diff = np.abs(base.astype(np.float64) - poked.astype(np.float64))
        max_diff = float(diff.max()) if diff.size else 0.0
        if max_diff != 0.0:
            violations.append({"trial": trial, "cut_frame": t, "max_diff": max_diff})
        influenced += bool(np.any(control != base))
    return {
        "lookahead_frames": int(lookahead_frames),
        "trials": int(trials),
        "violations": violations,
        "clean": not violations,
        "influenced": influenced,
    }


def probe_influence(synth_fn, lookahead_frames, trials, seed) -> int:
    """Positive control for the look-ahead: redraw the input after sample
    320*(t + 1), inside the horizon at lookahead >= 2 (at lookahead 1 it is
    causality_probe's own redraw), and count the trials where output up to
    sample 320*t changed. With random weights few do (45-55 of 300 at
    lookahead 4 on the small config): this shows that look-ahead input is
    used, and causality_probe's `influenced` is the blind-probe check."""
    check_probe(lookahead_frames, trials, seed)
    return sum(bool(np.any(base != poked)) for _, (base, poked) in _probe_trials(
        synth_fn, lookahead_frames, trials, seed, lookahead_frames + 1, (1,)))
