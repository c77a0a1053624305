"""Benchmark workloads: seeded inputs, the measured loops and their output checks.

Every loop drives the public library API from one thread. Given a tracer, a
loop feeds each chunk (or utterance) a second time, right after the untraced
call, to a twin session with the entry points wrapped (see spans.py): traced
and untraced times are then taken side by side, and their outputs are
compared bitwise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import tvtsyn
from tvtsyn import model as model_mod

SR = tvtsyn.SAMPLE_RATE
HOP = tvtsyn.FRAME_HOP
STREAM_TOLERANCE = 1e-4      # streamed vs one-shot reference, max abs difference
VERIFY_SECONDS = 2.4         # verification stream: 120 frames, so the 100-frame KV rings wrap
STREAM_AUDIO_SECONDS = 30.0  # stream input; the loop wraps around it
OFFLINE_DISTINCT = 3         # distinct offline utterances, cycled so repeats are compared
# Tail percentiles, highest first. p99 is left out: on a small shared machine
# it follows how many scheduling stalls a run happened to catch, and moved by
# 20% between runs of the same code.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Workload:
    name: str
    chunk_ms: float = 0.0      # > 0: one session fed chunks; 0: offline synthesize
    utterance_s: float = 0.0

    @property
    def streaming(self) -> bool:
        return self.chunk_ms > 0

    @property
    def sessions(self) -> int:
        return 1 if self.streaming else 0

    @property
    def chunk_samples(self) -> int:
        return int(round(self.chunk_ms * SR / 1000.0))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("stream-full-60ms", chunk_ms=60.0),
    Workload("offline-full", utterance_s=2.0),
)}


# -- inputs ------------------------------------------------------------------

def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *keys])


def voiced_audio(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """Harmonic speech-like signal: gliding f0, decaying harmonics, syllable
    envelope and a little breath noise; peak 0.5."""
    n = int(round(seconds * SR))
    t = np.arange(n) / SR
    knots = rng.uniform(90.0, 240.0, size=int(seconds * 4) + 2)
    f0 = np.interp(t, np.linspace(0.0, seconds, knots.size), knots)
    phase = 2.0 * np.pi * np.cumsum(f0) / SR
    wave = np.zeros(n)
    for k in range(1, 9):
        wave += rng.uniform(0.3, 1.0) / k * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    rate = rng.uniform(3.0, 6.0)
    envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)))
    wave = wave * envelope + 0.02 * rng.standard_normal(n)
    return (0.5 * wave / np.max(np.abs(wave))).astype(np.float32)


@dataclass
class Inputs:
    speakers: list        # one for the stream, or one per offline utterance
    waves: list           # the stream's (looped) or one per offline utterance
    verify_wave: np.ndarray | None = None


def make_speakers(n: int, cfg: tvtsyn.ModelConfig, seed: int) -> list:
    """One random-normal global speaker vector per session or utterance."""
    return [_rng(seed, 1, i).standard_normal(cfg.global_dim).astype(np.float32)
            for i in range(n)]


def make_inputs(wl: Workload, cfg: tvtsyn.ModelConfig, seed: int) -> Inputs:
    """All of a run's inputs, a pure function of (workload, seed)."""
    if wl.streaming:
        n = 1
        seconds = STREAM_AUDIO_SECONDS
    else:
        n = OFFLINE_DISTINCT
        seconds = wl.utterance_s
    speakers = make_speakers(n, cfg, seed)
    waves = [voiced_audio(_rng(seed, 2, i), seconds) for i in range(n)]
    verify = None
    if wl.streaming:
        # the stream's own prefix, so the measured stream is checked against it
        n_verify = int(round(VERIFY_SECONDS * 1000.0 / wl.chunk_ms)) * wl.chunk_samples
        verify = waves[0][:n_verify]
    return Inputs(speakers, waves, verify)


def chunk_of(wave: np.ndarray, k: int, c: int) -> np.ndarray:
    n = wave.size // c
    k %= n
    return wave[k * c:(k + 1) * c]


# -- checks ------------------------------------------------------------------

@dataclass
class Checks:
    """Operations attempted and failed; a failed check names itself."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


# -- statistics --------------------------------------------------------------

def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least 10 samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def summarize_latency(lat_ms) -> dict:
    """Median and tail. With fewer than 20 samples no percentile at or above
    the median has 10 samples beyond it, and the tail falls back to the median."""
    lat = np.asarray(lat_ms, dtype=np.float64)
    p = tail_percentile(lat.size) or 50.0
    return {"p50": float(np.median(lat)), "tail": float(np.percentile(lat, p)),
            "tail_label": f"p{p:g}", "samples": int(lat.size)}


# -- streaming loop ------------------------------------------------------------

@dataclass
class StreamRun:
    outputs: list          # per-chunk outputs, warm-up included
    latency_ms: list       # measured chunks only, as below
    feed_ms: list          # feed wall time
    hold_ms: list
    deadline_miss: int
    audio_s: list          # audio produced per chunk
    wall_s: list           # chunk start to next chunk start
    state_bytes: int
    traced_feed_ms: list   # twin session, measured chunks (empty untraced)


def warmup_chunks(wl: Workload, cfg: tvtsyn.ModelConfig) -> int:
    """Chunks until every KV ring holds its full look-back window."""
    frames = wl.chunk_samples // HOP
    return max(3, math.ceil(cfg.lookback_frames / frames))


def run_stream(model, wl: Workload, inputs: Inputs, checks: Checks, *, warmup: int,
               seconds: float, tracer=None) -> StreamRun:
    """Closed loop: each chunk is due when the previous feed returned.

    Runs `warmup` unmeasured chunks, then measured chunks until `seconds` have
    passed. With a tracer, each chunk is fed to the twin session right after
    the untraced feed returned, so the twin adds no wait to the untraced
    latency; the throughput in a traced run's report then includes it.
    """
    scfg = tvtsyn.StreamConfig(chunk_ms=wl.chunk_ms)
    wave, speaker = inputs.waves[0], inputs.speakers[0]
    session = tvtsyn.open_session(model, scfg, speaker)
    twin = None
    if tracer is not None:
        with tracer.installed():
            tracer.unit = ("open", 0, 0, True)
            twin = tvtsyn.open_session(model, scfg, speaker)
    c = wl.chunk_samples
    outputs, latency, feed_ms, hold_ms, audio_s, start, traced_ms = [], [], [], [], [], [], []
    misses = 0
    k = 0
    while True:
        due = time.perf_counter()
        measured = k >= warmup
        if measured:
            start.append(due)
            if k > warmup and due - start[0] >= seconds:
                break
        chunk = chunk_of(wave, k, c)
        t0 = time.perf_counter()
        out = session.feed(chunk)
        t1 = time.perf_counter()
        outputs.append(out)
        checks.record(_finite(out) and out.dtype == np.float32 and out.ndim == 1,
                      f"chunk {k}: non-finite or malformed output")
        if measured:
            hold = 1000.0 * (session.samples_in - session.samples_out) / SR
            wait_ms = 1000.0 * (t1 - due)
            latency.append(wl.chunk_ms + hold + wait_ms)
            feed_ms.append(1000.0 * (t1 - t0))
            hold_ms.append(hold)
            misses += wait_ms > wl.chunk_ms
            audio_s.append(out.size / SR)
        if twin is not None:
            with tracer.installed():
                tracer.unit = ("chunk", 0, k, measured)
                t0 = time.perf_counter()
                twin_out = twin.feed(chunk)
                t1 = time.perf_counter()
            checks.record(np.array_equal(twin_out, out), f"chunk {k}: traced output differs")
            if measured:
                traced_ms.append(1000.0 * (t1 - t0))
        k += 1
    return StreamRun(outputs=outputs, latency_ms=latency, feed_ms=feed_ms, hold_ms=hold_ms,
                     deadline_miss=misses, audio_s=audio_s, wall_s=list(np.diff(start)),
                     state_bytes=session.state_nbytes(), traced_feed_ms=traced_ms)


def _throughput(audio_s, wall_s) -> float:
    """Aggregate audio produced over the wall-clock time of the measured
    chunks or utterances, so that periodic slow calls and stalls count."""
    return float(np.sum(audio_s) / np.sum(wall_s))


def stream_metrics(wl: Workload, run: StreamRun) -> dict:
    """rtf: median feed time over the chunk duration."""
    return {
        "latency": summarize_latency(run.latency_ms),
        "rtf": float(np.median(run.feed_ms)) / wl.chunk_ms,
        "audio_s_per_s": _throughput(run.audio_s, run.wall_s),
        "feed_ms_p50": float(np.median(run.feed_ms)),
        "hold_ms": float(np.median(run.hold_ms)),
        "deadline_miss_share": run.deadline_miss / len(run.latency_ms),
        "state_kb_per_session": run.state_bytes / 1024.0,
        "chunks": len(run.latency_ms),
    }


def verify_stream(model, wl: Workload, inputs: Inputs, checks: Checks) -> list:
    """The stream's prefix, fed alone and flushed, against the one-shot
    reference. Returns its per-chunk outputs (before the flush)."""
    scfg = tvtsyn.StreamConfig(chunk_ms=wl.chunk_ms)
    wave = inputs.verify_wave
    c = wl.chunk_samples
    session = tvtsyn.open_session(model, scfg, inputs.speakers[0])
    pieces = [session.feed(wave[k * c:(k + 1) * c]) for k in range(wave.size // c)]
    streamed = np.concatenate(pieces + [session.flush()])
    reference = tvtsyn.synthesize(model, wave, inputs.speakers[0],
                                  block_frames=scfg.chunk_frames)
    ok = streamed.shape == reference.shape == wave.shape and _finite(streamed)
    diff = float(np.max(np.abs(streamed - reference))) if ok else math.inf
    checks.record(ok and diff <= STREAM_TOLERANCE,
                  f"verification stream: length {streamed.size} vs {wave.size}, "
                  f"max diff {diff:.3g} (tolerance {STREAM_TOLERANCE:g})")
    return pieces


def check_measured_prefix(run: StreamRun, verify_pieces: list, checks: Checks):
    """The measured session's first chunks must equal the verification
    stream's, bitwise: the same input fed the same way."""
    n = min(len(verify_pieces), len(run.outputs))
    same = all(np.array_equal(a, b) for a, b in zip(verify_pieces[:n], run.outputs[:n]))
    checks.record(n > 0 and same, "measured stream differs from the verification stream")


# -- offline loop ------------------------------------------------------------

@dataclass
class OfflineRun:
    outputs: list          # every utterance output, warm-up included
    latency_ms: list       # measured utterances only, as below
    audio_s: list          # per utterance
    wall_s: list           # per utterance: its start to the next one's start
    traced_ms: list        # traced twin calls, measured utterances (empty untraced)


def run_offline(model, inputs: Inputs, checks: Checks, *, warmup: int, seconds: float,
                tracer=None) -> OfflineRun:
    """Closed loop of one-shot `synthesize` calls over the cycled utterances.

    Every output of an utterance index already seen must be bitwise identical
    to the first one. With a tracer, each call is repeated traced right after.
    """
    refs = {}
    outputs, latency, audio_s, start, traced_ms = [], [], [], [], []
    j = 0
    while True:
        measured = j >= warmup
        if measured:
            start.append(time.perf_counter())
            if j > warmup and start[-1] - start[0] >= seconds:
                break
        u = j % len(inputs.waves)
        wave = inputs.waves[u]
        t0 = time.perf_counter()
        out = model_mod.synthesize(model, wave, inputs.speakers[u])
        t1 = time.perf_counter()
        outputs.append(out)
        ok = out.shape == wave.shape and out.dtype == np.float32 and _finite(out)
        if ok and u in refs:
            ok = np.array_equal(out, refs[u])
        elif ok:
            refs[u] = out
        checks.record(ok, f"utterance {j} (index {u}): wrong length, non-finite, "
                          "or not bitwise equal to an earlier run")
        if measured:
            latency.append(1000.0 * (t1 - t0))
            audio_s.append(wave.size / SR)
        if tracer is not None:
            with tracer.installed():
                tracer.unit = ("utterance", u, j, measured)
                t0 = time.perf_counter()
                twin = model_mod.synthesize(model, wave, inputs.speakers[u])
                t1 = time.perf_counter()
            checks.record(np.array_equal(twin, out), f"utterance {j}: traced output differs")
            if measured:
                traced_ms.append(1000.0 * (t1 - t0))
        j += 1
    return OfflineRun(outputs=outputs, latency_ms=latency, audio_s=audio_s,
                      wall_s=list(np.diff(start)), traced_ms=traced_ms)


def offline_metrics(run: OfflineRun) -> dict:
    """rtf: median synthesize time over utterance duration."""
    return {
        "latency": summarize_latency(run.latency_ms),
        "rtf": float(np.median(np.asarray(run.latency_ms) / 1000.0 / run.audio_s)),
        "audio_s_per_s": _throughput(run.audio_s, run.wall_s),
        "synth_ms_p50": float(np.median(run.latency_ms)),
        "utterances": len(run.latency_ms),
    }
