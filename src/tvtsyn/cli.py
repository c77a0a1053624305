"""Command-line interface.

Subcommands: init-weights, synth, stream, bench, probe, dump-tvt.
Exit codes: 0 success, 1 input error, 2 configuration error, 3 internal
invariant violation (including causality-probe failures).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import (MAX_LOOKAHEAD, MAX_SPAN_SECONDS, SAMPLE_RATE, ModelConfig, StreamConfig,
                     check_int, check_real, load_config, span_frames)
from .errors import ConfigError, InputError, InternalError, TvtSynError
from .kernels import F32
from .metrics import (MEASURED_UTTERANCES, WARMUP_UTTERANCES, causality_probe, check_probe,
                      latency_bench)
from .model import TvtSynModel, content_and_timbre, random_init, synthesize
from .streaming import stream_file
from .weights import load_weights, parameter_budget, save_weights
from . import wavio

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _read_speaker(path, expected_dim):
    n_bytes = 4 * expected_dim
    try:
        with open(path, "rb") as f:
            raw = f.read(n_bytes + 1)  # one byte more tells a longer file apart
    except OSError as exc:
        raise InputError(f"cannot read speaker file {path}: {exc}") from exc
    if len(raw) != n_bytes:
        held = f"more than {n_bytes}" if len(raw) > n_bytes else len(raw)
        raise InputError(
            f"speaker file {path} holds {held} bytes, expected {expected_dim} "
            f"float32 values ({n_bytes} bytes)")
    return np.frombuffer(raw, dtype="<f4").astype(F32)


def _model_config(path) -> ModelConfig:
    if path is None:
        return ModelConfig()
    try:
        return load_config(path)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc


def _load(args) -> TvtSynModel:
    cfg = _model_config(args.config)
    try:
        store = load_weights(args.weights)
    except OSError as exc:
        raise InputError(f"cannot read weight file {args.weights}: {exc}") from exc
    return TvtSynModel.from_store(store, cfg)


@contextmanager
def _writing(path):
    """Report a failed write of an output file as an input error."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _add_model_args(p):
    p.add_argument("--weights", required=True, help="TVTW weight file")
    p.add_argument("--config", default=None, help="key=value model config (default: full config)")


def _add_speaker_arg(p):
    p.add_argument("--speaker", required=True,
                   help="raw little-endian float32 speaker embedding file")


def cmd_init_weights(args):
    check_int(args.seed, "--seed", 0, None)  # PCG64 takes only seeds >= 0
    cfg = _model_config(args.config)
    try:
        store = random_init(args.seed, cfg)
    except MemoryError as exc:
        raise ConfigError(f"config {args.config or '(full default)'} is too large "
                          f"to allocate: {exc}") from exc
    with _writing(args.out):
        save_weights(store, args.out)
    budget = parameter_budget(store)
    print(f"wrote {args.out}: {len(store)} tensors, "
          f"encoder {budget['encoder']:,} / decoder {budget['decoder']:,} "
          f"/ total {budget['total']:,} parameters")
    return EXIT_OK


def cmd_synth(args):
    block = None if args.block_ms is None else span_frames(args.block_ms, "--block-ms")
    wave = wavio.read_wav(args.infile, MAX_SPAN_SECONDS)
    model = _load(args)
    speaker = _read_speaker(args.speaker, model.cfg.global_dim)
    out = synthesize(model, wave, speaker, lookahead=args.lookahead,
                     block_frames=block, f0_scale=args.f0_scale)[:wave.size]
    with _writing(args.out):
        wavio.write_wav(args.out, out)
    print(f"synthesized {out.size} samples -> {args.out}")
    return EXIT_OK


def cmd_stream(args):
    span_frames(args.chunk_ms, "--chunk-ms")
    cfg = StreamConfig(chunk_ms=args.chunk_ms, lookahead_frames=args.lookahead)
    model = _load(args)
    speaker = _read_speaker(args.speaker, model.cfg.global_dim)
    wave = wavio.read_wav(args.infile)
    out, feed_ms = stream_file(model, cfg, speaker, wave, f0_scale=args.f0_scale)
    for k, ms in enumerate(feed_ms):
        print(f"chunk {k}: {ms:.2f} ms", file=sys.stderr)
    with _writing(args.out):
        wavio.write_wav(args.out, out[:wave.size])
    if feed_ms.size:
        print(f"streamed {feed_ms.size} chunks of {args.chunk_ms} ms, "
              f"mean processing {feed_ms.mean():.2f} ms -> {args.out}")
    return EXIT_OK


def cmd_bench(args):
    check_int(args.seed, "--seed", 0, None)
    span_frames(args.chunk_ms, "--chunk-ms")
    stream_cfg = StreamConfig(chunk_ms=args.chunk_ms)
    if not args.utterances:
        # one chunk or more, which int() can truncate to one sample short of a chunk
        n_samples = max(stream_cfg.chunk_samples, int(SAMPLE_RATE * check_real(
            args.utt_seconds, "--utt-seconds", stream_cfg.chunk_ms / 1000.0, MAX_SPAN_SECONDS)))
    model = _load(args)
    # latency_bench streams only the first `needed` utterances
    needed = WARMUP_UTTERANCES + MEASURED_UTTERANCES
    if args.utterances:
        paths = sorted(Path(args.utterances).glob("*.wav"))
        if not paths:
            raise InputError(f"no .wav files under {args.utterances}")
        utts = [wavio.read_wav(p) for p in paths[:needed]]
    else:
        rng = np.random.Generator(np.random.PCG64(args.seed))
        utts = [rng.uniform(-0.5, 0.5, size=n_samples).astype(F32)
                for _ in range(needed)]
    if args.speaker:
        speaker = _read_speaker(args.speaker, model.cfg.global_dim)
    else:
        speaker = np.random.Generator(np.random.PCG64(args.seed)).normal(
            0, 1, model.cfg.global_dim).astype(F32)
    report = latency_bench(model, stream_cfg, speaker, utts)
    text = json.dumps(report, indent=2)
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


def cmd_probe(args):
    check_int(args.seed, "--seed", 0, None)
    check_probe(args.lookahead, args.trials, args.seed)
    model = _load(args)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    speaker = rng.normal(0, 1, model.cfg.global_dim).astype(F32)

    def synth_fn(wave):
        return synthesize(model, wave, speaker, lookahead=args.lookahead)

    report = causality_probe(synth_fn, args.lookahead, args.trials, args.seed)
    print(json.dumps(report, indent=2))
    if not report["clean"]:
        raise InternalError(f"causality probe found {len(report['violations'])} violations")
    if report["influenced"] == 0:
        raise InternalError(f"causality probe is blind: redrawing input that the output "
                            f"depends on changed it in none of {args.trials} trials")
    return EXIT_OK


def cmd_dump_tvt(args):
    wave = wavio.read_wav(args.infile, MAX_SPAN_SECONDS)
    model = _load(args)
    speaker = _read_speaker(args.speaker, model.cfg.global_dim)
    _, _, weights, alpha = content_and_timbre(model, wave, speaker)
    top1 = np.argmax(weights, axis=1)
    text = "".join(json.dumps({
        "frame": i,
        "alpha": float(alpha[i]),
        "top1": int(top1[i]),
        "weights": [float(x) for x in weights[i]],
    }) + "\n" for i in range(weights.shape[0]))
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="tvtsyn",
                                description="Streaming voice-conversion runtime")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("init-weights", help="write seeded random weights")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--config", default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_init_weights)

    q = sub.add_parser("synth", help="offline file-to-file synthesis")
    _add_model_args(q)
    _add_speaker_arg(q)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--lookahead", type=int, default=MAX_LOOKAHEAD,
                   choices=range(MAX_LOOKAHEAD + 1))
    q.add_argument("--f0-scale", type=float, default=1.0)
    q.add_argument("--block-ms", type=float, default=None,
                   help="truncate lookahead at this block size (matches streaming masks)")
    q.set_defaults(fn=cmd_synth)

    q = sub.add_parser("stream", help="chunked processing with per-chunk timing log")
    _add_model_args(q)
    _add_speaker_arg(q)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--chunk-ms", type=float, default=60.0)
    q.add_argument("--lookahead", type=int, default=MAX_LOOKAHEAD,
                   choices=range(MAX_LOOKAHEAD + 1))
    q.add_argument("--f0-scale", type=float, default=1.0)
    q.set_defaults(fn=cmd_stream)

    q = sub.add_parser("bench", help="latency/RTF benchmark, JSON report")
    _add_model_args(q)
    q.add_argument("--chunk-ms", type=float, default=60.0)
    q.add_argument("--utterances", default=None, help="directory of 16 kHz mono WAVs")
    q.add_argument("--utt-seconds", type=float, default=1.0)
    q.add_argument("--speaker", default=None)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_bench)

    q = sub.add_parser("probe", help="causality probe; nonzero exit on violation")
    _add_model_args(q)
    q.add_argument("--lookahead", type=int, default=0, choices=range(MAX_LOOKAHEAD + 1))
    q.add_argument("--trials", type=int, default=20)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_probe)

    q = sub.add_parser("dump-tvt", help="per-frame facet weights, top-1 index, alpha")
    _add_model_args(q)
    _add_speaker_arg(q)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", default=None, help="JSON-lines output (default: stdout)")
    q.set_defaults(fn=cmd_dump_tvt)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # whatever is still buffered goes to devnull at exit, without an "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("input error: standard output closed before the command finished writing",
              file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TvtSynError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
