"""Mono 16 kHz PCM16 WAV reading/writing.

Scaling is 1/32768 on read and 32768 with clamping on write, which makes a
read -> write round trip of any file we produced bit-identical.
"""

from __future__ import annotations

import wave as _wave
from pathlib import Path

import numpy as np

from .config import SAMPLE_RATE, check_offline_samples
from .errors import InputError
from .kernels import F32


def read_wav(path, max_seconds=None) -> np.ndarray:
    """The file's samples. With `max_seconds`, a longer file is an InputError
    raised from its header, before any sample is read."""
    path = Path(path)
    try:
        with _wave.open(str(path), "rb") as w:
            channels = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            n = w.getnframes()
            if channels != 1:
                raise InputError(f"{path}: expected mono audio, got {channels} channels")
            if width != 2:
                raise InputError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
            if rate != SAMPLE_RATE:
                raise InputError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz "
                                 f"(resample first)")
            if max_seconds is not None:
                check_offline_samples(n, path, max_seconds)
            raw = w.readframes(n)
    except (OSError, EOFError, _wave.Error) as exc:  # EOFError: a file cut inside its header
        raise InputError(f"cannot read WAV {path}: {exc}") from exc
    if len(raw) != n * width:
        raise InputError(f"{path}: truncated data chunk: {len(raw)} bytes for {n} frames "
                         f"of {width} bytes")
    return np.divide(np.frombuffer(raw, dtype="<i2"), F32(32768.0), dtype=F32)


def write_wav(path, samples):
    samples = np.asarray(samples, dtype=F32).reshape(-1)
    bad = samples.size - np.count_nonzero(np.isfinite(samples))
    if bad:  # the int16 cast would write them as silence
        raise InputError(f"cannot write {path}: {bad} of {samples.size} samples "
                         f"are non-finite (NaN or inf)")
    ints = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    # the file is opened here: a failed open inside wave.open leaves a
    # half-built Wave_write whose __del__ prints a second, ignored error
    with open(path, "wb") as f, _wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(ints.tobytes())
