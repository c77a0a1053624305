"""Model and streaming configuration, a flat key=value file format, and the one
place that rules on outside values: check_int, check_real, check_float_array."""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InputError

SAMPLE_RATE = 16000
# SEANet topology: the encoder down-samples by ENCODER_STRIDES, and the
# decoder up-samples by the same strides reversed
ENCODER_STRIDES = (8, 5, 4, 2)
DECODER_STRIDES = ENCODER_STRIDES[::-1]
FRAME_HOP = math.prod(ENCODER_STRIDES)  # samples per frame: 16 kHz -> 50 Hz
FRAME_MS = 1000.0 * FRAME_HOP / SAMPLE_RATE
INIT_KERNEL = 7   # encoder conv_in, decoder conv_out
FINAL_KERNEL = 3  # encoder conv_out, decoder conv_in
RES_KERNEL = 3    # each residual block's dilated conv
RES_DILATION = 2
# attention window: frames a query sees behind itself, and at most ahead of
# itself (first layer only, within its chunk); MAX_LOOKAHEAD is the default
LOOKBACK_FRAMES = 100
MAX_LOOKAHEAD = 4
# LayerScale folded into the init: random_init draws each attention layer's
# o and ffn2 weights at this times the fan-in bound
LAYER_SCALE = 0.01
# longest chunk, offline block or utterance, or synthetic bench utterance
MAX_SPAN_SECONDS = 60.0
# factorized VQ bottleneck: L2-normalized codes, 4096 entries of dim 8
CODEBOOK_SIZE = 4096
VQ_DIM = 8
# longest config file that load_config reads; a real one is under 300 bytes
MAX_CONFIG_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelConfig:
    """The sizes an architecture config may vary, each >= 1. The rates, the
    SEANet topology, the attention window and the VQ bottleneck are the
    constants above."""

    base_width: int = 96  # encoder CNN channels before the first stride
    # transformer stacks (shared dims for encoder and decoder context layers)
    d_model: int = 512
    n_layers: int = 8
    n_heads: int = 8
    ffn_dim: int = 2048
    # time-varying timbre
    gtm_slots: int = 48
    tvt_attn_dim: int = 128
    global_dim: int = 704
    timbre_dim: int = 192
    tvt_mlp_hidden: int = 512
    gate_hidden: int = 256
    # prosody predictors
    prosody_hidden: int = 256

    def __post_init__(self):
        for f in dataclasses.fields(self):
            check_int(getattr(self, f.name), f.name, 1, None)
        if self.d_model % self.n_heads:
            raise ConfigError("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2:
            raise ConfigError("head dim must be even for rotary positions")

    @property
    def lookback_frames(self) -> int:
        """LOOKBACK_FRAMES, for perfbench's warm-up count."""
        return LOOKBACK_FRAMES


def small_config() -> ModelConfig:
    """Reduced-width config: same topology and rates, fast enough for tests."""
    return ModelConfig(
        base_width=4,
        d_model=64,
        n_layers=2,
        n_heads=4,
        ffn_dim=128,
        gtm_slots=8,
        tvt_attn_dim=16,
        global_dim=32,
        timbre_dim=24,
        tvt_mlp_hidden=32,
        gate_hidden=16,
        prosody_hidden=16,
    )


def check_offline_samples(n, what, max_seconds=MAX_SPAN_SECONDS):
    """An offline pass holds its whole input, so `n` samples over `max_seconds`
    are an InputError that names the input `what`: a stream's state is constant."""
    if n > max_seconds * SAMPLE_RATE:
        raise InputError(f"{what} is {n / SAMPLE_RATE:.2f} s long, over the "
                         f"{max_seconds:.0f} s offline limit; stream it (tvtsyn stream)")


def check_int(value, name, lo, hi) -> int:
    """`value` as an int in [lo, hi], or >= lo when `hi` is None. A bool, a
    float or any other non-integer, or a value out of range, is a ConfigError
    that names the setting `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value > hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an int {bound}, got {value!r}")
    return int(value)


def check_real(value, name, lo, hi) -> float:
    """`value` as a float in [lo, hi]. A bool, a str, a complex number, a 0-d
    array or any other value that is not a real number, NaN, or a value out
    of range, is a ConfigError that names the setting `name`."""
    # NaN fails the comparison
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not lo <= value <= hi:
        raise ConfigError(f"{name} must be a real number in [{lo:g}, {hi:g}], got {value!r}")
    return float(value)


def check_float_array(value, what, dtype=np.float32) -> np.ndarray:
    """`value`, an array of a real floating dtype, as `dtype` (a value past its range
    is inf). A masked array (its mask would be dropped), a ragged list or another
    dtype (int16 PCM must be scaled by 1/32768 first) is an InputError naming `what`."""
    # no masked array exists before numpy.ma is imported, which costs ~16 ms
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(value, ma.MaskedArray):
        raise InputError(f"{what} is a masked array; fill its masked values first")
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged list
        raise InputError(f"{what} is not an array: {exc}") from exc
    if arr.dtype.kind != "f":
        pcm = "; scale integer PCM by 1/32768 first" if arr.dtype.kind in "iu" else ""
        raise InputError(f"{what} must have a real floating dtype, got {arr.dtype}{pcm}")
    if arr.dtype == dtype:
        return arr
    with np.errstate(over="ignore"):  # ~2 us, so only for a cast
        return arr.astype(dtype)


def check_lookahead(frames, name) -> int:
    """A look-ahead of `frames` frames, an int in [0, MAX_LOOKAHEAD]: more would
    let output see input the runtime promises not to wait for, and a
    negative one masks every key."""
    return check_int(frames, name, 0, MAX_LOOKAHEAD)


def span_frames(ms, name) -> int:
    """Frames in a span of `ms` milliseconds, a real number from one frame to
    MAX_SPAN_SECONDS (see check_real) and a whole number of frames; a ConfigError
    that names the setting `name` otherwise."""
    check_real(ms, name, FRAME_MS, 1000.0 * MAX_SPAN_SECONDS)
    samples = ms * SAMPLE_RATE / 1000.0
    if samples != int(samples) or int(samples) % FRAME_HOP:
        lo = (int(samples) // FRAME_HOP) * FRAME_MS
        raise ConfigError(
            f"{name}={ms} is not frame-aligned ({FRAME_MS:.0f} ms per frame); "
            f"nearest valid sizes: {lo:.0f} ms or {lo + FRAME_MS:.0f} ms")
    return int(samples) // FRAME_HOP


@dataclass(frozen=True)
class StreamConfig:
    """Chunk-wise runtime parameters."""

    chunk_ms: float = 60.0
    lookahead_frames: int = MAX_LOOKAHEAD

    def __post_init__(self):
        span_frames(self.chunk_ms, "chunk_ms")
        check_lookahead(self.lookahead_frames, "lookahead_frames")

    @property
    def chunk_samples(self) -> int:
        return int(round(self.chunk_ms * SAMPLE_RATE / 1000.0))

    @property
    def chunk_frames(self) -> int:
        return self.chunk_samples // FRAME_HOP


def config_to_text(cfg: ModelConfig) -> str:
    return "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in dataclasses.fields(cfg))


def config_from_text(text: str) -> ModelConfig:
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    kwargs, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise FormatError(f"config key {key!r} is given twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        if key not in fields:
            raise FormatError(f"config line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = int(val)
        except ValueError as exc:
            raise FormatError(f"config key {key!r}: cannot parse {val!r}") from exc
    return ModelConfig(**kwargs)


def save_config(cfg: ModelConfig, path):
    Path(path).write_text(config_to_text(cfg))


def load_config(path) -> ModelConfig:
    """The config file at `path`, read once from its start (so a pipe works),
    and at most MAX_CONFIG_BYTES of it."""
    with open(path, "rb") as f:
        raw = f.read(MAX_CONFIG_BYTES + 1)
    if len(raw) > MAX_CONFIG_BYTES:
        raise FormatError(f"config file {path} is longer than {MAX_CONFIG_BYTES} bytes")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"config file {path} is not UTF-8 text: {exc}") from exc
    return config_from_text(text)
