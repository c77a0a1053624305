"""Model and streaming configuration, with a flat key=value file format."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, FormatError

SAMPLE_RATE = 16000
FRAME_HOP = 320  # samples per frame: 16 kHz -> 50 Hz
MAX_LOOKAHEAD = 4
# longest chunk, offline block or synthetic bench utterance
MAX_SPAN_SECONDS = 60.0
# factorized VQ bottleneck: L2-normalized codes, 4096 entries of dim 8
CODEBOOK_SIZE = 4096
VQ_DIM = 8


@dataclass(frozen=True)
class ModelConfig:
    """All architecture hyperparameters, cross-validated for consistency. The
    rates, the VQ bottleneck and the mirrored decoder strides are fixed."""

    # encoder CNN
    encoder_strides: tuple = (8, 5, 4, 2)
    base_width: int = 96
    init_kernel: int = 7
    final_kernel: int = 3
    res_kernel: int = 3
    res_dilation: int = 2
    # transformer stacks (shared dims for encoder and decoder context layers)
    d_model: int = 512
    n_layers: int = 8
    n_heads: int = 8
    ffn_dim: int = 2048
    lookback_frames: int = 100
    encoder_lookahead: int = 4
    layer_scale: float = 0.01
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
        object.__setattr__(self, "encoder_strides", tuple(self.encoder_strides))
        self.validate()

    @property
    def decoder_strides(self) -> tuple:
        return tuple(reversed(self.encoder_strides))

    def validate(self):
        if math.prod(self.encoder_strides) != FRAME_HOP:
            raise ConfigError(f"encoder strides {self.encoder_strides} must multiply to {FRAME_HOP}")
        if min(self.encoder_strides) < 1:
            raise ConfigError(f"encoder strides {self.encoder_strides} must all be >= 1")
        for name in ("base_width", "init_kernel", "final_kernel", "res_kernel",
                     "res_dilation", "d_model", "n_layers", "n_heads", "ffn_dim",
                     "lookback_frames", "gtm_slots", "tvt_attn_dim", "global_dim",
                     "timbre_dim", "tvt_mlp_hidden", "gate_hidden", "prosody_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not math.isfinite(self.layer_scale):
            raise ConfigError(f"layer_scale must be finite, got {self.layer_scale}")
        if self.d_model % self.n_heads:
            raise ConfigError("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2:
            raise ConfigError("head dim must be even for rotary positions")
        if not 0 <= self.encoder_lookahead <= MAX_LOOKAHEAD:
            raise ConfigError(f"encoder_lookahead must be in [0, {MAX_LOOKAHEAD}]")


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


def span_frames(ms, name) -> int:
    """Frames in a span of `ms` milliseconds. A span that is not finite, is
    longer than MAX_SPAN_SECONDS or is not a positive whole number of frames
    is a ConfigError that names the setting `name`."""
    if not math.isfinite(ms):
        raise ConfigError(f"{name} must be finite, got {ms}")
    if ms > 1000.0 * MAX_SPAN_SECONDS:
        raise ConfigError(f"{name}={ms} exceeds the {MAX_SPAN_SECONDS:.0f} s limit")
    samples = ms * SAMPLE_RATE / 1000.0
    frame_ms = 1000.0 * FRAME_HOP / SAMPLE_RATE
    if samples != int(samples) or int(samples) % FRAME_HOP or samples <= 0:
        lo = max(frame_ms, (int(samples) // FRAME_HOP) * frame_ms)
        hi = lo + frame_ms
        raise ConfigError(
            f"{name}={ms} is not frame-aligned "
            f"({frame_ms:.0f} ms per frame); nearest valid sizes: {lo:.0f} ms or {hi:.0f} ms")
    return int(samples) // FRAME_HOP


@dataclass(frozen=True)
class StreamConfig:
    """Chunk-wise runtime parameters."""

    chunk_ms: float = 60.0
    lookahead_frames: int | None = None  # None = use the model's encoder_lookahead

    def __post_init__(self):
        self.validate()

    @property
    def chunk_samples(self) -> int:
        return int(round(self.chunk_ms * SAMPLE_RATE / 1000.0))

    @property
    def chunk_frames(self) -> int:
        return self.chunk_samples // FRAME_HOP

    def validate(self):
        span_frames(self.chunk_ms, "chunk_ms")
        if self.lookahead_frames is not None and not 0 <= self.lookahead_frames <= MAX_LOOKAHEAD:
            raise ConfigError(f"lookahead_frames must be in [0, {MAX_LOOKAHEAD}]")


# Keys that older config files hold for values now fixed by the architecture
# (vq_commitment weighted a training loss that inference never computes);
# each still loads, but only at the one value it was pinned to.
LEGACY_KEYS = ("sample_rate", "codebook_size", "vq_dim", "vq_l2_normalize", "decoder_strides",
               "vq_commitment")


def config_to_text(cfg: ModelConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ModelConfig:
    fields = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    kwargs, legacy, seen = {}, {}, {}
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
        if key in fields:
            kwargs[key] = _parse_value(fields[key], val, key)
        elif key in LEGACY_KEYS:
            legacy[key] = val
        else:
            raise FormatError(f"config line {lineno}: unknown key {key!r}")
    cfg = ModelConfig(**kwargs)
    fixed = {"sample_rate": (SAMPLE_RATE,), "codebook_size": (CODEBOOK_SIZE,),
             "vq_dim": (VQ_DIM,), "decoder_strides": cfg.decoder_strides}
    for key, val in legacy.items():
        if key == "vq_l2_normalize":
            ok = val.lower() in ("true", "1", "yes")
        elif key == "vq_commitment":
            ok = _parse_value("float", val, key) == 0.15
        else:
            ok = _parse_value("tuple", val, key) == fixed[key]
        if not ok:
            raise ConfigError(f"config line {seen[key]}: {key} is fixed by the architecture; "
                              f"{val!r} is not its value")
    return cfg


def _parse_value(ftype: str, val, key):
    try:
        if "tuple" in ftype:
            return tuple(int(x) for x in val.split(","))
        if "int" in ftype:
            return int(val)
        if "float" in ftype:
            return float(val)
    except ValueError as exc:
        raise FormatError(f"config key {key!r}: cannot parse {val!r}") from exc
    raise FormatError(f"config key {key!r} has unsupported type {ftype}")


def save_config(cfg: ModelConfig, path):
    Path(path).write_text(config_to_text(cfg))


def load_config(path) -> ModelConfig:
    return config_from_text(Path(path).read_text())
