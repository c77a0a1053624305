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


@dataclass(frozen=True)
class ModelConfig:
    """All architecture hyperparameters, cross-validated for consistency."""

    sample_rate: int = SAMPLE_RATE
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
    # factorized VQ bottleneck
    vq_dim: int = 8
    codebook_size: int = 4096
    vq_commitment: float = 0.15
    vq_l2_normalize: bool = True
    # time-varying timbre
    gtm_slots: int = 48
    tvt_attn_dim: int = 128
    global_dim: int = 704
    timbre_dim: int = 192
    tvt_mlp_hidden: int = 512
    gate_hidden: int = 256
    # prosody predictors
    prosody_hidden: int = 256
    # decoder CNN
    decoder_strides: tuple = (2, 4, 5, 8)

    def __post_init__(self):
        object.__setattr__(self, "encoder_strides", tuple(self.encoder_strides))
        object.__setattr__(self, "decoder_strides", tuple(self.decoder_strides))
        self.validate()

    @property
    def hop(self) -> int:
        return _product(self.encoder_strides)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def validate(self):
        if _product(self.encoder_strides) != FRAME_HOP:
            raise ConfigError(f"encoder strides {self.encoder_strides} must multiply to {FRAME_HOP}")
        if _product(self.decoder_strides) != FRAME_HOP:
            raise ConfigError(f"decoder strides {self.decoder_strides} must multiply to {FRAME_HOP}")
        if tuple(reversed(self.encoder_strides)) != self.decoder_strides:
            raise ConfigError("decoder strides must mirror the encoder strides")
        if self.d_model % self.n_heads:
            raise ConfigError("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2:
            raise ConfigError("head dim must be even for rotary positions")
        if not 0 <= self.encoder_lookahead <= MAX_LOOKAHEAD:
            raise ConfigError(f"encoder_lookahead must be in [0, {MAX_LOOKAHEAD}]")
        if self.codebook_size != 4096 or self.vq_dim != 8:
            raise ConfigError("VQ bottleneck is fixed at a 4096-entry codebook of dim 8")
        if self.lookback_frames < 1:
            raise ConfigError("lookback_frames must be >= 1")
        for name in ("base_width", "d_model", "n_layers", "n_heads", "ffn_dim",
                     "gtm_slots", "tvt_attn_dim", "global_dim", "timbre_dim",
                     "tvt_mlp_hidden", "gate_hidden", "prosody_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


def _product(xs):
    p = 1
    for x in xs:
        p *= int(x)
    return p


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


@dataclass(frozen=True)
class StreamConfig:
    """Chunk-wise runtime parameters."""

    chunk_ms: float = 60.0
    sample_rate: int = SAMPLE_RATE
    lookahead_frames: int | None = None  # None = use the model's encoder_lookahead

    def __post_init__(self):
        self.validate()

    @property
    def chunk_samples(self) -> int:
        return int(round(self.chunk_ms * self.sample_rate / 1000.0))

    @property
    def chunk_frames(self) -> int:
        return self.chunk_samples // FRAME_HOP

    def validate(self):
        if self.sample_rate != SAMPLE_RATE:
            raise ConfigError(f"sample_rate must be {SAMPLE_RATE}")
        if not math.isfinite(self.chunk_ms):
            raise ConfigError(f"chunk_ms must be finite, got {self.chunk_ms}")
        samples = self.chunk_ms * self.sample_rate / 1000.0
        frame_ms = 1000.0 * FRAME_HOP / self.sample_rate
        if samples != int(samples) or int(samples) % FRAME_HOP or samples <= 0:
            lo = max(frame_ms, (int(samples) // FRAME_HOP) * frame_ms)
            hi = lo + frame_ms
            raise ConfigError(
                f"chunk_ms={self.chunk_ms} is not frame-aligned "
                f"({frame_ms:.0f} ms per frame); nearest valid sizes: {lo:.0f} ms or {hi:.0f} ms")
        if self.lookahead_frames is not None and not 0 <= self.lookahead_frames <= MAX_LOOKAHEAD:
            raise ConfigError(f"lookahead_frames must be in [0, {MAX_LOOKAHEAD}]")


def config_to_text(cfg: ModelConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ModelConfig:
    fields = {f.name: f for f in dataclasses.fields(ModelConfig)}
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise FormatError(f"config line {lineno}: unknown key {key!r}")
        kwargs[key] = _parse_value(fields[key].type, val, key)
    try:
        return ModelConfig(**kwargs)
    except TypeError as exc:
        raise FormatError(f"bad config: {exc}") from exc


def _parse_value(ftype, val, key):
    ftype = str(ftype)
    try:
        if "tuple" in ftype:
            return tuple(int(x) for x in val.split(","))
        if "bool" in ftype:
            if val.lower() in ("true", "1", "yes"):
                return True
            if val.lower() in ("false", "0", "no"):
                return False
            raise ValueError(val)
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
