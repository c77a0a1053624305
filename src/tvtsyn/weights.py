"""Weight container ("TVTW" format), the parameter registry for the full
architecture, and seeded random initialization.

Container layout (little-endian, bit-exact):
  magic "TVTW" | version u32 | entry count u32
  per entry: name_len u16 | name utf-8 | ndim u8 | dims u32 each | raw f32 payload
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import CODEBOOK_SIZE, VQ_DIM, ModelConfig
from .errors import ConfigError, FormatError
from .kernels import F32

MAGIC = b"TVTW"
VERSION = 1
ALIGN = 64    # arena alignment of every payload, in bytes
MAX_NDIM = 64  # numpy's own limit

# init kinds
UNIFORM = "uniform"          # scaled uniform, bound 1/sqrt(fan_in)
ZEROS = "zeros"
ONES = "ones"
PRIOR = "prior"              # N(0, 0.02)
LAYER_SCALE = "layer_scale"  # filled with cfg.layer_scale
CODEBOOK = "codebook"        # normal, rows L2-normalized
PINV = "pinv"                # pseudo-inverse of another entry (VQ down-projection)


@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple
    kind: str = UNIFORM
    fan_in: int = 0
    ref: str = ""  # source entry for PINV


class WeightStore:
    """Mapping of parameter name -> read-only float32 array."""

    def __init__(self, entries=None):
        self._entries: dict[str, np.ndarray] = {}
        if entries:
            for name, arr in entries.items():
                self.put(name, arr)

    def put(self, name, arr):
        if name in self._entries:
            raise FormatError(f"duplicate weight entry {name!r}")
        # a view, so that the caller's own array keeps its flags
        view = np.ascontiguousarray(arr, dtype=F32).view()
        view.flags.writeable = False
        self._entries[name] = view

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def get(self, name, shape=None):
        if name not in self._entries:
            raise ConfigError(f"missing weight entry {name!r}")
        arr = self._entries[name]
        if shape is not None and arr.shape != tuple(shape):
            raise ConfigError(f"weight {name!r} has shape {arr.shape}, expected {tuple(shape)}")
        return arr

    def parameter_count(self, prefixes=None) -> int:
        total = 0
        for name, arr in self._entries.items():
            if prefixes is None or any(name.startswith(p) for p in prefixes):
                total += arr.size
        return total

    def to_bytes(self) -> bytes:
        out = [MAGIC, struct.pack("<II", VERSION, len(self._entries))]
        for name, arr in self._entries.items():
            raw = name.encode("utf-8")
            out.append(struct.pack("<H", len(raw)))
            out.append(raw)
            out.append(struct.pack("<B", arr.ndim))
            out.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
            out.append(arr.astype("<f4", copy=False).tobytes())
        return b"".join(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WeightStore":
        return _read_store(io.BytesIO(blob))


def _read_into(stream, buf) -> bool:
    """Fill `buf` from `stream`; False when the stream ends first."""
    view = memoryview(buf)
    got = 0
    while got < len(view):
        n = stream.readinto(view[got:])
        if not n:
            return False
        got += n
    return True


def _read_exact(stream, n: int, what: str) -> bytearray:
    buf = bytearray(n)
    if not _read_into(stream, buf):
        raise FormatError(f"truncated {what}")
    return buf


def _read_store(stream) -> WeightStore:
    """Parse a TVTW stream into a store whose arrays share one read-only arena.

    Pass 1 reads the entry headers, seeking past each payload, and checks
    every one against the stream size, so nothing is allocated from an
    unchecked header. Pass 2 reads each payload straight into its 64-byte
    aligned slice of the arena; no payload is copied after it is read.
    Views of the file itself (mmap, frombuffer) are not used: most payloads
    in the format start unaligned, and misaligned arrays miss BLAS.
    """
    size = stream.seek(0, io.SEEK_END)
    stream.seek(0)
    if size < 12 or _read_exact(stream, 4, "magic") != MAGIC:
        raise FormatError("bad magic: not a TVTW weight file")
    version, count = struct.unpack("<II", _read_exact(stream, 8, "file header"))
    if version != VERSION:
        raise FormatError(f"unsupported TVTW version {version}")

    entries = []  # (name, dims, file offset, arena offset, nbytes)
    arena_size = 0
    for i in range(count):
        what = f"header at entry #{i}"
        (name_len,) = struct.unpack("<H", _read_exact(stream, 2, what))
        raw = _read_exact(stream, name_len + 1, what)  # the name and ndim
        try:
            name = raw[:-1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"name of entry #{i} is not valid UTF-8") from exc
        ndim = raw[-1]
        if ndim > MAX_NDIM:
            raise FormatError(f"entry {name!r} has {ndim} dims, at most {MAX_NDIM} allowed")
        dims = struct.unpack(f"<{ndim}I", _read_exact(stream, 4 * ndim, what))
        off = stream.tell()
        nbytes = 4 * math.prod(dims)
        if off + nbytes > size:
            raise FormatError(f"truncated payload for entry {name!r}")
        entries.append((name, dims, off, arena_size, nbytes))
        arena_size += -(-nbytes // ALIGN) * ALIGN
        stream.seek(off + nbytes)
    trailing = size - stream.tell()
    if trailing:
        raise FormatError(f"{trailing} trailing bytes after last entry")

    arena = np.empty(arena_size + ALIGN, dtype=np.uint8)
    base = -arena.ctypes.data % ALIGN
    for name, _, file_off, arena_off, nbytes in entries:
        stream.seek(file_off)
        start = base + arena_off
        if not _read_into(stream, arena[start:start + nbytes]):
            raise FormatError(f"truncated payload for entry {name!r}")
    arena.flags.writeable = False

    store = WeightStore()
    for name, dims, _, arena_off, nbytes in entries:
        start = base + arena_off
        store.put(name, arena[start:start + nbytes].view("<f4").reshape(dims))
    return store


def save_weights(store: WeightStore, path):
    Path(path).write_bytes(store.to_bytes())


def load_weights(path) -> WeightStore:
    with open(path, "rb", buffering=0) as f:
        return _read_store(f)


def _linear(specs, prefix, out_dim, in_dim, bias=True):
    specs.append(ParamSpec(f"{prefix}.weight", (out_dim, in_dim), UNIFORM, in_dim))
    if bias:
        specs.append(ParamSpec(f"{prefix}.bias", (out_dim,), ZEROS))


def _conv(specs, prefix, out_ch, in_ch, kernel):
    specs.append(ParamSpec(f"{prefix}.weight", (out_ch, in_ch, kernel), UNIFORM, in_ch * kernel))
    specs.append(ParamSpec(f"{prefix}.bias", (out_ch,), ZEROS))


def _tconv(specs, prefix, in_ch, out_ch, kernel):
    specs.append(ParamSpec(f"{prefix}.weight", (in_ch, out_ch, kernel), UNIFORM, in_ch * kernel))
    specs.append(ParamSpec(f"{prefix}.bias", (out_ch,), ZEROS))


def _ln(specs, prefix, dim):
    specs.append(ParamSpec(f"{prefix}.gamma", (dim,), ONES))
    specs.append(ParamSpec(f"{prefix}.beta", (dim,), ZEROS))


def _transformer(specs, prefix, cfg: ModelConfig):
    d, f = cfg.d_model, cfg.ffn_dim
    for i in range(cfg.n_layers):
        base = f"{prefix}.layer{i}"
        _ln(specs, f"{base}.ln1", d)
        for proj in ("q", "k", "v", "o"):
            _linear(specs, f"{base}.{proj}", d, d)
        specs.append(ParamSpec(f"{base}.ls_attn", (d,), LAYER_SCALE))
        _ln(specs, f"{base}.ln2", d)
        _linear(specs, f"{base}.ffn1", f, d)
        _linear(specs, f"{base}.ffn2", d, f)
        specs.append(ParamSpec(f"{base}.ls_ffn", (d,), LAYER_SCALE))
    _ln(specs, f"{prefix}.ln_out", d)


def _cln(specs, prefix, cfg: ModelConfig):
    d, s = cfg.d_model, cfg.timbre_dim
    _ln(specs, f"{prefix}.ln_x", d)
    _ln(specs, f"{prefix}.ln_s", s)
    _linear(specs, f"{prefix}.gamma_gen", d, s)
    _linear(specs, f"{prefix}.beta_gen", d, s)
    _linear(specs, f"{prefix}.gate_gen", s, s)
    _linear(specs, f"{prefix}.proj", d, d + s)


def encoder_stage_widths(cfg: ModelConfig):
    return [cfg.base_width * (2 ** i) for i in range(len(cfg.encoder_strides) + 1)]


def parameter_specs(cfg: ModelConfig) -> list:
    """Every tensor slot of the full architecture, in deterministic order."""
    specs: list[ParamSpec] = []
    widths = encoder_stage_widths(cfg)

    # --- encoder CNN ---
    _conv(specs, "encoder.cnn.conv_in", widths[0], 1, cfg.init_kernel)
    for i, stride in enumerate(cfg.encoder_strides):
        w, w2 = widths[i], widths[i + 1]
        _conv(specs, f"encoder.cnn.stage{i}.res.conv1", w, w, cfg.res_kernel)
        _conv(specs, f"encoder.cnn.stage{i}.res.conv2", w, w, 1)
        _conv(specs, f"encoder.cnn.stage{i}.down", w2, w, 2 * stride)
    _conv(specs, "encoder.cnn.conv_out", cfg.d_model, widths[-1], cfg.final_kernel)

    # --- encoder context attention ---
    _transformer(specs, "encoder.attn", cfg)

    # --- factorized VQ ---
    specs.append(ParamSpec("encoder.vq.proj_up.weight", (cfg.d_model, VQ_DIM), UNIFORM, VQ_DIM))
    specs.append(ParamSpec("encoder.vq.proj_down.weight", (VQ_DIM, cfg.d_model),
                           PINV, ref="encoder.vq.proj_up.weight"))
    specs.append(ParamSpec("encoder.vq.codebook", (CODEBOOK_SIZE, VQ_DIM), CODEBOOK))

    # --- time-varying timbre ---
    _linear(specs, "tvt.g_proj", cfg.timbre_dim, cfg.global_dim)
    _linear(specs, "tvt.mlp_k.fc1", cfg.tvt_mlp_hidden, cfg.global_dim)
    _linear(specs, "tvt.mlp_k.fc2", cfg.gtm_slots * cfg.tvt_attn_dim, cfg.tvt_mlp_hidden)
    _linear(specs, "tvt.mlp_v.fc1", cfg.tvt_mlp_hidden, cfg.global_dim)
    _linear(specs, "tvt.mlp_v.fc2", cfg.gtm_slots * cfg.timbre_dim, cfg.tvt_mlp_hidden)
    specs.append(ParamSpec("tvt.key_prior", (cfg.gtm_slots, cfg.tvt_attn_dim), PRIOR))
    specs.append(ParamSpec("tvt.value_prior", (cfg.gtm_slots, cfg.timbre_dim), PRIOR))
    _linear(specs, "tvt.query", cfg.tvt_attn_dim, cfg.d_model)
    _linear(specs, "tvt.gate.fc1", cfg.gate_hidden, cfg.d_model + 2 * cfg.timbre_dim)
    _linear(specs, "tvt.gate.fc2", 1, cfg.gate_hidden)
    specs.append(ParamSpec("tvt.scale", (1,), ONES))

    # --- prosody predictors ---
    for name in ("f0", "energy"):
        _conv(specs, f"prosody.{name}.conv1", cfg.prosody_hidden, cfg.d_model, 3)
        _conv(specs, f"prosody.{name}.conv2", cfg.prosody_hidden, cfg.prosody_hidden, 3)
        _linear(specs, f"prosody.{name}.proj", 1, cfg.prosody_hidden)
    _linear(specs, "prosody.inject", cfg.d_model, 2)

    # --- decoder ---
    _cln(specs, "decoder.cln_in", cfg)
    _transformer(specs, "decoder.attn", cfg)
    _cln(specs, "decoder.cln_out", cfg)
    dec_widths = list(reversed(widths))  # top width down to base
    _conv(specs, "decoder.cnn.conv_in", dec_widths[0], cfg.d_model, cfg.final_kernel)
    for i, stride in enumerate(cfg.decoder_strides):
        w_in, w_out = dec_widths[i], dec_widths[i + 1]
        _tconv(specs, f"decoder.cnn.stage{i}.up", w_in, w_out, 2 * stride)
        _conv(specs, f"decoder.cnn.stage{i}.res.conv1", w_out, w_out, cfg.res_kernel)
        _conv(specs, f"decoder.cnn.stage{i}.res.conv2", w_out, w_out, 1)
    _conv(specs, "decoder.cnn.conv_out", 1, dec_widths[-1], cfg.init_kernel)

    names = [s.name for s in specs]
    if len(names) != len(set(names)):
        raise ConfigError("parameter registry produced duplicate names")
    return specs


def random_init(seed: int, cfg: ModelConfig) -> WeightStore:
    """Deterministic random weights for the full architecture."""
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    store = WeightStore()
    for spec in parameter_specs(cfg):
        if spec.kind == UNIFORM:
            bound = 1.0 / np.sqrt(spec.fan_in)
            arr = rng.uniform(-bound, bound, size=spec.shape)
        elif spec.kind == ZEROS:
            arr = np.zeros(spec.shape)
        elif spec.kind == ONES:
            arr = np.ones(spec.shape)
        elif spec.kind == PRIOR:
            arr = rng.normal(0.0, 0.02, size=spec.shape)
        elif spec.kind == LAYER_SCALE:
            arr = np.full(spec.shape, cfg.layer_scale)
        elif spec.kind == CODEBOOK:
            arr = rng.normal(0.0, 1.0, size=spec.shape)
            arr = arr / np.linalg.norm(arr, axis=1, keepdims=True)
        elif spec.kind == PINV:
            arr = np.linalg.pinv(store.get(spec.ref).astype(np.float64))
        else:
            raise ConfigError(f"unknown init kind {spec.kind!r}")
        store.put(spec.name, arr.astype(F32))
    return store


ENCODER_PREFIXES = ("encoder.",)
DECODER_PREFIXES = ("decoder.", "tvt.", "prosody.")


def parameter_budget(store: WeightStore) -> dict:
    """Parameter counts per published component grouping."""
    return {
        "encoder": store.parameter_count(ENCODER_PREFIXES),
        "decoder": store.parameter_count(DECODER_PREFIXES),
        "total": store.parameter_count(),
    }
