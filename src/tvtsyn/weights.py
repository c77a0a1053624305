"""Weight container ("TVTW" format), its loader, and the parameter budget.

Container layout (little-endian, bit-exact):
  magic "TVTW" | version u32 | entry count u32
  per entry: name_len u16 | name utf-8 | ndim u8 | dims u32 each | raw f32 payload
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .kernels import F32

MAGIC = b"TVTW"
VERSION = 1
ALIGN = 64    # arena alignment of every payload, in bytes
MAX_NDIM = 64  # numpy's own limit


class WeightStore:
    """Mapping of parameter name -> read-only float32 array."""

    def __init__(self):
        self._entries: dict[str, np.ndarray] = {}

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


ENCODER_PREFIXES = ("encoder.",)
DECODER_PREFIXES = ("decoder.", "tvt.", "prosody.")


def parameter_budget(store: WeightStore) -> dict:
    """Parameter counts per published component grouping."""
    return {
        "encoder": store.parameter_count(ENCODER_PREFIXES),
        "decoder": store.parameter_count(DECODER_PREFIXES),
        "total": store.parameter_count(),
    }
