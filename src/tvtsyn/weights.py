"""Weight container ("TVTW" format), its loader, and the parameter budget.

Container layout (little-endian, bit-exact):
  magic "TVTW" | version u32 | entry count u32
  per entry: name_len u16 | name utf-8 | ndim u8 | dims u32 each
             | zero padding to the next 64-byte file offset | raw f32 payload
`save_weights` streams version 2 into the file, and `load_weights` maps it
and binds every payload as a view. Any other version is a FormatError:
`tvtsyn init-weights` regenerates a file from its seed and config.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import struct
import uuid
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .kernels import F32

MAGIC = b"TVTW"
VERSION = 2
ALIGN = 64    # payload file offsets, in bytes
MAX_NDIM = 64  # numpy's own limit
# the repo ships no weights, so a file that does not load or bind is remade
REGENERATE = "regenerate the file with `tvtsyn init-weights --seed N [--config FILE]`"


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
        arr = self._entries.get(name)
        if arr is None:
            problem = f"missing weight entry {name!r}"
        elif shape is not None and arr.shape != tuple(shape):
            problem = f"weight {name!r} has shape {arr.shape}, expected {tuple(shape)}"
        else:
            return arr
        raise ConfigError(f"{problem}; a file written for another config or layout "
                          f"does not bind: {REGENERATE}")

    def parameter_count(self, prefixes=None) -> int:
        total = 0
        for name, arr in self._entries.items():
            if prefixes is None or any(name.startswith(p) for p in prefixes):
                total += arr.size
        return total


def _read_exact(stream, n: int, what: str) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = stream.readinto(view[got:])
        if not k:
            raise FormatError(f"truncated {what}")
        got += k
    return buf


def _read_headers(stream):
    """The one header pass over a TVTW file: each entry's (name, dims,
    payload offset, payload bytes), and the file's size.

    It reads every entry header, seeking past each payload, and checks each
    against the file size, so nothing is bound or allocated from an
    unchecked header.
    """
    size = stream.seek(0, io.SEEK_END)
    stream.seek(0)
    if size < 12 or _read_exact(stream, 4, "magic") != MAGIC:
        raise FormatError("bad magic: not a TVTW weight file")
    version, count = struct.unpack("<II", _read_exact(stream, 8, "file header"))
    if version != VERSION:
        raise FormatError(f"unsupported TVTW version {version}, expected {VERSION}; {REGENERATE}")

    entries = []
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
        off += -off % ALIGN
        nbytes = 4 * math.prod(dims)
        if off + nbytes > size:
            raise FormatError(f"truncated payload for entry {name!r}")
        entries.append((name, dims, off, nbytes))
        stream.seek(off + nbytes)
    trailing = size - stream.tell()
    if trailing:
        raise FormatError(f"{trailing} trailing bytes after last entry")
    return entries, size


def save_weights(store: WeightStore, path):
    """Write `store` to `path` as TVTW version 2, each header and payload
    straight into a temporary file in the same directory that replaces
    `path` once complete. No copy of the store is made; a process that maps
    the old file keeps its pages, and a failed write leaves no partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with tmp.open("wb") as f:
            f.write(MAGIC + struct.pack("<II", VERSION, len(store)))
            for name in store.names():
                arr = store.get(name)
                raw = name.encode("utf-8")
                header = (struct.pack("<H", len(raw)) + raw
                          + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
                f.write(header + bytes(-(f.tell() + len(header)) % ALIGN))
                f.write(arr.astype("<f4", copy=False))  # no copy on little-endian
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_weights(path) -> WeightStore:
    """Load a TVTW file into a store of read-only, 64-byte aligned arrays.

    The file is mapped read-only and every payload is a view of the mapping,
    so nothing is copied and processes that load the same file share its one
    page-cache copy."""
    with open(path, "rb", buffering=0) as f:
        entries, size = _read_headers(f)
        try:
            mapped = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)
        except ValueError as exc:  # the file shrank after the header pass
            raise FormatError(f"cannot map {path}: {exc}") from exc
    whole = np.frombuffer(mapped, dtype=np.uint8)
    store = WeightStore()
    for name, dims, off, nbytes in entries:
        store.put(name, whole[off:off + nbytes].view("<f4").reshape(dims))
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
