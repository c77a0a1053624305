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
# numpy's own limit, so that every checked header reshapes: 64 from numpy 2, 32 before
MAX_NDIM = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32
HEADER_WINDOW = 128  # bytes per header read; the model's longest header is 50
# the repo ships no weights, so a file that does not load or bind is remade
REGENERATE = "regenerate the file with `tvtsyn init-weights --seed N [--config FILE]`"


class WeightStore:
    """Mapping of parameter name -> read-only float32 array."""

    def __init__(self):
        self._entries: dict[str, np.ndarray] = {}

    def put(self, name, arr):
        if name in self._entries:
            raise FormatError(f"duplicate weight entry {name!r}")
        # kept as it is when already read-only float32 (a mapped payload);
        # otherwise a view, so that the caller's own array keeps its flags
        if not (isinstance(arr, np.ndarray) and arr.dtype == F32
                and arr.flags.c_contiguous and not arr.flags.writeable):
            arr = np.ascontiguousarray(arr, dtype=F32).view()
            arr.flags.writeable = False
        self._entries[name] = arr

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


def _reread(fd, n: int, pos: int, i: int) -> bytes:
    """The first `n` bytes of entry #i's header, which starts at `pos`."""
    buf = os.pread(fd, n, pos)
    if len(buf) < n:
        raise FormatError(f"truncated header at entry #{i}")
    return buf


def _read_headers(fd):
    """The one header pass over a TVTW file: each entry's (name, dims,
    payload offset, payload bytes), and the file's size.

    Each entry header is one positioned read of HEADER_WINDOW bytes, read
    again at its full length only when it is longer, so no page of a later
    mapping is touched. Each header is checked against the file size, so
    nothing is bound or allocated from an unchecked header.
    """
    size = os.lseek(fd, 0, os.SEEK_END)
    head = os.pread(fd, 12, 0)
    if len(head) < 12 or head[:4] != MAGIC:
        raise FormatError("bad magic: not a TVTW weight file")
    version, count = struct.unpack_from("<II", head, 4)
    if version != VERSION:
        raise FormatError(f"unsupported TVTW version {version}, expected {VERSION}; {REGENERATE}")

    entries = []
    pos = 12
    for i in range(count):
        buf = os.pread(fd, HEADER_WINDOW, pos)
        if len(buf) < 2:
            buf = _reread(fd, 2, pos, i)
        end = 3 + struct.unpack_from("<H", buf)[0]  # past the name and ndim
        if len(buf) < end:
            buf = _reread(fd, end, pos, i)
        try:
            name = buf[2:end - 1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"name of entry #{i} is not valid UTF-8") from exc
        ndim = buf[end - 1]
        if ndim > MAX_NDIM:
            raise FormatError(f"entry {name!r} has {ndim} dims, at most {MAX_NDIM} allowed")
        stop = end + 4 * ndim
        if len(buf) < stop:
            buf = _reread(fd, stop, pos, i)
        dims = struct.unpack_from(f"<{ndim}I", buf, end)
        off = pos + stop
        off += -off % ALIGN
        nbytes = 4 * math.prod(dims)
        if off + nbytes > size:
            raise FormatError(f"truncated payload for entry {name!r}")
        entries.append((name, dims, off, nbytes))
        pos = off + nbytes
    trailing = size - pos
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
        entries, size = _read_headers(f.fileno())
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
