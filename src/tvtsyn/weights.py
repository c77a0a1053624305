"""Weight container ("TVTW" format), its loader, and the parameter budget.

Container layout (little-endian, bit-exact):
  magic "TVTW" | version u32 | entry count u32
  per entry: name_len u16 | name utf-8 | ndim u8 | dims u32 each
             | zero padding to the next 64-byte file offset | raw f32 payload
`save_weights` writes version 2. Version 1, the same layout without the
padding, still loads: files written before version 2 must keep working.
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
ALIGN = 64    # version 2 payload file offsets, and the arena's alignment, in bytes
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
        size = 12
        for name, arr in self._entries.items():
            raw = name.encode("utf-8")
            header = (struct.pack("<H", len(raw)) + raw
                      + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            pad = -(size + len(header)) % ALIGN
            out += [header, bytes(pad), arr.astype("<f4", copy=False).tobytes()]
            size += len(header) + pad + arr.nbytes
        return b"".join(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WeightStore":
        blob = bytes(blob)  # no copy of bytes; a bytearray's owner could write it
        stream = io.BytesIO(blob)
        entries, _ = _read_headers(stream)
        return _bind(entries, stream, blob)


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


def _read_headers(stream):
    """The one header pass over a TVTW stream: its size, and each entry's
    (name, dims, payload offset, payload bytes).

    It reads every entry header, seeking past each payload, and checks each
    against the stream size, so nothing is bound or allocated from an
    unchecked header.
    """
    size = stream.seek(0, io.SEEK_END)
    stream.seek(0)
    if size < 12 or _read_exact(stream, 4, "magic") != MAGIC:
        raise FormatError("bad magic: not a TVTW weight file")
    version, count = struct.unpack("<II", _read_exact(stream, 8, "file header"))
    if version not in (1, VERSION):
        raise FormatError(f"unsupported TVTW version {version}")

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
        if version == VERSION:
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


def _bind(entries, stream, buf) -> WeightStore:
    """A store of read-only arrays that all start 64-byte aligned.

    `buf` holds the bytes `stream` reads (the blob, or the file's mapping).
    A payload that starts 64-byte aligned in `buf`, as every version 2
    payload in a mapped file does, is bound as a view of it and never
    copied. Any other payload, as most of a version 1 file, is read from
    `stream` straight into its aligned slice of one arena, since misaligned
    arrays miss BLAS. It is not copied out of `buf`: for a mapped file that
    would count the file's pages on top of the arena's.
    """
    whole = np.frombuffer(buf, dtype=np.uint8)
    viewed = [(whole.ctypes.data + off) % ALIGN == 0 for _, _, off, _ in entries]
    arena = np.empty(sum(-(-nbytes // ALIGN) * ALIGN
                         for (*_, nbytes), v in zip(entries, viewed) if not v) + ALIGN,
                     dtype=np.uint8)
    start = -arena.ctypes.data % ALIGN
    store = WeightStore()
    for (name, dims, off, nbytes), view in zip(entries, viewed):
        if view:
            payload = whole[off:off + nbytes]
        else:
            payload = arena[start:start + nbytes]
            start += -(-nbytes // ALIGN) * ALIGN
            stream.seek(off)
            if not _read_into(stream, payload):
                raise FormatError(f"truncated payload for entry {name!r}")
        store.put(name, payload.view("<f4").reshape(dims))
    arena.flags.writeable = False
    return store


def save_weights(store: WeightStore, path):
    """Write `store` to `path` through a temporary file in the same directory
    that replaces `path` once complete. A process that maps the old file keeps
    its pages, and a failed write leaves no partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        tmp.write_bytes(store.to_bytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_weights(path) -> WeightStore:
    """Load a TVTW file. Its aligned payloads, every one in a version 2 file,
    are bound as views of a read-only mapping of it (see `_bind`), so
    processes that load the same file share its one page-cache copy."""
    with open(path, "rb", buffering=0) as f:
        entries, size = _read_headers(f)
        try:
            mapped = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)
        except ValueError as exc:  # the file shrank after the header pass
            raise FormatError(f"cannot map {path}: {exc}") from exc
        return _bind(entries, f, mapped)


ENCODER_PREFIXES = ("encoder.",)
DECODER_PREFIXES = ("decoder.", "tvt.", "prosody.")


def parameter_budget(store: WeightStore) -> dict:
    """Parameter counts per published component grouping."""
    return {
        "encoder": store.parameter_count(ENCODER_PREFIXES),
        "decoder": store.parameter_count(DECODER_PREFIXES),
        "total": store.parameter_count(),
    }
