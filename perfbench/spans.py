"""Outside-in tracing: wrap the library's public entry points, record one span
per call, and reduce the spans to per-layer self time, calls, frames and
weight bytes.

Spans are kept in memory (name, layer, start, end, parent, unit) and written
out once the run ends. A span's self time is its duration minus the time its
child spans cover; spans nest strictly because the benchmark drives the
library from one thread. Weight bytes are the sizes of the parameter arrays
each call reads, counted from tensor shapes, not from hardware counters.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from tvtsyn import decoder, encoder, model, streaming

LAYERS = ("encoder.cnn", "encoder.attn", "encoder.vq", "timbre.gtm",
          "timbre.tvt", "prosody.predict", "decoder.cln", "decoder.attn", "decoder.cnn",
          "streaming.feed", "model.synthesize")


def array_bytes(*objs) -> int:
    """Bytes of the distinct numpy arrays reachable through dataclass fields,
    lists and tuples."""
    seen = set()
    total = 0
    stack = list(objs)
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(getattr(obj, f.name) for f in fields(obj))
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return total


def _rows(x) -> int:
    return int(np.atleast_2d(x).shape[0])


# The weight functions return attributes of long-lived objects only: their
# ids key the byte-count cache.
def _gtm_params(p):
    return (p.mlp_k, p.mlp_v, p.key_prior, p.value_prior)


def _tvt_params(p):
    return (p.g_proj_w, p.g_proj_b, p.query_w, p.query_b, p.gate, p.scale)


@dataclass(frozen=True)
class EntryPoint:
    owner: object          # module or class whose attribute is wrapped
    attr: str
    layer: str
    counted: bool          # its calls and frames are the layer's work count
    frames: Callable       # (args) -> frames of work
    weights: Callable      # (args) -> objects whose arrays the call reads


def _none(args):
    return ()


def entry_points() -> list:
    """Every public entry point the traced run wraps, with the layer it feeds.

    Functions imported by name are wrapped where the caller looks them up,
    e.g. `encode_frames` in both `model` and `streaming`.
    """
    eps = [
        EntryPoint(streaming.StreamSession, "feed", "streaming.feed", True,
                   lambda a: np.asarray(a[1]).size // 320, _none),
        EntryPoint(model, "synthesize", "model.synthesize", True,
                   lambda a: np.asarray(a[1]).size // 320, _none),
        EntryPoint(encoder.EncoderCnn, "apply", "encoder.cnn", True,
                   lambda a: np.asarray(a[1]).size // 320, lambda a: (a[0],)),
        EntryPoint(encoder, "transformer_step", "encoder.attn", True,
                   lambda a: _rows(a[0]), lambda a: (a[1],)),
        EntryPoint(encoder, "transformer_full", "encoder.attn", True,
                   lambda a: _rows(a[0]), lambda a: (a[1],)),
        EntryPoint(decoder, "transformer_step", "decoder.attn", True,
                   lambda a: _rows(a[0]), lambda a: (a[1],)),
        EntryPoint(decoder, "transformer_full", "decoder.attn", True,
                   lambda a: _rows(a[0]), lambda a: (a[1],)),
        EntryPoint(decoder, "cln_fuse", "decoder.cln", True,
                   lambda a: _rows(a[0]), lambda a: (a[2],)),
        EntryPoint(decoder, "inject_prosody", "decoder.cln", False,
                   lambda a: _rows(a[0]), lambda a: (a[2].inject_w, a[2].inject_b)),
        EntryPoint(decoder.DecoderCnn, "apply", "decoder.cnn", True,
                   lambda a: _rows(a[1]), lambda a: (a[0],)),
    ]
    for mod in (model, streaming):
        eps += [
            EntryPoint(mod, "encode_frames", "encoder.cnn", False,
                       lambda a: np.asarray(a[0]).size // 320, _none),
            EntryPoint(mod, "vq_quantize", "encoder.vq", True,
                       lambda a: _rows(a[0]), lambda a: (a[1],)),
            EntryPoint(mod, "build_gtm", "timbre.gtm", True,
                       lambda a: 1, lambda a: _gtm_params(a[1])),
            EntryPoint(mod, "tvt_sequence", "timbre.tvt", True,
                       lambda a: _rows(a[0]), lambda a: (*_tvt_params(a[3]), a[2])),
            EntryPoint(mod, "predict_f0_energy", "prosody.predict", True,
                       lambda a: _rows(a[0]), lambda a: (a[1].f0, a[1].energy)),
            EntryPoint(mod, "decode_context", "decoder.cln", False,
                       lambda a: _rows(a[0]), _none),
        ]
    eps.append(EntryPoint(streaming, "cln_fuse", "decoder.cln", True,
                          lambda a: _rows(a[0]), lambda a: (a[2],)))
    return eps


class Tracer:
    """In-memory span recorder. `unit` is set by the driving loop before each
    call: (kind, stream or utterance index, chunk or call index, measured)."""

    def __init__(self):
        self.unit = None
        # per span: [name, layer, counted, start, end, parent, root, unit, frames, nbytes]
        self.spans: list = []
        self._stack: list = []
        self._bytes_cache: dict = {}

    def _weight_bytes(self, objs) -> int:
        key = tuple(id(o) for o in objs)
        nbytes = self._bytes_cache.get(key)
        if nbytes is None:
            nbytes = self._bytes_cache[key] = array_bytes(*objs)
        return nbytes

    def wrap(self, ep: EntryPoint, fn):
        name = f"{ep.owner.__name__}.{ep.attr}"

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            root = idx if parent < 0 else self.spans[parent][6]
            span = [name, ep.layer, ep.counted, 0.0, 0.0, parent, root, self.unit,
                    ep.frames(args), self._weight_bytes(ep.weights(args))]
            self.spans.append(span)
            self._stack.append(idx)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block, then restore."""
        saved = []
        try:
            for ep in entry_points():
                original = (ep.owner.__dict__[ep.attr] if isinstance(ep.owner, type)
                            else getattr(ep.owner, ep.attr))
                saved.append((ep.owner, ep.attr, original))
                setattr(ep.owner, ep.attr, self.wrap(ep, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as sink:
            for i, s in enumerate(self.spans):
                unit = s[7]
                sink.write(json.dumps({
                    "id": i, "name": s[0], "layer": s[1], "start": s[3], "end": s[4],
                    "parent": s[5], "unit": list(unit) if unit else None,
                    "frames": s[8], "weight_bytes": s[9]}) + "\n")

    def layer_report(self) -> dict:
        """Per-layer p50 self time, calls, frames and weight bytes per unit
        (a chunk fed, an utterance synthesized, or a session opened), over
        measured units only, plus aggregate GB/s = weight bytes / self time.
        Layers no measured unit reached are left out."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[5] >= 0:
                child[s[5]] += s[4] - s[3]
        # per root: layer -> [self_s, calls, frames, bytes]
        per_root = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0, 0]))
        for i, s in enumerate(self.spans):
            unit = self.spans[s[6]][7]
            if unit is None or not unit[3]:
                continue
            acc = per_root[s[6]][s[1]]
            acc[0] += (s[4] - s[3]) - child[i]
            acc[3] += s[9]
            if s[2]:
                acc[1] += 1
                acc[2] += s[8]
        report = {}
        for layer in LAYERS:
            rows = [by_layer[layer] for by_layer in per_root.values() if layer in by_layer]
            if not rows:
                continue
            arr = np.array(rows, dtype=np.float64)
            self_s = arr[:, 0].sum()
            report[layer] = {
                "self_ms": 1000.0 * float(np.median(arr[:, 0])),
                "calls": float(np.median(arr[:, 1])),
                "frames": float(np.median(arr[:, 2])),
                "weight_mb": float(np.median(arr[:, 3])) / 1e6,
                "gbps": float(arr[:, 3].sum() / self_s / 1e9) if self_s > 0 else 0.0,
                "units": len(rows),
                "frames_total": float(arr[:, 2].sum()),
            }
        return report

    def accounted_share(self, root_layer: str) -> float:
        """Share of measured root time covered by the layers below the root."""
        roots = {i for i, s in enumerate(self.spans)
                 if s[5] < 0 and s[1] == root_layer and s[7] is not None and s[7][3]}
        total = sum(self.spans[i][4] - self.spans[i][3] for i in roots)
        child = sum(s[4] - s[3] for s in self.spans if s[5] in roots)
        return child / total if total > 0 else 0.0
