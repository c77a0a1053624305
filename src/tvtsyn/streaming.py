"""Chunk-wise real-time orchestration: session lifecycle, persistent
per-module state, and exact state-carrying across encoder -> TVT -> decoder.

Timing contract: chunk k's audio is emitted by the feed of chunk k, with no
hold (lookahead never crosses a chunk boundary). Each chunk's frames run
through the stateful decoder CNN once, and the strictly causal CNN's samples
are final as soon as they are computed, so every feed of c samples returns
exactly c samples and N feeds give N*c. `flush` only closes the session; it
returns an empty array.
"""

from __future__ import annotations

import time

import numpy as np

from .config import StreamConfig
from .context import KvCache
from .decoder import cln_fuse, decode_context
from .encoder import EncoderState, encode_frames, vq_quantize
from .errors import InputError, StateError
from .kernels import F32
from .model import TvtSynModel, as_wave
from .prosody import check_f0_scale, predict_f0_energy
from .timbre import build_gtm, check_global_timbre, tvt_sequence


class StreamSession:
    """Single-stream state bundle; calls must be serialized per session.

    Sessions are independent (no shared mutable state beyond read-only
    weights), so distinct sessions may run on distinct threads.
    """

    def __init__(self, model: TvtSynModel, stream_cfg: StreamConfig, speaker,
                 f0_scale: float = 1.0):
        self.f0_scale = check_f0_scale(f0_scale)
        self.model = model
        self.cfg = stream_cfg
        self.speaker = check_global_timbre(speaker, model.cfg.global_dim)
        self.gtm = build_gtm(self.speaker, model.tvt)  # built once per speaker
        # each attention stack takes one chunk's frames per step
        self.enc_state = EncoderState(model.encoder, stream_cfg.chunk_frames)
        self.dec_cache = KvCache(model.decoder.ctx, stream_cfg.chunk_frames)
        self.pros_states = model.prosody.init_states()
        self.cnn_states = model.decoder.cnn.init_states()
        self.samples_in = 0
        self.samples_out = 0
        self.closed = False

    # -- lifecycle ---------------------------------------------------------

    def flush(self):
        """Close the session. Every fed sample was already emitted, so the
        result is empty; it is returned so callers can concatenate it."""
        if self.closed:
            raise StateError("session already flushed")
        self.closed = True
        return np.zeros(0, dtype=F32)

    # -- properties --------------------------------------------------------

    @property
    def chunk_samples(self) -> int:
        return self.cfg.chunk_samples

    def state_nbytes(self) -> int:
        """Total bytes held in mutable stream state (constant in stream length)."""
        total = 0

        def visit(st):
            nonlocal total
            if isinstance(st, np.ndarray):
                total += st.nbytes
            elif isinstance(st, (list, tuple)):
                for item in st:
                    visit(item)

        visit(self.enc_state.conv)
        visit(self.pros_states)
        visit(self.cnn_states)
        return total + self.enc_state.cache.nbytes + self.dec_cache.nbytes

    # -- processing --------------------------------------------------------

    def feed(self, samples):
        """Process one chunk; returns this chunk's synthesized samples."""
        if self.closed:
            raise StateError("cannot feed a flushed session")
        samples = as_wave(samples, "chunk")
        if samples.shape[0] != self.chunk_samples:
            raise InputError(
                f"chunk has {samples.shape[0]} samples, expected {self.chunk_samples}")
        if not np.isfinite(samples).all():
            raise InputError("chunk contains non-finite samples")

        model = self.model
        frames = encode_frames(samples, model.encoder, self.enc_state,
                               lookahead=self.cfg.lookahead_frames)
        content, _ = vq_quantize(frames, model.encoder.vq)
        tvt, _, _ = tvt_sequence(content, self.speaker, self.gtm, model.tvt)
        pred, self.pros_states = predict_f0_energy(content, model.prosody,
                                                   self.pros_states)
        ctxout = decode_context(content, tvt, pred, model.decoder, model.prosody,
                                f0_scale=self.f0_scale, cache=self.dec_cache)
        fused = cln_fuse(ctxout, tvt, model.decoder.cln_out)
        out, self.cnn_states = model.decoder.cnn.apply(fused, self.cnn_states)

        self.samples_in += samples.shape[0]
        self.samples_out += out.shape[0]
        return out


def open_session(model: TvtSynModel, stream_cfg: StreamConfig, speaker,
                 f0_scale: float = 1.0) -> StreamSession:
    """Validate the chunking, build the speaker memory, and zero all buffers."""
    return StreamSession(model, stream_cfg, speaker, f0_scale=f0_scale)


def stream_file(model, stream_cfg, speaker, wave, f0_scale=1.0):
    """Feed a whole waveform through a fresh session chunk by chunk.

    The wave is zero-padded up to a whole number of chunks. Returns the
    concatenated output (same length as the padded input) and each chunk's
    `feed` wall time in milliseconds.
    """
    wave = as_wave(wave)
    session = open_session(model, stream_cfg, speaker, f0_scale=f0_scale)
    c = session.chunk_samples
    n_chunks = -(-wave.size // c)
    padded = np.zeros(n_chunks * c, dtype=F32)
    padded[:wave.size] = wave
    pieces = []
    feed_ms = np.empty(n_chunks)
    for k in range(n_chunks):
        t0 = time.perf_counter()
        pieces.append(session.feed(padded[k * c:(k + 1) * c]))
        feed_ms[k] = (time.perf_counter() - t0) * 1000.0
    pieces.append(session.flush())
    return np.concatenate(pieces), feed_ms
