"""Streaming session tests: equivalence with the single-pass oracle, exact
state semantics, lifecycle rules, determinism, isolation, and memory bounds.
"""

import numpy as np
import pytest

from conftest import (NAN_ENCODER_WEIGHTS, check_state_only_where_memory, conv_states,
                      random_wave, store_of)
from tvtsyn.config import SAMPLE_RATE, StreamConfig
from tvtsyn.errors import ConfigError, InputError, StateError
from tvtsyn.model import MAX_SAMPLE, TvtSynModel, as_wave, synthesize
from tvtsyn.prosody import MAX_F0_SCALE
from tvtsyn.streaming import open_session, stream_file

F32 = np.float32


def _feed_all(session, wave):
    c = session.chunk_samples
    outs = [session.feed(wave[k * c:(k + 1) * c]) for k in range(wave.size // c)]
    outs.append(session.flush())
    return np.concatenate(outs)


class TestOpenSession:
    def test_frames_per_chunk(self, model, speaker):
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        assert s.chunk_samples == 960 and s.cfg.chunk_frames == 3
        s = open_session(model, StreamConfig(chunk_ms=100), speaker)
        assert s.chunk_samples == 1600 and s.cfg.chunk_frames == 5

    def test_misaligned_chunk_rejected_with_suggestions(self, model, speaker):
        with pytest.raises(ConfigError, match="40 ms or 60 ms"):
            open_session(model, StreamConfig(chunk_ms=50), speaker)

    def test_bad_speaker_rejected(self, model, speaker):
        # checked once, by the speaker memory the session builds
        dim = model.cfg.global_dim
        nan = speaker.copy()
        nan[3] = np.nan
        for bad, message in ((speaker[None], "must be 1-D, got shape"),
                             (speaker[:-1], f"has dim {dim - 1}, expected {dim}"),
                             (nan, "contains non-finite values"),
                             (np.zeros(dim, F32), "must have nonzero norm")):
            with pytest.raises(InputError, match=f"global timbre vector {message}"):
                open_session(model, StreamConfig(chunk_ms=60), bad)

    def test_wrong_chunk_length_rejected(self, model, speaker):
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        with pytest.raises(InputError):
            s.feed(np.zeros(959, F32))


class TestEquivalence:
    @pytest.mark.parametrize("chunk_ms", [20, 40, 60, 100, 140])
    def test_streaming_equals_offline_oracle(self, model, speaker, chunk_ms):
        sc = StreamConfig(chunk_ms=chunk_ms)
        wave = random_wave(chunk_ms, 48000)
        wave = wave[:(wave.size // sc.chunk_samples) * sc.chunk_samples]
        streamed, _ = stream_file(model, sc, speaker, wave)
        offline = synthesize(model, wave, speaker, block_frames=sc.chunk_frames)
        assert streamed.shape == offline.shape
        assert np.abs(streamed - offline).max() <= 1e-4

    def test_sample_count_identity(self, model, speaker):
        # every feed of c samples emits exactly c; the flush emits nothing
        sc = StreamConfig(chunk_ms=60)
        wave = random_wave(0, 960 * 7)
        s = open_session(model, sc, speaker)
        sizes = [s.feed(wave[k * 960:(k + 1) * 960]).size for k in range(7)]
        assert sizes == [960] * 7
        assert s.samples_out == s.samples_in == 7 * 960
        assert s.flush().size == 0

    def test_zero_overlap_mode(self, model, speaker):
        # the session holds nothing back: the stream is as long as its input
        sc = StreamConfig(chunk_ms=60)
        wave = random_wave(1, 960 * 10)
        streamed = _feed_all(open_session(model, sc, speaker), wave)
        offline = synthesize(model, wave, speaker, block_frames=sc.chunk_frames)
        assert streamed.size == wave.size
        assert np.abs(streamed - offline).max() <= 1e-4

    def test_zeros_in_steady_state_out(self, model, speaker):
        # constant input settles to a chunk-periodic pattern once the
        # 2 s KV window is full; output stays bounded by the bias response
        sc = StreamConfig(chunk_ms=60)
        s = open_session(model, sc, speaker)
        outs = [s.feed(np.zeros(960, F32)) for _ in range(40)]
        assert max(float(np.abs(o).max()) for o in outs) <= 1.0
        assert np.abs(outs[-1] - outs[-2]).max() <= 1e-4


class TestLifecycle:
    def test_flush_twice_errors(self, model, speaker):
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        s.feed(np.zeros(960, F32))
        s.flush()
        with pytest.raises(StateError):
            s.flush()

    def test_feed_after_flush_errors(self, model, speaker):
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        s.flush()
        with pytest.raises(StateError):
            s.feed(np.zeros(960, F32))

    def test_flush_without_feeding_is_empty(self, model, speaker):
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        assert s.flush().size == 0

    def test_clocks_monotone(self, model, speaker):
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        seen = []
        for k in range(4):
            s.feed(np.zeros(960, F32))
            seen.append((s.samples_in, s.samples_out))
        assert seen == sorted(seen)
        assert seen[-1][0] == 4 * 960


class TestIsolationAndDeterminism:
    def test_two_sessions_bitwise_identical(self, model, speaker):
        wave = random_wave(3, 960 * 8)
        a = _feed_all(open_session(model, StreamConfig(chunk_ms=60), speaker), wave)
        b = _feed_all(open_session(model, StreamConfig(chunk_ms=60), speaker), wave)
        assert np.array_equal(a, b)

    def test_interleaved_sessions_match_serial(self, model, speaker):
        rng = np.random.default_rng(4)
        g2 = rng.normal(0, 1, model.cfg.global_dim).astype(F32)
        w1, w2 = random_wave(5, 960 * 8), random_wave(6, 960 * 8)
        serial1 = _feed_all(open_session(model, StreamConfig(chunk_ms=60), speaker), w1)
        serial2 = _feed_all(open_session(model, StreamConfig(chunk_ms=60), g2), w2)
        sa = open_session(model, StreamConfig(chunk_ms=60), speaker)
        sb = open_session(model, StreamConfig(chunk_ms=60), g2)
        outs_a, outs_b = [], []
        for k in range(8):
            outs_a.append(sa.feed(w1[k * 960:(k + 1) * 960]))
            outs_b.append(sb.feed(w2[k * 960:(k + 1) * 960]))
        outs_a.append(sa.flush())
        outs_b.append(sb.flush())
        assert np.array_equal(np.concatenate(outs_a), serial1)
        assert np.array_equal(np.concatenate(outs_b), serial2)

    def test_state_size_constant_in_stream_length(self, model, speaker):
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        s.feed(np.zeros(960, F32))
        early = s.state_nbytes()
        for _ in range(49):
            s.feed(np.zeros(960, F32))
        assert s.state_nbytes() == early

    def test_sessions_run_on_separate_threads(self, model, speaker):
        # sessions are independently owned: concurrent threads reproduce the
        # serial outputs bitwise (weights shared read-only)
        import threading

        waves = [random_wave(30 + i, 960 * 6) for i in range(3)]
        serial = [_feed_all(open_session(model, StreamConfig(chunk_ms=60), speaker), w)
                  for w in waves]
        results = [None] * 3

        def worker(i):
            results[i] = _feed_all(
                open_session(model, StreamConfig(chunk_ms=60), speaker), waves[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)


class TestLookaheadIsChunkLocal:
    def test_streaming_never_waits_for_future_chunks(self, model, speaker):
        # chunk k's output is already final: appending different future
        # chunks never changes it
        sc = StreamConfig(chunk_ms=60)
        wave = random_wave(7, 960 * 6)
        s1 = open_session(model, sc, speaker)
        outs1 = [s1.feed(wave[k * 960:(k + 1) * 960]) for k in range(6)]
        s2 = open_session(model, sc, speaker)
        outs2 = []
        for k in range(6):
            chunk = wave[k * 960:(k + 1) * 960].copy()
            if k >= 3:
                chunk = -chunk
            outs2.append(s2.feed(chunk))
        for k in range(3):
            assert np.array_equal(outs1[k], outs2[k])
        assert not np.array_equal(outs1[3], outs2[3])


# non-finite samples, and finite ones far above MAX_SAMPLE that overflow
# layer_norm's float32 square
BAD_SAMPLES = [np.nan, np.inf, -np.inf, 1e25, -3e38]


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", BAD_SAMPLES)
    def test_feed_rejects_and_leaves_state_alone(self, model, speaker, bad):
        sc = StreamConfig(chunk_ms=60)
        wave = random_wave(40, 960 * 5)
        clean = open_session(model, sc, speaker)
        want = [clean.feed(wave[k * 960:(k + 1) * 960]) for k in range(5)]
        s = open_session(model, sc, speaker)
        got = [s.feed(wave[k * 960:(k + 1) * 960]) for k in range(2)]
        poisoned = wave[2 * 960:3 * 960].copy()
        poisoned[417] = bad
        with pytest.raises(InputError, match="non-finite"):
            s.feed(poisoned)
        assert (s.samples_in, s.samples_out) == (2 * 960, 2 * 960)
        # the rejected chunk left no trace: the stream continues as if unsent
        got += [s.feed(wave[k * 960:(k + 1) * 960]) for k in range(2, 5)]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", BAD_SAMPLES)
    def test_synthesize_rejects(self, model, speaker, bad):
        wave = random_wave(41, 960 * 2)
        wave[5] = bad
        with pytest.raises(InputError, match="non-finite"):
            synthesize(model, wave, speaker)

    def test_bound_is_max_sample(self):
        assert np.array_equal(as_wave([MAX_SAMPLE, -MAX_SAMPLE]), [MAX_SAMPLE, -MAX_SAMPLE])
        with pytest.raises(InputError, match="non-finite"):
            as_wave([0.0, np.nextafter(F32(MAX_SAMPLE), F32(np.inf))])


class TestNonFiniteWeights:
    """A NaN weight before the VQ is an InputError that points at the weight
    file, offline and in a stream, not a quiet stream of code 0."""

    @pytest.fixture(scope="class", params=NAN_ENCODER_WEIGHTS)
    def nan_model(self, request, cfg, store):
        w = store.get(request.param).copy()
        w.flat[0] = np.nan
        return TvtSynModel.from_store(
            store_of({n: w if n == request.param else store.get(n) for n in store.names()}),
            cfg)

    def test_synthesize_rejects(self, nan_model, speaker):
        with pytest.raises(InputError, match="non-finite VQ latents.*weight file"):
            synthesize(nan_model, random_wave(48, 960 * 2), speaker)

    def test_feed_rejects(self, nan_model, speaker):
        s = open_session(nan_model, StreamConfig(chunk_ms=60), speaker)
        with pytest.raises(InputError, match="non-finite VQ latents.*weight file"):
            s.feed(random_wave(49, 960))

    def test_failed_feed_ends_the_session(self, nan_model, speaker):
        # the encoder has moved its state by then (see TestFailedFeed)
        s = open_session(nan_model, StreamConfig(chunk_ms=60), speaker)
        with pytest.raises(InputError, match="non-finite VQ latents") as first:
            s.feed(random_wave(52, 960))
        assert not isinstance(first.value, StateError)
        why = "session failed at chunk 0: InputError: .*non-finite VQ latents"
        with pytest.raises(StateError, match=why):
            s.feed(random_wave(53, 960))
        with pytest.raises(StateError, match=why):
            s.flush()


class TestFailedFeed:
    """An error after a feed's checks may have moved some state and not the
    rest, so it ends the session: every later feed and flush is a StateError
    that names the failed chunk and the first error (a NaN weight's VQ error
    is in TestNonFiniteWeights)."""

    def test_failure_names_its_chunk(self, model, speaker, monkeypatch):
        from tvtsyn import streaming

        real, calls = streaming.predict_f0_energy, []

        def fail_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise MemoryError("no room")
            return real(*args)

        monkeypatch.setattr(streaming, "predict_f0_energy", fail_third)
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        wave = random_wave(54, 960 * 4)
        for k in range(2):
            s.feed(wave[k * 960:(k + 1) * 960])
        with pytest.raises(MemoryError):
            s.feed(wave[1920:2880])
        # the encoder's clock moved on, the decoder's and the sample count did not
        assert (s.enc_state.cache.next_pos, s.dec_cache.next_pos) == (9, 6)
        assert s.samples_in == 1920
        for call in (lambda: s.feed(wave[2880:]), lambda: s.feed(wave[:7]), s.flush):
            with pytest.raises(StateError, match="chunk 2: MemoryError: no room"):
                call()
        assert len(calls) == 3


class TestEmptyInput:
    def test_synthesize_rejects_before_any_work(self, model, speaker, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("an empty wave must be rejected before encoding")

        monkeypatch.setattr("tvtsyn.model.encode_frames", never_called)
        with pytest.raises(InputError, match="no samples"):
            synthesize(model, np.zeros(0, np.float32), speaker)


class TestBadSpeakerOffline:
    def test_synthesize_rejects_before_any_work(self, model, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("a bad speaker must be rejected before encoding")

        monkeypatch.setattr("tvtsyn.model.encode_frames", never_called)
        with pytest.raises(InputError, match="global timbre vector must have nonzero norm"):
            synthesize(model, random_wave(50, 960), np.zeros(model.cfg.global_dim, F32))


class TestNotOneDimensional:
    """A stereo or batched array is an InputError, never flattened into one
    wave of twice the samples."""

    def test_feed_rejects_stereo_chunk_and_leaves_state_alone(self, model, speaker):
        sc = StreamConfig(chunk_ms=60)
        wave = random_wave(45, 960 * 3)
        clean = open_session(model, sc, speaker)
        want = [clean.feed(wave[k * 960:(k + 1) * 960]) for k in range(3)]
        s = open_session(model, sc, speaker)
        got = [s.feed(wave[:960])]
        # 480 interleaved stereo frames hold 960 values, one mono chunk's worth
        with pytest.raises(InputError, match="1-D"):
            s.feed(wave[960:1920].reshape(480, 2))
        assert (s.samples_in, s.samples_out) == (960, 960)
        got += [s.feed(wave[k * 960:(k + 1) * 960]) for k in range(1, 3)]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_synthesize_rejects(self, model, speaker):
        with pytest.raises(InputError, match="1-D"):
            synthesize(model, random_wave(46, 6400).reshape(2, 3200), speaker)

    def test_stream_file_rejects(self, model, speaker):
        with pytest.raises(InputError, match="1-D"):
            stream_file(model, StreamConfig(chunk_ms=60), speaker,
                        random_wave(47, 6400).reshape(2, 3200))

    def test_two_dimensional_speaker_rejected(self, model, speaker):
        with pytest.raises(InputError, match="1-D"):
            open_session(model, StreamConfig(chunk_ms=60), speaker.reshape(2, -1))
        with pytest.raises(InputError, match="1-D"):
            synthesize(model, random_wave(48, 960), speaker.reshape(2, -1))


class TestF0ScaleOutOfRange:
    # 1e30 overflowed layer_norm's square and normalized the frames to 0;
    # +-1e39 is finite as a float64 but inf as the float32 that scales the f0 stream
    BAD = [np.nan, np.inf, -np.inf, MAX_F0_SCALE * 1.01, 1e30, 3e38, 1e39, -1e39]

    @pytest.mark.parametrize("scale", BAD)
    def test_session_rejects(self, model, speaker, scale):
        with pytest.raises(ConfigError, match="f0_scale"):
            open_session(model, StreamConfig(chunk_ms=60), speaker, f0_scale=scale)

    @pytest.mark.parametrize("scale", BAD)
    def test_synthesize_rejects(self, model, speaker, scale):
        with pytest.raises(ConfigError, match="f0_scale"):
            synthesize(model, random_wave(44, 960), speaker, f0_scale=scale)

    @pytest.mark.parametrize("scale", [-MAX_F0_SCALE, 4.0, MAX_F0_SCALE])
    def test_bound_accepted(self, model, speaker, scale):
        out = synthesize(model, random_wave(44, 960), speaker, f0_scale=scale)
        assert np.isfinite(out).all()


class TestDecoderCnnRunsEachFrameOnce:
    def test_one_apply_per_chunk(self, model, speaker, monkeypatch):
        from tvtsyn.decoder import DecoderCnn

        frames = []
        original = DecoderCnn.apply

        def counted(self, x, states=None):
            frames.append(x.shape[0])
            return original(self, x, states)

        monkeypatch.setattr(DecoderCnn, "apply", counted)
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        for k in range(3):
            s.feed(random_wave(42 + k, 960))
        assert frames == [3, 3, 3]
        s.flush()
        assert frames == [3, 3, 3]

    @pytest.mark.parametrize("hold_ms", [0, 20, 60])
    def test_delay_line_matches_offline(self, model, speaker, hold_ms):
        # no delay line: the last hold_ms of each chunk (what a hold would
        # keep back) already equals offline when its feed returns, and no
        # later feed rewrites an emitted array
        sc = StreamConfig(chunk_ms=60)
        hold = hold_ms * SAMPLE_RATE // 1000
        wave = random_wave(43, 960 * 12)
        offline = synthesize(model, wave, speaker, block_frames=sc.chunk_frames)
        s = open_session(model, sc, speaker)
        outs, snapshots = [], []
        for k in range(12):
            o = s.feed(wave[k * 960:(k + 1) * 960])
            assert o.size == 960
            end = (k + 1) * 960
            assert np.abs(o[960 - hold:] - offline[end - hold:end]).max(initial=0.0) <= 1e-4
            outs.append(o)
            snapshots.append(o.copy())
        assert s.flush().size == 0
        for o, snap in zip(outs, snapshots):
            assert np.array_equal(o, snap)
        assert np.abs(np.concatenate(outs) - offline).max() <= 1e-4


class TestLongStream:
    def test_state_only_where_memory(self, monkeypatch, model, speaker):
        check_state_only_where_memory(monkeypatch, model, speaker)

    def test_state_nbytes_constant_across_ring_wraps(self, model, speaker):
        # 300 chunks = 900 frames, nine times the 100-frame KV window
        s = open_session(model, StreamConfig(chunk_ms=60), speaker)
        s.feed(np.zeros(960, F32))
        sizes = {s.state_nbytes()}
        for k in range(299):
            s.feed(random_wave(k, 960, amp=0.1))
            if k % 25 == 0:
                sizes.add(s.state_nbytes())
        sizes.add(s.state_nbytes())
        assert len(sizes) == 1

    def test_clocks_at_2_31_match_clocks_at_0(self, model, speaker):
        # 50 chunks = 150 frames, so both 103-slot rings wrap. Attention
        # depends only on relative positions, so a stream about 11,900 hours
        # in gives the output of one that starts at frame 0
        wave = random_wave(31, 50 * 960)
        outs = []
        for start in (0, 2 ** 31):
            s = open_session(model, StreamConfig(chunk_ms=60), speaker)
            s.enc_state.cache.next_pos = s.dec_cache.next_pos = start
            outs.append(_feed_all(s, wave))
            assert s.dec_cache.next_pos == start + 150
        np.testing.assert_allclose(outs[1], outs[0], rtol=0, atol=1e-6)


def _snapshot(s):
    """Copies of every piece of a session's mutable state, and its counters."""
    arrays = [state.copy() for state in conv_states(s)]
    for cache in (s.enc_state.cache, s.dec_cache):
        arrays += [cache.k.copy(), cache.v.copy(), cache.pos.copy()]
    counters = (s.enc_state.cache.next_pos, s.dec_cache.next_pos, s.samples_in,
                s.samples_out, s.closed)
    return arrays, counters


def _same_state(a, b):
    return a[1] == b[1] and len(a[0]) == len(b[0]) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a[0], b[0]))


class TestSessionSchedule:
    """Two sessions on one model under a seeded mix of every call a client
    can make, accepted or rejected."""

    def test_interleaved_calls_match_replays(self, model, speaker):
        sc = StreamConfig(chunk_ms=120)  # 6 frames into 106-slot rings
        c = sc.chunk_samples
        rng = np.random.default_rng(2026)
        sessions = [open_session(model, sc, speaker) for _ in range(2)]
        nbytes = sessions[0].state_nbytes()
        fed = [[], []]     # chunks accepted since the session opened
        outs = [[], []]    # what those chunks returned
        wraps = [0, 0]     # ring wraps over the whole schedule
        kinds = ["feed", "short", "long", "nan", "inf", "flush", "reopen"]
        weights = [0.68, 0.07, 0.07, 0.07, 0.07, 0.02, 0.02]

        def check_replay(i):
            replay = open_session(model, sc, speaker)
            got = [replay.feed(chunk) for chunk in fed[i]]
            if sessions[i].closed:
                replay.flush()
            for a, b in zip(got, outs[i]):
                assert np.array_equal(a, b)
            assert _same_state(_snapshot(replay), _snapshot(sessions[i]))

        seen = set()
        for _ in range(800):
            i = int(rng.integers(2))
            s = sessions[i]
            kind = kinds[rng.choice(len(kinds), p=weights)]
            if s.closed and rng.random() < 0.25:  # a closed session is soon reopened
                kind = "reopen"
            seen.add((kind, s.closed))
            chunk = rng.uniform(-0.5, 0.5, c).astype(F32)
            before = _snapshot(s)
            if kind == "reopen":
                check_replay(i)
                s = sessions[i] = open_session(model, sc, speaker)
                fed[i], outs[i] = [], []
            elif kind == "flush" and not s.closed:
                assert s.flush().size == 0
            elif kind == "feed" and not s.closed:
                outs[i].append(s.feed(chunk))
                fed[i].append(chunk)
                slots = s.dec_cache.pos.shape[0]
                pos = s.dec_cache.next_pos
                wraps[i] += pos // slots > (pos - sc.chunk_frames) // slots
            else:  # a rejected call, which must leave no trace
                if kind in ("short", "long"):
                    chunk = rng.uniform(-0.5, 0.5, c - 320 if kind == "short" else c + 320)
                elif kind in ("nan", "inf"):
                    chunk[int(rng.integers(c))] = np.nan if kind == "nan" else np.inf
                with pytest.raises(StateError if s.closed else InputError):
                    s.flush() if kind == "flush" else s.feed(chunk)
                assert _same_state(_snapshot(s), before)
            assert s.state_nbytes() == nbytes
        for i in range(2):
            check_replay(i)
            assert wraps[i] >= 5
        assert {(kind, False) for kind in kinds} | {("feed", True)} <= seen
