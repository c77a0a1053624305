"""Metric tests: latency report arithmetic with a mocked clock and
causality-probe liveness.
"""

import numpy as np
import pytest

from conftest import random_wave
from tvtsyn.config import MAX_LOOKAHEAD, StreamConfig
from tvtsyn.errors import ConfigError, InputError
from tvtsyn.metrics import causality_probe, latency_bench, probe_influence
from tvtsyn.model import synthesize
from tvtsyn.streaming import open_session

F32 = np.float32


class MockSession:
    def feed(self, chunk):
        pass


def mock_clock(step_seconds):
    """Returns 0.0, step, 0.0, step, ... so every (t1 - t0) is exactly step."""
    calls = {"n": 0}

    def clock():
        calls["n"] += 1
        return 0.0 if calls["n"] % 2 else step_seconds

    return clock


class TestLatencyBench:
    def test_table_arithmetic_with_mocked_timer(self):
        utts = [np.zeros(960 * 5, F32) for _ in range(3)]
        rep = latency_bench(lambda: MockSession(), utts, 60.0,
                            clock=mock_clock(18.51 / 1000.0))
        assert rep["latency_ms_mean"] == 78.51
        assert rep["rtf_mean"] == pytest.approx(18.51 / 60.0, abs=1e-12)
        assert int(rep["rtf_mean"] * 1000) / 1000 == 0.308
        assert rep["measured_count"] == 100
        assert rep["cycled"] is True
        assert len(rep["utterances"]) == 100

    def test_zero_processing_latency_is_chunk(self):
        utts = [np.zeros(960 * 2, F32)] * 3
        rep = latency_bench(lambda: MockSession(), utts, 60.0, clock=lambda: 0.0)
        assert rep["latency_ms_mean"] == 60.0
        assert rep["rtf_mean"] == 0.0
        assert rep["realtime"] is True

    def test_realtime_flag_definition(self):
        utts = [np.zeros(960, F32)] * 3
        slow = latency_bench(lambda: MockSession(), utts, 60.0,
                             clock=mock_clock(0.12))  # 120 ms per 60 ms chunk
        assert slow["realtime"] is False
        assert slow["rtf_mean"] == pytest.approx(2.0)

    def test_real_clock_on_sessions(self, model, speaker):
        sc = StreamConfig(chunk_ms=60)
        utts = [random_wave(s, 960 * 3) for s in range(4)]
        rep = latency_bench(lambda: open_session(model, sc, speaker), utts, 60.0,
                            warmup=2, measured=6)
        assert rep["measured_count"] == 6
        assert rep["latency_ms_mean"] > 60.0
        assert rep["rtf_mean"] > 0.0
        assert isinstance(rep["realtime"], bool)

    def test_report_schema(self):
        rep = latency_bench(lambda: MockSession(), [np.zeros(960, F32)], 60.0,
                            warmup=1, measured=2, clock=lambda: 0.0)
        assert set(rep) >= {"chunk_ms", "latency_ms_mean", "rtf_mean",
                            "utterances", "warmup_count", "measured_count",
                            "cycled", "realtime"}
        assert set(rep["utterances"][0]) == {"latency_ms", "rtf"}

    @pytest.mark.parametrize("shape", [(2, 1920), (1920, 2), (1, 960)])
    def test_utterance_not_1d_rejected(self, shape):
        # a (2, 1920) utterance used to be fed as four 960-sample mono chunks
        fed = []

        class Recording:
            def feed(self, chunk):
                fed.append(chunk)

        with pytest.raises(InputError, match="1-D"):
            latency_bench(lambda: Recording(), [np.zeros(960, F32), np.zeros(shape, F32)],
                          60.0, warmup=0, measured=2)
        assert not fed  # rejected before any session runs

    def test_empty_utterances_rejected(self):
        with pytest.raises(InputError):
            latency_bench(lambda: MockSession(), [], 60.0)


class TestCausalityProbe:
    def test_clean_at_both_lookaheads(self, model, speaker):
        for la in (0, 4):
            rep = causality_probe(lambda w: synthesize(model, w, speaker, lookahead=la),
                                  la, trials=10, seed=1)
            assert rep["clean"] and rep["violations"] == []

    def test_mask_removal_mutation_detected(self, model, speaker):
        # synth sees far future while the probe expects a strict horizon
        broken = lambda w: synthesize(model, w, speaker, lookahead=500)
        rep = causality_probe(broken, 0, trials=10, seed=1)
        assert len(rep["violations"]) >= 1

    def test_in_horizon_influence_detected(self, model, speaker):
        fn = lambda w: synthesize(model, w, speaker, lookahead=4)
        assert probe_influence(fn, 4, trials=15, seed=5) >= 1

    @pytest.mark.parametrize("probe", [causality_probe, probe_influence])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, probe, trials):
        def never_called(wave):
            raise AssertionError("a probe with no trials must not synthesize")

        with pytest.raises(ConfigError, match="trials"):
            probe(never_called, 0, trials=trials, seed=1)

    @pytest.mark.parametrize("probe", [causality_probe, probe_influence])
    @pytest.mark.parametrize("lookahead", [-3, -1, MAX_LOOKAHEAD + 1, 7, 14])
    def test_lookahead_out_of_range_rejected(self, probe, lookahead):
        def never_called(wave):
            raise AssertionError("a rejected probe must not synthesize")

        with pytest.raises(ConfigError, match="lookahead"):
            probe(never_called, lookahead, trials=40, seed=0)
