"""Metric tests: latency report arithmetic from fixed chunk times, the
bench run's input checks, and causality-probe liveness.
"""

import numpy as np
import pytest

from conftest import random_wave
from tvtsyn import metrics
from tvtsyn.config import MAX_LOOKAHEAD, StreamConfig
from tvtsyn.errors import ConfigError, InputError
from tvtsyn.metrics import (MEASURED_UTTERANCES, WARMUP_UTTERANCES, causality_probe,
                            latency_bench, latency_report, probe_influence)
from tvtsyn.model import synthesize

F32 = np.float32
RUN = WARMUP_UTTERANCES + MEASURED_UTTERANCES


class TestLatencyReport:
    def test_table_arithmetic(self):
        rep = latency_report([[18.51] * 5] * RUN, 60.0, cycled=True)
        assert rep["latency_ms_mean"] == 78.51
        assert rep["rtf_mean"] == pytest.approx(18.51 / 60.0, abs=1e-12)
        assert int(rep["rtf_mean"] * 1000) / 1000 == 0.308
        assert rep["measured_count"] == 100
        assert rep["cycled"] is True
        assert len(rep["utterances"]) == 100

    def test_zero_processing_latency_is_chunk(self):
        rep = latency_report([[0.0, 0.0]] * RUN, 60.0, cycled=True)
        assert rep["latency_ms_mean"] == 60.0
        assert rep["rtf_mean"] == 0.0
        assert rep["realtime"] is True

    def test_realtime_flag_definition(self):
        slow = latency_report([[120.0]] * RUN, 60.0, cycled=True)  # 120 ms per 60 ms chunk
        assert slow["realtime"] is False
        assert slow["rtf_mean"] == pytest.approx(2.0)

    def test_warmup_utterances_dropped(self):
        # a slow first utterance and chunk is what the warm-up absorbs
        times = [[1000.0, 1000.0]] * WARMUP_UTTERANCES + [[10.0, 20.0]] * MEASURED_UTTERANCES
        rep = latency_report(times, 60.0, cycled=False)
        assert rep["warmup_count"] == WARMUP_UTTERANCES
        assert rep["latency_ms_mean"] == 75.0
        assert rep["rtf_mean"] == pytest.approx(0.25)

    def test_report_schema(self):
        rep = latency_report([[0.0]] * RUN, 60.0, cycled=False)
        assert set(rep) == {"chunk_ms", "latency_ms_mean", "rtf_mean",
                            "utterances", "warmup_count", "measured_count",
                            "cycled", "realtime"}
        assert set(rep["utterances"][0]) == {"latency_ms", "rtf"}


class TestLatencyBench:
    def test_times_each_whole_chunk(self, model, speaker, monkeypatch):
        # utterances are cut to whole chunks and each is streamed once
        streamed = []
        stream_file = metrics.stream_file

        def recording(*args):
            streamed.append(args[3].size)
            return stream_file(*args)

        monkeypatch.setattr(metrics, "stream_file", recording)
        utts = [random_wave(s, 960 * 2 + 500) for s in range(3)]
        rep = latency_bench(model, StreamConfig(chunk_ms=60), speaker, utts)
        assert streamed == [1920] * RUN
        assert rep["measured_count"] == MEASURED_UTTERANCES and rep["cycled"] is True
        assert rep["latency_ms_mean"] > 60.0 and rep["rtf_mean"] > 0.0

    @pytest.mark.parametrize("shape", [(2, 1920), (1920, 2), (1, 960)])
    def test_utterance_not_1d_rejected(self, model, speaker, shape, monkeypatch):
        # a (2, 1920) utterance used to be fed as four 960-sample mono chunks
        monkeypatch.setattr(metrics, "stream_file", None)  # rejected before any stream runs
        with pytest.raises(InputError, match="1-D"):
            latency_bench(model, StreamConfig(chunk_ms=60), speaker,
                          [np.zeros(960, F32), np.zeros(shape, F32)])

    def test_utterance_shorter_than_a_chunk_rejected(self, model, speaker, monkeypatch):
        monkeypatch.setattr(metrics, "stream_file", None)
        with pytest.raises(InputError, match="shorter than one 60"):
            latency_bench(model, StreamConfig(chunk_ms=60), speaker,
                          [np.zeros(960, F32), np.zeros(959, F32)])

    def test_empty_utterances_rejected(self, model, speaker):
        with pytest.raises(InputError):
            latency_bench(model, StreamConfig(chunk_ms=60), speaker, [])


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
