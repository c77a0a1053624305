"""Metric tests: latency report arithmetic from fixed chunk times, the
bench run's input checks, and causality-probe liveness.
"""

import numpy as np
import pytest

from conftest import random_wave, remove_lookahead_mask
from tvtsyn import metrics
from tvtsyn.config import FRAME_HOP, MAX_LOOKAHEAD, StreamConfig
from tvtsyn.errors import ConfigError, InputError
from tvtsyn.metrics import (MEASURED_UTTERANCES, PROBE_CONTROL_FRAMES, WARMUP_UTTERANCES,
                            causality_probe, latency_bench, latency_report, probe_influence)
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

    def test_mask_removal_mutation_detected(self, model, speaker, monkeypatch):
        # synth sees far future while the probe expects a strict horizon
        remove_lookahead_mask(monkeypatch)
        broken = lambda w: synthesize(model, w, speaker, lookahead=0)
        rep = causality_probe(broken, 0, trials=10, seed=1)
        assert len(rep["violations"]) >= 1

    def test_in_horizon_influence_detected(self, model, speaker):
        fn = lambda w: synthesize(model, w, speaker, lookahead=4)
        assert probe_influence(fn, 4, trials=15, seed=5) >= 1

    def test_in_horizon_influence_absent_without_lookahead(self, model, speaker):
        # the same trials as above see nothing when synthesis ignores the look-ahead
        fn = lambda w: synthesize(model, w, speaker, lookahead=0)
        assert probe_influence(fn, 4, trials=15, seed=5) == 0

    @pytest.mark.parametrize("la", [0, 1, 4])
    def test_control_redraw_changes_every_trial(self, model, speaker, la):
        # a blind-probe check that fails a working model would be noise
        fn = lambda w: synthesize(model, w, speaker, lookahead=la)
        assert causality_probe(fn, la, trials=10, seed=1)["influenced"] == 10

    def test_one_draw_per_trial_three_syntheses(self):
        # the horizon redraw and the control redraw share the trial's wave
        # and cut; the unperturbed wave is synthesized once
        waves = []

        def record(wave):
            waves.append(wave.copy())
            return wave

        rep = causality_probe(record, 4, trials=6, seed=0)
        assert len(waves) == 18
        for trial in range(6):
            base, poked, control = waves[3 * trial:3 * trial + 3]
            assert base.size == poked.size == control.size
            changed = np.flatnonzero(poked != base)
            redrawn = np.flatnonzero(control != base)
            t_horizon = (changed[0] - 1) // FRAME_HOP - 4
            t_control = (redrawn[0] - 1) // FRAME_HOP + PROBE_CONTROL_FRAMES
            assert t_horizon == t_control >= PROBE_CONTROL_FRAMES
        # output equal to the input: the horizon redraw is clean, the
        # control redraw is seen in every trial
        assert rep["clean"] and rep["influenced"] == 6

    @pytest.mark.parametrize("probe", [causality_probe, probe_influence])
    @pytest.mark.parametrize("trials", [0, -1, 2.5, True])
    def test_no_trials_rejected(self, probe, trials):
        # 2.5 used to run 2 trials and True 1
        def never_called(wave):
            raise AssertionError("a probe with no trials must not synthesize")

        with pytest.raises(ConfigError, match="trials"):
            probe(never_called, 0, trials=trials, seed=1)

    # 2.7, "3" and True used to run as seeds 2, 3 and 1; -1 and None raised
    # numpy's ValueError and TypeError
    @pytest.mark.parametrize("probe", [causality_probe, probe_influence])
    @pytest.mark.parametrize("seed", [
        pytest.param(2.7, id="float"), pytest.param("3", id="str"), pytest.param(True, id="bool"),
        pytest.param(-1, id="negative"), pytest.param(None, id="None")])
    def test_seed_that_is_not_an_int_from_0_rejected(self, probe, seed):
        def never_called(wave):
            raise AssertionError("a rejected probe must not synthesize")

        with pytest.raises(ConfigError, match=f"seed must be an int >= 0, got {seed!r}"):
            probe(never_called, 0, trials=1, seed=seed)

    @pytest.mark.parametrize("probe", [causality_probe, probe_influence])
    @pytest.mark.parametrize("lookahead", [-3, -1, MAX_LOOKAHEAD + 1, 7, 14, 2.5, True])
    def test_lookahead_out_of_range_rejected(self, probe, lookahead):
        def never_called(wave):
            raise AssertionError("a rejected probe must not synthesize")

        with pytest.raises(ConfigError, match="lookahead"):
            probe(never_called, lookahead, trials=40, seed=0)
