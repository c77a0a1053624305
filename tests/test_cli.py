"""CLI tests: every subcommand end-to-end on a reduced config, exit codes,
and the WAV / speaker-vector / JSON external interfaces.
"""

import errno
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from conftest import random_wave
from tvtsyn import model as model_mod
from tvtsyn import wavio
from tvtsyn.cli import run
from tvtsyn.config import config_to_text, save_config
from tvtsyn.errors import InputError

F32 = np.float32


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, cfg):
    d = tmp_path_factory.mktemp("cli")
    save_config(cfg, d / "model.cfg")
    t = np.arange(48000) / 16000.0
    tone = (0.4 * np.sin(2 * np.pi * 220.0 * t)).astype(F32)
    wavio.write_wav(d / "in.wav", tone)
    rng = np.random.default_rng(0)
    rng.normal(0, 1, cfg.global_dim).astype("<f4").tofile(d / "spk.f32")
    code = run(["init-weights", "--seed", "1", "--config", str(d / "model.cfg"),
                "--out", str(d / "w.tvtw")])
    assert code == 0
    return d


def _margs(d, *extra):
    return ["--weights", str(d / "w.tvtw"), "--config", str(d / "model.cfg"), *extra]


def _wav_bytes(n_frames, data):
    """A 16 kHz mono PCM16 WAV whose header declares n_frames frames, followed
    by `data` as the data chunk's payload, whatever its length."""
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 2 * n_frames) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestInitWeights:
    def test_deterministic_file(self, workdir):
        run(["init-weights", "--seed", "1", "--config", str(workdir / "model.cfg"),
             "--out", str(workdir / "w2.tvtw")])
        assert (workdir / "w.tvtw").read_bytes() == (workdir / "w2.tvtw").read_bytes()

    def test_config_too_large_to_allocate_is_config_error(self, workdir, tmp_path,
                                                          monkeypatch, capsys):
        # the draw fails as numpy's allocation would, without asking the OS for memory
        def draw_fails(self, name, shape=None):
            raise MemoryError(f"Unable to allocate 64.0 TiB for an array with shape {shape}")

        monkeypatch.setattr(model_mod._Source, "get", draw_fails)
        code = run(["init-weights", "--config", str(workdir / "model.cfg"),
                    "--out", str(tmp_path / "w.tvtw")])
        assert code == 2 and not (tmp_path / "w.tvtw").exists()
        err = capsys.readouterr().err
        assert str(workdir / "model.cfg") in err and "too large to allocate" in err

    @pytest.mark.parametrize("fault", ["unwritable directory", "disk full"])
    def test_failed_write_exits_1_and_leaves_no_temporary(self, workdir, tmp_path,
                                                          monkeypatch, capsys, fault):
        out = tmp_path / "w.tvtw"
        out.write_bytes(b"old")
        real_write = Path.write_bytes

        def failing_write(path, data):
            if fault == "disk full":  # the temporary file is half written first
                real_write(path, data[:len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        monkeypatch.setattr(Path, "write_bytes", failing_write)
        code = run(["init-weights", "--config", str(workdir / "model.cfg"),
                    "--out", str(out)])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err
        assert out.read_bytes() == b"old" and sorted(tmp_path.iterdir()) == [out]


class TestUnreadableWeights:
    def test_directory_is_input_error(self, tmp_path, capsys):
        assert run(["bench", "--weights", str(tmp_path), "--synthetic", "1"]) == 1
        assert "cannot read weight file" in capsys.readouterr().err


class TestConfigFile:
    """init-weights --config: a bad value is a config error (exit 2), a
    malformed file an input error (exit 1)."""

    def _init(self, tmp_path, text):
        path = tmp_path / "model.cfg"
        path.write_text(text)
        return run(["init-weights", "--seed", "1", "--config", str(path),
                    "--out", str(tmp_path / "w.tvtw")])

    def test_legacy_keys_at_fixed_values(self, workdir, cfg, tmp_path):
        text = config_to_text(cfg) + ("sample_rate = 16000\nvq_dim = 8\ncodebook_size = 4096\n"
                                      "vq_l2_normalize = true\ndecoder_strides = 2,4,5,8\n")
        assert self._init(tmp_path, text) == 0
        assert (tmp_path / "w.tvtw").read_bytes() == (workdir / "w.tvtw").read_bytes()

    @pytest.mark.parametrize("line", [
        "sample_rate = 8000", "vq_l2_normalize = false", "codebook_size = 2048",
        "decoder_strides = 8,5,4,2"])
    def test_legacy_key_at_another_value(self, cfg, tmp_path, line):
        assert self._init(tmp_path, config_to_text(cfg) + line + "\n") == 2

    @pytest.mark.parametrize("key,value", [("n_heads", "0"), ("layer_scale", "nan"),
                                           ("vq_commitment", "inf")])
    def test_bad_value(self, cfg, tmp_path, capsys, key, value):
        if key == "vq_commitment":  # a legacy key, so not in config_to_text
            text = config_to_text(cfg) + f"{key} = {value}\n"
        else:
            text = config_to_text(cfg).replace(f"{key} = {getattr(cfg, key)}", f"{key} = {value}")
        assert self._init(tmp_path, text) == 2
        assert key in capsys.readouterr().err

    def test_duplicate_key(self, cfg, tmp_path, capsys):
        assert self._init(tmp_path, config_to_text(cfg) + "d_model = 64\n") == 1
        assert "twice" in capsys.readouterr().err


class TestOutputIntoMissingDirectory:
    """An --out path whose directory does not exist is an input error (exit 1)."""

    def test_init_weights(self, workdir, tmp_path):
        assert run(["init-weights", "--config", str(workdir / "model.cfg"),
                    "--out", str(tmp_path / "nodir" / "w.tvtw")]) == 1

    def test_synth(self, workdir, tmp_path, capsys):
        assert run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"),
                    "--out", str(tmp_path / "nodir" / "x.wav")]) == 1
        assert "Wave_write" not in capsys.readouterr().err

    def test_stream(self, workdir, tmp_path):
        assert run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"),
                    "--out", str(tmp_path / "nodir" / "x.wav")]) == 1

    def test_bench(self, workdir, tmp_path):
        assert run(["bench", *_margs(workdir), "--synthetic", "1", "--utt-seconds", "0.12",
                    "--out", str(tmp_path / "nodir" / "r.json")]) == 1

    def test_dump_tvt(self, workdir, tmp_path):
        assert run(["dump-tvt", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"),
                    "--out", str(tmp_path / "nodir" / "t.jsonl")]) == 1


class TestSynth:
    def test_three_second_wav_round_trip(self, workdir):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(workdir / "synth.wav")])
        assert code == 0
        out = wavio.read_wav(workdir / "synth.wav")
        assert out.shape == (48000,)

    def test_f0_scale_changes_output(self, workdir):
        run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
             "--in", str(workdir / "in.wav"), "--out", str(workdir / "s1.wav"),
             "--f0-scale", "4.0"])
        a = wavio.read_wav(workdir / "synth.wav")
        b = wavio.read_wav(workdir / "s1.wav")
        assert np.abs(a - b).max() > 0

    def test_bad_speaker_length_is_input_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.f32"
        np.zeros(7, "<f4").tofile(bad)
        code = run(["synth", *_margs(workdir), "--speaker", str(bad),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1

    @pytest.mark.parametrize("n_bytes", [5, 4 * 7 + 1])
    def test_speaker_size_not_whole_floats_is_input_error(self, workdir, tmp_path,
                                                          capsys, n_bytes):
        bad = tmp_path / "bad.f32"
        bad.write_bytes(b"\x01" * n_bytes)
        code = run(["synth", *_margs(workdir), "--speaker", str(bad),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1
        assert f"{n_bytes} bytes" in capsys.readouterr().err

    def test_missing_wav_is_input_error(self, workdir, tmp_path):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1

    def test_missing_weights_is_input_error(self, workdir, tmp_path):
        code = run(["synth", "--weights", str(tmp_path / "nope.tvtw"),
                    "--config", str(workdir / "model.cfg"),
                    "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1

    def test_missing_config_is_input_error(self, workdir, tmp_path):
        code = run(["synth", "--weights", str(workdir / "w.tvtw"),
                    "--config", str(tmp_path / "nope.cfg"),
                    "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1

    def test_binary_config_is_input_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe\x00d_model = 64\n")
        code = run(["synth", "--weights", str(workdir / "w.tvtw"), "--config", str(bad),
                    "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1

    def test_missing_config_for_init_weights_is_input_error(self, tmp_path):
        code = run(["init-weights", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "w.tvtw")])
        assert code == 1

    def test_infinite_block_is_config_error(self, workdir, tmp_path, capsys):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--block-ms", "inf"])
        assert code == 2
        assert "--block-ms" in capsys.readouterr().err

    def test_oversized_block_is_config_error(self, workdir, tmp_path, capsys):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--block-ms", "1e300"])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        assert "--block-ms" in capsys.readouterr().err

    def test_unaligned_block_is_config_error(self, workdir, tmp_path, capsys):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--block-ms", "50"])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        err = capsys.readouterr().err
        assert "--block-ms=50.0 is not frame-aligned" in err and "chunk_ms" not in err

    def test_non_finite_f0_scale_is_config_error(self, workdir, tmp_path):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--f0-scale", "nan"])
        assert code == 2 and not (tmp_path / "x.wav").exists()

    def test_f0_scale_beyond_float32_is_config_error(self, workdir, tmp_path, capsys):
        # finite as a float64, but inf once cast to float32: it would write silence
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--f0-scale", "1e39"])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        assert "f0_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["33", "1e30", "-3e38"])
    def test_f0_scale_beyond_pitch_bound_is_config_error(self, workdir, tmp_path, capsys,
                                                         scale):
        # 1e30 used to overflow layer_norm and write a changed WAV with exit 0
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    f"--f0-scale={scale}"])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        assert "f0_scale must be finite with magnitude <= 32" in capsys.readouterr().err

    def test_empty_wav_is_input_error(self, workdir, tmp_path, capsys):
        wavio.write_wav(tmp_path / "empty.wav", np.zeros(0, F32))
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(tmp_path / "empty.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1 and not (tmp_path / "x.wav").exists()
        assert "no samples" in capsys.readouterr().err


class TestStream:
    def test_stream_matches_masked_synth(self, workdir):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(workdir / "st.wav"),
                    "--chunk-ms", "60"])
        assert code == 0
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(workdir / "sy.wav"),
                    "--block-ms", "60"])
        assert code == 0
        a = wavio.read_wav(workdir / "st.wav")
        b = wavio.read_wav(workdir / "sy.wav")
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-4

    def test_per_chunk_timing_log(self, workdir, tmp_path, capsys):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--chunk-ms", "120"])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"chunk {k}" for k in range(25)]
        assert all(line.endswith(" ms") for line in lines)
        assert captured.out.startswith("streamed 25 chunks of 120.0 ms, mean processing ")

    def test_misaligned_chunk_is_config_error(self, workdir, tmp_path, capsys):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--chunk-ms", "50"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--chunk-ms=50.0 is not frame-aligned" in err and "chunk_ms" not in err

    @pytest.mark.parametrize("chunk_ms", ["nan", "inf"])
    def test_non_finite_chunk_is_config_error(self, workdir, tmp_path, chunk_ms):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--chunk-ms", chunk_ms])
        assert code == 2

    @pytest.mark.parametrize("chunk_ms", ["1e300", "6.4e17"])
    def test_oversized_chunk_is_config_error(self, workdir, tmp_path, chunk_ms):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--chunk-ms", chunk_ms])
        assert code == 2 and not (tmp_path / "x.wav").exists()


    def test_non_finite_f0_scale_is_config_error(self, workdir, tmp_path):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--f0-scale", "inf"])
        assert code == 2 and not (tmp_path / "x.wav").exists()

    def test_f0_scale_beyond_float32_is_config_error(self, workdir, tmp_path, capsys):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--f0-scale=-1e39"])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        assert "f0_scale" in capsys.readouterr().err

    def test_f0_scale_beyond_pitch_bound_is_config_error(self, workdir, tmp_path):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--f0-scale", "1e30"])
        assert code == 2 and not (tmp_path / "x.wav").exists()


class TestBench:
    def test_synthetic_report(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        code = run(["bench", *_margs(workdir), "--chunk-ms", "60",
                    "--synthetic", "110", "--utt-seconds", "0.3",
                    "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["measured_count"] == 100
        assert len(rep["utterances"]) == 100
        assert rep["cycled"] is False
        assert isinstance(rep["realtime"], bool)

    def test_wav_directory_input(self, workdir, tmp_path):
        d = tmp_path / "utts"
        d.mkdir()
        for i in range(3):
            wavio.write_wav(d / f"u{i}.wav", random_wave(i, 960 * 4))
        out = tmp_path / "report.json"
        code = run(["bench", *_margs(workdir), "--chunk-ms", "60",
                    "--utterances", str(d), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["cycled"] is True

    @pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1", "1e15"])
    def test_bad_utt_seconds_is_config_error(self, workdir, seconds):
        assert run(["bench", *_margs(workdir), "--utt-seconds", seconds]) == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_synthetic_utterances_is_config_error(self, tmp_path, capsys, count):
        # checked before the weights are read: the weight path does not exist
        assert run(["bench", "--weights", str(tmp_path / "missing.tvtw"),
                    "--synthetic", count]) == 2
        assert "--synthetic" in capsys.readouterr().err

    def test_misaligned_chunk_is_config_error(self, tmp_path, capsys):
        # checked before the weights are read: the weight path does not exist
        assert run(["bench", "--weights", str(tmp_path / "missing.tvtw"),
                    "--chunk-ms", "50"]) == 2
        err = capsys.readouterr().err
        assert "--chunk-ms=50.0 is not frame-aligned" in err and "chunk_ms" not in err

    def test_empty_directory_is_input_error(self, workdir, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert run(["bench", *_margs(workdir), "--utterances", str(d)]) == 1


class TestProbe:
    def test_clean_probe_exit_zero(self, workdir):
        assert run(["probe", *_margs(workdir), "--lookahead", "4",
                    "--trials", "5", "--seed", "3"]) == 0

    def test_zero_trials_is_config_error(self, workdir, capsys):
        assert run(["probe", *_margs(workdir), "--trials", "0"]) == 2
        assert '"clean"' not in capsys.readouterr().out

    def test_zero_trials_checked_before_load(self, tmp_path, capsys):
        # as --seed is: the weight path does not exist
        assert run(["probe", "--weights", str(tmp_path / "missing.tvtw"),
                    "--trials", "0"]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err


class TestNegativeSeed:
    """A negative --seed is a configuration error, raised before the command
    reads or writes anything: the weight paths below do not exist."""

    def test_init_weights(self, tmp_path, capsys):
        out = tmp_path / "w.tvtw"
        assert run(["init-weights", "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "--seed" in capsys.readouterr().err

    def test_bench(self, tmp_path, capsys):
        assert run(["bench", "--weights", str(tmp_path / "missing.tvtw"),
                    "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_probe(self, tmp_path, capsys):
        assert run(["probe", "--weights", str(tmp_path / "missing.tvtw"),
                    "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err


class TestDumpTvt:
    def test_jsonl_schema(self, workdir, tmp_path):
        out = tmp_path / "tvt.jsonl"
        code = run(["dump-tvt", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 150  # one per frame of the 3 s input
        rec = json.loads(lines[0])
        assert set(rec) == {"frame", "alpha", "top1", "weights"}
        assert 0.0 <= rec["alpha"] <= 1.0
        assert len(rec["weights"]) == 8  # gtm_slots in the test config
        assert abs(sum(rec["weights"]) - 1.0) < 1e-5

    def test_empty_wav_is_input_error(self, workdir, tmp_path, capsys):
        wavio.write_wav(tmp_path / "empty.wav", np.zeros(0, F32))
        code = run(["dump-tvt", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(tmp_path / "empty.wav"), "--out", str(tmp_path / "t.jsonl")])
        assert code == 1 and not (tmp_path / "t.jsonl").exists()
        assert "no samples" in capsys.readouterr().err


class TestWavIo:
    def test_round_trip_bit_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        wavio.write_wav(p1, random_wave(0, 12345, amp=1.2))  # clipping exercised
        wavio.write_wav(p2, wavio.read_wav(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_rate_rejected(self, tmp_path):
        import wave as wv

        p = tmp_path / "w.wav"
        with wv.open(str(p), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00\x00" * 100)
        with pytest.raises(Exception, match="16000"):
            wavio.read_wav(p)

    def test_stereo_rejected(self, tmp_path):
        import wave as wv

        p = tmp_path / "s.wav"
        with wv.open(str(p), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00\x00\x00" * 100)
        with pytest.raises(Exception, match="mono"):
            wavio.read_wav(p)

    @pytest.mark.parametrize("data_bytes", [403, 400])
    def test_truncated_data_chunk_rejected(self, tmp_path, data_bytes):
        p = tmp_path / "t.wav"
        p.write_bytes(_wav_bytes(9600, b"\x00" * data_bytes))
        with pytest.raises(InputError, match="truncated"):
            wavio.read_wav(p)
