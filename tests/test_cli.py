"""CLI tests: every subcommand end-to-end on a reduced config, exit codes,
and the WAV / speaker-vector / JSON external interfaces.
"""

import dataclasses
import errno
import json
import os
import re
import resource
import struct
import subprocess
import sys
import threading
import warnings
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import (NAN_ENCODER_WEIGHTS, REMOVED_CONFIG_KEYS, kernel_major_up_weights,
                      random_wave, store_of)
from tvtsyn import cli, wavio
from tvtsyn import model as model_mod
from tvtsyn.cli import run
from tvtsyn.config import MAX_SPAN_SECONDS, config_to_text, save_config
from tvtsyn.errors import InputError
from tvtsyn.weights import load_weights, save_weights

F32 = np.float32

# a span that is not a positive whole number of 20 ms frames, and what the
# error says about it
BAD_SPANS = [pytest.param(ms, message, id=ms) for ms, message in (
    ("50", "=50.0 is not frame-aligned"), ("0", " must be a real number in [20, 60000], got 0.0"),
    ("-20", " must be a real number in [20, 60000], got -20.0"))]


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


@pytest.fixture(scope="module")
def over_limit_wav(workdir):
    """A WAV one 320-sample frame longer than the offline limit."""
    path = workdir / "long.wav"
    wavio.write_wav(path, random_wave(3, int(MAX_SPAN_SECONDS * 16000) + 320))
    return path


def _margs(d, *extra):
    return ["--weights", str(d / "w.tvtw"), "--config", str(d / "model.cfg"), *extra]


def _with_entries(workdir, path, **changed):
    """The workdir weights with the `changed` entries, saved at `path`."""
    store = load_weights(workdir / "w.tvtw")
    save_weights(store_of({n: changed.get(n, store.get(n)) for n in store.names()}), path)
    return path


@pytest.fixture(scope="module")
def nan_weights(workdir):
    """The workdir weights with a NaN output bias, so every output sample is NaN."""
    bias = load_weights(workdir / "w.tvtw").get("decoder.cnn.conv_out.bias")
    return _with_entries(workdir, workdir / "nan.tvtw",
                         **{"decoder.cnn.conv_out.bias": np.full_like(bias, np.nan)})


def _rejects_non_finite_output(workdir, weights, tmp_path, capsys, command, *extra):
    out = tmp_path / "x.wav"
    code = run([command, "--weights", str(weights),
                "--config", str(workdir / "model.cfg"), "--speaker", str(workdir / "spk.f32"),
                "--in", str(workdir / "in.wav"), "--out", str(out), *extra])
    assert code == 1
    assert "48000 of 48000 samples are non-finite" in capsys.readouterr().err
    assert not out.exists()


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

    @pytest.mark.parametrize("change", [{"d_model": 1 << 62}, {"ffn_dim": 10 ** 23}],
                             ids=["d_model", "ffn_dim"])
    def test_tensor_past_the_address_space_is_config_error(self, cfg, tmp_path, capsys,
                                                           change):
        # numpy raises a ValueError for such a shape, which used to escape
        save_config(dataclasses.replace(cfg, **change), tmp_path / "huge.cfg")
        code = run(["init-weights", "--config", str(tmp_path / "huge.cfg"),
                    "--out", str(tmp_path / "w.tvtw")])
        assert code == 2 and not (tmp_path / "w.tvtw").exists()
        assert "too large to allocate: cannot allocate" in capsys.readouterr().err

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
        real_open = Path.open

        class FullDisk:
            """A file that takes 4096 bytes, then fails as a full disk does."""

            def __init__(self, f):
                self.f, self.room = f, 4096

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def tell(self):
                return self.f.tell()

            def write(self, data):
                data = memoryview(data).cast("B")
                self.f.write(data[:self.room])
                if len(data) > self.room:  # the temporary file is part written first
                    self.room = 0
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                self.room -= len(data)

        def failing_open(path, mode="r", *args, **kwargs):
            if "w" not in mode:
                return real_open(path, mode, *args, **kwargs)
            if fault == "disk full":
                return FullDisk(real_open(path, mode, *args, **kwargs))
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        monkeypatch.setattr(Path, "open", failing_open)
        code = run(["init-weights", "--config", str(workdir / "model.cfg"),
                    "--out", str(out)])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err
        assert out.read_bytes() == b"old" and sorted(tmp_path.iterdir()) == [out]


class TestUnreadableWeights:
    def test_directory_is_input_error(self, tmp_path, capsys):
        assert run(["bench", "--weights", str(tmp_path)]) == 1
        assert "cannot read weight file" in capsys.readouterr().err

    def test_version_1_file_is_input_error(self, workdir, tmp_path, capsys):
        # the version is checked before any entry, so the rest of the file
        # need not be version 1 layout
        blob = bytearray((workdir / "w.tvtw").read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        (tmp_path / "v1.tvtw").write_bytes(blob)
        code = run(["synth", "--weights", str(tmp_path / "v1.tvtw"),
                    "--config", str(workdir / "model.cfg"), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1 and not (tmp_path / "x.wav").exists()
        err = capsys.readouterr().err
        assert err.startswith("input error: unsupported TVTW version 1, expected 2")
        assert "tvtsyn init-weights --seed N [--config FILE]" in err
        assert "Traceback" not in err


@contextmanager
def _address_space_headroom(nbytes):
    """Cap this process's address space at its current size plus `nbytes`, so
    that a read without a bound fails with MemoryError instead of taking the
    machine's memory."""
    status = Path("/proc/self/status").read_text()
    size = int(re.search(r"VmSize:\s+(\d+) kB", status)[1]) * 1024
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size + nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestUnboundWeights:
    def test_input_major_up_layout_is_config_error(self, workdir, tmp_path, capsys):
        # a file written before the up convs were stored output-major: each
        # up weight in the (in_ch, out_ch, kernel) layout of a transposed conv
        up = kernel_major_up_weights(load_weights(workdir / "w.tvtw"))
        old = _with_entries(workdir, tmp_path / "old_up.tvtw",
                            **{n: w.transpose(2, 0, 1) for n, w in up.items()})
        code = run(["synth", "--weights", str(old),
                    "--config", str(workdir / "model.cfg"), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: weight 'decoder.cnn.stage0.up.weight'")
        assert "tvtsyn init-weights --seed N [--config FILE]" in err

    def test_separate_cln_generators_layout_is_config_error(self, workdir, cfg, tmp_path,
                                                             capsys):
        # a file written before each cLN stored one FiLM weight: its rows were
        # three entries, `gamma_gen`, `beta_gen` and `gate_gen`
        store = load_weights(workdir / "w.tvtw")
        entries = {}
        for name in store.names():
            prefix, _, leaf = name.rpartition(".film.")
            if not prefix:
                entries[name] = store.get(name)
                continue
            parts = np.split(store.get(name), [cfg.d_model, 2 * cfg.d_model])
            for gen, part in zip(("gamma_gen", "beta_gen", "gate_gen"), parts):
                entries[f"{prefix}.{gen}.{leaf}"] = part
        save_weights(store_of(entries), tmp_path / "old_cln.tvtw")
        code = run(["synth", "--weights", str(tmp_path / "old_cln.tvtw"),
                    "--config", str(workdir / "model.cfg"), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        err = capsys.readouterr().err
        assert "missing weight entry 'decoder.cln_in.film.weight'" in err
        assert "tvtsyn init-weights --seed N [--config FILE]" in err

    def test_separate_prosody_first_convs_layout_is_config_error(self, workdir, tmp_path,
                                                                 capsys):
        # a file written before the predictors shared one first conv: its rows
        # were two entries, `prosody.f0.conv1` and `prosody.energy.conv1`
        store = load_weights(workdir / "w.tvtw")
        entries = {}
        for name in store.names():
            prefix, _, leaf = name.rpartition(".conv1.")
            if prefix != "prosody":
                entries[name] = store.get(name)
                continue
            for head, part in zip(("f0", "energy"), np.split(store.get(name), 2)):
                entries[f"prosody.{head}.conv1.{leaf}"] = part
        save_weights(store_of(entries), tmp_path / "old_prosody.tvtw")
        code = run(["synth", "--weights", str(tmp_path / "old_prosody.tvtw"),
                    "--config", str(workdir / "model.cfg"), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        err = capsys.readouterr().err
        assert "missing weight entry 'prosody.conv1.weight'" in err
        assert "tvtsyn init-weights --seed N [--config FILE]" in err

    def test_nan_codebook_row_is_config_error(self, workdir, tmp_path, capsys):
        # it used to bind, and synth then blamed the input (exit 1)
        cb = load_weights(workdir / "w.tvtw").get("encoder.vq.codebook").copy()
        cb[5, 0] = np.nan
        weights = _with_entries(workdir, tmp_path / "nan_code.tvtw",
                                **{"encoder.vq.codebook": cb})
        code = run(["synth", "--weights", str(weights),
                    "--config", str(workdir / "model.cfg"), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: codebook rows must be finite and unit-norm")
        assert "tvtsyn init-weights --seed N [--config FILE]" in err

    @pytest.mark.parametrize("name", NAN_ENCODER_WEIGHTS)
    @pytest.mark.parametrize("command", ["synth", "stream"])
    def test_nan_encoder_weight_is_input_error(self, workdir, tmp_path, capsys, name,
                                               command):
        w = load_weights(workdir / "w.tvtw").get(name).copy()
        w.flat[0] = np.nan
        weights = _with_entries(workdir, tmp_path / "nan.tvtw", **{name: w})
        out = tmp_path / "x.wav"
        code = run([command, "--weights", str(weights),
                    "--config", str(workdir / "model.cfg"), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(out)])
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert "non-finite VQ latents" in err and "weight file" in err


class TestInputSizeLimits:
    """A speaker or config file is read only up to its limit, and an offline
    WAV's length is checked from its header, so a huge one (or /dev/zero) is
    an input error that allocates next to nothing."""

    @pytest.mark.parametrize("flag,message", [
        ("--speaker", "holds more than 128 bytes, expected 32 float32 values"),
        ("--config", "is longer than 1048576 bytes")])
    def test_sparse_gigabyte_file_is_input_error(self, workdir, tmp_path, capsys, flag,
                                                 message):
        huge = tmp_path / "huge"
        with open(huge, "wb") as f:
            f.truncate(1 << 30)  # sparse: no disk blocks, and read as zeros
        args = {"--weights": workdir / "w.tvtw", "--config": workdir / "model.cfg",
                "--speaker": workdir / "spk.f32", "--in": workdir / "in.wav",
                "--out": tmp_path / "x.wav", flag: huge}
        tracemalloc.start()
        try:
            with _address_space_headroom(256 << 20):
                code = run(["synth", *(str(a) for item in args.items() for a in item)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and not (tmp_path / "x.wav").exists()
        assert message in capsys.readouterr().err
        assert peak < 2 << 20

    @pytest.mark.parametrize("command", ["synth", "dump-tvt"])
    def test_long_wav_rejected_before_its_samples_are_read(self, workdir, tmp_path, capsys,
                                                           command):
        seconds = 70
        wav = tmp_path / "long.wav"
        wav.write_bytes(_wav_bytes(seconds * 16000, bytes(2 * seconds * 16000)))
        tracemalloc.start()
        try:
            code = run([command, *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                        "--in", str(wav), "--out", str(tmp_path / "x.out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and not (tmp_path / "x.out").exists()
        assert "70.00 s long, over the 60 s offline limit" in capsys.readouterr().err
        assert peak < 1 << 20  # its samples alone are 2.2 MB as int16

    def test_config_read_from_a_fifo(self, cfg, workdir, tmp_path):
        # as `--config <(...)` hands the command a pipe, which has no size
        fifo = tmp_path / "model.cfg"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(config_to_text(cfg),),
                                  daemon=True)
        writer.start()
        code = run(["init-weights", "--seed", "1", "--config", str(fifo),
                    "--out", str(tmp_path / "w.tvtw")])
        writer.join(timeout=10)
        assert code == 0 and not writer.is_alive()
        assert (tmp_path / "w.tvtw").read_bytes() == (workdir / "w.tvtw").read_bytes()


class TestConfigFile:
    """init-weights --config: a bad value is a config error (exit 2), a
    malformed file (an unknown or removed key, a value that is not an int) an
    input error (exit 1)."""

    def _init(self, tmp_path, text):
        path = tmp_path / "model.cfg"
        path.write_text(text)
        return run(["init-weights", "--seed", "1", "--config", str(path),
                    "--out", str(tmp_path / "w.tvtw")])

    @pytest.mark.parametrize("key,value", REMOVED_CONFIG_KEYS.items())
    def test_legacy_keys_at_fixed_values(self, cfg, tmp_path, capsys, key, value):
        # the keys older files held for values the architecture fixes are gone
        assert self._init(tmp_path, config_to_text(cfg) + f"{key} = {value}\n") == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "w.tvtw").exists()

    @pytest.mark.parametrize("line", [
        "sample_rate = 8000", "vq_l2_normalize = false", "codebook_size = 2048",
        "decoder_strides = 8,5,4,2", "encoder_strides = 4,5,4,4", "init_kernel = 5",
        "final_kernel = 1", "res_kernel = 5", "res_dilation = 1", "lookback_frames = 50",
        "encoder_lookahead = 0", "layer_scale = 0.1"])
    def test_legacy_key_at_another_value(self, cfg, tmp_path, capsys, line):
        assert self._init(tmp_path, config_to_text(cfg) + line + "\n") == 1
        assert f"unknown key '{line.split()[0]}'" in capsys.readouterr().err
        assert not (tmp_path / "w.tvtw").exists()

    @pytest.mark.parametrize("key,value,code", [("n_heads", "0", 2), ("n_heads", "2.5", 1),
                                                ("layer_scale", "nan", 1),
                                                ("vq_commitment", "inf", 1)])
    def test_bad_value(self, cfg, tmp_path, capsys, key, value, code):
        if key in REMOVED_CONFIG_KEYS:  # not in config_to_text
            text = config_to_text(cfg) + f"{key} = {value}\n"
        else:
            text = config_to_text(cfg).replace(f"{key} = {getattr(cfg, key)}", f"{key} = {value}")
        assert self._init(tmp_path, text) == code
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
        assert run(["bench", *_margs(workdir), "--utt-seconds", "0.12",
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

    def test_speaker_norm_past_float32_is_input_error(self, workdir, tmp_path, capsys):
        # its squared norm used to overflow, with a RuntimeWarning, in the check
        big = tmp_path / "big.f32"
        np.full(32, 1e30, "<f4").tofile(big)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["synth", *_margs(workdir), "--speaker", str(big),
                        "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1
        assert "squared norm overflows float32" in capsys.readouterr().err

    @pytest.mark.parametrize("n_bytes", [0, 20])
    def test_wav_cut_inside_its_header_is_input_error(self, workdir, tmp_path, capsys,
                                                      n_bytes):
        # the wave module raises EOFError here, which used to escape
        cut = tmp_path / "cut.wav"
        cut.write_bytes((workdir / "in.wav").read_bytes()[:n_bytes])
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(cut), "--out", str(tmp_path / "x.wav")])
        assert code == 1 and "cannot read WAV" in capsys.readouterr().err

    def test_missing_wav_is_input_error(self, workdir, tmp_path):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1

    def test_non_finite_output_is_input_error(self, workdir, nan_weights, tmp_path, capsys):
        _rejects_non_finite_output(workdir, nan_weights, tmp_path, capsys, "synth")

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

    @pytest.mark.parametrize("block_ms,message", BAD_SPANS)
    def test_unaligned_block_is_config_error(self, workdir, tmp_path, capsys, block_ms, message):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--block-ms", block_ms])
        assert code == 2 and not (tmp_path / "x.wav").exists()
        err = capsys.readouterr().err
        assert f"--block-ms{message}" in err and "chunk_ms" not in err

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
        assert "f0_scale must be a real number in [-32, 32]" in capsys.readouterr().err

    def test_empty_wav_is_input_error(self, workdir, tmp_path, capsys):
        wavio.write_wav(tmp_path / "empty.wav", np.zeros(0, F32))
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(tmp_path / "empty.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 1 and not (tmp_path / "x.wav").exists()
        assert "no samples" in capsys.readouterr().err

    def test_wave_over_offline_limit_is_input_error(self, workdir, over_limit_wav, tmp_path,
                                                    capsys):
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(over_limit_wav), "--out", str(tmp_path / "x.wav")])
        assert code == 1 and not (tmp_path / "x.wav").exists()
        assert "tvtsyn stream" in capsys.readouterr().err

    def test_wave_at_offline_limit_is_synthesized(self, workdir, over_limit_wav, tmp_path):
        wave = wavio.read_wav(over_limit_wav)[:int(MAX_SPAN_SECONDS * 16000)]
        wavio.write_wav(tmp_path / "minute.wav", wave)
        code = run(["synth", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(tmp_path / "minute.wav"), "--out", str(tmp_path / "x.wav")])
        assert code == 0 and wavio.read_wav(tmp_path / "x.wav").size == wave.size


class TestStream:
    def test_non_finite_output_is_input_error(self, workdir, nan_weights, tmp_path, capsys):
        _rejects_non_finite_output(workdir, nan_weights, tmp_path, capsys, "stream",
                                   "--chunk-ms", "60")

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

    def test_output_holds_as_many_samples_as_the_input(self, workdir, tmp_path):
        # 32100 samples: neither whole 60 ms chunks nor whole 320-sample hops
        wavio.write_wav(tmp_path / "odd.wav", random_wave(4, 32100))
        for command, extra in (("stream", ["--chunk-ms", "60"]), ("synth", [])):
            out = tmp_path / f"{command}.wav"
            code = run([command, *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                        "--in", str(tmp_path / "odd.wav"), "--out", str(out), *extra])
            assert code == 0
            assert wavio.read_wav(out).shape == (32100,), command

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

    @pytest.mark.parametrize("chunk_ms,message", BAD_SPANS)
    def test_misaligned_chunk_is_config_error(self, workdir, tmp_path, capsys, chunk_ms,
                                              message):
        code = run(["stream", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(tmp_path / "x.wav"),
                    "--chunk-ms", chunk_ms])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--chunk-ms{message}" in err and "chunk_ms" not in err

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
        code = run(["bench", *_margs(workdir), "--chunk-ms", "60", "--utt-seconds", "0.3",
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

    def test_utterance_shorter_than_a_chunk_is_config_error(self, tmp_path, capsys):
        # checked before the weights are read: the weight path does not exist
        assert run(["bench", "--weights", str(tmp_path / "missing.tvtw"),
                    "--utt-seconds", "0.02", "--chunk-ms", "60"]) == 2
        assert "--utt-seconds must be a real number in [0.06, 60], got 0.02" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk_ms,message", BAD_SPANS)
    def test_misaligned_chunk_is_config_error(self, tmp_path, capsys, chunk_ms, message):
        # checked before the weights are read: the weight path does not exist
        assert run(["bench", "--weights", str(tmp_path / "missing.tvtw"),
                    "--chunk-ms", chunk_ms]) == 2
        err = capsys.readouterr().err
        assert f"--chunk-ms{message}" in err and "chunk_ms" not in err

    def test_synthetic_draws_only_the_utterances_it_streams(self, workdir, monkeypatch):
        # 10 warm-up and 100 measured utterances, each drawn once
        seen = []
        monkeypatch.setattr(cli, "latency_bench",
                            lambda model, cfg, speaker, utts: seen.append(utts) or {})
        assert run(["bench", *_margs(workdir), "--utt-seconds", "0.06"]) == 0
        assert len(seen) == 1 and len(seen[0]) == 110

    @pytest.mark.parametrize("seconds,chunk_ms,samples", [
        ("0.99997", "60", 15999),  # 15999.52 samples, truncated
        ("4.02", "4020", 64320)])  # int(4.02 * 16000) is 64319, one short of the chunk
    def test_synthetic_utterances_truncate_to_samples_but_keep_one_chunk(
            self, workdir, monkeypatch, seconds, chunk_ms, samples):
        seen = []
        monkeypatch.setattr(cli, "latency_bench",
                            lambda model, cfg, speaker, utts: seen.append(utts) or {})
        assert run(["bench", *_margs(workdir), "--utt-seconds", seconds,
                    "--chunk-ms", chunk_ms]) == 0
        assert {u.size for u in seen[0]} == {samples}

    @pytest.mark.parametrize("n_files", [109, 112])
    def test_wav_directory_reads_only_the_utterances_it_streams(self, workdir, tmp_path,
                                                                 monkeypatch, n_files):
        # 10 warm-up and 100 measured utterances; fewer files are cycled
        d = tmp_path / "utts"
        d.mkdir()
        for i in range(n_files):
            wavio.write_wav(d / f"u{i:03d}.wav", random_wave(i, 960))
        read = []
        real_read = wavio.read_wav
        monkeypatch.setattr(wavio, "read_wav", lambda path: read.append(path) or real_read(path))
        out = tmp_path / "report.json"
        assert run(["bench", *_margs(workdir), "--utterances", str(d), "--out", str(out)]) == 0
        assert read == sorted(d.glob("*.wav"))[:110]
        rep = json.loads(out.read_text())
        assert rep["measured_count"] == 100 and rep["cycled"] is (n_files < 110)

    def test_empty_directory_is_input_error(self, workdir, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert run(["bench", *_margs(workdir), "--utterances", str(d)]) == 1


class TestProbe:
    def test_clean_probe_exit_zero(self, workdir, capsys):
        assert run(["probe", *_margs(workdir), "--lookahead", "4",
                    "--trials", "5", "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["influenced"] > 0

    @pytest.mark.parametrize("lookahead", ["0", "2"])
    def test_blind_probe_exit_three(self, workdir, capsys, monkeypatch, lookahead):
        # output that no input reaches passes the causality check alone, at
        # every look-ahead
        monkeypatch.setattr(cli, "synthesize", lambda model, wave, *_, **__: np.zeros_like(wave))
        assert run(["probe", *_margs(workdir), "--lookahead", lookahead, "--trials", "3"]) == 3
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["clean"] and report["influenced"] == 0
        assert "probe is blind" in captured.err

    def test_zero_trials_is_config_error(self, workdir, capsys):
        assert run(["probe", *_margs(workdir), "--trials", "0"]) == 2
        assert '"clean"' not in capsys.readouterr().out

    def test_too_many_trials_is_config_error(self, tmp_path, capsys):
        # 10^20 trials used to run without end; checked before the load, as
        # --seed is: the weight path does not exist
        assert run(["probe", "--weights", str(tmp_path / "missing.tvtw"),
                    "--trials", "10001"]) == 2
        assert "trials must be an int in [1, 10000], got 10001" in capsys.readouterr().err

    def test_zero_trials_checked_before_load(self, tmp_path, capsys):
        # as --seed is: the weight path does not exist
        assert run(["probe", "--weights", str(tmp_path / "missing.tvtw"),
                    "--trials", "0"]) == 2
        assert "trials must be an int in [1, 10000], got 0" in capsys.readouterr().err


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

    def test_wave_over_offline_limit_is_input_error(self, workdir, over_limit_wav, tmp_path,
                                                    capsys):
        code = run(["dump-tvt", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(over_limit_wav), "--out", str(tmp_path / "t.jsonl")])
        assert code == 1 and not (tmp_path / "t.jsonl").exists()
        assert "tvtsyn stream" in capsys.readouterr().err

    def test_runs_no_prosody_or_decoder(self, cfg, workdir, tmp_path, monkeypatch):
        # the facet weights and alpha that synthesize's timbre stage computes
        seen = []
        real_tvt = model_mod.tvt_sequence
        monkeypatch.setattr(model_mod, "tvt_sequence",
                            lambda *a: seen.append(real_tvt(*a)) or seen[-1])
        model = model_mod.TvtSynModel.from_store(load_weights(workdir / "w.tvtw"), cfg)
        speaker = np.fromfile(workdir / "spk.f32", dtype="<f4")
        model_mod.synthesize(model, wavio.read_wav(workdir / "in.wav"), speaker)
        _, weights, alpha = seen[0]

        def never_called(*args, **kwargs):
            raise AssertionError("dump-tvt must stop at the timbre stream")

        monkeypatch.setattr(model_mod, "predict_f0_energy", never_called)
        monkeypatch.setattr(model_mod, "decode_context", never_called)
        out = tmp_path / "tvt.jsonl"
        assert run(["dump-tvt", *_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                    "--in", str(workdir / "in.wav"), "--out", str(out)]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["weights"] for r in recs] == weights.tolist()
        assert [r["alpha"] for r in recs] == alpha.tolist()
        assert [r["top1"] for r in recs] == np.argmax(weights, axis=1).tolist()


class TestClosedStdout:
    """A reader that closes stdout early (as `| head` does) gets exit 1 and
    one error line, not a traceback."""

    @pytest.mark.parametrize("command", ["init-weights", "probe", "bench", "dump-tvt"])
    def test_exit_one_without_traceback(self, workdir, tmp_path, command):
        argv = {
            "init-weights": ["--config", str(workdir / "model.cfg"),
                             "--out", str(tmp_path / "w.tvtw")],
            "probe": [*_margs(workdir), "--trials", "1"],
            "bench": [*_margs(workdir), "--utt-seconds", "0.06"],
            "dump-tvt": [*_margs(workdir), "--speaker", str(workdir / "spk.f32"),
                         "--in", str(workdir / "in.wav")],
        }[command]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child starts, so every write fails
        try:
            proc = subprocess.run([sys.executable, "-m", "tvtsyn", command, *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=300)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 1, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.splitlines() == [
            "input error: standard output closed before the command finished writing"]


class TestWavIo:
    def test_offline_limit_read_from_header(self, tmp_path):
        p = tmp_path / "minute.wav"
        p.write_bytes(_wav_bytes(960_000, bytes(2 * 960_000)))
        assert wavio.read_wav(p, MAX_SPAN_SECONDS).size == 960_000
        # one frame more is rejected before the samples, missing here, are read
        p.write_bytes(_wav_bytes(960_001, b""))
        with pytest.raises(InputError, match="60.00 s long, over the 60 s offline limit"):
            wavio.read_wav(p, MAX_SPAN_SECONDS)
        with pytest.raises(InputError, match="truncated"):
            wavio.read_wav(p)

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


def _pcm_wav(path, rate=16000, width=2, channels=1, n_frames=800):
    import wave as wv

    with wv.open(str(path), "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(width)
        f.setframerate(rate)
        f.writeframes(bytes(n_frames * width * channels))
    return path


@pytest.fixture(scope="module")
def sweep_values(workdir, cfg, tmp_path_factory):
    """Per option, the (valid, hostile) values the sweep draws from, as
    strings; None leaves the option out."""
    d = tmp_path_factory.mktemp("sweep")
    rng = np.random.default_rng(28)
    blob = (workdir / "w.tvtw").read_bytes()
    bad_weights = []
    for i, cut in enumerate([0, 3, 8, 12, 40, len(blob) // 2, len(blob) - 1]):
        (d / f"cut{i}.tvtw").write_bytes(blob[:cut])
        bad_weights.append(str(d / f"cut{i}.tvtw"))
    for i in range(12):  # one bit flipped: in the headers for the first half
        flipped = bytearray(blob)
        at = int(rng.integers(0, 200 if i < 6 else len(blob)))
        flipped[at] ^= 1 << int(rng.integers(0, 8))
        (d / f"flip{i}.tvtw").write_bytes(bytes(flipped))
        bad_weights.append(str(d / f"flip{i}.tvtw"))

    wave = random_wave(28, 8000, amp=0.4)
    wavio.write_wav(d / "short.wav", wave)
    wavio.write_wav(d / "empty.wav", wave[:0])
    (d / "loud.wav").write_bytes(_wav_bytes(8000, np.full(8000, -32768, "<i2").tobytes()))
    (d / "cut.wav").write_bytes((d / "short.wav").read_bytes()[:1000])
    bad_wavs = [str(d / "empty.wav"), str(d / "cut.wav"),
                *(str(_pcm_wav(d / f"{name}.wav", **kw)) for name, kw in (
                    ("8k", {"rate": 8000}), ("8bit", {"width": 1}), ("24bit", {"width": 3}),
                    ("stereo", {"channels": 2})))]

    save_config(dataclasses.replace(cfg, n_layers=cfg.n_layers + 1), d / "other.cfg")
    huge = [str(d / f"huge{i}.cfg") for i in range(3)]
    for path, change in zip(huge, ({"d_model": 1 << 40}, {"d_model": 1 << 62},
                                   {"ffn_dim": 10 ** 23})):
        save_config(dataclasses.replace(cfg, **change), path)
    dim = cfg.global_dim
    for name, values in (("nan", np.full(dim, np.nan)), ("inf", np.full(dim, np.inf)),
                         ("big", np.full(dim, 1e30)), ("zero", np.zeros(dim)),
                         ("short", np.ones(dim - 1))):
        values.astype("<f4").tofile(d / f"{name}.f32")
    for sub in ("utts", "none", "bad"):
        (d / sub).mkdir()
    wavio.write_wav(d / "utts" / "a.wav", wave[:960])
    _pcm_wav(d / "bad" / "a.wav", rate=8000)
    (d / "file").write_bytes(b"x")

    # missing, a directory, under a file, and files of the wrong kind
    paths = [str(d / "missing"), str(d), str(d / "file" / "x"), str(workdir / "in.wav"),
             str(workdir / "model.cfg"), "/dev/zero", "/dev/null"]
    outs = [str(d), str(d / "file" / "x"), str(d / "missing" / "x")]
    floats = ["0", "-20", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "50", "60020",
              "pony", ""]
    ints = ["-1", "0", "-99999999999999999999", str(1 << 64), "99999999999999999999", "1.5",
            "nan", ""]
    return {
        "--weights": ([str(workdir / "w.tvtw")], bad_weights + paths),
        "--config": ([str(workdir / "model.cfg")],
                     [None, str(d / "other.cfg"), *huge, *paths, str(workdir / "w.tvtw")]),
        # without a file (or from an empty one) init-weights writes the full
        # config: valid, but 357 MB
        "init-weights --config": ([str(workdir / "model.cfg")],
                                  [*huge, *paths[:-1], str(workdir / "w.tvtw")]),
        "--speaker": ([str(workdir / "spk.f32")],
                      [str(d / f"{n}.f32") for n in ("nan", "inf", "big", "zero", "short")]
                      + paths),
        "--in": ([str(d / "short.wav"), str(d / "loud.wav")],
                 bad_wavs + paths + [str(workdir / "w.tvtw")]),
        "--out": ([str(d / "out.wav")], outs + ["/dev/full"]),
        "init-weights --out": ([str(d / "w.tvtw")], outs),
        "--utterances": ([None, str(d / "utts")],
                         [str(d / "none"), str(d / "bad"), str(d / "missing"), str(d / "file")]),
        "--f0-scale": (["1.0", "0.5", "2"], floats),
        "--chunk-ms": (["60", "120"], floats),
        "--block-ms": ([None, "60", "20"], floats),
        "--utt-seconds": (["0.06", "0.12"], floats),
        "--lookahead": (["0", "2", "4"], ints + ["5"]),
        "--seed": (["0", "7", str(1 << 70)], ints),
        "--trials": (["1", "2"], ints),
        # removed from bench: any value is an unknown option
        "--synthetic": ([None], ["1", "110", str(1 << 70), *ints]),
    }


SWEEP_OPTIONS = {
    "init-weights": ["--seed", "init-weights --config", "init-weights --out"],
    "synth": ["--weights", "--config", "--speaker", "--in", "--out", "--lookahead",
              "--f0-scale", "--block-ms"],
    "stream": ["--weights", "--config", "--speaker", "--in", "--out", "--chunk-ms",
               "--lookahead", "--f0-scale"],
    "bench": ["--weights", "--config", "--chunk-ms", "--utterances", "--synthetic",
              "--utt-seconds", "--speaker", "--seed", "--out"],
    "probe": ["--weights", "--config", "--lookahead", "--trials", "--seed"],
    "dump-tvt": ["--weights", "--config", "--speaker", "--in", "--out"],
}


def test_seeded_sweep_exits_0_to_3(sweep_values, capsys):
    """A fuzz test (Miller, Fredriksen & So, CACM 1990): seeded argument
    lists for every subcommand, with up to two options at a hostile value
    and the others valid, so that each hostile value reaches its check. Every
    run ends with exit 0-3 (argparse's usage error included, as
    SystemExit(2)), raises nothing else and warns nothing."""
    rng = np.random.default_rng(20261020)
    codes = dict.fromkeys(range(4), 0)
    for i in range(900):
        command = list(SWEEP_OPTIONS)[i % len(SWEEP_OPTIONS)]
        options = SWEEP_OPTIONS[command]
        hostile = set(rng.choice(options, size=int(rng.integers(0, 3)), replace=False))
        argv = [command]
        for option in options:
            pool = sweep_values[option][option in hostile]
            value = pool[rng.integers(len(pool))]
            if value is not None:
                argv += [option.split()[-1], value]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                raise AssertionError(f"{argv} raised {exc!r}") from exc
        assert code in codes, argv
        # bench has no --synthetic: argparse stops at it
        assert code == 2 or "--synthetic" not in argv, argv
        codes[code] += 1
        capsys.readouterr()
    assert min(codes[0], codes[1], codes[2]) >= 75, codes
