"""Weight container, config file, and seeded-initialization tests."""

import dataclasses
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import store_of
from tvtsyn.config import (LEGACY_KEYS, MAX_SPAN_SECONDS, ModelConfig, StreamConfig,
                           config_from_text, config_to_text)
from tvtsyn.errors import ConfigError, FormatError
from tvtsyn.model import TvtSynModel, random_init
from tvtsyn.weights import WeightStore, load_weights, parameter_budget, save_weights


class TestContainer:
    def test_save_load_save_byte_identical(self, store, tmp_path):
        p1 = tmp_path / "a.tvtw"
        p2 = tmp_path / "b.tvtw"
        save_weights(store, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_is_identity_on_stores(self, store):
        back = WeightStore.from_bytes(store.to_bytes())
        assert set(back.names()) == set(store.names())
        for name in store.names():
            assert np.array_equal(back.get(name), store.get(name))

    def test_empty_store_valid(self):
        blob = WeightStore().to_bytes()
        assert len(WeightStore.from_bytes(blob)) == 0

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            WeightStore.from_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncation_names_offending_entry(self, store):
        blob = store.to_bytes()
        with pytest.raises(FormatError, match="truncated"):
            WeightStore.from_bytes(blob[:len(blob) // 2])

    def test_corrupted_count_no_partial_store(self, store):
        blob = bytearray(store.to_bytes())
        blob[8:12] = (len(store) + 5).to_bytes(4, "little")  # claim more entries
        with pytest.raises(FormatError):
            WeightStore.from_bytes(bytes(blob))

    def test_trailing_garbage_rejected(self, store):
        with pytest.raises(FormatError, match="trailing"):
            WeightStore.from_bytes(store.to_bytes() + b"\x00\x00\x00\x00")

    def test_duplicate_entry_rejected(self):
        s = WeightStore()
        s.put("x", np.zeros(3))
        with pytest.raises(FormatError):
            s.put("x", np.zeros(3))


def _tvtw(count, *entries):
    """A TVTW blob from raw (name bytes, ndim, dims, payload bytes) entries."""
    out = [b"TVTW", struct.pack("<II", 1, count)]
    for name, ndim, dims, payload in entries:
        out += [struct.pack("<H", len(name)), name, struct.pack("<B", ndim),
                struct.pack(f"<{len(dims)}I", *dims), payload]
    return b"".join(out)


def _two_entry_blob():
    s = WeightStore()
    s.put("a", np.arange(6, dtype=np.float32).reshape(2, 3))
    s.put("b", np.float32([7.0]))
    return s.to_bytes()


class TestHostileHeaders:
    """Malformed TVTW headers surface as FormatError, from bytes and from files."""

    @staticmethod
    def _rejects(blob, tmp_path, match=None):
        with pytest.raises(FormatError, match=match):
            WeightStore.from_bytes(blob)
        path = tmp_path / "bad.tvtw"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=match):
            load_weights(path)

    def test_name_not_utf8(self, tmp_path):
        blob = _tvtw(1, (b"\xff\xfe", 1, (1,), b"\x00" * 4))
        self._rejects(blob, tmp_path, "UTF-8")

    def test_ndim_255(self, tmp_path):
        blob = _tvtw(1, (b"w", 255, (1,) * 255, b"\x00" * 4))
        self._rejects(blob, tmp_path, "dims")

    def test_huge_dims_allocate_nothing(self, tmp_path):
        blob = _tvtw(1, (b"w", 4, (2 ** 31,) * 4, b""))
        assert len(blob) == 32
        tracemalloc.start()
        try:
            self._rejects(blob, tmp_path, "truncated payload")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_count_beyond_entries(self, tmp_path):
        blob = bytearray(_two_entry_blob())
        blob[8:12] = struct.pack("<I", 3)
        self._rejects(bytes(blob), tmp_path, "truncated header at entry #2")

    def test_every_truncated_prefix(self, tmp_path):
        blob = _two_entry_blob()
        for n in range(len(blob)):
            self._rejects(blob[:n], tmp_path)


class TestLoader:
    def test_peak_memory_about_one_file(self, cfg, store, tmp_path):
        path = tmp_path / "w.tvtw"
        save_weights(store, path)
        tracemalloc.start()
        try:
            loaded = load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == len(store)
        assert peak <= 1.25 * path.stat().st_size

    def test_loaded_arrays_match_and_are_read_only(self, store, tmp_path):
        path = tmp_path / "w.tvtw"
        save_weights(store, path)
        loaded = load_weights(path)
        ref = WeightStore.from_bytes(store.to_bytes())
        assert loaded.names() == ref.names() == store.names()
        for name in store.names():
            a = loaded.get(name)
            assert a.dtype == np.float32 and a.shape == ref.get(name).shape
            assert a.tobytes() == ref.get(name).tobytes()
            assert a.flags.c_contiguous and a.flags.aligned
            assert not a.flags.writeable and not ref.get(name).flags.writeable

    @pytest.mark.parametrize("source", ["random_init", "load_weights"])
    def test_weights_cannot_be_written(self, cfg, store, tmp_path, source):
        s = store
        if source == "load_weights":
            save_weights(store, tmp_path / "w.tvtw")
            s = load_weights(tmp_path / "w.tvtw")
        with pytest.raises(ValueError):
            s.get("encoder.vq.codebook")[0, 0] = 1.0
        model = TvtSynModel.from_store(s, cfg)
        with pytest.raises(ValueError):
            model.encoder.ctx.layers[0].wq[0, 0] = 1.0
        with pytest.raises(ValueError):
            model.encoder.ctx.layers[0].bq += 1.0

    def test_put_leaves_callers_array_writable(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        s = WeightStore()
        s.put("x", arr)
        assert arr.flags.writeable and not s.get("x").flags.writeable


class TestRandomInit:
    def test_same_seed_bitwise_identical(self, cfg):
        a = random_init(123, cfg)
        b = random_init(123, cfg)
        assert a.to_bytes() == b.to_bytes()

    def test_different_seeds_differ(self, cfg):
        a = random_init(1, cfg)
        b = random_init(2, cfg)
        assert any(not np.array_equal(a.get(n), b.get(n)) for n in a.names())

    def test_codebook_rows_unit_norm(self, cfg, store):
        cb = store.get("encoder.vq.codebook")
        np.testing.assert_allclose(np.linalg.norm(cb, axis=1), 1.0, atol=1e-6)

    def test_layer_scale_value(self, cfg, store):
        assert np.all(store.get("encoder.attn.layer0.ls_attn") == np.float32(cfg.layer_scale))

    def test_registry_covers_model_exactly(self, cfg, store, model):
        # from_store validates exact coverage; extra entries must be rejected
        extra = store_of({n: store.get(n) for n in store.names()})
        extra.put("rogue.weight", np.zeros(3))
        with pytest.raises(ConfigError, match="unknown"):
            TvtSynModel.from_store(extra, cfg)

    def test_missing_entry_rejected(self, cfg, store):
        names = store.names()
        partial = store_of({n: store.get(n) for n in names[:-1]})
        with pytest.raises(ConfigError, match="missing"):
            TvtSynModel.from_store(partial, cfg)

    def test_wrong_shape_entry_rejected(self, cfg, store):
        name = "decoder.cnn.stage0.up.weight"
        permuted = store.get(name).transpose(1, 0, 2)  # same size, (out_ch, in_ch, kernel)
        assert permuted.shape != store.get(name).shape
        bad = store_of({n: permuted if n == name else store.get(n) for n in store.names()})
        with pytest.raises(ConfigError, match=re.escape(repr(name))):
            TvtSynModel.from_store(bad, cfg)

    def test_init_follows_the_layout_rule(self, cfg, store):
        for name in store.names():
            arr = store.get(name)
            leaf = name.rsplit(".", 1)[-1]
            if leaf in ("bias", "beta"):
                assert np.all(arr == 0), name
            elif leaf in ("gamma", "scale"):
                assert np.all(arr == 1), name
            elif leaf.startswith("ls_"):
                assert np.all(arr == np.float32(cfg.layer_scale)), name
            elif leaf.endswith("_prior"):
                assert abs(arr.std() / 0.02 - 1.0) <= 0.2, name
            elif leaf == "codebook":
                np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-6)
            elif name == "encoder.vq.proj_down.weight":
                up = store.get("encoder.vq.proj_up.weight")
                np.testing.assert_allclose(arr @ up, np.eye(arr.shape[0]), atol=1e-4)
            else:
                # a transposed conv stores (in_ch, out_ch, kernel)
                if name.endswith(".up.weight"):
                    fan_in = arr.shape[0] * arr.shape[2]
                else:
                    fan_in = math.prod(arr.shape[1:])
                assert np.abs(arr).max() <= np.float32(1.0 / np.sqrt(fan_in)), name

    def test_spec_names_unique_and_prefixed(self, cfg):
        names = random_init(0, cfg).names()
        assert len(names) == len(set(names))
        assert all(n.split(".")[0] in ("encoder", "decoder", "tvt", "prosody")
                   for n in names)


class TestConfig:
    def test_text_round_trip(self, cfg):
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_stride_product_must_be_320(self):
        with pytest.raises(ConfigError):
            ModelConfig(encoder_strides=(8, 5, 4, 4))

    def test_mirrored_strides_required(self):
        with pytest.raises(ConfigError):
            config_from_text("decoder_strides = 8,5,4,2\n")

    def test_lookahead_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(encoder_lookahead=5)

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown key"):
            config_from_text("bogus = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(FormatError):
            config_from_text("d_model = pony\n")

    def test_stream_config_alignment(self):
        sc = StreamConfig(chunk_ms=60)
        assert sc.chunk_samples == 960 and sc.chunk_frames == 3
        assert StreamConfig(chunk_ms=100).chunk_frames == 5
        with pytest.raises(ConfigError, match="40 ms or 60 ms"):
            StreamConfig(chunk_ms=50)

    @pytest.mark.parametrize("chunk_ms", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_chunk_rejected(self, chunk_ms):
        with pytest.raises(ConfigError, match="finite"):
            StreamConfig(chunk_ms=chunk_ms)

    def test_chunk_longer_than_span_limit_rejected(self):
        assert StreamConfig(chunk_ms=1000 * MAX_SPAN_SECONDS).chunk_frames == 3000
        for chunk_ms in (1000 * MAX_SPAN_SECONDS + 20, 1e20, 1e300):
            with pytest.raises(ConfigError, match="limit") as err:
                StreamConfig(chunk_ms=chunk_ms)
            assert "nearest" not in str(err.value)


# what save_config wrote while the rates, the VQ bottleneck and the decoder
# strides were still fields
LEGACY_TEXT = """\
sample_rate = 16000
encoder_strides = 8,5,4,2
base_width = 96
init_kernel = 7
final_kernel = 3
res_kernel = 3
res_dilation = 2
d_model = 512
n_layers = 8
n_heads = 8
ffn_dim = 2048
lookback_frames = 100
encoder_lookahead = 4
layer_scale = 0.01
vq_dim = 8
codebook_size = 4096
vq_commitment = 0.15
vq_l2_normalize = true
gtm_slots = 48
tvt_attn_dim = 128
global_dim = 704
timbre_dim = 192
tvt_mlp_hidden = 512
gate_hidden = 256
prosody_hidden = 256
decoder_strides = 2,4,5,8
"""


def _with_line(text, key, value):
    """`text` with the line for `key` replaced by `key = value`, or appended."""
    lines = [ln for ln in text.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestConfigText:
    def test_fixed_values_are_not_fields(self):
        names = {f.name for f in dataclasses.fields(ModelConfig)}
        assert not names & set(LEGACY_KEYS)
        assert {f.name for f in dataclasses.fields(StreamConfig)} == {
            "chunk_ms", "lookahead_frames"}
        assert ModelConfig().decoder_strides == (2, 4, 5, 8)

    def test_legacy_text_loads(self):
        assert config_from_text(LEGACY_TEXT) == ModelConfig()

    @pytest.mark.parametrize("key,value", [
        ("sample_rate", "8000"), ("codebook_size", "2048"), ("vq_dim", "16"),
        ("vq_l2_normalize", "false"), ("decoder_strides", "8,5,4,2"),
        ("decoder_strides", "2,4,5,8,1"), ("vq_commitment", "0.3")])
    def test_legacy_key_at_another_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_text(_with_line(LEGACY_TEXT, key, value))

    def test_decoder_strides_follow_encoder_strides(self):
        text = _with_line(_with_line(LEGACY_TEXT, "encoder_strides", "4,5,4,4"),
                          "decoder_strides", "4,4,5,4")
        assert config_from_text(text).decoder_strides == (4, 4, 5, 4)

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(FormatError, match="lines 2 and 4"):
            config_from_text("d_model = 64\nn_heads = 4\n\nn_heads = 8\n")

    @pytest.mark.parametrize("field", ["n_heads", "d_model", "init_kernel", "res_dilation"])
    def test_zero_is_config_error(self, field):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["layer_scale", "vq_commitment"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        # vq_commitment is a legacy key pinned at 0.15, so only a file holds it
        want = "must be finite" if field == "layer_scale" else "fixed by the architecture"
        with pytest.raises(ConfigError, match=f"{field}.*{want}"):
            config_from_text(f"{field} = {value}\n")

    def test_negative_stride_rejected(self):
        with pytest.raises(ConfigError, match="strides"):
            ModelConfig(encoder_strides=(-8, -5, 4, 2))

    def test_fuzzed_text_loads_or_raises_typed_error(self):
        # every current and removed key, at values a hand-edited file might hold
        good = dict(line.split(" = ") for line in LEGACY_TEXT.splitlines())
        keys = sorted(good)
        values = ["0", "-1", "-4", "1", "2", "3", "4", "5", "7", "64", "0.5", "1e400",
                  "nan", "inf", "-inf", "", "pony", "true", "false", "yes", "8000",
                  "16000", "2048", "4096", "8,5,4,2", "2,4,5,8", "4,5,4,4", "320",
                  "8,5,4,2,", "-8,-5,4,2", "0,5,4,2", "1_000", "64.0"]
        rng = np.random.default_rng(20261018)
        outcomes = {"loaded": 0, "FormatError": 0, "ConfigError": 0}
        for _ in range(3000):
            lines = []
            for _ in range(int(rng.integers(0, 8))):
                key = keys[rng.integers(len(keys))]
                value = good[key] if rng.random() < 0.5 else values[rng.integers(len(values))]
                lines.append(f"{key} = {value}")
            if lines and rng.random() < 0.1:
                lines.append(lines[rng.integers(len(lines))])  # a repeated line
            if rng.random() < 0.05:
                lines.insert(int(rng.integers(len(lines) + 1)), "no equals sign")
            text = "\n".join(lines)
            try:
                cfg = config_from_text(text)
            except (FormatError, ConfigError) as exc:
                outcomes[type(exc).__name__] += 1
                continue
            outcomes["loaded"] += 1
            assert config_from_text(config_to_text(cfg)) == cfg, text
        assert min(outcomes.values()) > 100, outcomes


class TestBudget:
    def test_component_grouping(self, store):
        budget = parameter_budget(store)
        assert budget["encoder"] > 0 and budget["decoder"] > 0
        assert budget["encoder"] + budget["decoder"] == budget["total"]

    def test_full_config_budget(self, full_budget):
        assert abs(full_budget["encoder"] / 37.5e6 - 1.0) <= 0.15
        assert abs(full_budget["decoder"] / 48.7e6 - 1.0) <= 0.15
        assert abs(full_budget["total"] / 86.0e6 - 1.0) <= 0.15
