"""Weight container, config file, and seeded-initialization tests."""

import numpy as np
import pytest

from tvtsyn.config import (ModelConfig, StreamConfig, config_from_text,
                           config_to_text, small_config)
from tvtsyn.errors import ConfigError, FormatError
from tvtsyn.model import TvtSynModel
from tvtsyn.weights import (WeightStore, load_weights, parameter_budget,
                            parameter_specs, random_init, save_weights)


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
        extra = WeightStore({n: store.get(n) for n in store.names()})
        extra.put("rogue.weight", np.zeros(3))
        with pytest.raises(ConfigError, match="unknown"):
            TvtSynModel.from_store(extra, cfg)

    def test_missing_entry_rejected(self, cfg, store):
        names = store.names()
        partial = WeightStore({n: store.get(n) for n in names[:-1]})
        with pytest.raises(ConfigError, match="missing"):
            TvtSynModel.from_store(partial, cfg)

    def test_spec_names_unique_and_prefixed(self, cfg):
        specs = parameter_specs(cfg)
        names = [s.name for s in specs]
        assert len(names) == len(set(names))
        assert all(n.split(".")[0] in ("encoder", "decoder", "tvt", "prosody")
                   for n in names)


class TestConfig:
    def test_text_round_trip(self, cfg):
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_stride_product_must_be_320(self):
        with pytest.raises(ConfigError):
            ModelConfig(encoder_strides=(8, 5, 4, 4), decoder_strides=(4, 4, 5, 8))

    def test_mirrored_strides_required(self):
        with pytest.raises(ConfigError):
            ModelConfig(decoder_strides=(8, 5, 4, 2))

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


class TestBudget:
    def test_component_grouping(self, store):
        budget = parameter_budget(store)
        assert budget["encoder"] > 0 and budget["decoder"] > 0
        assert budget["encoder"] + budget["decoder"] == budget["total"]

    def test_full_config_budget(self, full_budget):
        assert abs(full_budget["encoder"] / 37.5e6 - 1.0) <= 0.15
        assert abs(full_budget["decoder"] / 48.7e6 - 1.0) <= 0.15
        assert abs(full_budget["total"] / 86.0e6 - 1.0) <= 0.15
