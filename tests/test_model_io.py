"""Weight container, config file, and seeded-initialization tests."""

import dataclasses
import math
import mmap
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import (REMOVED_CONFIG_KEYS, kernel_major_up_weights, store_of, up_weight,
                      with_layer_scales, with_pre_norm_affines)
from tvtsyn.config import (DECODER_STRIDES, LAYER_SCALE, MAX_LOOKAHEAD, MAX_SPAN_SECONDS,
                           ModelConfig, StreamConfig, config_from_text, config_to_text,
                           load_config, small_config)
from tvtsyn.errors import ConfigError, FormatError
from tvtsyn.model import TvtSynModel, random_init
from tvtsyn import weights as weights_mod
from tvtsyn.weights import WeightStore, load_weights, parameter_budget, save_weights


class TestContainer:
    def test_save_load_save_byte_identical(self, store, tmp_path):
        p1 = tmp_path / "a.tvtw"
        p2 = tmp_path / "b.tvtw"
        save_weights(store, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_is_identity_on_stores(self, store, tmp_path):
        save_weights(store, tmp_path / "w.tvtw")
        back = load_weights(tmp_path / "w.tvtw")
        assert set(back.names()) == set(store.names())
        for name in store.names():
            assert np.array_equal(back.get(name), store.get(name))

    def test_empty_store_valid(self, tmp_path):
        save_weights(WeightStore(), tmp_path / "w.tvtw")
        assert len(load_weights(tmp_path / "w.tvtw")) == 0

    def test_bad_magic(self, tmp_path):
        with pytest.raises(FormatError, match="magic"):
            _load_blob(b"NOPE" + b"\x00" * 16, tmp_path)

    def test_truncation_names_offending_entry(self, store, tmp_path):
        blob = _saved_blob(store, tmp_path)
        with pytest.raises(FormatError, match="truncated"):
            _load_blob(blob[:len(blob) // 2], tmp_path)

    def test_corrupted_count_no_partial_store(self, store, tmp_path):
        blob = bytearray(_saved_blob(store, tmp_path))
        blob[8:12] = (len(store) + 5).to_bytes(4, "little")  # claim more entries
        with pytest.raises(FormatError):
            _load_blob(bytes(blob), tmp_path)

    def test_trailing_garbage_rejected(self, store, tmp_path):
        with pytest.raises(FormatError, match="trailing"):
            _load_blob(_saved_blob(store, tmp_path) + b"\x00\x00\x00\x00", tmp_path)

    def test_save_streams_into_the_file(self, store, tmp_path):
        path = tmp_path / "w.tvtw"
        tracemalloc.start()
        try:
            save_weights(store, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * path.stat().st_size

    def test_duplicate_entry_rejected(self):
        s = WeightStore()
        s.put("x", np.zeros(3))
        with pytest.raises(FormatError):
            s.put("x", np.zeros(3))


def _saved_blob(store, tmp_path):
    """The bytes `save_weights` writes for `store`."""
    path = tmp_path / "saved.tvtw"
    save_weights(store, path)
    return path.read_bytes()


def _load_blob(blob, tmp_path):
    path = tmp_path / "blob.tvtw"
    path.write_bytes(blob)
    return load_weights(path)


def _tvtw(count, *entries, version=2):
    """A TVTW blob from raw (name bytes, ndim, dims, payload bytes) entries.
    Version 2 zero-pads each payload to the next 64-byte file offset;
    version 1, the earlier layout, has no padding."""
    out = bytearray(b"TVTW" + struct.pack("<II", version, count))
    for name, ndim, dims, payload in entries:
        out += (struct.pack("<H", len(name)) + name + struct.pack("<B", ndim)
                + struct.pack(f"<{len(dims)}I", *dims))
        if version == 2:
            out += bytes(-len(out) % 64)
        out += payload
    return bytes(out)


def _two_entry_blob(tmp_path):
    s = WeightStore()
    s.put("a", np.arange(6, dtype=np.float32).reshape(2, 3))
    s.put("b", np.float32([7.0]))
    return _saved_blob(s, tmp_path)


def _entry_spans(store):
    """Each entry's (header start, header end, payload start, payload end)
    in the file `save_weights` writes for `store`."""
    spans, pos = [], 12
    for name in store.names():
        arr = store.get(name)
        end = pos + 2 + len(name.encode()) + 1 + 4 * arr.ndim
        start = end + -end % 64
        spans.append((pos, end, start, start + arr.nbytes))
        pos = start + arr.nbytes
    return spans


def _mapped_rss_kb(path):
    """Rss summed over this process's mappings of `path`, from
    /proc/self/smaps, or None when the file is not mapped."""
    real, rss, inside = os.path.realpath(path), None, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
                inside = line.rstrip("\n").endswith(real)
            elif inside and line.startswith("Rss:"):
                rss = (rss or 0) + int(line.split()[1])
    return rss


class TestHostileHeaders:
    """Malformed TVTW headers surface as FormatError from load_weights."""

    @staticmethod
    def _rejects(blob, tmp_path, match=None):
        with pytest.raises(FormatError, match=match):
            _load_blob(blob, tmp_path)

    def test_name_not_utf8(self, tmp_path):
        blob = _tvtw(1, (b"\xff\xfe", 1, (1,), b"\x00" * 4))
        self._rejects(blob, tmp_path, "UTF-8")

    def test_ndim_255(self, tmp_path):
        blob = _tvtw(1, (b"w", 255, (1,) * 255, b"\x00" * 4))
        self._rejects(blob, tmp_path, "dims")

    def test_huge_dims_allocate_nothing(self, tmp_path):
        blob = _tvtw(1, (b"w", 4, (2 ** 31,) * 4, b""))
        assert len(blob) == 64  # 32 bytes of headers, then the padding
        tracemalloc.start()
        try:
            self._rejects(blob, tmp_path, "truncated payload")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_count_beyond_entries(self, tmp_path):
        blob = bytearray(_two_entry_blob(tmp_path))
        blob[8:12] = struct.pack("<I", 3)
        self._rejects(bytes(blob), tmp_path, "truncated header at entry #2")

    def test_every_truncated_prefix(self, tmp_path):
        blob = _two_entry_blob(tmp_path)
        for n in range(len(blob)):
            self._rejects(blob[:n], tmp_path)

    def test_cut_or_flipped_headers_fail_typed_or_load_the_same(self, cfg, store, tmp_path):
        # cuts at every byte through the third entry header and at every
        # header/payload boundary; each byte of the file header and the first
        # three entry headers flipped. Each file is a FormatError, a store
        # that does not bind (ConfigError), or the original store
        blob = _saved_blob(store, tmp_path)
        spans = _entry_spans(store)
        headers = [*range(12), *(k for a, b, _, _ in spans[:3] for k in range(a, b))]
        cuts = {*range(spans[2][1] + 1), *(k for _, b, c, d in spans for k in (b, c, d))}
        path = tmp_path / "fuzz.tvtw"

        def check(case):
            try:
                loaded = load_weights(path)
                if loaded.names() == store.names() and all(
                        np.array_equal(loaded.get(n), store.get(n)) for n in store.names()):
                    return
                TvtSynModel.from_store(loaded, cfg)
            except (FormatError, ConfigError):
                return
            pytest.fail(f"{case}: a changed store bound")

        path.write_bytes(blob)
        for n in sorted(cuts, reverse=True):
            os.truncate(path, n)
            check(f"cut at byte {n}")
        path.write_bytes(blob)
        with open(path, "r+b", buffering=0) as f:
            for k in headers:
                for mask in (0x01, 0x80, 0xFF):
                    os.pwrite(f.fileno(), bytes([blob[k] ^ mask]), k)
                    check(f"byte {k} xor {mask:#x}")
                os.pwrite(f.fileno(), blob[k:k + 1], k)

    def test_headers_longer_than_the_read_window_round_trip(self, tmp_path):
        # each header is read again at its full length
        s = WeightStore()
        s.put("n" * 2 * weights_mod.HEADER_WINDOW, np.float32([1, 2, 3]))
        s.put("d", np.float32([4, 5]).reshape((1,) * (weights_mod.MAX_NDIM - 1) + (2,)))
        s.put("b", np.float32([6]))
        save_weights(s, tmp_path / "w.tvtw")
        back = load_weights(tmp_path / "w.tvtw")
        assert back.names() == s.names()
        for name in s.names():
            assert back.get(name).shape == s.get(name).shape
            assert np.array_equal(back.get(name), s.get(name))


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
        assert loaded.names() == store.names()
        for name in store.names():
            a = loaded.get(name)
            assert a.dtype == np.float32 and a.shape == store.get(name).shape
            assert a.tobytes() == store.get(name).tobytes()
            assert a.flags.c_contiguous and a.flags.aligned
            assert a.ctypes.data % 64 == 0
            assert not a.flags.writeable

    def test_v2_arrays_are_views_of_the_file_mapping(self, store, tmp_path):
        path = tmp_path / "w.tvtw"
        save_weights(store, path)
        loaded = load_weights(path)
        for name in loaded.names():
            a = loaded.get(name)
            assert not a.flags.owndata and not a.flags.writeable and a.flags.c_contiguous
            assert a.ctypes.data % 64 == 0
            base = a
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base.obj, mmap.mmap), name  # np.frombuffer's memoryview

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
    def test_load_touches_no_payload_page(self, cfg, store, tmp_path):
        path = tmp_path / "w.tvtw"
        save_weights(store, path)
        loaded = load_weights(path)
        assert _mapped_rss_kb(path) == 0
        TvtSynModel.from_store(loaded, cfg)  # reads the codebook
        assert _mapped_rss_kb(path) > 0

    def test_v1_file_is_format_error_and_never_mapped(self, tmp_path, monkeypatch):
        # an 8 MB payload, right after its header as version 1 wrote it
        payload = bytes(8 << 20)
        path = tmp_path / "v1.tvtw"
        path.write_bytes(_tvtw(2, (b"w", 2, (1024, 2048), payload),
                               (b"b", 1, (3,), np.float32([1, 2, 3]).tobytes()), version=1))

        def map_fails(*args, **kwargs):
            raise AssertionError("a version 1 file was mapped")

        monkeypatch.setattr(weights_mod.mmap, "mmap", map_fails)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="version 1") as err:
                load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "tvtsyn init-weights" in str(err.value)
        assert peak < 1 << 20

    @pytest.mark.parametrize("version", [0, 3, 2 ** 32 - 1])
    def test_other_versions_are_format_errors(self, store, tmp_path, version):
        blob = bytearray(_saved_blob(store, tmp_path))
        blob[4:8] = struct.pack("<I", version)
        with pytest.raises(FormatError, match=f"unsupported TVTW version {version}, expected 2"):
            _load_blob(bytes(blob), tmp_path)

    def test_every_payload_starts_at_a_multiple_of_64(self, store, tmp_path):
        path = tmp_path / "w.tvtw"
        save_weights(store, path)
        blob = path.read_bytes()
        assert struct.unpack_from("<4sII", blob) == (b"TVTW", 2, len(store))
        pos = 12
        for name in store.names():
            arr = store.get(name)
            pos += 2 + len(name.encode()) + 1 + 4 * arr.ndim  # the entry header
            pad = -pos % 64
            assert blob[pos:pos + pad] == bytes(pad), name  # zero padding only
            pos += pad
            assert pos % 64 == 0
            assert blob[pos:pos + arr.nbytes] == arr.tobytes(), name
            pos += arr.nbytes
        assert pos == len(blob)

    def test_resave_leaves_a_loaded_store_unchanged(self, cfg, store, tmp_path):
        path = tmp_path / "w.tvtw"
        save_weights(store, path)
        loaded = load_weights(path)
        other = random_init(1, cfg)
        save_weights(other, path)
        for name in store.names():
            assert loaded.get(name).tobytes() == store.get(name).tobytes(), name
        assert load_weights(path).get("encoder.vq.codebook").tobytes() == \
            other.get("encoder.vq.codebook").tobytes()
        assert sorted(tmp_path.iterdir()) == [path]

    def test_empty_file_is_bad_magic(self, tmp_path):
        path = tmp_path / "empty.tvtw"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="bad magic"):
            load_weights(path)

    def test_dev_null_is_bad_magic(self):
        with pytest.raises(FormatError, match="bad magic"):
            load_weights(os.devnull)

    def test_file_shrunk_before_mapping_is_format_error(self, store, tmp_path, monkeypatch):
        path = tmp_path / "w.tvtw"
        save_weights(store, path)

        def map_fails(*args, **kwargs):
            raise ValueError("mmap length is greater than file size")

        monkeypatch.setattr(weights_mod.mmap, "mmap", map_fails)
        with pytest.raises(FormatError, match="cannot map"):
            load_weights(path)

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
            model.encoder.ctx.layers[0].wqkv[0, 0] = 1.0
        with pytest.raises(ValueError):
            model.encoder.ctx.layers[0].bqkv += 1.0

    def test_put_leaves_callers_array_writable(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        s = WeightStore()
        s.put("x", arr)
        assert arr.flags.writeable and not s.get("x").flags.writeable


class TestRandomInit:
    def test_same_seed_bitwise_identical(self, cfg, tmp_path):
        save_weights(random_init(123, cfg), tmp_path / "a.tvtw")
        save_weights(random_init(123, cfg), tmp_path / "b.tvtw")
        assert (tmp_path / "a.tvtw").read_bytes() == (tmp_path / "b.tvtw").read_bytes()

    def test_different_seeds_differ(self, cfg):
        a = random_init(1, cfg)
        b = random_init(2, cfg)
        assert any(not np.array_equal(a.get(n), b.get(n)) for n in a.names())

    # 2.5 used to give seed 2's weights, "3" seed 3's and True seed 1's; -1
    # and None raised numpy's ValueError and TypeError
    @pytest.mark.parametrize("seed", [
        pytest.param(2.5, id="float"), pytest.param("3", id="str"), pytest.param(True, id="bool"),
        pytest.param(-1, id="negative"), pytest.param(None, id="None")])
    def test_seed_that_is_not_an_int_from_0_rejected(self, cfg, seed):
        with pytest.raises(ConfigError, match=f"seed must be an int >= 0, got {seed!r}"):
            random_init(seed, cfg)

    def test_codebook_rows_unit_norm(self, cfg, store):
        cb = store.get("encoder.vq.codebook")
        np.testing.assert_allclose(np.linalg.norm(cb, axis=1), 1.0, atol=1e-6)

    def test_layer_scale_value(self, store):
        # LayerScale is folded into each residual branch's output projection:
        # o and ffn2 are drawn at LAYER_SCALE times the fan-in bound
        assert not [n for n in store.names() if ".ls_" in n]
        for name in ("encoder.attn.layer0.o.weight", "decoder.attn.layer1.ffn2.weight"):
            arr = store.get(name)
            bound = LAYER_SCALE / np.sqrt(arr.shape[1])
            assert 0.9 * bound < np.abs(arr).max() <= np.float32(bound), name

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

    def test_separate_qkv_layout_does_not_bind(self, cfg, store, tmp_path):
        # a file written before q, k and v were fused: each qkv entry split
        # back into the q, k and v entries that layout held
        old = WeightStore()
        for name in store.names():
            if ".qkv." not in name:
                old.put(name, store.get(name))
                continue
            for part, arr in zip("qkv", np.split(store.get(name), 3)):
                old.put(name.replace(".qkv.", f".{part}."), arr)
        save_weights(old, tmp_path / "old.tvtw")
        with pytest.raises(ConfigError) as err:
            TvtSynModel.from_store(load_weights(tmp_path / "old.tvtw"), cfg)
        message = str(err.value)
        assert "qkv.weight" in message
        assert "tvtsyn init-weights --seed N [--config FILE]" in message

    def test_layer_scale_layout_does_not_bind(self, cfg, store, tmp_path):
        # a file written before LayerScale was folded into the o and ffn2
        # weights: a current store plus each layer's ls_attn and ls_ffn entry
        save_weights(store_of(with_layer_scales(store)), tmp_path / "old.tvtw")
        with pytest.raises(ConfigError) as err:
            TvtSynModel.from_store(load_weights(tmp_path / "old.tvtw"), cfg)
        message = str(err.value)
        assert f"has {4 * cfg.n_layers} unknown entries" in message
        assert "'encoder.attn.layer0.ls_attn'" in message
        assert "tvtsyn init-weights --seed N [--config FILE]" in message

    @pytest.mark.parametrize("norms, first", [
        (("ln1", "ln2", "ln_x"), "'encoder.attn.layer0.ln1.gamma'"),
        (("ln_x",), "'decoder.cln_in.ln_x.gamma'")])
    def test_pre_norm_affine_layout_does_not_bind(self, cfg, store, tmp_path, norms, first):
        # a file written before the pre-norm affines were folded into the
        # qkv, ffn1 and FiLM weights: each norm's gamma and beta are unknown
        old = {n: a for n, a in with_pre_norm_affines(store, cfg.d_model).items()
               if n in store or n.split(".")[-2] in norms}
        save_weights(store_of(old), tmp_path / "old.tvtw")
        with pytest.raises(ConfigError) as err:
            TvtSynModel.from_store(load_weights(tmp_path / "old.tvtw"), cfg)
        message = str(err.value)
        unknown = len(old) - len(store)
        assert unknown == (8 * cfg.n_layers + 4 if "ln1" in norms else 4)
        assert message.startswith(f"weight store has {unknown} unknown entries, first: [{first}")
        assert message.endswith(weights_mod.REGENERATE)

    def test_input_major_up_layout_does_not_bind(self, cfg, store, tmp_path):
        # a file written before the up convs were stored output-major: each
        # up weight in the (in_ch, out_ch, kernel) layout of a transposed conv
        up = kernel_major_up_weights(store)
        old = store_of({n: up[n].transpose(2, 0, 1) if n in up else store.get(n)
                        for n in store.names()})
        save_weights(old, tmp_path / "old.tvtw")
        with pytest.raises(ConfigError) as err:
            TvtSynModel.from_store(load_weights(tmp_path / "old.tvtw"), cfg)
        message = str(err.value)
        assert "'decoder.cnn.stage0.up.weight'" in message
        assert "tvtsyn init-weights --seed N [--config FILE]" in message

    def test_kernel_major_up_layout_does_not_bind(self, cfg, store, tmp_path):
        # a file written before the up convs were 2-tap convs: each up weight
        # in the (out_ch, 2 * stride, in_ch) layout of a transposed conv,
        # which holds as many values as the (out_ch * stride, in_ch, 2) one
        up = kernel_major_up_weights(store)
        assert all(np.array_equal(up_weight(up[n]), store.get(n)) for n in up)
        old = store_of({n: up.get(n, store.get(n)) for n in store.names()})
        save_weights(old, tmp_path / "old.tvtw")
        with pytest.raises(ConfigError) as err:
            TvtSynModel.from_store(load_weights(tmp_path / "old.tvtw"), cfg)
        message = str(err.value)
        assert "'decoder.cnn.stage0.up.weight'" in message
        assert "tvtsyn init-weights --seed N [--config FILE]" in message

    def test_wrong_shape_entry_rejected(self, cfg, store):
        name = "decoder.cnn.stage0.up.weight"
        permuted = store.get(name).transpose(0, 2, 1)  # same size, (out_ch * up, kernel, in_ch)
        assert permuted.shape != store.get(name).shape
        bad = store_of({n: permuted if n == name else store.get(n) for n in store.names()})
        with pytest.raises(ConfigError, match=re.escape(repr(name))):
            TvtSynModel.from_store(bad, cfg)

    def test_init_follows_the_layout_rule(self, store):
        for name in store.names():
            arr = store.get(name)
            leaf = name.rsplit(".", 1)[-1]
            if leaf in ("bias", "beta"):
                assert np.all(arr == 0), name
            elif leaf in ("gamma", "scale"):
                assert np.all(arr == 1), name
            elif name.endswith((".o.weight", ".ffn2.weight")):
                bound = LAYER_SCALE / np.sqrt(arr.shape[1])
                assert 0.9 * bound < np.abs(arr).max() <= np.float32(bound), name
            elif leaf.endswith("_prior"):
                assert abs(arr.std() / 0.02 - 1.0) <= 0.2, name
            elif leaf == "codebook":
                np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0, atol=1e-6)
            elif name == "encoder.vq.proj_down.weight":
                up = store.get("encoder.vq.proj_up.weight")
                np.testing.assert_allclose(arr @ up, np.eye(arr.shape[0]), atol=1e-4)
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

    # the strides and the look-ahead are constants: no file can set them
    def test_stride_product_must_be_320(self):
        with pytest.raises(FormatError, match="unknown key 'encoder_strides'"):
            config_from_text("encoder_strides = 8,5,4,4\n")

    def test_mirrored_strides_required(self):
        with pytest.raises(FormatError, match="unknown key 'decoder_strides'"):
            config_from_text("decoder_strides = 8,5,4,2\n")

    def test_lookahead_bounds(self):
        with pytest.raises(FormatError, match="unknown key 'encoder_lookahead'"):
            config_from_text("encoder_lookahead = 5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown key"):
            config_from_text("bogus = 3\n")

    @pytest.mark.parametrize("value", ["pony", "nan", "inf", "0.5", "64.0", "1e3", "8,5"])
    def test_bad_value_rejected(self, value):
        # every value is an int
        with pytest.raises(FormatError, match=f"d_model': cannot parse '{value}'"):
            config_from_text(f"d_model = {value}\n")

    def test_stream_config_alignment(self):
        sc = StreamConfig(chunk_ms=60)
        assert sc.chunk_samples == 960 and sc.chunk_frames == 3
        assert StreamConfig(chunk_ms=100).chunk_frames == 5
        with pytest.raises(ConfigError, match="40 ms or 60 ms"):
            StreamConfig(chunk_ms=50)

    @pytest.mark.parametrize("lookahead", [-1, MAX_LOOKAHEAD + 1, 50, 2.5, 2.0, True, "2"])
    def test_stream_lookahead_must_be_int_in_range(self, lookahead):
        with pytest.raises(ConfigError, match="lookahead_frames must be an int in"):
            StreamConfig(lookahead_frames=lookahead)

    def test_non_utf8_config_file_is_format_error(self, tmp_path):
        # a TvtSynError naming the file, not a bare UnicodeDecodeError
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(FormatError, match=f"config file {re.escape(str(path))} is not UTF-8"):
            load_config(path)

    @pytest.mark.parametrize("chunk_ms", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_chunk_rejected(self, chunk_ms):
        with pytest.raises(ConfigError, match=r"chunk_ms must be a real number in \[20, 60000\]"):
            StreamConfig(chunk_ms=chunk_ms)

    @pytest.mark.parametrize("chunk_ms", ["60", None, [60], True])
    def test_chunk_that_is_not_a_number_rejected(self, chunk_ms):
        with pytest.raises(ConfigError, match="chunk_ms must be a real number in"):
            StreamConfig(chunk_ms=chunk_ms)

    # a size that is not an int fails here, naming the field, not later in
    # random_init; a bool is not a size either
    @pytest.mark.parametrize("name,value", [("d_model", 64.0), ("base_width", 4.5),
                                            ("n_layers", 2.0), ("n_layers", True),
                                            ("prosody_hidden", False), ("n_heads", "4")])
    def test_size_that_is_not_an_int_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an int >= 1, got {value!r}"):
            dataclasses.replace(small_config(), **{name: value})

    def test_chunk_longer_than_span_limit_rejected(self):
        assert StreamConfig(chunk_ms=1000 * MAX_SPAN_SECONDS).chunk_frames == 3000
        for chunk_ms in (1000 * MAX_SPAN_SECONDS + 20, 1e20, 1e300):
            with pytest.raises(ConfigError, match=r"in \[20, 60000\]") as err:
                StreamConfig(chunk_ms=chunk_ms)
            assert "nearest" not in str(err.value)


# what save_config wrote while the rates, the VQ bottleneck, the SEANet
# topology, the attention window and the layer scale were still fields
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


# each removed key at a value other than the one it was pinned to
REMOVED_ELSEWHERE = [
    ("sample_rate", "8000"), ("codebook_size", "2048"), ("vq_dim", "16"),
    ("vq_l2_normalize", "false"), ("decoder_strides", "8,5,4,2"),
    ("decoder_strides", "2,4,5,8,1"), ("vq_commitment", "0.3"), ("encoder_strides", "4,5,4,4"),
    ("init_kernel", "5"), ("final_kernel", "1"), ("res_kernel", "5"), ("res_dilation", "1"),
    ("lookback_frames", "50"), ("encoder_lookahead", "0"), ("layer_scale", "0.1")]


def _with_line(text, key, value):
    """`text` with the line for `key` replaced by `key = value`, or appended."""
    lines = [ln for ln in text.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestConfigText:
    def test_fixed_values_are_not_fields(self):
        names = {f.name for f in dataclasses.fields(ModelConfig)}
        assert not names & set(REMOVED_CONFIG_KEYS)
        assert len(REMOVED_CONFIG_KEYS) == 14 and len(names) == 12
        assert {f.name for f in dataclasses.fields(StreamConfig)} == {
            "chunk_ms", "lookahead_frames"}
        assert DECODER_STRIDES == (2, 4, 5, 8)

    def test_every_field_differs_in_the_small_config(self):
        # a field that holds one value in every config is an architecture
        # constant, not a size to configure
        full, small = ModelConfig(), small_config()
        same = [f.name for f in dataclasses.fields(ModelConfig)
                if getattr(full, f.name) == getattr(small, f.name)]
        assert not same

    def test_legacy_text_is_format_error(self):
        with pytest.raises(FormatError, match="line 1: unknown key 'sample_rate'"):
            config_from_text(LEGACY_TEXT)

    @pytest.mark.parametrize("key,value", REMOVED_ELSEWHERE)
    def test_removed_key_at_another_value_rejected(self, key, value):
        with pytest.raises(FormatError, match=f"unknown key '{key}'"):
            config_from_text(_with_line(config_to_text(ModelConfig()), key, value))

    @pytest.mark.parametrize("key,value", REMOVED_CONFIG_KEYS.items())
    def test_removed_key_at_its_old_value_rejected(self, key, value):
        with pytest.raises(FormatError, match=f"line 13: unknown key '{key}'"):
            config_from_text(_with_line(config_to_text(ModelConfig()), key, value))
        assert key not in config_to_text(ModelConfig())

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(FormatError, match="lines 2 and 4"):
            config_from_text("d_model = 64\nn_heads = 4\n\nn_heads = 8\n")

    @pytest.mark.parametrize("field,error", [
        ("n_heads", ConfigError), ("d_model", ConfigError),
        ("init_kernel", FormatError), ("res_dilation", FormatError)])  # removed keys
    def test_zero_is_config_error(self, field, error):
        with pytest.raises(error, match=field):
            config_from_text(f"{field} = 0\n")

    @pytest.mark.parametrize("field", ["layer_scale", "vq_commitment"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        # both are removed keys, so no value of theirs loads; every value is an int
        with pytest.raises(FormatError, match=f"unknown key '{field}'"):
            config_from_text(f"{field} = {value}\n")

    def test_negative_stride_rejected(self):
        with pytest.raises(FormatError, match="unknown key 'encoder_strides'"):
            config_from_text("encoder_strides = -8,-5,4,2\n")

    def test_fuzzed_text_loads_or_raises_typed_error(self):
        # every current and removed key, at values a hand-edited file might
        # hold. A removed key fails the whole file, as does any value that is
        # not an int, so they are drawn less often than the current keys and
        # the int values: each outcome still needs its 100 files
        good = dict(line.split(" = ") for line in LEGACY_TEXT.splitlines())
        current = [f.name for f in dataclasses.fields(ModelConfig)]
        removed = sorted(REMOVED_CONFIG_KEYS)
        int_values = ["0", "-1", "-4", "1", "2", "3", "4", "5", "7", "64", "8000", "16000",
                      "2048", "4096", "320", "1_000"]
        values = int_values + [
            "0.5", "1e400", "nan", "inf", "-inf", "", "pony", "true", "false", "yes",
            "8,5,4,2", "2,4,5,8", "4,5,4,4", "8,5,4,2,", "-8,-5,4,2", "0,5,4,2", "64.0"]
        rng = np.random.default_rng(20261018)
        outcomes = {"loaded": 0, "FormatError": 0, "ConfigError": 0}
        for _ in range(3000):
            lines = []
            for _ in range(int(rng.integers(0, 8))):
                keys = removed if rng.random() < 0.15 else current
                key = keys[rng.integers(len(keys))]
                r = rng.random()
                pool = int_values if r < 0.8 else values
                value = good[key] if r < 0.5 else pool[rng.integers(len(pool))]
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

    def test_full_config_budget_unchanged_by_fused_qkv(self, full_budget):
        # the counts of the separate q/k/v and gamma/beta/gate layouts, less
        # the 32 (512,) LayerScale vectors folded into the o and ffn2 weights
        # and the 68 (512,) pre-norm gammas and betas folded into the qkv,
        # ffn1 and FiLM weights
        assert full_budget == {"encoder": 38_854_528, "decoder": 50_235_717,
                               "total": 89_090_245}

    def test_small_config_layout(self, store):
        assert (len(store), store.parameter_count()) == (138, 274_845)

    def test_full_config_holds_one_qkv_per_attention_layer(self, full_shapes):
        # 16 attention layers, each with one (3 * d_model, d_model) q/k/v weight
        # and its bias where the separate layout held six entries: 408 -> 344;
        # each of the 2 cLNs holds one FiLM weight and bias where the separate
        # gamma/beta/gate generators held six entries: 344 -> 336; the prosody
        # predictors share one first conv and bias where they held four: 336 -> 334;
        # the 32 LayerScale vectors are folded into the o and ffn2 weights: 334 -> 302;
        # the 64 ln1/ln2 and 4 ln_x gammas and betas are folded into the qkv,
        # ffn1 and FiLM weights: 302 -> 234
        assert len(full_shapes) == 234
        assert not [n for n in full_shapes if ".ls_" in n]
        assert not [n for n in full_shapes if re.search(r"\.(ln1|ln2|ln_x)\.", n)]
        qkv = {n: s for n, s in full_shapes.items() if n.endswith(".qkv.weight")}
        assert len(qkv) == 16 and set(qkv.values()) == {(1536, 512)}
        assert not [n for n in full_shapes if re.search(r"\.[qkv]\.", n)]
        film = {n: s for n, s in full_shapes.items() if n.endswith(".film.weight")}
        assert film == {"decoder.cln_in.film.weight": (1216, 192),
                        "decoder.cln_out.film.weight": (1216, 192)}
        assert not [n for n in full_shapes if "_gen" in n]
        assert full_shapes["prosody.conv1.weight"] == (512, 512, 3)
        assert not [n for n in full_shapes if re.match(r"prosody\.\w+\.conv1\.", n)]
