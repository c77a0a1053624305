"""The library API under hostile values: every call returns finite float32
output or raises a tvtsyn.errors type, and warns nothing. Outside values pass
one of three rules in config.py: check_int, check_real and check_float_array.
"""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tvtsyn
from tvtsyn import (StreamConfig, causality_probe, content_and_timbre, latency_bench,
                    open_session, stream_file, synthesize)
from tvtsyn.errors import ConfigError, InputError, TvtSynError
from tvtsyn.timbre import slerp

CHUNK = StreamConfig(chunk_ms=20.0)  # 320 samples per chunk, the shortest


def _hostile(rng, n):
    """Values no parameter takes; each array has n elements, the length a
    valid array there would have, so that it reaches the dtype rule."""
    x = rng.uniform(-0.9, 0.9, n)
    return [x > 0, (x * 32767).astype(np.int16), x + 1j * x, x.astype(str), x.astype(object),
            np.ma.masked_array(x, mask=x > 0.5), [int(v) for v in rng.integers(-2, 3, n)],
            x * 1e300, np.array(x[0]), None, "2", True, np.nan, np.inf, -np.inf, 1e30, 2j]


def _waves(rng, n):
    x = rng.uniform(-0.5, 0.5, n)
    return [x.astype(np.float32), x, list(x)]


def _params(cfg, rng):
    """Valid and hostile values of each value parameter the sweep draws."""
    return {
        "wave": (_waves(rng, CHUNK.chunk_samples), _hostile(rng, CHUNK.chunk_samples)),
        "speaker": (_waves(rng, cfg.global_dim), _hostile(rng, cfg.global_dim)),
        "f0_scale": ([1.0, 0.5, 2, np.float32(1.5)], _hostile(rng, 3)),
        "lookahead": ([0, 4, np.int64(2)], _hostile(rng, 3)),
        "block_frames": ([None, 3], _hostile(rng, 3)),
        "chunk_ms": ([20.0, 40, np.float64(60.0)], _hostile(rng, 3)),
        "utterances": ([_waves(rng, CHUNK.chunk_samples)[:1]], _hostile(rng, 3)),
        "size": ([1, 2, np.int64(4)], _hostile(rng, 3)),
        "trials": ([1, np.int64(1)], _hostile(rng, 3)),
        "seed": ([0, 7, np.int64(2)], _hostile(rng, 3)),
        "a": (_waves(rng, 4) + [rng.normal(size=(3, 4))], _hostile(rng, 4)),
        "b": (_waves(rng, 4) + [rng.normal(size=(3, 4))], _hostile(rng, 4)),
        "alpha": ([0.0, 0.3, 1.0, np.float32(0.7), np.array([0.1, 0.5, 0.9])],
                  _hostile(rng, 3)),
    }


def _finite_f32(out):
    assert isinstance(out, np.ndarray) and out.dtype == np.float32, repr(out)
    assert np.isfinite(out).all()
    return out


def _sweep(model, speaker):
    """function -> (call, the value parameters it draws). Each call checks
    what it returns; `wave` is one chunk long."""

    def feed(wave):
        session = open_session(model, CHUNK, speaker)
        try:
            _finite_f32(session.feed(wave))
        finally:
            assert _finite_f32(session.flush()).size == 0

    def open_and_feed(speaker, f0_scale):
        session = open_session(model, CHUNK, speaker, f0_scale)
        _finite_f32(session.feed(np.zeros(CHUNK.chunk_samples, np.float32)))

    def stream(speaker, wave, f0_scale):
        out, feed_ms = stream_file(model, CHUNK, speaker, wave, f0_scale)
        _finite_f32(out)
        assert np.isfinite(feed_ms).all()

    def front_half(wave, speaker, lookahead, block_frames):
        for out in content_and_timbre(model, wave, speaker, lookahead=lookahead,
                                      block_frames=block_frames):
            _finite_f32(out)

    def synth(wave, speaker, lookahead, block_frames, f0_scale):
        _finite_f32(synthesize(model, wave, speaker, lookahead=lookahead,
                               block_frames=block_frames, f0_scale=f0_scale))

    def bench(speaker, utterances):
        report = latency_bench(model, CHUNK, speaker, utterances)
        assert np.isfinite([report["latency_ms_mean"], report["rtf_mean"]]).all()

    def stream_config(chunk_ms, lookahead):
        assert StreamConfig(chunk_ms=chunk_ms, lookahead_frames=lookahead).chunk_frames >= 1

    def model_config(size):
        # d_model and n_heads stay valid, so their divisibility checks do not
        # stand in front of the type rule
        assert dataclasses.replace(model.cfg, base_width=size, prosody_hidden=size)

    def probe(lookahead, trials, seed):
        def synth_fn(wave):
            return synthesize(model, wave, speaker, lookahead=lookahead)

        report = causality_probe(synth_fn, lookahead, trials, seed)
        assert report["clean"] and report["trials"] == trials

    def geodesic(a, b, alpha):
        out = _finite_f32(slerp(a, b, alpha))
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-5)

    return {
        "feed": (feed, ["wave"]),
        "open_session": (open_and_feed, ["speaker", "f0_scale"]),
        "stream_file": (stream, ["speaker", "wave", "f0_scale"]),
        "content_and_timbre": (front_half, ["wave", "speaker", "lookahead", "block_frames"]),
        "synthesize": (synth, ["wave", "speaker", "lookahead", "block_frames", "f0_scale"]),
        "latency_bench": (bench, ["speaker", "utterances"]),
        "StreamConfig": (stream_config, ["chunk_ms", "lookahead"]),
        "ModelConfig": (model_config, ["size"]),
        "slerp": (geodesic, ["a", "b", "alpha"]),
        "causality_probe": (probe, ["lookahead", "trials", "seed"]),
    }


def test_seeded_sweep_returns_finite_float32_or_a_typed_error(model, speaker):
    """A fuzz test (Miller, Fredriksen & So, CACM 1990) of the library API on
    small_config: seeded calls with up to two value parameters hostile and the
    others valid. Each call returns finite float32 output (for slerp, unit
    rows; for causality_probe, a clean report) or raises a tvtsyn.errors
    type, and warns nothing."""
    rng = np.random.default_rng(20261020)
    pools = _params(model.cfg, rng)
    sweep = _sweep(model, speaker)
    outcomes = {name: [0, 0] for name in sweep}  # [returned, raised]
    for i in range(540):
        name = list(sweep)[i % len(sweep)]
        call, names = sweep[name]
        # with every value valid, latency_bench streams 110 utterances
        least = 1 if name == "latency_bench" else 0
        hostile = set(rng.choice(names, size=int(rng.integers(least, min(2, len(names)) + 1)),
                                 replace=False))
        args = []
        for param in names:
            pool = pools[param][param in hostile]
            args.append(pool[rng.integers(len(pool))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(*args)
                outcomes[name][0] += 1
            except TvtSynError:
                outcomes[name][1] += 1
            except Exception as exc:
                raise AssertionError(f"{name}{tuple(args)!r} raised {exc!r}") from exc
    assert all(raised >= 10 for _, raised in outcomes.values()), outcomes
    assert all(returned >= 5 for name, (returned, _) in outcomes.items()
               if name != "latency_bench"), outcomes


# -- each escape the sweep found, by name -------------------------------------

def _chunk(dtype=np.float32, n=CHUNK.chunk_samples):
    return np.random.default_rng(3).uniform(-0.5, 0.5, n).astype(dtype)


BAD_ARRAYS = {
    "bool": lambda x: x > 0,
    "int16": lambda x: (x * 32767).astype(np.int16),
    "complex": lambda x: x.astype(np.complex64),
    "str": lambda x: x.astype(str),
    "object": lambda x: x.astype(object),
    "masked": lambda x: np.ma.masked_array(x, mask=x > 0.4),
}


@pytest.mark.parametrize("kind", list(BAD_ARRAYS))
def test_feed_rejects_a_chunk_that_is_not_real_floats(model, speaker, kind):
    session = open_session(model, CHUNK, speaker)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="chunk"):
            session.feed(BAD_ARRAYS[kind](_chunk(np.float64)))
    # rejected before any state changed
    assert session.samples_in == 0
    _finite_f32(session.feed(_chunk()))


def test_int16_pcm_message_says_how_to_scale(model, speaker):
    session = open_session(model, CHUNK, speaker)
    pcm = (_chunk() * 32767).astype(np.int16)
    with pytest.raises(InputError, match="scale integer PCM by 1/32768"):
        session.feed(pcm)


@pytest.mark.parametrize("wave", [
    pytest.param((_chunk(np.float64, 960) * 32767).astype(np.int16), id="int16"),
    pytest.param([1, 0, -1] * 320, id="list-of-ints")])
def test_synthesize_rejects_integer_samples(model, speaker, wave):
    with pytest.raises(InputError, match="input wave must have a real floating dtype"):
        synthesize(model, wave, speaker)


@pytest.mark.parametrize("kind", ["complex", "str", "bool"])
def test_open_session_rejects_a_speaker_that_is_not_real_floats(model, speaker, kind):
    bad = {"complex": speaker.astype(np.complex64), "str": speaker.astype(str),
           "bool": speaker > 0}[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="global timbre vector must have a real floating"):
            open_session(model, CHUNK, bad)


F0_SCALES = [pytest.param(v, id=i) for v, i in (
    (None, "None"), (2j, "complex"), ("2", "str"), (True, "bool"), (np.array(2.0), "0-d"))]


@pytest.mark.parametrize("f0_scale", F0_SCALES)
def test_open_session_rejects_an_f0_scale_that_is_not_a_real_number(model, speaker, f0_scale):
    with pytest.raises(ConfigError, match=r"f0_scale must be a real number in \[-32, 32\]"):
        open_session(model, CHUNK, speaker, f0_scale)


@pytest.mark.parametrize("f0_scale", F0_SCALES)
def test_stream_file_rejects_an_f0_scale_that_is_not_a_real_number(model, speaker, f0_scale):
    with pytest.raises(ConfigError, match="f0_scale"):
        stream_file(model, CHUNK, speaker, _chunk(), f0_scale)


@pytest.mark.parametrize("f0_scale", F0_SCALES)
def test_synthesize_rejects_an_f0_scale_that_is_not_a_real_number(model, speaker, f0_scale):
    with pytest.raises(ConfigError, match="f0_scale"):
        synthesize(model, _chunk(), speaker, f0_scale=f0_scale)


UNIT = np.array([1.0, 0.0, 0.0], np.float32)
TURN = np.array([0.0, 1.0, 0.0], np.float32)


@pytest.mark.parametrize("a,b,alpha,match", [
    pytest.param(UNIT, TURN, "0.5", "slerp alpha", id="str-alpha"),
    pytest.param(UNIT, TURN, 0.5 + 0j, "slerp alpha", id="complex-alpha"),
    pytest.param(UNIT.astype(str), TURN, 0.5, "slerp vector", id="str-vector"),
    pytest.param(np.ones((2, 3)), np.ones((3, 3)), 0.5, "do not broadcast", id="rows-2-vs-3"),
    pytest.param(UNIT, np.ones(4), 0.5, "do not broadcast", id="dim-3-vs-4"),
    pytest.param(np.array([np.nan, 0.0, 0.0]), TURN, 0.5, "finite", id="nan-vector"),
    pytest.param(np.zeros(3), TURN, 0.5, "nonzero", id="zero-a"),
])
def test_slerp_rejects(a, b, alpha, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=match):
            slerp(a, b, alpha)


PAST_F32 = {
    "feed": (lambda model, speaker: open_session(model, CHUNK, speaker).feed(
        np.full(CHUNK.chunk_samples, 1e300)), "chunk contains non-finite samples"),
    "speaker": (lambda model, speaker: open_session(model, CHUNK, np.full(speaker.size, -1e300)),
                "global timbre vector contains non-finite values"),
    "slerp": (lambda model, speaker: slerp(np.array([1e300, 0.0, 0.0]), TURN, 0.5),
              "slerp vectors must be finite"),
}


@pytest.mark.parametrize("call", list(PAST_F32))
def test_float64_past_float32_range_is_an_input_error_not_a_warning(model, speaker, call):
    """Cast to float32, such a value is inf: rejected without numpy's overflow warning."""
    fn, match = PAST_F32[call]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=match):
            fn(model, speaker)


def test_latency_bench_rejects_utterances_that_are_not_a_list(model, speaker):
    with pytest.raises(InputError, match="utterances must be a list of waves, got None"):
        latency_bench(model, CHUNK, speaker, None)


# -- the mask rule costs nothing until numpy.ma exists -------------------------

def test_a_session_and_a_synthesis_leave_numpy_ma_unimported():
    """Writing the rule as isinstance(x, np.ma.MaskedArray) would import
    numpy.ma inside open_session: ~16 ms and ~1.3 MB on the first session.
    numpy 1.x imports numpy.ma with numpy itself, so the test asks only that
    tvtsyn does not import it when numpy has not."""
    code = ("import sys\n"
            "import numpy as np\n"
            "before = 'numpy.ma' in sys.modules\n"
            "import tvtsyn\n"
            "from tvtsyn.config import small_config\n"
            "cfg = small_config()\n"
            "model = tvtsyn.TvtSynModel.from_store(tvtsyn.random_init(0, cfg), cfg)\n"
            "speaker = np.ones(cfg.global_dim, np.float32)\n"
            "session = tvtsyn.open_session(model, tvtsyn.StreamConfig(), speaker)\n"
            "session.feed(np.zeros(session.chunk_samples, np.float32))\n"
            "tvtsyn.synthesize(model, np.zeros(960, np.float32), speaker)\n"
            "print(before, 'numpy.ma' in sys.modules)\n")
    src = str(Path(tvtsyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before
