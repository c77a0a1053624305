"""Guards for the benchmark's tracer (perfbench/spans.py): it wraps library
functions by owner and name, so a renamed or moved entry point must fail
here, not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import random_wave
from tvtsyn import model as model_mod
from tvtsyn import streaming
from tvtsyn.config import StreamConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_entry_point_resolves(spans):
    for ep in spans.entry_points():
        where = f"{ep.owner.__name__}.{ep.attr}"
        if isinstance(ep.owner, type):
            # Tracer.installed reads (and restores) the class's own attribute
            assert ep.attr in ep.owner.__dict__, f"{where} is not defined on the class itself"
        else:
            assert hasattr(ep.owner, ep.attr), f"{where} does not exist"
        assert ep.layer in spans.LAYERS, f"{where} feeds unknown layer {ep.layer}"


def _stream(model, speaker, tracer):
    scfg = StreamConfig(chunk_ms=60)
    wave = random_wave(2, 2 * scfg.chunk_samples)
    tracer.unit = ("open", 0, 0, True)
    session = streaming.open_session(model, scfg, speaker)
    for k in range(2):
        tracer.unit = ("chunk", 0, k, True)
        session.feed(wave[k * scfg.chunk_samples:(k + 1) * scfg.chunk_samples])


def _offline(model, speaker, tracer):
    tracer.unit = ("utterance", 0, 0, True)
    model_mod.synthesize(model, random_wave(3, 1920), speaker)


@pytest.mark.parametrize("run,other_root", [(_stream, "model.synthesize"),
                                            (_offline, "streaming.feed")])
def test_traced_run_reaches_every_layer(spans, model, store, speaker, run, other_root):
    tracer = spans.Tracer()
    feed = streaming.StreamSession.__dict__["feed"]
    with tracer.installed():
        run(model, speaker, tracer)
    assert streaming.StreamSession.__dict__["feed"] is feed  # restored
    report = tracer.layer_report()
    missing = [layer for layer in spans.LAYERS if layer != other_root
               and (layer not in report or report[layer]["frames"] <= 0)]
    assert not missing, f"layers the traced run did not reach: {missing}"
    # the tracer counts a CNN's weights by walking its layers; every stored
    # tensor of the CNN must be reached, once
    for layer in ("encoder.cnn", "decoder.cnn"):
        want = 4 * store.parameter_count([f"{layer}."])
        assert report[layer]["weight_mb"] * 1e6 == pytest.approx(want, rel=1e-12), layer
