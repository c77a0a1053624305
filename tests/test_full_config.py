"""Smoke test of the full-size configuration: the 89M-parameter model binds,
synthesizes, and streams consistently with the offline pass.
"""

import numpy as np
import pytest

from conftest import check_state_only_where_memory, random_wave
from tvtsyn.config import ModelConfig, StreamConfig
from tvtsyn.model import TvtSynModel, random_init, synthesize
from tvtsyn.streaming import open_session

F32 = np.float32


@pytest.fixture(scope="module")
def full_model():
    cfg = ModelConfig()
    return TvtSynModel.from_store(random_init(0, cfg), cfg)


@pytest.fixture(scope="module")
def full_speaker():
    return np.random.default_rng(0).normal(0, 1, ModelConfig().global_dim).astype(F32)


def test_full_config_streams_and_matches_offline(full_model, full_speaker):
    model, speaker = full_model, full_speaker
    sc = StreamConfig(chunk_ms=60)
    wave = random_wave(5, sc.chunk_samples * 4)  # 240 ms

    session = open_session(model, sc, speaker)
    # KV rings, conv states, and one carried input of the prosody predictors'
    # shared first conv: (512, 2) float32
    assert session.state_nbytes() == 6_869_000
    pieces = [session.feed(wave[k * 960:(k + 1) * 960]) for k in range(4)]
    pieces.append(session.flush())
    streamed = np.concatenate(pieces)

    offline = synthesize(model, wave, speaker, block_frames=sc.chunk_frames)
    assert streamed.shape == offline.shape == wave.shape
    assert np.abs(streamed - offline).max() <= 1e-4
    assert np.abs(offline).max() <= 1.0


def test_full_config_state_only_where_memory(monkeypatch, full_model, full_speaker):
    session = check_state_only_where_memory(monkeypatch, full_model, full_speaker)
    assert session.state_nbytes() == 6_869_000
