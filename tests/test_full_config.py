"""Smoke test of the full-size configuration: the 89M-parameter model binds,
synthesizes, and streams consistently with the offline pass.
"""

import numpy as np
import pytest

from conftest import (check_state_only_where_memory, random_wave, store_of, with_layer_scales,
                      with_pre_norm_affines)
from tvtsyn.config import ModelConfig, StreamConfig
from tvtsyn.errors import ConfigError
from tvtsyn.model import TvtSynModel, random_init, synthesize
from tvtsyn.streaming import open_session

F32 = np.float32


@pytest.fixture(scope="module")
def full_store():
    return random_init(0, ModelConfig())


@pytest.fixture(scope="module")
def full_model(full_store):
    return TvtSynModel.from_store(full_store, ModelConfig())


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


def test_full_config_layer_scale_file_does_not_bind(full_store):
    # the 32 LayerScale vectors a file held before they were folded into the
    # o and ffn2 weights are unknown entries, and the error says what to do
    old = store_of(with_layer_scales(full_store))
    assert len(old) - len(full_store) == 32
    with pytest.raises(ConfigError) as err:
        TvtSynModel.from_store(old, ModelConfig())
    message = str(err.value)
    assert message.startswith("weight store has 32 unknown entries, first: "
                              "['encoder.attn.layer0.ls_attn', ")
    assert "tvtsyn init-weights --seed N [--config FILE]" in message


def test_full_config_pre_norm_file_does_not_bind(full_store):
    # the 64 ln1/ln2 and 4 ln_x gammas and betas a file held before they were
    # folded into the qkv, ffn1 and FiLM weights are unknown entries
    old = store_of(with_pre_norm_affines(full_store, ModelConfig().d_model))
    assert len(old) - len(full_store) == 68
    with pytest.raises(ConfigError) as err:
        TvtSynModel.from_store(old, ModelConfig())
    message = str(err.value)
    assert message.startswith("weight store has 68 unknown entries, first: "
                              "['encoder.attn.layer0.ln1.gamma', ")
    assert "tvtsyn init-weights --seed N [--config FILE]" in message
