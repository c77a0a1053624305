"""The SEANet encoder and decoder CNNs against their architecture, written out
as one ConvLayer per named weight: which conv follows which, where each ELU
goes, the residual skips and the final tanh. Streaming and offline run
through the same CNN code, so the streaming-equals-offline checks cannot see
a wrong layer order; this reference can.
"""

import numpy as np
import pytest

from conftest import random_wave
from tvtsyn.config import ENCODER_STRIDES, FINAL_KERNEL, INIT_KERNEL, RES_DILATION, RES_KERNEL
from tvtsyn.decoder import DecoderCnn
from tvtsyn.encoder import EncoderCnn
from tvtsyn.kernels import ConvLayer, elu
from tvtsyn.weights import WeightStore

F32 = np.float32


@pytest.fixture(scope="module")
def biased_store(store):
    """The test weights with random biases, so that every bias is seen too."""
    rng = np.random.default_rng(21)
    out = WeightStore()
    for name in store.names():
        arr = store.get(name)
        if name.endswith(".bias"):
            arr = rng.normal(0.0, 0.1, arr.shape)
        out.put(name, arr)
    return out


class Reference:
    """The CNNs from ConvLayers, with one carried state per conv by name."""

    def __init__(self, store, cfg):
        self.store = store
        self.cfg = cfg
        self.states = {}
        self.widths = [cfg.base_width * 2 ** i for i in range(len(ENCODER_STRIDES) + 1)]

    def conv(self, name, x, *sizes, **geometry):
        """`x` through the stored conv `name` of sizes (in_ch, out_ch, kernel)."""
        layer = ConvLayer.from_store(self.store, name, *sizes, **geometry)
        if name not in self.states:
            self.states[name] = layer.init_state()
        return layer.apply(x, self.states[name])

    def res(self, name, width, x):
        h = self.conv(f"{name}.conv1", x, width, width, RES_KERNEL, dilation=RES_DILATION)
        # the 1x1 conv is stored as its (width, width) matrix; run it as a conv
        conv2 = ConvLayer(self.store.get(f"{name}.conv2.weight", (width, width))[:, :, None],
                          self.store.get(f"{name}.conv2.bias", (width,)))
        h = conv2.apply(elu(h), conv2.init_state())
        return x + h

    def encoder(self, wave):
        """conv_in, then per stage: res block, ELU, down conv; then ELU, conv_out."""
        cfg, w = self.cfg, self.widths
        x = self.conv("encoder.cnn.conv_in", wave.reshape(1, -1), 1, w[0], INIT_KERNEL)
        for i, s in enumerate(ENCODER_STRIDES):
            x = self.res(f"encoder.cnn.stage{i}.res", w[i], x)
            x = self.conv(f"encoder.cnn.stage{i}.down", elu(x), w[i], w[i + 1], 2 * s,
                          stride=s)
        x = self.conv("encoder.cnn.conv_out", elu(x), w[-1], cfg.d_model, FINAL_KERNEL)
        return x.T

    def decoder(self, frames):
        """conv_in, then per stage: ELU, up conv (2 taps over frames, s
        samples per frame), res block; then ELU, conv_out, tanh."""
        cfg, w = self.cfg, self.widths[::-1]
        x = self.conv("decoder.cnn.conv_in", frames.T, cfg.d_model, w[0], FINAL_KERNEL)
        for i, s in enumerate(ENCODER_STRIDES[::-1]):
            x = self.conv(f"decoder.cnn.stage{i}.up", elu(x), w[i], w[i + 1], 2, up=s)
            x = self.res(f"decoder.cnn.stage{i}.res", w[i + 1], x)
        x = self.conv("decoder.cnn.conv_out", elu(x), w[-1], 1, INIT_KERNEL)
        return np.tanh(x[0])


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("n_chunks", [1, 7])
def test_encoder_cnn_matches_reference(biased_store, cfg, n_chunks):
    cnn = EncoderCnn.from_store(biased_store, cfg)
    ref = Reference(biased_store, cfg)
    wave = random_wave(31, 960 * 7)
    states = cnn.init_states()
    for chunk in np.split(wave, n_chunks):
        frames = cnn.apply(chunk, states)
        _close(frames, ref.encoder(chunk))


@pytest.mark.parametrize("n_chunks", [1, 7])
def test_decoder_cnn_matches_reference(biased_store, cfg, n_chunks):
    cnn = DecoderCnn.from_store(biased_store, cfg)
    ref = Reference(biased_store, cfg)
    frames = np.random.default_rng(32).normal(0.0, 1.0, (21, cfg.d_model)).astype(F32)
    states = cnn.init_states()
    for chunk in np.split(frames, n_chunks):
        wave = cnn.apply(chunk, states)
        _close(wave, ref.decoder(chunk))
