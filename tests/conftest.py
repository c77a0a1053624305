import numpy as np
import pytest

from tvtsyn.config import small_config
from tvtsyn.model import TvtSynModel, random_init


# the keys that older config files held for values the architecture fixes,
# each at the one value it was pinned to; every one is now an unknown key
REMOVED_CONFIG_KEYS = {
    "sample_rate": "16000", "codebook_size": "4096", "vq_dim": "8", "vq_l2_normalize": "true",
    "vq_commitment": "0.15", "encoder_strides": "8,5,4,2", "decoder_strides": "2,4,5,8",
    "init_kernel": "7", "final_kernel": "3", "res_kernel": "3", "res_dilation": "2",
    "lookback_frames": "100", "encoder_lookahead": "4", "layer_scale": "0.01",
}

# weights where one NaN makes every VQ latent NaN (which argmin would map to
# code 0): in the encoder CNN, the first encoder attention layer and the VQ
# down projection
NAN_ENCODER_WEIGHTS = ["encoder.cnn.conv_in.weight", "encoder.attn.layer0.qkv.weight",
                       "encoder.vq.proj_down.weight"]


@pytest.fixture(scope="session")
def cfg():
    return small_config()


@pytest.fixture(scope="session")
def store(cfg):
    return random_init(0, cfg)


@pytest.fixture(scope="session")
def model(cfg, store):
    return TvtSynModel.from_store(store, cfg)


@pytest.fixture(scope="session")
def speaker(cfg):
    rng = np.random.default_rng(11)
    return rng.normal(0.0, 1.0, cfg.global_dim).astype(np.float32)


@pytest.fixture(scope="session")
def full_init():
    """The full-size config's entry shapes (name -> shape) and parameter
    counts, from one init per session that is not kept."""
    from tvtsyn.config import ModelConfig
    from tvtsyn.weights import parameter_budget

    store = random_init(0, ModelConfig())
    return {n: store.get(n).shape for n in store.names()}, parameter_budget(store)


@pytest.fixture(scope="session")
def full_shapes(full_init):
    return full_init[0]


@pytest.fixture(scope="session")
def full_budget(full_init):
    """Parameter counts of the full-size config."""
    return full_init[1]


def store_of(entries):
    """A WeightStore holding the (name -> array) entries, in order."""
    from tvtsyn.weights import WeightStore

    store = WeightStore()
    for name, arr in entries.items():
        store.put(name, arr)
    return store


def up_weight(w):
    """A transposed conv weight (out_ch, 2*stride, in_ch), as tconv_oracle
    takes it, in the up conv's (out_ch*stride, in_ch, 2) layout: row
    c*stride + j holds channel c's taps for sample j of a frame, on the
    previous frame (tap stride + j) and on its own (tap j)."""
    c_out, k, c_in = w.shape
    s = k // 2
    taps = np.stack([w[:, s:], w[:, :s]], axis=-1)           # (out_ch, s, in_ch, 2)
    return np.ascontiguousarray(taps.reshape(c_out * s, c_in, 2))


def kernel_major_up_weights(store):
    """Each decoder up weight of `store` (name -> array) in the (out_ch,
    2 * stride, in_ch) layout of a transposed conv, which files held before
    the up conv was stored as a 2-tap conv of (out_ch * stride, in_ch, 2):
    tap j of channel c is row c * stride + j's tap on its own frame, tap
    stride + j that row's tap on the previous frame."""
    from tvtsyn.config import DECODER_STRIDES

    old = {}
    for i, stride in enumerate(DECODER_STRIDES):
        name = f"decoder.cnn.stage{i}.up.weight"
        rows, in_ch, _ = store.get(name).shape
        w = store.get(name).reshape(rows // stride, stride, in_ch, 2)
        old[name] = np.concatenate([w[..., 1], w[..., 0]], axis=1)
    return old


def pin_gate(monkeypatch, alpha):
    """Make `tvt_sequence` use gate value `alpha` on every frame
    (0 = static speaker, 1 = pure facet path)."""
    from tvtsyn import timbre

    monkeypatch.setattr(timbre, "gate_alpha", lambda content, *_: np.full(
        content.shape[0], alpha, dtype=np.float32))


def remove_lookahead_mask(monkeypatch):
    """Mask-removal mutant: every attention mask lets each query see 500
    frames ahead, whatever look-ahead it was built for."""
    from tvtsyn import context

    real = context.band_mask
    monkeypatch.setattr(context, "band_mask", lambda q, k, lookback, lookahead, *rest: real(
        q, k, lookback, 500, *rest))


def conv_states(session):
    """A session's conv states: the encoder CNN's, the prosody predictors' and
    the decoder CNN's, one per layer."""
    return [*session.enc_state.conv, *session.pros_states, *session.cnn_states]


def state_layers(model):
    """The ConvLayer that carries each of conv_states' states, in its order: a
    residual block's state is its first conv's."""
    from tvtsyn.encoder import ResBlock

    def carrier(layer):
        return layer.conv1 if isinstance(layer, ResBlock) else layer

    pros = model.prosody
    return [*map(carrier, model.encoder.cnn.layers), pros.conv1, pros.f0.conv2,
            pros.energy.conv2, *map(carrier, model.decoder.cnn.layers)]


def check_state_only_where_memory(monkeypatch, model, speaker):
    """Over one synthesize and three feeds of a 60 ms session no ConvLayer of
    kernel 1 runs (the residual 1x1 convs are plain products), the session
    holds 23 conv states, each its layer's last (kernel - 1) * dilation input
    columns, and state_nbytes() is their bytes plus the two KV caches'.
    Returns the session."""
    from tvtsyn.config import StreamConfig
    from tvtsyn.kernels import ConvLayer
    from tvtsyn.model import synthesize
    from tvtsyn.streaming import open_session

    apply = ConvLayer.apply
    kernels = []

    def spy(layer, x, state):
        kernels.append(layer.kernel)
        return apply(layer, x, state)

    monkeypatch.setattr(ConvLayer, "apply", spy)
    synthesize(model, random_wave(40, 960 * 3), speaker)
    session = open_session(model, StreamConfig(chunk_ms=60), speaker)
    for k in range(3):
        session.feed(random_wave(41 + k, 960))
    assert kernels and 1 not in kernels
    states = conv_states(session)
    assert len(states) == 23
    assert all(isinstance(state, np.ndarray) and state.size for state in states)
    assert [state.shape for state in states] == [
        (layer.in_ch, (layer.kernel - 1) * layer.dilation) for layer in state_layers(model)]
    assert session.state_nbytes() == (sum(state.nbytes for state in states)
                                      + session.enc_state.cache.nbytes
                                      + session.dec_cache.nbytes)
    return session


def random_wave(seed, n_samples, amp=0.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-amp, amp, n_samples).astype(np.float32)
