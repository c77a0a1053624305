"""Streaming voice-conversion runtime with time-varying timbre conditioning.

Inference-only: a causal content encoder with a factorized VQ bottleneck,
a Global Timbre Memory producing a per-frame timbre stream, cLN-fusion
conditioning, prosody predictors, and a causal waveform decoder, packaged
with a chunk-wise streaming session, weight I/O, benchmarks, and a CLI.
"""

from .config import (FRAME_HOP, SAMPLE_RATE, ModelConfig, StreamConfig,
                     load_config, save_config, small_config)
from .errors import (ConfigError, FormatError, InputError, InternalError,
                     StateError, TvtSynError)
from .metrics import causality_probe, latency_bench
from .model import TvtSynModel, content_and_timbre, random_init, synthesize
from .streaming import StreamSession, open_session, stream_file
from .weights import WeightStore, load_weights, parameter_budget, save_weights

__version__ = "0.1.0"

__all__ = [
    "FRAME_HOP", "SAMPLE_RATE", "ModelConfig", "StreamConfig",
    "load_config", "save_config", "small_config",
    "ConfigError", "FormatError", "InputError", "InternalError",
    "StateError", "TvtSynError",
    "causality_probe", "latency_bench",
    "TvtSynModel", "content_and_timbre", "synthesize",
    "StreamSession", "open_session", "stream_file",
    "WeightStore", "load_weights", "parameter_budget", "random_init",
    "save_weights",
    "__version__",
]
