"""Time-varying timbre: expand a global speaker vector into a Global Timbre
Memory, retrieve per-frame facets by content attention, gate the deviation,
and spherically interpolate toward the retrieved facet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, check_float_array
from .errors import InputError
from .kernels import F32, l2_normalize_rows, linear, masked_softmax, mlp, sigmoid
from .weights import WeightStore

# |b - (a.b)a| of unit a, b below this: b = +-a up to rounding, no plane
SLERP_DEGENERATE = 1e-9


@dataclass
class TvtParams:
    g_proj_w: np.ndarray
    g_proj_b: np.ndarray
    mlp_k: tuple  # (w1, b1, w2, b2)
    mlp_v: tuple
    key_prior: np.ndarray    # (slots, attn_dim)
    value_prior: np.ndarray  # (slots, timbre_dim)
    query_w: np.ndarray
    query_b: np.ndarray
    gate: tuple  # (w1, b1, w2, b2)
    scale: np.ndarray  # learnable scalar, shape (1,)

    @property
    def n_slots(self) -> int:
        return self.key_prior.shape[0]

    @property
    def attn_dim(self) -> int:
        return self.key_prior.shape[1]

    @property
    def timbre_dim(self) -> int:
        return self.value_prior.shape[1]

    @classmethod
    def from_store(cls, store: WeightStore, cfg: ModelConfig):
        k_out = cfg.gtm_slots * cfg.tvt_attn_dim
        v_out = cfg.gtm_slots * cfg.timbre_dim
        gate_in = cfg.d_model + 2 * cfg.timbre_dim
        return cls(
            g_proj_w=store.get("tvt.g_proj.weight", (cfg.timbre_dim, cfg.global_dim)),
            g_proj_b=store.get("tvt.g_proj.bias", (cfg.timbre_dim,)),
            mlp_k=(store.get("tvt.mlp_k.fc1.weight", (cfg.tvt_mlp_hidden, cfg.global_dim)),
                   store.get("tvt.mlp_k.fc1.bias", (cfg.tvt_mlp_hidden,)),
                   store.get("tvt.mlp_k.fc2.weight", (k_out, cfg.tvt_mlp_hidden)),
                   store.get("tvt.mlp_k.fc2.bias", (k_out,))),
            mlp_v=(store.get("tvt.mlp_v.fc1.weight", (cfg.tvt_mlp_hidden, cfg.global_dim)),
                   store.get("tvt.mlp_v.fc1.bias", (cfg.tvt_mlp_hidden,)),
                   store.get("tvt.mlp_v.fc2.weight", (v_out, cfg.tvt_mlp_hidden)),
                   store.get("tvt.mlp_v.fc2.bias", (v_out,))),
            key_prior=store.get("tvt.key_prior", (cfg.gtm_slots, cfg.tvt_attn_dim)),
            value_prior=store.get("tvt.value_prior", (cfg.gtm_slots, cfg.timbre_dim)),
            query_w=store.get("tvt.query.weight", (cfg.tvt_attn_dim, cfg.d_model)),
            query_b=store.get("tvt.query.bias", (cfg.tvt_attn_dim,)),
            gate=(store.get("tvt.gate.fc1.weight", (cfg.gate_hidden, gate_in)),
                  store.get("tvt.gate.fc1.bias", (cfg.gate_hidden,)),
                  store.get("tvt.gate.fc2.weight", (1, cfg.gate_hidden)),
                  store.get("tvt.gate.fc2.bias", (1,))),
            scale=store.get("tvt.scale", (1,)),
        )


@dataclass
class GtmMemory:
    """Per-speaker key/value facet slots = speaker MLP output + shared priors,
    and the speaker's unit-norm projection into the timbre space."""

    keys: np.ndarray    # (slots, attn_dim)
    values: np.ndarray  # (slots, timbre_dim)
    g_hat: np.ndarray   # (timbre_dim,)


def check_global_timbre(g, expected_dim):
    """The speaker as float32 (see check_float_array); a bad shape or value is an InputError."""
    g = check_float_array(g, "global timbre vector")
    if g.ndim != 1:
        raise InputError(f"global timbre vector must be 1-D, got shape {g.shape}")
    if g.shape[0] != expected_dim:
        raise InputError(f"global timbre vector has dim {g.shape[0]}, expected {expected_dim}")
    if not np.all(np.isfinite(g)):
        raise InputError("global timbre vector contains non-finite values")
    sq_norm = float(np.sum(np.square(g, dtype=np.float64)))  # f64: cannot overflow here
    if sq_norm == 0.0:
        raise InputError("global timbre vector must have nonzero norm")
    if sq_norm > float(np.finfo(F32).max):
        raise InputError(f"global timbre vector has norm {np.sqrt(sq_norm):.3g}: its "
                         f"squared norm overflows float32")
    return g


def build_gtm(g, params: TvtParams) -> GtmMemory:
    """Speaker vector -> facet memory; the priors are shared across speakers."""
    g = check_global_timbre(g, params.g_proj_w.shape[1])
    keys = mlp(g, *params.mlp_k).reshape(params.n_slots, params.attn_dim) + params.key_prior
    values = mlp(g, *params.mlp_v).reshape(params.n_slots, params.timbre_dim) + params.value_prior
    return GtmMemory(keys=keys.astype(F32), values=values.astype(F32),
                     g_hat=project_global(g, params))


def project_global(g, params: TvtParams):
    """Unit-norm projection of the (checked) global vector into the timbre space."""
    return l2_normalize_rows(linear(g, params.g_proj_w, params.g_proj_b))


def retrieve_facet(content, gtm: GtmMemory, params: TvtParams):
    """Content frames (T, d_model) -> (facet mix (T, timbre_dim), weights (T, slots))."""
    q = linear(content, params.query_w, params.query_b)
    scores = (q @ gtm.keys.T) * F32(1.0 / np.sqrt(params.attn_dim))
    w = masked_softmax(scores)
    return (w @ gtm.values).astype(F32, copy=False), w.astype(F32, copy=False)


def gate_alpha(content, facet, g_hat, params: TvtParams):
    """Per-frame deviation gate in (0, 1)."""
    tiled = np.broadcast_to(g_hat, (content.shape[0], g_hat.shape[-1]))
    x = np.concatenate([content, facet, tiled], axis=1)
    return sigmoid(mlp(x, *params.gate))[:, 0]


def _unitize(x):
    """Normalize rows in f64, but keep rows that are already unit-norm f32
    vectors bit-identical (so endpoint returns reproduce the input exactly)."""
    sq = np.sum(x * x, axis=-1, keepdims=True)
    return np.where(np.abs(sq - 1.0) <= 2e-6, x, x / np.sqrt(sq))


def _orthogonal_direction(a):
    """A deterministic unit direction orthogonal to each row of a."""
    pick = np.argmin(np.abs(a), axis=-1)
    e = np.zeros_like(a)
    e[np.arange(a.shape[0]), pick] = 1.0
    u = e - np.sum(e * a, axis=-1, keepdims=True) * a
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def slerp(a, b, alpha):
    """Spherical interpolation along the geodesic from a toward b (Shoemake,
    SIGGRAPH 1985), as a rotation in the plane of a and b: with u the part of
    b orthogonal to a and theta = atan2(|u|, a.b), the result is
    cos(alpha theta) a + sin(alpha theta) u/|u|.

    Inputs are normalized internally; endpoints are returned exactly at
    alpha 0/1. When b = +-a up to rounding there is no plane, and u is a
    fixed direction orthogonal to a: b = a stays at a, and b = -a turns
    through that direction. Internal math in float64, float32 out. Inputs other than
    real floats (see check_float_array) of finite, nonzero vectors of dim >= 2, or rows
    of them that broadcast, and alpha in [0, 1] once or per row, are an InputError."""
    a, b = (np.atleast_2d(check_float_array(x, "slerp vector")).astype(np.float64) for x in (a, b))
    alpha = check_float_array(alpha, "slerp alpha", np.float64)
    squeeze = a.shape[0] == 1 and b.shape[0] == 1 and alpha.ndim == 0
    try:
        a, b = np.broadcast_arrays(a, b)
        alpha = np.broadcast_to(alpha.reshape(-1, 1), (a.shape[0], 1))
    except ValueError as exc:
        raise InputError(f"slerp inputs do not broadcast: {exc}") from exc
    if a.ndim != 2 or a.shape[1] < 2:
        raise InputError(f"slerp vectors must have one dim >= 2, got shape {a.shape}")
    norms = [np.linalg.norm(x, axis=-1, keepdims=True) for x in (a, b)]
    # written so that NaN fails too
    if not np.all((alpha >= 0) & (alpha <= 1)):
        raise InputError("slerp alpha must lie in [0, 1]")
    if not all(np.all((n > 0) & (n < np.inf)) for n in norms):
        raise InputError("slerp vectors must be finite and nonzero")
    a_hat, b_hat = a / norms[0], b / norms[1]
    dot = np.sum(a_hat * b_hat, axis=-1, keepdims=True)
    u = b_hat - dot * a_hat
    u_norm = np.linalg.norm(u, axis=-1, keepdims=True)
    theta = np.arctan2(u_norm, dot)
    degenerate = u_norm[:, 0] < SLERP_DEGENERATE
    u[degenerate] = _orthogonal_direction(a_hat[degenerate])
    u_norm[degenerate] = 1.0
    out = np.cos(alpha * theta) * a_hat + np.sin(alpha * theta) / u_norm * u
    at0, at1 = alpha[:, 0] == 0.0, alpha[:, 0] == 1.0
    out[at0] = _unitize(a[at0])
    out[at1] = _unitize(b[at1])
    out = out.astype(F32)
    return out[0] if squeeze else out


def tvt_sequence(content, g, gtm: GtmMemory, params: TvtParams):
    """Content frames + speaker -> (time-varying timbre stream (T, timbre_dim),
    facet weights (T, slots), gate alpha (T,)).

    `g` is the speaker vector `gtm` was built from; its projection is read
    from `gtm.g_hat`, computed once per speaker by build_gtm.
    """
    facets, weights = retrieve_facet(content, gtm, params)
    alpha = gate_alpha(content, facets, gtm.g_hat, params)
    s = slerp(gtm.g_hat, facets, alpha)
    return (s * params.scale[0]).astype(F32), weights, alpha
