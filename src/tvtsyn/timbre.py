"""Time-varying timbre: expand a global speaker vector into a Global Timbre
Memory, retrieve per-frame facets by content attention, gate the deviation,
and spherically interpolate toward the retrieved facet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, InputError
from .kernels import F32, l2_normalize_rows, linear, masked_softmax, mlp, sigmoid
from .weights import WeightStore

SLERP_MIN_ANGLE = 1e-4           # below: fall back to normalized lerp
SLERP_ANTIPODAL_MARGIN = 1e-4    # above pi - margin: perturb the endpoint
SLERP_PERTURB = 1e-6


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
    g = np.asarray(g, dtype=F32)
    if g.ndim != 1:
        raise InputError(f"global timbre vector must be 1-D, got shape {g.shape}")
    if g.shape[0] != expected_dim:
        raise InputError(f"global timbre vector has dim {g.shape[0]}, expected {expected_dim}")
    if not np.all(np.isfinite(g)):
        raise InputError("global timbre vector contains non-finite values")
    if float(np.linalg.norm(g)) == 0.0:
        raise InputError("global timbre vector must have nonzero norm")
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
    out = np.where(np.abs(sq - 1.0) <= 2e-6, x, x / np.sqrt(np.maximum(sq, 1e-24)))
    return out


def _orthogonal_perturbation(b):
    """A deterministic unit direction orthogonal to each row of b."""
    pick = np.argmin(np.abs(b), axis=-1)
    e = np.zeros_like(b)
    e[np.arange(b.shape[0]), pick] = 1.0
    u = e - np.sum(e * b, axis=-1, keepdims=True) * b
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def slerp(a, b, alpha):
    """Spherical interpolation along the geodesic from a toward b.

    Inputs are normalized internally; endpoints are returned exactly at
    alpha 0/1. Near-parallel pairs fall back to normalized lerp; near-antipodal
    pairs perturb b by a fixed orthogonal epsilon (the geodesic is undefined
    there). Internal math in float64, float32 out.
    """
    a = np.atleast_2d(np.asarray(a, dtype=F32)).astype(np.float64)
    b = np.atleast_2d(np.asarray(b, dtype=F32)).astype(np.float64)
    squeeze = a.shape[0] == 1 and b.shape[0] == 1 and np.ndim(alpha) == 0
    a, b = np.broadcast_arrays(a, b)
    n = max(a.shape[0], b.shape[0])
    alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64).reshape(-1, 1) if np.ndim(alpha)
                            else np.float64(alpha), (n, 1)).copy()
    if np.any(alpha < 0) or np.any(alpha > 1):
        raise InputError("slerp alpha must lie in [0, 1]")

    a = _unitize(a)
    b = _unitize(b)
    b_end = b  # exact endpoint, untouched by the antipodal perturbation

    dot = np.clip(np.sum(a * b, axis=-1, keepdims=True), -1.0, 1.0)
    theta = np.arccos(dot)

    antipodal = theta[:, 0] > np.pi - SLERP_ANTIPODAL_MARGIN
    if np.any(antipodal):
        b = b.copy()
        u = _orthogonal_perturbation(b[antipodal])
        b[antipodal] = b[antipodal] + SLERP_PERTURB * u
        b[antipodal] /= np.linalg.norm(b[antipodal], axis=-1, keepdims=True)
        dot = np.clip(np.sum(a * b, axis=-1, keepdims=True), -1.0, 1.0)
        theta = np.arccos(dot)

    sin_theta = np.sin(theta)
    near = (theta < SLERP_MIN_ANGLE)[:, 0]
    wa = np.empty_like(theta)
    wb = np.empty_like(theta)
    general = ~near
    wa[general] = np.sin((1.0 - alpha[general]) * theta[general]) / sin_theta[general]
    wb[general] = np.sin(alpha[general] * theta[general]) / sin_theta[general]
    wa[near] = 1.0 - alpha[near]
    wb[near] = alpha[near]

    out = wa * a + wb * b
    out /= np.linalg.norm(out, axis=-1, keepdims=True)
    # exact endpoints, including the degenerate branches
    at0 = alpha[:, 0] == 0.0
    at1 = alpha[:, 0] == 1.0
    out[at0] = a[at0]
    out[at1] = b_end[at1]
    out = out.astype(F32)
    return out[0] if squeeze else out


def tvt_sequence(content, g, gtm: GtmMemory, params: TvtParams, *, force_alpha=None):
    """Content frames + speaker -> (time-varying timbre stream (T, timbre_dim),
    facet weights (T, slots), gate alpha (T,)).

    `g` is the speaker vector `gtm` was built from; its projection is read
    from `gtm.g_hat`, computed once per speaker by build_gtm.
    force_alpha pins the gate (0 = static speaker, 1 = pure facet path).
    """
    g_hat = gtm.g_hat
    facets, weights = retrieve_facet(content, gtm, params)
    if force_alpha is None:
        alpha = gate_alpha(content, facets, g_hat, params)
    else:
        if not 0.0 <= force_alpha <= 1.0:
            raise ConfigError("force_alpha must lie in [0, 1]")
        alpha = np.full(content.shape[0], force_alpha, dtype=F32)
    facets_hat = l2_normalize_rows(facets)
    s = slerp(np.broadcast_to(g_hat, facets_hat.shape), facets_hat, alpha)
    return (s * params.scale[0]).astype(F32), weights, alpha
