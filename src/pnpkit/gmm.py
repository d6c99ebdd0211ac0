"""Exact Gaussian-mixture machinery: smoothed density, score, posterior mean.

For an isotropic mixture prior, corrupting with N(0, sigma^2 I) noise adds
sigma^2 to each component variance, so the smoothed density, its score, and
the posterior mean (MMSE denoiser) all have closed forms.  Everything is
evaluated in the log domain so small sigma does not underflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Rng, as_array

GMM_MAX_DIM = 64


@dataclass(frozen=True)
class GmmPrior:
    """Isotropic Gaussian mixture: weights (J,), means (J, n), variances (J,)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        # copies, so the caller's arrays stay writable and cannot change the prior
        weights = np.array(self.weights, dtype=np.float64).reshape(-1)
        means = np.array(self.means, dtype=np.float64)
        if means.ndim == 1:
            means = means[:, None]
        variances = np.array(self.variances, dtype=np.float64).reshape(-1)
        if means.shape[0] != weights.size or variances.size != weights.size:
            raise ValueError("weights, means, and variances must agree on the component count")
        if not all(np.all(np.isfinite(arr)) for arr in (weights, means, variances)):
            raise ValueError("weights, means, and variances must be finite")
        if np.any(weights <= 0):
            raise ValueError("component weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("component weights must sum to 1 within 1e-12")
        if np.any(variances <= 0):
            raise ValueError("component variances must be positive")
        if means.shape[1] > GMM_MAX_DIM:
            raise ValueError(f"mixture dimension capped at {GMM_MAX_DIM}")
        for arr in (weights, means, variances):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        # a one-entry cache: the smoothed constants of the last sigma used
        object.__setattr__(self, "_smoothed", None)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def mean(self) -> np.ndarray:
        return self.weights @ self.means


def load_gmm_prior(path) -> GmmPrior:
    """Load a prior from JSON {"weights": [...], "means": [[...]], "variances": [...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if set(doc) != {"weights", "means", "variances"}:
        raise ValueError(
            'GMM JSON must have exactly the keys "weights", "means", "variances"'
        )
    return GmmPrior(np.asarray(doc["weights"]), np.asarray(doc["means"]),
                    np.asarray(doc["variances"]))


@dataclass(frozen=True)
class _Smoothed:
    """Per-component constants of the prior smoothed by N(0, sigma^2 I).

    With s_j = v_j + sigma^2: ``log_norm`` is log w_j - (n/2) log(2 pi s_j),
    ``half_inv`` is 1/(2 s_j), ``inv_var`` is 1/s_j, ``shrink`` is v_j/s_j
    and ``offset`` (J, n) is sigma^2 mu_j / s_j, so component j's posterior
    mean is shrink_j * x + offset_j.
    """

    sigma: float
    log_norm: np.ndarray
    half_inv: np.ndarray
    inv_var: np.ndarray
    shrink: np.ndarray
    offset: np.ndarray


def _smoothed(prior: GmmPrior, sigma: float) -> _Smoothed:
    """The constants for ``sigma``; the last sigma's are kept on the prior."""
    cached = prior._smoothed
    if cached is not None and cached.sigma == sigma:
        return cached
    s2 = sigma * sigma
    s = prior.variances + s2
    consts = _Smoothed(
        sigma=sigma,
        log_norm=np.log(prior.weights) - 0.5 * prior.dim * np.log(2.0 * math.pi * s),
        half_inv=1.0 / (2.0 * s),
        inv_var=1.0 / s,
        shrink=prior.variances / s,
        offset=s2 * prior.means / s[:, None],
    )
    # one attribute store, so a concurrent reader sees the old or the new entry
    object.__setattr__(prior, "_smoothed", consts)
    return consts


def _component_logpdfs(prior: GmmPrior, c: _Smoothed, x: np.ndarray) -> np.ndarray:
    """log w_j N(x; mu_j, s_j I) for each component: shape (J,) or (C, J).

    A squared distance that overflows gives -inf, without a warning.
    """
    with np.errstate(over="ignore"):
        diff2 = np.sum((x[..., None, :] - prior.means) ** 2, axis=-1)
    return c.log_norm - diff2 * c.half_inv


def _far_logs(prior: GmmPrior, c: _Smoothed, x: np.ndarray) -> np.ndarray:
    """-|x - mu_j|^2 / (2 s_j) for each row of x scaled by its own power of two.

    For finite rows at which every squared distance overflows, so that every
    component's log-density is -inf.  A row's scale puts its largest entry,
    or the largest mean entry, just under 2^e, with e as large as keeps each
    value finite (n (2^(e+1))^2 max 1/(2 s_j) <= 2^1020).  The components
    keep their order, so the largest s_j, the limit far from the means, wins.
    """
    e = int((1018 - math.log2(prior.dim * float(np.max(c.half_inv)))) // 2)
    span = np.maximum(np.max(np.abs(x), axis=-1), np.max(np.abs(prior.means)))
    scale = np.ldexp(1.0, e - np.frexp(span)[1])[..., None, None]
    diff2 = np.sum((scale * x[..., None, :] - scale * prior.means) ** 2, axis=-1)
    return -diff2 * c.half_inv


def _as_points(prior: GmmPrior, x) -> np.ndarray:
    """A point (n,) or a batch (C, n); scalars and lists of n values are points."""
    arr = as_array(x)
    if arr.ndim < 2:
        arr = arr.reshape(-1)
    elif arr.ndim > 2:
        raise ValueError(f"x must be a point (n,) or a batch (C, n), got shape {arr.shape}")
    if arr.shape[-1] != prior.dim:
        raise ValueError(f"point has dimension {arr.shape[-1]}, prior expects {prior.dim}")
    return arr


def smoothed_logpdf(prior: GmmPrior, x, sigma: float):
    """log p_sigma(x): density of the prior corrupted by N(0, sigma^2 I) noise.

    A point gives a float; a batch (C, n) gives one value per row.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    arr = _as_points(prior, x)
    out = _logsumexp(_component_logpdfs(prior, _smoothed(prior, sigma), arr))
    return float(out) if arr.ndim == 1 else out


def _shifted_exp(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(logs - m) and m, for m the max of logs over the last axis (kept as an axis).

    The shift puts the largest term at 1, so a sum of the terms neither
    overflows nor underflows to 0.  A max that is not finite (a row of -inf,
    or one holding +inf) shifts by 0 instead, so its row sums to 0 or inf
    rather than to the NaN of inf - inf.
    """
    top = logs.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        top = np.where(np.isfinite(top), top, 0.0)
    return np.exp(logs - top), top


def _logsumexp(logs: np.ndarray) -> np.ndarray:
    """log(sum(exp(logs))) over the last axis, from the max-shifted terms.

    Neither edge warns: a term more than the float range below its row's
    max shifts to -inf and adds 0, and a row of -inf sums to 0, whose log
    is -inf.
    """
    with np.errstate(over="ignore", divide="ignore"):
        terms, top = _shifted_exp(logs)
        return np.log(terms.sum(axis=-1)) + top[..., 0]


def _responsibilities(prior: GmmPrior, c: _Smoothed, x: np.ndarray) -> np.ndarray:
    """Each component's posterior weight; finite rows far from every mean use :func:`_far_logs`."""
    logs = _component_logpdfs(prior, c, x)
    top = logs.max(axis=-1)
    if top.min() == -math.inf:  # a far row, or one holding an inf
        far = (top == -math.inf) & np.isfinite(x).all(axis=-1)
        logs[far] = _far_logs(prior, c, x[far])
    terms, _ = _shifted_exp(logs)
    return terms / terms.sum(axis=-1, keepdims=True)


def smoothed_score(prior: GmmPrior, x, sigma: float):
    """Exact gradient of :func:`smoothed_logpdf` with respect to x.

    sigma = 0 gives the score of the mixture itself (every variance is
    positive).  A batch (C, n) gives the score of each row.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    arr = _as_points(prior, x)
    c = _smoothed(prior, sigma)
    weights = _responsibilities(prior, c, arr) * c.inv_var
    return np.sum(weights[..., None] * (prior.means - arr[..., None, :]), axis=-2)


def posterior_mean(prior: GmmPrior, x, sigma: float):
    """Exact conditional mean E[x0 | x0 + sigma*w = x] under the mixture prior.

    Responsibilities are taken under the smoothed mixture; each component
    contributes its conjugate-Gaussian posterior mean shrink_j * x + offset_j.
    One component needs no responsibilities: the map is affine.  sigma = 0
    returns x (identity by convention).  A batch (C, n) gives the posterior
    mean of each row.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return _posterior_mean(prior, _as_points(prior, x), sigma)


def _posterior_mean(prior: GmmPrior, arr: np.ndarray, sigma: float) -> np.ndarray:
    """:func:`posterior_mean` of a checked point or batch and a checked sigma."""
    if sigma == 0:
        return arr.copy()
    c = _smoothed(prior, sigma)
    if prior.n_components == 1:
        return c.shrink[0] * arr + c.offset[0]
    r = _responsibilities(prior, c, arr)
    comp_means = c.shrink[:, None] * arr[..., None, :] + c.offset
    return np.sum(r[..., None] * comp_means, axis=-2)


def sample_smoothed(prior: GmmPrior, sigma: float, rng: Rng) -> np.ndarray:
    """One draw from the sigma-smoothed mixture."""
    j = rng.choice(prior.n_components, p=prior.weights)
    std = math.sqrt(float(prior.variances[j]) + sigma * sigma)
    return prior.means[j] + std * rng.standard_normal(prior.dim)


def tweedie_check(prior: GmmPrior, sigma: float, num_points: int, rng: Rng) -> float:
    """Max defect of the identity (posterior mean - x) = sigma^2 * score.

    Points are sampled from the smoothed mixture; both sides are evaluated
    through their independent closed forms.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    worst = 0.0
    for _ in range(num_points):
        x = sample_smoothed(prior, sigma, rng)
        lhs = posterior_mean(prior, x, sigma) - x
        rhs = sigma * sigma * smoothed_score(prior, x, sigma)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
