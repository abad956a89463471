"""Wear and retention assessment from quantized multi-read histograms.

The same limited-precision read thresholds that feed soft information to
an LDPC decoder partition the voltage axis into bins; counting a cell
population into those bins gives a histogram from which the physical wear
parameters (accumulated voltage, and optionally retention time) can be
recovered by multinomial maximum likelihood. The fitted state then yields
both the current capacity and per-bin LLRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .channel import (
    DeviceParams,
    WearState,
    _cdf_sf,
    _check_time,
    _level_moments,
    level_noise_specs,
    sample_mixture,
)
from .allocation import capacity_at

__all__ = [
    "ReadThresholds",
    "Histogram",
    "WearEstimate",
    "Population",
    "InsufficientDataError",
    "GRAY_LABELS_4",
    "PROB_FLOOR",
    "V_ACC_MAX",
    "T_MAX",
    "default_read_thresholds",
    "simulate_population",
    "build_histogram",
    "bin_probabilities",
    "fit_wear_state",
    "bin_llrs",
]

GRAY_LABELS_4 = ("11", "10", "00", "01")

PROB_FLOOR = 1e-300
MIN_HISTOGRAM_TOTAL = 100

# The wear fit searches 0 <= v_acc <= V_ACC_MAX volts and 0 <= t <= T_MAX
# hours.
V_ACC_MAX = 1e5
T_MAX = 1e5


class InsufficientDataError(ValueError):
    """Histogram too small for a meaningful fit."""


@dataclass(frozen=True)
class ReadThresholds:
    """Strictly increasing comparator voltages; k thresholds induce k+1
    half-open bins (-inf, t1], (t1, t2], ..., (tk, inf)."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "thresholds", tuple(float(v) for v in self.thresholds)
        )
        if len(self.thresholds) < 1:
            raise ValueError("need at least one threshold")
        if not all(math.isfinite(v) for v in self.thresholds):
            raise ValueError("thresholds must be finite")
        if any(
            b >= a for b, a in zip(self.thresholds, self.thresholds[1:])
        ):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def num_bins(self) -> int:
        return len(self.thresholds) + 1


@dataclass(frozen=True)
class Histogram:
    thresholds: ReadThresholds
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if len(self.counts) != self.thresholds.num_bins:
            raise ValueError("counts length must be number of bins")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class WearEstimate:
    v_acc_hat: float
    t_hat: float
    log_likelihood: float
    capacity_hat: float
    converged: bool
    # Covariance of (log1p v_acc_hat, log1p t_hat), or of log1p v_acc_hat
    # alone when t was known; nested tuples so that estimates compare by ==.
    log_cov: tuple[tuple[float, ...], ...] = ()


class Population(NamedTuple):
    levels: np.ndarray  # true written level index per cell
    reads: np.ndarray  # read-back voltage per cell


def default_read_thresholds(
    levels: Sequence[float], per_gap: int = 3
) -> ReadThresholds:
    """Thresholds placed symmetrically about each adjacent-level midpoint.

    Spacing is gap/(2*per_gap), so per_gap=3 puts thresholds at midpoint
    and midpoint +/- gap/6, and per_gap=1 reduces to the hard-decision
    midpoints.
    """
    levels = [float(x) for x in levels]
    if any(b >= a for b, a in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    if per_gap < 1:
        raise ValueError("per_gap must be at least 1")
    thresholds = []
    for lo, hi in zip(levels, levels[1:]):
        mid = 0.5 * (lo + hi)
        w = (hi - lo) / (2 * per_gap)
        for j in range(per_gap):
            thresholds.append(mid + (j - (per_gap - 1) / 2) * w)
    return ReadThresholds(tuple(thresholds))


def simulate_population(
    n_cells: int,
    state: WearState,
    t: float,
    params: DeviceParams,
    seed: int,
    scale_erased: bool = True,
) -> Population:
    """Simulated read of a cell population with uniformly written levels.

    Deterministic in the seed.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    specs = level_noise_specs(state, t, params, scale_erased)
    return Population(*sample_mixture(specs, np.random.default_rng(seed), n_cells))


def build_histogram(samples, thresholds: ReadThresholds) -> Histogram:
    """Count samples into the bins induced by the read thresholds."""
    samples = np.asarray(samples, dtype=float)
    idx = np.searchsorted(np.array(thresholds.thresholds), samples, side="left")
    counts = np.bincount(idx, minlength=thresholds.num_bins)
    return Histogram(thresholds=thresholds, counts=tuple(int(c) for c in counts))


def _bin_probability_grid(v_acc, t, alpha, params, edges, scale_erased):
    """P(read falls in bin b | written level i) at many (v_acc, t) points.

    v_acc and t broadcast against each other to a shape S and the result
    has shape S + (L, B), with the per-level noise from _level_moments.
    The caller guarantees finite v_acc >= 0 and t >= 0.
    """
    mu, sigma2, lam = _level_moments(
        np.asarray(v_acc, dtype=float)[..., None],
        np.asarray(t, dtype=float)[..., None],
        alpha, params, scale_erased,
    )
    mu = mu[..., None]
    cdf, sf = _cdf_sf(edges, mu, np.sqrt(sigma2)[..., None], lam[..., None])
    # Bin differences with the end bins closed at certainty, written in
    # place: np.diff with prepend/append concatenates on every call.
    lower = np.empty(cdf.shape[:-1] + (cdf.shape[-1] + 1,))
    upper = np.empty_like(lower)
    lower[..., 0], upper[..., 0] = cdf[..., 0], 1.0 - sf[..., 0]
    np.subtract(cdf[..., 1:], cdf[..., :-1], out=lower[..., 1:-1])
    np.subtract(sf[..., :-1], sf[..., 1:], out=upper[..., 1:-1])
    lower[..., -1], upper[..., -1] = 1.0 - cdf[..., -1], sf[..., -1]
    # Bins from the level mean up take SF differences (see bin_probabilities).
    return np.maximum(np.where(np.append(edges, np.inf) >= mu, upper, lower), 0.0)


def bin_probabilities(
    state: WearState,
    t: float,
    params: DeviceParams,
    thresholds: ReadThresholds,
    scale_erased: bool = True,
) -> np.ndarray:
    """Model-implied P(read falls in bin b | written level i) as an L x B
    matrix; each row sums to 1 by construction (CDF differences with the
    end bins closed at certainty).

    Bins entirely above a level's mean are differenced on the survival
    function instead of the CDF, which would round to 1 there and wipe out
    the tail probabilities the LLRs depend on.
    """
    _check_time(t, "t")
    return _bin_probability_grid(
        state.v_acc, t, state.alpha, params, np.array(thresholds.thresholds), scale_erased
    )


def _log_likelihood(
    hist: Histogram,
    v_acc,
    t,
    alpha: float,
    params: DeviceParams,
    scale_erased: bool,
):
    """Multinomial log-likelihood of the counts; v_acc and t broadcast, and
    a single point gives a float."""
    probs = _bin_probability_grid(
        v_acc, t, alpha, params, np.array(hist.thresholds.thresholds), scale_erased
    )
    mix = np.maximum(probs.mean(axis=-2), PROB_FLOOR)
    out = np.log(mix) @ np.array(hist.counts, dtype=float)
    return out if out.ndim else float(out)


# The Newton refinement of the wear fit works in z = log1p of (v_acc, t).
# Its stencil step keeps the central-difference error of the gradient
# (step^2 times the third derivative, up to 1e6 across the ridge) and the
# rounding error of the Hessian (1e-10 nats over step^2) both small. It
# ends when the Newton decrement, the gain a full Newton step predicts,
# falls below DECREMENT_TOL nats; a step that promises less than MIN_GAIN
# cannot be told from rounding in the log-likelihood sum.
STENCIL_STEP = 1e-4
DECREMENT_TOL = 1e-4
MIN_GAIN = 1e-7
MAX_NEWTON_STEPS = 50


def _resolution(f: float, order: int) -> float:
    """Smallest derivative of the given order that a stencil difference of
    log-likelihood values near f resolves: about ten times their rounding
    over step^order. Below it, as for t on a fresh device, a slope or a
    curvature counts as zero."""
    return 1e-14 * abs(f) / STENCIL_STEP**order


# First-derivative weights (per step) on three equally spaced nodes, taken
# at the stencil point: nodes centred on it (0), or moved one step into the
# box at the lower (+1) or upper (-1) bound so that none leaves it.
_FIRST_DERIVATIVE = {
    0: (-0.5, 0.0, 0.5),
    1: (-1.5, 2.0, -0.5),
    -1: (0.5, -2.0, 1.5),
}


def _stencil_weights(shift: int) -> np.ndarray:
    """Rows give the value, first and second derivative at the stencil
    point from the three node values."""
    w = np.zeros((3, 3))
    w[0, 1 - shift] = 1.0
    w[1] = np.array(_FIRST_DERIVATIVE[shift]) / STENCIL_STEP
    w[2] = np.array([1.0, -2.0, 1.0]) / STENCIL_STEP**2
    return w


_STENCIL = {
    shift: (STENCIL_STEP * (np.arange(-1.0, 2.0) + shift), _stencil_weights(shift))
    for shift in _FIRST_DERIVATIVE
}


def _local_quadratic(ll, z, upper):
    """Log-likelihood, gradient and Hessian at z from one 3^n stencil.

    ll takes one node array per axis and returns the log-likelihood on
    their tensor grid in one kernel call. z is always a node, so the value
    is exact; the derivatives are central differences, one-sided within a
    step of a bound.
    """
    nodes, weights = [], []
    for zi, ui in zip(z, upper):
        offsets, w = _STENCIL[1 if zi < STENCIL_STEP else -1 if zi > ui - STENCIL_STEP else 0]
        nodes.append(zi + offsets)
        weights.append(w)
    vals = ll(*nodes)
    if len(z) == 1:
        f, g, hess = weights[0] @ vals
        return float(f), np.array([g]), np.array([[hess]])
    # m[a, b] is the derivative of order a in z[0] and b in z[1]
    m = weights[0] @ vals @ weights[1].T
    grad = np.array([m[1, 0], m[0, 1]])
    hess = np.array([[m[2, 0], m[1, 1]], [m[1, 1], m[0, 2]]])
    return float(m[0, 0]), grad, hess


def _newton_step(point, upper, damping):
    """Damped Newton step from point = (z, f, grad, hess), projected onto
    the box [0, upper].

    Coordinates at a bound whose gradient points out of the box stay
    there. Returns the trial point, the Newton decrement on the other
    (free) coordinates, infinite where their Hessian is not negative
    definite beyond rounding, and the gain the quadratic model predicts
    for the step before the projection.
    """
    z, f, g, hess = point
    slope = _resolution(f, 1)
    free = ~(((z <= 0) & (g < -slope)) | ((z >= upper) & (g > slope)))
    eig, vec = np.linalg.eigh(-hess[free][:, free])
    proj = vec.T @ g[free]
    definite = np.all(eig > _resolution(f, 2))
    decrement = 0.5 * np.sum(proj**2 / eig) if definite else math.inf
    # where the log-likelihood curves upward the step still climbs, scaled
    # by the size of that curvature
    scale = np.abs(eig) + damping
    c = np.divide(proj, scale, out=np.zeros_like(proj), where=scale > 0)
    trial = z.copy()
    trial[free] += vec @ c
    return np.clip(trial, 0.0, upper), decrement, proj @ c - 0.5 * eig @ c**2


def _newton_ascent(ll, z, upper):
    """Damped (Levenberg-Marquardt) Newton ascent of ll over the box
    [0, upper], from z.

    Each trial point costs one stencil: its value decides acceptance and
    its derivatives give the next step. A rejected trial still gets one
    step from its own quadratic model when that model predicts a value
    above the best point's, which on a curved ridge leads back to the
    crest; if that fails too, the damping rises. Stops when the Newton
    decrement at the best point falls below DECREMENT_TOL, which requires
    a negative-definite free Hessian (converged), or when the next step
    promises less than MIN_GAIN. Returns the best (z, f, grad, hess) and
    whether it converged.
    """
    best = (z, *_local_quadratic(ll, z, upper))
    damping = 0.0
    for _ in range(MAX_NEWTON_STEPS):
        trial, decrement, gain = _newton_step(best, upper, damping)
        if decrement < DECREMENT_TOL:
            return best, True
        if gain < MIN_GAIN:
            break
        point = (trial, *_local_quadratic(ll, trial, upper))
        if point[1] <= best[1]:
            retry, _, gain = _newton_step(point, upper, damping)
            if point[1] + gain > best[1]:
                point = (retry, *_local_quadratic(ll, retry, upper))
        if point[1] > best[1]:
            best = point
            damping /= 3.0
        else:
            # the first damping is a thousandth of the largest curvature
            damping = max(10.0 * damping, 1e-3 * np.abs(best[3]).max())
    return best, False


def fit_wear_state(
    hist: Histogram,
    params: DeviceParams,
    alpha: float = 1.0,
    t_known: Optional[float] = None,
    scale_erased: bool = True,
) -> WearEstimate:
    """Maximum-likelihood wear state from a binned read histogram.

    The written alpha is assumed known (firmware knows what it wrote).
    Maximizes the multinomial log-likelihood of the bin counts over v_acc,
    and over retention time t as well when t_known is None. A coarse
    log-spaced grid (one kernel call) seeds a damped Newton ascent in
    (log1p v_acc, log1p t), whose gradient and Hessian come from central
    differences on a 3x3 stencil (3 points with t_known), one kernel call
    per step. The two coordinates lie on a ridge of nearly constant drift
    product, which a 2-D method follows and coordinate steps do not.

    converged means a small projected gradient (at a bound, a gradient
    pointing out of the box), a negative-definite Hessian in the other
    coordinates and a log-likelihood no lower than the grid maximum. log_cov
    is the inverse of the negative Hessian at the end point, the observed
    Fisher information, in (log1p v_acc, log1p t) or (log1p v_acc,) with
    t_known; it is infinite where that Hessian is not negative definite,
    as at a bound or where t has no effect (v_acc = 0).
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if t_known is not None:
        _check_time(t_known, "t_known")
    if hist.total < MIN_HISTOGRAM_TOTAL:
        raise InsufficientDataError(
            f"histogram total {hist.total} below the statistical floor "
            f"{MIN_HISTOGRAM_TOTAL}"
        )

    def ll(v, t):
        return _log_likelihood(hist, v, t, alpha, params, scale_erased)

    v_grid = np.concatenate(([0.0], np.logspace(0, math.log10(V_ACC_MAX), 25)))
    if t_known is None:
        t_grid = np.concatenate(([0.0], np.logspace(-1, math.log10(T_MAX), 20)))
        grid_ll = ll(v_grid[:, None], t_grid[None, :])
        iv, it = np.unravel_index(np.argmax(grid_ll), grid_ll.shape)
        start = np.log1p([v_grid[iv], t_grid[it]])
        upper = np.log1p([V_ACC_MAX, T_MAX])

        def stencil_ll(zv, zt):
            return ll(np.expm1(zv)[:, None], np.expm1(zt)[None, :])
    else:
        grid_ll = ll(v_grid, t_known)
        start = np.log1p([v_grid[np.argmax(grid_ll)]])
        upper = np.log1p([V_ACC_MAX])

        def stencil_ll(zv):
            return ll(np.expm1(zv), t_known)

    (z, best_ll, _, hess), stationary = _newton_ascent(stencil_ll, start, upper)
    v_hat = float(np.expm1(z[0]))
    t_hat = float(np.expm1(z[1])) if t_known is None else t_known
    fisher = -hess
    if np.all(np.linalg.eigvalsh(fisher) > _resolution(best_ll, 2)):
        cov = np.linalg.inv(fisher)
    else:
        cov = np.full_like(fisher, math.inf)
    cap_hat = capacity_at(
        WearState(v_acc=v_hat, cycles=0, alpha=alpha), t_hat, params, scale_erased
    )
    return WearEstimate(
        v_acc_hat=v_hat,
        t_hat=t_hat,
        log_likelihood=best_ll,
        capacity_hat=cap_hat,
        # the stencil and the grid may round the same point differently
        converged=stationary and best_ll >= float(np.max(grid_ll)) - MIN_GAIN,
        log_cov=tuple(tuple(float(c) for c in row) for row in cov),
    )


def bin_llrs(
    est: WearEstimate,
    params: DeviceParams,
    alpha: float,
    thresholds: ReadThresholds,
    labels: Sequence[str] = GRAY_LABELS_4,
    scale_erased: bool = True,
) -> np.ndarray:
    """Per-bin, per-bit LLRs at a fitted wear state.

    labels[i] is the bit string written for level i (default Gray map for
    4 levels, low to high). Entry [b, k] is
    log( P(bin b, bit k = 0) / P(bin b, bit k = 1) ); probabilities are
    floored so the result is always finite.
    """
    if len(labels) != params.num_levels:
        raise ValueError("need one label per level")
    nbits = len(labels[0])
    if any(len(lab) != nbits for lab in labels):
        raise ValueError("labels must all have the same bit width")
    state = WearState(v_acc=est.v_acc_hat, cycles=0, alpha=alpha)
    probs = bin_probabilities(state, est.t_hat, params, thresholds, scale_erased)
    llrs = np.empty((thresholds.num_bins, nbits))
    for k in range(nbits):
        zero_mask = np.array([lab[k] == "0" for lab in labels])
        num = np.maximum(probs[zero_mask].sum(axis=0), PROB_FLOOR)
        den = np.maximum(probs[~zero_mask].sum(axis=0), PROB_FLOOR)
        llrs[:, k] = np.log(num) - np.log(den)
    return llrs
