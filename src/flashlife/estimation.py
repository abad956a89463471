"""Wear and retention assessment from quantized multi-read histograms.

The same limited-precision read thresholds that feed soft information to
an LDPC decoder partition the voltage axis into bins; counting a cell
population into those bins gives a histogram from which the physical wear
parameters (accumulated voltage, and optionally retention time) can be
recovered by multinomial maximum likelihood. The fitted state then yields
both the current capacity and per-bin LLRs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .channel import (
    DeviceParams,
    NumericalFailure,
    WearState,
    _cdf_sf,
    _check_nonnegative,
    _check_ratio,
    _level_array,
    _level_grid,
    sample_mixture,
)
from .infotheory import _capacity

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
    "MAX_THRESHOLDS",
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

# Most read thresholds a histogram may have. A wear fit's seed step holds
# about 0.12 MiB of arrays per bin on its 26 x 21 grid of 4 levels, so a
# fit at this bound peaks near 120 MiB.
MAX_THRESHOLDS = 1023


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
        _check_threshold_count(len(self.thresholds))
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
        if not all(isinstance(c, Integral) or float(c).is_integer() for c in self.counts):
            raise ValueError("counts must be finite whole numbers")
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


def _check_threshold_count(n: int) -> None:
    if n > MAX_THRESHOLDS:
        raise ValueError(f"at most {MAX_THRESHOLDS} read thresholds are supported, got {n}")


class Population(NamedTuple):
    """A simulated read, its cells grouped by level and Laplace sign as
    sample_mixture draws them, so a prefix of a population is not a
    sample of it."""

    levels: np.ndarray  # written level index per cell; uint8 up to 256 levels
    reads: np.ndarray  # read-back voltage per cell, float64


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
    _check_threshold_count((len(levels) - 1) * per_gap)
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

    Deterministic in the seed: sample_mixture on np.random.default_rng(seed)
    draws how many cells hold each (level, Laplace sign) pair, then the
    Gaussian and then the exponential noise, and returns the cells grouped
    by level and sign. The levels come in sample_mixture's narrow index
    dtype (uint8 up to 256 levels), whose arithmetic wraps below 0 and
    above 255: cast them before subtracting or scaling. The reads are
    float64.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    levels, _ = _level_array(state.v_acc, t, state.alpha, params, scale_erased)
    return Population(*sample_mixture(levels, np.random.default_rng(seed), n_cells))


def build_histogram(samples, thresholds: ReadThresholds) -> Histogram:
    """Count samples into the bins induced by the read thresholds.

    Counts every element of samples, of any shape. One comparison pass per
    threshold t_k counts the samples at or below it, and bin k holds the
    difference of consecutive counts, so the bins are (t_{k-1}, t_k] and
    -inf and inf fall into the end bins. For the few thresholds a read
    uses, k passes take less time than a binary search per sample. A last
    pass at inf counts every sample but NaN, which raises ValueError.
    """
    samples = np.asarray(samples, dtype=float)
    at_or_below = [0] + [
        np.count_nonzero(samples <= t) for t in thresholds.thresholds + (math.inf,)
    ]
    if at_or_below[-1] != samples.size:
        raise ValueError("samples must not be NaN")
    counts = tuple(b - a for a, b in zip(at_or_below, at_or_below[1:]))
    return Histogram(thresholds=thresholds, counts=counts)


def _bin_probability_grid(edges, mu, sigma, lam):
    """P(read falls in bin b | written level i) for level moments that
    broadcast to a shape S + (L,), as those of _level_grid or the rows
    of _level_array's array; the result has shape S + (L, B). The caller
    has checked the moments: the gate for one state, _seed_table for the
    wear fit's search box.
    """
    mu = mu[..., None]
    cdf, sf = _cdf_sf(edges, mu, sigma[..., None], lam[..., None])
    # Bin differences with the end bins closed at certainty, written in
    # place: np.diff with prepend/append concatenates on every call.
    probs = np.empty(cdf.shape[:-1] + (cdf.shape[-1] + 1,))
    upper = np.empty_like(cdf)
    probs[..., 0], upper[..., 0] = cdf[..., 0], 1.0 - sf[..., 0]
    np.subtract(cdf[..., 1:], cdf[..., :-1], out=probs[..., 1:-1])
    np.subtract(sf[..., :-1], sf[..., 1:], out=upper[..., 1:])
    # Bins from the level mean up take SF differences (see
    # bin_probabilities), and the last bin always does.
    np.copyto(probs[..., :-1], upper, where=edges >= mu)
    probs[..., -1] = sf[..., -1]
    return np.maximum(probs, 0.0, out=probs)


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
    # the gate refuses a bad t and moments the kernel cannot take
    levels, _ = _level_array(state.v_acc, t, state.alpha, params, scale_erased)
    return _bin_probability_grid(np.array(thresholds.thresholds), *levels)


def _log_mixture(edges, mu, sigma, lam):
    """Log of the level-mean bin probabilities, floored at PROB_FLOOR, for
    level moments of shape S + (L,), shape S + (B,): a histogram's
    multinomial log-likelihood is this times its counts."""
    probs = _bin_probability_grid(edges, mu, sigma, lam)
    # the level mean as numpy's mean forms it, without its dispatch
    mix = np.add.reduce(probs, axis=-2)
    mix /= probs.shape[-2]
    np.maximum(mix, PROB_FLOOR, out=mix)
    return np.log(mix, out=mix)


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
    """Log-likelihood, gradient and Hessian at z from one 3^n stencil, as
    Python floats: f, the tuple grad and the nested tuple hess.

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
        f, g, h = (weights[0] @ vals).tolist()
        return f, (g,), ((h,),)
    # m[a][b] is the derivative of order a in z[0] and b in z[1]
    m = (weights[0] @ vals @ weights[1].T).tolist()
    return m[0][0], (m[1][0], m[0][1]), ((m[2][0], m[1][1]), (m[1][1], m[0][2]))


def _symmetric_eigen(a):
    """Eigenvalues, ascending, and unit eigenvectors of a symmetric matrix
    of order 0, 1 or 2, given as nested sequences; vecs[k] belongs to
    eig[k].

    The 2 x 2 case follows LAPACK's dlaev2, which np.linalg.eigh runs on
    such a matrix, so the two agree to rounding at a fraction of an eigh
    call: the eigenvalue of larger magnitude comes from the trace and the
    discriminant, the other from the determinant over it, and the
    eigenvector from the better conditioned of two equivalent ratios.
    """
    if len(a) < 2:
        return [row[0] for row in a], [[1.0] for _ in a]
    (p, q), (_, r) = a
    sm, df, tb = p + r, p - r, q + q
    adf, ab = abs(df), abs(tb)
    big, small = (p, r) if abs(p) > abs(r) else (r, p)
    if adf > ab:
        rt = adf * math.sqrt(1.0 + (ab / adf) * (ab / adf))
    elif adf < ab:
        rt = ab * math.sqrt(1.0 + (adf / ab) * (adf / ab))
    else:
        rt = ab * math.sqrt(2.0)
    if sm == 0.0:
        rt1, rt2 = 0.5 * rt, -0.5 * rt
    else:
        rt1 = 0.5 * (sm + math.copysign(rt, sm))
        rt2 = (big / rt1) * small - (q / rt1) * q
    cs = df + rt if df >= 0 else df - rt
    if abs(cs) > ab:
        ct = -tb / cs
        sn1 = 1.0 / math.sqrt(1.0 + ct * ct)
        cs1 = ct * sn1
    elif ab == 0.0:
        cs1, sn1 = 1.0, 0.0
    else:
        tn = -cs / tb
        cs1 = 1.0 / math.sqrt(1.0 + tn * tn)
        sn1 = tn * cs1
    if (sm < 0) == (df < 0):  # the ratio gave rt2's eigenvector: turn it by 90 degrees
        cs1, sn1 = -sn1, cs1
    if rt1 <= rt2:
        return [rt1, rt2], [[cs1, sn1], [-sn1, cs1]]
    return [rt2, rt1], [[-sn1, cs1], [cs1, sn1]]


def _newton_step(point, upper, damping):
    """Damped Newton step from point = (z, f, grad, hess) in the box [0, upper].

    Coordinates at a bound whose gradient points out of the box stay there.
    The step is cut along its own direction where a coordinate inside the
    box first reaches a bound; one already at a bound is clipped, so the
    step cannot stall. Returns the trial point, the Newton decrement on the
    other (free) coordinates, infinite where their Hessian is not negative
    definite beyond rounding, and the gain the quadratic model predicts for
    the uncut step. Python floats cost less than numpy calls on 2-vectors.
    """
    z, f, g, hess = point
    slope = _resolution(f, 1)
    free = [
        i for i, (zi, gi, ui) in enumerate(zip(z, g, upper))
        if not ((zi <= 0 and gi < -slope) or (zi >= ui and gi > slope))
    ]
    eig, vecs = _symmetric_eigen([[-hess[i][j] for j in free] for i in free])
    proj = [sum(v * g[i] for v, i in zip(vec, free)) for vec in vecs]
    curvature = _resolution(f, 2)
    if all(e > curvature for e in eig):
        decrement = 0.5 * sum(p * p / e for p, e in zip(proj, eig))
    else:
        decrement = math.inf
    # where the log-likelihood curves upward the step still climbs, scaled
    # by the size of that curvature
    c = [p / s if (s := abs(e) + damping) > 0 else 0.0 for p, e in zip(proj, eig)]
    trial = list(z)
    for a, i in enumerate(free):
        trial[i] += sum(vec[a] * ck for vec, ck in zip(vecs, c))
    gain = sum(p * ck for p, ck in zip(proj, c)) - 0.5 * sum(e * ck * ck for e, ck in zip(eig, c))
    cut, hit = 1.0, None
    for i, (zi, ti, ui) in enumerate(zip(z, trial, upper)):
        edge = ui if ti > ui else 0.0
        if 0.0 < zi < ui and not 0.0 <= ti <= ui and (edge - zi) / (ti - zi) < cut:
            cut, hit = (edge - zi) / (ti - zi), (i, edge)
    if hit:
        trial = [zi + cut * (ti - zi) for zi, ti in zip(z, trial)]
        trial[hit[0]] = hit[1]  # on the bound exactly, which z + cut * step may miss
    return tuple(min(max(t, 0.0), u) for t, u in zip(trial, upper)), decrement, gain


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
            damping = max(10.0 * damping, 1e-3 * max(abs(h) for row in best[3] for h in row))
    return best, False


@functools.lru_cache(maxsize=8)
def _seed_table(params, alpha, thresholds, scale_erased, t_known):
    """The wear fit's seed grids and the part of its seed step that does
    not read the counts: (v_grid, t_grid, table), with t_grid None when t
    is known, and table the _log_mixture of the thresholds' bins on the
    grid (26 x 21 x B, or 26 x B), so that table @ counts gives the seed
    log-likelihoods of any histogram read on these thresholds.

    Memoized, so that fits of many histograms read on one setting, as a
    controller reads many blocks, share one table; the arrays are
    read-only. The search box is checked before the kernel runs, so a
    refused setting raises on every call and is never stored.
    """
    # The moments grow with v_acc and t, and sigma is smallest at v_acc =
    # 0, so the gate at the box's two corners at its largest t refuses a
    # setting whose moments or support leave the float range anywhere in
    # it, before the array kernels turn them into NaN or a division by 0.
    t_corner = T_MAX if t_known is None else t_known
    for v_corner in (0.0, V_ACC_MAX):
        _level_array(v_corner, t_corner, alpha, params, scale_erased)
    v_grid = np.concatenate(([0.0], np.logspace(0, math.log10(V_ACC_MAX), 25)))
    if t_known is None:
        t_grid = np.concatenate(([0.0], np.logspace(-1, math.log10(T_MAX), 20)))
        moments = _level_grid(v_grid[:, None], t_grid, alpha, params, scale_erased)
        t_grid.flags.writeable = False
    else:
        t_grid = None
        moments = _level_grid(v_grid, t_known, alpha, params, scale_erased)
    # sigma and lam both rise with v_acc, and sigma with t: between two
    # seed values v_k < v_k+1, sigma/lam stays below the largest sigma at
    # v_k+1 over lam at v_k. A bound beyond the float range reads inf.
    _, sigma, lam = moments
    with np.errstate(over="ignore"):
        _check_ratio(float(np.max(sigma[1:] / lam[:-1])))
    table = _log_mixture(np.array(thresholds), *moments)
    v_grid.flags.writeable = False
    table.flags.writeable = False
    return v_grid, t_grid, table


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
    log-spaced grid seeds a damped Newton ascent in (log1p v_acc, log1p t),
    whose gradient and Hessian come from central differences on a 3x3
    stencil (3 points with t_known), one kernel call per step; the step
    itself runs on Python floats with a closed-form eigendecomposition.
    The two coordinates lie on a ridge of nearly constant drift product,
    which a 2-D method follows and coordinate steps do not. With t
    unknown, the same ascent first climbs that ridge from the grid's best
    cell in log-decay coordinates, where it is nearly straight, and the
    ascent in (log1p v_acc, log1p t) starts from its end point.

    The grid's log bin probabilities do not depend on the counts. The
    first fit on a (params, alpha, thresholds, scale_erased, t_known)
    setting builds them in one kernel call, and the next fits on the same
    setting reuse them (a few recent settings are kept), so those fits
    pay only for the product with their counts and the Newton steps.

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
        _check_nonnegative(t_known, "t_known")
    if hist.total < MIN_HISTOGRAM_TOTAL:
        raise InsufficientDataError(
            f"histogram total {hist.total} below the statistical floor "
            f"{MIN_HISTOGRAM_TOTAL}"
        )

    # keyed by value: a 0-d array does not hash
    v_grid, t_grid, table = _seed_table(
        params, float(alpha), hist.thresholds.thresholds, scale_erased,
        None if t_known is None else float(t_known),
    )
    edges = np.array(hist.thresholds.thresholds)
    counts = np.array(hist.counts, dtype=float)
    grid_ll = table @ counts

    def ll(v, t):
        return _log_mixture(edges, *_level_grid(v, t, alpha, params, scale_erased)) @ counts

    if t_known is None:
        iv, it = np.unravel_index(np.argmax(grid_ll), grid_ll.shape)
        upper = tuple(np.log1p([V_ACC_MAX, T_MAX]).tolist())

        def stencil_ll(zv, zt):
            return ll(np.expm1(zv)[:, None], np.expm1(zt)[None, :])

        # The ridge of constant drift product ln(1 + t/t0)*B(v_acc) curves in
        # (log1p v_acc, log1p t) but is nearly straight in (log1p v_acc, w),
        # w = log1p(ln(1 + t/t0)/c), as ln B is close to linear in log v_acc.
        # The ascent climbs it there first, with c putting the grid's first
        # positive time at w = ln 2, and the ascent in log1p t below then
        # confirms its end point, usually with one stencil.
        c = math.log1p(t_grid[1] / params.t0)

        def ridge_t(w):
            return np.minimum(params.t0 * np.expm1(c * np.expm1(w)), T_MAX)

        def ridge_ll(zv, w):
            return ll(np.expm1(zv)[:, None], ridge_t(w)[None, :])

        w_seed, w_upper = np.log1p(np.log1p(np.array([t_grid[it], T_MAX]) / params.t0) / c)
        (zr, *_), _ = _newton_ascent(
            ridge_ll, (math.log1p(v_grid[iv]), float(w_seed)), (upper[0], float(w_upper))
        )
        # the bound maps to the bound, which expm1 may round to either side of
        start = (zr[0], upper[1] if zr[1] >= w_upper else float(np.log1p(ridge_t(zr[1]))))
    else:
        start = tuple(np.log1p([v_grid[np.argmax(grid_ll)]]).tolist())
        upper = tuple(np.log1p([V_ACC_MAX]).tolist())

        def stencil_ll(zv):
            return ll(np.expm1(zv), t_known)

    (z, best_ll, _, hess), stationary = _newton_ascent(stencil_ll, start, upper)
    # expm1 of log1p(1e5) rounds to 1e5 + 4e-11: a point at a bound reports it
    v_hat = min(float(np.expm1(z[0])), V_ACC_MAX)
    t_hat = min(float(np.expm1(z[1])), T_MAX) if t_known is None else t_known
    fisher = [[-h for h in row] for row in hess]
    if all(e > _resolution(best_ll, 2) for e in _symmetric_eigen(fisher)[0]):
        cov = np.linalg.inv(fisher)
    else:
        cov = np.full((len(fisher),) * 2, math.inf)
    return WearEstimate(
        v_acc_hat=v_hat,
        t_hat=t_hat,
        log_likelihood=best_ll,
        capacity_hat=_capacity(v_hat, t_hat, alpha, params, scale_erased),
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
