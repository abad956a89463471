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
from scipy.optimize import minimize_scalar

from .channel import (
    DeviceParams,
    WearState,
    _cdf_sf,
    _level_moments,
    level_noise_specs,
    sample_mixture,
)
from .allocation import capacity_at
from .infotheory import QuadratureConfig

__all__ = [
    "ReadThresholds",
    "Histogram",
    "WearEstimate",
    "Population",
    "InsufficientDataError",
    "GRAY_LABELS_4",
    "PROB_FLOOR",
    "default_read_thresholds",
    "simulate_population",
    "build_histogram",
    "bin_probabilities",
    "fit_wear_state",
    "mean_shift",
    "bin_llrs",
]

GRAY_LABELS_4 = ("11", "10", "00", "01")

PROB_FLOOR = 1e-300
MIN_HISTOGRAM_TOTAL = 100


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


class Population(NamedTuple):
    levels: np.ndarray  # true written level index per cell
    reads: np.ndarray  # read-back voltage per cell


def _check_time(t: float, name: str) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"{name} must be finite and nonnegative")


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
    _check_time(t, "t")
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
    lower = np.diff(cdf, prepend=0.0, append=1.0)
    upper = -np.diff(sf, prepend=1.0, append=0.0)
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


def fit_wear_state(
    hist: Histogram,
    params: DeviceParams,
    alpha: float = 1.0,
    t_known: Optional[float] = None,
    scale_erased: bool = True,
    cfg: QuadratureConfig = QuadratureConfig(),
    v_acc_max: float = 1e5,
    t_max: float = 1e5,
) -> WearEstimate:
    """Maximum-likelihood wear state from a binned read histogram.

    The written alpha is assumed known (firmware knows what it wrote).
    Maximizes the multinomial log-likelihood of the bin counts over v_acc,
    and over retention time t as well when t_known is None: a coarse
    log-spaced grid pass followed by bounded 1-D refinement (coordinate
    descent in the 2-D case). Derivative-free; the likelihood is smooth
    and unimodal in these physical parameters.
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

    def ll(v: float, t: float) -> float:
        return _log_likelihood(hist, v, t, alpha, params, scale_erased)

    v_grid = np.concatenate(([0.0], np.logspace(0, math.log10(v_acc_max), 25)))
    t_grid = (
        np.array([t_known])
        if t_known is not None
        else np.concatenate(([0.0], np.logspace(-1, math.log10(t_max), 20)))
    )
    grid_ll = ll(v_grid[:, None], t_grid[None, :])
    iv, it = np.unravel_index(np.argmax(grid_ll), grid_ll.shape)
    v_hat, t_hat = float(v_grid[iv]), float(t_grid[it])

    def bracket(grid, idx, cap):
        lo = grid[idx - 1] if idx > 0 else 0.0
        hi = grid[idx + 1] if idx + 1 < len(grid) else cap
        return lo, hi

    converged = True

    def refine(fun, lo, hi):
        nonlocal converged
        res = minimize_scalar(
            lambda u: -fun(u), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-3 * max(hi, 1.0)},
        )
        if not res.success:
            converged = False
        return float(res.x)

    passes = 1 if t_known is not None else 2
    for _ in range(passes):
        v_lo, v_hi = bracket(v_grid, iv, v_acc_max)
        v_hat = refine(lambda v: ll(v, t_hat), v_lo, v_hi)
        if t_known is None:
            t_lo, t_hi = bracket(t_grid, it, t_max)
            t_hat = refine(lambda u: ll(v_hat, u), t_lo, t_hi)

    best_ll = ll(v_hat, t_hat)
    cap_hat = capacity_at(
        WearState(v_acc=v_hat, cycles=0, alpha=alpha), t_hat, params, cfg, scale_erased
    )
    return WearEstimate(
        v_acc_hat=v_hat,
        t_hat=t_hat,
        log_likelihood=best_ll,
        capacity_hat=cap_hat,
        converged=converged,
    )


def _step_density(hist: Histogram) -> tuple[np.ndarray, np.ndarray]:
    """Model-free piecewise-constant mass density over finite bin support.

    The unbounded end bins are assigned the median interior width so their
    mass still participates in the correlation.
    """
    thr = np.array(hist.thresholds.thresholds)
    widths = np.diff(thr)
    w = float(np.median(widths)) if len(widths) else 1.0
    edges = np.concatenate(([thr[0] - w], thr, [thr[-1] + w]))
    total = max(hist.total, 1)
    density = np.array(hist.counts) / total / np.diff(edges)
    return edges, density


def mean_shift(hist_ref: Histogram, hist_now: Histogram) -> float:
    """Global voltage shift of hist_now relative to hist_ref.

    Maximizes the cross-correlation of the two bin-mass step densities
    over a continuous shift; negative means the population moved left
    (the retention-loss signature).
    """
    if hist_ref.thresholds != hist_now.thresholds:
        raise ValueError("histograms must share identical thresholds")
    edges_r, dens_r = _step_density(hist_ref)
    edges_n, dens_n = _step_density(hist_now)
    span = edges_r[-1] - edges_r[0]
    step = span / 2000.0
    grid = np.arange(edges_r[0] - span / 2, edges_r[-1] + span / 2, step)

    def lookup(edges, dens, v):
        idx = np.searchsorted(edges, v, side="right") - 1
        inside = (idx >= 0) & (idx < len(dens))
        out = np.zeros_like(v)
        out[inside] = dens[idx[inside]]
        return out

    f_now = lookup(edges_n, dens_n, grid)

    def corr(tau: float) -> float:
        return float(np.dot(f_now, lookup(edges_r, dens_r, grid - tau)))

    taus = np.arange(-span / 2, span / 2, step)
    coarse = taus[int(np.argmax([corr(tau) for tau in taus]))]
    res = minimize_scalar(
        lambda tau: -corr(tau),
        bounds=(coarse - 2 * step, coarse + 2 * step),
        method="bounded",
        options={"xatol": step / 10},
    )
    return float(res.x)


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
