"""Read-channel noise model for multi-level NAND flash cells.

A stored level x is read back as y = x + n_p + n_w + n_r where n_p is
Gaussian programming noise (larger variance for the erased state), n_w is
Laplace wear-out noise whose scale grows with the accumulated programmed
voltage, and n_r is Gaussian retention drift (negative mean, variance
growing with storage time). The Gaussian and Laplace parts combine into a
Gaussian-convolved-Laplace conditional density that this module evaluates
in the log domain so it stays finite even when sigma/lambda is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import log_ndtr, ndtr, logsumexp

__all__ = [
    "DeviceParams",
    "WearState",
    "NoiseSpec",
    "default_device_params",
    "wear_scale",
    "retention_moments",
    "scaled_levels",
    "level_noise_specs",
    "level_noise_spec",
    "log_conditional_density",
    "conditional_cdf",
    "conditional_sf",
    "sample_mixture",
    "output_log_density",
    "support_interval",
]

# Quadrature/normalization support half-width in units of (sigma, lambda).
SUPPORT_SIGMAS = 10.0
SUPPORT_LAMBDAS = 30.0


@dataclass(frozen=True)
class DeviceParams:
    """Technology constants of the flash noise model.

    Units: voltages in volts, times in hours, coefficients dimensionless.
    """

    a_w: float
    c_w: float
    k1: float
    a_r: float
    b_r: float
    k2: float
    v_max: float
    t0: float
    sigma_p: float
    sigma_e: float
    num_levels: int
    base_levels: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "base_levels", tuple(float(v) for v in self.base_levels))
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not all(math.isfinite(v) for v in self.base_levels):
            raise ValueError("base_levels must be finite")
        if not (self.sigma_e > self.sigma_p > 0):
            raise ValueError("require sigma_e > sigma_p > 0")
        if self.v_max <= 0 or self.t0 <= 0:
            raise ValueError("v_max and t0 must be positive")
        if self.c_w <= 0:
            raise ValueError("c_w must be positive")  # Laplace scale at V_acc = 0
        for name in ("a_w", "a_r", "b_r"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (0 < self.k2 <= self.k1 <= 1):
            raise ValueError("require 0 < k2 <= k1 <= 1")
        if self.num_levels < 2:
            raise ValueError("need at least 2 levels")
        if len(self.base_levels) != self.num_levels:
            raise ValueError("base_levels length must equal num_levels")
        if any(b >= a for b, a in zip(self.base_levels, self.base_levels[1:])):
            raise ValueError("base_levels must be strictly increasing")


def default_device_params() -> DeviceParams:
    """4-level MLC defaults used throughout the lifetime experiments."""
    return DeviceParams(
        a_w=1.8e-4,
        c_w=1.26e-3,
        k1=0.62,
        a_r=7.0e-4,
        b_r=4.76e-3,
        k2=0.3,
        v_max=16.0,
        t0=1.0,
        sigma_p=0.05,
        sigma_e=0.35,
        num_levels=4,
        base_levels=(2.8, 5.2, 6.4, 7.86),
    )


@dataclass(frozen=True)
class WearState:
    """Wear condition of a cell population: accumulated voltage, P/E count,
    and the level scale factor currently in use. The noise model never
    reads the P/E count."""

    v_acc: float
    cycles: int
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.v_acc) and self.v_acc >= 0):
            raise ValueError("v_acc must be finite and nonnegative")
        if self.cycles < 0:
            raise ValueError("cycles must be nonnegative")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")


@dataclass(frozen=True)
class NoiseSpec:
    """Effective per-level read-channel parameters: Gaussian mean/variance
    plus Laplace scale."""

    mu: float
    sigma2: float
    lam: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.mu, self.sigma2, self.lam)):
            raise ValueError("noise spec must be finite")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def wear_scale(v_acc, params: DeviceParams):
    """Laplace scale of the wear-out noise at accumulated voltage v_acc.

    Broadcasts over an array v_acc."""
    if np.any(np.less(v_acc, 0)):
        raise ValueError("v_acc must be nonnegative")
    return _wear_scale(v_acc, params)


def _wear_scale(v_acc, params: DeviceParams):
    return params.c_w + params.a_w * (v_acc / params.v_max) ** params.k1


def retention_moments(x_target, v_acc, t, params: DeviceParams):
    """Mean and variance of the retention drift after t hours.

    Returns (mu_r, sigma_r2) with mu_r <= 0: charge leakage pulls the
    threshold voltage down, the more so the higher the target level, the
    worse the wear, and the longer the storage time. The arguments
    broadcast.
    """
    if any(np.any(np.less(v, 0)) for v in (x_target, v_acc, t)):
        raise ValueError("x_target, v_acc and t must be nonnegative")
    return _retention_moments(x_target, v_acc, t, params)


def _retention_moments(x_target, v_acc, t, params: DeviceParams):
    ratio = v_acc / params.v_max
    bracket = params.a_r * ratio**params.k1 + params.b_r * ratio**params.k2
    decay = np.log1p(t / params.t0)
    mu_r = -x_target * decay * bracket
    sigma_r2 = 0.1 * x_target * decay * bracket**2
    return mu_r, sigma_r2


def scaled_levels(
    base_levels: tuple[float, ...], alpha: float, scale_erased: bool = True
) -> tuple[float, ...]:
    """Level voltages after applying the scale factor.

    With scale_erased the whole constellation is multiplied by alpha;
    otherwise the erased level is pinned and only the gaps above it scale.
    """
    if scale_erased:
        return tuple(alpha * x for x in base_levels)
    v_e = base_levels[0]
    return tuple(v_e + alpha * (x - v_e) for x in base_levels)


def _level_moments(v_acc, t, alpha: float, params: DeviceParams, scale_erased: bool):
    """Per-level read mean mu and Gaussian variance sigma2, and the Laplace
    scale lam, composed from programming, wear-out and retention noise.

    Retention drift acts on the charge programmed above the erased level,
    x - V_e, not on the absolute threshold voltage: the erased state holds
    no charge to leak and therefore does not drift. Using the absolute
    voltage instead shortens the baseline lifetime by ~20% and fails to
    reproduce the reference trajectories. Programming noise is wider on
    the erased level (sigma_e) than on the programmed ones (sigma_p).

    Scalar v_acc and t give mu and sigma2 of shape (L,) and a float lam.
    Arrays broadcast against the trailing level axis: shape S + (1,) gives
    mu and sigma2 of shape S + (L,) and lam of shape S + (1,). The caller
    guarantees v_acc >= 0 and t >= 0; the array checks of the public
    formulas would add about 10% to a wear fit.
    """
    levels = np.array(scaled_levels(params.base_levels, alpha, scale_erased))
    mu_r, sigma_r2 = _retention_moments(levels - levels[0], v_acc, t, params)
    prog_var = np.array([params.sigma_e**2] + [params.sigma_p**2] * (params.num_levels - 1))
    return levels + mu_r, prog_var + sigma_r2, _wear_scale(v_acc, params)


def _check_time(t: float, name: str) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"{name} must be finite and nonnegative")


def level_noise_specs(
    state: WearState, t: float, params: DeviceParams, scale_erased: bool = True
) -> list[NoiseSpec]:
    """Noise specs of all levels at a wear state, lowest level first."""
    _check_time(t, "t")
    mu, sigma2, lam = _level_moments(state.v_acc, t, state.alpha, params, scale_erased)
    return [NoiseSpec(mu=m, sigma2=s2, lam=lam) for m, s2 in zip(mu.tolist(), sigma2.tolist())]


def level_noise_spec(
    level_index: int,
    state: WearState,
    t: float,
    params: DeviceParams,
    scale_erased: bool = True,
) -> NoiseSpec:
    """Noise spec of one level; see level_noise_specs."""
    if not 0 <= level_index < params.num_levels:
        raise IndexError(f"level index {level_index} out of range")
    return level_noise_specs(state, t, params, scale_erased)[level_index]


def _finite(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    return y


def _scalar(out):
    """A 0-d result as a Python float; arrays pass through."""
    return out if out.ndim else float(out)


def _tails(y, mu, sigma, lam):
    """Standardized read z = (y - mu)/sigma, ratio r = sigma/lam and the
    log-domain tail terms of the Gaussian(mu, sigma^2) convolved with
    Laplace(0, lam), without their common factor exp(r^2 / 2):

        lower = -z r + log Phi(z - r),  upper = z r + log Phi(-(z + r)).

    That factor overflows once r is a few dozen, so callers add r^2 / 2 in
    the log domain. Arguments broadcast.
    """
    z = (y - mu) / sigma
    r = sigma / lam
    return z, r, -z * r + log_ndtr(z - r), z * r + log_ndtr(-(z + r))


def log_conditional_density(y, spec: NoiseSpec):
    """Log of the read-voltage density given the stored level.

    The density is exp(r^2 / 2) / (2 lambda) times the sum of the two
    exponentiated tail terms of _tails. Accepts a scalar or array y;
    vectorizes over y.
    """
    z, r, lower, upper = _tails(_finite(y), spec.mu, spec.sigma, spec.lam)
    # log(e^upper + e^lower) without np.logaddexp, which costs as much as a
    # log_ndtr. Where both terms are -inf their difference is NaN; fmin
    # turns it into 0 so the result is -inf, not NaN.
    with np.errstate(invalid="ignore"):
        gap = np.fmin(-np.abs(upper - lower), 0.0)
    base = 0.5 * r * r - math.log(2.0 * spec.lam)
    return _scalar(base + (np.maximum(upper, lower) + np.log1p(np.exp(gap))))


def _cdf_sf(y, mu, sigma, lam):
    """CDF and survival function of the Gaussian(mu, sigma^2) convolved
    with Laplace(0, lam), both from one pair of tail terms.

    P(Y <= y) = Phi(z) - (1/2) exp(r^2/2) [e^lower - e^upper] and
    P(Y > y) = Phi(-z) + the same difference; both exponents stay moderate
    for all finite y. The SF keeps full relative precision far above the
    mean, where the CDF rounds to 1. Arguments broadcast; the caller
    guarantees finite y.
    """
    z, r, lower, upper = _tails(y, mu, sigma, lam)
    half_r2 = 0.5 * r * r
    half_gap = 0.5 * (np.exp(half_r2 + lower) - np.exp(half_r2 + upper))
    return np.clip(ndtr(z) - half_gap, 0.0, 1.0), np.clip(ndtr(-z) + half_gap, 0.0, 1.0)


def conditional_cdf(y, spec: NoiseSpec):
    """CDF of the read voltage given the stored level (closed form)."""
    return _scalar(_cdf_sf(_finite(y), spec.mu, spec.sigma, spec.lam)[0])


def conditional_sf(y, spec: NoiseSpec):
    """Survival function P(Y > y) given the stored level.

    Algebraically 1 - conditional_cdf, but computed from the upper
    Gaussian tail directly so it keeps full relative precision far above
    the mean, where the CDF rounds to 1.
    """
    return _scalar(_cdf_sf(_finite(y), spec.mu, spec.sigma, spec.lam)[1])


def sample_mixture(specs: list[NoiseSpec], rng: np.random.Generator, n: int):
    """Draw n reads from cells written to uniformly random levels.

    Returns (levels, reads). Draws the level indices, then the Gaussian
    and then the Laplace noise from rng, so the same rng state gives the
    same arrays.
    """
    levels = rng.integers(0, len(specs), n)
    # One gather per column: fancy indexing of the 2-D table is several
    # times slower.
    table = np.array([(s.mu, s.sigma, s.lam) for s in specs])
    mu, sigma, lam = (table[:, k][levels] for k in range(3))
    reads = mu + rng.normal(0.0, sigma) + rng.laplace(0.0, lam)
    return levels, reads


def output_log_density(y, specs: list[NoiseSpec]):
    """Log density of the read voltage under equally likely levels."""
    if not specs:
        raise ValueError("need at least one noise spec")
    comps = np.stack([log_conditional_density(y, s) for s in specs])
    return _scalar(logsumexp(comps, axis=0) - math.log(len(specs)))


def support_interval(specs: list[NoiseSpec]) -> tuple[float, float]:
    """Interval outside which every component density is negligible
    (below ~1e-13 of peak); used as integration support."""
    if not specs:
        raise ValueError("need at least one noise spec")
    pads = [SUPPORT_SIGMAS * s.sigma + SUPPORT_LAMBDAS * s.lam for s in specs]
    lo = min(s.mu - p for s, p in zip(specs, pads))
    hi = max(s.mu + p for s, p in zip(specs, pads))
    return lo, hi

