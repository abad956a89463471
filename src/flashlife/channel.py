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
from dataclasses import dataclass, fields, replace

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
    "level_noise_spec",
    "log_conditional_density",
    "conditional_cdf",
    "sample_read",
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
    and the level scale factor currently in use."""

    v_acc: float
    cycles: int
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.v_acc) and self.v_acc >= 0):
            raise ValueError("v_acc must be finite and nonnegative")
        if self.cycles < 0:
            raise ValueError("cycles must be nonnegative")
        if (self.v_acc == 0) != (self.cycles == 0):
            raise ValueError("v_acc is zero exactly when cycles is zero")
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


def wear_scale(v_acc: float, params: DeviceParams) -> float:
    """Laplace scale of the wear-out noise at accumulated voltage v_acc."""
    if v_acc < 0:
        raise ValueError("v_acc must be nonnegative")
    return params.c_w + params.a_w * (v_acc / params.v_max) ** params.k1


def retention_moments(
    x_target: float, v_acc: float, t: float, params: DeviceParams
) -> tuple[float, float]:
    """Mean and variance of the retention drift after t hours.

    Returns (mu_r, sigma_r2) with mu_r <= 0: charge leakage pulls the
    threshold voltage down, the more so the higher the target level, the
    worse the wear, and the longer the storage time.
    """
    if x_target < 0 or v_acc < 0 or t < 0:
        raise ValueError("x_target, v_acc and t must be nonnegative")
    ratio = v_acc / params.v_max
    bracket = params.a_r * ratio**params.k1 + params.b_r * ratio**params.k2
    decay = math.log1p(t / params.t0)
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


def level_noise_spec(
    level_index: int,
    state: WearState,
    t: float,
    params: DeviceParams,
    scale_erased: bool = True,
) -> NoiseSpec:
    """Compose programming, wear-out and retention noise for one level.

    Retention drift acts on the charge programmed above the erased level,
    x - V_e, not on the absolute threshold voltage: the erased state holds
    no charge to leak and therefore does not drift. Using the absolute
    voltage instead shortens the baseline lifetime by ~20% and fails to
    reproduce the reference trajectories.
    """
    if not 0 <= level_index < params.num_levels:
        raise IndexError(f"level index {level_index} out of range")
    levels = scaled_levels(params.base_levels, state.alpha, scale_erased)
    x = levels[level_index]
    mu_r, sigma_r2 = retention_moments(x - levels[0], state.v_acc, t, params)
    sigma_prog = params.sigma_e if level_index == 0 else params.sigma_p
    return NoiseSpec(
        mu=x + mu_r,
        sigma2=sigma_prog**2 + sigma_r2,
        lam=wear_scale(state.v_acc, params),
    )


def log_conditional_density(y, spec: NoiseSpec):
    """Log of the read-voltage density given the stored level.

    The density is the convolution of a Gaussian(mu, sigma2) with a
    Laplace(0, lambda). Each of its two tail terms carries a factor
    exp(sigma^2 / 2 lambda^2) that overflows once sigma/lambda is a few
    dozen, so both summands are assembled in the log domain using the
    log of the Gaussian tail function.

    Accepts a scalar or array y; vectorizes over y.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    sigma = spec.sigma
    z = (y - spec.mu) / sigma
    r = sigma / spec.lam
    base = 0.5 * r * r - math.log(2.0 * spec.lam)
    upper = z * r + log_ndtr(-(z + r))
    lower = -z * r + log_ndtr(z - r)
    out = base + np.logaddexp(upper, lower)
    return out if out.ndim else float(out)


def _cdf_sf(y, mu, sigma, lam):
    """CDF and survival function of the Gaussian(mu, sigma^2) convolved
    with Laplace(0, lam), both from one pair of log-domain tail terms.

    P(Y <= y) = Phi(z) - (1/2)[exp(la) - exp(lb)] and
    P(Y > y) = Phi(-z) + (1/2)[exp(la) - exp(lb)]; both exponents stay
    moderate for all finite y, so no overflow guard beyond the log_ndtr
    evaluation is needed. The SF keeps full relative precision far above
    the mean, where the CDF rounds to 1. Arguments broadcast; the caller
    guarantees finite y.
    """
    z = (y - mu) / sigma
    r = sigma / lam
    la = 0.5 * r * r - z * r + log_ndtr(z - r)
    lb = 0.5 * r * r + z * r + log_ndtr(-(z + r))
    half_gap = 0.5 * (np.exp(la) - np.exp(lb))
    return np.clip(ndtr(z) - half_gap, 0.0, 1.0), np.clip(ndtr(-z) + half_gap, 0.0, 1.0)


def conditional_cdf(y, spec: NoiseSpec):
    """CDF of the read voltage given the stored level (closed form)."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    out = _cdf_sf(y, spec.mu, spec.sigma, spec.lam)[0]
    return out if out.ndim else float(out)


def conditional_sf(y, spec: NoiseSpec):
    """Survival function P(Y > y) given the stored level.

    Algebraically 1 - conditional_cdf, but computed from the upper
    Gaussian tail directly so it keeps full relative precision far above
    the mean, where the CDF rounds to 1.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    out = _cdf_sf(y, spec.mu, spec.sigma, spec.lam)[1]
    return out if out.ndim else float(out)


def sample_read(
    level_index: int,
    state: WearState,
    t: float,
    params: DeviceParams,
    seed: int,
    size: int | None = None,
    scale_erased: bool = True,
):
    """Draw read voltages for a cell programmed to the given level.

    Deterministic in the seed: identical (arguments, seed) give identical
    draws. Returns a scalar for size=None, else an array of that length.
    """
    spec = level_noise_spec(level_index, state, t, params, scale_erased)
    rng = np.random.default_rng(seed)
    n = 1 if size is None else size
    draws = spec.mu + rng.normal(0.0, spec.sigma, n) + rng.laplace(0.0, spec.lam, n)
    return float(draws[0]) if size is None else draws


def output_log_density(y, specs: list[NoiseSpec]):
    """Log density of the read voltage under equally likely levels."""
    if not specs:
        raise ValueError("need at least one noise spec")
    y = np.asarray(y, dtype=float)
    comps = np.stack([log_conditional_density(y, s) for s in specs])
    out = logsumexp(comps, axis=0) - math.log(len(specs))
    return out if out.ndim else float(out)


def support_interval(specs: list[NoiseSpec]) -> tuple[float, float]:
    """Interval outside which every component density is negligible
    (below ~1e-13 of peak); used as integration support."""
    if not specs:
        raise ValueError("need at least one noise spec")
    pads = [SUPPORT_SIGMAS * s.sigma + SUPPORT_LAMBDAS * s.lam for s in specs]
    lo = min(s.mu - p for s, p in zip(specs, pads))
    hi = max(s.mu + p for s, p in zip(specs, pads))
    return lo, hi


def with_alpha(state: WearState, alpha: float) -> WearState:
    """Copy of a wear state with a different scale factor."""
    return replace(state, alpha=alpha)
