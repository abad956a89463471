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

import importlib.util
import math
import sys
import types
from dataclasses import dataclass, fields

import numpy as np


def _load_ufuncs():
    """Bind scipy.special's log_ndtr and ndtr without running the package's
    __init__, which loads scipy's array-API layer and numpy.f2py, most of a
    cold start, for two compiled ufuncs. A bare stub carrying the real
    __path__ stands in for the package while the compiled _ufuncs module
    loads, and is removed at once. The compiled modules stay loaded, so a
    later import of scipy.special runs in full on them and returns these
    very objects. If the package is loaded already, or the stub path fails
    on some scipy, the public import binds them."""
    if "scipy.special" not in sys.modules:
        try:
            spec = importlib.util.find_spec("scipy.special")
            stub = types.ModuleType("scipy.special")
            stub.__path__ = list(spec.submodule_search_locations)
            sys.modules["scipy.special"] = stub
            try:
                from scipy.special._ufuncs import log_ndtr, ndtr
            finally:
                if sys.modules.get("scipy.special") is stub:
                    del sys.modules["scipy.special"]
            return log_ndtr, ndtr
        except Exception:
            pass  # the public import below is complete on every scipy
    from scipy.special import log_ndtr, ndtr

    return log_ndtr, ndtr


log_ndtr, ndtr = _load_ufuncs()

__all__ = [
    "DeviceParams",
    "WearState",
    "NoiseSpec",
    "NumericalFailure",
    "default_device_params",
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

# Largest sigma/lambda the density kernel takes. It forms r^2/2 for r =
# sigma/lambda and cancels it against the tail terms, which leaves a
# rounding error of about 1e-16 r^2 nats in the log density: 3e-6 at this
# bound, 0.02 at r = 1e7, and an overflow to NaN once r^2 does.
_MAX_RATIO = 1e5

# Cells per block of sample_mixture's noise passes: 128 KiB of float64.
_SAMPLE_BLOCK = 1 << 14


class NumericalFailure(RuntimeError):
    """A computation left the float range or failed to converge; a failed
    quadrature carries the tolerance it achieved."""

    def __init__(self, message: str, achieved_tol: float | None = None):
        if achieved_tol is not None:
            message = f"{message} (achieved tolerance {achieved_tol:.3e})"
        super().__init__(message)
        self.achieved_tol = achieved_tol


def _check_ratio(ratio: float) -> None:
    """Refuse a sigma/lambda beyond _MAX_RATIO before any kernel sees it."""
    if not ratio <= _MAX_RATIO:
        raise NumericalFailure(
            f"sigma/lambda reaches {ratio:.3g}, beyond the density kernel's "
            f"range {_MAX_RATIO:g}"
        )


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


def retention_moments(x_target, v_acc, t, params: DeviceParams):
    """Mean and variance of the retention drift after t hours.

    Returns (mu_r, sigma_r2) with mu_r <= 0: charge leakage pulls the
    threshold voltage down, the more so the higher the target level, the
    worse the wear, and the longer the storage time. The arguments
    broadcast. An argument that is not finite and nonnegative raises
    ValueError; moments the float range cannot hold raise NumericalFailure.
    """
    # NaN fails both comparisons, so it cannot pass as nonnegative
    if not all(
        np.all(np.greater_equal(v, 0) & np.less(v, math.inf)) for v in (x_target, v_acc, t)
    ):
        raise ValueError("x_target, v_acc and t must be finite and nonnegative")
    with np.errstate(all="ignore"):
        bracket, square, _ = _wear_terms(v_acc, params)
        mu_r, sigma_r2 = _retention_moments(x_target, _decay(t, params), bracket, square)
    if not (np.all(np.isfinite(mu_r)) and np.all(np.isfinite(sigma_r2))):
        raise NumericalFailure("the retention moments leave the float range")
    return mu_r, sigma_r2


def _decay(t, params: DeviceParams):
    """How retention drift grows with the storage time t: its product with
    _wear_terms' bracket is the share of the programmed charge drained."""
    return np.log1p(t / params.t0)


def _wear_terms(v_acc, params: DeviceParams):
    """The terms of the noise moments that grow with the accumulated voltage:
    retention's bracket, its square, and the Laplace scale lam of the
    wear-out noise. Python-float arithmetic for a float v_acc, numpy's for
    an array, whose powers may differ from Python's in the last bit. A
    square beyond the float range reads inf either way."""
    ratio = v_acc / params.v_max
    wear = ratio**params.k1
    bracket = params.a_r * wear + params.b_r * ratio**params.k2
    try:
        square = bracket**2
    except OverflowError:  # a Python float's; numpy's reads inf
        square = math.inf
    return bracket, square, params.c_w + params.a_w * wear


def _retention_moments(x_target, decay, bracket, square):
    """Drift mean and variance of the charge x_target from _decay, the
    bracket and its square."""
    mu_r = -x_target * decay * bracket
    sigma_r2 = 0.1 * x_target * decay * square
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


def _level_moments(terms, t, alpha: float, params: DeviceParams, scale_erased: bool):
    """The noise moments of every level, composed from programming,
    wear-out and retention noise: the array whose (3, L) rows are the read
    mean mu, the Gaussian sigma and the Laplace scale lam of the wear-out
    noise, and the Gaussian variances sigma2, from the wear terms
    (bracket, square, lam) of _wear_terms.

    Retention drift acts on the charge programmed above the erased level,
    x - V_e, not on the absolute threshold voltage: the erased state holds
    no charge to leak and therefore does not drift. Using the absolute
    voltage instead shortens the baseline lifetime by ~20% and fails to
    reproduce the reference trajectories. Programming noise is wider on
    the erased level (sigma_e) than on the programmed ones (sigma_p).

    Float terms and t give a (3, L) array and sigma2 of shape (L,). Arrays
    broadcast against the trailing level axis: terms and t of shapes that
    broadcast to S + (1,) give an S + (3, L) array and sigma2 of shape
    S + (L,). The caller guarantees v_acc >= 0 and t >= 0; the array
    checks of the public formulas would add about 10% to a wear fit.

    Moments the float range cannot hold come out inf or NaN, unchecked,
    and numpy warns unless the caller silences it.
    """
    bracket, square, lam = terms
    levels = np.array(scaled_levels(params.base_levels, alpha, scale_erased))
    mu_r, sigma_r2 = _retention_moments(levels - levels[0], _decay(t, params), bracket, square)
    s_e, s_p = params.sigma_e, params.sigma_p
    # the programming variances, squared by a multiplication, which reads
    # inf beyond the float range where a Python float's ** raises
    sigma2 = np.add([s_e * s_e] + [s_p * s_p] * (params.num_levels - 1), sigma_r2)
    # filled as a (3,) + S + (L,) array, whose rows the wear fit's kernel
    # reads without strides, and returned as its S + (3, L) view
    moments = np.empty((3,) + sigma2.shape)
    np.add(levels, mu_r, out=moments[0])
    np.sqrt(sigma2, out=moments[1])
    moments[2] = lam
    return moments.transpose(*range(1, sigma2.ndim), 0, sigma2.ndim), sigma2


def _check_time(t: float, name: str) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"{name} must be finite and nonnegative")


@np.errstate(all="ignore")
def _level_array(
    v_acc: float, t: float, alpha: float, params: DeviceParams, scale_erased: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The one gate from a wear state to checked noise moments: the (mu,
    sigma, lam) of every level as the rows of a (3, L) array, and the
    variances sigma2 of the levels, from one evaluation of the moments.

    A t that is not finite and nonnegative raises ValueError. Moments the
    float range cannot hold raise NumericalFailure, after _check_levels;
    numpy's warnings about them are off here.
    """
    _check_time(t, "t")
    levels, sigma2 = _level_moments(_wear_terms(v_acc, params), t, alpha, params, scale_erased)
    return _check_levels(levels), sigma2


@np.errstate(all="ignore")
def _level_block(
    v_acc, t: float, alpha: float, params: DeviceParams, scale_erased: bool
) -> np.ndarray:
    """The moments of _level_array for a block of wear states that share t
    and alpha, v_acc a sequence of floats: the (S, 3, L) array whose rows
    are the states' (mu, sigma, lam), from one pass over the block, not
    yet checked. Each row goes to _check_levels before its MI.

    The wear terms of each state come from the Python-float arithmetic of
    _level_array, so a state's rows are those of _level_array bit for bit,
    and a row _level_array refuses fails _check_levels the same way.
    """
    _check_time(t, "t")
    terms = np.array([_wear_terms(v, params) for v in v_acc]).T[:, :, None]
    return _level_moments(terms, t, alpha, params, scale_erased)[0]


def level_noise_specs(
    state: WearState, t: float, params: DeviceParams, scale_erased: bool = True
) -> list[NoiseSpec]:
    """Noise specs of all levels at a wear state, lowest level first."""
    levels, sigma2 = _level_array(state.v_acc, t, state.alpha, params, scale_erased)
    mu, _, lam = levels.tolist()
    return [NoiseSpec(mu=m, sigma2=s2, lam=l) for m, s2, l in zip(mu, sigma2.tolist(), lam)]


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
    z = y - mu
    z /= sigma
    r = sigma / lam
    zr = z * r
    lower = log_ndtr(z - r)
    lower -= zr
    upper = log_ndtr(-(z + r))
    upper += zr
    return z, r, lower, upper


def _log_density(y, mu, sigma, lam):
    """Log of the read-voltage density given the stored level.

    The density is exp(r^2 / 2) / (2 lambda) times the sum of the two
    exponentiated tail terms of _tails. The level parameters broadcast
    against y: shape (L, 1) gives all L levels at the points of a flat y
    in one call. The caller guarantees a finite array y of at least one
    dimension.
    """
    _, r, lower, upper = _tails(y, mu, sigma, lam)
    # log(e^upper + e^lower) as the larger term plus log1p(e^-|difference|):
    # a log-add-exp ufunc costs as much as a log_ndtr. Where both terms are
    # -inf their difference is NaN; fmin turns it into 0 so the result is
    # -inf, not NaN. The steps run in place on one buffer.
    with np.errstate(invalid="ignore"):
        gap = upper - lower
    np.abs(gap, out=gap)
    np.negative(gap, out=gap)
    np.fmin(gap, 0.0, out=gap)
    np.exp(gap, out=gap)
    np.log1p(gap, out=gap)
    lf = np.maximum(upper, lower)
    lf += gap
    lf += 0.5 * r * r - np.log(2.0 * lam)
    return lf


def log_conditional_density(y, spec: NoiseSpec):
    """Log of the read-voltage density given the stored level; scalar or
    array y."""
    y = _finite(y)
    levels = _check_levels(_spec_arrays([spec]))
    return _scalar(_log_density(y.ravel(), *levels[:, 0]).reshape(y.shape))


def _cdf_sf(y, mu, sigma, lam):
    """CDF and survival function of the Gaussian(mu, sigma^2) convolved
    with Laplace(0, lam), both from one pair of tail terms.

    P(Y <= y) = Phi(z) - (1/2) exp(r^2/2) [e^lower - e^upper] and
    P(Y > y) = Phi(-z) + the same difference; both exponents stay moderate
    for all finite y. The SF keeps full relative precision far above the
    mean, where the CDF rounds to 1. Arguments broadcast; the caller
    guarantees a finite array y of at least one dimension.
    """
    z, r, lower, upper = _tails(y, mu, sigma, lam)
    half_r2 = 0.5 * r * r
    half_gap = 0.5 * (np.exp(half_r2 + lower) - np.exp(half_r2 + upper))
    cdf = ndtr(z)
    cdf -= half_gap
    sf = ndtr(-z)
    sf += half_gap
    for p in (cdf, sf):  # np.clip, in place and without its dispatch
        np.maximum(p, 0.0, out=p)
        np.minimum(p, 1.0, out=p)
    return cdf, sf


def conditional_cdf(y, spec: NoiseSpec):
    """CDF of the read voltage given the stored level (closed form)."""
    y = _finite(y)
    levels = _check_levels(_spec_arrays([spec]))
    return _scalar(_cdf_sf(y.ravel(), *levels[:, 0])[0].reshape(y.shape))


def conditional_sf(y, spec: NoiseSpec):
    """Survival function P(Y > y) given the stored level.

    Algebraically 1 - conditional_cdf, but computed from the upper
    Gaussian tail directly so it keeps full relative precision far above
    the mean, where the CDF rounds to 1.
    """
    y = _finite(y)
    levels = _check_levels(_spec_arrays([spec]))
    return _scalar(_cdf_sf(y.ravel(), *levels[:, 0])[1].reshape(y.shape))


def _spec_arrays(specs) -> np.ndarray:
    """The (mu, sigma, lam) of a spec list as the rows of a (3, L) array."""
    if not specs:
        raise ValueError("need at least one noise spec")
    return np.array([(s.mu, s.sigma, s.lam) for s in specs]).T


def _check_levels(levels: np.ndarray) -> np.ndarray:
    """The (3, L) array levels of (mu, sigma, lam), refused with
    NumericalFailure where the float range cannot hold it: a value that is
    not finite, a sigma or lam that is not positive, a sigma/lam beyond
    the kernel's range, or a support (see support_interval) whose width is
    not finite. The checks run on Python floats, which for a handful of
    levels cost less than numpy reductions."""
    mu, sigma, lam = levels.tolist()
    if not (
        all(math.isfinite(m) for m in mu) and all(0 < v < math.inf for v in sigma + lam)
    ):
        raise NumericalFailure("the noise moments leave the float range")
    _check_ratio(max([s / l for s, l in zip(sigma, lam)]))
    lo, hi = _support(levels)
    if not math.isfinite(hi - lo):
        raise NumericalFailure("the noise support leaves the float range")
    return levels


def _log_mean_exp(lf):
    """Log of the mean of exp(lf) over the level axis 0, the mixture's log
    density, with the exp(lf - top) and the pointwise maximum top it is
    computed from. The shift keeps exp from overflowing; the mean, unlike
    log(sum) - log(L), gives identical levels exactly zero information.
    """
    top = lf.max(axis=0)
    e = lf - top
    np.exp(e, out=e)
    lmix = e.sum(axis=0)
    lmix /= len(e)
    np.log(lmix, out=lmix)
    lmix += top
    return lmix, e, top


def sample_mixture(specs: list[NoiseSpec], rng: np.random.Generator, n: int):
    """Draw n reads from cells written to uniformly random levels.

    Returns (levels, reads): the level index of each cell, of the smallest
    unsigned dtype that holds 2L - 1 (uint8 up to 128 levels), and the
    float64 reads. Draws k = rng.integers(0, 2L, n), then unit normal and
    then unit exponential noise from rng, so the same rng state gives the
    same arrays.

    A Laplace(0, lam) variate is lam times a unit exponential with a random
    sign (Devroye 1986), and numpy's ziggurat exponential costs about a
    third of its laplace, which takes a log per draw. The shared draw k
    carries the level in k >> 1 and the sign in its low bit: tables of mu,
    sigma and +/-lam with 2L entries, indexed by k, scale the unit draws
    per cell, so the sign costs no pass of its own.

    Two arrays of n values are allocated: the narrow level index and the
    int64 draw's 8-byte buffer, reused as the float64 reads (1.2 MiB in all
    at n = 100k). The noise is drawn into the reads _SAMPLE_BLOCK cells at
    a time, all normals before all exponentials as one call each would draw
    them, and scaled through block-sized scratch arrays, so that repeated
    large draws do not free and fault in fresh pages on every call.
    """
    mu, sigma, lam = _spec_arrays(specs)
    draws = rng.integers(0, 2 * len(specs), n)
    k = draws.astype(np.min_scalar_type(2 * len(specs) - 1))
    reads = draws.view(np.float64)
    sigma_k, mu_k = np.repeat(sigma, 2), np.repeat(mu, 2)
    lam_k = np.stack((lam, -lam), axis=-1).ravel()
    scratch = np.empty(min(n, _SAMPLE_BLOCK))
    gather = np.empty_like(scratch)
    blocks = [(reads[s : s + _SAMPLE_BLOCK], k[s : s + _SAMPLE_BLOCK])
              for s in range(0, n, _SAMPLE_BLOCK)]
    # take's mode "raise" would buffer its output in a fresh array; k is in
    # range by construction, so "clip" writes straight into the scratch
    for r, kb in blocks:
        g = scratch[: len(r)]
        rng.standard_normal(out=r)
        r *= sigma_k.take(kb, out=g, mode="clip")
        r += mu_k.take(kb, out=g, mode="clip")
    for r, kb in blocks:
        e = scratch[: len(r)]
        rng.standard_exponential(out=e)
        e *= lam_k.take(kb, out=gather[: len(r)], mode="clip")
        r += e
    return np.right_shift(k, 1, out=k), reads


def output_log_density(y, specs: list[NoiseSpec]):
    """Log density of the read voltage under equally likely levels."""
    y = _finite(y)
    levels = _check_levels(_spec_arrays(specs))
    lf = _log_density(y.ravel(), *levels[:, :, None])
    return _scalar(_log_mean_exp(lf)[0].reshape(y.shape))


def support_interval(specs: list[NoiseSpec]) -> tuple[float, float]:
    """Interval outside which every component density is negligible
    (below ~1e-13 of peak); used as integration support."""
    return _support(_spec_arrays(specs))


def _support(levels: np.ndarray) -> tuple[float, float]:
    """support_interval's ends from the (3, L) array of (mu, sigma, lam),
    in Python floats: the same roundings as numpy's, at less cost for a
    handful of levels."""
    mu, sigma, lam = levels.tolist()
    pad = list(map(_pad, sigma, lam))
    return min(m - p for m, p in zip(mu, pad)), max(m + p for m, p in zip(mu, pad))


def _block_support(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_support of every state of the (S, 3, L) block, as two (S,) arrays
    from the same roundings."""
    mu, sigma, lam = block.swapaxes(0, 1)
    pad = _pad(sigma, lam)
    return (mu - pad).min(-1), (mu + pad).max(-1)


def _pad(sigma, lam):
    """How far the support reaches on each side of a level's mean, the one
    rule of _support and _block_support, for floats or arrays alike."""
    return SUPPORT_SIGMAS * sigma + SUPPORT_LAMBDAS * lam
