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

import functools
import importlib.util
import math
import sys
import types
from dataclasses import dataclass, fields

import numpy as np


def _load_ufuncs():
    """Bind scipy.special's erfcx, log_ndtr and ndtr without running the
    package's __init__, which loads scipy's array-API layer and numpy.f2py,
    most of a cold start, for three compiled ufuncs. A bare stub carrying
    the real __path__ stands in for the package while the compiled _ufuncs
    module loads, and is removed at once. The compiled modules stay loaded,
    so a later import of scipy.special runs in full on them and returns
    these very objects. If the package is loaded already, or the stub path
    fails on some scipy, the public import binds them."""
    if "scipy.special" not in sys.modules:
        try:
            spec = importlib.util.find_spec("scipy.special")
            stub = types.ModuleType("scipy.special")
            stub.__path__ = list(spec.submodule_search_locations)
            sys.modules["scipy.special"] = stub
            try:
                from scipy.special._ufuncs import erfcx, log_ndtr, ndtr
            finally:
                if sys.modules.get("scipy.special") is stub:
                    del sys.modules["scipy.special"]
            return erfcx, log_ndtr, ndtr
        except Exception:
            pass  # the public import below is complete on every scipy
    from scipy.special import erfcx, log_ndtr, ndtr

    return erfcx, log_ndtr, ndtr


erfcx, log_ndtr, ndtr = _load_ufuncs()

__all__ = [
    "DeviceParams",
    "WearState",
    "NoiseSpec",
    "NumericalFailure",
    "default_device_params",
    "retention_moments",
    "scaled_levels",
    "level_noise_spec",
    "sample_mixture",
]

# Quadrature/normalization support half-width in units of (sigma, lambda).
SUPPORT_SIGMAS = 10.0
SUPPORT_LAMBDAS = 30.0

# Largest sigma/lambda the kernels take. The CDF and survival function
# form exp(r^2/2) for r = sigma/lambda against their log_ndtr tail terms,
# which leaves a rounding error of about 1e-16 r^2 relative to each tail
# term: 3e-6 at this bound, 0.02 at r = 1e7, and an overflow to NaN once
# r^2 does. The density kernel carries no such error.
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
        if len(self.base_levels) < 2:
            raise ValueError("need at least 2 levels")
        if any(b >= a for b, a in zip(self.base_levels, self.base_levels[1:])):
            raise ValueError("base_levels must be strictly increasing")

    @property
    def num_levels(self) -> int:
        return len(self.base_levels)


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
        _check_nonnegative(self.v_acc, "v_acc")
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


def _per_element(nout: int):
    """Extend f(x, params), Python-float (libm) arithmetic, to an ndarray
    x of one or more dimensions, element by element: each gets the bits of
    a scalar call, not those of numpy's loops, whose pow and log1p take
    SIMD paths on some hosts, and x gives nout float arrays of its shape."""

    def wrap(f):
        @functools.wraps(f)
        def mapped(x, params: DeviceParams):
            if not (isinstance(x, np.ndarray) and x.ndim):
                return f(float(x), params)
            values = [f(v, params) for v in x.ravel().tolist()]
            if nout == 1:
                return np.array(values).reshape(x.shape)
            return tuple(np.array(list(zip(*values))).reshape((nout,) + x.shape))

        return mapped

    return wrap


@_per_element(1)
def _decay(t: float, params: DeviceParams) -> float:
    """How retention drift grows with the storage time t: its product with
    _wear_terms' bracket is the share of the programmed charge drained."""
    return math.log1p(t / params.t0)


@_per_element(3)
def _wear_terms(v_acc: float, params: DeviceParams) -> tuple[float, float, float]:
    """The terms of the noise moments that grow with the accumulated voltage:
    retention's bracket, its square, and the Laplace scale lam of the
    wear-out noise. The square is a product, which reads inf beyond the
    float range where a Python float's ** raises."""
    ratio = v_acc / params.v_max
    wear = ratio**params.k1
    bracket = params.a_r * wear + params.b_r * ratio**params.k2
    return bracket, bracket * bracket, params.c_w + params.a_w * wear


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


def _level_moments(v_acc, t, alpha: float, params: DeviceParams, scale_erased: bool):
    """The noise moments of every level, composed from programming,
    wear-out and retention noise: the array whose (3, L) rows are the read
    mean mu, the Gaussian sigma and the Laplace scale lam of the wear-out
    noise, and the Gaussian variances sigma2.

    Retention drift acts on the charge programmed above the erased level,
    x - V_e, not on the absolute threshold voltage: the erased state holds
    no charge to leak and therefore does not drift. Using the absolute
    voltage instead shortens the baseline lifetime by ~20% and fails to
    reproduce the reference trajectories. Programming noise is wider on
    the erased level (sigma_e) than on the programmed ones (sigma_p).

    Float v_acc and t give a (3, L) array and sigma2 of shape (L,). Arrays
    broadcast against the trailing level axis: v_acc and t of shapes that
    broadcast to S + (1,) give a (3,) + S + (L,) array and sigma2 of shape
    S + (L,), a state's the same floats as its scalar call's. The caller
    guarantees v_acc >= 0 and t >= 0; the array checks of the public
    formulas would add about 10% to a wear fit.

    Moments the float range cannot hold come out inf or NaN, unchecked,
    and numpy warns unless the caller silences it.
    """
    bracket, square, lam = _wear_terms(v_acc, params)
    levels = np.array(scaled_levels(params.base_levels, alpha, scale_erased))
    mu_r, sigma_r2 = _retention_moments(levels - levels[0], _decay(t, params), bracket, square)
    s_e, s_p = params.sigma_e, params.sigma_p
    # the programming variances, squared by a multiplication, which reads
    # inf beyond the float range where a Python float's ** raises
    sigma2 = np.add([s_e * s_e] + [s_p * s_p] * (params.num_levels - 1), sigma_r2)
    moments = np.empty((3,) + sigma2.shape)
    np.add(levels, mu_r, out=moments[0])
    np.sqrt(sigma2, out=moments[1])
    moments[2] = lam
    return moments, sigma2


def _check_nonnegative(value: float, name: str) -> None:
    if not (math.isfinite(value) and value >= 0):
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
    _check_nonnegative(t, "t")
    levels, sigma2 = _level_moments(v_acc, t, alpha, params, scale_erased)
    return _check_levels(levels), sigma2


def _level_grid(
    v_acc, t, alpha: float, params: DeviceParams, scale_erased: bool
) -> np.ndarray:
    """The moments of _level_array, bit for bit but not yet checked, at the
    wear states where v_acc and t broadcast to a shape S: the (3,) + S +
    (L,) array whose rows are mu, sigma and lam. The caller guarantees
    v_acc >= 0 and t >= 0, and silences numpy where the moments may leave
    the float range."""
    v_acc, t = np.asarray(v_acc, dtype=float), np.asarray(t, dtype=float)
    return _level_moments(v_acc[..., None], t[..., None], alpha, params, scale_erased)[0]


def level_noise_spec(
    level_index: int,
    state: WearState,
    t: float,
    params: DeviceParams,
    scale_erased: bool = True,
) -> NoiseSpec:
    """Noise spec of one level at a wear state: its column of the gate's
    (3, L) array and its variance."""
    if not 0 <= level_index < params.num_levels:
        raise IndexError(f"level index {level_index} out of range")
    levels, sigma2 = _level_array(state.v_acc, t, state.alpha, params, scale_erased)
    mu, _, lam = levels[:, level_index].tolist()
    return NoiseSpec(mu=mu, sigma2=sigma2[level_index].item(), lam=lam)


def _log_density(y, mu, sigma, lam):
    """Log of the read-voltage density given the stored level.

    With z = (y - mu)/sigma, r = sigma/lam, m = (r - |z|)/sqrt2 and
    M = (r + |z|)/sqrt2 the Gaussian(mu, sigma^2) convolved with
    Laplace(0, lam) is

        f = exp(B) / (4 lam) (2 [m < 0] + g (s erfcx(|m|) + erfcx(M))).

    Where m >= 0, s = g = 1 and B = -z^2/2. Where m < 0 the reflection
    erfcx(m) = 2 exp(m^2) - erfcx(|m|) gives s = -1, g = exp(-m^2) and
    B = -z^2/2 + m^2, formed without cancellation as r (r/2 - |z|). In
    a = |z|/sqrt2, rho = r/sqrt2 and c = min(a, rho) both branches read
    B = c (min(m, 0) - a), and g / (4 lam) is one exp. Every term is
    nonnegative or smaller than what it is added to, so ln f keeps a
    relative error of a few ulp at any r. Where z^2, m^2 or r |z|
    overflow, f takes its limit: B is -inf or g is 0.

    The level parameters broadcast against y: shape (L, 1) gives all L
    levels at the points of a flat y in one call. The caller guarantees a
    finite array y of at least one dimension.
    """
    rho = sigma / lam / math.sqrt(2.0)
    quarter = 0.25 / lam
    with np.errstate(over="ignore"):
        a = y - mu
        a /= sigma * math.sqrt(2.0)
        np.abs(a, out=a)
        c = np.minimum(a, rho)
        low = c - a  # min(m, 0): +0 where m >= 0, so its sign is s
        minus_b = a - low
        minus_b *= c
        em = np.subtract(rho, a, out=c)
        np.abs(em, out=em)
        erfcx(em, out=em)
        np.copysign(em, low, out=em)
        em += erfcx(np.add(a, rho, out=a), out=a)
        two = np.copysign(quarter, low, out=a)
        np.subtract(quarter, two, out=two)  # 2 [m < 0] / (4 lam)
        low *= low
        g = np.subtract(np.log(quarter), low, out=low)
        em *= np.exp(g, out=g)
        em += two
        lf = np.log(em, out=em)
        lf -= minus_b
    return lf


def _cdf_sf(y, mu, sigma, lam):
    """CDF and survival function of the Gaussian(mu, sigma^2) convolved
    with Laplace(0, lam), both from one pair of tail terms: with
    z = (y - mu)/sigma and r = sigma/lam,
    lower = -z r + log Phi(z - r) and upper = z r + log Phi(-(z + r)).

    P(Y <= y) = Phi(z) - (1/2) exp(r^2/2) [e^lower - e^upper] and
    P(Y > y) = Phi(-z) + the same difference; both exponents stay moderate
    for all finite y. The SF keeps full relative precision far above the
    mean, where the CDF rounds to 1. Arguments broadcast; the caller
    guarantees a finite array y of at least one dimension.
    """
    # the tail terms leave out their common factor exp(r^2/2), which
    # overflows once r is a few dozen
    z = y - mu
    z /= sigma
    r = sigma / lam
    zr = z * r
    lower = log_ndtr(z - r)
    lower -= zr
    upper = log_ndtr(-(z + r))
    upper += zr
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


def _spec_arrays(specs) -> np.ndarray:
    """The (mu, sigma, lam) of a spec list as the rows of a (3, L) array."""
    if not specs:
        raise ValueError("need at least one noise spec")
    return np.array([(s.mu, s.sigma, s.lam) for s in specs]).T


def _check_levels(levels: np.ndarray) -> np.ndarray:
    """The (3, L) array levels of (mu, sigma, lam), refused with
    NumericalFailure where the float range cannot hold it: a value that is
    not finite, a sigma or lam that is not positive, a sigma/lam that
    underflows to 0, where the density kernel forms inf * 0, or passes
    the kernel's range, or a support (see _support) whose width is not
    finite. The checks run on Python floats, which for a handful of
    levels cost less than numpy reductions."""
    mu, sigma, lam = levels.tolist()
    if not (
        all(math.isfinite(m) for m in mu) and all(0 < v < math.inf for v in sigma + lam)
    ):
        raise NumericalFailure("the noise moments leave the float range")
    ratios = [s / l for s, l in zip(sigma, lam)]
    if not min(ratios) > 0:
        raise NumericalFailure("sigma/lambda underflows to 0, below the density kernel's range")
    _check_ratio(max(ratios))
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


def sample_mixture(levels: np.ndarray, rng: np.random.Generator, n: int):
    """Draw n reads from cells written to uniformly random levels, whose
    (mu, sigma, lam) are the rows of the checked (3, L) array levels.

    Returns (index, reads): the level index of each cell, of the smallest
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
    mu, sigma, lam = levels
    draws = rng.integers(0, 2 * len(mu), n)
    k = draws.astype(np.min_scalar_type(2 * len(mu) - 1))
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


def _support(levels: np.ndarray) -> tuple[float, float]:
    """The interval outside which every level's density, the (3, L) array
    of (mu, sigma, lam), is negligible (below ~1e-13 of its peak), the
    integration support, in Python floats: the same roundings as numpy's,
    at less cost for a handful of levels."""
    mu, sigma, lam = levels.tolist()
    pad = list(map(_pad, sigma, lam))
    return min(m - p for m, p in zip(mu, pad)), max(m + p for m, p in zip(mu, pad))


def _block_support(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_support of every state of the (3, S, L) block, as two (S,) arrays
    from the same roundings."""
    mu, sigma, lam = block
    pad = _pad(sigma, lam)
    return (mu - pad).min(-1), (mu + pad).max(-1)


def _pad(sigma, lam):
    """How far the support reaches on each side of a level's mean, the one
    rule of _support and _block_support, for floats or arrays alike."""
    return SUPPORT_SIGMAS * sigma + SUPPORT_LAMBDAS * lam
