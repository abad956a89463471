"""Dynamic voltage-allocation policy.

Wear grows with every P/E cycle in proportion to the written voltage, so a
device that starts life with full-swing levels wastes margin early and
dies sooner. The dynamic policy instead re-solves, every adjustment
period, for the smallest scale factor alpha whose capacity at the target
retention time meets the MI target, and only accumulates that much
voltage. Lifetime is the last checkpoint before capacity first falls
below the code-rate-plus-margin threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from .channel import DeviceParams, WearState, level_noise_specs, scaled_levels
from .infotheory import mutual_information

__all__ = [
    "ALPHA_MIN",
    "ALPHA_TOL",
    "PolicyConfig",
    "LifetimeResult",
    "Checkpoint",
    "AlphaSolution",
    "expected_cycle_increment",
    "capacity_at",
    "find_alpha",
    "simulate_lifetime",
    "lifetime_csv_rows",
]

# find_alpha searches alpha in [ALPHA_MIN, 1] and stops once its bracket
# is no wider than ALPHA_TOL.
ALPHA_MIN = 0.05
ALPHA_TOL = 1e-4

# Floor of log2 L - capacity, which rounding can make zero or negative.
_TINY = 1e-300


@dataclass(frozen=True)
class PolicyConfig:
    mode: str = "dynamic"  # "fixed" or "dynamic"
    target_mi: float = 1.92  # bits
    capacity_threshold: float = 1.9  # bits
    adjust_period: int = 100  # P/E cycles between alpha updates
    retention_time: float = 8760.0  # hours; capacity is evaluated here
    max_cycles: int = 20000
    scale_erased: bool = True  # whether alpha also scales the erased level

    def __post_init__(self):
        if self.mode not in ("fixed", "dynamic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for f in fields(self):
            if f.type in ("float", "int") and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.target_mi <= self.capacity_threshold:
            raise ValueError("target_mi must exceed capacity_threshold")
        if self.adjust_period < 1:
            raise ValueError("adjust_period must be at least 1")
        if self.retention_time < 0:
            raise ValueError("retention_time must be nonnegative")
        if self.max_cycles < 0:
            raise ValueError("max_cycles must be nonnegative")


@dataclass(frozen=True)
class Checkpoint:
    cycle: int
    alpha: float
    capacity_bits: float
    v_acc: float


@dataclass(frozen=True)
class LifetimeResult:
    lifetime_cycles: int
    checkpoints: list[Checkpoint] = field(default_factory=list)
    terminated_by: str = "capacity_threshold"  # or "max_cycles"


@dataclass(frozen=True)
class AlphaSolution:
    alpha: float
    clamped: bool
    capacity_bits: float  # capacity at the returned alpha
    # Where the secant through the final bracket meets the target: a
    # closer estimate of the exact root than alpha, which is the bracket's
    # upper end. Equals alpha when clamped or when the lower end already
    # meets the target; NaN when not given.
    root: float = math.nan


class _Probe(NamedTuple):
    """One capacity evaluation of find_alpha."""

    alpha: float
    capacity: float  # bits
    # log(log2 L - capacity) - log(log2 L - target), close to linear in
    # alpha: positive below the target, nonpositive at or above it.
    g: float


def expected_cycle_increment(levels) -> float:
    """Expected accumulated voltage per P/E cycle under uniform writes:
    the mean programmed-minus-erased voltage over the levels."""
    levels = list(levels)
    if any(b >= a for b, a in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    return sum(x - levels[0] for x in levels) / len(levels)


def capacity_at(
    state: WearState,
    t: float,
    params: DeviceParams,
    scale_erased: bool = True,
) -> float:
    """Instantaneous storage capacity (bits) at a wear state and retention
    time."""
    specs = level_noise_specs(state, t, params, scale_erased)
    return mutual_information(specs).value


def find_alpha(
    state: WearState,
    t: float,
    target_mi: float,
    params: DeviceParams,
    scale_erased: bool = True,
    bracket_lo: float | None = None,
    guess: float | None = None,
) -> AlphaSolution:
    """Smallest scale factor meeting the MI target at this wear state.

    Capacity rises smoothly and monotonically with alpha, so the solver
    keeps a bracket lo < hi with capacity(lo) < target <= capacity(hi) and
    returns hi once hi - lo <= ALPHA_TOL. Each step is a secant step
    through the two latest points on log(log2 L - capacity), which is
    close to linear in alpha. A step that leaves the bracket, or that is
    not shorter than half the step before the last one, is replaced by
    bisection (the safeguard of Brent's method), and every step lands at
    least ALPHA_TOL/2 inside the bracket.

    If even alpha=1 falls short the result clamps to 1; if the lower end
    already meets the target it is returned, clamped when it is
    ALPHA_MIN. bracket_lo warm-starts the search from below: the target
    alpha never decreases as wear grows, so the policy loop passes the
    previous solution here.

    guess seeds the search with an estimate of the root: the solver first
    evaluates a pair 0.9 ALPHA_TOL apart around it, which ends the search
    when it straddles the target. Otherwise the bracketing search runs
    from the closest points found, and alpha=1 and the lower end are
    evaluated only when that search needs them.
    """
    if guess is not None and not math.isfinite(guess):
        raise ValueError("guess must be finite")
    ceiling = math.log2(params.num_levels)
    goal = math.log(max(ceiling - target_mi, _TINY))
    # The closest probes known below and at or above the target.
    below = above = None

    def probe(a: float) -> _Probe:
        nonlocal below, above
        m = capacity_at(replace(state, alpha=a), t, params, scale_erased)
        p = _Probe(a, m, math.log(max(ceiling - m, _TINY)) - goal)
        if m >= target_mi:
            above = p
        else:
            below = p
        return p

    lo = ALPHA_MIN if bracket_lo is None else max(bracket_lo, ALPHA_MIN)
    pair = 0.9 * ALPHA_TOL
    if guess is not None and 1.0 - lo > pair:
        a = max(min(guess - 0.5 * pair, 1.0 - pair), lo)
        probe(a)
        if above is None:
            probe(min(a + pair, 1.0))
    if above is None and (below is None or below.alpha < 1.0):
        probe(1.0)
    if above is None:
        return AlphaSolution(
            alpha=1.0, clamped=True, capacity_bits=below.capacity, root=1.0
        )
    if below is None and above.alpha > lo:
        probe(lo)
    if below is None:
        a = above.alpha
        return AlphaSolution(
            alpha=a, clamped=(a == ALPHA_MIN), capacity_bits=above.capacity, root=a
        )

    half_tol = 0.5 * ALPHA_TOL
    (x0, _, g0), (x1, _, g1) = above, below
    step = step_before = above.alpha - below.alpha
    while above.alpha - below.alpha > ALPHA_TOL:
        lo, hi = below.alpha, above.alpha
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else math.nan
        if not lo < x < hi or abs(x - x1) > 0.5 * step_before:
            x = 0.5 * (lo + hi)
        p = probe(min(max(x, lo + half_tol), hi - half_tol))
        step_before, step = step, abs(p.alpha - x1)
        (x0, g0), (x1, g1) = (x1, g1), (p.alpha, p.g)
    root = below.alpha + (above.alpha - below.alpha) * below.g / (below.g - above.g)
    return AlphaSolution(
        alpha=above.alpha, clamped=False, capacity_bits=above.capacity, root=root
    )


def simulate_lifetime(
    params: DeviceParams,
    policy: PolicyConfig = PolicyConfig(),
    stop_below_threshold: bool = True,
) -> LifetimeResult:
    """Run the voltage-allocation policy until capacity drops below the
    threshold (or max_cycles is hit).

    At every block boundary (cycle 0, adjust_period, 2*adjust_period, ...)
    the policy re-solves alpha for the wear state at that boundary (fixed
    mode keeps alpha=1) and records a capacity checkpoint with that fresh
    alpha; the block's writes then accumulate the expected per-cycle
    voltage at that alpha. Each dynamic solve starts from the previous
    alpha (bracket_lo) and is seeded with the quadratic extrapolation of
    the last three checkpoints' roots (AlphaSolution.root), which lie
    closer to the exact roots than the returned alphas, which jitter by up
    to ALPHA_TOL. The roots' increments change steadily with wear, so a
    linear extrapolation misses by more than the seed pair's width. With
    stop_below_threshold off, the trajectory continues to max_cycles
    regardless of capacity (used for capacity sweeps). Either way the
    lifetime is the cycle of the last checkpoint before the first one
    below the threshold: capacity that recovers later does not count.
    """
    t = policy.retention_time
    period = policy.adjust_period
    checkpoints: list[Checkpoint] = []
    v_acc = 0.0
    cycle = 0
    alpha = 1.0
    roots: list[float] = []  # the dynamic policy's solved roots so far
    terminated_by = "max_cycles"

    while True:
        state = WearState(v_acc=v_acc, cycles=cycle, alpha=alpha)
        if policy.mode == "fixed":
            cap = capacity_at(state, t, params, policy.scale_erased)
        else:
            guess = 3.0 * (roots[-1] - roots[-2]) + roots[-3] if len(roots) > 2 else None
            sol = find_alpha(
                state, t, policy.target_mi, params, policy.scale_erased,
                bracket_lo=alpha if cycle > 0 else None, guess=guess,
            )
            alpha, cap = sol.alpha, sol.capacity_bits
            roots.append(sol.root)
        checkpoints.append(
            Checkpoint(cycle=cycle, alpha=alpha, capacity_bits=cap, v_acc=v_acc)
        )
        if cap < policy.capacity_threshold and stop_below_threshold:
            terminated_by = "capacity_threshold"
            break
        if cycle >= policy.max_cycles:
            break
        levels = scaled_levels(params.base_levels, alpha, policy.scale_erased)
        v_acc += period * expected_cycle_increment(levels)
        cycle += period

    lifetime = 0
    for cp in checkpoints:
        if cp.capacity_bits < policy.capacity_threshold:
            break
        lifetime = cp.cycle
    return LifetimeResult(
        lifetime_cycles=lifetime,
        checkpoints=checkpoints,
        terminated_by=terminated_by,
    )


def lifetime_csv_rows(result: LifetimeResult):
    """Rows for the trajectory CSV: header then one row per checkpoint."""
    yield "cycle,alpha,capacity_bits,v_acc"
    for cp in result.checkpoints:
        yield f"{cp.cycle},{cp.alpha:.6f},{cp.capacity_bits:.6f},{cp.v_acc:.6f}"
