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
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .channel import DeviceParams, NumericalFailure, scaled_levels
from .channel import _check_nonnegative, _keep, _level_grid
# capacity_at is bound here only as the public name perfbench, __all__ and users import
from .infotheory import _block_mutual_information, _capacity, capacity_at

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
]

# find_alpha searches alpha in [ALPHA_MIN, 1] and stops once its bracket
# is no wider than ALPHA_TOL.
ALPHA_MIN = 0.05
ALPHA_TOL = 1e-4

# Floor of log2 L - capacity, which rounding can make zero or negative.
_TINY = 1e-300

# Checkpoints per block of the fixed policy's trajectory set-up. Measured
# on a 2-vCPU x86-64 host with infotheory's grouped first rounds, each size
# in its own process: blocks of 16, 32 and 64 ran the three 20000-cycle
# capacity trajectories within the host's noise of each other (85-118 ms
# a pass over two rounds) and fault at most 4 pages a pass; a whole
# 201-checkpoint schedule, whose set-up arrays pass glibc's mmap
# threshold, faults 394 pages a pass and 131 on the default fixed run.
# That run stops at its 32nd checkpoint, so a larger block sets up states
# no MI uses.
_BLOCK = 32

# find_alpha's one-MI exit, in units of ALPHA_TOL: a solve given a slope
# probes _SLOPE_BIAS above its guess and ends there when the slope puts
# the root at most _SLOPE_ACCEPT below it.
_SLOPE_BIAS = 0.4
_SLOPE_ACCEPT = 0.7


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
        # NaN fails the comparison; an int beyond the float range, which
        # math.isfinite cannot convert, fails it too
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", "int") and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite and within the float range")
        if self.target_mi <= self.capacity_threshold:
            raise ValueError("target_mi must exceed capacity_threshold")
        if self.adjust_period < 1:
            raise ValueError("adjust_period must be at least 1")
        if self.retention_time < 0:
            raise ValueError("retention_time must be nonnegative")
        if self.max_cycles < 0:
            raise ValueError("max_cycles must be nonnegative")


# A trajectory keeps one per checkpoint: with slots, each takes 184 bytes
# with its values and list entry, against 225 with an instance dict.
@dataclass(frozen=True, slots=True)
class Checkpoint:
    cycle: int
    alpha: float
    capacity_bits: float
    v_acc: float
    mi_evaluations: int  # MIs its alpha and capacity took


@dataclass(frozen=True)
class LifetimeResult:
    lifetime_cycles: int
    checkpoints: list[Checkpoint] = field(default_factory=list)
    terminated_by: str = "capacity_threshold"  # or "max_cycles"
    mi_evaluations: int = 0  # its checkpoints' MIs, one per checkpoint when fixed


@dataclass(frozen=True)
class AlphaSolution:
    alpha: float
    clamped: bool
    capacity_bits: float  # capacity at the returned alpha
    # Where the secant through the final bracket meets the target: a
    # closer estimate of the exact root than alpha, which is the bracket's
    # upper end. After a one-MI solve (see find_alpha's slope) it is where
    # the given slope meets the target. Equals alpha when clamped or when
    # the lower end already meets the target.
    root: float
    # dg/dalpha of the secant across the final bracket, g as in _Probe,
    # when both of its ends were evaluated; None otherwise.
    slope: float | None
    evaluations: int  # MIs the solve took


class _Probe(NamedTuple):
    """One capacity evaluation of find_alpha and the g its secant steps
    work on."""

    alpha: float
    capacity: float  # bits
    # log(log2 L - capacity) - log(log2 L - target), close to linear in
    # alpha: positive below the target, nonpositive at or above it.
    g: float


def expected_cycle_increment(levels) -> float:
    """Expected accumulated voltage per P/E cycle under uniform writes:
    the mean programmed-minus-erased voltage over the levels, which must be
    finite and strictly increasing (ValueError otherwise)."""
    levels = list(levels)
    if not levels or not all(a < b for a, b in zip([-math.inf, *levels], [*levels, math.inf])):
        raise ValueError("levels must be nonempty, finite and strictly increasing")
    return sum(x - levels[0] for x in levels) / len(levels)


def find_alpha(
    v_acc: float,
    t: float,
    target_mi: float,
    params: DeviceParams,
    scale_erased: bool = True,
    bracket_lo: float | None = None,
    guess: float | None = None,
    slope: float | None = None,
) -> AlphaSolution:
    """Smallest scale factor meeting the MI target at accumulated voltage
    v_acc, the only wear the noise model reads, and retention time t.

    Capacity rises smoothly and monotonically with alpha, so the solver
    keeps a bracket lo < hi with capacity(lo) < target <= capacity(hi) and
    returns hi once hi - lo <= ALPHA_TOL. It works on g = log(log2 L -
    capacity), which is close to linear in alpha.

    The first point is the start (below), and the second goes 0.9
    ALPHA_TOL from it toward the target, so a start within that of the
    root ends the search in two evaluations. Later estimates are secant
    steps through the two latest points, whether or not they straddle
    the target. An estimate within 0.9 ALPHA_TOL of the latest point is
    probed that far across it, any other 0.45 ALPHA_TOL beyond it, on the
    far side from the latest point, so that the estimate falls between
    them. An estimate that leaves the search interval, or that is not
    shorter than half the step before the last one, is replaced by
    bisection (the safeguard of Brent's method), which does not count the
    opening pair's step. Every point lands at least ALPHA_TOL/2 inside a
    known bracket end.

    If even alpha=1 falls short the result clamps to 1; if the lower end
    already meets the target it is returned, clamped when it is
    ALPHA_MIN. Either end is evaluated only when an estimate reaches it.
    bracket_lo warm-starts the search from below: the target alpha never
    decreases as wear grows, so the policy loop passes the previous
    solution here. Without a guess the search starts at bracket_lo, or,
    when that is missing too, at sqrt(ALPHA_MIN), the geometric middle of
    the search interval: at alpha=1 a fresh device reads log2 L bits to
    the quadrature's precision, so g carries no information there.

    slope, with a guess, may end the search after one MI. It is a dg/dalpha
    measured nearby or carried here, such as the AlphaSolution.slope of an
    earlier solve scaled to this wear state, and is ignored without a
    guess. The first point then goes 0.4 ALPHA_TOL above the guess. If it
    meets the target, lies above the lower end of the search, and g there
    over the slope puts the root at most 0.7 ALPHA_TOL below it, that
    point is returned, its root the slope's root, since g is close to
    linear. The 0.3 ALPHA_TOL left stands for the slope's error: the
    lower end is taken to miss the target without being evaluated, and
    the caller vouches for it with its slope. Otherwise the point opens
    the search above, and no MI is lost.
    A v_acc that is not finite and nonnegative, a target_mi, bracket_lo,
    guess or slope that is not finite, or a slope that is not negative,
    raises ValueError.
    """
    _check_nonnegative(v_acc, "v_acc")
    named = {"target_mi": target_mi, "bracket_lo": bracket_lo, "guess": guess, "slope": slope}
    for name, value in named.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if slope is not None and not slope < 0.0:
        raise ValueError("slope must be negative")
    ceiling = math.log2(params.num_levels)
    goal = math.log(max(ceiling - target_mi, _TINY))
    # The closest probes known below and at or above the target.
    below = above = None
    evaluations = 0

    def probe(a: float) -> _Probe:
        nonlocal below, above, evaluations
        capacity = _capacity(v_acc, t, a, params, scale_erased)
        evaluations += 1
        p = _Probe(a, capacity, math.log(max(ceiling - capacity, _TINY)) - goal)
        if capacity >= target_mi:
            above = p
        else:
            below = p
        return p

    lo = ALPHA_MIN if bracket_lo is None else min(max(bracket_lo, ALPHA_MIN), 1.0)
    if guess is None:
        start, slope = math.sqrt(lo) if bracket_lo is None else lo, None
    else:
        start = guess if slope is None else guess + _SLOPE_BIAS * ALPHA_TOL
    last, prev = probe(min(max(start, lo), 1.0)), None
    if slope is not None and last is above and last.alpha > lo:
        shift = last.g / slope  # the distance down to the root the slope predicts
        if shift <= _SLOPE_ACCEPT * ALPHA_TOL:
            return AlphaSolution(
                alpha=last.alpha, clamped=False, capacity_bits=last.capacity,
                root=last.alpha - shift, slope=None, evaluations=1,
            )
    pair, half_tol = 0.9 * ALPHA_TOL, 0.5 * ALPHA_TOL
    step = step_before = math.inf
    while below is None or above is None or above.alpha - below.alpha > ALPHA_TOL:
        if above is None and below.alpha == 1.0:
            return AlphaSolution(
                alpha=1.0, clamped=True, capacity_bits=below.capacity, root=1.0,
                slope=None, evaluations=evaluations,
            )
        if below is None and above.alpha == lo:
            return AlphaSolution(
                alpha=lo, clamped=(lo == ALPHA_MIN), capacity_bits=above.capacity, root=lo,
                slope=None, evaluations=evaluations,
            )
        # The search interval: an end without a probe is the limit itself.
        left = lo if below is None else below.alpha
        right = 1.0 if above is None else above.alpha
        toward = pair if last is below else -pair
        if prev is None:
            # one point: the estimate half a pair toward the target
            x = last.alpha + 0.5 * toward
        elif last.g != prev.g:
            x = last.alpha - last.g * (last.alpha - prev.alpha) / (last.g - prev.g)
        else:
            x = math.nan
        # An end without a probe is evaluated once an estimate reaches it
        # or the interval is narrow enough to end the search there.
        if above is None and (x >= right or right - left <= ALPHA_TOL):
            a = 1.0
        elif below is None and (x <= left or right - left <= ALPHA_TOL):
            a = lo
        else:
            if not left < x < right or abs(x - last.alpha) > 0.5 * step_before:
                a = 0.5 * (left + right)
            elif abs(x - last.alpha) <= pair:
                a = last.alpha + toward
            else:
                a = x + math.copysign(0.45 * ALPHA_TOL, x - last.alpha)
            a = min(max(a, left + half_tol), right - half_tol)
        p = probe(a)
        if prev is not None:
            step_before, step = step, abs(a - last.alpha)
        last, prev = p, last
    root = below.alpha + (above.alpha - below.alpha) * below.g / (below.g - above.g)
    return AlphaSolution(
        alpha=above.alpha, clamped=False, capacity_bits=above.capacity, root=root,
        slope=(above.g - below.g) / (above.alpha - below.alpha), evaluations=evaluations,
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
    alpha (bracket_lo) and is seeded from the roots solved so far
    (AlphaSolution.root), which lie closer to the exact roots than the
    returned alphas, which jitter by up to ALPHA_TOL. Retention leaves
    the share keep of the programmed charge (channel._keep), so the
    spacing of the levels scales with alpha * keep. The policy
    extrapolates these spans, root * keep, and divides by the new keep. The spans change far less
    than the roots do: by 0.001 against 0.028 over the default run's
    first 100 cycles. The extrapolation is linear until four spans after
    the fresh one are known, and cubic through the last four after that.
    The fresh root, at v_acc = 0 where the wear scale rises steepest,
    would bend a higher-order stencil. Each solve is also given the slope
    of the latest bracket solved to both ends, scaled by the keep of its
    wear state over the keep at that bracket, so that it can end after
    one MI (see find_alpha). On the default dynamic run, the unseeded
    first solve takes five MIs, the second and third four, and every later
    solve that does not clamp takes two, its opening pair, or one: 69 MIs
    over 57 solves.
    Fixed mode knows its wear schedule ahead and sets its checkpoints up
    _BLOCK at a time, whose MIs infotheory takes a group at a time (see
    _fixed_checkpoints). With
    stop_below_threshold off, the trajectory continues to max_cycles
    regardless of capacity (used for capacity sweeps). Either way the
    lifetime is the cycle of the last checkpoint before the first one
    below the threshold: capacity that recovers later does not count.
    """
    checkpoints: list[Checkpoint] = []
    terminated_by = "max_cycles"
    lifetime, crossed = 0, False
    run = _fixed_checkpoints if policy.mode == "fixed" else _dynamic_checkpoints
    for cp in run(params, policy):
        checkpoints.append(cp)
        crossed = crossed or cp.capacity_bits < policy.capacity_threshold
        if not crossed:
            lifetime = cp.cycle
        elif stop_below_threshold:
            terminated_by = "capacity_threshold"
            break
    return LifetimeResult(
        lifetime_cycles=lifetime,
        checkpoints=checkpoints,
        terminated_by=terminated_by,
        mi_evaluations=sum(cp.mi_evaluations for cp in checkpoints),
    )


def _fixed_checkpoints(params: DeviceParams, policy: PolicyConfig):
    """The fixed policy's checkpoints up to the first at or past max_cycles,
    each from one MI.

    Alpha stays 1, so the wear schedule is known ahead of the first MI. The
    checkpoints are set up _BLOCK at a time: v_acc by the same sequential
    additions as the dynamic policy's, then one call of _level_grid for
    the level moments, whose MIs _block_mutual_information yields in
    turn. A state the gate refuses raises where the trajectory reaches
    it, so a run that stops before it never sees it.
    """
    t, period = policy.retention_time, policy.adjust_period
    scale_erased = policy.scale_erased
    levels = scaled_levels(params.base_levels, 1.0, scale_erased)
    step = period * expected_cycle_increment(levels)  # the same for every period
    v_acc, cycle, last = 0.0, 0, False
    while not last:
        states = []
        while len(states) < _BLOCK and not last:
            states.append((cycle, v_acc))
            last = cycle >= policy.max_cycles
            if not last:
                v_acc += step
                cycle += period
        with np.errstate(all="ignore"):
            block = _level_grid([v for _, v in states], t, 1.0, params, scale_erased)
        for (c, v), cap in zip(states, _block_mutual_information(block)):
            yield Checkpoint(cycle=c, alpha=1.0, capacity_bits=cap, v_acc=v, mi_evaluations=1)


def _dynamic_checkpoints(params: DeviceParams, policy: PolicyConfig):
    """The dynamic policy's checkpoints up to the first at or past
    max_cycles, each from its find_alpha solve; see simulate_lifetime.

    A slope passes from a solve that bracketed its root to every later
    solve until the next such solve; a solve that ends after one MI
    returns no slope of its own. Capacity depends on alpha nearly through
    alpha * keep alone, so dg/dalpha scales with keep: the slope passed
    on is the bracket's times keep over the keep at the bracket. Passed
    on unscaled, with no age bound, it no longer vouched for the lower
    end, and alpha ended up to 1.56 ALPHA_TOL above the root. Past charge
    exhaustion, where keep <= 0, the scaling means nothing, so no slope
    is passed at such a state or from a bracket there.
    """
    t = policy.retention_time
    period = policy.adjust_period
    v_acc = 0.0
    cycle = 0
    alpha = 1.0
    spans: list[float] = []  # root * keep so far
    latest = None  # the latest bracket's slope and the keep there
    while True:
        if not math.isfinite(v_acc):  # the voltage schedule overflowed
            raise NumericalFailure("the noise moments leave the float range")
        keep = _keep(v_acc, t, params)
        guess = None
        if spans and keep > 0.0:
            if len(spans) >= 5:
                span = 4.0 * (spans[-1] + spans[-3]) - 6.0 * spans[-2] - spans[-4]
            elif len(spans) >= 2:
                span = 2.0 * spans[-1] - spans[-2]
            else:
                span = spans[-1]
            guess = span / keep
        sol = find_alpha(
            v_acc, t, policy.target_mi, params, policy.scale_erased,
            bracket_lo=alpha if cycle > 0 else None, guess=guess,
            slope=latest[0] * (keep / latest[1]) if latest and keep > 0.0 else None,
        )
        if sol.slope is not None:
            latest = (sol.slope, keep) if keep > 0.0 else None
        alpha, cap = sol.alpha, sol.capacity_bits
        spans.append(sol.root * keep)
        yield Checkpoint(cycle, alpha, cap, v_acc, mi_evaluations=sol.evaluations)
        if cycle >= policy.max_cycles:
            return
        levels = scaled_levels(params.base_levels, alpha, policy.scale_erased)
        v_acc += period * expected_cycle_increment(levels)
        cycle += period
