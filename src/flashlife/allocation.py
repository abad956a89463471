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
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .channel import DeviceParams, WearState, scaled_levels
from .channel import _drift_factors, _level_array, _level_block
from .infotheory import _block_panel_edges, _mutual_information

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

# Checkpoints per block of the fixed policy's trajectory set-up. Measured
# on a 2-vCPU x86-64 host: blocks of 16, 32, 64 and a whole 201-checkpoint
# schedule set the three 20000-cycle capacity trajectories up within 3% of
# each other, while the default fixed run, which stops at its 32nd
# checkpoint, took 7.4, 7.2, 7.9 and 9.9 ms: a larger block sets up states
# past the crossing that no MI uses.
_BLOCK = 32


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
    # meets the target.
    root: float


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
    time: mutual_information of the level_noise_specs there, from the
    same numbers without building the specs."""
    levels, _ = _level_array(state.v_acc, t, state.alpha, params, scale_erased)
    return _mutual_information(levels).value


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
    """
    for name, value in (("bracket_lo", bracket_lo), ("guess", guess)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    ceiling = math.log2(params.num_levels)
    goal = math.log(max(ceiling - target_mi, _TINY))
    # The closest probes known below and at or above the target.
    below = above = None

    def probe(a: float) -> _Probe:
        nonlocal below, above
        levels, _ = _level_array(state.v_acc, t, a, params, scale_erased)
        capacity = _mutual_information(levels).value
        p = _Probe(a, capacity, math.log(max(ceiling - capacity, _TINY)) - goal)
        if capacity >= target_mi:
            above = p
        else:
            below = p
        return p

    lo = ALPHA_MIN if bracket_lo is None else min(max(bracket_lo, ALPHA_MIN), 1.0)
    start = guess if guess is not None else math.sqrt(lo) if bracket_lo is None else lo
    last, prev = probe(min(max(start, lo), 1.0)), None
    pair, half_tol = 0.9 * ALPHA_TOL, 0.5 * ALPHA_TOL
    step = step_before = math.inf
    while below is None or above is None or above.alpha - below.alpha > ALPHA_TOL:
        if above is None and below.alpha == 1.0:
            return AlphaSolution(
                alpha=1.0, clamped=True, capacity_bits=below.capacity, root=1.0
            )
        if below is None and above.alpha == lo:
            return AlphaSolution(
                alpha=lo, clamped=(lo == ALPHA_MIN), capacity_bits=above.capacity, root=lo
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
    alpha (bracket_lo) and is seeded from the roots solved so far
    (AlphaSolution.root), which lie closer to the exact roots than the
    returned alphas, which jitter by up to ALPHA_TOL. Retention leaves
    the share keep = 1 - d of the programmed charge, so the spacing of the
    levels scales with alpha * keep. The policy extrapolates these spans,
    root * keep, and divides by the new keep. The spans change far less
    than the roots do: by 0.001 against 0.028 over the default run's
    first 100 cycles. The extrapolation is linear until four spans after
    the fresh one are known, and cubic through the last four after that.
    The fresh root, at v_acc = 0 where the wear scale rises steepest,
    would bend a higher-order stencil. On the default dynamic run, the
    unseeded first solve takes five MIs, the second and third four, and
    every later solve that does not clamp takes two, its opening pair.
    Fixed mode knows its wear schedule ahead and sets its checkpoints up
    _BLOCK at a time (see _fixed_checkpoints). With stop_below_threshold
    off, the trajectory continues to max_cycles regardless of capacity
    (used for capacity sweeps). Either way the lifetime is the cycle of
    the last checkpoint before the first one below the threshold:
    capacity that recovers later does not count.
    """
    checkpoints: list[Checkpoint] = []
    terminated_by = "max_cycles"
    run = _fixed_checkpoints if policy.mode == "fixed" else _dynamic_checkpoints
    for cp in run(params, policy):
        checkpoints.append(cp)
        if cp.capacity_bits < policy.capacity_threshold and stop_below_threshold:
            terminated_by = "capacity_threshold"
            break

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


def _fixed_checkpoints(params: DeviceParams, policy: PolicyConfig):
    """The fixed policy's checkpoints up to the first at or past max_cycles.

    Alpha stays 1, so the wear schedule is known ahead of the first MI. The
    checkpoints are set up _BLOCK at a time: v_acc by the same sequential
    additions as the dynamic policy's, then one call of _level_block for
    the level moments and their checks and one of _block_panel_edges for
    the panel edges. Only the quadrature runs once per checkpoint. A state
    the block's checks refuse goes to capacity_at, which raises as for a
    single state, so a run that stops before it never sees it.
    """
    t, period = policy.retention_time, policy.adjust_period
    scale_erased = policy.scale_erased
    levels = scaled_levels(params.base_levels, 1.0, scale_erased)
    v_acc, cycle, last = 0.0, 0, False
    while not last:
        states = []
        while len(states) < _BLOCK and not last:
            states.append((cycle, v_acc))
            last = cycle >= policy.max_cycles
            if not last:
                v_acc += period * expected_cycle_increment(levels)
                cycle += period
        block, passed = _level_block([v for _, v in states], t, 1.0, params, scale_erased)
        edges = _block_panel_edges(block[:passed]) if passed else []
        for i, (c, v) in enumerate(states):
            if i < passed:
                cap = _mutual_information(block[i], edges[i]).value
            else:
                state = WearState(v_acc=v, cycles=c, alpha=1.0)
                cap = capacity_at(state, t, params, scale_erased)
            yield Checkpoint(cycle=c, alpha=1.0, capacity_bits=cap, v_acc=v)


def _dynamic_checkpoints(params: DeviceParams, policy: PolicyConfig):
    """The dynamic policy's checkpoints up to the first at or past
    max_cycles, one find_alpha solve each; see simulate_lifetime."""
    t = policy.retention_time
    period = policy.adjust_period
    v_acc = 0.0
    cycle = 0
    alpha = 1.0
    spans: list[float] = []  # root * keep so far
    while True:
        # keep = 1 - d in Python floats: a d beyond the float range makes it
        # NaN or -inf without a numpy warning, and find_alpha's first probe
        # refuses the state
        decay, bracket = _drift_factors(v_acc, t, params)
        keep = 1.0 - float(decay) * bracket
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
            WearState(v_acc=v_acc, cycles=cycle, alpha=alpha), t, policy.target_mi,
            params, policy.scale_erased,
            bracket_lo=alpha if cycle > 0 else None, guess=guess,
        )
        alpha, cap = sol.alpha, sol.capacity_bits
        spans.append(sol.root * keep)
        yield Checkpoint(cycle=cycle, alpha=alpha, capacity_bits=cap, v_acc=v_acc)
        if cycle >= policy.max_cycles:
            return
        levels = scaled_levels(params.base_levels, alpha, policy.scale_erased)
        v_acc += period * expected_cycle_increment(levels)
        cycle += period


def lifetime_csv_rows(result: LifetimeResult):
    """Rows for the trajectory CSV: header then one row per checkpoint."""
    yield "cycle,alpha,capacity_bits,v_acc"
    for cp in result.checkpoints:
        yield f"{cp.cycle},{cp.alpha:.6f},{cp.capacity_bits:.6f},{cp.v_acc:.6f}"
