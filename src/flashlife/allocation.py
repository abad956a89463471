"""Dynamic voltage-allocation policy.

Wear grows with every P/E cycle in proportion to the written voltage, so a
device that starts life with full-swing levels wastes margin early and
dies sooner. The dynamic policy instead re-solves, every adjustment
period, for the smallest scale factor alpha whose capacity at the target
retention time meets the MI target, and only accumulates that much
voltage. Lifetime is the last checkpoint at which capacity still clears
the code-rate-plus-margin threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .channel import DeviceParams, WearState, level_noise_specs, scaled_levels
from .infotheory import QuadratureConfig, mutual_information

__all__ = [
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

# Floor of log2 L - capacity, which rounding can make zero or negative.
_TINY = 1e-300


@dataclass(frozen=True)
class PolicyConfig:
    mode: str = "dynamic"  # "fixed" or "dynamic"
    target_mi: float = 1.92  # bits
    capacity_threshold: float = 1.9  # bits
    adjust_period: int = 100  # P/E cycles between alpha updates
    retention_time: float = 8760.0  # hours; capacity is evaluated here
    alpha_min: float = 0.05
    alpha_tol: float = 1e-4
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
        if not 0 < self.alpha_min < 1:
            raise ValueError("alpha_min must be in (0, 1)")
        if self.adjust_period < 1:
            raise ValueError("adjust_period must be at least 1")
        if self.retention_time < 0:
            raise ValueError("retention_time must be nonnegative")
        if self.alpha_tol <= 0:
            raise ValueError("alpha_tol must be positive")
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
    cfg: QuadratureConfig = QuadratureConfig(),
    scale_erased: bool = True,
) -> float:
    """Instantaneous storage capacity (bits) at a wear state and retention
    time."""
    specs = level_noise_specs(state, t, params, scale_erased)
    return mutual_information(specs, cfg).value


def find_alpha(
    state: WearState,
    t: float,
    target_mi: float,
    params: DeviceParams,
    policy: PolicyConfig = PolicyConfig(),
    cfg: QuadratureConfig = QuadratureConfig(),
    bracket_lo: float | None = None,
) -> AlphaSolution:
    """Smallest scale factor meeting the MI target at this wear state.

    Capacity rises smoothly and monotonically with alpha, so the solver
    keeps a bracket lo < hi with capacity(lo) < target <= capacity(hi) and
    returns hi once hi - lo <= alpha_tol. Each step is a secant step
    through the two latest points on log(log2 L - capacity), which is
    close to linear in alpha. A step that leaves the bracket, or that is
    not shorter than half the step before the last one, is replaced by
    bisection (the safeguard of Brent's method), and every step lands at
    least alpha_tol/2 inside the bracket.

    If even alpha=1 falls short the result clamps to 1; if the lower end
    already meets the target it is returned, clamped when it is
    alpha_min. bracket_lo warm-starts the search from below: the target
    alpha never decreases as wear grows, so the policy loop passes the
    previous solution here.
    """

    def mi(a: float) -> float:
        return capacity_at(replace(state, alpha=a), t, params, cfg, policy.scale_erased)

    ceiling = math.log2(params.num_levels)

    def log_gap(m: float) -> float:
        return math.log(max(ceiling - m, _TINY))

    lo = policy.alpha_min if bracket_lo is None else max(bracket_lo, policy.alpha_min)
    hi = 1.0
    mi_hi = mi(hi)
    if mi_hi < target_mi:
        return AlphaSolution(alpha=1.0, clamped=True, capacity_bits=mi_hi)
    mi_lo = mi(lo)
    if mi_lo >= target_mi:
        return AlphaSolution(
            alpha=lo, clamped=(lo == policy.alpha_min), capacity_bits=mi_lo
        )
    goal = log_gap(target_mi)
    half_tol = 0.5 * policy.alpha_tol
    (x0, g0), (x1, g1) = (hi, log_gap(mi_hi) - goal), (lo, log_gap(mi_lo) - goal)
    step = step_before = hi - lo
    while hi - lo > policy.alpha_tol:
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else math.nan
        if not lo < x < hi or abs(x - x1) > 0.5 * step_before:
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + half_tol), hi - half_tol)
        mi_x = mi(x)
        if mi_x >= target_mi:
            hi, mi_hi = x, mi_x
        else:
            lo = x
        step_before, step = step, abs(x - x1)
        (x0, g0), (x1, g1) = (x1, g1), (x, log_gap(mi_x) - goal)
    return AlphaSolution(alpha=hi, clamped=False, capacity_bits=mi_hi)


def simulate_lifetime(
    params: DeviceParams,
    policy: PolicyConfig = PolicyConfig(),
    cfg: QuadratureConfig = QuadratureConfig(),
    stop_below_threshold: bool = True,
) -> LifetimeResult:
    """Run the voltage-allocation policy until capacity drops below the
    threshold (or max_cycles is hit).

    At every block boundary (cycle 0, adjust_period, 2*adjust_period, ...)
    the policy re-solves alpha for the wear state at that boundary (fixed
    mode keeps alpha=1) and records a capacity checkpoint with that fresh
    alpha; the block's writes then accumulate the expected per-cycle
    voltage at that alpha. With stop_below_threshold off, the trajectory
    continues to max_cycles regardless of capacity (used for capacity
    sweeps).
    """
    t = policy.retention_time
    period = policy.adjust_period
    checkpoints: list[Checkpoint] = []
    v_acc = 0.0
    cycle = 0
    alpha = 1.0
    terminated_by = "max_cycles"

    while True:
        state = WearState(v_acc=v_acc, cycles=cycle, alpha=alpha)
        if policy.mode == "fixed":
            cap = capacity_at(state, t, params, cfg, policy.scale_erased)
        else:
            sol = find_alpha(
                state, t, policy.target_mi, params, policy, cfg,
                bracket_lo=alpha if cycle > 0 else None,
            )
            alpha, cap = sol.alpha, sol.capacity_bits
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
        if cp.capacity_bits >= policy.capacity_threshold:
            lifetime = cp.cycle
        elif stop_below_threshold:
            break
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
