"""Voltage-allocation policy and lifetime-simulation tests.

The expensive fixed/dynamic end-to-end runs live in session fixtures
(conftest.py) and are shared with the acceptance suite.
"""

import math

import pytest

from flashlife import allocation
from flashlife.allocation import (
    PolicyConfig,
    capacity_at,
    expected_cycle_increment,
    find_alpha,
    lifetime_csv_rows,
    simulate_lifetime,
)
from flashlife.channel import WearState, default_device_params


class TestExpectedCycleIncrement:
    def test_default_levels(self, params):
        # (0 + 2.4 + 3.6 + 5.06) / 4
        assert expected_cycle_increment(params.base_levels) == pytest.approx(2.765)

    def test_scales_linearly_with_alpha(self, params):
        base = expected_cycle_increment(params.base_levels)
        scaled = expected_cycle_increment([0.5 * x for x in params.base_levels])
        assert scaled == pytest.approx(0.5 * base)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            expected_cycle_increment([1.0, 1.0, 2.0])


class TestCapacityAt:
    def test_fresh_device_near_two_bits(self, params):
        cap = capacity_at(WearState(0.0, 0, 1.0), 0.0, params)
        assert cap == pytest.approx(2.0, abs=0.02)

    def test_worn_anchor(self, params):
        cap = capacity_at(WearState(8295.0, 3000, 1.0), 8760.0, params)
        assert cap == pytest.approx(1.902, abs=2e-3)

    def test_monotone_in_alpha(self, params):
        state = WearState(8295.0, 3000, 1.0)
        caps = [
            capacity_at(WearState(8295.0, 3000, a), 8760.0, params)
            for a in (0.1, 0.3, 0.6, 1.0)
        ]
        assert all(b > a for a, b in zip(caps, caps[1:]))
        assert state.alpha == 1.0


class TestFindAlpha:
    def test_fresh_device_anchor(self, params):
        sol = find_alpha(WearState(0.0, 0, 1.0), 8760.0, 1.92, params)
        assert sol.alpha == pytest.approx(0.284, abs=0.002)
        assert not sol.clamped
        assert sol.capacity_bits == pytest.approx(1.92, abs=0.002)

    def test_solution_meets_target(self, params):
        sol = find_alpha(WearState(0.0, 0, 1.0), 8760.0, 1.92, params)
        assert sol.capacity_bits >= 1.92
        # just below the solution the target is missed
        below = capacity_at(
            WearState(0.0, 0, sol.alpha - 2e-3), 8760.0, params
        )
        assert below < 1.92

    def test_clamps_high_when_unreachable(self, params):
        sol = find_alpha(WearState(30000.0, 10000, 1.0), 8760.0, 1.92, params)
        assert sol.alpha == 1.0
        assert sol.clamped
        assert sol.capacity_bits < 1.92

    def test_clamps_low_when_trivial(self, params, monkeypatch):
        monkeypatch.setattr(allocation, "ALPHA_MIN", 0.5)
        sol = find_alpha(WearState(0.0, 0, 1.0), 0.0, 1.92, params)
        assert sol.alpha == 0.5
        assert sol.clamped
        assert sol.capacity_bits >= 1.92

    def test_bracket_warm_start_matches_cold(self, params):
        state = WearState(2000.0, 1000, 1.0)
        cold = find_alpha(state, 8760.0, 1.92, params)
        warm = find_alpha(state, 8760.0, 1.92, params, bracket_lo=0.28)
        assert warm.alpha == pytest.approx(cold.alpha, abs=2e-4)

    def test_alpha_nondecreasing_in_wear(self, params):
        alphas = [
            find_alpha(
                WearState(v, 0 if v == 0 else 1, 1.0), 8760.0, 1.92, params
            ).alpha
            for v in (0.0, 3000.0, 8000.0, 12000.0)
        ]
        assert all(b >= a - 1e-4 for a, b in zip(alphas, alphas[1:]))


def bisect_alpha(v_acc, t, target, params, tol, lo):
    """Reference solver: plain bisection for the smallest alpha in [lo, 1]
    whose capacity meets the target, assuming capacity(lo) < target <=
    capacity(1). Returns the upper end of the final bracket."""
    hi = 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if capacity_at(WearState(v_acc, 0 if v_acc == 0 else 1, mid), t, params) >= target:
            hi = mid
        else:
            lo = mid
    return hi


# Seeds for find_alpha's guess, from the bisection root and the lower end
# of the search.
GUESSES = {
    "none": lambda ref, lo: None,
    "root": lambda ref, lo: ref,
    "below_lo": lambda ref, lo: lo - 0.1,
    "above_one": lambda ref, lo: 1.5,
    "root_plus_0.05": lambda ref, lo: ref + 0.05,
    "root_minus_0.05": lambda ref, lo: ref - 0.05,
}


# Targets sit below the full-swing capacity, so every solve is interior.
# A case without a guess keeps its id, warm-v_acc-target.
BISECTION_CASES = [
    pytest.param(
        v_acc, target, warm, guess,
        id=f"{warm}-{v_acc}-{target}" + ("" if guess == "none" else f"-{guess}"),
    )
    for warm in (False, True)
    for v_acc, target in [(0.0, 1.92), (3000.0, 1.92), (8000.0, 1.9), (12000.0, 1.5)]
    for guess in GUESSES
]


class TestFindAlphaOracle:
    @pytest.mark.parametrize("v_acc, target, warm, guess", BISECTION_CASES)
    def test_matches_bisection(self, params, v_acc, target, warm, guess):
        tol = allocation.ALPHA_TOL
        ref = bisect_alpha(v_acc, 8760.0, target, params, tol, allocation.ALPHA_MIN)
        state = WearState(v_acc, 0 if v_acc == 0 else 1, 1.0)
        lo = 0.9 * ref if warm else None
        sol = find_alpha(
            state, 8760.0, target, params, bracket_lo=lo,
            guess=GUESSES[guess](ref, allocation.ALPHA_MIN if lo is None else lo),
        )
        assert not sol.clamped
        assert abs(sol.alpha - ref) <= tol
        assert sol.alpha - tol <= sol.root <= sol.alpha
        met = capacity_at(WearState(v_acc, state.cycles, sol.alpha), 8760.0, params)
        assert met == sol.capacity_bits >= target
        below = capacity_at(WearState(v_acc, state.cycles, sol.alpha - tol), 8760.0, params)
        assert below < target

    def test_guess_at_root_takes_one_pair(self, params, monkeypatch):
        ref = bisect_alpha(3000.0, 8760.0, 1.92, params, 1e-9, allocation.ALPHA_MIN)
        probes = []
        orig = allocation.capacity_at

        def counting(state, *args, **kwargs):
            probes.append(state.alpha)
            return orig(state, *args, **kwargs)

        monkeypatch.setattr(allocation, "capacity_at", counting)
        sol = find_alpha(WearState(3000.0, 1, 1.0), 8760.0, 1.92, params, guess=ref)
        assert len(probes) == 2 and 1.0 not in probes
        assert probes[1] - probes[0] == pytest.approx(0.9 * allocation.ALPHA_TOL)
        assert sol.alpha == probes[1] and not sol.clamped

    def test_solution_built_without_root(self):
        # root is optional, so code that builds a solution without it runs
        sol = allocation.AlphaSolution(alpha=0.5, clamped=False, capacity_bits=1.92)
        assert math.isnan(sol.root)

    @pytest.mark.parametrize("guess", [math.nan, math.inf])
    def test_rejects_non_finite_guess(self, params, guess):
        with pytest.raises(ValueError, match="guess must be finite"):
            find_alpha(WearState(0.0, 0, 1.0), 8760.0, 1.92, params, guess=guess)

    @pytest.mark.parametrize("guess", [None, 0.3, 0.7, 1.5])
    def test_clamps_with_guess(self, params, monkeypatch, guess):
        high = find_alpha(WearState(30000.0, 1, 1.0), 8760.0, 1.92, params, guess=guess)
        assert (high.alpha, high.clamped, high.root) == (1.0, True, 1.0)
        assert high.capacity_bits < 1.92
        monkeypatch.setattr(allocation, "ALPHA_MIN", 0.5)
        low = find_alpha(WearState(0.0, 0, 1.0), 0.0, 1.92, params, guess=guess)
        assert (low.alpha, low.clamped, low.root) == (0.5, True, 0.5)
        assert low.capacity_bits >= 1.92

    def test_mi_evaluations_per_solve(self, params, monkeypatch):
        counts = {"mi": 0, "solves": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            allocation, "mutual_information", counting(allocation.mutual_information, "mi")
        )
        monkeypatch.setattr(
            allocation, "find_alpha", counting(allocation.find_alpha, "solves")
        )
        res = simulate_lifetime(params, PolicyConfig(mode="dynamic"))
        assert res.lifetime_cycles == 5500
        assert counts["solves"] == len(res.checkpoints)
        # 4.89 per solve with a bracket from alpha = 1 at every checkpoint
        assert counts["mi"] / counts["solves"] < 4


class TestPolicyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(mode="slow")
        with pytest.raises(ValueError):
            PolicyConfig(target_mi=1.8, capacity_threshold=1.9)
        with pytest.raises(ValueError):
            PolicyConfig(adjust_period=0)
        with pytest.raises(ValueError, match="retention_time"):
            PolicyConfig(retention_time=-5.0)

    @pytest.mark.parametrize(
        "name",
        ["target_mi", "capacity_threshold", "adjust_period", "retention_time",
         "max_cycles"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PolicyConfig(**{name: value})


class TestFixedLifetime:
    def test_lifetime_anchor(self, fixed_run):
        assert fixed_run.result.lifetime_cycles == 3000

    def test_runtime_budget(self, fixed_run):
        assert fixed_run.seconds < 120

    def test_alpha_stays_one(self, fixed_run):
        assert all(cp.alpha == 1.0 for cp in fixed_run.result.checkpoints)

    def test_capacity_monotone_decreasing(self, fixed_run):
        caps = [cp.capacity_bits for cp in fixed_run.result.checkpoints]
        assert all(b < a for a, b in zip(caps, caps[1:]))

    def test_terminated_by_threshold(self, fixed_run):
        assert fixed_run.result.terminated_by == "capacity_threshold"

    def test_wear_accumulates_at_full_rate(self, fixed_run, params):
        inc = expected_cycle_increment(params.base_levels)
        for cp in fixed_run.result.checkpoints:
            assert cp.v_acc == pytest.approx(cp.cycle * inc, rel=1e-12)


class TestDynamicLifetime:
    def test_lifetime_anchor(self, dynamic_run):
        assert abs(dynamic_run.result.lifetime_cycles - 5400) <= 800

    def test_runtime_budget(self, dynamic_run):
        assert dynamic_run.seconds < 300

    def test_improvement_over_fixed(self, fixed_run, dynamic_run):
        fixed = fixed_run.result.lifetime_cycles
        dyn = dynamic_run.result.lifetime_cycles
        assert (dyn - fixed) / fixed >= 0.60

    def test_alpha_staircase(self, dynamic_run):
        alphas = [cp.alpha for cp in dynamic_run.result.checkpoints]
        assert alphas[0] == pytest.approx(0.284, abs=0.005)
        assert all(b >= a - 1e-4 for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] == 1.0

    def test_capacity_held_at_target(self, dynamic_run):
        held = [
            cp for cp in dynamic_run.result.checkpoints if cp.alpha < 1.0
        ]
        assert held, "expected unclamped checkpoints"
        for cp in held:
            assert cp.capacity_bits == pytest.approx(1.92, abs=1e-3)

    def test_wear_grows_slower_than_fixed(self, fixed_run, dynamic_run, params):
        inc = expected_cycle_increment(params.base_levels)
        by_cycle = {cp.cycle: cp for cp in dynamic_run.result.checkpoints}
        cp = by_cycle[3000]
        assert cp.v_acc < 3000 * inc


class TestSimulateLifetimeEdges:
    def test_max_cycles_termination(self, params):
        policy = PolicyConfig(mode="dynamic", max_cycles=200)
        res = simulate_lifetime(params, policy)
        assert res.terminated_by == "max_cycles"
        assert res.lifetime_cycles <= 200

    def test_zero_max_cycles(self, params):
        policy = PolicyConfig(mode="fixed", max_cycles=0)
        res = simulate_lifetime(params, policy)
        assert res.lifetime_cycles == 0
        assert [cp.cycle for cp in res.checkpoints] == [0]

    def test_no_stop_keeps_going(self, params):
        policy = PolicyConfig(mode="fixed", max_cycles=3500)
        res = simulate_lifetime(params, policy, stop_below_threshold=False)
        assert res.checkpoints[-1].cycle == 3500
        assert res.checkpoints[-1].capacity_bits < 1.9
        assert res.lifetime_cycles == 3000

    def test_lifetime_is_first_crossing(self, params):
        # at 10 years the fixed-alpha capacity falls below 1 bit at cycle
        # 3800 and climbs back above it once the drift passes charge
        # exhaustion; the recovery must not extend the lifetime
        policy = PolicyConfig(mode="fixed", retention_time=87600.0, capacity_threshold=1.0)
        stopped = simulate_lifetime(params, policy)
        full = simulate_lifetime(params, policy, stop_below_threshold=False)
        assert full.checkpoints[-1].capacity_bits > 1.0
        assert stopped.lifetime_cycles == full.lifetime_cycles == 3700


class TestCsvRows:
    def test_header_and_shape(self, fixed_run):
        rows = list(lifetime_csv_rows(fixed_run.result))
        assert rows[0] == "cycle,alpha,capacity_bits,v_acc"
        assert len(rows) == len(fixed_run.result.checkpoints) + 1
        first = rows[1].split(",")
        assert int(first[0]) == fixed_run.result.checkpoints[0].cycle
        assert float(first[2]) == pytest.approx(
            fixed_run.result.checkpoints[0].capacity_bits
        )
