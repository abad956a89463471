"""Voltage-allocation policy and lifetime-simulation tests.

The expensive fixed/dynamic end-to-end runs live in session fixtures
(conftest.py) and are shared with the acceptance suite.
"""

import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from flashlife import allocation, channel, infotheory
from flashlife.allocation import (
    PolicyConfig,
    capacity_at,
    expected_cycle_increment,
    find_alpha,
    lifetime_csv_rows,
    simulate_lifetime,
)
from flashlife.channel import WearState, default_device_params, level_noise_specs
from flashlife.infotheory import NumericalFailure, mutual_information


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


def _random_states(n, seed):
    """(v_acc, t, alpha, scale_erased) from fresh to past charge exhaustion."""
    rng = np.random.default_rng(seed)
    return [
        (
            float(rng.uniform(0.0, 20000.0)),
            float(rng.choice([0.0, 24.0, 8760.0, 87600.0]) * rng.uniform(0.5, 1.0)),
            float(rng.uniform(0.05, 1.0)),
            bool(rng.integers(2)),
        )
        for _ in range(n)
    ]


ARRAY_STATES = _random_states(24, seed=1301)


def same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


class TestArrayPath:
    """capacity_at and find_alpha's probes feed the MI one (3, L) array from
    the level moments; every number must be that of the public spec path."""

    @pytest.mark.parametrize("v_acc, t, alpha, scale_erased", ARRAY_STATES)
    def test_capacity_matches_spec_path(self, params, v_acc, t, alpha, scale_erased):
        state = WearState(v_acc, 1, alpha)
        specs = level_noise_specs(state, t, params, scale_erased)
        got = capacity_at(state, t, params, scale_erased)
        assert same_bits(got, mutual_information(specs).value)

    @pytest.mark.parametrize("v_acc, t, alpha, scale_erased", ARRAY_STATES)
    def test_probes_match_spec_path(self, params, monkeypatch, v_acc, t, alpha, scale_erased):
        probes = []
        levels_of, core = allocation._level_array, allocation._mutual_information

        def levels(*args):
            probes.append([args])
            return levels_of(*args)

        def recording(levels):
            est = core(levels)
            probes[-1].append(est)
            return est

        monkeypatch.setattr(allocation, "_level_array", levels)
        monkeypatch.setattr(allocation, "_mutual_information", recording)
        find_alpha(WearState(v_acc, 1, 1.0), t, 1.92, params, scale_erased, guess=alpha)
        for (a_v, a_t, a_alpha, _, a_se), est in probes:
            specs = level_noise_specs(WearState(a_v, 1, a_alpha), a_t, params, a_se)
            assert same_bits(est.value, mutual_information(specs).value)


# sha256 of the float.hex capacities, one per line, of the fixed policy's
# lifetime run and of its trajectories to 20000 cycles at three retention
# times; recorded before the MI took its level array straight from the
# moments, which left every bit as it was.
CAPACITY_DIGESTS = {
    "lifetime": "cb5f5710b7dcfd7afdbfff0710136f06d8228188507a24e82ade705af6ec29a3",
    24.0: "eb74c74cc789e745cd9eecaf82fd8256118f2afada8e69d38137858688751baf",
    8760.0: "284ced80732f8324cc8274798799d522fc26c3a0cd2dab843a12ebe5252c4350",
    87600.0: "20aa8a20c9820f2e21e4e8f15e20568307ea0c5e397ead6e1eb342894e52b939",
}


@pytest.mark.parametrize("run", list(CAPACITY_DIGESTS))
def test_capacity_digests(params, fixed_run, run):
    if run == "lifetime":
        result = fixed_run.result
    else:
        policy = PolicyConfig(mode="fixed", retention_time=run, max_cycles=20000)
        result = simulate_lifetime(params, policy, stop_below_threshold=False)
    caps = "\n".join(cp.capacity_bits.hex() for cp in result.checkpoints)
    assert hashlib.sha256(caps.encode()).hexdigest() == CAPACITY_DIGESTS[run]


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

    @staticmethod
    def record_probes(monkeypatch):
        """Record the alpha of every MI that find_alpha takes."""
        probes = []
        levels_of = allocation._level_array

        def levels(v_acc, t, alpha, *args):
            probes.append(alpha)
            return levels_of(v_acc, t, alpha, *args)

        monkeypatch.setattr(allocation, "_level_array", levels)
        return probes

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_guess_at_root_takes_one_pair(self, params, monkeypatch, side):
        # a guess half of ALPHA_TOL below or above the root: the second MI
        # goes 0.9 ALPHA_TOL from it toward the target, across the root
        ref = bisect_alpha(3000.0, 8760.0, 1.92, params, 1e-9, allocation.ALPHA_MIN)
        tol = allocation.ALPHA_TOL
        guess = ref + side * 0.5 * tol
        probes = self.record_probes(monkeypatch)
        sol = find_alpha(WearState(3000.0, 1, 1.0), 8760.0, 1.92, params, guess=guess)
        assert probes == [guess, guess - side * 0.9 * tol]
        assert sol.alpha == max(probes) and not sol.clamped

    def test_short_pair_continues_from_its_secant(self, params, monkeypatch):
        # a guess 1.5 ALPHA_TOL below the root: the opening pair lands below
        # the target, and the search goes on from the pair's secant without
        # evaluating alpha = 1
        ref = bisect_alpha(3000.0, 8760.0, 1.92, params, 1e-9, allocation.ALPHA_MIN)
        tol = allocation.ALPHA_TOL
        alphas = self.record_probes(monkeypatch)
        sol = find_alpha(
            WearState(3000.0, 1, 1.0), 8760.0, 1.92, params, guess=ref - 1.5 * tol
        )
        assert max(alphas[:2]) < ref
        assert 1.0 not in alphas and len(alphas) == 3
        assert 0.0 <= sol.alpha - ref <= tol and not sol.clamped

    def test_narrow_interval_ends_at_the_lower_end(self, params, monkeypatch):
        # a guess above the root and less than ALPHA_TOL above bracket_lo:
        # the second MI goes to bracket_lo itself, never below it
        ref = bisect_alpha(3000.0, 8760.0, 1.92, params, 1e-9, allocation.ALPHA_MIN)
        tol = allocation.ALPHA_TOL
        lo, guess = ref - 0.3 * tol, ref + 0.3 * tol
        probes = self.record_probes(monkeypatch)
        sol = find_alpha(
            WearState(3000.0, 1, 1.0), 8760.0, 1.92, params, bracket_lo=lo, guess=guess
        )
        assert probes == [guess, lo]
        assert sol.alpha == guess and lo <= sol.root <= guess and not sol.clamped

    @pytest.mark.parametrize("guess", [math.nan, math.inf])
    def test_rejects_non_finite_guess(self, params, guess):
        with pytest.raises(ValueError, match="guess must be finite"):
            find_alpha(WearState(0.0, 0, 1.0), 8760.0, 1.92, params, guess=guess)

    @pytest.mark.parametrize("bracket_lo", [math.nan, math.inf])
    def test_rejects_non_finite_bracket_lo(self, params, bracket_lo):
        # an argument, not a state the float range cannot hold
        with pytest.raises(ValueError, match="bracket_lo must be finite"):
            find_alpha(WearState(0.0, 0, 1.0), 8760.0, 1.92, params, bracket_lo=bracket_lo)

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
        per_solve = []
        mi, solve = allocation._mutual_information, allocation.find_alpha

        def counting_mi(*args):
            per_solve[-1] += 1
            return mi(*args)

        def counting_solve(*args, **kwargs):
            per_solve.append(0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(allocation, "_mutual_information", counting_mi)
        monkeypatch.setattr(allocation, "find_alpha", counting_solve)
        res = simulate_lifetime(params, PolicyConfig(mode="dynamic"))
        assert res.lifetime_cycles == 5500
        assert len(per_solve) == len(res.checkpoints)
        # every solve opens with a pair of MIs 0.9 ALPHA_TOL apart
        assert sum(per_solve) <= 119
        # the unseeded first solve, then the two seeded from one and two
        # spans, whose pairs do not straddle the root
        assert per_solve[:3] == [5, 4, 4]
        assert max(per_solve[3:]) <= 2

    def test_one_level_check_per_mi(self, params, monkeypatch):
        # the gate checks each wear state's level array, alone or as a row
        # of a block of states, and the MI takes it without checking it
        # again: as many checks as MIs, and every MI input is exactly one
        # checked array. The checked arrays stay alive here, so their
        # addresses tell them apart.
        checks, mis = [], []
        check, core = channel._check_levels, allocation._mutual_information

        def counting_check(levels):
            checks.append(levels)
            return check(levels)

        def counting_mi(levels, *args):
            mis.append(levels)
            return core(levels, *args)

        def place(a):
            return a.__array_interface__["data"][0], a.shape, a.strides

        monkeypatch.setattr(channel, "_check_levels", counting_check)
        monkeypatch.setattr(infotheory, "_check_levels", counting_check)
        monkeypatch.setattr(allocation, "_mutual_information", counting_mi)
        for mode, count in (("fixed", 32), ("dynamic", 119)):
            simulate_lifetime(params, PolicyConfig(mode=mode))
            assert len(checks) == len(mis) == count
            checked = Counter(map(place, checks))
            assert [checked[place(m)] for m in mis] == [1] * count
            checks.clear()
            mis.clear()


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


REFUSED = "^the noise moments leave the float range$"


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

    @pytest.mark.parametrize("scale_erased", [True, False])
    def test_fixed_blocks_match_single_states(self, params, scale_erased):
        # 35 checkpoints, two blocks, the last one past max_cycles: each
        # capacity is capacity_at's at its state, bit for bit
        policy = PolicyConfig(
            mode="fixed", adjust_period=70, max_cycles=2345, scale_erased=scale_erased
        )
        res = simulate_lifetime(params, policy, stop_below_threshold=False)
        levels = channel.scaled_levels(params.base_levels, 1.0, scale_erased)
        v_acc, step = 0.0, 70 * expected_cycle_increment(levels)
        assert [cp.cycle for cp in res.checkpoints] == list(range(0, 2381, 70))
        for cp in res.checkpoints:
            assert same_bits(cp.v_acc, v_acc)
            state = WearState(v_acc, cp.cycle, 1.0)
            single = capacity_at(state, 8760.0, params, scale_erased)
            assert same_bits(cp.capacity_bits, single)
            v_acc += step

    def test_stops_before_a_refused_state(self, params, monkeypatch):
        # bracket**2 overflows the float range at cycle 1000, in the block
        # that holds the run's crossing at cycle 100: the run that stops
        # there returns, and the one that goes on raises at cycle 1000,
        # after its ten MIs, as the per-state path does
        device = replace(params, a_r=5.5e152, a_w=5.5e150)
        policy = PolicyConfig(
            mode="fixed", retention_time=1.0, capacity_threshold=1.999, target_mi=1.9995
        )
        res = simulate_lifetime(device, policy)
        assert (res.lifetime_cycles, res.terminated_by) == (0, "capacity_threshold")
        for cp in res.checkpoints:
            state = WearState(cp.v_acc, cp.cycle, 1.0)
            assert same_bits(cp.capacity_bits, capacity_at(state, 1.0, device))
        assert [cp.cycle for cp in res.checkpoints] == [0, 100]
        v_acc = 10 * 100 * expected_cycle_increment(params.base_levels)
        with pytest.raises(NumericalFailure, match=REFUSED):
            capacity_at(WearState(v_acc, 1000, 1.0), 1.0, device)
        mis, core = [], allocation._mutual_information
        monkeypatch.setattr(
            allocation, "_mutual_information", lambda *a: mis.append(1) or core(*a)
        )
        with pytest.raises(NumericalFailure, match=REFUSED):
            simulate_lifetime(device, policy, stop_below_threshold=False)
        assert len(mis) == 10

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
