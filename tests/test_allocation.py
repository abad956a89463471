"""Voltage-allocation policy and lifetime-simulation tests.

The expensive fixed/dynamic end-to-end runs live in session fixtures
(conftest.py) and are shared with the acceptance suite.
"""

import math
import os
import pathlib
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import flashlife
from flashlife import allocation, channel, infotheory
from flashlife.allocation import (
    PolicyConfig,
    capacity_at,
    expected_cycle_increment,
    find_alpha,
    simulate_lifetime,
)
from flashlife.channel import WearState, default_device_params, level_noise_spec
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
        with pytest.raises(ValueError, match="strictly increasing"):
            expected_cycle_increment([1.0, 1.0, 2.0])

    @pytest.mark.parametrize(
        "levels",
        [[], [math.nan, 1.0], [1.0, math.nan], [1.0, math.inf], [-math.inf, 1.0],
         [1.0, math.inf, 2.0]],
        ids=["empty", "nan-first", "nan-last", "inf", "minus-inf", "inf-inside"],
    )
    def test_rejects_empty_and_non_finite(self, levels):
        with pytest.raises(ValueError, match="strictly increasing"):
            expected_cycle_increment(levels)


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
        specs = [level_noise_spec(k, state, t, params, scale_erased) for k in range(4)]
        got = capacity_at(state, t, params, scale_erased)
        assert same_bits(got, mutual_information(specs).value)

    @pytest.mark.parametrize("v_acc, t, alpha, scale_erased", ARRAY_STATES)
    def test_probes_match_spec_path(self, params, monkeypatch, v_acc, t, alpha, scale_erased):
        probes = []
        levels_of, core = infotheory._level_array, infotheory._mutual_information

        def levels(*args):
            probes.append([args])
            return levels_of(*args)

        def recording(levels):
            est = core(levels)
            probes[-1].append(est)
            return est

        monkeypatch.setattr(infotheory, "_level_array", levels)
        monkeypatch.setattr(infotheory, "_mutual_information", recording)
        find_alpha(v_acc, t, 1.92, params, scale_erased, guess=alpha)
        monkeypatch.undo()  # the spec path below runs the same core
        for (a_v, a_t, a_alpha, _, a_se), est in probes:
            state = WearState(a_v, 1, a_alpha)
            specs = [level_noise_spec(k, state, a_t, params, a_se) for k in range(4)]
            assert same_bits(est, mutual_information(specs).value)


# sha256 of the float.hex capacities, one per line, of the fixed policy's
# lifetime run and of its trajectories to 20000 cycles at three retention
# times, computed with numpy's AVX-512 loops disabled (NO_AVX512): its
# float64 exp, log and log1p round otherwise there, and not every host
# has them. Recorded on x86-64 with numpy 2.4.6, whose wheels then run
# their AVX2 (X86_V3) loops.
CAPACITY_DIGESTS = {
    "lifetime": "3927892179c781adeff65bca6a419fc4b762278757b23e1b1f88b73a463c4668",
    24.0: "254d1b31ebef258e9791e760df96eba6d4c94142fdda1ee6ec82a6cf8d672e3b",
    8760.0: "e60fc16dcaef226d55b9faa05460e56b9af23b4e4b9c09fbb6f1cc244be5bbb8",
    87600.0: "1f094998cc68776ad293a6a94f12b8762eff8ed999e150de2e923d310203abcf",
}

# Every AVX-512 target numpy dispatches on x86-64, for its runtime switch
# NPY_DISABLE_CPU_FEATURES; a name the build does not dispatch only warns.
NO_AVX512 = (
    "AVX512F AVX512CD AVX512_KNL AVX512_KNM AVX512_SKX AVX512_CLX AVX512_CNL "
    "AVX512_ICL AVX512_SPR X86_V4"
)

DIGEST_RUNS = """
import hashlib, sys
from flashlife.allocation import PolicyConfig, simulate_lifetime
from flashlife.channel import default_device_params

params = default_device_params()
for run in sys.argv[1:]:
    if run == "lifetime":
        result = simulate_lifetime(params, PolicyConfig(mode="fixed"))
    else:
        policy = PolicyConfig(mode="fixed", retention_time=float(run), max_cycles=20000)
        result = simulate_lifetime(params, policy, stop_below_threshold=False)
    caps = "\\n".join(cp.capacity_bits.hex() for cp in result.checkpoints)
    print(run, hashlib.sha256(caps.encode()).hexdigest())
"""


@pytest.fixture(scope="module")
def capacity_digests():
    """The digest of each run of CAPACITY_DIGESTS, by str(run), from a child
    interpreter that imports the same flashlife with NO_AVX512 disabled."""
    src = str(pathlib.Path(flashlife.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": NO_AVX512}
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_RUNS, *map(str, CAPACITY_DIGESTS)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


@pytest.mark.parametrize("run", list(CAPACITY_DIGESTS))
def test_capacity_digests(capacity_digests, run):
    assert capacity_digests[str(run)] == CAPACITY_DIGESTS[run]


class TestFindAlpha:
    def test_fresh_device_anchor(self, params):
        sol = find_alpha(0.0, 8760.0, 1.92, params)
        assert sol.alpha == pytest.approx(0.284, abs=0.002)
        assert not sol.clamped
        assert sol.capacity_bits == pytest.approx(1.92, abs=0.002)

    def test_solution_meets_target(self, params):
        sol = find_alpha(0.0, 8760.0, 1.92, params)
        assert sol.capacity_bits >= 1.92
        # just below the solution the target is missed
        below = capacity_at(
            WearState(0.0, 0, sol.alpha - 2e-3), 8760.0, params
        )
        assert below < 1.92

    def test_clamps_high_when_unreachable(self, params):
        sol = find_alpha(30000.0, 8760.0, 1.92, params)
        assert sol.alpha == 1.0
        assert sol.clamped
        assert sol.capacity_bits < 1.92

    def test_clamps_low_when_trivial(self, params, monkeypatch):
        monkeypatch.setattr(allocation, "ALPHA_MIN", 0.5)
        sol = find_alpha(0.0, 0.0, 1.92, params)
        assert sol.alpha == 0.5
        assert sol.clamped
        assert sol.capacity_bits >= 1.92

    def test_bracket_warm_start_matches_cold(self, params):
        cold = find_alpha(2000.0, 8760.0, 1.92, params)
        warm = find_alpha(2000.0, 8760.0, 1.92, params, bracket_lo=0.28)
        assert warm.alpha == pytest.approx(cold.alpha, abs=2e-4)

    def test_alpha_nondecreasing_in_wear(self, params):
        alphas = [
            find_alpha(v, 8760.0, 1.92, params).alpha
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


def record_solves(monkeypatch):
    """The (args, kwargs, solution) of every find_alpha call the policy
    makes from here on."""
    calls, solve = [], allocation.find_alpha

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        calls.append((args, kwargs, sol))
        return sol

    monkeypatch.setattr(allocation, "find_alpha", recording)
    return calls


def check_passed_slopes(calls) -> int:
    """Check that each recorded solve got the slope of the latest solve
    that bracketed its root times its keep over that solve's keep, and
    None where either keep is not positive; return how many got one."""
    latest, passed = None, 0
    for args, kwargs, sol in calls:
        keep = channel._keep(*args[:2], args[3])
        want = latest[0] * (keep / latest[1]) if latest and keep > 0.0 else None
        assert kwargs["slope"] == want
        passed += want is not None
        if sol.slope is not None:
            latest = (sol.slope, keep) if keep > 0.0 else None
    return passed


class TestFindAlphaOracle:
    @pytest.mark.parametrize("v_acc, target, warm, guess", BISECTION_CASES)
    def test_matches_bisection(self, params, v_acc, target, warm, guess):
        tol = allocation.ALPHA_TOL
        ref = bisect_alpha(v_acc, 8760.0, target, params, tol, allocation.ALPHA_MIN)
        state = WearState(v_acc, 0 if v_acc == 0 else 1, 1.0)
        lo = 0.9 * ref if warm else None
        sol = find_alpha(
            v_acc, 8760.0, target, params, bracket_lo=lo,
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
        levels_of = infotheory._level_array

        def levels(v_acc, t, alpha, *args):
            probes.append(alpha)
            return levels_of(v_acc, t, alpha, *args)

        monkeypatch.setattr(infotheory, "_level_array", levels)
        return probes

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_guess_at_root_takes_one_pair(self, params, monkeypatch, side):
        # a guess half of ALPHA_TOL below or above the root: the second MI
        # goes 0.9 ALPHA_TOL from it toward the target, across the root
        ref = bisect_alpha(3000.0, 8760.0, 1.92, params, 1e-9, allocation.ALPHA_MIN)
        tol = allocation.ALPHA_TOL
        guess = ref + side * 0.5 * tol
        probes = self.record_probes(monkeypatch)
        sol = find_alpha(3000.0, 8760.0, 1.92, params, guess=guess)
        assert probes == [guess, guess - side * 0.9 * tol]
        assert sol.alpha == max(probes) and not sol.clamped

    def test_short_pair_continues_from_its_secant(self, params, monkeypatch):
        # a guess 1.5 ALPHA_TOL below the root: the opening pair lands below
        # the target, and the search goes on from the pair's secant without
        # evaluating alpha = 1
        ref = bisect_alpha(3000.0, 8760.0, 1.92, params, 1e-9, allocation.ALPHA_MIN)
        tol = allocation.ALPHA_TOL
        alphas = self.record_probes(monkeypatch)
        sol = find_alpha(3000.0, 8760.0, 1.92, params, guess=ref - 1.5 * tol)
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
        sol = find_alpha(3000.0, 8760.0, 1.92, params, bracket_lo=lo, guess=guess)
        assert probes == [guess, lo]
        assert sol.alpha == guess and lo <= sol.root <= guess and not sol.clamped

    @pytest.mark.parametrize("guess", [math.nan, math.inf])
    def test_rejects_non_finite_guess(self, params, guess):
        with pytest.raises(ValueError, match="guess must be finite"):
            find_alpha(0.0, 8760.0, 1.92, params, guess=guess)

    @pytest.mark.parametrize("bracket_lo", [math.nan, math.inf])
    def test_rejects_non_finite_bracket_lo(self, params, bracket_lo):
        # an argument, not a state the float range cannot hold
        with pytest.raises(ValueError, match="bracket_lo must be finite"):
            find_alpha(0.0, 8760.0, 1.92, params, bracket_lo=bracket_lo)

    @pytest.mark.parametrize("target_mi", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, params, monkeypatch, target_mi):
        # refused before any MI: unchecked, a NaN target ends clamped at
        # alpha 1 after 16 MIs, and -inf at ALPHA_MIN after 14
        probes = self.record_probes(monkeypatch)
        with pytest.raises(ValueError, match="^target_mi must be finite$"):
            find_alpha(1000.0, 8760.0, target_mi, params)
        assert probes == []

    @pytest.mark.parametrize("v_acc", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_v_acc(self, params, v_acc):
        # the wear is an argument, refused as WearState refuses it
        with pytest.raises(ValueError, match="^v_acc must be finite and nonnegative$"):
            find_alpha(v_acc, 8760.0, 1.92, params)

    @pytest.mark.parametrize("guess", [None, 0.3, 0.7, 1.5])
    def test_clamps_with_guess(self, params, monkeypatch, guess):
        high = find_alpha(30000.0, 8760.0, 1.92, params, guess=guess)
        assert (high.alpha, high.clamped, high.root) == (1.0, True, 1.0)
        assert high.capacity_bits < 1.92
        monkeypatch.setattr(allocation, "ALPHA_MIN", 0.5)
        low = find_alpha(0.0, 0.0, 1.92, params, guess=guess)
        assert (low.alpha, low.clamped, low.root) == (0.5, True, 0.5)
        assert low.capacity_bits >= 1.92

    def test_slope_is_the_final_brackets_secant(self, params, monkeypatch):
        # the opening pair of test_guess_at_root_takes_one_pair brackets
        # the root; the slope is dg/dalpha across it, g as find_alpha's
        ref = bisect_alpha(3000.0, 8760.0, 1.92, params, 1e-9, allocation.ALPHA_MIN)
        probes = self.record_probes(monkeypatch)
        sol = find_alpha(3000.0, 8760.0, 1.92, params, guess=ref + 0.5 * allocation.ALPHA_TOL)
        assert sol.evaluations == len(probes) == 2

        def g(alpha):
            cap = capacity_at(WearState(3000.0, 1, alpha), 8760.0, params)
            return math.log(2.0 - cap) - math.log(2.0 - 1.92)

        a, b = sorted(probes)
        assert sol.slope == (g(b) - g(a)) / (b - a) < 0.0

    @staticmethod
    def recent_slope(params):
        """The root at v_acc = 3000 to 1e-9 and the slope of a bracket
        solved there."""
        ref = bisect_alpha(3000.0, 8760.0, 1.92, params, 1e-9, allocation.ALPHA_MIN)
        return ref, find_alpha(3000.0, 8760.0, 1.92, params, guess=ref).slope

    def test_slope_ends_the_solve_on_one_mi(self, params, monkeypatch):
        # a guess 0.2 ALPHA_TOL below the root: the first MI goes 0.4
        # ALPHA_TOL above the guess, meets the target, and the slope puts
        # the root 0.2 ALPHA_TOL below it, within 0.7 ALPHA_TOL
        ref, slope = self.recent_slope(params)
        tol = allocation.ALPHA_TOL
        guess = ref - 0.2 * tol
        probes = self.record_probes(monkeypatch)
        sol = find_alpha(3000.0, 8760.0, 1.92, params, guess=guess, slope=slope)
        assert probes == [guess + 0.4 * tol]
        assert (sol.alpha, sol.clamped, sol.slope, sol.evaluations) == (probes[0], False, None, 1)
        assert sol.capacity_bits >= 1.92
        assert 0.0 <= sol.alpha - ref <= tol
        # g is close to linear, so the slope's root is close to the root
        assert sol.root == pytest.approx(ref, abs=0.01 * tol)

    # the guess's distance from the root, in ALPHA_TOL: the first MI lands
    # below the target, or 0.85 ALPHA_TOL above the root, beyond 0.7
    @pytest.mark.parametrize("offset", [-0.6, 0.45], ids=["below", "far_above"])
    def test_slope_falls_back_without_losing_the_probe(self, params, monkeypatch, offset):
        # the first MI opens the search a slope-free solve opens there
        ref, slope = self.recent_slope(params)
        tol = allocation.ALPHA_TOL
        guess = ref + offset * tol
        probes = self.record_probes(monkeypatch)
        sol = find_alpha(3000.0, 8760.0, 1.92, params, guess=guess, slope=slope)
        seen = probes[:]
        probes.clear()
        assert sol == find_alpha(3000.0, 8760.0, 1.92, params, guess=guess + 0.4 * tol)
        assert seen == probes and len(probes) == sol.evaluations == 2
        assert 0.0 <= sol.alpha - ref <= tol and sol.slope < 0.0

    @pytest.mark.parametrize("bracket_lo", [None, 0.3])
    def test_slope_without_guess_is_ignored(self, params, bracket_lo):
        _, slope = self.recent_slope(params)
        got = find_alpha(3000.0, 8760.0, 1.92, params, bracket_lo=bracket_lo, slope=slope)
        assert got == find_alpha(3000.0, 8760.0, 1.92, params, bracket_lo=bracket_lo)

    @pytest.mark.parametrize(
        "slope, message",
        [(math.nan, "finite"), (-math.inf, "finite"), (0.0, "negative"), (3.0, "negative")],
    )
    def test_rejects_invalid_slope(self, params, slope, message):
        with pytest.raises(ValueError, match=f"^slope must be {message}$"):
            find_alpha(0.0, 8760.0, 1.92, params, guess=0.3, slope=slope)

    def test_policy_passes_only_a_recent_slope(self, params, monkeypatch):
        # each solve gets the slope of the latest solve that bracketed its
        # root, scaled by keep over that solve's keep; only a solve given
        # one ends on one MI
        calls = record_solves(monkeypatch)
        simulate_lifetime(params, PolicyConfig(mode="dynamic"))
        passed = check_passed_slopes(calls)
        for _, kwargs, sol in calls:
            assert sol.evaluations > 1 or kwargs["slope"] is not None or sol.clamped
        # every solve after the first bracket, all at keep > 0, gets a slope
        assert passed == len(calls) - 1

    @pytest.mark.parametrize("t", [8760.0, 87600.0])
    def test_policy_drops_the_slope_past_charge_exhaustion(self, params, monkeypatch, t):
        # a run continued to 20000 cycles passes the wear where retention
        # drains the whole programmed charge, keep <= 0: it completes, and
        # no solve there or after a bracket there gets a slope
        calls = record_solves(monkeypatch)
        policy = PolicyConfig(mode="dynamic", retention_time=t, max_cycles=20000)
        res = simulate_lifetime(params, policy, stop_below_threshold=False)
        assert res.checkpoints[-1].cycle == 20000
        assert any(not channel._keep(*args[:2], params) > 0.0 for args, _, _ in calls)
        assert check_passed_slopes(calls) > 0

    def test_mi_evaluations_per_solve(self, params, monkeypatch):
        per_solve = []
        mi, solve = infotheory._mutual_information, allocation.find_alpha

        def counting_mi(*args):
            per_solve[-1] += 1
            return mi(*args)

        def counting_solve(*args, **kwargs):
            per_solve.append(0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(infotheory, "_mutual_information", counting_mi)
        monkeypatch.setattr(allocation, "find_alpha", counting_solve)
        res = simulate_lifetime(params, PolicyConfig(mode="dynamic"))
        assert res.lifetime_cycles == 5500
        assert len(per_solve) == len(res.checkpoints)
        # a solve with the latest bracket's slope ends on its first MI when
        # the slope puts the root close enough below it, any other solve
        # with a seed opens with a pair of MIs 0.9 ALPHA_TOL apart: 69 MIs
        assert sum(per_solve) == res.mi_evaluations == 69
        assert per_solve == [cp.mi_evaluations for cp in res.checkpoints]
        # the unseeded first solve, then the two seeded from one and two
        # spans, whose pairs do not straddle the root
        assert per_solve[:3] == [5, 4, 4]
        assert max(per_solve[3:]) <= 2

    def test_one_level_check_per_mi(self, params, monkeypatch):
        # the gate checks each wear state's level array, alone or as a row
        # of a block of states, and the MI quadrature takes it without
        # checking it again: as many checks as MIs, and every quadrature's
        # levels are exactly one checked array. The checked arrays stay
        # alive here, so their addresses tell them apart.
        checks, mis = [], []
        check, quadrature = channel._check_levels, infotheory._quadrature

        def counting_check(levels):
            checks.append(levels)
            return check(levels)

        def counting_mi(levels, *args):
            mis.append(levels)
            return quadrature(levels, *args)

        def place(a):
            return a.__array_interface__["data"][0], a.shape, a.strides

        monkeypatch.setattr(channel, "_check_levels", counting_check)
        monkeypatch.setattr(infotheory, "_check_levels", counting_check)
        monkeypatch.setattr(infotheory, "_quadrature", counting_mi)
        for policy, stop, count in (
            (PolicyConfig(mode="fixed"), True, 32),
            (PolicyConfig(mode="dynamic"), True, 69),
            # 201 checkpoints in 7 blocks
            (PolicyConfig(mode="fixed", max_cycles=20000), False, 201),
        ):
            res = simulate_lifetime(params, policy, stop_below_threshold=stop)
            assert len(checks) == len(mis) == res.mi_evaluations == count
            if policy.mode == "fixed":
                assert {cp.mi_evaluations for cp in res.checkpoints} == {1}
            checked = Counter(map(place, checks))
            assert [checked[place(m)] for m in mis] == [1] * count
            checks.clear()
            mis.clear()


# Settings of the slope-exit oracle, as (device changes, policy changes,
# lifetime), the device changes as factors of the default's values but for
# base_levels.
SLOPE_SETTINGS = {
    "default": ({}, {}, 5500),
    "retention_87600": ({}, {"retention_time": 87600.0}, 3600),
    "retention_24": ({}, {"retention_time": 24.0}, 20000),
    "target_1.95": ({}, {"target_mi": 1.95, "capacity_threshold": 1.93}, 4700),
    "target_1.8": ({}, {"target_mi": 1.8, "capacity_threshold": 1.7}, 8300),
    "period_50": ({}, {"adjust_period": 50}, 5500),
    "period_300": ({}, {"adjust_period": 300}, 5400),
    "erased_fixed": ({}, {"scale_erased": False}, 5500),
    "three_levels": (
        {"base_levels": (2.8, 6.4, 7.86)}, {"target_mi": 1.5, "capacity_threshold": 1.45}, 7900
    ),
    "a_w_x2": ({"a_w": 2.0}, {}, 5400),
    "c_w_x3": ({"c_w": 3.0}, {}, 5500),
    "sigma_p_x1.2": ({"sigma_p": 1.2}, {}, 5200),
    "a_r_x1.5": ({"a_r": 1.5}, {}, 3500),
    # the settings where a keep-scaled slope left alpha closest to
    # ALPHA_TOL above the root, 0.86-0.88 ALPHA_TOL
    "period_150": ({}, {"adjust_period": 150}, 5550),
    "a_r_x2": ({"a_r": 2.0}, {}, 2500),
    "c_w_x10": ({"c_w": 10.0}, {}, 5300),
    "a_w_x3": ({"a_w": 3.0}, {}, 5300),
    "target_1.97": ({}, {"target_mi": 1.97, "capacity_threshold": 1.95}, 4100),
    "retention_168": ({}, {"retention_time": 168.0}, 15000),
}


@pytest.mark.parametrize("setting", list(SLOPE_SETTINGS))
def test_slope_exit_keeps_the_bracket_contract(params, monkeypatch, setting):
    # every dynamic checkpoint that does not clamp lies at most ALPHA_TOL
    # above the root of a slope-free solve at its wear, and meets the
    # target; the lifetime is the two-sided policy's, from fewer MIs
    device_changes, policy_changes, lifetime = SLOPE_SETTINGS[setting]
    device = replace(params, **{
        k: v if k == "base_levels" else v * getattr(params, k) for k, v in device_changes.items()
    })
    policy = PolicyConfig(**policy_changes)
    res = simulate_lifetime(device, policy)
    held = [cp for cp in res.checkpoints if allocation.ALPHA_MIN < cp.alpha < 1.0]
    assert held
    for cp in held:
        root = find_alpha(
            cp.v_acc, policy.retention_time, policy.target_mi, device, policy.scale_erased
        ).root
        assert 0.0 <= cp.alpha - root <= allocation.ALPHA_TOL
        assert cp.capacity_bits >= policy.target_mi
    solve = allocation.find_alpha

    def slope_free(*args, slope=None, **kwargs):
        return solve(*args, **kwargs)

    monkeypatch.setattr(allocation, "find_alpha", slope_free)
    two_sided = simulate_lifetime(device, policy)
    assert res.lifetime_cycles == two_sided.lifetime_cycles == lifetime
    assert res.mi_evaluations < two_sided.mi_evaluations


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


def group_states(columns):
    """The states of a group's first-round kernel call, from the (3, L, P,
    1) columns of its _panel_values call: each state's panels are a run of
    equal columns, and consecutive states here differ in v_acc."""
    changes = (columns[:, :, 1:] != columns[:, :, :-1]).any(axis=(0, 1, 3))
    return 1 + int(np.count_nonzero(changes))


class TestGroupedFirstRounds:
    """The fixed policy evaluates the first quadrature round of a group of
    states in one kernel call (infotheory._block_mutual_information);
    every state's capacity must still be the single-state
    _mutual_information(row) bit for bit."""

    @staticmethod
    def record_groups(monkeypatch):
        """The number of states of each group's first-round kernel call, as
        it runs: the _panel_values calls with one column per panel, where
        one state's round has a column for all its panels."""
        sizes, values = [], infotheory._panel_values

        def recording(columns, a, half):
            if columns.shape[2] > 1:
                sizes.append(group_states(columns))
            return values(columns, a, half)

        monkeypatch.setattr(infotheory, "_panel_values", recording)
        return sizes

    @pytest.mark.parametrize("levels, scale_erased, budget", [
        pytest.param(None, False, None, id="unscaled-erased"),
        pytest.param((0.0, 2.4, 5.06), True, None, id="three-levels"),
        pytest.param(None, True, 1, id="lone-states"),
    ])
    def test_capacities_match_single_state(
        self, params, monkeypatch, levels, scale_erased, budget
    ):
        # the 24 h, 1 y and 10 y trajectories to 20000 cycles, from fresh to
        # past charge exhaustion; with a budget of one point every state
        # forms a group alone
        device = params if levels is None else replace(params, base_levels=levels)
        if budget is not None:
            monkeypatch.setattr(infotheory, "_GROUP_POINTS", budget)
        sizes = self.record_groups(monkeypatch)
        pairs, core = [], infotheory._mutual_information
        blocked = infotheory._block_mutual_information

        def both(block):
            for k, got in enumerate(blocked(block)):
                pairs.append((got, core(block[:, k])))
                yield got

        monkeypatch.setattr(allocation, "_block_mutual_information", both)
        for t in (24.0, 8760.0, 87600.0):
            policy = PolicyConfig(
                mode="fixed", retention_time=t, capacity_threshold=1.4, target_mi=1.5,
                max_cycles=20000, scale_erased=scale_erased,
            )
            simulate_lifetime(device, policy, stop_below_threshold=False)
        assert len(pairs) == sum(sizes) == 3 * 201
        assert max(sizes) == 1 if budget == 1 else max(sizes) >= 3
        for grouped, single in pairs:
            assert same_bits(grouped, single)

    def test_groups_are_evaluated_lazily(self, params, monkeypatch):
        # at 10 years the default device crosses the threshold at its 21st
        # checkpoint, inside its first block: the run evaluates the groups
        # up to the one that holds the crossing and no further
        sizes = self.record_groups(monkeypatch)
        res = simulate_lifetime(params, PolicyConfig(mode="fixed", retention_time=87600.0))
        crossing = len(res.checkpoints) - 1
        assert res.lifetime_cycles == 1900 and crossing == 20
        assert sum(sizes[:-1]) <= crossing < sum(sizes) < allocation._BLOCK

    @pytest.mark.parametrize("budget", [None, 1 << 20], ids=["default", "whole-block"])
    def test_refused_middle_row(self, params, monkeypatch, budget):
        # a non-finite v_acc at row 9 of 16: the rows before it take their
        # single-state capacities, the row's refusal is the gate's and comes
        # when the row is asked for, after one check of each row so far;
        # under a budget that would take the whole block, the refused row
        # ends the first group
        if budget is not None:
            monkeypatch.setattr(infotheory, "_GROUP_POINTS", budget)
        v_acc = [100 * 2.765 * k for k in range(16)]
        v_acc[9] = math.inf
        with np.errstate(all="ignore"):
            block = channel._level_grid(v_acc, 8760.0, 1.0, params, True)
        rows = block.swapaxes(0, 1)
        with pytest.raises(NumericalFailure, match=REFUSED):
            channel._check_levels(rows[9])
        checks, check = [], infotheory._check_levels
        monkeypatch.setattr(
            infotheory, "_check_levels", lambda levels: checks.append(levels) or check(levels)
        )
        integrated, quadrature = [], infotheory._quadrature
        monkeypatch.setattr(
            infotheory, "_quadrature",
            lambda levels, *args: integrated.append(levels) or quadrature(levels, *args),
        )
        sizes = self.record_groups(monkeypatch)
        grouped = infotheory._block_mutual_information(block)
        for k in range(9):
            got = next(grouped)
            assert integrated[-1] is checks[k]
            assert same_bits(got, infotheory._mutual_information(rows[k]))
        assert len(checks) == 10 and sum(sizes) == 9
        if budget is not None:
            assert sizes == [9]
        with pytest.raises(NumericalFailure, match=REFUSED):
            next(grouped)
        assert len(checks) == 10
        # past the refused row, a block of the rest groups as before
        for k, got in enumerate(infotheory._block_mutual_information(block[:, 10:])):
            assert same_bits(got, infotheory._mutual_information(rows[10 + k]))


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
        mis, quadrature = [], infotheory._quadrature
        monkeypatch.setattr(
            infotheory, "_quadrature", lambda *a: mis.append(1) or quadrature(*a)
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
