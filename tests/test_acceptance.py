"""Acceptance suite: eight end-to-end criteria, one test each.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) in addition to asserting, so the suite doubles as a
sign-off checklist. Criteria 1 and 2 reuse the session-scoped lifetime
runs from conftest.py so the wall-clock budgets are measured once.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import flashlife
from flashlife.allocation import find_alpha
from flashlife.channel import (
    DeviceParams,
    NoiseSpec,
    WearState,
    level_noise_spec,
)
from flashlife.channel import _log_density, _spec_arrays, _support
from flashlife.estimation import (
    ReadThresholds,
    WearEstimate,
    bin_llrs,
    build_histogram,
    default_read_thresholds,
    fit_wear_state,
    simulate_population,
)
from flashlife.infotheory import mutual_information, mutual_information_mc


def report(num: int, name: str, ok: bool, detail: str):
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_baseline_lifetime(fixed_run):
    life = fixed_run.result.lifetime_cycles
    ok = abs(life - 3000) <= 450 and fixed_run.seconds < 120
    report(1, "baseline lifetime", ok,
           f"fixed lifetime {life} cycles (3000±450), {fixed_run.seconds:.1f}s (<120s)")


def test_criterion_2_dynamic_lifetime(fixed_run, dynamic_run):
    fixed = fixed_run.result.lifetime_cycles
    dyn = dynamic_run.result.lifetime_cycles
    improvement = (dyn - fixed) / fixed
    ok = abs(dyn - 5400) <= 800 and improvement >= 0.60 and dynamic_run.seconds < 300
    report(2, "dynamic lifetime", ok,
           f"dynamic lifetime {dyn} cycles (5400±800), improvement "
           f"{100 * improvement:.1f}% (>=60%), {dynamic_run.seconds:.1f}s (<300s)")


def test_criterion_3_initial_alpha(params):
    sol = find_alpha(0.0, 8760.0, 1.92, params)
    ok = abs(sol.alpha - 0.28) <= 0.05 and not sol.clamped
    report(3, "initial scale factor", ok, f"alpha {sol.alpha:.4f} (0.28±0.05)")


def test_criterion_4_density_correctness():
    sigma = 0.05
    worst_abs = worst_logrel = worst_norm = 0.0
    for ratio in (0.1, 1.0, 10.0, 40.0, 100.0):
        spec = NoiseSpec(mu=5.2, sigma2=sigma**2, lam=sigma / ratio)

        def oracle(y):
            def integrand(w):
                g = math.exp(-0.5 * ((y - spec.mu - w) / sigma) ** 2) / (
                    sigma * math.sqrt(2 * math.pi)
                )
                return g * math.exp(-abs(w) / spec.lam) / (2 * spec.lam)

            d = y - spec.mu
            lo = min(d, 0.0) - 10 * sigma - 45 * spec.lam
            hi = max(d, 0.0) + 10 * sigma + 45 * spec.lam
            pts = [p for p in (0.0, d) if lo < p < hi]
            val, _ = integrate.quad(integrand, lo, hi, points=pts,
                                    limit=500, epsabs=1e-16, epsrel=1e-12)
            return val

        levels = _spec_arrays([spec])
        ys = spec.mu + np.linspace(-5, 5, 11) * sigma
        for y, log_f in zip(ys.tolist(), _log_density(ys, *levels).tolist()):
            ref = oracle(y)
            worst_abs = max(worst_abs, abs(math.exp(log_f) - ref))
            if ratio >= 40.0 and ref > 0:
                rel = abs(log_f - math.log(ref)) / abs(math.log(ref))
                worst_logrel = max(worst_logrel, rel)
        lo, hi = _support(levels)
        norm, _ = integrate.quad(
            lambda u: math.exp(_log_density(np.array([u]), *levels)[0]),
            lo, hi, points=[spec.mu], limit=500,
        )
        worst_norm = max(worst_norm, abs(norm - 1.0))
    ok = worst_abs < 1e-8 and worst_logrel < 1e-6 and worst_norm < 1e-6
    report(4, "density correctness", ok,
           f"max |pdf err| {worst_abs:.2e} (<1e-8), max log-domain rel err "
           f"{worst_logrel:.2e} (<1e-6), max |norm-1| {worst_norm:.2e} (<1e-6)")


def test_criterion_5_mi_cross_validation(params):
    rng = np.random.default_rng(55)
    worst_z = 0.0
    in_range = True
    for i in range(20):
        mus = np.sort(rng.uniform(0.0, 8.0, 4)) + np.arange(4) * 1e-3
        specs = [
            NoiseSpec(mu=float(m), sigma2=float(rng.uniform(1e-3, 0.2)),
                      lam=float(rng.uniform(1e-3, 0.5)))
            for m in mus
        ]
        quad = mutual_information(specs).value
        mc = mutual_information_mc(specs, 10**6, seed=1000 + i)
        in_range &= 0.0 <= quad <= 2.0 and 0.0 <= mc.value <= 2.0 + 1e-9
        if mc.stderr > 0:
            worst_z = max(worst_z, abs(mc.value - quad) / mc.stderr)
    alphas = np.linspace(0.05, 1.0, 50)
    mis = [
        mutual_information(
            [level_noise_spec(k, WearState(8295.0, 3000, float(a)), 8760.0, params)
             for k in range(4)]
        ).value
        for a in alphas
    ]
    monotone = all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
    ok = worst_z < 3.0 and in_range and monotone
    report(5, "MI cross-validation", ok,
           f"max |quad-MC|/stderr {worst_z:.2f} (<3), MI in [0,2]: {in_range}, "
           f"monotone in alpha over 50 points: {monotone}")


def test_criterion_6_estimator_round_trip(params):
    true_state = WearState(8295.0, 3000, 1.0)
    thr = default_read_thresholds(params.base_levels)
    true_cap = 1.9022

    def run(n, seed):
        pop = simulate_population(n, true_state, 8760.0, params, seed=seed)
        hist = build_histogram(pop.reads, thr)
        return fit_wear_state(hist, params, t_known=8760.0)

    hits = 0
    v_errs_big, v_errs_small = [], []
    for seed in range(20):
        est = run(9000, 4000 + seed)
        v_err = abs(est.v_acc_hat - 8295.0) / 8295.0
        cap_err = abs(est.capacity_hat - true_cap)
        if v_err <= 0.10 and cap_err <= 0.05:
            hits += 1
        v_errs_big.append(v_err)
        v_errs_small.append(
            abs(run(900, 4000 + seed).v_acc_hat - 8295.0) / 8295.0
        )
    shrinks = float(np.mean(v_errs_big)) < float(np.mean(v_errs_small))
    ok = hits >= 18 and shrinks
    report(6, "estimator round-trip", ok,
           f"{hits}/20 runs within ±10% v_acc and ±0.05 bits (>=18), mean "
           f"|v err| n=9000 {np.mean(v_errs_big):.3f} < n=900 "
           f"{np.mean(v_errs_small):.3f}: {shrinks}")


def test_criterion_7_llr_sanity(params):
    # exact-symmetry case: matched level noise, thresholds straddling the
    # level-2/3 midpoint, so the middle bin carries zero LLR for the bit
    # separating levels {0,3} from {1,2}
    sym = DeviceParams(
        a_w=1.8e-4, c_w=1.26e-3, k1=0.62, a_r=7.0e-4, b_r=4.76e-3, k2=0.3,
        v_max=16.0, t0=1.0, sigma_p=0.05, sigma_e=0.051,
        base_levels=(0.0, 2.0, 4.0, 6.0),
    )
    est0 = WearEstimate(0.0, 0.0, 0.0, 0.0, True)
    zero_llr = bin_llrs(est0, sym, 1.0, ReadThresholds((4.9, 5.1)))[1, 1]

    # fitted-vs-true LLRs in level-central bins
    true_state = WearState(8295.0, 3000, 1.0)
    thr = default_read_thresholds(params.base_levels)
    pop = simulate_population(200_000, true_state, 8760.0, params, seed=70)
    est = fit_wear_state(build_histogram(pop.reads, thr), params, t_known=8760.0)
    true_est = WearEstimate(8295.0, 8760.0, 0.0, 0.0, True)
    fitted = bin_llrs(est, params, 1.0, thr)
    truth = bin_llrs(true_est, params, 1.0, thr)
    central_bins = [0, 3, 6, 9]  # bins containing the four level means
    worst = float(np.max(np.abs(fitted[central_bins] - truth[central_bins])))
    ok = abs(zero_llr) < 1e-6 and worst < 0.5
    report(7, "LLR sanity", ok,
           f"symmetry-case LLR {zero_llr:.2e} (<1e-6), max central-bin "
           f"fitted-vs-true gap {worst:.3f} (<0.5)")


def test_criterion_8_determinism(tmp_path):
    # The CLI runs in tmp_path, where a relative PYTHONPATH entry no longer
    # resolves, so the child gets the absolute directory of this package.
    package_root = str(Path(flashlife.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    outs = []
    for rep in range(2):
        csv = tmp_path / f"sweep{rep}.csv"
        llr = tmp_path / f"llr{rep}.csv"
        subprocess.run(
            [sys.executable, "-m", "flashlife.cli", "capacity-sweep",
             "--set", "max_cycles=300", "--seed", "7", "--out", str(csv)],
            check=True, cwd=tmp_path, capture_output=True, env=env,
        )
        subprocess.run(
            [sys.executable, "-m", "flashlife.cli", "estimate",
             "--simulate", "20000", "--t-known", "8760", "--seed", "7",
             "--llr-out", str(llr)],
            check=True, cwd=tmp_path, capture_output=True, env=env,
        )
        outs.append(csv.read_bytes() + llr.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(8, "determinism", ok,
           f"repeated runs byte-identical: {outs[0] == outs[1]}")
