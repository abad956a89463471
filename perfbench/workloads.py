"""The benchmark's workloads, their correctness checks and their summaries.

A workload is a list of named operations. Each operation takes a tracer
(``spans.Tracer`` or ``spans.NullTracer``) and returns a result; ``key``
reduces a result to the values that must repeat exactly from pass to pass
and between traced and untraced passes; ``check`` returns the reasons a
result is wrong (empty when it is right); ``summarize`` turns the results
and timings of all passes into the workload's own named figures, dividing
each time by the host slowdown measured while its operation ran (the
pass's ``factors``, see hostspeed.py).

Package functions are always reached through their module attribute
(``allocation.simulate_lifetime``), never bound here by name, so that a
traced pass goes through the patched bindings.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from flashlife import allocation, channel, estimation, infotheory

REFERENCE = Path(__file__).resolve().parent / "reference" / "capacity_grid.json"

WHY = {  # the same reasons as in BENCHMARK.json
    "lifetime": (
        "The paper's headline: fixed then dynamic lifetime on the default "
        "device; the only workload that runs the find_alpha solver."
    ),
    "capacity-grid": (
        "Fixed-policy trajectories at 24 h, 1 y and 10 y to 20000 cycles: "
        "pure MI quadrature from fresh to overlapping levels, no solver."
    ),
    "estimate": (
        "12 seeded 100k-cell wear fits (known and joint t) with LLRs: many "
        "small CDF/SF calls, little MI, ridge cases where the joint fit misses."
    ),
}

# Expected results at the default configuration (acceptance criteria 1-3).
LIFETIME_FIXED = 3000
LIFETIME_DYNAMIC = 5500
INITIAL_ALPHA, INITIAL_ALPHA_TOL = 0.284, 0.005

GRID_TIMES = (24.0, 8760.0, 87600.0)
GRID_MAX_CYCLES = 20000
GRID_REF_TOL = 1e-6  # bits, against the stored reference trajectories
# Capacity may rise by at most the quadrature's own relative tolerance
# (1e-8 of a value below 2 bits) from one checkpoint to the next.
GRID_MONOTONE_TOL = 2e-8
# Checkpoints cross-checked by Monte Carlo. Near 2 bits the levels overlap
# so rarely that the Monte-Carlo sample misses the overlap and its standard
# error collapses to zero, so only checkpoints below GRID_MC_MAX_BITS count.
GRID_MC_INDICES = (50, 100, 150, 200)
GRID_MC_MAX_BITS = 1.99
GRID_MC_SAMPLES = 1 << 17
GRID_MC_SEED = 20140317
GRID_MC_Z = 4.0

EST_ALPHAS = (1.0, 0.5)
EST_V_ACC = (1000.0, 8295.0, 20000.0)
EST_TIMES = (24.0, 8760.0)
EST_CELLS = 100_000
EST_V_TOL = 0.05  # relative V_acc error allowed for the known-t fit


@contextmanager
def timed(times: dict, name: str):
    """Store the block's wall time in ``times[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        times[name] = time.perf_counter() - start


def drift_fraction(v_acc: float, t: float, params) -> float:
    """Share of its programmed charge a level has lost to retention drift.

    The drift model is linear in the charge, so the share is the same for
    every level. Above 1 the model drives programmed levels below the
    erased level, which no cell can do.
    """
    mu_r, _ = channel.retention_moments(1.0, v_acc, t, params)
    return -mu_r


class Workload:
    name = ""

    def __init__(self, seed: int, params, policy):
        self.params = params
        self.policy = policy
        self.ops: list[tuple[str, object]] = []

    @property
    def why(self) -> str:
        return WHY[self.name]

    def key(self, result):
        return result


class Lifetime(Workload):
    """``flashlife lifetime --mode both`` on the default configuration."""

    name = "lifetime"

    def __init__(self, seed, params, policy):
        super().__init__(seed, params, policy)
        self.ops = [(mode, self._op(mode)) for mode in ("fixed", "dynamic")]

    def _op(self, mode: str):
        def run(tracer):
            with tracer.region(f"lifetime_{mode}"):
                return allocation.simulate_lifetime(
                    self.params, replace(self.policy, mode=mode)
                )

        return run

    def check(self, op, result):
        want = LIFETIME_FIXED if op == "fixed" else LIFETIME_DYNAMIC
        bad = []
        if result.lifetime_cycles != want:
            bad.append(f"{op} lifetime {result.lifetime_cycles} != {want}")
        if op == "dynamic":
            alpha0 = result.checkpoints[0].alpha
            if abs(alpha0 - INITIAL_ALPHA) > INITIAL_ALPHA_TOL:
                bad.append(f"initial alpha {alpha0:.4f} not {INITIAL_ALPHA}±{INITIAL_ALPHA_TOL}")
        return bad

    def summarize(self, passes):
        first = passes[0]["results"]
        return {
            "lifetime_fixed_s": statistics.median(
                p["times"]["fixed"] / p["factors"]["fixed"] for p in passes
            ),
            "lifetime_dynamic_s": statistics.median(
                p["times"]["dynamic"] / p["factors"]["dynamic"] for p in passes
            ),
            "lifetime_fixed": first["fixed"].lifetime_cycles,
            "lifetime_dynamic": first["dynamic"].lifetime_cycles,
            "initial_alpha": first["dynamic"].checkpoints[0].alpha,
            "checkpoints": sum(len(r.checkpoints) for r in first.values()),
        }


class CapacityGrid(Workload):
    """Fixed-policy capacity trajectories run to max_cycles regardless of
    capacity, at three retention times."""

    name = "capacity-grid"

    def __init__(self, seed, params, policy):
        super().__init__(seed, params, policy)
        self.retention = {f"t={t:g}h": t for t in GRID_TIMES}
        self.ops = [(op, self._op(t)) for op, t in self.retention.items()]

    def _op(self, t: float):
        policy = replace(
            self.policy, mode="fixed", retention_time=t, max_cycles=GRID_MAX_CYCLES
        )

        def run(tracer):
            with tracer.region("trajectory"):
                return allocation.simulate_lifetime(
                    self.params, policy, stop_below_threshold=False
                )

        return run

    def reference(self) -> dict:
        return json.loads(REFERENCE.read_text())

    def check(self, op, result):
        t = self.retention[op]
        caps = [cp.capacity_bits for cp in result.checkpoints]
        want = GRID_MAX_CYCLES // self.policy.adjust_period + 1
        if len(caps) != want:
            return [f"{op}: {len(caps)} checkpoints, expected {want}"]
        bad = []
        ref = self.reference()[op]
        worst = max(abs(a - b) for a, b in zip(caps, ref))
        if worst > GRID_REF_TOL:
            bad.append(f"{op}: capacity differs from reference by {worst:.3e} bits")
        for prev, cp in zip(result.checkpoints, result.checkpoints[1:]):
            if drift_fraction(cp.v_acc, t, self.params) > 1.0:
                break
            if cp.capacity_bits > prev.capacity_bits + GRID_MONOTONE_TOL:
                bad.append(f"{op}: capacity rises at cycle {cp.cycle}")
                break
        if t == self.policy.retention_time and result.lifetime_cycles != LIFETIME_FIXED:
            bad.append(f"{op}: lifetime {result.lifetime_cycles} != {LIFETIME_FIXED}")
        for i in GRID_MC_INDICES:
            cp = result.checkpoints[i]
            if cp.capacity_bits >= GRID_MC_MAX_BITS:
                continue
            state = channel.WearState(v_acc=cp.v_acc, cycles=cp.cycle, alpha=cp.alpha)
            specs = [
                channel.level_noise_spec(k, state, t, self.params, self.policy.scale_erased)
                for k in range(self.params.num_levels)
            ]
            mc = infotheory.mutual_information_mc(specs, GRID_MC_SAMPLES, GRID_MC_SEED + i)
            if abs(mc.value - cp.capacity_bits) > GRID_MC_Z * mc.stderr:
                bad.append(
                    f"{op}: cycle {cp.cycle} quadrature {cp.capacity_bits:.6f} vs "
                    f"Monte Carlo {mc.value:.6f}±{mc.stderr:.1e}"
                )
        return bad

    def summarize(self, passes):
        out = {
            "trajectory_s": statistics.median(
                t / p["factors"][op] for p in passes for op, t in p["times"].items()
            )
        }
        for op, result in passes[0]["results"].items():
            t = self.retention[op]
            exhausted = next(
                (cp.cycle for cp in result.checkpoints
                 if drift_fraction(cp.v_acc, t, self.params) > 1.0),
                None,
            )
            caps = [cp.capacity_bits for cp in result.checkpoints]
            out[op] = {
                "lifetime": result.lifetime_cycles,
                "final_capacity": caps[-1],
                # Beyond this cycle the drift model has removed more than
                # all programmed charge, and capacity climbs back up.
                "charge_exhausted_cycle": exhausted,
                "rising_steps": sum(b > a for a, b in zip(caps, caps[1:])),
            }
        return out


@dataclass(frozen=True)
class Case:
    alpha: float
    v_acc: float
    t: float
    seed: int

    @property
    def label(self) -> str:
        return f"a={self.alpha:g},v={self.v_acc:g},t={self.t:g}h"


@dataclass
class CaseResult:
    known: estimation.WearEstimate
    joint: estimation.WearEstimate
    llrs: np.ndarray
    counts: tuple
    times: dict


class Estimate(Workload):
    """Simulated read, histogram, known-t fit, joint fit and LLRs for each
    case. The case seeds come from the workload seed."""

    name = "estimate"

    def __init__(self, seed, params, policy):
        super().__init__(seed, params, policy)
        grid = [(a, v, t) for a in EST_ALPHAS for v in EST_V_ACC for t in EST_TIMES]
        children = np.random.SeedSequence(seed).spawn(len(grid))
        self.cases = {}
        for (a, v, t), child in zip(grid, children):
            case = Case(a, v, t, int(child.generate_state(1)[0]))
            self.cases[case.label] = case
            self.ops.append((case.label, self._op(case)))

    def thresholds(self, case: Case):
        levels = channel.scaled_levels(
            self.params.base_levels, case.alpha, self.policy.scale_erased
        )
        return estimation.default_read_thresholds(levels)

    def true_state(self, case: Case):
        # As the CLI does for --simulate: the model never reads the cycle
        # count, which only has to be nonzero exactly when v_acc is.
        return channel.WearState(
            v_acc=case.v_acc, cycles=max(1, int(case.v_acc)), alpha=case.alpha
        )

    def _op(self, case: Case):
        params, scale_erased = self.params, self.policy.scale_erased
        thresholds = self.thresholds(case)
        state = self.true_state(case)

        def run(tracer):
            times = {}
            with timed(times, "simulate"), tracer.region("simulate"):
                pop = estimation.simulate_population(
                    EST_CELLS, state, case.t, params, case.seed, scale_erased
                )
            with timed(times, "histogram"), tracer.region("histogram"):
                hist = estimation.build_histogram(pop.reads, thresholds)
            with timed(times, "fit_known_t"), tracer.region("fit_known_t"):
                known = estimation.fit_wear_state(
                    hist, params, alpha=case.alpha, t_known=case.t,
                    scale_erased=scale_erased,
                )
            with timed(times, "fit_joint"), tracer.region("fit_joint"):
                joint = estimation.fit_wear_state(
                    hist, params, alpha=case.alpha, scale_erased=scale_erased
                )
            with timed(times, "llrs"), tracer.region("llrs"):
                llrs = estimation.bin_llrs(joint, params, case.alpha, thresholds)
            return CaseResult(known, joint, llrs, hist.counts, times)

        return run

    def key(self, result):
        return (result.known, result.joint, result.llrs.tobytes(), result.counts)

    def truth_log_likelihood(self, case: Case, counts) -> float:
        """Multinomial log-likelihood of the counts at the true state, as
        the fit defines it."""
        probs = estimation.bin_probabilities(
            self.true_state(case), case.t, self.params, self.thresholds(case),
            self.policy.scale_erased,
        )
        mix = np.maximum(probs.mean(axis=0), estimation.PROB_FLOOR)
        return float(np.dot(counts, np.log(mix)))

    def shortfall(self, label: str, result: CaseResult) -> float:
        """How far the joint fit's likelihood falls below the truth's."""
        truth = self.truth_log_likelihood(self.cases[label], result.counts)
        return max(0.0, truth - result.joint.log_likelihood)

    def check(self, op, result):
        case = self.cases[op]
        bad = []
        rel = abs(result.known.v_acc_hat - case.v_acc) / case.v_acc
        if rel > EST_V_TOL:
            bad.append(f"{op}: known-t V_acc error {rel:.3f} > {EST_V_TOL}")
        if not np.all(np.isfinite(result.llrs)):
            bad.append(f"{op}: non-finite LLR")
            return bad
        # Gray-signed: in the bin holding a level's mean read voltage, the
        # LLR of bit k is positive when that level writes 0 there.
        state = self.true_state(case)
        edges = np.array(self.thresholds(case).thresholds)
        bins = [
            int(np.searchsorted(edges, spec.mu, side="left"))
            for spec in (
                channel.level_noise_spec(
                    level, state, case.t, self.params, self.policy.scale_erased
                )
                for level in range(self.params.num_levels)
            )
        ]
        for level, (b, label) in enumerate(zip(bins, estimation.GRAY_LABELS_4)):
            if bins.count(b) > 1:
                continue  # several level means share the bin: no sign to expect
            for k, bit in enumerate(label):
                llr = result.llrs[b, k]
                if (llr > 0) != (bit == "0"):
                    bad.append(f"{op}: level {level} bin {b} bit {k} LLR {llr:.3g}")
        return bad

    def summarize(self, passes):
        first = passes[0]["results"]
        steps = {}
        for p in passes:
            for op, r in p["results"].items():
                for step, s in r.times.items():
                    steps.setdefault(step, []).append(s / p["factors"][op])
        return {
            "fit_known_t_s": statistics.median(steps["fit_known_t"]),
            "fit_joint_s": statistics.median(steps["fit_joint"]),
            "fit_joint_ll_shortfall_nats": max(
                self.shortfall(op, r) for op, r in first.items()
            ),
            "fit_known_t_v_acc_rel_err": max(
                abs(r.known.v_acc_hat - self.cases[op].v_acc) / self.cases[op].v_acc
                for op, r in first.items()
            ),
            "step_s": {step: statistics.median(v) for step, v in steps.items()},
            "cases": {
                op: {
                    "v_known": round(r.known.v_acc_hat, 3),
                    "v_joint": round(r.joint.v_acc_hat, 3),
                    "t_joint": round(r.joint.t_hat, 3),
                    "shortfall_nats": round(self.shortfall(op, r), 3),
                }
                for op, r in first.items()
            },
        }


WORKLOADS = {w.name: w for w in (Lifetime, CapacityGrid, Estimate)}
