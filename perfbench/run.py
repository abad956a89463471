"""Benchmark of the flashlife package.

Run from the root of a flashlife checkout:

    python3 perfbench/run.py --workload lifetime --seed 1 --seconds 20 --trace 0

Workloads are described in ``workloads.py``. An untraced run (``--trace 0``)
repeats whole passes of the workload while the next pass is predicted to
end within ``--seconds`` (at least one pass) and reports the end-to-end
metrics: ``setup_s`` (median of several cold set-ups, each in a fresh
interpreter), ``norm_wall_s`` (median pass time) and ``peak_rss_mib``.
Both times are rescaled to a reference host speed measured while they
ran (``hostspeed.py``). A traced run (``--trace 1``) makes one untraced
and one traced pass and reports the per-layer metrics from the traced
one; both passes must give identical results.

Every run pins BLAS and OpenMP to one thread, checks the results outside
the timed region, prints one JSON line ``{"record": ...}`` with the
machine, versions, seed and the workload's own figures, and ends with the
result line ``{"correct", "attempted", "failed", "metrics"}``. Without a
flashlife source tree in the working directory it exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
CONFIG = Path("params") / "default.conf"
HERE = Path(__file__).resolve().parent

# Work counts of the lifetime workload when this benchmark was introduced;
# traced runs record whether they still hold, and a change that saves work
# is not counted as failed.
BASELINE_COUNTS = {
    "mi_calls_fixed": 32,
    "mi_calls_dynamic": 803,
    "find_alpha_calls": 57,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("lifetime", "capacity-grid", "estimate")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(src: Path, conf: Path) -> dict:
    """Median cold set-up over several fresh interpreters, at the reference
    host speed."""
    probes = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-E", "-s", str(HERE / "setup_probe.py"), str(src), str(conf)],
            capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S,
        )
        probes.append(json.loads(out.stdout.splitlines()[-1]))
    return {
        "setup_s": statistics.median(p["import_s"] + p["config_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "config_s": statistics.median(p["config_s"] for p in probes),
        "factor": statistics.median(p["factor"] for p in probes),
    }


def machine_record() -> dict:
    import numpy
    import scipy

    import flashlife

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            names = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(names, "")
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu or platform.processor(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "flashlife": flashlife.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def warm_up(params) -> None:
    """Run each layer once on a tiny input so lazy set-up is not timed."""
    from flashlife import allocation, channel, estimation

    state = channel.WearState(v_acc=1000.0, cycles=1000, alpha=1.0)
    allocation.capacity_at(state, 8760.0, params)
    thresholds = estimation.default_read_thresholds(params.base_levels)
    pop = estimation.simulate_population(2000, state, 8760.0, params, seed=0)
    hist = estimation.build_histogram(pop.reads, thresholds)
    estimation.fit_wear_state(hist, params, t_known=8760.0)


def run_pass(workload, tracer) -> dict:
    results, starts, times, errors = {}, {}, {}, {}
    start = time.perf_counter()
    for name, op in workload.ops:
        starts[name] = time.perf_counter()
        try:
            results[name] = op(tracer)
        except Exception:  # counted as a failed operation; the run goes on
            errors[name] = traceback.format_exc()
            print(errors[name], file=sys.stderr)
        times[name] = time.perf_counter() - starts[name]
    return {
        "results": results,
        "starts": starts,
        "times": times,
        "factors": {},  # host slowdown over each operation, set by the caller
        "errors": errors,
        "wall": time.perf_counter() - start,
    }


def norm_wall(p: dict) -> float:
    """Pass time at the reference host speed: each operation's time divided
    by the host slowdown measured while it ran."""
    return sum(t / p["factors"][name] for name, t in p["times"].items())


def judge(workload, passes) -> dict:
    """Failure reasons of every operation run, keyed by (pass, operation).

    The first result of each operation is checked; every later pass must
    reproduce it exactly, which in a traced run is the self-check that
    tracing changed no result.
    """
    reasons = {}
    first = {}
    for i, p in enumerate(passes):
        for name, _ in workload.ops:
            if name in p["errors"]:
                bad = [p["errors"][name].strip().splitlines()[-1]]
            else:
                result = p["results"][name]
                key = workload.key(result)
                if name not in first:
                    first[name] = (key, workload.check(name, result))
                bad = list(first[name][1])
                if key != first[name][0]:
                    bad.append(f"{name}: result differs from the first pass")
            if bad:
                reasons[(i, name)] = bad
    return reasons


def layer_metrics(spans: list, traced: dict, summary: dict, setup: dict) -> dict:
    """Per-layer metrics of a traced pass; 0 where the workload does not
    exercise the layer."""
    from spans import layer_table, under

    table = layer_table(spans)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "points": 0, "durations": []}

    def row(name):
        return table.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    def count_under(name, ancestor):
        flags = under(spans, ancestor)
        return sum(1 for s, f in zip(spans, flags) if f and s[0] == name)

    lcd = row("channel.log_conditional_density")
    old = row("channel.output_log_density")
    mi = row("infotheory.mutual_information")
    fa = row("allocation.find_alpha")
    mi_flags = under(spans, "infotheory.mutual_information")
    density_points_in_mi = sum(
        s[4] for s, f in zip(spans, mi_flags) if f and s[0] == "channel.log_conditional_density"
    )
    mi_ms = sorted(d * 1e3 for d in mi["durations"])
    checkpoints = sum(
        len(r.checkpoints) for r in traced["results"].values() if hasattr(r, "checkpoints")
    )
    fits_known = row("bench.fit_known_t")["calls"]
    fits_joint = row("bench.fit_joint")["calls"]
    metrics = {
        "setup.import_s": (setup["import_s"], "s"),
        "setup.config_s": (setup["config_s"], "s"),
        "channel.log_conditional_density.calls": (lcd["calls"], "count"),
        "channel.log_conditional_density.points": (lcd["points"], "count"),
        "channel.log_conditional_density.self_s": (lcd["self_s"], "s"),
        "channel.output_log_density.calls": (old["calls"], "count"),
        "channel.output_log_density.points": (old["points"], "count"),
        "channel.output_log_density.self_s": (old["self_s"], "s"),
        "channel.ns_per_density_point": (ratio(lcd["self_s"] * 1e9, lcd["points"]), "ns"),
        "channel.conditional_cdf.points": (row("channel.conditional_cdf")["points"], "count"),
        "channel.conditional_cdf.self_s": (row("channel.conditional_cdf")["self_s"], "s"),
        "channel.conditional_sf.points": (row("channel.conditional_sf")["points"], "count"),
        "channel.conditional_sf.self_s": (row("channel.conditional_sf")["self_s"], "s"),
        "infotheory.mutual_information.calls": (mi["calls"], "count"),
        "infotheory.mutual_information.self_s": (mi["self_s"], "s"),
        "infotheory.mutual_information.p50_ms": (
            statistics.median(mi_ms) if mi_ms else 0.0, "ms"),
        "infotheory.mutual_information.p98_ms": (
            mi_ms[min(len(mi_ms) - 1, int(0.98 * len(mi_ms)))] if mi_ms else 0.0, "ms"),
        "infotheory.density_evals_per_mi": (ratio(density_points_in_mi, mi["calls"]), "count"),
        "allocation.find_alpha.calls": (fa["calls"], "count"),
        "allocation.find_alpha.self_s": (fa["self_s"], "s"),
        "allocation.mi_evals_per_find_alpha": (
            ratio(count_under("infotheory.mutual_information", "allocation.find_alpha"),
                  fa["calls"]), "count"),
        "allocation.capacity_at.calls": (row("allocation.capacity_at")["calls"], "count"),
        "allocation.simulate_lifetime.checkpoints": (checkpoints, "count"),
        "estimation.bin_probabilities.calls": (
            row("estimation.bin_probabilities")["calls"], "count"),
        "estimation.likelihood_evals_per_fit_known_t": (
            ratio(count_under("estimation.bin_probabilities", "bench.fit_known_t"),
                  fits_known), "count"),
        "estimation.likelihood_evals_per_fit_joint": (
            ratio(count_under("estimation.bin_probabilities", "bench.fit_joint"),
                  fits_joint), "count"),
        "estimation.simulate_population.s": (
            row("estimation.simulate_population")["incl_s"], "s"),
        "estimation.build_histogram.s": (row("estimation.build_histogram")["incl_s"], "s"),
        "estimation.bin_llrs.s": (row("estimation.bin_llrs")["incl_s"], "s"),
        "estimation.fit_joint_ll_shortfall_nats": (
            summary.get("fit_joint_ll_shortfall_nats", 0.0), "nats"),
        "estimation.fit_known_t_v_acc_rel_err": (
            summary.get("fit_known_t_v_acc_rel_err", 0.0), "ratio"),
    }
    return metrics


def work_counts(spans: list) -> dict:
    """The counts BASELINE_COUNTS names, from a traced pass."""
    from spans import under

    counts = {}
    for mode in ("fixed", "dynamic"):
        flags = under(spans, f"bench.lifetime_{mode}")
        counts[f"mi_calls_{mode}"] = sum(
            1 for s, f in zip(spans, flags) if f and s[0] == "infotheory.mutual_information"
        )
    counts["find_alpha_calls"] = sum(1 for s in spans if s[0] == "allocation.find_alpha")
    return counts


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "flashlife" / "__init__.py").is_file() or not (root / CONFIG).is_file():
        print(
            "error: run from the root of a flashlife checkout "
            f"(need src/flashlife and {CONFIG})",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    setup = measure_setup(src, root / CONFIG)

    import flashlife
    from flashlife import config

    if Path(flashlife.__file__).resolve().parent != (src / "flashlife").resolve():
        print(f"error: imported flashlife from {flashlife.__file__}", file=sys.stderr)
        return 2
    # numpy is imported only now, after the thread variables are set.
    import hostspeed
    import spans
    from workloads import WORKLOADS

    values = config.load_config(root / CONFIG)
    params = config.device_params_from(values)
    policy = config.policy_config_from(values)
    workload = WORKLOADS[args.workload](args.seed, params, policy)
    warm_up(params)

    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": machine_record(),
        "setup": setup,
    }
    with hostspeed.SpeedProbe() as probe:
        if args.trace:
            untraced = run_pass(workload, spans.NullTracer())
            with spans.Tracer() as tracer:
                traced = run_pass(workload, tracer)
            passes = [untraced, traced]
        else:
            deadline = time.perf_counter() + args.seconds
            passes = []
            while True:
                passes.append(run_pass(workload, spans.NullTracer()))
                if time.perf_counter() + statistics.median(p["wall"] for p in passes) > deadline:
                    break
    for p in passes:
        for name, t in p["times"].items():
            p["factors"][name] = probe.factor(p["starts"][name], p["starts"][name] + t)
    if args.trace:
        left = spans.surviving_wrappers(spans.package_modules())
        if left:
            raise RuntimeError(f"tracing wrappers left in place: {left}")

    reasons = judge(workload, passes)
    summary = workload.summarize(passes) if not any(p["errors"] for p in passes) else {}
    record.update(
        passes=len(passes),
        pass_wall_s=[p["wall"] for p in passes],
        pass_norm_wall_s=[norm_wall(p) for p in passes],
        speed_factors=[p["factors"] for p in passes],
        summary=summary,
        failures=sorted({r for rs in reasons.values() for r in rs}),
    )

    if args.trace:
        metrics = layer_metrics(tracer.spans, traced, summary, setup)
        metrics["trace.overhead_s"] = (norm_wall(traced) - norm_wall(untraced), "s")
        counts = work_counts(tracer.spans)
        record["work_counts"] = counts
        if args.workload == "lifetime":
            record["work_counts_match_baseline"] = counts == BASELINE_COUNTS
    else:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "norm_wall_s": (statistics.median(norm_wall(p) for p in passes), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    print(json.dumps({"record": record}, default=str))
    print(
        json.dumps(
            {
                "correct": not reasons,
                "attempted": len(passes) * len(workload.ops),
                "failed": len(reasons),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
