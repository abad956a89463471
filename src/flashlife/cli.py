"""Command-line front end.

Three subcommands tie the library into reproducible experiments:

  capacity-sweep  fixed vs dynamic capacity trajectories as CSV
  lifetime        lifetime in P/E cycles for both policies
  estimate        wear-state fit from a histogram file or a simulated read

Every run is deterministic given (config, seed) and writes a flat
key-value manifest next to its outputs. Exit codes: 0 success, 2 usage or
config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .allocation import PolicyConfig, lifetime_csv_rows, simulate_lifetime
from .channel import DeviceParams, WearState, scaled_levels
from .config import (
    ConfigError,
    apply_overrides,
    device_params_from,
    load_config,
    policy_config_from,
)
from .estimation import (
    Histogram,
    InsufficientDataError,
    ReadThresholds,
    bin_llrs,
    build_histogram,
    default_read_thresholds,
    fit_wear_state,
    simulate_population,
)
from .infotheory import NumericalFailure

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _load_settings(args) -> tuple[DeviceParams, PolicyConfig]:
    values = load_config(args.config) if args.config else {}
    values = apply_overrides(values, args.set or [])
    return device_params_from(values), policy_config_from(values)


def _load_policy_settings(args) -> tuple[DeviceParams, PolicyConfig]:
    """Settings for a command that runs the policy. Capacity stays below
    log2 L bits, so a target at or above it is out of every alpha's reach."""
    params, policy = _load_settings(args)
    ceiling = math.log2(params.num_levels)
    if policy.target_mi >= ceiling:
        raise ConfigError(
            f"target_mi must be below log2(num_levels) = {ceiling:g} bits, "
            f"got {policy.target_mi:g}"
        )
    return params, policy


def _write_manifest(command: str, values: dict, seed, outputs: list[str], path: Path):
    lines = [f"command = {command}", f"version = {__version__}", f"seed = {seed}"]
    lines += [f"{k} = {v}" for k, v in sorted(values.items())]
    lines += [f"output = {o}" for o in outputs]
    path.write_text("\n".join(lines) + "\n")


def _resolved_values(params, policy) -> dict:
    """Every device and policy setting but the policy mode, which only the
    commands that run a policy record: the mode that ran."""
    out = {**asdict(params), **asdict(policy)}
    del out["mode"]
    out["base_levels"] = ",".join(f"{v:g}" for v in params.base_levels)
    return out


def cmd_capacity_sweep(args) -> int:
    params, policy = _load_policy_settings(args)
    out_path = Path(args.out)
    rows = ["cycle,capacity_fixed,capacity_dynamic,alpha_dynamic"]
    if policy.max_cycles > 0:
        fixed = simulate_lifetime(
            params,
            replace(policy, mode="fixed"),
            stop_below_threshold=False,
        )
        dynamic = simulate_lifetime(
            params,
            replace(policy, mode="dynamic"),
            stop_below_threshold=False,
        )
        for cpf, cpd in zip(fixed.checkpoints[1:], dynamic.checkpoints[1:]):
            rows.append(
                f"{cpf.cycle},{cpf.capacity_bits:.6f},"
                f"{cpd.capacity_bits:.6f},{cpd.alpha:.6f}"
            )
    out_path.write_text("\n".join(rows) + "\n")
    _write_manifest(
        "capacity-sweep",
        {**_resolved_values(params, policy), "mode": "both"},
        args.seed,
        [str(out_path)],
        out_path.with_suffix(out_path.suffix + ".manifest"),
    )
    return EXIT_OK


def cmd_lifetime(args) -> int:
    params, policy = _load_policy_settings(args)
    modes = [args.mode] if args.mode in ("fixed", "dynamic") else ["fixed", "dynamic"]
    results = {}
    outputs = []
    for mode in modes:
        results[mode] = simulate_lifetime(params, replace(policy, mode=mode))
        if args.out:
            path = Path(f"{args.out}_{mode}.csv" if len(modes) > 1 else args.out)
            path.write_text("\n".join(lifetime_csv_rows(results[mode])) + "\n")
            outputs.append(str(path))
    if len(modes) == 1:
        mode = modes[0]
        print(f"lifetime_{mode}={results[mode].lifetime_cycles}")
    else:
        lf = results["fixed"].lifetime_cycles
        ld = results["dynamic"].lifetime_cycles
        if lf > 0:
            improvement = f"{100.0 * (ld - lf) / lf:.1f}%"
        else:
            improvement = "inf%" if ld > 0 else "n/a"
        print(f"lifetime_fixed={lf}, lifetime_dynamic={ld}, improvement={improvement}")
    manifest = Path(args.out).with_suffix(".manifest") if args.out else Path(
        "lifetime.manifest"
    )
    _write_manifest(
        "lifetime",
        {**_resolved_values(params, policy), "mode": args.mode},
        args.seed,
        outputs,
        manifest,
    )
    return EXIT_OK


def _read_histogram_file(path: Path) -> Histogram:
    lines = path.read_text().splitlines()
    fields = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'name: values'")
        name, raw = (part.strip() for part in line.split(":", 1))
        try:
            fields[name] = [float(v) for v in raw.split()]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
    if "thresholds" not in fields or "counts" not in fields:
        raise ValueError(f"{path}: need both 'thresholds:' and 'counts:' lines")
    try:
        return Histogram(ReadThresholds(tuple(fields["thresholds"])), tuple(fields["counts"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_estimate(args) -> int:
    params, policy = _load_settings(args)
    outputs = []

    if args.hist:
        try:
            hist = _read_histogram_file(Path(args.hist))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
    elif args.seed is None:
        print("error: --seed is required with --simulate", file=sys.stderr)
        return EXIT_USAGE

    try:
        if not args.hist:
            state = WearState(v_acc=args.v_acc, cycles=0, alpha=args.alpha)
            levels = scaled_levels(params.base_levels, args.alpha, policy.scale_erased)
            thresholds = default_read_thresholds(levels, per_gap=args.per_gap)
            pop = simulate_population(
                args.simulate, state, args.t, params, args.seed, policy.scale_erased
            )
            hist = build_histogram(pop.reads, thresholds)
        est = fit_wear_state(
            hist,
            params,
            alpha=args.alpha,
            t_known=args.t_known,
            scale_erased=policy.scale_erased,
        )
        llrs = (
            bin_llrs(est, params, args.alpha, hist.thresholds, scale_erased=policy.scale_erased)
            if args.llr_out
            else None
        )
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # standard errors of log1p(v_acc_hat) and log1p(t_hat); t_known is exact
    se_log_v_acc = est.log_cov[0][0] ** 0.5
    se_log_t = 0.0 if args.t_known is not None else est.log_cov[1][1] ** 0.5
    print(
        f"v_acc_hat={est.v_acc_hat:.4f}, t_hat={est.t_hat:.4f}, "
        f"capacity_hat={est.capacity_hat:.4f}, converged={est.converged}, "
        f"se_log_v_acc={se_log_v_acc:.4g}, se_log_t={se_log_t:.4g}"
    )

    if llrs is not None:
        rows = ["bin_index,llr_bit0,llr_bit1"]
        rows += [
            f"{b},{llrs[b, 0]:.6f},{llrs[b, 1]:.6f}" for b in range(len(llrs))
        ]
        Path(args.llr_out).write_text("\n".join(rows) + "\n")
        outputs.append(args.llr_out)

    values = _resolved_values(params, policy)
    values.update(
        {"v_acc": args.v_acc, "t": args.t, "alpha": args.alpha, "per_gap": args.per_gap,
         "t_known": args.t_known}
    )
    if args.hist:
        values["hist"] = args.hist
    else:
        values["simulate"] = args.simulate
    manifest = Path(args.llr_out or "estimate").with_suffix(".manifest")
    _write_manifest("estimate", values, args.seed, outputs, manifest)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashlife",
        description="Flash read-channel capacity, dynamic voltage "
        "allocation and wear estimation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key-value configuration file")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    common.add_argument("--seed", type=int, default=None, help="RNG seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "capacity-sweep",
        parents=[common],
        help="fixed vs dynamic capacity trajectory CSV",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_capacity_sweep)

    p = sub.add_parser("lifetime", parents=[common], help="lifetime comparison")
    p.add_argument(
        "--mode", choices=["fixed", "dynamic", "both"], default="both"
    )
    p.add_argument("--out", help="trajectory CSV path (suffixed per mode)")
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser(
        "estimate", parents=[common], help="wear-state fit from a histogram"
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--hist", help="histogram file (thresholds:/counts: lines)")
    src.add_argument(
        "--simulate", type=int, metavar="N_CELLS", help="simulate a population"
    )
    p.add_argument("--v-acc", dest="v_acc", type=float, default=8295.0,
                   help="true accumulated voltage for --simulate")
    p.add_argument("--t", type=float, default=8760.0,
                   help="true retention time (hours) for --simulate")
    p.add_argument("--alpha", type=float, default=1.0, help="written scale factor")
    p.add_argument("--t-known", dest="t_known", type=float, default=None,
                   help="fix retention time instead of fitting it")
    p.add_argument("--per-gap", dest="per_gap", type=int, default=3,
                   help="read thresholds per level gap")
    p.add_argument("--llr-out", dest="llr_out", help="write per-bin LLR CSV here")
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
