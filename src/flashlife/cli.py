"""Command-line front end.

Three subcommands tie the library into reproducible experiments:

  capacity-sweep  fixed vs dynamic capacity trajectories as CSV
  lifetime        lifetime in P/E cycles for both policies
  estimate        wear-state fit from a histogram file or a simulated read

Every run is deterministic given its configuration, plus the seed of
estimate --simulate, and writes one flat key-value manifest at
<stem>.manifest, the stem being its output path (--out, --llr-out) or,
without one, the command name. Exit codes: 0 success, 2 usage or config
error, 3 data error, 4 numerical failure; main alone maps an exception to
its code.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .allocation import PolicyConfig, simulate_lifetime
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
            f"target_mi must be below log2 of the {params.num_levels} levels of "
            f"base_levels = {ceiling:g} bits, "
            f"got {policy.target_mi:g}"
        )
    return params, policy


def _manifest_path(stem, outputs, inputs) -> Path:
    """The run's manifest path, Path(stem).with_suffix(".manifest"), the
    stem being its output path or, without one, the command name. An
    output at that path, which the manifest would overwrite, is refused
    with ValueError, and so is an input file (None for one not given) at
    the path of an output or of the manifest, which the run would
    overwrite; the commands ask before any work."""
    manifest = Path(stem).with_suffix(".manifest")
    for out in outputs:
        if Path(out).resolve() == manifest.resolve():
            raise ValueError(
                f"output {out} is the run's manifest path; give it a suffix other than .manifest"
            )
    written = {Path(path).resolve() for path in [*outputs, manifest]}
    for path in inputs:
        if path is not None and Path(path).resolve() in written:
            raise ValueError(f"input {path} is also a file the run writes; give it another path")
    return manifest


def _write_manifest(args, params, policy, outputs: list[str], manifest: Path, **extra):
    """Write the run's record to its _manifest_path: the command, the
    version, the seed where the command takes one, every device and policy
    setting but the policy mode, the command's extra values (a command
    that runs a policy passes the mode that ran and the MIs each mode's
    run took, as mi_evaluations_<mode>) and the outputs."""
    lines = [f"command = {args.command}", f"version = {__version__}"]
    if "seed" in args:
        lines.append(f"seed = {args.seed}")
    values = {**asdict(params), **asdict(policy)}
    del values["mode"]
    values["base_levels"] = ",".join(f"{v:g}" for v in params.base_levels)
    values.update(extra)
    lines += [f"{k} = {v}" for k, v in sorted(values.items())]
    lines += [f"output = {o}" for o in outputs]
    manifest.write_text("\n".join(lines) + "\n")


def cmd_capacity_sweep(args) -> int:
    out_path = Path(args.out)
    manifest = _manifest_path(out_path, [out_path], [args.config])
    params, policy = _load_policy_settings(args)
    rows = ["cycle,capacity_fixed,capacity_dynamic,alpha_dynamic"]
    fixed, dynamic = (
        simulate_lifetime(params, replace(policy, mode=m), stop_below_threshold=False)
        for m in ("fixed", "dynamic")
    )
    for cpf, cpd in zip(fixed.checkpoints[1:], dynamic.checkpoints[1:]):
        rows.append(
            f"{cpf.cycle},{cpf.capacity_bits:.6f},"
            f"{cpd.capacity_bits:.6f},{cpd.alpha:.6f}"
        )
    mis = {"mi_evaluations_fixed": fixed.mi_evaluations,
           "mi_evaluations_dynamic": dynamic.mi_evaluations}
    out_path.write_text("\n".join(rows) + "\n")
    _write_manifest(args, params, policy, [str(out_path)], manifest, mode="both", **mis)
    return EXIT_OK


def cmd_lifetime(args) -> int:
    modes = [args.mode] if args.mode in ("fixed", "dynamic") else ["fixed", "dynamic"]
    paths = {}
    if args.out:
        path = Path(args.out)
        paths = {
            mode: path if len(modes) == 1 else Path(f"{path.with_suffix('')}_{mode}.csv")
            for mode in modes
        }
    manifest = _manifest_path(args.out or args.command, paths.values(), [args.config])
    params, policy = _load_policy_settings(args)
    results = {}
    for mode in modes:
        results[mode] = simulate_lifetime(params, replace(policy, mode=mode))
        if args.out:
            rows = ["cycle,alpha,capacity_bits,v_acc"]
            rows += [
                f"{cp.cycle},{cp.alpha:.6f},{cp.capacity_bits:.6f},{cp.v_acc:.6f}"
                for cp in results[mode].checkpoints
            ]
            paths[mode].write_text("\n".join(rows) + "\n")
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
    outputs = [str(path) for path in paths.values()]
    mis = {f"mi_evaluations_{mode}": result.mi_evaluations for mode, result in results.items()}
    _write_manifest(args, params, policy, outputs, manifest, mode=args.mode, **mis)
    return EXIT_OK


class _DataError(ValueError):
    """A malformed histogram file, which main maps to a data error."""


def _read_histogram_file(path: Path) -> Histogram:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise _DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    fields = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise _DataError(f"{path}: line {lineno}: expected 'name: values'")
        name, raw = (part.strip() for part in line.split(":", 1))
        if name not in ("thresholds", "counts"):
            raise _DataError(f"{path}: line {lineno}: unknown field '{name}:'")
        if name in fields:
            raise _DataError(f"{path}: line {lineno}: repeated '{name}:' line")
        try:
            fields[name] = [float(v) for v in raw.split()]
        except ValueError:
            raise _DataError(f"{path}: line {lineno}: non-numeric value") from None
    if "thresholds" not in fields or "counts" not in fields:
        raise _DataError(f"{path}: need both 'thresholds:' and 'counts:' lines")
    try:
        return Histogram(ReadThresholds(tuple(fields["thresholds"])), tuple(fields["counts"]))
    except ValueError as exc:
        raise _DataError(f"{path}: {exc}") from None


def cmd_estimate(args) -> int:
    outputs = [args.llr_out] if args.llr_out else []
    manifest = _manifest_path(args.llr_out or args.command, outputs, [args.config, args.hist])
    params, policy = _load_settings(args)

    if args.hist:
        hist = _read_histogram_file(Path(args.hist))
    elif args.seed is None:
        print("error: --seed is required with --simulate", file=sys.stderr)
        return EXIT_USAGE
    else:
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

    source = {"hist": args.hist} if args.hist else {"simulate": args.simulate}
    _write_manifest(
        args, params, policy, outputs, manifest,
        v_acc=args.v_acc, t=args.t, alpha=args.alpha, per_gap=args.per_gap,
        t_known=args.t_known, **source,
    )
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
    p.add_argument("--out", help="trajectory CSV path (<stem>_<mode>.csv for both)")
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
    p.add_argument("--seed", type=int, default=None, help="RNG seed for --simulate")
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
    except (_DataError, InsufficientDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a request too large for the host, such as --simulate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
