"""CLI and configuration tests.

The slow end-to-end policies are covered in test_allocation.py and the
acceptance suite; here the lifetime/sweep commands run with max_cycles
capped so every test stays fast.
"""

import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flashlife
from flashlife.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from flashlife.allocation import PolicyConfig
from flashlife.channel import DeviceParams, WearState, default_device_params, scaled_levels
from flashlife.config import (
    ConfigError,
    apply_overrides,
    device_params_from,
    load_config,
    parse_config_text,
    policy_config_from,
)
from flashlife.estimation import (
    bin_llrs,
    build_histogram,
    default_read_thresholds,
    fit_wear_state,
    simulate_population,
)

# A valid non-default value for every DeviceParams and PolicyConfig field
# except the policy mode, which each command picks itself.
SETTABLE = {
    "a_w": 2e-4, "c_w": 1.3e-3, "k1": 0.6, "a_r": 8e-4, "b_r": 5e-3, "k2": 0.25,
    "v_max": 15.0, "t0": 2.0, "sigma_p": 0.06, "sigma_e": 0.3, "num_levels": 4,
    "base_levels": (2.5, 5.0, 6.5, 8.0),
    "target_mi": 1.95, "capacity_threshold": 1.85, "adjust_period": 50,
    "retention_time": 24.0, "max_cycles": 0, "scale_erased": False,
}
DEFAULT_CONF = pathlib.Path(__file__).parent.parent / "params" / "default.conf"


class TestConfigParsing:
    def test_basic(self):
        values = parse_config_text(
            "# comment\n"
            "sigma_p = 0.06\n"
            "max_cycles = 500  # trailing comment\n"
            "\n"
            "base_levels = 2.8, 5.2, 6.4, 7.86\n"
            "scale_erased = false\n"
        )
        assert values["sigma_p"] == 0.06
        assert values["max_cycles"] == 500
        assert values["base_levels"] == (2.8, 5.2, 6.4, 7.86)
        assert values["scale_erased"] is False

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config_text("bogus = 1\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="sigma_p"):
            parse_config_text("sigma_p = fast\n")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("sigma_p = 0.06\nnonsense\n")

    def test_overrides(self):
        values = apply_overrides({"sigma_p": 0.05}, ["sigma_p=0.07", "max_cycles=9"])
        assert values == {"sigma_p": 0.07, "max_cycles": 9}
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])

    def test_device_and_policy_builders(self):
        params = device_params_from({"sigma_p": 0.06})
        assert params.sigma_p == 0.06
        assert params.sigma_e == 0.35  # default preserved
        policy = policy_config_from({"max_cycles": 42})
        assert policy.max_cycles == 42
        with pytest.raises(ConfigError):
            device_params_from({"sigma_p": 0.5})  # violates sigma_e > sigma_p
        with pytest.raises(ConfigError, match="unknown configuration key 'mode'"):
            apply_overrides({}, ["mode=warp"])

    def test_default_config_file_matches_builtin_defaults(self):
        values = load_config(DEFAULT_CONF)
        assert device_params_from(values) == default_device_params()
        assert policy_config_from(values) == PolicyConfig()

    def test_every_field_settable(self, tmp_path, monkeypatch):
        names = [
            f.name
            for cls in (DeviceParams, PolicyConfig)
            for f in fields(cls)
            if f.name != "mode"
        ]
        assert sorted(SETTABLE) == sorted(names)
        overrides = [
            f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
            for k, v in SETTABLE.items()
        ]
        values = apply_overrides({}, overrides)
        params, policy = device_params_from(values), policy_config_from(values)
        for name, want in SETTABLE.items():
            got = getattr(params, name) if hasattr(params, name) else getattr(policy, name)
            assert got == want, name
        monkeypatch.chdir(tmp_path)
        argv = ["capacity-sweep", "--out", str(tmp_path / "sweep.csv")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_OK
        manifest = (tmp_path / "sweep.csv.manifest").read_text().splitlines()
        assert "base_levels = 2.5,5,6.5,8" in manifest
        assert "scale_erased = False" in manifest

    def test_default_config_file_loads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["estimate", "--config", str(DEFAULT_CONF),
             "--simulate", "5000", "--v-acc", "0", "--t", "0",
             "--t-known", "0", "--seed", "1"]
        )
        assert rc == EXIT_OK


class TestLifetimeCommand:
    def test_both_modes_output(self, tmp_path, capsys):
        out = tmp_path / "traj"
        rc = main(
            ["lifetime", "--set", "max_cycles=200", "--out", str(out)]
        )
        assert rc == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.startswith("lifetime_fixed=")
        assert "lifetime_dynamic=" in line and "improvement=" in line
        fixed_csv = (tmp_path / "traj_fixed.csv").read_text().splitlines()
        assert fixed_csv[0] == "cycle,alpha,capacity_bits,v_acc"
        assert len(fixed_csv) > 1
        manifest = (tmp_path / "traj.manifest").read_text()
        assert "command = lifetime" in manifest
        assert "max_cycles = 200" in manifest

    def test_single_mode(self, tmp_path, capsys):
        rc = main(
            ["lifetime", "--mode", "fixed", "--set", "max_cycles=200",
             "--out", str(tmp_path / "f.csv")]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "lifetime_fixed=200"

    @pytest.mark.parametrize("mode", ["fixed", "dynamic", "both"])
    def test_manifest_records_mode_run(self, tmp_path, mode):
        # the config's policy says dynamic; the manifest must say what ran
        out = tmp_path / "traj.csv"
        rc = main(["lifetime", "--mode", mode, "--set", "max_cycles=200", "--out", str(out)])
        assert rc == EXIT_OK
        manifest = (tmp_path / "traj.manifest").read_text().splitlines()
        assert [line for line in manifest if line.startswith("mode =")] == [f"mode = {mode}"]

    @pytest.mark.parametrize("base_levels", ["0,1e200", "0,1e300", "-1e200,0"])
    def test_vast_level_gap_solves_without_warning(self, base_levels, tmp_path, capsys):
        # two levels so far apart that squares of the read overflow: the
        # dynamic solve must stay clear of numpy's RuntimeWarning, which
        # the suite turns into an error, as the fixed run does
        rc = main(
            ["lifetime", "--mode", "dynamic", "--set", f"base_levels={base_levels}",
             "--set", "num_levels=2", "--set", "target_mi=0.95",
             "--set", "capacity_threshold=0.9", "--out", str(tmp_path / "d.csv")]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "lifetime_dynamic=0"

    @pytest.mark.parametrize(
        "period, printed",
        [
            (4000, "lifetime_fixed=0, lifetime_dynamic=4000, improvement=inf%"),
            (20000, "lifetime_fixed=0, lifetime_dynamic=0, improvement=n/a"),
        ],
    )
    def test_improvement_over_zero_fixed_lifetime(self, period, printed, tmp_path, capsys):
        # the fixed policy fails its first adjustment; the dynamic one either
        # outlives it, an unbounded gain, or fails too, where 0/0 has no value
        rc = main(
            ["lifetime", "--set", f"adjust_period={period}", "--out", str(tmp_path / "l")]
        )
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == printed

    def test_config_error_exit_code(self, capsys):
        rc = main(["lifetime", "--set", "bogus=1"])
        assert rc == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["target_mi=nan", "capacity_threshold=nan", "retention_time=inf",
         "retention_time=-5"],
    )
    def test_invalid_policy_value_is_usage_error(self, override, capsys):
        rc = main(["lifetime", "--set", override])
        assert rc == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            ["target_mi=2.0"],
            ["target_mi=2.5", "capacity_threshold=2.1"],
            ["num_levels=2", "base_levels=2.8,7.86"],
        ],
    )
    @pytest.mark.parametrize(
        "command", [["lifetime"], ["capacity-sweep", "--out", "sweep.csv"]], ids=lambda c: c[0]
    )
    def test_unreachable_target_is_usage_error(
        self, command, overrides, capsys, monkeypatch, tmp_path
    ):
        # capacity stays below log2 L bits, so no alpha reaches such a target:
        # refused before anything runs or is written
        monkeypatch.chdir(tmp_path)
        argv = list(command)
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: target_mi must be below log2(num_levels)")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("override", ["alpha_min=0.1", "alpha_tol=1e-3", "mode=fixed"])
    def test_removed_key_is_usage_error(self, override, capsys):
        rc = main(["lifetime", "--set", override])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_missing_config_file_is_data_error(self, capsys, tmp_path):
        # an input file that is missing or cannot be read is a data error;
        # a configuration that is not UTF-8 text is a config error
        not_utf8 = tmp_path / "latin1.conf"
        not_utf8.write_bytes(b"v_max = 16\n# \xff\xfe\n")
        cases = [
            (["lifetime", "--config", "/nonexistent/x.conf"], EXIT_DATA, "error: "),
            (["lifetime", "--config", str(tmp_path)], EXIT_DATA, "error: "),
            (["estimate", "--hist", str(tmp_path)], EXIT_DATA, "error: "),
            (["lifetime", "--config", str(not_utf8)], EXIT_USAGE, "config error: "),
        ]
        for argv, code, prefix in cases:
            assert main(argv) == code
            err = capsys.readouterr().err
            assert err.startswith(prefix) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lifetime", "--set", "v_max=1e-300"],
            ["capacity-sweep", "--out", "sweep.csv", "--set", "a_r=1e300"],
            ["estimate", "--simulate", "2000", "--seed", "1", "--set", "sigma_e=1e300"],
            ["estimate", "--hist", "ok.hist", "--set", "sigma_e=1e300"],
            ["lifetime", "--set", "a_w=1e308"],
            ["capacity-sweep", "--out", "sweep.csv", "--set", "a_r=1e308"],
            ["lifetime", "--set", "sigma_p=1e-200", "--set", "sigma_e=1e-199"],
            ["estimate", "--simulate", "2000", "--seed", "1", "--set", "a_w=1e308"],
        ],
    )
    def test_overflowing_setting_is_numerical_failure(
        self, argv, capsys, monkeypatch, tmp_path
    ):
        # finite settings whose squares leave the float range
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.hist").write_text(
            "thresholds: 3.5 5.8 7.13\ncounts: 100 100 100 100\n"
        )
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    # bracket**2 leaves the float range at cycle 1000, after the fixed
    # policy's capacity falls below the threshold at cycle 100
    LATE_OVERFLOW = [
        "--set", "a_r=5.5e152", "--set", "a_w=5.5e150", "--set", "retention_time=1",
        "--set", "capacity_threshold=1.999", "--set", "target_mi=1.9995",
    ]

    def test_run_that_stops_before_a_refused_state(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["lifetime", "--mode", "fixed"] + self.LATE_OVERFLOW) == EXIT_OK
        out = capsys.readouterr()
        assert (out.out, out.err) == ("lifetime_fixed=0\n", "")

    def test_run_to_max_cycles_reaches_the_refused_state(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["capacity-sweep", "--out", "sweep.csv"] + self.LATE_OVERFLOW
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "numerical failure: the noise moments leave the float range\n"
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        from flashlife import cli
        from flashlife.infotheory import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("quadrature did not converge", 1e-3)

        monkeypatch.setattr(cli, "simulate_lifetime", boom)
        rc = main(["lifetime", "--mode", "fixed"])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestCapacitySweepCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["capacity-sweep", "--set", "max_cycles=300", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "cycle,capacity_fixed,capacity_dynamic,alpha_dynamic"
        assert len(lines) == 4  # cycles 100, 200, 300
        cycle, cf, cd, ad = lines[1].split(",")
        assert cycle == "100"
        assert 1.9 < float(cf) <= 2.0
        assert float(cd) == pytest.approx(1.92, abs=1e-3)
        assert 0 < float(ad) < 1
        # both policies ran, whatever the config's mode says
        assert "mode = both" in (tmp_path / "sweep.csv.manifest").read_text().splitlines()

    def test_zero_cycles_header_only(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["capacity-sweep", "--set", "max_cycles=0", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text().splitlines() == [
            "cycle,capacity_fixed,capacity_dynamic,alpha_dynamic"
        ]


class TestEstimateCommand:
    def test_simulate_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        llr = tmp_path / "llrs.csv"
        rc = main(
            ["estimate", "--simulate", "100000", "--v-acc", "8295",
             "--t", "8760", "--t-known", "8760", "--seed", "12",
             "--llr-out", str(llr)]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        v_hat = float(out.split("v_acc_hat=")[1].split(",")[0])
        cap_hat = float(out.split("capacity_hat=")[1].split(",")[0])
        assert abs(v_hat - 8295.0) / 8295.0 < 0.05
        assert cap_hat == pytest.approx(1.902, abs=0.01)
        llr_lines = llr.read_text().splitlines()
        assert llr_lines[0] == "bin_index,llr_bit0,llr_bit1"
        assert len(llr_lines) == 11  # 10 bins with per_gap=3
        assert (tmp_path / "llrs.manifest").exists()

    def test_prints_standard_errors(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        for extra, t_exact in (([], False), (["--t-known", "8760"], True)):
            rc = main(["estimate", "--simulate", "100000", "--seed", "12", *extra])
            assert rc == EXIT_OK
            out = capsys.readouterr().out
            se_v = float(out.split("se_log_v_acc=")[1].split(",")[0])
            se_t = float(out.split("se_log_t=")[1])
            assert 0 < se_v < 1
            assert (se_t == 0) if t_exact else (0 < se_t < 5)

    def test_manifest_records_source_and_t_known(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        manifests = []
        for t_known in ("8760", "24"):
            rc = main(["estimate", "--simulate", "2000", "--seed", "3", "--t-known", t_known])
            assert rc == EXIT_OK
            manifests.append((tmp_path / "estimate.manifest").read_text().splitlines())
        assert "t_known = 8760.0" in manifests[0] and "t_known = 24.0" in manifests[1]
        assert "simulate = 2000" in manifests[0]
        hist_file = tmp_path / "reads.hist"
        hist_file.write_text("thresholds: 4 5.8 7.13\ncounts: 100 100 100 100\n")
        rc = main(["estimate", "--hist", str(hist_file)])
        assert rc == EXIT_OK
        manifest = (tmp_path / "estimate.manifest").read_text().splitlines()
        assert f"hist = {hist_file}" in manifest and "t_known = None" in manifest
        assert not any(line.startswith("simulate =") for line in manifest)
        # estimate runs no voltage-allocation policy, so it records no mode
        for lines in (*manifests, manifest):
            assert not any(line.startswith("mode =") for line in lines)

    def test_simulate_requires_seed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        rc = main(["estimate", "--simulate", "1000"])
        assert rc == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_histogram_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from flashlife.channel import WearState, default_device_params
        from flashlife.estimation import (
            build_histogram,
            default_read_thresholds,
            simulate_population,
        )

        params = default_device_params()
        thr = default_read_thresholds(params.base_levels)
        pop = simulate_population(
            100_000, WearState(8295.0, 3000, 1.0), 8760.0, params, seed=8
        )
        hist = build_histogram(pop.reads, thr)
        hist_file = tmp_path / "reads.hist"
        hist_file.write_text(
            "# histogram dump\n"
            "thresholds: " + " ".join(str(v) for v in thr.thresholds) + "\n"
            "counts: " + " ".join(str(c) for c in hist.counts) + "\n"
        )
        rc = main(["estimate", "--hist", str(hist_file), "--t-known", "8760"])
        assert rc == EXIT_OK
        v_hat = float(capsys.readouterr().out.split("v_acc_hat=")[1].split(",")[0])
        assert abs(v_hat - 8295.0) / 8295.0 < 0.05

    def test_malformed_histogram_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hist"
        bad.write_text("thresholds: 1 2 3\ncounts: a b c d\n")
        rc = main(["estimate", "--hist", str(bad)])
        assert rc == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_missing_counts_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.hist"
        bad.write_text("thresholds: 1 2 3\n")
        rc = main(["estimate", "--hist", str(bad)])
        assert rc == EXIT_DATA

    def test_insufficient_counts_is_data_error(self, tmp_path, capsys):
        small = tmp_path / "small.hist"
        small.write_text("thresholds: 4 5.8 7.13\ncounts: 5 5 5 5\n")
        rc = main(["estimate", "--hist", str(small)])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("thresholds", ["3.5 nan 6.0", "3.5 6.0 inf"])
    def test_non_finite_thresholds_are_data_error(self, tmp_path, capsys, thresholds):
        bad = tmp_path / "bad.hist"
        bad.write_text(f"thresholds: {thresholds}\ncounts: 100 100 100 100\n")
        rc = main(["estimate", "--hist", str(bad)])
        assert rc == EXIT_DATA
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts",
        ["100 inf 100 100", "100 1e400 100 100", "100 100.7 100 100", "nan 1 1 1"],
    )
    def test_non_integral_counts_are_data_error(self, tmp_path, capsys, counts):
        bad = tmp_path / "bad.hist"
        bad.write_text(f"thresholds: 3.5 5.8 7.13\ncounts: {counts}\n")
        rc = main(["estimate", "--hist", str(bad)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "whole numbers" in err

    def test_llrs_need_four_levels_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["estimate", "--simulate", "2000", "--seed", "1",
             "--set", "num_levels=3", "--set", "base_levels=2.8,5.2,6.4",
             "--llr-out", str(tmp_path / "llrs.csv")]
        )
        assert rc == EXIT_USAGE
        assert "label per level" in capsys.readouterr().err
        assert not (tmp_path / "llrs.csv").exists()

    def test_simulated_thresholds_follow_alpha(self, capsys, monkeypatch, tmp_path):
        # at alpha 0.5 the read thresholds must sit between the scaled
        # levels, not the full-swing ones
        monkeypatch.chdir(tmp_path)
        rc = main(["estimate", "--simulate", "100000", "--alpha", "0.5",
                   "--t-known", "8760", "--seed", "4"])
        assert rc == EXIT_OK
        v_hat = float(capsys.readouterr().out.split("v_acc_hat=")[1].split(",")[0])
        assert abs(v_hat - 8295.0) / 8295.0 < 0.02

    def test_llrs_follow_scale_erased(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "llrs.csv"
        rc = main(["estimate", "--simulate", "20000", "--alpha", "0.5",
                   "--t-known", "8760", "--seed", "4", "--set", "scale_erased=false",
                   "--llr-out", str(out)])
        assert rc == EXIT_OK
        got = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        params = default_device_params()
        thresholds = default_read_thresholds(scaled_levels(params.base_levels, 0.5, False))
        pop = simulate_population(
            20000, WearState(8295.0, 0, 0.5), 8760.0, params, 4, scale_erased=False
        )
        est = fit_wear_state(
            build_histogram(pop.reads, thresholds), params, alpha=0.5,
            t_known=8760.0, scale_erased=False,
        )
        want = bin_llrs(est, params, 0.5, thresholds, scale_erased=False)
        np.testing.assert_allclose(got, want, atol=1e-6)
        other = bin_llrs(est, params, 0.5, thresholds, scale_erased=True)
        assert np.max(np.abs(got - other)) > 1.0

    def test_estimate_deterministic(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["estimate", "--simulate", "20000", "--t-known", "8760",
                "--seed", "33"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first


def run_cli(*argv):
    """The CLI in a child process that imports the same flashlife as the
    tests."""
    src = str(pathlib.Path(flashlife.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "flashlife.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )


class TestEntryPoint:
    def test_console_script(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_usage_error_exit_code(self):
        assert run_cli("frobnicate").returncode == 2

    def test_non_finite_override_exit_code(self):
        proc = run_cli("lifetime", "--set", "target_mi=nan")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "setting", ["v_max=1e-300", "a_r=1e300", "sigma_p=1e-200 sigma_e=1e-199"]
    )
    @pytest.mark.parametrize("t_known", [[], ["--t-known", "8760"]])
    def test_overflowing_moments_fail_in_one_line(self, tmp_path, setting, t_known):
        # the wear fit's noise moments overflow, or sigma underflows to 0 at
        # V_acc = 0: exit 4 with one line on stderr and no RuntimeWarning
        # from the array kernels before it
        hist = tmp_path / "ok.hist"
        hist.write_text("thresholds: 3.5 5.8 7.13\ncounts: 100 100 100 100\n")
        overrides = [arg for item in setting.split() for arg in ("--set", item)]
        proc = run_cli("estimate", "--hist", str(hist), *overrides, *t_known)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["lifetime", "--mode", "fixed", "--set", "c_w=1e-300"],
        ["estimate", "--t-known", "8760", "--set", "c_w=1e-300"],
        ["estimate", "--t-known", "8760", "--set", "a_r=1e150"],
        ["estimate", "--set", "c_w=1e-300"],
    ])
    def test_ratio_beyond_kernel_range_fails_in_one_line(self, tmp_path, argv):
        # every noise moment is finite, but sigma/lambda overflows r^2 or
        # the kernel's exp(r^2/2 + lower): refused before any kernel warns
        hist = tmp_path / "ok.hist"
        hist.write_text("thresholds: 3.5 5.8 7.13\ncounts: 100 100 100 100\n")
        if argv[0] == "estimate":
            argv = [*argv, "--hist", str(hist)]
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.startswith("numerical failure: sigma/lambda")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["lifetime", "--mode", "fixed", "--set", "c_w=4e-6"],
        ["estimate", "--set", "c_w=4e-6"],
    ])
    def test_quadrature_failure_names_the_ratio(self, tmp_path, argv):
        # sigma/lambda = 8.75e4 passes the kernel's bound and the wear fit's,
        # but the MI quadrature cannot reach its tolerance there
        hist = tmp_path / "ok.hist"
        hist.write_text("thresholds: 3.5 5.8 7.13\ncounts: 100 100 100 100\n")
        if argv[0] == "estimate":
            argv = [*argv, "--hist", str(hist)]
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_NUMERICAL
        assert re.fullmatch(
            r"numerical failure: quadrature did not converge at sigma/lambda up to "
            r"8\.75e\+04 \(achieved tolerance \S+\)\n",
            proc.stderr,
        )


# Each option paired with values its command must reject as a usage error.
INVALID_ESTIMATE_ARGS = {
    "--simulate": ["0", "-3"],
    "--alpha": ["2", "0", "nan", "inf"],
    "--per-gap": ["0", "-1"],
    "--v-acc": ["-5", "nan", "inf"],
    "--t": ["-1", "nan", "inf"],
    "--t-known": ["-1", "nan", "inf"],
}
INVALID_OVERRIDES = [
    "a_w=nan", "c_w=inf", "c_w=0", "k1=nan", "v_max=inf", "t0=nan",
    "sigma_p=nan", "sigma_e=inf", "base_levels=2.8,nan,6.4,7.86",
    "target_mi=nan", "retention_time=-5", "num_levels=nan", "target_mi=2",
]
# Finite settings whose noise moments the float range cannot hold, each a
# whitespace-separated group of overrides: a numerical failure (exit 4).
OVERFLOWING_OVERRIDES = [
    "a_w=1e308", "a_r=1e308", "a_r=1e300", "c_w=1e308", "v_max=1e-300",
    "sigma_e=1e300", "sigma_p=1e-200 sigma_e=1e-199",
]
OVERFLOWING_COMMANDS = [
    ["lifetime", "--mode", "fixed"],
    ["lifetime", "--mode", "dynamic"],
    ["lifetime", "--mode", "both"],
    ["capacity-sweep", "--out", "sweep.csv"],
    ["estimate", "--simulate", "2000", "--seed", "1"],
    ["estimate", "--simulate", "2000", "--seed", "1", "--t-known", "8760"],
    ["estimate", "--hist", "ok.hist"],
    ["estimate", "--hist", "ok.hist", "--t-known", "8760"],
]


def invalid_option_vectors(options):
    pairs = st.sampled_from(sorted(options)).flatmap(
        lambda opt: st.tuples(st.just(opt), st.sampled_from(options[opt]))
    )
    return st.lists(pairs, min_size=1, max_size=3)


class TestInvalidArgumentsProperty:
    """Every argument vector holding an invalid value ends in a documented
    exit code with a one-line message, never in a traceback."""

    quick = settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )

    @quick
    @given(bad=invalid_option_vectors(INVALID_ESTIMATE_ARGS))
    def test_estimate(self, bad, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["estimate", "--simulate", "2000", "--seed", "1"]
        for opt, value in bad:
            argv += [opt, value]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @quick
    @given(
        overrides=st.lists(st.sampled_from(INVALID_OVERRIDES), min_size=1, max_size=3),
        mode=st.sampled_from(["fixed", "dynamic", "both"]),
    )
    def test_lifetime(self, overrides, mode, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["lifetime", "--mode", mode]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @quick
    @given(overrides=st.lists(st.sampled_from(INVALID_OVERRIDES), min_size=1, max_size=3))
    def test_capacity_sweep(self, overrides, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["capacity-sweep", "--out", "sweep.csv"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @quick
    @given(
        overrides=st.lists(st.sampled_from(OVERFLOWING_OVERRIDES), min_size=1, max_size=3),
        command=st.sampled_from(OVERFLOWING_COMMANDS),
    )
    def test_overflowing_settings(self, overrides, command, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.hist").write_text("thresholds: 3.5 5.8 7.13\ncounts: 100 100 100 100\n")
        argv = list(command)
        for item in " ".join(overrides).split():
            argv += ["--set", item]
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["ok.hist"]
