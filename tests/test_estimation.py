"""Wear-state estimation tests: histograms, multinomial likelihood fit,
and per-bin LLRs."""

import math

import numpy as np
import pytest
from scipy import stats

from flashlife import estimation
from flashlife.channel import (
    DeviceParams,
    _cdf_sf,
    _level_moments,
    WearState,
    conditional_cdf,
    conditional_sf,
    default_device_params,
    level_noise_spec,
    retention_moments,
    scaled_levels,
)
from flashlife.estimation import (
    GRAY_LABELS_4,
    Histogram,
    InsufficientDataError,
    ReadThresholds,
    WearEstimate,
    bin_llrs,
    bin_probabilities,
    build_histogram,
    default_read_thresholds,
    fit_wear_state,
    simulate_population,
)
from flashlife.estimation import _bin_probability_grid, _log_likelihood


def reference_bin_probabilities(state, t, params, thresholds, scale_erased=True):
    """Per-level, per-point bin probabilities from conditional_cdf and
    conditional_sf: the oracle for the batched kernel."""
    edges = np.array(thresholds.thresholds)
    rows = []
    for i in range(params.num_levels):
        spec = level_noise_spec(i, state, t, params, scale_erased)
        cdf = np.concatenate(([0.0], conditional_cdf(edges, spec), [1.0]))
        sf = np.concatenate(([1.0], conditional_sf(edges, spec), [0.0]))
        above = np.concatenate((edges >= spec.mu, [True]))
        rows.append(np.maximum(np.where(above, -np.diff(sf), np.diff(cdf)), 0.0))
    return np.vstack(rows)


def round_trip_histogram(params, seed=22):
    thr = default_read_thresholds(params.base_levels)
    pop = simulate_population(100_000, WearState(8295.0, 1, 1.0), 8760.0, params, seed)
    return build_histogram(pop.reads, thr)


def symmetric_device() -> DeviceParams:
    """Device with matched level noise, for exact-symmetry LLR checks."""
    return DeviceParams(
        a_w=1.8e-4,
        c_w=1.26e-3,
        k1=0.62,
        a_r=7.0e-4,
        b_r=4.76e-3,
        k2=0.3,
        v_max=16.0,
        t0=1.0,
        sigma_p=0.05,
        sigma_e=0.051,
        num_levels=4,
        base_levels=(0.0, 2.0, 4.0, 6.0),
    )


class TestReadThresholds:
    def test_defaults(self, params):
        thr = default_read_thresholds(params.base_levels)
        expected = [3.6, 4.0, 4.4, 5.6, 5.8, 6.0,
                    6.886666666666667, 7.13, 7.373333333333333]
        assert np.allclose(thr.thresholds, expected)
        assert thr.num_bins == 10

    def test_per_gap_one_is_midpoints(self, params):
        thr = default_read_thresholds(params.base_levels, per_gap=1)
        assert np.allclose(thr.thresholds, (4.0, 5.8, 7.13))

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadThresholds(())
        with pytest.raises(ValueError):
            ReadThresholds((1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            ReadThresholds((3.5, math.nan, 6.0))
        with pytest.raises(ValueError, match="finite"):
            ReadThresholds((3.5, 6.0, math.inf))
        with pytest.raises(ValueError):
            default_read_thresholds([1.0, 0.5])


class TestHistogram:
    def test_build_counts_everything(self, params):
        thr = default_read_thresholds(params.base_levels)
        pop = simulate_population(50_000, WearState(0.0, 0, 1.0), 0.0, params, seed=3)
        hist = build_histogram(pop.reads, thr)
        assert hist.total == 50_000

    def test_bin_assignment(self):
        thr = ReadThresholds((1.0, 2.0))
        hist = build_histogram([0.5, 1.0, 1.5, 2.5], thr)
        # bins are (-inf, 1], (1, 2], (2, inf)
        assert hist.counts == (2, 1, 1)

    def test_validation(self):
        thr = ReadThresholds((1.0,))
        with pytest.raises(ValueError):
            Histogram(thr, (1, 2, 3))
        with pytest.raises(ValueError):
            Histogram(thr, (1, -1))


class TestSimulatePopulation:
    def test_deterministic(self, params):
        state = WearState(0.0, 0, 1.0)
        a = simulate_population(1000, state, 0.0, params, seed=11)
        b = simulate_population(1000, state, 0.0, params, seed=11)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.reads, b.reads)

    def test_levels_uniform(self, params):
        pop = simulate_population(100_000, WearState(0.0, 0, 1.0), 0.0, params, seed=5)
        counts = np.bincount(pop.levels, minlength=4)
        assert stats.chisquare(counts).pvalue > 1e-4

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_time(self, params, t):
        with pytest.raises(ValueError, match="t must be finite"):
            simulate_population(100, WearState(0.0, 0, 1.0), t, params, seed=1)

    def test_reads_track_levels(self, params):
        pop = simulate_population(100_000, WearState(0.0, 0, 1.0), 0.0, params, seed=5)
        for i, mu in enumerate(params.base_levels):
            sel = pop.reads[pop.levels == i]
            assert sel.mean() == pytest.approx(mu, abs=0.01)


class TestBinProbabilities:
    def test_rows_sum_to_one(self, params):
        thr = default_read_thresholds(params.base_levels)
        probs = bin_probabilities(WearState(8295.0, 3000, 1.0), 8760.0, params, thr)
        assert probs.shape == (4, 10)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_matches_empirical_frequencies(self, params):
        thr = default_read_thresholds(params.base_levels)
        state = WearState(0.0, 0, 1.0)
        probs = bin_probabilities(state, 0.0, params, thr)
        pop = simulate_population(400_000, state, 0.0, params, seed=9)
        for i in range(4):
            reads = pop.reads[pop.levels == i]
            emp = build_histogram(reads, thr)
            freq = np.array(emp.counts) / emp.total
            np.testing.assert_allclose(freq, probs[i], atol=0.005)

    def test_tail_bins_resolved(self, params):
        # bins far above the erased level: tiny but strictly positive
        thr = default_read_thresholds(params.base_levels)
        probs = bin_probabilities(WearState(0.0, 0, 1.0), 0.0, params, thr)
        assert 0 < probs[0, -1] < 1e-20


    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_time(self, params, t):
        thr = default_read_thresholds(params.base_levels)
        with pytest.raises(ValueError, match="t must be finite"):
            bin_probabilities(WearState(0.0, 0, 1.0), t, params, thr)


@pytest.fixture
def kernel_points(monkeypatch):
    """Points per call of the bin-probability kernel, in call order."""
    points = []
    kernel = estimation._bin_probability_grid

    def counting(v_acc, t, *args):
        points.append(np.broadcast(np.asarray(v_acc), np.asarray(t)).size)
        return kernel(v_acc, t, *args)

    monkeypatch.setattr(estimation, "_bin_probability_grid", counting)
    return points


KERNEL_V_ACC = (0.0, 1000.0, 8295.0, 20000.0)
KERNEL_TIMES = (0.0, 24.0, 8760.0, 87600.0)


class TestBinProbabilityKernel:
    @pytest.mark.parametrize("dense", [False, True], ids=["default", "dense"])
    @pytest.mark.parametrize("scale_erased", [True, False])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_matches_per_level_reference(self, params, alpha, scale_erased, dense):
        # 20000 V at 87600 h is past charge exhaustion: the drift exceeds
        # the programmed charge and pushes levels below the erased one
        assert retention_moments(1.0, 20000.0, 87600.0, params)[0] < -1.0
        # dense edges sit a few sigma from every level mean, where only the
        # right choice between CDF and SF differences keeps relative precision
        thr = (
            ReadThresholds(tuple(np.arange(0.5, 9.0, 0.1)))
            if dense
            else default_read_thresholds(
                scaled_levels(params.base_levels, alpha, scale_erased)
            )
        )
        grid = _bin_probability_grid(
            np.array(KERNEL_V_ACC)[:, None], np.array(KERNEL_TIMES)[None, :],
            alpha, params, np.array(thr.thresholds), scale_erased,
        )
        assert grid.shape == (4, 4, params.num_levels, thr.num_bins)
        for i, v in enumerate(KERNEL_V_ACC):
            state = WearState(v, int(v != 0), alpha)
            for j, t in enumerate(KERNEL_TIMES):
                ref = reference_bin_probabilities(state, t, params, thr, scale_erased)
                public = bin_probabilities(state, t, params, thr, scale_erased)
                for probs in (grid[i, j], public):
                    np.testing.assert_allclose(probs, ref, rtol=0, atol=1e-13)
                    # the far-tail bins the LLRs use, to relative precision
                    np.testing.assert_allclose(probs, ref, rtol=1e-9, atol=1e-300)

    @pytest.mark.parametrize("dense", [False, True], ids=["default", "dense"])
    @pytest.mark.parametrize("scale_erased", [True, False])
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_bin_differences_match_np_diff(self, params, alpha, scale_erased, dense):
        # the kernel's in-place bin differences, bit for bit against the
        # np.diff form with the end bins closed at certainty
        thr = (
            np.arange(0.5, 9.0, 0.1)
            if dense
            else np.array(default_read_thresholds(
                scaled_levels(params.base_levels, alpha, scale_erased)
            ).thresholds)
        )
        v_acc = np.array(KERNEL_V_ACC)[:, None, None]
        t = np.array(KERNEL_TIMES)[None, :, None]
        mu, sigma2, lam = _level_moments(v_acc, t, alpha, params, scale_erased)
        mu = mu[..., None]
        cdf, sf = _cdf_sf(thr, mu, np.sqrt(sigma2)[..., None], lam[..., None])
        lower = np.diff(cdf, prepend=0.0, append=1.0)
        upper = -np.diff(sf, prepend=1.0, append=0.0)
        ref = np.maximum(np.where(np.append(thr, np.inf) >= mu, upper, lower), 0.0)
        grid = _bin_probability_grid(v_acc[..., 0], t[..., 0], alpha, params, thr, scale_erased)
        assert grid.shape == ref.shape == (4, 4, params.num_levels, len(thr) + 1)
        assert np.array_equal(grid, ref)

    def test_grid_log_likelihood_matches_pointwise(self, params):
        hist = round_trip_histogram(params)
        v = np.array([0.0, 10.0, 1000.0, 8295.0, 1e5])
        t = np.array([0.0, 0.1, 24.0, 8760.0, 1e5])
        grid = _log_likelihood(hist, v[:, None], t[None, :], 1.0, params, True)
        assert grid.shape == (5, 5)
        for i, vi in enumerate(v):
            for j, tj in enumerate(t):
                point = _log_likelihood(hist, vi, tj, 1.0, params, True)
                assert isinstance(point, float)
                assert grid[i, j] == pytest.approx(point, rel=1e-12)

    def test_kernel_calls_per_fit(self, params, kernel_points):
        hist = round_trip_histogram(params)
        # the seed grid, then one stencil per Newton trial point
        fit_wear_state(hist, params, t_known=8760.0)
        assert kernel_points[0] == 26 and set(kernel_points[1:]) == {3}
        assert len(kernel_points) <= 20
        kernel_points.clear()
        fit_wear_state(hist, params)
        assert kernel_points[0] == 26 * 21 and set(kernel_points[1:]) == {9}
        assert len(kernel_points) <= 50


class TestFitWearState:
    def test_round_trip_t_known(self, params):
        true_state = WearState(8295.0, 3000, 1.0)
        thr = default_read_thresholds(params.base_levels)
        pop = simulate_population(200_000, true_state, 8760.0, params, seed=21)
        hist = build_histogram(pop.reads, thr)
        est = fit_wear_state(hist, params, t_known=8760.0)
        assert est.converged
        assert est.t_hat == 8760.0
        assert abs(est.v_acc_hat - 8295.0) / 8295.0 < 0.05
        assert est.capacity_hat == pytest.approx(1.902, abs=0.01)

    def test_fresh_device(self, params):
        thr = default_read_thresholds(params.base_levels)
        pop = simulate_population(
            100_000, WearState(0.0, 0, 1.0), 0.0, params, seed=2
        )
        hist = build_histogram(pop.reads, thr)
        est = fit_wear_state(hist, params, t_known=0.0)
        assert est.v_acc_hat < 300.0

    def test_fresh_device_ends_at_bound(self, params):
        thr = default_read_thresholds(params.base_levels)
        pop = simulate_population(100_000, WearState(0.0, 0, 1.0), 0.0, params, seed=2)
        hist = build_histogram(pop.reads, thr)
        # V_acc = 0 with the gradient pointing out of the box meets the
        # KKT condition; the one-sided Hessian there gives no covariance
        known = fit_wear_state(hist, params, t_known=0.0)
        assert known.v_acc_hat == 0.0 and known.converged
        assert math.isinf(known.log_cov[0][0])
        # at V_acc = 0 the retention time changes no read, so the joint fit
        # has no negative-definite Hessian to report
        joint = fit_wear_state(hist, params)
        assert joint.v_acc_hat < 300.0
        assert not joint.converged
        assert math.isinf(joint.log_cov[1][1])

    def test_joint_fit_recovers_effective_drift(self, params):
        # v_acc and t are only jointly identified through the product
        # ln(1+t/t0)*B(v_acc); check that product instead of each factor
        true_state = WearState(8295.0, 3000, 1.0)
        thr = default_read_thresholds(params.base_levels)
        pop = simulate_population(200_000, true_state, 8760.0, params, seed=22)
        hist = build_histogram(pop.reads, thr)
        est = fit_wear_state(hist, params)

        def drift(v, t):
            return retention_moments(1.0, v, t, params)[0]

        assert drift(est.v_acc_hat, est.t_hat) == pytest.approx(
            drift(8295.0, 8760.0), rel=0.05
        )
        assert est.capacity_hat == pytest.approx(1.902, abs=0.05)

    def test_likelihood_value_is_multinomial(self, params):
        thr = default_read_thresholds(params.base_levels)
        state = WearState(8295.0, 3000, 1.0)
        pop = simulate_population(50_000, state, 8760.0, params, seed=4)
        hist = build_histogram(pop.reads, thr)
        est = fit_wear_state(hist, params, t_known=8760.0)
        probs = bin_probabilities(
            WearState(est.v_acc_hat, 1, 1.0), 8760.0, params, thr
        )
        mix = probs.mean(axis=0)
        expected = float(np.dot(hist.counts, np.log(np.maximum(mix, 1e-300))))
        assert est.log_likelihood == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [{"t_known": -1.0}, {"t_known": math.nan}, {"t_known": math.inf},
         {"alpha": 2.0}, {"alpha": 0.0}, {"alpha": math.nan}],
    )
    def test_rejects_invalid_arguments(self, params, kwargs):
        hist = Histogram(ReadThresholds((4.0, 5.8, 7.13)), (100, 100, 100, 100))
        with pytest.raises(ValueError) as info:
            fit_wear_state(hist, params, **kwargs)
        assert not isinstance(info.value, InsufficientDataError)

    def test_insufficient_data(self, params):
        thr = ReadThresholds((4.0, 5.8, 7.13))
        hist = Histogram(thr, (10, 10, 10, 10))
        with pytest.raises(InsufficientDataError):
            fit_wear_state(hist, params)


# The (alpha, V_acc, t) cases of the benchmark's estimate workload.
WORKLOAD_CASES = [
    (a, v, t) for a in (1.0, 0.5) for v in (1000.0, 8295.0, 20000.0) for t in (24.0, 8760.0)
]


def workload_histogram(params, alpha, v_acc, t, seed):
    thr = default_read_thresholds(scaled_levels(params.base_levels, alpha))
    pop = simulate_population(100_000, WearState(v_acc, 1, alpha), t, params, seed)
    return build_histogram(pop.reads, thr)


class TestFitQuality:
    @pytest.mark.parametrize("seed", [3, 5])
    @pytest.mark.parametrize("alpha, v_acc, t", WORKLOAD_CASES)
    def test_joint_fit_reaches_maximum(self, params, kernel_points, alpha, v_acc, t, seed):
        # on the (V_acc, t) ridge the old coordinate descent stopped up to
        # 637 nats below the truth and still reported convergence
        hist = workload_histogram(params, alpha, v_acc, t, seed)
        joint = fit_wear_state(hist, params, alpha=alpha)
        # without a second step from a rejected trial point the ridge
        # cases take up to 45 calls
        assert len(kernel_points) <= 30
        kernel_points.clear()
        known = fit_wear_state(hist, params, alpha=alpha, t_known=t)
        assert len(kernel_points) <= 8
        assert joint.converged and known.converged
        assert joint.log_likelihood >= _log_likelihood(hist, v_acc, t, alpha, params, True)
        # each fit ends within its Newton decrement of its own maximum
        assert joint.log_likelihood >= known.log_likelihood - estimation.DECREMENT_TOL
        assert len(joint.log_cov) == 2 and len(known.log_cov) == 1

    def test_standard_error_matches_spread(self, params):
        # the observed Fisher information predicts the seed-to-seed spread
        fits = [
            fit_wear_state(
                workload_histogram(params, 1.0, 8295.0, 8760.0, seed), params, t_known=8760.0
            )
            for seed in range(100, 120)
        ]
        spread = np.std([math.log1p(e.v_acc_hat) for e in fits], ddof=1)
        se = np.median([math.sqrt(e.log_cov[0][0]) for e in fits])
        assert 1 / 1.5 < spread / se < 1.5

    def test_covariance_is_inverse_negative_hessian(self, params):
        hist = round_trip_histogram(params)
        est = fit_wear_state(hist, params)
        cov = np.array(est.log_cov)
        assert cov[0, 0] > 0 and cov[1, 1] > 0
        assert np.linalg.det(cov) > 0
        # an independent pointwise second difference at the end point
        h = 3e-5
        z = np.log1p([est.v_acc_hat, est.t_hat])

        def ll(dv, dt):
            v, t = np.expm1(z + h * np.array([dv, dt]))
            return _log_likelihood(hist, v, t, 1.0, params, True)

        hvv = (ll(1, 0) - 2 * ll(0, 0) + ll(-1, 0)) / h**2
        htt = (ll(0, 1) - 2 * ll(0, 0) + ll(0, -1)) / h**2
        hvt = (ll(1, 1) - ll(1, -1) - ll(-1, 1) + ll(-1, -1)) / (4 * h**2)
        fisher = -np.array([[hvv, hvt], [hvt, htt]])
        np.testing.assert_allclose(cov, np.linalg.inv(fisher), rtol=0.02)


class TestBinLlrs:
    def estimate_at(self, v_acc, t):
        return WearEstimate(
            v_acc_hat=v_acc, t_hat=t, log_likelihood=0.0,
            capacity_hat=0.0, converged=True,
        )

    def test_shape_and_finiteness(self, params):
        thr = default_read_thresholds(params.base_levels)
        llrs = bin_llrs(self.estimate_at(8295.0, 8760.0), params, 1.0, thr)
        assert llrs.shape == (10, 2)
        assert np.all(np.isfinite(llrs))

    def test_sign_tracks_dominant_level(self, params):
        thr = default_read_thresholds(params.base_levels)
        llrs = bin_llrs(self.estimate_at(0.0, 0.0), params, 1.0, thr)
        # lowest bin is erased-level territory: Gray label "11" -> both
        # bits favour 1 (negative LLR); top bin is level 3 ("01")
        assert llrs[0, 0] < 0 and llrs[0, 1] < 0
        assert llrs[-1, 0] > 0 and llrs[-1, 1] < 0

    def test_midpoint_symmetry_on_symmetric_device(self):
        dev = symmetric_device()
        thr = ReadThresholds((4.9, 5.1))
        est = self.estimate_at(0.0, 0.0)
        llrs = bin_llrs(est, dev, 1.0, thr)
        # bit 1 separates {levels 0,3} from {1,2}; levels 2 and 3 put
        # exactly mirrored mass in the middle bin straddling their
        # midpoint and levels 0,1 are dozens of sigma away, so that bin
        # is perfectly ambiguous for bit 1
        assert llrs[1, 1] == pytest.approx(0.0, abs=1e-9)
        # same bin is decisive for bit 0 ({2,3} vs {0,1})
        assert llrs[1, 0] > 100.0

    def test_gray_default_labels(self):
        assert GRAY_LABELS_4 == ("11", "10", "00", "01")

    def test_label_validation(self, params):
        thr = default_read_thresholds(params.base_levels)
        est = self.estimate_at(0.0, 0.0)
        with pytest.raises(ValueError):
            bin_llrs(est, params, 1.0, thr, labels=("0", "1"))
        with pytest.raises(ValueError):
            bin_llrs(est, params, 1.0, thr, labels=("00", "01", "10", "1"))

    def test_consistent_with_bin_probabilities(self, params):
        thr = default_read_thresholds(params.base_levels)
        est = self.estimate_at(8295.0, 8760.0)
        llrs = bin_llrs(est, params, 1.0, thr)
        probs = bin_probabilities(WearState(8295.0, 1, 1.0), 8760.0, params, thr)
        # first bit: 0 for levels 2,3 ("00","01"), 1 for levels 0,1
        num = probs[2] + probs[3]
        den = probs[0] + probs[1]
        ok = (num > 1e-280) & (den > 1e-280)
        np.testing.assert_allclose(
            llrs[ok, 0], np.log(num[ok]) - np.log(den[ok]), rtol=1e-9
        )
