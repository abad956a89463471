"""Wear-state estimation tests: histograms, multinomial likelihood fit,
and per-bin LLRs."""

import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from flashlife import channel, estimation
from flashlife.infotheory import capacity_at
from flashlife.channel import (
    DeviceParams,
    _cdf_sf,
    _level_grid,
    _level_moments,
    WearState,
    default_device_params,
    level_noise_spec,
    retention_moments,
    scaled_levels,
)
from flashlife.estimation import (
    GRAY_LABELS_4,
    Histogram,
    InsufficientDataError,
    MAX_THRESHOLDS,
    ReadThresholds,
    WearEstimate,
    bin_llrs,
    bin_probabilities,
    build_histogram,
    default_read_thresholds,
    fit_wear_state,
    simulate_population,
)
from flashlife.estimation import (
    _bin_probability_grid,
    _log_mixture,
    _newton_step,
    _symmetric_eigen,
)


def reference_bin_probabilities(state, t, params, thresholds, scale_erased=True):
    """Per-level, per-point bin probabilities from the CDF and survival
    function of each level's spec on its own: the oracle for the batched
    kernel."""
    edges = np.array(thresholds.thresholds)
    rows = []
    for i in range(params.num_levels):
        spec = level_noise_spec(i, state, t, params, scale_erased)
        level_cdf, level_sf = _cdf_sf(edges, spec.mu, spec.sigma, spec.lam)
        cdf = np.concatenate(([0.0], level_cdf, [1.0]))
        sf = np.concatenate(([1.0], level_sf, [0.0]))
        above = np.concatenate((edges >= spec.mu, [True]))
        rows.append(np.maximum(np.where(above, -np.diff(sf), np.diff(cdf)), 0.0))
    return np.vstack(rows)


def multinomial_log_likelihood(hist, v_acc, t, alpha, params, scale_erased):
    """Multinomial log-likelihood of the counts, as the fit defines it; v_acc
    and t broadcast, and a single point gives a float."""
    edges = np.array(hist.thresholds.thresholds)
    counts = np.array(hist.counts, dtype=float)
    moments = _level_grid(v_acc, t, alpha, params, scale_erased)
    out = _log_mixture(edges, *moments) @ counts
    return out if out.ndim else float(out)


# The counts of a simulated 100k-cell read of a fresh device (V_acc = 0,
# t = 0) on the default read thresholds, at seeds 2 and 5 of the sampler
# of the time. The fresh-device tests hold the fit on these data, not on
# whatever histogram a seed gives the sampler's current stream.
FRESH_COUNTS_SEED_2 = (24748, 260, 7, 24973, 0, 0, 24981, 0, 0, 25031)
FRESH_COUNTS_SEED_5 = (24818, 287, 11, 24995, 0, 0, 24941, 0, 0, 24948)


def fresh_histogram(params, counts):
    return Histogram(default_read_thresholds(params.base_levels), counts)


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

    def test_threshold_count_is_bounded(self, params, monkeypatch):
        # MAX_THRESHOLDS passes and one more is refused, whether given or
        # placed per level gap: 3 gaps of 341 reads are 1023, of 342 are
        # 1026. default_read_thresholds refuses a count itself, before it
        # places any threshold, so a vast per_gap costs nothing.
        message = f"at most {MAX_THRESHOLDS} read thresholds are supported, got "
        assert len(ReadThresholds(tuple(range(MAX_THRESHOLDS))).thresholds) == MAX_THRESHOLDS
        with pytest.raises(ValueError, match=f"^{message}{MAX_THRESHOLDS + 1}$"):
            ReadThresholds(tuple(range(MAX_THRESHOLDS + 1)))
        assert len(default_read_thresholds(params.base_levels, 341).thresholds) == MAX_THRESHOLDS
        monkeypatch.setattr(estimation, "ReadThresholds", None)
        with pytest.raises(ValueError, match=f"^{message}1026$"):
            default_read_thresholds(params.base_levels, 342)


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

    @pytest.mark.parametrize("count", [100.7, math.inf, math.nan, 1e400])
    def test_rejects_counts_that_are_not_whole(self, count):
        with pytest.raises(ValueError, match="finite whole numbers"):
            Histogram(ReadThresholds((1.0,)), (100, count))

    def test_rejects_nan_reads(self):
        # a NaN read belongs to no bin; it must not land in the top one
        with pytest.raises(ValueError, match="NaN"):
            build_histogram([math.nan, 0.5, 1.0, 1.5, math.inf, -math.inf],
                            ReadThresholds((1.0, 2.0)))

    def test_counts_every_element_of_an_array(self):
        thr = ReadThresholds((1.0, 2.0))
        reads = np.array([[0.5, 1.0, 1.5], [2.5, 3.0, -1.0]])
        assert build_histogram(reads, thr).counts == (3, 1, 2)

    @pytest.mark.parametrize("k", [1, 9, 60])
    def test_matches_binary_search_oracle(self, params, k):
        # the oracle bins each read by binary search; reads exactly on a
        # threshold, one ulp either side of it and at +-inf are included
        pop = simulate_population(20_000, WearState(8295.0, 1, 1.0), 8760.0, params, seed=7)
        edges = np.linspace(*np.percentile(pop.reads, [2, 98]), k + 2)[1:-1]
        reads = np.concatenate([
            pop.reads, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [np.inf, -np.inf, np.inf],
        ])
        thr = ReadThresholds(tuple(edges))
        want = np.bincount(np.searchsorted(edges, reads, side="left"), minlength=k + 1)
        assert build_histogram(reads, thr).counts == tuple(want.tolist())

    def test_whole_counts_become_ints(self):
        counts = Histogram(ReadThresholds((1.0,)), (100.0, np.int64(7))).counts
        assert counts == (100, 7) and all(type(c) is int for c in counts)


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

    @pytest.mark.parametrize("seed, levels_sha, reads_sha", [
        (3, "9fb1088b6558d157368990a0890d4df2f44f43156cb0fc24b0d68e47e78e8eec",
         "b52f60d731bde79bb6360314650a5f6d6824e748a592804ee66f5c40f9efbfd9"),
        (41, "e7ddb81d91162624ddf6690b83b8fa0c06e85a401fac3bf584c60da898f4cf6c",
         "1ad7aeae3d230616fd1f7c3b0097910f7123c20ad8b85eba34e69cd6a3b2646e"),
        (2026, "5f835fd2bab2583436777cb1c2e6c47dc95ce379ccec75ad4b0bcdcdea5ac23d",
         "1b93890e2d4a2b87767a9c21c16365acff5ac15be7ba7ad1f022396452f511b7"),
    ], ids=["3", "41", "2026"])
    def test_stream_digests(self, params, seed, levels_sha, reads_sha):
        # the populations a seed gives stay fixed bit for bit; the digests
        # were recorded when the sampler came to draw the (level, sign)
        # counts as one multinomial, which groups the cells by level
        pop = simulate_population(100_000, WearState(8295.0, 1, 0.5), 8760.0, params, seed)
        assert hashlib.sha256(pop.levels.astype("<i8").tobytes()).hexdigest() == levels_sha
        assert hashlib.sha256(pop.reads.astype("<f8").tobytes()).hexdigest() == reads_sha

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

    def test_refuses_ratio_beyond_kernel_range(self, params):
        # the erased level's sigma_e over a Laplace scale of 3.5e-7: 1e6
        thr = default_read_thresholds(params.base_levels)
        with pytest.raises(estimation.NumericalFailure, match="sigma/lambda reaches 1e\\+06"):
            bin_probabilities(WearState(0.0, 0, 1.0), 0.0, replace(params, c_w=3.5e-7), thr)

    def test_evaluates_moments_once(self, monkeypatch, params):
        # the kernel takes the moments the gate has checked
        calls = []
        monkeypatch.setattr(
            channel, "_level_moments",
            lambda *a, f=channel._level_moments: calls.append(1) or f(*a),
        )
        thr = default_read_thresholds(params.base_levels)
        bin_probabilities(WearState(8295.0, 3000, 1.0), 8760.0, params, thr)
        assert len(calls) == 1


@pytest.fixture
def kernel_points(monkeypatch):
    """Points per call of the bin-probability kernel, in call order."""
    points = []
    kernel = estimation._bin_probability_grid

    def counting(edges, mu, *args):
        points.append(mu.size // mu.shape[-1])
        return kernel(edges, mu, *args)

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
        moments = _level_grid(
            np.array(KERNEL_V_ACC)[:, None], np.array(KERNEL_TIMES)[None, :],
            alpha, params, scale_erased,
        )
        grid = _bin_probability_grid(np.array(thr.thresholds), *moments)
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
        moments, sigma2 = _level_moments(v_acc, t, alpha, params, scale_erased)
        mu, sigma, lam = moments
        assert np.array_equal(sigma, np.sqrt(sigma2))
        cdf, sf = _cdf_sf(thr, mu[..., None], sigma[..., None], lam[..., None])
        lower = np.diff(cdf, prepend=0.0, append=1.0)
        upper = -np.diff(sf, prepend=1.0, append=0.0)
        ref = np.maximum(np.where(np.append(thr, np.inf) >= mu[..., None], upper, lower), 0.0)
        grid = _bin_probability_grid(thr, mu, sigma, lam)
        assert grid.shape == ref.shape == (4, 4, params.num_levels, len(thr) + 1)
        assert np.array_equal(grid, ref)

    def test_grid_log_likelihood_matches_pointwise(self, params):
        hist = round_trip_histogram(params)
        v = np.array([0.0, 10.0, 1000.0, 8295.0, 1e5])
        t = np.array([0.0, 0.1, 24.0, 8760.0, 1e5])
        grid = multinomial_log_likelihood(hist, v[:, None], t[None, :], 1.0, params, True)
        assert grid.shape == (5, 5)
        for i, vi in enumerate(v):
            for j, tj in enumerate(t):
                point = multinomial_log_likelihood(hist, vi, tj, 1.0, params, True)
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
        # 6 calls here, 9 before the ascent climbed the ridge in log-decay
        # coordinates; the bound keeps the old ratio of 50 to 9
        assert len(kernel_points) <= 33


class TestSymmetricEigen:
    """The wear fit's closed-form eigendecomposition against np.linalg.eigh,
    on matrices like the negative Hessians of the fit, whose curvatures
    reach 1e6 along and across the (V_acc, t) ridge."""

    @pytest.mark.parametrize("matrix", [
        [[3.0]],
        [[-2.5]],
        [[2.0, 0.0], [0.0, 5.0]],
        [[5.0, 0.0], [0.0, -1.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[3.0, 1.0], [1.0, 3.0]],
        [[3.0, -1e-3], [-1e-3, 3.0]],
        [[1.0, 4.0], [4.0, -2.0]],
        [[-3.0, 2.0], [2.0, -3.0]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-10]],
        [[4.0, 2.0], [2.0, 1.0]],
        [[1e6, 1e6 - 1e-4], [1e6 - 1e-4, 1e6]],
        [[2.3e5, -4.1e4], [-4.1e4, 7.9e3]],
        [[1e6, 1e3], [1e3, 1e-2]],
        [[-1e6, 3e5], [3e5, 2e4]],
    ], ids=[
        "1x1", "1x1-negative", "diagonal", "diagonal-indefinite", "zero",
        "equal-diagonal", "equal-diagonal-small-coupling", "indefinite",
        "negative-definite", "near-singular", "singular", "ridge-1e6",
        "curvature-1e5", "scales-1e6-1e-2", "indefinite-1e6",
    ])
    def test_matches_eigh(self, matrix):
        eig, vecs = _symmetric_eigen(matrix)
        h = np.array(matrix)
        want = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(eig, want, rtol=1e-12, atol=1e-300)
        v = np.array(vecs).T  # eigenvectors as columns, as eigh gives them
        np.testing.assert_allclose(v.T @ v, np.eye(len(h)), rtol=0, atol=1e-12)
        scale = max(np.abs(want).max(), 1e-300)
        np.testing.assert_allclose(h @ v, v * eig, rtol=0, atol=1e-12 * scale)

    def test_empty(self):
        # no free coordinate: the Newton step reports decrement 0
        assert _symmetric_eigen([]) == ([], [])


class TestNewtonStep:
    """The damped Newton step on quadratic models in the box [0, 2]^2; the
    log-likelihood value only sets the rounding scale."""

    @staticmethod
    def step(z, grad, hess):
        return _newton_step((z, -1000.0, grad, hess), (2.0, 2.0), 0.0)[0]

    def test_step_leaving_the_box_is_cut_along_its_direction(self):
        # the full step (2, 0.5) would end at (3, 1); it leaves through
        # z0 = 2 halfway, so it ends at (2, 0.75), not clipped to (2, 1)
        assert self.step((1.0, 0.5), (2.0, 0.5), ((-1.0, 0.0), (0.0, -1.0))) == (2.0, 0.75)

    def test_coordinate_at_a_bound_is_clipped_not_cut(self):
        # z0 sits on its bound with the gradient pointing in, but the
        # coupled step (-4.2, 4.8) moves it out: a cut there would stall
        # the step, so z0 is clipped and z1 takes the cut at its bound
        hess = ((-1.0, -0.9), (-0.9, -1.0))
        assert self.step((0.0, 0.5), (0.1, 1.0), hess) == (0.0, 2.0)

    def test_step_inside_the_box_is_not_touched(self):
        assert self.step((1.0, 0.5), (0.5, 0.25), ((-1.0, 0.0), (0.0, -1.0))) == (1.5, 0.75)


class TestFitWearState:
    @pytest.mark.parametrize("t_known", [None, 8760.0])
    def test_refuses_ratio_beyond_kernel_range(self, monkeypatch, params, t_known):
        # sigma/lambda over the search box is refused before the first
        # likelihood evaluation
        monkeypatch.setattr(
            estimation, "_bin_probability_grid",
            lambda *a: pytest.fail("likelihood evaluated"),
        )
        hist = Histogram(ReadThresholds((3.5, 5.8, 7.13)), (100, 100, 100, 100))
        tiny = DeviceParams(**{**params.__dict__, "c_w": 1e-300})
        with pytest.raises(estimation.NumericalFailure, match="sigma/lambda"):
            fit_wear_state(hist, tiny, t_known=t_known)

    @pytest.mark.parametrize("t_known", [None, 8760.0])
    @pytest.mark.parametrize("setting", [
        {"a_w": 1e308}, {"a_r": 1e308}, {"a_r": 1e300}, {"c_w": 1e308}, {"c_w": 3e-6},
        {"v_max": 1e-300}, {"sigma_e": 1e300}, {"sigma_p": 1e-200, "sigma_e": 1e-199},
        {"sigma_e": 1e-160, "sigma_p": 1e-161, "c_w": 1e-164, "a_w": 1e147, "b_r": 3e152},
    ], ids=repr)
    def test_refuses_setting_before_the_kernel(self, params, kernel_points, setting, t_known):
        # the gate at the search box's corners checks the moments and the
        # support; c_w = 1e308 has finite moments but an infinite support.
        # The last setting passes the gate, and its sigma/lambda bound
        # between the first two seed values overflows to inf.
        hist = Histogram(ReadThresholds((3.5, 5.8, 7.13)), (100, 100, 100, 100))
        with pytest.raises(estimation.NumericalFailure):
            fit_wear_state(hist, replace(params, **setting), t_known=t_known)
        assert kernel_points == []

    def test_ratio_bound_follows_the_box(self, monkeypatch, params):
        # sigma/lambda peaks at sigma_e/c_w, at v_acc = 0: 1.17e5 with
        # c_w = 3e-6, refused before the first likelihood evaluation, and
        # 8.75e4 with c_w = 4e-6, which the fit takes. A bound of the far
        # corner's sigma over c_w read 1.35e5 there and refused it too.
        calls = []
        kernel = estimation._bin_probability_grid
        monkeypatch.setattr(
            estimation, "_bin_probability_grid", lambda *a: calls.append(1) or kernel(*a)
        )
        # the fitted state's capacity is not the point here
        monkeypatch.setattr(estimation, "_capacity", lambda *a: 0.0)
        hist = Histogram(ReadThresholds((3.5, 5.8, 7.13)), (100, 100, 100, 100))
        for t_known in (None, 8760.0):
            with pytest.raises(estimation.NumericalFailure, match="reaches 1.17e\\+05"):
                fit_wear_state(hist, replace(params, c_w=3e-6), t_known=t_known)
            assert not calls
        for t_known in (None, 8760.0):
            fit_wear_state(hist, replace(params, c_w=4e-6), t_known=t_known)
            assert calls
            calls.clear()

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
        hist = fresh_histogram(params, FRESH_COUNTS_SEED_2)
        est = fit_wear_state(hist, params, t_known=0.0)
        assert est.v_acc_hat < 300.0

    @pytest.mark.xfail(strict=True, reason=(
        "log_cov is the inverse Hessian at the optimum; on a likelihood this "
        "flat it claims a precision the data do not hold"))
    def test_fresh_device_interval_covers_truth(self, params):
        # on seed 5's recorded read the known-t fit of a fresh device lands
        # at V_acc = 5.0e4, only 0.54 nats above the likelihood at the
        # truth, V_acc = 0, yet reports converged with a standard error of
        # 0.57 in log1p(V_acc), which puts the truth 19 standard errors
        # away. Seed 2's read lands on 0 with an infinite standard error
        hist = fresh_histogram(params, FRESH_COUNTS_SEED_5)
        est = fit_wear_state(hist, params, t_known=0.0)
        assert math.log1p(est.v_acc_hat) - 4 * est.log_cov[0][0] ** 0.5 <= 0.0

    def test_fresh_device_ends_at_bound(self, params):
        hist = fresh_histogram(params, FRESH_COUNTS_SEED_2)
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

    def test_joint_fit_recovers_effective_drift(self, params, kernel_points):
        # v_acc and t are only jointly identified through the product
        # ln(1+t/t0)*B(v_acc); check that product instead of each factor.
        # The ascent climbs that ridge in ln(1+t/t0), so it must stay short
        # at a decay time other than an hour as well
        true_state = WearState(8295.0, 3000, 1.0)
        thr = default_read_thresholds(params.base_levels)

        def drift(v, t, device):
            return retention_moments(1.0, v, t, device)[0]

        for t0 in (1.0, 24.0):
            device = replace(params, t0=t0)
            pop = simulate_population(200_000, true_state, 8760.0, device, seed=22)
            kernel_points.clear()
            est = fit_wear_state(build_histogram(pop.reads, thr), device)
            # the seed grid and 4 (t0 = 1) or 6 (t0 = 24) stencils
            assert len(kernel_points) <= 9
            assert est.converged
            assert drift(est.v_acc_hat, est.t_hat, device) == pytest.approx(
                drift(8295.0, 8760.0, device), rel=0.05
            )
            truth = capacity_at(true_state, 8760.0, device)
            assert est.capacity_hat == pytest.approx(truth, abs=0.05)

    @pytest.mark.parametrize("t0", [1.0, 24.0])
    def test_joint_fit_at_the_retention_bound(self, params, t0):
        # read at twice T_MAX, the fit ends on the bound t = T_MAX: reported
        # exactly, although expm1(log1p(T_MAX)) rounds above it, with the
        # one-sided Hessian there still negative definite
        device = replace(params, t0=t0)
        thr = default_read_thresholds(device.base_levels)
        pop = simulate_population(100_000, WearState(8295.0, 1, 1.0), 2e5, device, seed=1)
        est = fit_wear_state(build_histogram(pop.reads, thr), device)
        assert est.t_hat == estimation.T_MAX
        assert est.converged
        assert all(math.isfinite(c) for row in est.log_cov for c in row)
        assert est.log_cov[0][0] > 0 and est.log_cov[1][1] > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bound_fit_cuts_steps_at_the_box(self, params, kernel_points, seed):
        # at t0 = 24 h the ridge meets the bound t = T_MAX at a slant: a
        # step cut along its own direction stays near the crest, and the
        # fit takes 4 or 5 stencils after its seed table
        device = replace(params, t0=24.0)
        thr = default_read_thresholds(device.base_levels)
        pop = simulate_population(100_000, WearState(8295.0, 1, 1.0), 2e5, device, seed=seed)
        hist = build_histogram(pop.reads, thr)
        fit_wear_state(hist, device)  # stores the seed table
        kernel_points.clear()
        est = fit_wear_state(hist, device)
        assert est.t_hat == estimation.T_MAX and est.converged
        assert len(kernel_points) <= 8

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
        # the seed grid and up to 11 stencils; climbing the ridge in
        # (log1p v_acc, log1p t) alone took up to 23
        assert len(kernel_points) <= 16
        kernel_points.clear()
        known = fit_wear_state(hist, params, alpha=alpha, t_known=t)
        assert len(kernel_points) <= 8
        assert joint.converged and known.converged
        truth = multinomial_log_likelihood(hist, v_acc, t, alpha, params, True)
        assert joint.log_likelihood >= truth
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
            return multinomial_log_likelihood(hist, v, t, 1.0, params, True)

        hvv = (ll(1, 0) - 2 * ll(0, 0) + ll(-1, 0)) / h**2
        htt = (ll(0, 1) - 2 * ll(0, 0) + ll(0, -1)) / h**2
        hvt = (ll(1, 1) - ll(1, -1) - ll(-1, 1) + ll(-1, -1)) / (4 * h**2)
        fisher = -np.array([[hvv, hvt], [hvt, htt]])
        np.testing.assert_allclose(cov, np.linalg.inv(fisher), rtol=0.02)


class TestSeedTable:
    """The wear fit's memoized seed grids and log-probability table."""

    @staticmethod
    def setting(device, **changes):
        """_seed_table's positional arguments: the device's default
        thresholds at alpha = 1 with t known, with the given ones changed."""
        args = {
            "params": device, "alpha": 1.0,
            "thresholds": default_read_thresholds(device.base_levels).thresholds,
            "scale_erased": True, "t_known": 8760.0,
        }
        args.update(changes)
        return tuple(args.values())

    @pytest.mark.parametrize("t_known", [None, 8760.0])
    def test_matches_fresh_kernel(self, params, t_known):
        args = self.setting(params, t_known=t_known)
        v_grid, t_grid, table = estimation._seed_table(*args)
        np.testing.assert_array_equal(
            v_grid, np.concatenate(([0.0], np.logspace(0, 5, 25)))
        )
        edges = np.array(args[2])
        if t_known is None:
            np.testing.assert_array_equal(
                t_grid, np.concatenate(([0.0], np.logspace(-1, 5, 20)))
            )
            moments = _level_grid(v_grid[:, None], t_grid[None, :], 1.0, params, True)
        else:
            assert t_grid is None
            moments = _level_grid(v_grid, t_known, 1.0, params, True)
        probs = _bin_probability_grid(edges, *moments)
        fresh = np.log(np.maximum(probs.mean(axis=-2), estimation.PROB_FLOOR))
        assert table.shape == fresh.shape == v_grid.shape + np.shape(t_grid) + (10,)
        assert np.array_equal(table, fresh)
        assert estimation._seed_table(*args)[2] is table

    @pytest.mark.parametrize("t_known", [None, 8760.0])
    def test_one_grid_evaluation(self, monkeypatch, params, t_known):
        # the table and the sigma/lambda bound share one evaluation of the
        # grid's moments; the gate at the box's corners is the channel's
        calls = []
        grid = estimation._level_grid
        monkeypatch.setattr(estimation, "_level_grid", lambda *a: calls.append(1) or grid(*a))
        estimation._seed_table(*self.setting(params, t_known=t_known))
        assert len(calls) == 1

    def test_is_read_only(self, params):
        arrays = estimation._seed_table(*self.setting(params, t_known=None))
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_fits_do_not_depend_on_the_cache(self, params):
        # the benchmark's 12 (alpha, V_acc, t) cases share 6 settings:
        # a joint and two known-t tables per alpha
        cases = [
            (alpha, t, workload_histogram(params, alpha, v_acc, t, seed))
            for seed, (alpha, v_acc, t) in enumerate(WORKLOAD_CASES, start=40)
        ]
        info = estimation._seed_table.cache_info

        def fits(order, clear):
            out = {}
            for i in order:
                alpha, t, hist = cases[i]
                if clear:
                    estimation._seed_table.cache_clear()
                out[i] = (
                    fit_wear_state(hist, params, alpha=alpha, t_known=t),
                    fit_wear_state(hist, params, alpha=alpha),
                )
            return out

        cold = fits(range(12), clear=True)
        estimation._seed_table.cache_clear()
        assert fits(range(12), clear=False) == cold
        assert info().currsize == info().misses == 6
        assert fits(reversed(range(12)), clear=False) == cold
        assert info().misses == 6 and info().hits == 18 + 24

    def test_numpy_arguments_share_the_entry(self, params):
        hist = round_trip_histogram(params)
        est = fit_wear_state(hist, params, alpha=1.0, t_known=8760.0)
        for to_numpy in (np.float64, np.array):
            alpha, t = to_numpy(1.0), to_numpy(8760.0)
            assert fit_wear_state(hist, params, alpha=alpha, t_known=t) == est
        assert estimation._seed_table.cache_info().currsize == 1

    @pytest.mark.parametrize("c_w", [3e-6, 1e-300])
    @pytest.mark.parametrize("t_known", [None, 8760.0])
    def test_refused_setting_is_not_stored(self, params, c_w, t_known):
        hist = round_trip_histogram(params)
        fit_wear_state(hist, params, t_known=t_known)
        size = estimation._seed_table.cache_info().currsize
        assert size == 1
        for _ in range(3):
            with pytest.raises(estimation.NumericalFailure, match="sigma/lambda"):
                fit_wear_state(hist, replace(params, c_w=c_w), t_known=t_known)
            assert estimation._seed_table.cache_info().currsize == size

    def test_each_setting_has_its_own_entry(self, params):
        thr = default_read_thresholds(params.base_levels).thresholds
        changes = [
            {"alpha": 0.5},
            {"thresholds": thr[:-1]},
            {"thresholds": (thr[0] + 1e-3,) + thr[1:]},
            {"scale_erased": False},
            {"t_known": 24.0},
            {"t_known": None},
            {"params": replace(params, base_levels=params.base_levels[:3])},
        ]
        for f in fields(DeviceParams):
            value = getattr(params, f.name)
            if f.name == "base_levels":
                new = replace(params, base_levels=value[:-1] + (value[-1] + 0.01,))
            else:
                new = replace(params, **{f.name: value * (1 - 1e-3)})
            assert new != params
            changes.append({"params": new})
        base = self.setting(params)
        estimation._seed_table(*base)
        info = estimation._seed_table.cache_info
        for change in changes:
            before = info()
            estimation._seed_table(*self.setting(params, **change))
            assert info().misses == before.misses + 1, change
            # the base setting stays stored beside it
            estimation._seed_table(*base)
            assert info().hits == before.hits + 1, change


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
