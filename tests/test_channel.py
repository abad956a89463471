"""Channel model tests.

The conditional density is checked against a brute-force numerical
convolution of the Gaussian and Laplace densities (built first, kept free
of any code under test beyond plain formulas), and the closed-form CDF
against direct quadrature of the density.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from flashlife import channel
from flashlife.allocation import capacity_at
from flashlife.channel import (
    DeviceParams,
    NoiseSpec,
    NumericalFailure,
    WearState,
    conditional_cdf,
    conditional_sf,
    default_device_params,
    level_noise_spec,
    level_noise_specs,
    log_conditional_density,
    output_log_density,
    retention_moments,
    sample_mixture,
    scaled_levels,
    support_interval,
)
from flashlife.channel import _level_array, _level_block, _level_moments


def gauss_laplace_convolution(y, mu, sigma, lam):
    """Oracle: numerically convolve a Gaussian pdf with a Laplace pdf."""

    def integrand(w):
        g = math.exp(-0.5 * ((y - mu - w) / sigma) ** 2) / (
            sigma * math.sqrt(2 * math.pi)
        )
        return g * math.exp(-abs(w) / lam) / (2 * lam)

    d = y - mu
    lo = min(d, 0.0) - 10 * sigma - 45 * lam
    hi = max(d, 0.0) + 10 * sigma + 45 * lam
    pts = [p for p in (0.0, d) if lo < p < hi]
    val, _ = integrate.quad(integrand, lo, hi, points=pts, limit=500,
                            epsabs=1e-16, epsrel=1e-12)
    return val


class TestWearScale:
    """The Laplace scale of the wear-out noise, as level_noise_specs gives
    it to every level."""

    @staticmethod
    def lam(v_acc, params):
        specs = level_noise_specs(WearState(v_acc, 0, 1.0), 0.0, params)
        assert len({s.lam for s in specs}) == 1
        return specs[0].lam

    def test_zero_wear_is_floor(self, params):
        assert self.lam(0.0, params) == pytest.approx(1.26e-3, abs=0)

    def test_unit_ratio(self, params):
        assert self.lam(16.0, params) == pytest.approx(1.44e-3, rel=1e-12)

    def test_baseline_wear(self, params):
        # independent evaluation with the device constants
        expected = 1.26e-3 + 1.8e-4 * (8295.0 / 16.0) ** 0.62
        got = self.lam(8295.0, params)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(9.937e-3, rel=1e-3)

    def test_monotone_in_v_acc(self, params):
        grid = np.linspace(0.0, 3e4, 100)
        lams = [self.lam(v, params) for v in grid]
        assert all(b > a for a, b in zip(lams, lams[1:]))


class TestRetentionMoments:
    def test_zero_time(self, params):
        assert retention_moments(7.86, 8295.0, 0.0, params) == (0.0, 0.0)

    def test_zero_wear(self, params):
        assert retention_moments(7.86, 0.0, 8760.0, params) == (0.0, 0.0)

    def test_worn_one_year(self, params):
        mu_r, s_r2 = retention_moments(7.86, 8295.0, 8760.0, params)
        assert mu_r == pytest.approx(-4.6231, abs=2e-3)
        assert s_r2 == pytest.approx(0.02995, abs=2e-4)

    def test_signs_and_monotonicity(self, params):
        base = retention_moments(5.0, 5000.0, 1000.0, params)
        assert base[0] <= 0 and base[1] >= 0
        for bumped in (
            retention_moments(6.0, 5000.0, 1000.0, params),
            retention_moments(5.0, 6000.0, 1000.0, params),
            retention_moments(5.0, 5000.0, 2000.0, params),
        ):
            assert abs(bumped[0]) > abs(base[0])

    def test_negative_inputs_rejected(self, params):
        with pytest.raises(ValueError):
            retention_moments(-1.0, 0.0, 0.0, params)
        with pytest.raises(ValueError):
            retention_moments(1.0, 0.0, -1.0, params)
        with pytest.raises(ValueError):
            retention_moments(1.0, 0.0, np.array([0.0, -1.0]), params)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["x_target", "v_acc", "t"])
    def test_non_finite_inputs_rejected(self, params, position, bad):
        # an invalid argument, not a moment that overflows: NaN fails every
        # comparison, so a check for negative values alone lets it through
        args = [7.86, 8295.0, 8760.0]
        args[position] = bad
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            retention_moments(*args, params)
        args[position] = np.array([1.0, bad])
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            retention_moments(*args, params)

    @pytest.mark.parametrize("a_r", [1e200, 1e308])
    @pytest.mark.parametrize("x_target", [7.86, np.array([2.4, 7.86])], ids=["scalar", "array"])
    def test_overflow_is_numerical_failure(self, params, a_r, x_target):
        # 1e200 overflows a Python-float square, 1e308 the drift itself
        with pytest.raises(NumericalFailure, match="float range"):
            retention_moments(x_target, 1e4, 8760.0, replace(params, a_r=a_r))


class TestLevelNoiseSpec:
    def test_new_device_programmed(self, params):
        spec = level_noise_spec(1, WearState(0.0, 0, 1.0), 0.0, params)
        assert spec.mu == pytest.approx(5.2)
        assert spec.sigma2 == pytest.approx(0.0025)
        assert spec.lam == pytest.approx(1.26e-3)

    def test_new_device_erased(self, params):
        spec = level_noise_spec(0, WearState(0.0, 0, 1.0), 0.0, params)
        assert spec.mu == pytest.approx(2.8)
        assert spec.sigma2 == pytest.approx(0.1225)

    def test_worn_composition(self, params):
        # retention acts on the charge above the erased level
        state = WearState(8295.0, 3000, 1.0)
        spec = level_noise_spec(3, state, 8760.0, params)
        mu_r, s_r2 = retention_moments(7.86 - 2.8, 8295.0, 8760.0, params)
        assert spec.mu == pytest.approx(7.86 + mu_r)
        assert spec.mu == pytest.approx(4.884, abs=1e-3)
        assert spec.sigma2 == pytest.approx(0.05**2 + s_r2)

    def test_erased_level_does_not_drift(self, params):
        spec = level_noise_spec(0, WearState(8295.0, 3000, 1.0), 8760.0, params)
        assert spec.mu == pytest.approx(2.8)
        assert spec.sigma2 == pytest.approx(0.1225)

    def test_alpha_scales_targets(self, params):
        spec = level_noise_spec(1, WearState(0.0, 0, 0.28), 0.0, params)
        assert spec.mu == pytest.approx(0.28 * 5.2)

    def test_scale_erased_switch(self, params):
        assert scaled_levels((2.8, 5.2), 0.5) == (1.4, 2.6)
        assert scaled_levels((2.8, 5.2), 0.5, scale_erased=False) == (2.8, 4.0)

    def test_index_out_of_range(self, params):
        with pytest.raises(IndexError):
            level_noise_spec(4, WearState(0.0, 0, 1.0), 0.0, params)

    @pytest.mark.parametrize("scale_erased", [True, False])
    def test_all_levels_at_once(self, params, scale_erased):
        state = WearState(8295.0, 3000, 0.5)
        specs = level_noise_specs(state, 8760.0, params, scale_erased)
        assert specs == [
            level_noise_spec(i, state, 8760.0, params, scale_erased) for i in range(4)
        ]
        levels = scaled_levels(params.base_levels, 0.5, scale_erased)
        for x, spec in zip(levels[1:], specs[1:]):
            mu_r, s_r2 = retention_moments(x - levels[0], 8295.0, 8760.0, params)
            assert spec.mu == x + mu_r
            assert spec.sigma2 == params.sigma_p**2 + s_r2
            assert spec.lam == params.c_w + params.a_w * (8295.0 / params.v_max) ** params.k1

    def test_array_negative_rejected(self, params):
        with pytest.raises(ValueError):
            retention_moments(1.0, np.array([1.0, -1.0]), 0.0, params)
        with pytest.raises(ValueError):
            retention_moments(1.0, 0.0, np.array([0.0, -1.0]), params)

    def test_moments_broadcast(self, params):
        # arrays of shape S + (1,) give one row of level moments per point,
        # matching the scalar evaluation up to rounding
        v = np.array([0.0, 1000.0, 8295.0, 20000.0])
        t = np.array([0.0, 24.0, 8760.0, 87600.0])
        mu, sigma2, lam = _level_moments(
            v[:, None, None], t[None, :, None], 0.5, params, False
        )
        assert mu.shape == sigma2.shape == (4, 4, 4)
        assert lam.shape == (4, 1, 1)
        for i, vi in enumerate(v):
            for j, tj in enumerate(t):
                specs = level_noise_specs(WearState(vi, 1, 0.5), tj, params, False)
                np.testing.assert_allclose(mu[i, j], [s.mu for s in specs], rtol=1e-14)
                np.testing.assert_allclose(
                    sigma2[i, j], [s.sigma2 for s in specs], rtol=1e-14
                )
                assert lam[i, 0, 0] == pytest.approx(specs[0].lam, rel=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_time(self, params, t):
        # capacity_at reaches the channel through level_noise_specs
        with pytest.raises(ValueError, match="t must be finite"):
            level_noise_specs(WearState(0.0, 0, 1.0), t, params)
        with pytest.raises(ValueError, match="t must be finite"):
            capacity_at(WearState(8295.0, 3000, 1.0), t, params)


def level_block_cases():
    # v_acc of the fixed policy's 201 checkpoints to 20000 cycles, by its
    # sequential additions; its three grid trajectories, which pass charge
    # exhaustion at 10 years, and other alphas and level maps
    v_acc = [0.0]
    while len(v_acc) < 201:
        v_acc.append(v_acc[-1] + 100 * 2.765)
    cases = [pytest.param(t, 1.0, True, id=f"grid-{t:g}h") for t in (24.0, 8760.0, 87600.0)]
    cases += [pytest.param(8760.0, a, se, id=f"alpha-{a:g}-{se}")
              for a, se in [(0.05, True), (0.5, False), (1.0, False)]]
    return v_acc, cases


BLOCK_V_ACC, BLOCK_CASES = level_block_cases()


class TestLevelBlock:
    """_level_block sets up many wear states at one t and alpha in one
    pass; each state must get the levels and support of _level_array bit
    for bit, and the count of states that pass its checks must stop where
    _level_array first refuses a state."""

    @pytest.mark.parametrize("t, alpha, scale_erased", BLOCK_CASES)
    def test_rows_match_level_array(self, params, t, alpha, scale_erased):
        block, passed = _level_block(BLOCK_V_ACC, t, alpha, params, scale_erased)
        assert passed == len(BLOCK_V_ACC)
        lo, hi = channel._block_support(block)
        for i, v in enumerate(BLOCK_V_ACC):
            levels, _ = _level_array(v, t, alpha, params, scale_erased)
            assert block[i].tobytes() == levels.tobytes()
            support = tuple(x.hex() for x in channel._support(levels))
            assert (lo[i].hex(), hi[i].hex()) == support

    @pytest.mark.parametrize("row, level, value", [
        (0, 1, math.nan), (1, 0, 0.0), (2, 2, math.inf), (1, 2, 2e5 * 0.01), (2, 3, 1e308),
    ], ids=["mu-nan", "sigma-zero", "lam-inf", "ratio", "support"])
    def test_count_stops_at_the_first_refused_row(self, params, row, level, value):
        # _check_levels refuses the middle one of five states; the count
        # is of the leading states, so the good ones after it do not count
        good, _ = _level_array(2212.0, 8760.0, 1.0, params, True)
        block = np.stack([good] * 5)
        block[:, 2] = 0.01  # so that sigma = 2000 gives sigma/lam = 2e5
        assert channel._check_block(block) == 5
        block[2, row, level] = value
        with pytest.raises(NumericalFailure):
            channel._check_levels(block[2])
        assert channel._check_block(block) == 2

    @pytest.mark.parametrize("overrides, v_acc, passed", [
        ({"a_r": 1e300}, [0.0, 276.5, 553.0], 1),  # a Python-float square overflows
        ({"a_r": 2e152, "a_w": 2e150}, BLOCK_V_ACC[:20], 15),  # sigma2 overflows
        ({"sigma_e": 1e300}, [0.0, 276.5], 0),  # a programming variance overflows
        ({}, [0.0, 276.5, math.inf], 2),  # a non-finite v_acc
    ], ids=["square", "variance", "programming", "v_acc"])
    def test_counts_up_to_the_first_refused_state(self, params, overrides, v_acc, passed):
        device = replace(params, **overrides)
        block, count = _level_block(v_acc, 8760.0, 1.0, device, True)
        assert count == passed
        for v in v_acc[:passed]:
            _level_array(v, 8760.0, 1.0, device, True)
        with pytest.raises(NumericalFailure):
            _level_array(v_acc[passed], 8760.0, 1.0, device, True)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_time(self, params, t):
        with pytest.raises(ValueError, match="t must be finite"):
            _level_block([0.0], t, 1.0, params, True)


class TestConditionalDensity:
    def test_symmetry_about_mean(self):
        spec = NoiseSpec(mu=5.2, sigma2=0.0025, lam=9.9e-3)
        d = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(
            log_conditional_density(spec.mu + d, spec),
            log_conditional_density(spec.mu - d, spec),
            rtol=1e-12,
        )

    def test_normalizes(self):
        spec = NoiseSpec(mu=5.2, sigma2=0.0025, lam=9.9e-3)
        lo, hi = support_interval([spec])
        val, _ = integrate.quad(
            lambda y: math.exp(log_conditional_density(y, spec)),
            lo, hi, points=[spec.mu], limit=500,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0, 40.0, 100.0])
    def test_matches_convolution_oracle(self, ratio):
        sigma = 0.05
        spec = NoiseSpec(mu=5.2, sigma2=sigma**2, lam=sigma / ratio)
        offsets = np.concatenate(
            [np.linspace(-5, 5, 9) * sigma, np.array([-20, 20]) * spec.lam]
        )
        for y in spec.mu + offsets:
            oracle = gauss_laplace_convolution(y, spec.mu, sigma, spec.lam)
            got = math.exp(log_conditional_density(y, spec))
            assert got == pytest.approx(oracle, abs=1e-8)
            if oracle > 1e-250:
                assert math.log(oracle) == pytest.approx(
                    log_conditional_density(y, spec), abs=1e-6
                )

    def test_finite_at_extreme_sigma_over_lambda(self):
        # naive evaluation overflows at sigma/lam ~ 40; must stay finite
        spec = NoiseSpec(mu=0.0, sigma2=1.0, lam=1e-4)
        vals = log_conditional_density(np.linspace(-10, 10, 21), spec)
        assert np.all(np.isfinite(vals))

    def test_rejects_non_finite(self):
        spec = NoiseSpec(mu=0.0, sigma2=1.0, lam=0.1)
        with pytest.raises(ValueError):
            log_conditional_density(np.inf, spec)

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 40.0, 280.0, (1e-3, 1.0, 40.0, 280.0)])
    def test_matches_logaddexp_reference(self, ratio):
        # the two tail terms assembled with np.logaddexp, as a reference
        # for the kernel's own max + log1p(exp(-gap)) form; a tuple of
        # ratios evaluates one level per ratio in a single broadcast kernel
        # call, which must give each level's log_conditional_density bit
        # for bit
        ratio = np.array(ratio, ndmin=1)[:, None]
        specs = [NoiseSpec(mu=0.0, sigma2=1.0, lam=1.0 / r) for r in ratio.ravel()]
        z = np.concatenate([-np.logspace(-3, 3, 61), [0.0], np.logspace(-3, 3, 61)])
        upper = z * ratio + special.log_ndtr(-(z + ratio))
        lower = -z * ratio + special.log_ndtr(z - ratio)
        assert np.min(np.minimum(upper, lower)) < -1e5
        lam = np.array([[s.lam] for s in specs])
        want = 0.5 * ratio**2 - np.log(2.0 * lam) + np.logaddexp(upper, lower)
        got = channel._log_density(z, *channel._spec_arrays(specs)[:, :, None])
        assert np.array_equal(got, [log_conditional_density(z, s) for s in specs])
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_both_tail_terms_vanish(self, monkeypatch):
        # log(e^-inf + e^-inf) is -inf, not the NaN of -inf - -inf
        monkeypatch.setattr(channel, "log_ndtr", lambda x: np.full_like(x, -np.inf))
        spec = NoiseSpec(mu=0.0, sigma2=1.0, lam=0.1)
        assert np.all(log_conditional_density(np.array([-1.0, 0.0, 2.0]), spec) == -np.inf)

    @given(
        mu=st.floats(-5, 5),
        sigma2=st.floats(1e-4, 1.0),
        lam=st.floats(1e-4, 1.0),
        d=st.floats(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_property(self, mu, sigma2, lam, d):
        spec = NoiseSpec(mu=mu, sigma2=sigma2, lam=lam)
        a = log_conditional_density(mu + d, spec)
        b = log_conditional_density(mu - d, spec)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


CDF_SPECS = [
    NoiseSpec(mu=5.2, sigma2=0.0025, lam=9.9e-3),
    # sigma/lambda about 278: the tail terms' common factor exp(r^2 / 2)
    # would overflow outside the log domain
    NoiseSpec(mu=2.8, sigma2=0.1225, lam=1.26e-3),
    NoiseSpec(mu=0.0, sigma2=0.04, lam=0.2),
    # top level past charge exhaustion (V_acc 20000, 87600 h)
    NoiseSpec(mu=2.18, sigma2=0.0586, lam=0.0162),
]


class TestConditionalCdf:
    @pytest.mark.parametrize("spec", CDF_SPECS)
    def test_matches_quadrature(self, spec):
        lo, hi = support_interval([spec])
        for frac in (-2.0, -0.5, 0.0, 0.7, 2.5):
            y = spec.mu + frac * (spec.sigma + spec.lam)
            oracle, _ = integrate.quad(
                lambda u: math.exp(log_conditional_density(u, spec)),
                lo, y, points=[p for p in (spec.mu,) if p < y], limit=500,
            )
            assert conditional_cdf(y, spec) == pytest.approx(oracle, abs=1e-9)

    def test_survival_complements_cdf(self):
        for spec in CDF_SPECS:
            ys = spec.mu + np.linspace(-3, 3, 13) * spec.sigma
            np.testing.assert_allclose(
                conditional_cdf(ys, spec) + conditional_sf(ys, spec), 1.0, atol=1e-12
            )

    def test_deep_tail_survival(self):
        # far above the mean the CDF rounds to 1; the survival function
        # must still resolve the tiny tail mass, down to below 1e-30
        def oracle(y, spec):
            val, _ = integrate.quad(
                lambda u: math.exp(log_conditional_density(u, spec)),
                y, y + 10 * spec.sigma + 45 * spec.lam,
                limit=500, epsabs=0.0, epsrel=1e-12,
            )
            return val

        sfs = []
        for spec in CDF_SPECS:
            for frac in (0.5, 2.0, 4.0, 5.0, 6.0, 8.0, 12.0):
                y = spec.mu + frac * (spec.sigma + spec.lam)
                sfs.append(conditional_sf(y, spec))
                assert sfs[-1] == pytest.approx(oracle(y, spec), rel=1e-8)
        assert 0 < min(sfs) < 1e-30


class TestSampler:
    def test_deterministic(self, params):
        specs = level_noise_specs(WearState(0.0, 0, 1.0), 0.0, params)
        a = sample_mixture(specs, np.random.default_rng(7), 1000)
        b = sample_mixture(specs, np.random.default_rng(7), 1000)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = sample_mixture(specs, np.random.default_rng(8), 1000)
        assert not np.array_equal(a[1], c[1])

    def test_draw_order(self, params):
        # one draw k in [0, 2L) per cell, then unit Gaussian, then unit
        # exponential noise; the level is k >> 1 and the low bit of k signs
        # the Laplace noise. Populations and Monte-Carlo MI depend on this
        # recipe staying fixed. The sampler draws the noise in blocks of
        # _SAMPLE_BLOCK cells, so the sizes straddle the block edges
        def recipe(specs, seed, n):
            rng = np.random.default_rng(seed)
            k = rng.integers(0, 2 * len(specs), n)
            levels = k >> 1
            mu, sigma, lam = (np.array([getattr(s, f) for s in specs])[levels]
                              for f in ("mu", "sigma", "lam"))
            sign = np.where(k & 1, -1.0, 1.0)
            gauss = sigma * rng.standard_normal(n)
            return levels, mu + gauss + sign * lam * rng.standard_exponential(n)

        shared = level_noise_specs(WearState(8295.0, 1, 0.5), 8760.0, params)
        # a different lambda per level: the default specs share one, so a
        # sampler that scaled every cell by the first level's lambda would
        # pass the shared case
        distinct = [
            NoiseSpec(mu=s.mu, sigma2=s.sigma2, lam=s.lam * (1.0 + 0.7 * i))
            for i, s in enumerate(shared)
        ]
        assert len({s.lam for s in distinct}) == 4
        # 130 levels: 2L > 256, so the index needs 16 bits
        wide = [NoiseSpec(mu=0.05 * i, sigma2=1e-4 * (1 + i % 3), lam=0.01 * (1 + i % 5))
                for i in range(130)]
        block = channel._SAMPLE_BLOCK
        for specs, seed, index_dtype in ((shared, 5, np.uint8), (distinct, 6, np.uint8),
                                         (wide, 7, np.uint16)):
            for n in (1, block - 1, block, block + 1, 3 * block + 5, 5000):
                levels, reads = sample_mixture(specs, np.random.default_rng(seed), n)
                want_levels, want = recipe(specs, seed, n)
                assert levels.dtype == index_dtype
                np.testing.assert_array_equal(levels, want_levels, err_msg=f"n={n}")
                np.testing.assert_array_equal(reads, want, err_msg=f"n={n}")

    # distinct mu, sigma and lambda per level, lambda dominant, so that a
    # table indexed with the wrong level or sign shows in the reads
    DISTINCT_SPECS = [
        NoiseSpec(mu=m, sigma2=s**2, lam=l)
        for m, s, l in zip((1.0, 2.5, 3.0, 4.2), (0.03, 0.02, 0.05, 0.01),
                           (0.02, 0.05, 0.09, 0.14))
    ]

    def test_level_sign_cells_uniform(self):
        # the 2L (level, sign) cells of the shared draw: with sigma a
        # billionth of lambda the Laplace sign is the sign of read - mu
        specs = [NoiseSpec(mu=s.mu, sigma2=(1e-9 * s.lam) ** 2, lam=s.lam)
                 for s in self.DISTINCT_SPECS]
        mu = np.array([s.mu for s in specs])
        levels, reads = sample_mixture(specs, np.random.default_rng(2024), 10**6)
        cells = 2 * levels + (reads < mu[levels])
        counts = np.bincount(cells, minlength=8)
        assert len(counts) == 8
        assert stats.chisquare(counts).pvalue > 1e-4

    def test_per_level_ks_against_cdf(self):
        specs = self.DISTINCT_SPECS
        levels, reads = sample_mixture(specs, np.random.default_rng(2025), 10**6)
        for i, spec in enumerate(specs):
            sel = reads[levels == i]
            result = stats.kstest(sel, lambda y: conditional_cdf(y, spec))
            assert result.pvalue > 1e-4, (i, result.statistic)

    def test_memory_bound(self, params):
        # two arrays of n values, the one-byte level index and the 8-byte
        # draw buffer reused as the reads, plus block-sized scratch: 1.24
        # MiB at n = 100k; a sampler that gives each step an array of n
        # values peaks at 3.05 MiB
        specs = level_noise_specs(WearState(8295.0, 1, 0.5), 8760.0, params)
        tracemalloc.start()
        try:
            levels, _ = sample_mixture(specs, np.random.default_rng(1), 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels.dtype.itemsize == 1
        assert peak <= 1.5 * 2**20

    def test_mean_matches_clt_bound(self, params):
        spec = level_noise_spec(1, WearState(0.0, 0, 1.0), 0.0, params)
        levels, draws = sample_mixture([spec], np.random.default_rng(123), 10**6)
        assert not levels.any()
        bound = 3 * draws.std() / 1e3
        assert abs(draws.mean() - 5.2) < bound

    def test_ks_against_density_integral(self):
        spec = NoiseSpec(mu=5.2, sigma2=0.0025, lam=9.9e-3)
        n = 10**6
        draws = sample_mixture([spec], np.random.default_rng(99), n)[1]
        lo, hi = support_interval([spec])
        grid = np.linspace(lo, hi, 200_001)
        pdf = np.exp(log_conditional_density(grid, spec))
        cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2) * np.diff(grid)))
        cdf /= cdf[-1]
        stat = stats.kstest(draws, lambda y: np.interp(y, grid, cdf)).statistic
        assert stat < 1.628 / math.sqrt(n)  # 1% critical value


class TestOutputDensity:
    def test_single_component(self):
        spec = NoiseSpec(mu=1.0, sigma2=0.01, lam=0.01)
        ys = np.linspace(0, 2, 11)
        np.testing.assert_allclose(
            output_log_density(ys, [spec]), log_conditional_density(ys, spec)
        )

    def test_identical_components(self):
        spec = NoiseSpec(mu=1.0, sigma2=0.01, lam=0.01)
        ys = np.linspace(0, 2, 11)
        np.testing.assert_allclose(
            output_log_density(ys, [spec] * 4),
            log_conditional_density(ys, spec),
            rtol=1e-12,
        )

    @pytest.mark.parametrize(
        "state, t",
        [
            ((0.0, 0, 1.0), 0.0),
            ((8295.0, 3000, 1.0), 8760.0),
            ((20000.0, 7000, 1.0), 87600.0),
        ],
    )
    def test_matches_logsumexp_reference(self, params, state, t):
        # the max-shifted mean of exp against scipy's logsumexp of the
        # per-level densities: within 4 ulp of the larger of the value and 1
        specs = level_noise_specs(WearState(*state), t, params)
        ys = np.linspace(-2.0, 12.0, 2001)
        per_level = [log_conditional_density(ys, s) for s in specs]
        want = special.logsumexp(per_level, axis=0) - math.log(len(specs))
        got = output_log_density(ys, specs)
        ulp = np.spacing(np.maximum(np.abs(want), 1.0))
        assert np.all(np.abs(got - want) <= 4 * ulp)

    def test_mixture_normalizes(self, params):
        specs = level_noise_specs(WearState(0.0, 0, 1.0), 0.0, params)
        lo, hi = support_interval(specs)
        val, _ = integrate.quad(
            lambda y: math.exp(output_log_density(y, specs)),
            lo, hi, points=sorted(s.mu for s in specs), limit=800,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            output_log_density(0.0, [])


class TestRatioGuard:
    # sigma/lambda of 1e6, ten times the kernel's range: at 1e8 the log
    # density was 1.53 nats off its Gaussian limit, and nothing said so
    wide = NoiseSpec(mu=0.0, sigma2=1.0, lam=1e-6)

    @pytest.mark.parametrize(
        "fn", [log_conditional_density, conditional_cdf, conditional_sf]
    )
    def test_one_spec_functions_refuse(self, fn):
        with pytest.raises(NumericalFailure, match="sigma/lambda reaches 1e\\+06"):
            fn(0.0, self.wide)

    def test_output_log_density_refuses(self):
        specs = [NoiseSpec(mu=5.0, sigma2=1.0, lam=1.0), self.wide]
        with pytest.raises(NumericalFailure, match="sigma/lambda reaches 1e\\+06"):
            output_log_density(np.array([0.0, 1.0]), specs)

    def test_refuses_support_beyond_float_range(self, params):
        # a Laplace scale of 1e308 is finite, but the support's 30 of it is
        # not: refused in one line, before the quadrature warns or fails
        vast = NoiseSpec(mu=0.0, sigma2=1.0, lam=1e308)
        for fn in (log_conditional_density, conditional_cdf, conditional_sf):
            with pytest.raises(NumericalFailure, match="support leaves the float range"):
                fn(0.0, vast)
        with pytest.raises(NumericalFailure, match="support leaves the float range"):
            capacity_at(WearState(0.0, 0, 1.0), 8760.0, replace(params, c_w=1e308))


class TestTypes:
    def test_device_params_validation(self):
        good = default_device_params()
        with pytest.raises(ValueError):
            DeviceParams(**{**good.__dict__, "sigma_e": 0.01})
        with pytest.raises(ValueError):
            DeviceParams(**{**good.__dict__, "base_levels": (2.8, 2.8, 6.4, 7.86)})
        with pytest.raises(ValueError):
            DeviceParams(**{**good.__dict__, "k2": 0.9})  # k2 > k1

    def test_wear_state_validation(self):
        with pytest.raises(ValueError):
            WearState(v_acc=-1.0, cycles=0, alpha=1.0)
        with pytest.raises(ValueError):
            WearState(v_acc=0.0, cycles=-1, alpha=1.0)
        with pytest.raises(ValueError):
            WearState(v_acc=0.0, cycles=0, alpha=1.5)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(mu=0.0, sigma2=0.0, lam=0.1)
        with pytest.raises(ValueError):
            NoiseSpec(mu=0.0, sigma2=0.1, lam=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["a_w", "c_w", "k1", "a_r", "b_r", "k2", "v_max", "t0", "sigma_p", "sigma_e"]
    )
    def test_device_params_reject_non_finite(self, name, bad):
        good = default_device_params()
        with pytest.raises(ValueError, match=name):
            DeviceParams(**{**good.__dict__, name: bad})

    def test_device_params_reject_non_finite_level(self):
        good = default_device_params()
        with pytest.raises(ValueError, match="base_levels"):
            DeviceParams(**{**good.__dict__, "base_levels": (2.8, math.nan, 6.4, 7.86)})

    def test_device_params_reject_zero_wear_floor(self):
        # c_w is the Laplace scale of a fresh device, which must be positive
        good = default_device_params()
        with pytest.raises(ValueError, match="c_w"):
            DeviceParams(**{**good.__dict__, "c_w": 0.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_wear_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            WearState(v_acc=bad, cycles=1, alpha=1.0)
        with pytest.raises(ValueError):
            WearState(v_acc=1.0, cycles=1, alpha=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mu", "sigma2", "lam"])
    def test_noise_spec_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError):
            NoiseSpec(**{"mu": 0.0, "sigma2": 0.1, "lam": 0.1, name: bad})
