"""Channel model tests.

The conditional density is checked against a brute-force numerical
convolution of the Gaussian and Laplace densities (built first, kept free
of any code under test beyond plain formulas), and the closed-form CDF
against direct quadrature of the density.
"""

import math

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
    wear_scale,
)
from flashlife.channel import _level_moments


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
    def test_zero_wear_is_floor(self, params):
        assert wear_scale(0.0, params) == pytest.approx(1.26e-3, abs=0)

    def test_unit_ratio(self, params):
        assert wear_scale(16.0, params) == pytest.approx(1.44e-3, rel=1e-12)

    def test_baseline_wear(self, params):
        # independent evaluation with the device constants
        expected = 1.26e-3 + 1.8e-4 * (8295.0 / 16.0) ** 0.62
        got = wear_scale(8295.0, params)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(9.937e-3, rel=1e-3)

    def test_monotone_in_v_acc(self, params):
        grid = np.linspace(0.0, 3e4, 100)
        lams = [wear_scale(v, params) for v in grid]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_negative_rejected(self, params):
        with pytest.raises(ValueError):
            wear_scale(-1.0, params)


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
            assert spec.lam == wear_scale(8295.0, params)

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

    def test_array_negative_rejected(self, params):
        with pytest.raises(ValueError):
            wear_scale(np.array([1.0, -1.0]), params)
        with pytest.raises(ValueError):
            retention_moments(1.0, 0.0, np.array([0.0, -1.0]), params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_time(self, params, t):
        # capacity_at reaches the channel through level_noise_specs
        with pytest.raises(ValueError, match="t must be finite"):
            level_noise_specs(WearState(0.0, 0, 1.0), t, params)
        with pytest.raises(ValueError, match="t must be finite"):
            capacity_at(WearState(8295.0, 3000, 1.0), t, params)


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

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 40.0, 280.0])
    def test_matches_logaddexp_reference(self, ratio):
        # the two tail terms assembled with np.logaddexp, as a reference
        # for the kernel's own max + log1p(exp(-gap)) form
        spec = NoiseSpec(mu=0.0, sigma2=1.0, lam=1.0 / ratio)
        z = np.concatenate([-np.logspace(-3, 3, 61), [0.0], np.logspace(-3, 3, 61)])
        upper = z * ratio + special.log_ndtr(-(z + ratio))
        lower = -z * ratio + special.log_ndtr(z - ratio)
        assert np.min(np.minimum(upper, lower)) < -1e5
        want = 0.5 * ratio**2 - math.log(2.0 * spec.lam) + np.logaddexp(upper, lower)
        got = log_conditional_density(z, spec)
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
        # levels, then Gaussian, then Laplace noise: populations and
        # Monte-Carlo MI depend on this order staying fixed
        specs = level_noise_specs(WearState(8295.0, 1, 0.5), 8760.0, params)
        levels, reads = sample_mixture(specs, np.random.default_rng(5), 5000)
        rng = np.random.default_rng(5)
        want_levels = rng.integers(0, 4, 5000)
        mu, sigma, lam = (np.array([getattr(s, f) for s in specs])[want_levels]
                          for f in ("mu", "sigma", "lam"))
        want = mu + rng.normal(0.0, sigma) + rng.laplace(0.0, lam)
        np.testing.assert_array_equal(levels, want_levels)
        np.testing.assert_array_equal(reads, want)

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
