"""Information-theory tests.

The library's vectorized panel quadrature is checked against an
independent scipy.integrate.quad oracle for the same KL integrals, and
its hardcoded Gauss-Kronrod constants against the polynomial degrees
they must integrate exactly.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from flashlife import infotheory
from flashlife.allocation import PolicyConfig, simulate_lifetime
from flashlife.channel import (
    NoiseSpec,
    WearState,
    level_noise_specs,
    log_conditional_density,
    output_log_density,
    support_interval,
)
from flashlife.infotheory import (
    MiEstimate,
    NumericalFailure,
    QuadratureConfig,
    channel_dispersion,
    mutual_information,
    mutual_information_mc,
    normal_approx_rate,
)

LN2 = math.log(2.0)


def mi_quad_oracle(specs):
    """Oracle: MI in bits via scipy.integrate.quad on the KL integrands."""
    lo, hi = support_interval(specs)
    pts = sorted(s.mu for s in specs)
    logk = math.log(len(specs))
    total = 0.0
    for s in specs:
        def integrand(y, s=s):
            lc = log_conditional_density(y, s)
            if lc < -700:
                return 0.0
            lm = output_log_density(y, specs)
            return math.exp(lc) * (lc - lm)
        val, _ = integrate.quad(integrand, lo, hi, points=pts, limit=800,
                                epsabs=1e-12, epsrel=1e-10)
        total += val
    return total / len(specs) / LN2 + 0.0 * logk


def dispersion_quad_oracle(specs):
    """Oracle: information variance in bits^2 via scipy.integrate.quad on
    the first- and second-moment integrands."""
    lo, hi = support_interval(specs)
    pts = sorted(s.mu for s in specs)
    moments = np.zeros(2)
    for s in specs:
        for p in (1, 2):
            def integrand(y, s=s, p=p):
                lc = log_conditional_density(y, s)
                if lc < -700:
                    return 0.0
                lm = output_log_density(y, specs)
                return math.exp(lc) * (lc - lm) ** p
            val, _ = integrate.quad(integrand, lo, hi, points=pts, limit=800,
                                    epsabs=1e-12, epsrel=1e-10)
            moments[p - 1] += val / len(specs)
    return (moments[1] - moments[0] ** 2) / LN2**2


def default_specs(params, v_acc=0.0, cycles=0, alpha=1.0, t=0.0):
    return level_noise_specs(WearState(v_acc, cycles, alpha), t, params)


class TestKronrodRule:
    # Row 0 of the weights is the 21-node Kronrod rule, row 1 the embedded
    # 10-node Gauss rule (zero weight off its nodes).
    nodes, weights = infotheory._NODES, infotheory._WEIGHTS

    @staticmethod
    def monomial_integral(k):
        return 2.0 / (k + 1) if k % 2 == 0 else 0.0

    def test_kronrod_exact_to_degree_31(self):
        for k in range(32):
            got = self.weights[0] @ self.nodes**k
            assert got == pytest.approx(self.monomial_integral(k), abs=1e-15)
        # and no further: the degree-32 error is about 4e-12
        assert abs(self.weights[0] @ self.nodes**32 - 2 / 33) > 1e-13

    def test_gauss_exact_to_degree_19(self):
        for k in range(20):
            got = self.weights[1] @ self.nodes**k
            assert got == pytest.approx(self.monomial_integral(k), abs=1e-15)
        assert abs(self.weights[1] @ self.nodes**20 - 2 / 21) > 1e-7

    def test_gauss_nodes_are_legendre(self):
        gauss_nodes = self.nodes[self.weights[1] != 0]
        np.testing.assert_allclose(
            gauss_nodes, np.polynomial.legendre.leggauss(10)[0], rtol=0, atol=1e-15
        )

    def test_shape_and_weight_sums(self):
        assert self.nodes.shape == (21,) and self.weights.shape == (2, 21)
        assert np.all(np.diff(self.nodes) > 0)
        np.testing.assert_allclose(self.weights.sum(axis=1), 2.0, rtol=0, atol=1e-15)


class TestMutualInformation:
    def test_wide_separation_saturates(self):
        specs = [NoiseSpec(mu=100.0 * i, sigma2=1.0, lam=0.5) for i in range(4)]
        assert mutual_information(specs).value == pytest.approx(2.0, abs=1e-4)

    def test_identical_levels_zero(self):
        specs = [NoiseSpec(mu=1.0, sigma2=0.01, lam=0.01)] * 4
        assert mutual_information(specs).value == pytest.approx(0.0, abs=1e-9)

    def test_bounds(self, params):
        specs = default_specs(params, v_acc=8295.0, cycles=3000, t=8760.0)
        mi = mutual_information(specs).value
        assert 0.0 <= mi <= 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(),
            dict(v_acc=8295.0, cycles=3000, t=8760.0),
            dict(v_acc=8295.0, cycles=3000, alpha=0.28, t=8760.0),
            # sigma/lambda from 40 to 280: fresh wear scale, scaled levels
            dict(alpha=0.284, t=8760.0),
            # nearly coincident levels, 0.25 sigma apart
            dict(alpha=0.01, t=8760.0),
            # widely separated levels, within 1e-7 bits of saturation
            dict(v_acc=1000.0, cycles=400, t=24.0),
            # past charge exhaustion: drift pushes levels below erased
            dict(v_acc=20000.0, cycles=7000, t=87600.0),
        ],
    )
    def test_matches_scipy_quad_oracle(self, params, kwargs):
        specs = default_specs(params, **kwargs)
        assert mutual_information(specs).value == pytest.approx(
            mi_quad_oracle(specs), abs=1e-8
        )

    def test_density_points_per_mi(self, params, monkeypatch):
        # every MI of the default fixed run stops after one round: 21
        # Kronrod nodes per panel per level, no second rule, no halving
        runs = []  # [panels, density points] per MI

        def panel_edges(specs):
            edges = panel_edges_orig(specs)
            runs.append([len(edges) - 1, 0])
            return edges

        def density(y, spec):
            runs[-1][1] += np.size(y)
            return density_orig(y, spec)

        panel_edges_orig = infotheory._panel_edges
        density_orig = infotheory.log_conditional_density
        monkeypatch.setattr(infotheory, "_panel_edges", panel_edges)
        monkeypatch.setattr(infotheory, "log_conditional_density", density)
        res = simulate_lifetime(params, PolicyConfig(mode="fixed"))
        assert res.lifetime_cycles == 3000
        assert len(runs) == len(res.checkpoints)
        for panels, points in runs:
            assert points == params.num_levels * 21 * panels

    def test_worn_device_anchor(self, params):
        specs = default_specs(params, v_acc=8295.0, cycles=3000, t=8760.0)
        assert mutual_information(specs).value == pytest.approx(1.902, abs=2e-3)

    def test_monotone_in_wear(self, params):
        mis = [
            mutual_information(
                default_specs(params, v_acc=v, cycles=max(1, int(v)), t=8760.0)
            ).value
            for v in (1000.0, 5000.0, 10000.0, 20000.0)
        ]
        assert all(b < a for a, b in zip(mis, mis[1:]))

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            mutual_information([NoiseSpec(mu=0.0, sigma2=1.0, lam=0.1)])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rel_tol=math.nan),
            dict(rel_tol=math.inf),
            dict(rel_tol=0.0),
            dict(max_subdivisions=math.nan),
            dict(max_subdivisions=5),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)

    def test_unreachable_tolerance_raises(self, params):
        specs = default_specs(params)
        cfg = QuadratureConfig(rel_tol=1e-30, max_subdivisions=10)
        with pytest.raises(NumericalFailure) as exc:
            mutual_information(specs, cfg)
        assert exc.value.achieved_tol > 1e-30

    def test_random_channels_match_oracle(self, params):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            mus = np.sort(rng.uniform(0.0, 8.0, 4))
            mus += np.arange(4) * 1e-3  # keep strictly increasing
            specs = [
                NoiseSpec(
                    mu=float(m),
                    sigma2=float(rng.uniform(1e-3, 0.2)),
                    lam=float(rng.uniform(1e-3, 0.5)),
                )
                for m in mus
            ]
            mi = mutual_information(specs).value
            assert mi == pytest.approx(mi_quad_oracle(specs), abs=1e-7)
            assert 0.0 <= mi <= 2.0 + 1e-12


class TestMonteCarlo:
    def test_reproducible(self, params):
        specs = default_specs(params)
        a = mutual_information_mc(specs, 50_000, seed=5)
        b = mutual_information_mc(specs, 50_000, seed=5)
        assert a.value == b.value and a.stderr == b.stderr
        assert a.method == "monte_carlo"

    def test_agrees_with_quadrature(self, params):
        specs = default_specs(params, v_acc=8295.0, cycles=3000, t=8760.0)
        quad = mutual_information(specs).value
        mc = mutual_information_mc(specs, 10**6, seed=17)
        assert abs(mc.value - quad) < 3 * mc.stderr
        assert mc.stderr < 2e-3

    def test_sample_count_grows_precision(self, params):
        specs = default_specs(params, v_acc=8295.0, cycles=3000, t=8760.0)
        small = mutual_information_mc(specs, 10_000, seed=1)
        big = mutual_information_mc(specs, 640_000, seed=1)
        assert big.stderr < small.stderr / 4

    def test_minimum_samples(self, params):
        with pytest.raises(ValueError):
            mutual_information_mc(default_specs(params), 999, seed=0)


class TestDispersion:
    def test_nonnegative_and_zero_when_saturated(self):
        specs = [NoiseSpec(mu=100.0 * i, sigma2=1.0, lam=0.5) for i in range(4)]
        assert channel_dispersion(specs) == pytest.approx(0.0, abs=1e-4)

    # Near-saturated channels are left out: the sample misses the rare
    # overlap events that carry their variance.
    @pytest.mark.parametrize(
        "kwargs, anchor",
        [
            (dict(alpha=0.28, t=8760.0), 0.2874),  # sigma/lambda >> 1
            (dict(alpha=0.01, t=8760.0), None),  # nearly coincident levels
            (dict(v_acc=8295.0, cycles=3000, t=8760.0), None),
            # past charge exhaustion
            (dict(v_acc=20000.0, cycles=7000, t=87600.0), None),
        ],
        ids=["fresh-scaled", "coincident", "worn", "exhausted"],
    )
    def test_matches_mc_information_variance(self, params, kwargs, anchor):
        specs = default_specs(params, **kwargs)
        v = channel_dispersion(specs)
        if anchor is not None:
            assert v == pytest.approx(anchor, abs=2e-3)
        # MC cross-check of the same variance
        rng = np.random.default_rng(31)
        n = 200_000
        levels = rng.integers(0, 4, n)
        mus = np.array([s.mu for s in specs])[levels]
        sig = np.array([s.sigma for s in specs])[levels]
        lam = np.array([s.lam for s in specs])[levels]
        y = mus + rng.normal(0, sig) + rng.laplace(0, lam)
        lf = np.array([log_conditional_density(y, s) for s in specs])
        info = (lf[levels, np.arange(n)]
                - (np.logaddexp.reduce(lf, axis=0) - math.log(4))) / LN2
        assert v == pytest.approx(info.var(), rel=0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.284, t=8760.0),  # fresh-scaled, sigma/lambda >> 1
            dict(v_acc=8295.0, cycles=3000, t=8760.0),  # worn
            dict(v_acc=20000.0, cycles=7000, t=87600.0),  # past charge exhaustion
        ],
        ids=["fresh-scaled", "worn", "exhausted"],
    )
    def test_matches_scipy_quad_oracle(self, params, kwargs):
        specs = default_specs(params, **kwargs)
        assert channel_dispersion(specs) == pytest.approx(
            dispersion_quad_oracle(specs), rel=1e-7
        )

    def test_decreases_with_separation(self):
        disps = []
        for gap in (1.0, 2.0, 4.0, 8.0):
            specs = [NoiseSpec(mu=gap * i, sigma2=0.09, lam=0.05) for i in range(4)]
            disps.append(channel_dispersion(specs))
        assert disps[-1] < disps[0]
        assert disps[-1] < 1e-3


class TestNormalApproxRate:
    def test_backoff_below_capacity(self):
        r = normal_approx_rate(n=1000, eps=1e-3, c=1.92, v=0.3)
        assert r < 1.92
        # Q^{-1}(1e-3) = 3.0902323061678... (mpmath)
        expected = 1.92 - math.sqrt(0.3 / 1000) * 3.090232306167813
        assert r == pytest.approx(expected, rel=1e-12)

    def test_limits(self):
        assert normal_approx_rate(10**12, 1e-3, 1.92, 0.3) == pytest.approx(
            1.92, abs=1e-4
        )
        assert normal_approx_rate(100, 0.5, 1.92, 0.3) == pytest.approx(1.92)

    def test_zero_dispersion(self):
        assert normal_approx_rate(100, 1e-3, 2.0, 0.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            normal_approx_rate(0, 1e-3, 1.0, 0.1)
        with pytest.raises(ValueError):
            normal_approx_rate(100, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            normal_approx_rate(100, 1e-3, 1.0, -0.1)


class TestEstimateType:
    def test_fields(self):
        e = MiEstimate(value=1.5, stderr=0.01, method="quadrature")
        assert (e.value, e.stderr, e.method) == (1.5, 0.01, "quadrature")
