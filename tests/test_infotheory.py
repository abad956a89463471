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
    mutual_information,
    mutual_information_mc,
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

    def test_unreachable_tolerance_raises(self, params, monkeypatch):
        specs = default_specs(params)
        monkeypatch.setattr(infotheory, "REL_TOL", 1e-30)
        monkeypatch.setattr(infotheory, "MAX_PANELS", 10)
        with pytest.raises(NumericalFailure) as exc:
            mutual_information(specs)
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


class TestEstimateType:
    def test_fields(self):
        e = MiEstimate(value=1.5, stderr=0.01, method="quadrature")
        assert (e.value, e.stderr, e.method) == (1.5, 0.01, "quadrature")
