"""Information-theory tests.

The library's vectorized panel quadrature is checked against an
independent scipy.integrate.quad oracle for the same KL integrals, and
its hardcoded Gauss-Kronrod constants against the polynomial degrees
they must integrate exactly.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from flashlife import channel, infotheory
from flashlife.allocation import PolicyConfig, expected_cycle_increment, simulate_lifetime
from flashlife.channel import NoiseSpec, WearState, level_noise_spec
from flashlife.channel import _log_density, _log_mean_exp, _spec_arrays, _support
from flashlife.infotheory import (
    MiEstimate,
    NumericalFailure,
    mutual_information,
    mutual_information_mc,
)

LN2 = math.log(2.0)


def mi_quad_oracle(specs):
    """Oracle: MI in bits via scipy.integrate.quad on the KL integrands."""
    levels = _spec_arrays(specs)
    lo, hi = _support(levels)
    pts = sorted(s.mu for s in specs)
    logk = math.log(len(specs))
    total = 0.0
    for i in range(len(specs)):
        def integrand(y, i=i):
            lf = _log_density(np.array([y]), *levels[:, :, None])
            lc = lf[i, 0]
            if lc < -700:
                return 0.0
            lm = _log_mean_exp(lf)[0][0]
            return math.exp(lc) * (lc - lm)
        val, _ = integrate.quad(integrand, lo, hi, points=pts, limit=800,
                                epsabs=1e-12, epsrel=1e-10)
        total += val
    return total / len(specs) / LN2 + 0.0 * logk


def default_specs(params, v_acc=0.0, cycles=0, alpha=1.0, t=0.0):
    state = WearState(v_acc, cycles, alpha)
    return [level_noise_spec(k, state, t, params) for k in range(params.num_levels)]


def panel_edges_reference(specs):
    """Loop form of the panel rule: a level's breakpoint is an edge where
    the panel it closes toward its mean is no wider than every other
    level's panel at that point; the support ends are always edges."""
    breaks = [float(b) for b in infotheory._BREAKS]

    def width(scale, d, own_break=None):
        # the panel ending at the first break at or beyond distance d, or
        # at the mean either panel beside it
        if own_break is not None:
            k = own_break
        else:
            k = next((k for k, b in enumerate(breaks) if d <= b), len(breaks))
        if k == len(breaks):
            return math.inf
        k = max(k, 1)
        return scale * (breaks[k] - breaks[k - 1])

    lo, hi = _support(_spec_arrays(specs))
    edges = [lo, hi]
    for i, s in enumerate(specs):
        scale = s.sigma + s.lam
        for k, b in enumerate(breaks):
            for p in {s.mu + scale * b, s.mu - scale * b}:
                own = width(scale, b, own_break=k)
                others = [
                    width(o.sigma + o.lam, abs(p - o.mu) / (o.sigma + o.lam))
                    for j, o in enumerate(specs) if j != i
                ]
                if lo < p < hi and all(own <= w for w in others):
                    edges.append(p)
    return np.array(sorted(set(edges)))


class QuadratureTrace:
    """Per MI: the panels evaluated in each round and the density points."""

    def __init__(self, monkeypatch):
        self.runs = []  # [[panels per round], density points]
        integrals = infotheory._information_integrals
        values = infotheory._panel_values
        density = infotheory._log_density

        def traced_integrals(levels, edges):
            self.runs.append([[], 0])
            return integrals(levels, edges)

        def traced_values(levels, a, half):
            self.runs[-1][0].append(len(a))
            return values(levels, a, half)

        def traced_density(y, mu, sigma, lam):
            out = density(y, mu, sigma, lam)
            self.runs[-1][1] += np.size(out)
            return out

        monkeypatch.setattr(infotheory, "_information_integrals", traced_integrals)
        monkeypatch.setattr(infotheory, "_panel_values", traced_values)
        monkeypatch.setattr(infotheory, "_log_density", traced_density)


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

    def test_refuses_ratio_beyond_kernel_range(self):
        # the kernel's rounding grows as (sigma/lambda)^2; past the bound
        # the quadrature and the Monte-Carlo estimate both refuse the specs
        specs = [NoiseSpec(mu=float(i), sigma2=1.0, lam=1.0) for i in range(3)]
        specs.append(NoiseSpec(mu=3.0, sigma2=1.0, lam=0.5 / channel._MAX_RATIO))
        with pytest.raises(NumericalFailure, match="sigma/lambda reaches 2e\\+05"):
            mutual_information(specs)
        with pytest.raises(NumericalFailure, match="sigma/lambda"):
            mutual_information_mc(specs, 1000, seed=0)

    def test_failed_quadrature_names_the_ratio(self, params, monkeypatch):
        # a tolerance below the rounding of the quadrature's sums cannot be
        # reached; the failure names the largest sigma/lambda, sigma_e/c_w
        monkeypatch.setattr(infotheory, "REL_TOL", 1e-20)
        specs = default_specs(replace(params, c_w=4e-6))
        with pytest.raises(NumericalFailure) as exc:
            mutual_information(specs)
        assert str(exc.value).startswith(
            "quadrature did not converge at sigma/lambda up to 8.75e+04 "
            "(achieved tolerance "
        )
        assert exc.value.achieved_tol > infotheory.REL_TOL

    @pytest.mark.parametrize(
        "v_acc, t", [(0.0, 0.0), (2212.0, 8760.0), (8295.0, 8760.0)]
    )
    def test_refuses_levels_the_float_grid_cannot_resolve(self, params, v_acc, t):
        # the MI does not change when every level shifts alike, but far out
        # the float spacing at the support ends grows against the narrowest
        # sigma + lambda. The last power-of-two shift whose spacing is within
        # REL_TOL of it still matches the quad oracle of the unshifted
        # levels; the next one is refused, where a wrong MI would follow.
        specs = default_specs(params, v_acc=v_acc, cycles=1, t=t)
        narrow = min(s.sigma + s.lam for s in specs)

        def shifted(k):
            return [replace(s, mu=s.mu + 2.0**k) for s in specs]

        def spacing(k):
            return math.ulp(_support(_spec_arrays(shifted(k)))[1]) / narrow

        k = next(k for k in range(64) if spacing(k + 1) > infotheory.REL_TOL)
        assert spacing(k) > infotheory.REL_TOL / 4
        assert mutual_information(shifted(k)).value == pytest.approx(
            mi_quad_oracle(specs), abs=1e-8
        )
        with pytest.raises(NumericalFailure, match="^the float spacing at the support ends"):
            mutual_information(shifted(k + 1))

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
            # the solver's lower end, ALPHA_MIN
            dict(alpha=0.05, t=8760.0),
        ],
    )
    def test_matches_scipy_quad_oracle(self, params, kwargs):
        specs = default_specs(params, **kwargs)
        assert mutual_information(specs).value == pytest.approx(
            mi_quad_oracle(specs), abs=1e-8
        )

    def test_clamped_checkpoint_matches_oracle(self, params, dynamic_run):
        # the dynamic run's last checkpoint: alpha clamped at 1, the most
        # worn state the policy reaches
        cp = dynamic_run.result.checkpoints[-1]
        assert cp.alpha == 1.0
        specs = default_specs(params, v_acc=cp.v_acc, cycles=cp.cycle, t=8760.0)
        mi = mutual_information(specs).value
        assert mi == cp.capacity_bits
        assert mi == pytest.approx(mi_quad_oracle(specs), abs=1e-8)

    def test_density_points_per_mi(self, params, monkeypatch):
        # 21 Kronrod nodes per panel per level in every round, and no
        # density evaluation outside the panel rule
        trace = QuadratureTrace(monkeypatch)
        res = simulate_lifetime(params, PolicyConfig(mode="fixed"))
        assert res.lifetime_cycles == 3000
        assert len(trace.runs) == len(res.checkpoints)
        for rounds, points in trace.runs:
            assert points == params.num_levels * 21 * sum(rounds)
        # full-swing levels late in life reach the refinement, which
        # halves only some of the panels
        refined = [rounds for rounds, _ in trace.runs if len(rounds) > 1]
        assert refined
        assert all(rounds[1] < rounds[0] for rounds in refined)

    def test_density_points_budget(self, params, monkeypatch):
        # the default dynamic run averaged 8068 density points per MI with
        # every breakpoint of every level kept as a panel edge
        trace = QuadratureTrace(monkeypatch)
        res = simulate_lifetime(params, PolicyConfig(mode="dynamic"))
        assert res.lifetime_cycles == 5500
        points = [p for _, p in trace.runs]
        assert np.mean(points) <= 5000
        for rounds, p in trace.runs:
            assert p == params.num_levels * 21 * sum(rounds)

    def test_refinement_halves_only_failing_panels(self, params, monkeypatch):
        specs = default_specs(params, v_acc=2212.0, cycles=800, t=8760.0)
        edges = infotheory._panel_edges(_spec_arrays(specs))
        # the first round's error, from a partition that may not grow
        monkeypatch.setattr(infotheory, "REL_TOL", 0.0)
        monkeypatch.setattr(infotheory, "MAX_PANELS", 0)
        with pytest.raises(NumericalFailure) as exc:
            mutual_information(specs)
        first = exc.value.achieved_tol
        monkeypatch.setattr(infotheory, "MAX_PANELS", 2000)
        monkeypatch.setattr(infotheory, "REL_TOL", first / 10)
        trace = QuadratureTrace(monkeypatch)
        mi = mutual_information(specs).value
        (rounds, points), = trace.runs
        assert rounds[0] == len(edges) - 1
        assert len(rounds) >= 2 and rounds[1] < rounds[0]
        assert rounds[1] % 2 == 0  # two halves per split panel
        assert points == params.num_levels * 21 * sum(rounds)
        assert mi == pytest.approx(mi_quad_oracle(specs), abs=1e-8)

    def test_identical_levels_refine(self, params, monkeypatch):
        # an identical pair of levels gives coincident breaks, which must
        # not leave empty panels for every refinement round to split again
        specs = default_specs(params, v_acc=2212.0, cycles=800, t=8760.0)
        specs = specs[:2] + specs[1:]
        edges = infotheory._panel_edges(_spec_arrays(specs))
        assert np.all(np.diff(edges) > 0)
        monkeypatch.setattr(infotheory, "REL_TOL", 0.0)
        monkeypatch.setattr(infotheory, "MAX_PANELS", 0)
        with pytest.raises(NumericalFailure) as exc:
            mutual_information(specs)
        first = exc.value.achieved_tol
        monkeypatch.setattr(infotheory, "MAX_PANELS", 2000)
        monkeypatch.setattr(infotheory, "REL_TOL", first / 1000)
        trace = QuadratureTrace(monkeypatch)
        mi = mutual_information(specs).value
        (rounds, _), = trace.runs
        assert len(rounds) >= 3 and all(r < rounds[0] for r in rounds[1:])
        assert mi == pytest.approx(mi_quad_oracle(specs), abs=1e-8)

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


class TestPanelEdges:
    def test_matches_loop_reference(self, params):
        rng = np.random.default_rng(7)
        cases = [
            default_specs(params),
            default_specs(params, v_acc=8295.0, cycles=3000, t=8760.0),
            default_specs(params, alpha=0.05, t=8760.0),
            default_specs(params, v_acc=20000.0, cycles=7000, t=87600.0),
        ]
        for _ in range(10):
            mus = np.sort(rng.uniform(0.0, 8.0, 4))
            cases.append([
                NoiseSpec(mu=float(m), sigma2=float(rng.uniform(1e-4, 0.2)),
                          lam=float(rng.uniform(1e-3, 0.5)))
                for m in mus
            ])
        for specs in cases:
            edges = infotheory._panel_edges(_spec_arrays(specs))
            np.testing.assert_array_equal(edges, panel_edges_reference(specs))
            assert (edges[0], edges[-1]) == _support(_spec_arrays(specs))
            assert np.all(np.diff(edges) > 0)

    def test_block_matches_single_states(self, params):
        # the block's edges of every state are those of _panel_edges and of
        # the loop reference, bit for bit: the three grid trajectories, then
        # the cases above, identical levels, past charge exhaustion and
        # alpha = 0.05 among them, as blocks of their own
        step = 100 * expected_cycle_increment(params.base_levels)
        v_acc = [0.0]
        while len(v_acc) < 201:
            v_acc.append(v_acc[-1] + step)
        blocks = []
        for t in (24.0, 8760.0, 87600.0):
            block = channel._level_grid(v_acc, t, 1.0, params, True)
            for levels in block.swapaxes(0, 1):
                channel._check_levels(levels)
            blocks.append((block, [default_specs(params, v, 1, 1.0, t) for v in v_acc]))
        worn = default_specs(params, v_acc=2212.0, cycles=800, t=8760.0)
        for cases in [
            [
                default_specs(params),
                default_specs(params, v_acc=20000.0, cycles=7000, t=87600.0),
                default_specs(params, alpha=0.05, t=8760.0),
                default_specs(params, v_acc=8295.0, cycles=3000, t=8760.0),
            ],
            [worn[:2] + worn[1:], worn[:1] + worn],
        ]:
            blocks.append((np.stack([_spec_arrays(specs) for specs in cases], axis=1), cases))
        for block, cases in blocks:
            for specs, edges in zip(cases, infotheory._block_panel_edges(block), strict=True):
                single = infotheory._panel_edges(_spec_arrays(specs))
                assert edges.tobytes() == single.tobytes()
                np.testing.assert_array_equal(edges, panel_edges_reference(specs))

    def test_drops_other_levels_tail_breaks(self, params):
        # a worn device: keeping every level's breaks would give 39 panels,
        # the erased level's wide tail breaks cutting into the peaks of the
        # programmed levels; 20 remain
        specs = default_specs(params, v_acc=8295.0, cycles=3000, t=8760.0)
        edges = infotheory._panel_edges(_spec_arrays(specs))
        lo, hi = _support(_spec_arrays(specs))
        union = np.unique(np.concatenate(
            [[lo, hi]] + [s.mu + (s.sigma + s.lam) * infotheory._OFFSETS for s in specs]
        ))
        union = union[(union >= lo) & (union <= hi)]
        assert np.all(np.isin(edges, union))
        assert len(edges) < 0.7 * len(union)


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

    def test_chunk_memory_bound(self, params):
        # one chunk's reads and level index (0.56 MiB) plus the sampler's
        # and one density block's scratch: 1.02 MiB, over two chunks as
        # over one. Keeping the first chunk's arrays through the second
        # draw peaks at 1.52 MiB; the density of a whole chunk built level
        # by level at 6.07 MiB, all four levels in one broadcast at 15 MiB
        specs = default_specs(params, v_acc=8295.0, cycles=3000, t=8760.0)
        tracemalloc.start()
        try:
            mutual_information_mc(specs, 2 * infotheory.MC_CHUNK, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 2**20

    @pytest.mark.parametrize("v_acc, alpha, t, value, stderr", [
        (2000.0, 1.0, 24.0, "0x1.ffffffd9f1743p+0", "0x1.3051bd35e99fep-30"),
        (20000.0, 0.5, 8760.0, "0x1.424104c659aa2p-2", "0x1.525501b98e72bp-9"),
    ], ids=["2000.0-1.0-24.0", "20000.0-0.5-8760.0"])
    def test_stream_values(self, params, v_acc, alpha, t, value, stderr):
        # the estimate a seed gives stays fixed bit for bit
        specs = default_specs(params, v_acc=v_acc, alpha=alpha, t=t)
        est = mutual_information_mc(specs, 100_000, seed=11)
        assert type(est.value) is type(est.stderr) is float
        assert (est.value.hex(), est.stderr.hex()) == (value, stderr)

    def test_minimum_samples(self, params):
        with pytest.raises(ValueError):
            mutual_information_mc(default_specs(params), 999, seed=0)


class TestEstimateType:
    def test_fields(self):
        e = MiEstimate(value=1.5, stderr=0.01, method="quadrature")
        assert (e.value, e.stderr, e.method) == (1.5, 0.01, "quadrature")
