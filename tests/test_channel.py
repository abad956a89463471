"""Channel model tests.

The conditional density is checked against a brute-force numerical
convolution of the Gaussian and Laplace densities (built first, kept free
of any code under test beyond plain formulas), and the closed-form CDF
against direct quadrature of the density.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from flashlife import channel, infotheory
from flashlife.allocation import PolicyConfig, capacity_at
from flashlife.channel import (
    DeviceParams,
    NoiseSpec,
    NumericalFailure,
    WearState,
    default_device_params,
    level_noise_spec,
    retention_moments,
    sample_mixture,
    scaled_levels,
)
from flashlife.channel import _cdf_sf, _check_levels, _log_density, _log_mean_exp
from flashlife.channel import _level_array, _level_grid, _level_moments, _spec_arrays
from flashlife.channel import _support, _wear_terms
from flashlife.infotheory import mutual_information, mutual_information_mc


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


def log_mixture(y, levels):
    """ln of the mixture density of the (3, L) array levels of (mu, sigma,
    lam) at the points of a flat array y: the density kernel of every
    level in one broadcast call, then the mixture reduction."""
    return _log_mean_exp(_log_density(y, *levels[:, :, None]))[0]


class TestWearScale:
    """The Laplace scale of the wear-out noise, as the gate gives it to
    every level."""

    @staticmethod
    def lam(v_acc, params):
        levels, _ = _level_array(v_acc, 0.0, 1.0, params, True)
        assert len(set(levels[2].tolist())) == 1
        return levels[2, 0]

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

    def test_array_matches_scalar_calls(self, params):
        # an array's elements take the Python-float arithmetic of a scalar
        # call, bit for bit, where numpy's SIMD pow and log1p may round
        # otherwise; element by element, then broadcast
        rng = np.random.default_rng(2401)
        x, v, t = (rng.uniform(0.0, hi, 2000) for hi in (8.0, 2e4, 9e4))
        cases = [(x, v, t), (7.86, v[:40, None], t[None, :50])]
        for args in cases:
            mu_r, s_r2 = retention_moments(*args, params)
            assert mu_r.shape == s_r2.shape == np.broadcast_shapes(*map(np.shape, args))
            for i in np.ndindex(mu_r.shape):
                point = [float(np.broadcast_to(a, mu_r.shape)[i]) for a in args]
                scalar = retention_moments(*point, params)
                assert (mu_r[i].hex(), s_r2[i].hex()) == (scalar[0].hex(), scalar[1].hex())

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
        # each level's spec is its column of the gate's array, bit for bit
        state = WearState(8295.0, 3000, 0.5)
        specs = [level_noise_spec(i, state, 8760.0, params, scale_erased) for i in range(4)]
        gate, sigma2 = _level_array(8295.0, 8760.0, 0.5, params, scale_erased)
        assert [(s.mu, s.sigma, s.lam) for s in specs] == list(zip(*gate.tolist()))
        assert [s.sigma2 for s in specs] == sigma2.tolist()
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
        # v_acc and times of shape S + (1,) give a (3,) + S + (L,) array of
        # level moments, matching the scalar evaluation up to rounding
        v = np.array([0.0, 1000.0, 8295.0, 20000.0])
        t = np.array([0.0, 24.0, 8760.0, 87600.0])
        moments, sigma2 = _level_moments(v[:, None, None], t[None, :, None], 0.5, params, False)
        assert moments.shape == (3, 4, 4, 4)
        assert sigma2.shape == (4, 4, 4)
        mu, sigma, lam = moments
        assert np.array_equal(sigma, np.sqrt(sigma2))
        for i, vi in enumerate(v):
            for j, tj in enumerate(t):
                levels, single_sigma2 = _level_array(vi, tj, 0.5, params, False)
                np.testing.assert_allclose(mu[i, j], levels[0], rtol=1e-14)
                np.testing.assert_allclose(sigma2[i, j], single_sigma2, rtol=1e-14)
                np.testing.assert_allclose(lam[i, j], levels[2], rtol=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_time(self, params, t):
        # level_noise_spec and capacity_at reach the channel through the gate
        with pytest.raises(ValueError, match="t must be finite"):
            level_noise_spec(0, WearState(0.0, 0, 1.0), t, params)
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


def refusal(check, *args):
    """None where check(*args) passes, else the type and message of the
    NumericalFailure it raises."""
    try:
        check(*args)
    except NumericalFailure as exc:
        return type(exc), str(exc)
    return None


# Defects that _check_levels refuses in a row of good levels whose lam is
# 0.01, so that sigma = 2000 gives sigma/lam = 2e5: (row, level, value).
LEVEL_DEFECTS = [
    pytest.param(0, 1, math.nan, id="mu-nan"),
    pytest.param(1, 0, 0.0, id="sigma-zero"),
    pytest.param(2, 2, math.inf, id="lam-inf"),
    pytest.param(1, 2, 2e5 * 0.01, id="ratio"),
    pytest.param(2, 3, 1e308, id="support"),
]


# Device overrides and v_acc of blocks whose states the gate refuses from
# the state at index passed on.
BLOCK_REFUSALS = {
    "square": ({"a_r": 1e300}, [0.0, 276.5, 553.0], 1),  # a Python-float square overflows
    "variance": ({"a_r": 2e152, "a_w": 2e150}, BLOCK_V_ACC[:20], 15),  # sigma2 overflows
    "programming": ({"sigma_e": 1e300}, [0.0, 276.5], 0),  # a programming variance
    "v_acc": ({}, [0.0, 276.5, math.inf], 2),  # a non-finite v_acc
}


def good_levels(params):
    levels, _ = _level_array(2212.0, 8760.0, 1.0, params, True)
    levels[2] = 0.01
    return levels


def level_block(v_acc, t, alpha, params, scale_erased):
    """The fixed policy's block of wear states at one t and alpha: the
    (3, S, L) array of _level_grid, formed with numpy's warnings off as
    the policy forms it, and its (S, 3, L) view of the states' rows."""
    with np.errstate(all="ignore"):
        block = _level_grid(v_acc, t, alpha, params, scale_erased)
    return block, block.swapaxes(0, 1)


class TestLevelBlock:
    """_level_grid sets up many wear states at one t and alpha in one
    pass; each state must get the levels and support of _level_array bit
    for bit, and _check_levels must refuse a row exactly where
    _level_array refuses its state, with the same exception."""

    @pytest.mark.parametrize("t, alpha, scale_erased", BLOCK_CASES)
    def test_rows_match_level_array(self, params, t, alpha, scale_erased):
        block, rows = level_block(BLOCK_V_ACC, t, alpha, params, scale_erased)
        assert [refusal(channel._check_levels, row) for row in rows] == [None] * len(rows)
        lo, hi = channel._block_support(block)
        for i, v in enumerate(BLOCK_V_ACC):
            levels, _ = _level_array(v, t, alpha, params, scale_erased)
            assert rows[i].tobytes() == levels.tobytes()
            support = tuple(x.hex() for x in channel._support(levels))
            assert (lo[i].hex(), hi[i].hex()) == support

    @pytest.mark.parametrize("alpha, scale_erased", [(1.0, True), (0.5, False)])
    def test_grid_matches_level_array(self, params, alpha, scale_erased):
        # the wear fit's grid and the gate give every state the same bits,
        # where numpy's SIMD pow and log1p may round a state otherwise
        rng = np.random.default_rng(2402)
        v_acc, t = rng.uniform(0.0, 2e4, 2000), rng.uniform(0.0, 9e4, 2000)
        grid = _level_grid(v_acc, t, alpha, params, scale_erased)
        assert grid.shape == (3, 2000, params.num_levels)
        for i, (v, ti) in enumerate(zip(v_acc.tolist(), t.tolist())):
            levels, _ = _level_array(v, ti, alpha, params, scale_erased)
            assert grid[:, i].tobytes() == levels.tobytes()

    @pytest.mark.parametrize("row, level, value", LEVEL_DEFECTS)
    def test_count_stops_at_the_first_refused_row(self, params, row, level, value):
        # _check_levels refuses the middle one of five states and only it:
        # the good states before and after it pass
        block = np.stack([good_levels(params)] * 5)
        block[2, row, level] = value
        outcomes = [refusal(channel._check_levels, levels) for levels in block]
        assert [x is None for x in outcomes] == [True, True, False, True, True]

    @pytest.mark.parametrize("overrides, v_acc, passed", [
        pytest.param(*case, id=name) for name, case in BLOCK_REFUSALS.items()
    ])
    def test_counts_up_to_the_first_refused_state(self, params, overrides, v_acc, passed):
        # each row passes _check_levels and equals _level_array's levels, or
        # both refuse it with the same exception and message; the states
        # from the first refused one on are all refused. A programming
        # variance that overflows refuses every row.
        device = replace(params, **overrides)
        singles = [refusal(_level_array, v, 8760.0, 1.0, device, True) for v in v_acc]
        assert [x is None for x in singles] == [i < passed for i in range(len(v_acc))]
        _, rows = level_block(v_acc, 8760.0, 1.0, device, True)
        for v, levels, single in zip(v_acc, rows, singles, strict=True):
            assert refusal(channel._check_levels, levels) == single
            if single is None:
                single_levels, _ = _level_array(v, 8760.0, 1.0, device, True)
                assert levels.tobytes() == single_levels.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", list(BLOCK_REFUSALS))
    def test_one_overflow_rule(self, params, case):
        # _wear_terms never raises: a square beyond the float range reads
        # inf. From the first refused state on, _level_array and
        # _check_levels on the state's _level_grid row refuse it with one
        # message, and retention_moments refuses the top level's drift
        # unless the overflow is in the programming variance, which is no
        # part of it; an infinite v_acc is an invalid argument there.
        overrides, v_acc, passed = BLOCK_REFUSALS[case]
        device = replace(params, **overrides)
        charge = device.base_levels[-1] - device.base_levels[0]
        drift_refusal = {"programming": None, "v_acc": ValueError}.get(case, NumericalFailure)
        noise = "^the noise moments leave the float range$"
        drift = {
            NumericalFailure: "^the retention moments leave the float range$",
            ValueError: "^x_target, v_acc and t must be finite and nonnegative$",
        }
        _, rows = level_block(v_acc, 8760.0, 1.0, device, True)
        for i, (v, row) in enumerate(zip(v_acc, rows, strict=True)):
            bracket, square, _ = _wear_terms(v, device)
            assert square == bracket * bracket
            if i < passed:
                _level_array(v, 8760.0, 1.0, device, True)
                channel._check_levels(row)
                retention_moments(charge, v, 8760.0, device)
                continue
            with pytest.raises(NumericalFailure, match=noise):
                _level_array(v, 8760.0, 1.0, device, True)
            with pytest.raises(NumericalFailure, match=noise):
                channel._check_levels(row)
            if drift_refusal is None:
                retention_moments(charge, v, 8760.0, device)
                continue
            # an array's elements take the Python-float square of a float
            for v_arg in (v, np.array(v_acc[i:])):
                with pytest.raises(drift_refusal, match=drift[drift_refusal]):
                    retention_moments(charge, v_arg, 8760.0, device)

    @pytest.mark.parametrize("case", ["defects", "square", "variance", "v_acc"])
    def test_block_edges_pass_over_refused_rows(self, params, case):
        # _block_panel_edges also sees the rows the gate will refuse: it
        # neither raises nor warns on them, and gives every row that passes
        # the edges of _panel_edges bit for bit. "defects" holds each of the
        # five defects above between good rows.
        if case == "defects":
            block = np.stack([good_levels(params)] * (2 * len(LEVEL_DEFECTS) + 1), axis=1)
            for i, defect in enumerate(LEVEL_DEFECTS):
                row, level, value = defect.values
                block[row, 2 * i + 1, level] = value
            rows = block.swapaxes(0, 1)
        else:
            overrides, v_acc, _ = BLOCK_REFUSALS[case]
            block, rows = level_block(v_acc, 8760.0, 1.0, replace(params, **overrides), True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = infotheory._block_panel_edges(block)
        passing = [refusal(channel._check_levels, levels) is None for levels in rows]
        assert any(passing) and not all(passing)
        for levels, row_edges, ok in zip(rows, edges, passing, strict=True):
            if ok:
                assert row_edges.tobytes() == infotheory._panel_edges(levels).tobytes()

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_rejects_invalid_time(self, params, t):
        # _level_grid leaves t to its callers: the fixed policy's blocks
        # take the retention time of a PolicyConfig, which refuses it
        with pytest.raises(ValueError, match="^retention_time must be (finite|nonnegative)"):
            PolicyConfig(mode="fixed", retention_time=t)


# ln f at sigma = 1, lam = 1/r (as a double) and y = z, for the z of
# DENSITY_Z, from mpmath 1.3.0 at 60 digits and rounded to the nearest
# double; 60 and 120 digits agree to 5e-52. f is even in z, so one row
# serves z and -z. Generated by
#
#     import mpmath as mp
#     mp.mp.dps = 60
#     def ln_f(z, lam):
#         z, lam = mp.mpf(z), mp.mpf(lam)
#         r = 1 / lam
#         phi = lambda x: mp.erfc(-x / mp.sqrt(2)) / 2
#         return mp.log(mp.exp(r * r / 2) / (2 * lam) * (
#             mp.exp(-z * r) * phi(z - r) + mp.exp(z * r) * phi(-(z + r))))
#     ratios = (1e-3, 0.1, 1.0, 5.0, 40.0, 280.0, 1e4, 1e5)
#     {r: [float(ln_f(z, 1.0 / r)) for z in DENSITY_Z] for r in ratios}
DENSITY_Z = np.concatenate([[0.0], np.logspace(-3, 3, 25)])
DENSITY_REFERENCE = {
    0.001: [
        -7.601700162449102, -7.601700162847862, -7.601700163710094, -7.601700166436705,
        -7.601700175058988, -7.601700202324835, -7.601700288544971, -7.601700561176558,
        -7.601701423109164, -7.6017041467396425, -7.601712739280209, -7.601739709876392,
        -7.601823044333144, -7.602068771056872, -7.60271044281854, -7.604064664418289,
        -7.60652537279715, -7.610901959542082, -7.618684753642472, -7.6325247361437665,
        -7.657136092061117, -7.700901959542082, -7.778729900545975, -7.917129725558921,
        -8.163243284732431, -8.600901959542082,
    ],
    0.1: [
        -3.073739685724319, -3.07373972385519, -3.0737398063047, -3.0737400670327713,
        -3.0737408915255804, -3.073743498783322, -3.0737517434817456, -3.0737778137626544,
        -3.0738602377867887, -3.074120711152597, -3.0749426619396294, -3.0775246574799575,
        -3.085521631530831, -3.1092600825808727, -3.1721547429231003, -3.3070182128722436,
        -3.553073599293781, -3.990732273553991, -4.769011683592914, -6.1530099337223705,
        -8.614145525457483, -12.990732273553991, -20.77352637394322, -34.613508875237784,
        -59.224864792588896, -102.99073227355399,
    ],
    1.0: [
        -1.3410216450092636, -1.3410219075768943, -1.3410224753209676, -1.3410242706849247,
        -1.3410299481198296, -1.3410479017011139, -1.3411046754673055, -1.3412842054516192,
        -1.3418518848294867, -1.3436466018712008, -1.34931756887659, -1.3672065113411878,
        -1.4233352132084731, -1.5964616012204795, -2.102051341963013, -3.3619517789456923,
        -5.816560974887098, -10.193147180559945, -17.975941280949172, -31.815923782243736,
        -56.427279699594855, -100.19314718055995, -178.02108818445222, -316.42091319739785,
        -562.5344723709089, -1000.1931471805599,
    ],
    5.0: [
        -0.9555604815546254, -0.9555609478145427, -0.9555619559979428, -0.9555651441537587,
        -0.9555752259873971, -0.95560710754193, -0.9557079258420513, -0.9560267410247582,
        -0.9570349203996082, -0.9602230359589354, -0.9703044668997889, -1.0021819902934985,
        -1.1029598468635347, -1.4213663684870295, -2.425320761696841, -5.5663037232287875,
        -14.969770023625053, -36.58370945609756, -75.49767977007198, -144.6975922765448,
        -267.7543718633004, -486.5837092681258, -875.7234142875872, -1567.7225393523154,
        -2798.290335219871, -4986.583709268126,
    ],
    40.0: [
        -0.9195625596398519, -0.919563059016796, -0.9195641388084064, -0.9195675534092933,
        -0.9195783513253964, -0.9196124973342644, -0.9197204764952799, -0.920061936583804,
        -0.9211417281923943, -0.9245563290619908, -0.93535424499145, -0.9695002521229308,
        -1.0774793957710243, -1.4189393105687513, -2.4987291802290494, -5.913312607603775,
        -16.71105241851227, -50.85524232946649, -158.8141594824286, -499.9504529692613,
        -1446.3695684878423, -3197.004267726446, -6310.121907882137, -11846.11490839996,
        -21690.657275340407, -39197.00426772644,
    ],
    280.0: [
        -0.9189512879000076, -0.9189517878872533, -0.918952868998505, -0.9189562877724647,
        -0.9189670988849824, -0.9190012866245787, -0.9191093977497558, -0.9194512751457189,
        -0.9205323863974889, -0.9239511603571129, -0.9347622728747473, -0.9689500124703289,
        -1.0770611376400854, -1.4189385335300249, -2.5000497845688154, -5.918823736880008,
        -16.729936181371556, -50.91767504506611, -159.02879288141693, -500.90611497354814,
        -1582.016612947137, -5000.782510598282, -15811.790891019651, -49338.832842292,
        -118250.62941087512, -240795.0583575774,
    ],
    10000.0: [
        -0.9189385432046725, -0.9189390432046625, -0.9189401243434709, -0.9189435432045725,
        -0.9189543545926571, -0.9189885432036725, -0.9190966570845186, -0.9194385431946724,
        -0.9205196820031339, -0.9239385431046725, -0.9347499311892866, -0.9689385422046726,
        -1.077052423050814, -1.418938533204673, -2.5000773416660866, -5.918938443204673,
        -16.730326527818765, -50.91893754320422, -159.03281838934114, -500.9189285431552,
        -1582.0577370041194, -5000.9188385382095, -15812.30692310734, -50000.91793804291,
        -158114.79877967408, -500000.90888820786,
    ],
    100000.0: [
        -0.9189385333046728, -0.9189390333046726, -0.9189401144435025, -0.9189435333046717,
        -0.9189543446929704, -0.9189885333046628, -0.9190966471876495, -0.9194385333045727,
        -0.9205196721344407, -0.9239385333036727, -0.9347499216023524, -0.9689385332946727,
        -1.077052416281469, -1.4189385332046727, -2.5000773630726347, -5.918938532304673,
        -16.73032683098429, -50.918938523304675, -159.03282151010086, -500.9189384333046,
        -1582.0577683012666, -5000.918937533304, -15812.307236212919, -50000.91892853325,
        -158114.80191532898, -500000.9188385283,
    ],
}


class TestConditionalDensity:
    def test_symmetry_about_mean(self):
        levels = _spec_arrays([NoiseSpec(mu=5.2, sigma2=0.0025, lam=9.9e-3)])
        d = np.linspace(0.0, 1.0, 50)
        np.testing.assert_allclose(
            _log_density(5.2 + d, *levels), _log_density(5.2 - d, *levels), rtol=1e-12
        )

    def test_normalizes(self):
        levels = _spec_arrays([NoiseSpec(mu=5.2, sigma2=0.0025, lam=9.9e-3)])
        lo, hi = _support(levels)
        val, _ = integrate.quad(
            lambda y: math.exp(_log_density(np.array([y]), *levels)[0]),
            lo, hi, points=[5.2], limit=500,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0, 40.0, 100.0])
    def test_matches_convolution_oracle(self, ratio):
        sigma = 0.05
        spec = NoiseSpec(mu=5.2, sigma2=sigma**2, lam=sigma / ratio)
        offsets = np.concatenate(
            [np.linspace(-5, 5, 9) * sigma, np.array([-20, 20]) * spec.lam]
        )
        ys = spec.mu + offsets
        for y, got in zip(ys, _log_density(ys, *_spec_arrays([spec])).tolist()):
            oracle = gauss_laplace_convolution(y, spec.mu, sigma, spec.lam)
            assert math.exp(got) == pytest.approx(oracle, abs=1e-8)
            if oracle > 1e-250:
                assert math.log(oracle) == pytest.approx(got, abs=1e-6)

    def test_finite_at_extreme_sigma_over_lambda(self):
        # naive evaluation overflows at sigma/lam ~ 40; must stay finite
        levels = _spec_arrays([NoiseSpec(mu=0.0, sigma2=1.0, lam=1e-4)])
        vals = _log_density(np.linspace(-10, 10, 21), *levels)
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 40.0, 280.0, tuple(DENSITY_REFERENCE)])
    def test_matches_mpmath_reference(self, ratio):
        # within a few ulp of ln f at any sigma/lambda; a tuple of ratios
        # evaluates one level per ratio in a single broadcast kernel call,
        # which must give each level's own call bit for bit
        ratios = np.array(ratio, ndmin=1)
        levels = _spec_arrays([NoiseSpec(mu=0.0, sigma2=1.0, lam=1.0 / r) for r in ratios])
        want = np.array([DENSITY_REFERENCE[r] for r in ratios])
        for z in (DENSITY_Z, -DENSITY_Z):
            got = _log_density(z, *levels[:, :, None])
            assert np.array_equal(got, [_log_density(z, *level) for level in levels.T])
            assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want)))

    def test_both_tail_terms_vanish(self):
        # where z^2 and r |z| overflow, both terms of the density are 0:
        # ln f is -inf, with no NaN and no warning
        levels = _spec_arrays([NoiseSpec(mu=0.0, sigma2=1.0, lam=1e-5)])
        y = np.array([-1.7e308, -1e305, 1e305, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(_log_density(y, *levels) == -np.inf)

    @given(
        mu=st.floats(-5, 5),
        sigma2=st.floats(1e-4, 1.0),
        lam=st.floats(1e-4, 1.0),
        d=st.floats(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_property(self, mu, sigma2, lam, d):
        levels = _spec_arrays([NoiseSpec(mu=mu, sigma2=sigma2, lam=lam)])
        a, b = _log_density(np.array([mu + d, mu - d]), *levels)
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


def density_integral(levels, a, b, **kwargs):
    """Oracle: scipy.integrate.quad of the one-level density kernel."""
    val, _ = integrate.quad(
        lambda u: math.exp(_log_density(np.array([u]), *levels)[0]), a, b, limit=500, **kwargs
    )
    return val


class TestConditionalCdf:
    @pytest.mark.parametrize("spec", CDF_SPECS)
    def test_matches_quadrature(self, spec):
        levels = _spec_arrays([spec])
        lo, _ = _support(levels)
        ys = spec.mu + np.array([-2.0, -0.5, 0.0, 0.7, 2.5]) * (spec.sigma + spec.lam)
        cdf, _ = _cdf_sf(ys, *levels)
        for y, got in zip(ys.tolist(), cdf.tolist()):
            oracle = density_integral(levels, lo, y, points=[p for p in (spec.mu,) if p < y])
            assert got == pytest.approx(oracle, abs=1e-9)

    def test_survival_complements_cdf(self):
        for spec in CDF_SPECS:
            ys = spec.mu + np.linspace(-3, 3, 13) * spec.sigma
            cdf, sf = _cdf_sf(ys, *_spec_arrays([spec]))
            np.testing.assert_allclose(cdf + sf, 1.0, atol=1e-12)

    def test_deep_tail_survival(self):
        # far above the mean the CDF rounds to 1; the survival function
        # must still resolve the tiny tail mass, down to below 1e-30
        sfs = []
        for spec in CDF_SPECS:
            levels = _spec_arrays([spec])
            ys = spec.mu + np.array([0.5, 2.0, 4.0, 5.0, 6.0, 8.0, 12.0]) * (
                spec.sigma + spec.lam
            )
            for y, sf in zip(ys.tolist(), _cdf_sf(ys, *levels)[1].tolist()):
                sfs.append(sf)
                oracle = density_integral(
                    levels, y, y + 10 * spec.sigma + 45 * spec.lam, epsabs=0.0, epsrel=1e-12
                )
                assert sf == pytest.approx(oracle, rel=1e-8)
        assert 0 < min(sfs) < 1e-30

    @pytest.mark.parametrize("lam", [1.26e-3, 3.5, 350.0], ids=["r=278", "r=0.1", "r=1e-3"])
    def test_overflowing_z_takes_the_limits(self, lam):
        # z = (y - mu)/sigma overflows at +-1e308 and z r at +-1e306 when
        # r > 1: CDF and SF take their limits with no warning (an error
        # here), where the tail terms' -inf + inf would make them NaN
        ys = np.array([-1e308, -1e306, 1e306, 1e308])
        cdf, sf = _cdf_sf(ys, 2.8, 0.35, lam)
        assert cdf.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert sf.tolist() == [1.0, 1.0, 0.0, 0.0]


class TestSampler:
    def test_deterministic(self, params):
        levels, _ = _level_array(0.0, 0.0, 1.0, params, True)
        a = sample_mixture(levels, np.random.default_rng(7), 1000)
        b = sample_mixture(levels, np.random.default_rng(7), 1000)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = sample_mixture(levels, np.random.default_rng(8), 1000)
        assert not np.array_equal(a[1], c[1])

    def test_draw_order(self, params):
        # the counts of the 2L (level, sign) cells (0, +), (0, -), (1, +),
        # ... as one multinomial draw, then unit Gaussian, then unit
        # exponential noise, each cell's reads a contiguous segment.
        # Populations and Monte-Carlo MI depend on this recipe staying
        # fixed. The sampler draws the exponentials in blocks of
        # _SAMPLE_BLOCK cells, so the sizes straddle the block edges
        def recipe(levels, seed, n):
            rng = np.random.default_rng(seed)
            cells = 2 * levels.shape[1]
            counts = rng.multinomial(n, [1 / cells] * cells)
            cell = np.repeat(np.arange(cells), counts)
            index = cell >> 1
            mu, sigma, lam = levels[:, index]
            sign = np.where(cell & 1, -1.0, 1.0)
            reads = rng.standard_normal(n) * sigma + mu
            return counts, index, reads + sign * lam * rng.standard_exponential(n)

        shared, _ = _level_array(8295.0, 8760.0, 0.5, params, True)
        # a different lambda per level: the default levels share one, so a
        # sampler that scaled every cell by the first level's lambda would
        # pass the shared case
        distinct = shared.copy()
        distinct[2] *= 1.0 + 0.7 * np.arange(4)
        assert len(set(distinct[2].tolist())) == 4
        # 130 levels: 2L > 256 cells, yet the index of L - 1 = 129 fits 8 bits
        wide = _spec_arrays([
            NoiseSpec(mu=0.05 * i, sigma2=1e-4 * (1 + i % 3), lam=0.01 * (1 + i % 5))
            for i in range(130)
        ])
        block = channel._SAMPLE_BLOCK
        for levels, seed in ((shared, 5), (distinct, 6), (wide, 7)):
            for n in (1, block - 1, block, block + 1, 3 * block + 5, 5000):
                index, reads = sample_mixture(levels, np.random.default_rng(seed), n)
                counts, want_index, want = recipe(levels, seed, n)
                assert index.dtype == np.uint8
                np.testing.assert_array_equal(index, want_index, err_msg=f"n={n}")
                np.testing.assert_array_equal(reads, want, err_msg=f"n={n}")
                # the cells come grouped by level, each level's total the
                # sum of its two sign cells
                assert np.all(np.diff(index.astype(np.int64)) >= 0)
                totals = np.bincount(index, minlength=levels.shape[1])
                np.testing.assert_array_equal(totals, counts[::2] + counts[1::2])

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
        levels = _spec_arrays([NoiseSpec(mu=s.mu, sigma2=(1e-9 * s.lam) ** 2, lam=s.lam)
                               for s in self.DISTINCT_SPECS])
        index, reads = sample_mixture(levels, np.random.default_rng(2024), 10**6)
        cells = 2 * index + (reads < levels[0][index])
        counts = np.bincount(cells, minlength=8)
        assert len(counts) == 8
        assert stats.chisquare(counts).pvalue > 1e-4

    def test_per_level_ks_against_cdf(self):
        levels = _spec_arrays(self.DISTINCT_SPECS)
        index, reads = sample_mixture(levels, np.random.default_rng(2025), 10**6)
        for i, level in enumerate(levels.T):
            sel = reads[index == i]
            result = stats.kstest(sel, lambda y: _cdf_sf(y, *level)[0])
            assert result.pvalue > 1e-4, (i, result.statistic)

    def test_memory_bound(self, params):
        # two arrays of n values, the one-byte level index and the float64
        # reads, plus block-sized scratch: 0.99 MiB at n = 100k; a sampler
        # that gives each step an array of n values peaks at 3.05 MiB
        levels, _ = _level_array(8295.0, 8760.0, 0.5, params, True)
        tracemalloc.start()
        try:
            index, _ = sample_mixture(levels, np.random.default_rng(1), 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.dtype.itemsize == 1
        assert peak <= 1.5 * 2**20

    def test_mean_matches_clt_bound(self, params):
        levels, _ = _level_array(0.0, 0.0, 1.0, params, True)
        index, draws = sample_mixture(levels[:, 1:2], np.random.default_rng(123), 10**6)
        assert not index.any()
        bound = 3 * draws.std() / 1e3
        assert abs(draws.mean() - 5.2) < bound

    def test_ks_against_density_integral(self):
        levels = _spec_arrays([NoiseSpec(mu=5.2, sigma2=0.0025, lam=9.9e-3)])
        n = 10**6
        draws = sample_mixture(levels, np.random.default_rng(99), n)[1]
        lo, hi = _support(levels)
        grid = np.linspace(lo, hi, 200_001)
        pdf = np.exp(_log_density(grid, *levels))
        cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2) * np.diff(grid)))
        cdf /= cdf[-1]
        stat = stats.kstest(draws, lambda y: np.interp(y, grid, cdf)).statistic
        assert stat < 1.628 / math.sqrt(n)  # 1% critical value


class TestOutputDensity:
    def test_single_component(self):
        levels = _spec_arrays([NoiseSpec(mu=1.0, sigma2=0.01, lam=0.01)])
        ys = np.linspace(0, 2, 11)
        np.testing.assert_allclose(log_mixture(ys, levels), _log_density(ys, *levels))

    def test_identical_components(self):
        levels = _spec_arrays([NoiseSpec(mu=1.0, sigma2=0.01, lam=0.01)])
        ys = np.linspace(0, 2, 11)
        np.testing.assert_allclose(
            log_mixture(ys, levels.repeat(4, axis=1)), _log_density(ys, *levels), rtol=1e-12
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
        v_acc, _, alpha = state
        levels, _ = _level_array(v_acc, t, alpha, params, True)
        ys = np.linspace(-2.0, 12.0, 2001)
        per_level = [_log_density(ys, *level) for level in levels.T]
        want = special.logsumexp(per_level, axis=0) - math.log(levels.shape[1])
        got = log_mixture(ys, levels)
        ulp = np.spacing(np.maximum(np.abs(want), 1.0))
        assert np.all(np.abs(got - want) <= 4 * ulp)

    def test_mixture_normalizes(self, params):
        levels, _ = _level_array(0.0, 0.0, 1.0, params, True)
        lo, hi = _support(levels)
        val, _ = integrate.quad(
            lambda y: math.exp(log_mixture(np.array([y]), levels)[0]),
            lo, hi, points=sorted(levels[0].tolist()), limit=800,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_empty_rejected(self):
        # the Monte-Carlo MI reads a spec list of any length into levels
        with pytest.raises(ValueError, match="need at least one noise spec"):
            mutual_information_mc([], 1000, seed=0)


class TestRatioGuard:
    # sigma/lambda of 1e6, ten times the kernel's range: at 1e8 the log
    # density was 1.53 nats off its Gaussian limit, and nothing said so
    wide = NoiseSpec(mu=0.0, sigma2=1.0, lam=1e-6)

    def test_mixture_refuses(self):
        # _check_levels refuses the level, and with it every mixture it is in
        specs = [NoiseSpec(mu=5.0, sigma2=1.0, lam=1.0), self.wide]
        for levels in (_spec_arrays([self.wide]), _spec_arrays(specs)):
            with pytest.raises(NumericalFailure, match="sigma/lambda reaches 1e\\+06"):
                _check_levels(levels)
        with pytest.raises(NumericalFailure, match="sigma/lambda reaches 1e\\+06"):
            mutual_information(specs)

    @pytest.mark.filterwarnings("error")
    def test_refuses_ratio_underflow(self, params):
        # sigma 1e-150 over lambda 1e300 underflows to 0, where the density
        # kernel formed inf * 0 and the quadrature failed on NaN; the other
        # level's ratio is finite
        specs = [NoiseSpec(mu=0.0, sigma2=1e-300, lam=1e300),
                 NoiseSpec(mu=5.0, sigma2=1.0, lam=1.0)]
        underflow = "^sigma/lambda underflows to 0"
        with pytest.raises(NumericalFailure, match=underflow):
            _check_levels(_spec_arrays(specs))
        with pytest.raises(NumericalFailure, match=underflow):
            mutual_information(specs)
        device = replace(params, c_w=1e300, sigma_p=1e-150, sigma_e=1e-149)
        with pytest.raises(NumericalFailure, match=underflow):
            capacity_at(WearState(8295.0, 3000, 1.0), 8760.0, device)

    def test_refuses_support_beyond_float_range(self, params):
        # a Laplace scale of 1e308 is finite, but the support's 30 of it is
        # not: refused in one line, before the quadrature warns or fails
        vast = NoiseSpec(mu=0.0, sigma2=1.0, lam=1e308)
        with pytest.raises(NumericalFailure, match="support leaves the float range"):
            _check_levels(_spec_arrays([vast]))
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
