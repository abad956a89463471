"""Mutual information of the discrete-input continuous-output flash read
channel.

Capacity here always means the mutual information with equally likely
level inputs ("instantaneous storage capacity"); the input distribution is
never optimized. Entropy integrals run in nats and convert to bits at the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseSpec, NumericalFailure, sample_mixture
from .channel import _block_support, _check_levels, _log_density, _log_mean_exp
from .channel import _spec_arrays, _support

__all__ = [
    "REL_TOL",
    "MAX_PANELS",
    "MiEstimate",
    "NumericalFailure",
    "mutual_information",
    "mutual_information_mc",
]

LN2 = math.log(2.0)

# The quadrature accepts its integrals at this relative error estimate and
# gives up once halving the panels would exceed this many panels.
REL_TOL = 1e-8
MAX_PANELS = 2000

# Density points in one first-round kernel call of a group of states
# (see _block_mutual_information): 64 KiB per float64 temporary, below
# glibc's 128 KiB mmap threshold, so every temporary of the call comes
# from the heap. Measured on a 2-vCPU x86-64 host, each size in its own
# process, per pass of the fixed policy's 24 h, 1 y and 10 y capacity
# trajectories to 20000 cycles: 0.5 minor faults at 2^13 points (0.3 one
# state per call), 4729 at 2^14 and 5572 with a whole block per call;
# 2^12 leaves most states alone in a call and gives the gain up (97 ms a
# pass against 75 at 2^13 and 92 one state per call).
_GROUP_POINTS = 1 << 13

# Chunk size for partitioned Monte-Carlo seeding; results are identical no
# matter how chunks are distributed across workers.
MC_CHUNK = 1 << 16
# Samples per block of a chunk's information density.
_MC_BLOCK = 1 << 11


@dataclass(frozen=True)
class MiEstimate:
    value: float  # bits
    stderr: float  # bits; 0 for deterministic quadrature
    method: str  # "quadrature" or "monte_carlo"


# Gauss-Kronrod pair G10/K21 (QUADPACK qk21): every panel is integrated
# with the 21-node Kronrod rule and, as an error estimate for that value,
# with the 10-node Gauss rule, whose nodes are every second Kronrod node.
# Both rules are symmetric: the constants run from node 1 down to node 0.
_KRONROD_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_WEIGHTS = (
    0.0,
    0.066671344308688137593568809893332,
    0.0,
    0.149451349150580593145776339657697,
    0.0,
    0.219086362515982043995534934228163,
    0.0,
    0.269266719309996355091226921569469,
    0.0,
    0.295524224714752870173892994651338,
    0.0,
)


def _mirror(half, sign=1.0):
    """Values at the 21 nodes in ascending order from the values at nodes 1
    down to 0 along the last axis; sign=-1 mirrors the nodes themselves."""
    half = np.asarray(half)
    return np.concatenate([sign * half[..., :-1], half[..., ::-1]], axis=-1)


_NODES = _mirror(_KRONROD_NODES, sign=-1.0)
# Row 0 the Kronrod weights, row 1 the Gauss weights (0 off the Gauss nodes).
_WEIGHTS = _mirror([_KRONROD_WEIGHTS, _GAUSS_WEIGHTS])

# Panel breakpoints per component, in units of sigma + lambda around the
# mean: panel widths double from the peak out to 24, and one more panel
# reaches 40. Coarse enough that most MIs take one round and a few take a
# second one on the panels that miss. _OFFSETS holds them on both sides
# of the mean.
_BREAKS = np.array([0.0, 1.5, 3.0, 6.0, 12.0, 24.0, 40.0])
_OFFSETS = np.concatenate([-_BREAKS[:0:-1], _BREAKS])
# Width of a component's panel at distance d from its mean, in the same
# units: the panel that ends at the first break at or beyond d, the one
# either side of the peak at d = 0, and none past the last break.
_STEPS = np.concatenate([_BREAKS[1:2], np.diff(_BREAKS), [np.inf]])
_OWN_STEPS = _STEPS[np.searchsorted(_BREAKS, np.abs(_OFFSETS))]


def _kept_breaks(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The panel rule, for the (3, ..., L) array levels of (mu, sigma, lam)
    of one state or of a block of states: every level's breakpoints,
    shape (..., L*M), and which of them are edges. A component's
    breakpoint is kept only where the panel it closes toward its mean is
    no wider than the panel of any level there, so the tail breaks of one
    level do not cut slivers into another level's peak.
    """
    mu, sigma, lam = levels[..., None]
    scale = sigma + lam
    points = (mu + scale * _OFFSETS).reshape(levels.shape[1:-1] + (-1,))
    # Every level's panel width at every level's points, shape (..., L, L*M).
    # At a level's own break the rounded distance falls on either side of
    # the break, which gives its own width or the wider next one, so its
    # own row never drops the break.
    width = scale * _STEPS.take(_BREAKS.searchsorted(abs(points[..., None, :] - mu) / scale))
    return points, (scale * _OWN_STEPS).reshape(points.shape) <= width.min(-2)


def _panel_edges(levels: np.ndarray) -> np.ndarray:
    """Panel edges on the support of the levels, the (3, L) array of their
    (mu, sigma, lam): the kept breakpoints of _kept_breaks between the
    support ends, those of _support, which are always edges.
    Coincident breaks, as identical levels give, count once.
    """
    lo, hi = _support(levels)
    points, keep = _kept_breaks(levels)
    edges = points[keep]
    edges.sort()
    inside = edges[edges.searchsorted(lo, "right") : edges.searchsorted(hi)]
    distinct = inside[1:][inside[1:] > inside[:-1]]
    return np.concatenate(([lo], inside[:1], distinct, [hi]))


@np.errstate(all="ignore")
def _block_panel_edges(block: np.ndarray) -> list[np.ndarray]:
    """_panel_edges of every state of the (3, S, L) block of levels, from
    one pass over the block: a list of S arrays. The rows are independent,
    so a row the gate will refuse, whose values may be inf or NaN, changes
    no other row's edges; numpy's warnings about it are off here."""
    lo, hi = _block_support(block)
    points, keep = _kept_breaks(block)
    # Breaks that are not edges or lie outside the support become inf and
    # sort to the end; a break equal to the one before it repeats an edge.
    # The support ends are always edges.
    keep &= (points > lo[:, None]) & (points < hi[:, None])
    points[~keep] = np.inf
    points.sort(axis=-1)
    edges = np.concatenate((lo[:, None], points, hi[:, None]), axis=-1)
    distinct = np.ones(edges.shape, dtype=bool)
    distinct[:, 1:-1] = (edges[:, 1:-1] > edges[:, :-2]) & (edges[:, 1:-1] < np.inf)
    flat, ends = edges[distinct], np.cumsum(distinct.sum(axis=-1)).tolist()
    return [flat[i:j] for i, j in zip([0] + ends, ends)]


def _panel_values(columns: np.ndarray, a: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Kronrod and Gauss values of every level's integrand on the panels
    [a, a + 2 half], shape (level, panel, rule). columns holds the (mu,
    sigma, lam) of the levels: shape (3, L, 1, 1) for one state, or
    (3, L, P, 1) for a group of states, each panel with its own state's.

    One density call evaluates every level at the 21 Kronrod nodes of
    every panel, the (P, 21) nodes against the (L, P or 1, 1) columns; the
    exp of that array, shifted by the largest component at each node,
    gives both the densities and the mixture. Every node's arithmetic is
    elementwise, so a panel's values do not depend on the other panels of
    the call.
    """
    ys = (a + half)[:, None] + half[:, None] * _NODES
    lf = _log_density(ys, *columns)
    lmix, info, top = _log_mean_exp(lf)
    # f_i (ln f_i - ln f_Y), formed in the buffers of its factors
    info *= np.exp(top, out=top)
    lf -= lmix
    info *= lf
    return info @ _WEIGHTS.T * half[:, None]


def _quadrature(levels: np.ndarray, edges: np.ndarray, panels: np.ndarray | None = None) -> float:
    """The MI in bits, floored at 0, of the levels, the (3, L) array of
    (mu, sigma, lam): the mean over the levels of the integrals of
    f_i * (ln f_i - ln f_Y), which run in nats. edges are the levels'
    _panel_edges and panels, where given, the first round's values on
    them, as _block_mutual_information gives them.

    A composite quadrature on the panels between the edges. The Kronrod
    values of the partition are accepted when the summed per-panel
    differences to the embedded 10-node Gauss values are within REL_TOL of
    every level's integral. Otherwise only the panels whose difference
    exceeds their share of that budget, in proportion to their width, are
    halved and evaluated (at least the worst one); the other panels keep
    their values. The partition may grow to MAX_PANELS panels.

    An accepted partition is refused instead where the float spacing at a
    support end exceeds REL_TOL of the narrowest sigma + lambda: there the
    nodes of a panel collapse onto a few floats, and the sums agree on a
    wrong MI.
    """
    a, half = edges[:-1], 0.5 * (edges[1:] - edges[:-1])
    span = edges[-1] - edges[0]
    columns = levels[:, :, None, None]
    if panels is None:
        panels = _panel_values(columns, a, half)
    while True:
        total = panels[..., 0].sum(axis=-1)
        error = np.abs(panels[..., 0] - panels[..., 1])
        magnitude = np.maximum(np.abs(total), 1e-12)
        achieved = float((error.sum(axis=-1) / magnitude).max())
        if achieved <= REL_TOL:
            end = max(-edges[0], edges[-1])
            spacing = math.ulp(end) / min((levels[1] + levels[2]).tolist())
            if spacing > REL_TOL:
                raise NumericalFailure(
                    f"the float spacing at the support ends is {spacing:.3g} of the "
                    "narrowest sigma + lambda; the quadrature cannot resolve the levels"
                )
            return max(0.0, float(total.sum() / len(total)) / LN2)
        # How far each panel's worst relative error passes its share of the
        # budget; a total over budget leaves some panel at or past its
        # share unless rounding intervenes, so the worst one always splits.
        over = (error / magnitude[:, None]).max(axis=0) * span - REL_TOL * 2.0 * half
        split = over >= min(0.0, over.max())
        count = np.count_nonzero(split)
        if count == 0 or len(half) + count > MAX_PANELS:
            raise NumericalFailure(
                "quadrature did not converge at sigma/lambda up to "
                f"{(levels[1] / levels[2]).max():.3g}",
                achieved,
            )
        child = 0.5 * half[split]
        new_a = np.concatenate([a[split], a[split] + 2.0 * child])
        new_half = np.concatenate([child, child])
        a = np.concatenate([a[~split], new_a])
        half = np.concatenate([half[~split], new_half])
        panels = np.concatenate(
            [panels[:, ~split], _panel_values(columns, new_a, new_half)], axis=1
        )


def _mutual_information(levels: np.ndarray) -> float:
    """mutual_information in bits, as a float, of the levels whose (mu,
    sigma, lam) are the rows of the (3, L) array levels: the core behind
    the spec path, which the policy feeds from the level moments directly.
    The caller has passed the array through _check_levels."""
    return _quadrature(levels, _panel_edges(levels))


def _block_mutual_information(block: np.ndarray):
    """_mutual_information of each state of the (3, S, L) block of levels,
    as _level_grid gives them, not yet checked: a generator, for the fixed
    policy, whose wear schedule is known ahead.

    The first quadrature round runs for a group of states in one
    _panel_values call on the panels of their _block_panel_edges; each
    state takes the call's values on its own panels, those _quadrature
    would compute for it alone, and refines and accepts alone. The
    columns are transposed before they are repeated, one per panel, so
    that they are contiguous.

    States join a group in order while its first round holds at most
    _GROUP_POINTS density points; a state with more forms a group alone.
    A group is evaluated only when the caller asks for its first state,
    so a run that stops evaluates at most one group past its last state.
    Each state passes _check_levels once, before its group is evaluated;
    a state the gate refuses ends the group before it, and its refusal
    is raised when the caller asks for it.
    """
    rows, edges = block.swapaxes(0, 1), _block_panel_edges(block)
    counts = [len(e) - 1 for e in edges]
    per_panel = len(_NODES) * block.shape[-1]  # density points
    i = 0
    while i < len(rows):
        group, total, refused = [_check_levels(rows[i])], counts[i], None
        j = i + 1
        while j < len(rows) and (total + counts[j]) * per_panel <= _GROUP_POINTS:
            try:
                group.append(_check_levels(rows[j]))
            except NumericalFailure as exc:
                refused = exc
                break
            total += counts[j]
            j += 1
        a = np.concatenate([e[:-1] for e in edges[i:j]])
        half = 0.5 * np.concatenate([e[1:] - e[:-1] for e in edges[i:j]])
        columns = block[:, i:j].transpose(0, 2, 1).repeat(counts[i:j], axis=2)[..., None]
        values, start = _panel_values(columns, a, half), 0
        for row, e, n in zip(group, edges[i:j], counts[i:j]):
            yield _quadrature(row, e, values[:, start : start + n])
            start += n
        if refused is not None:
            raise refused
        i = j


def mutual_information(specs: list[NoiseSpec]) -> MiEstimate:
    """Mutual information in bits between the (uniform) stored level and
    the read voltage, by adaptive quadrature.

    Computed as the average over levels of the KL divergence between the
    conditional output density and the mixture, which equals
    h(Y) - h(Y|X) without the cancellation error of differencing the two
    entropies.
    """
    if len(specs) < 2:
        raise ValueError("need at least 2 levels")
    value = _mutual_information(_check_levels(_spec_arrays(specs)))
    return MiEstimate(value=value, stderr=0.0, method="quadrature")


def _information_sums(levels, rng, m: int):
    """Sum and sum of squares of the information density log2 f(y|x)/f(y)
    over m samples from rng of the levels, the checked (3, L) array of
    (mu, sigma, lam). The density overwrites the reads it is computed from,
    _MC_BLOCK samples at a time with all levels in one (L, b) broadcast,
    so its temporaries stay block-sized; the sums run over all m. The
    chunk's arrays are freed on return, before the next chunk is drawn."""
    written, info = sample_mixture(levels, rng, m)
    columns = levels[:, :, None]
    for s in range(0, m, _MC_BLOCK):
        y = info[s : s + _MC_BLOCK]
        lf = _log_density(y, *columns)
        lmix = _log_mean_exp(lf)[0]
        np.subtract(lf[written[s : s + _MC_BLOCK], np.arange(len(y))], lmix, out=y)
        y /= LN2
    return info.sum(), np.square(info, out=info).sum()


def mutual_information_mc(
    specs: list[NoiseSpec], n_samples: int, seed: int
) -> MiEstimate:
    """Monte-Carlo estimate of the mutual information (bits).

    Sample mean of the information density log2 f(y|x)/f(y) over uniform
    levels. Samples are drawn in fixed-size chunks, each seeded from its
    own child of the root seed, so a parallel run over chunks reproduces
    this sequential result exactly.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    levels = _check_levels(_spec_arrays(specs))
    children = np.random.SeedSequence(seed).spawn((n_samples + MC_CHUNK - 1) // MC_CHUNK)
    total = total_sq = 0.0
    for k, child in enumerate(children):
        m = min(MC_CHUNK, n_samples - k * MC_CHUNK)
        chunk, chunk_sq = _information_sums(levels, np.random.default_rng(child), m)
        total += chunk
        total_sq += chunk_sq
    mean = total / n_samples
    var = max(0.0, total_sq / n_samples - mean**2)
    return MiEstimate(
        value=float(mean), stderr=math.sqrt(var / n_samples), method="monte_carlo"
    )
