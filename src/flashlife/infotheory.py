"""Mutual information, dispersion and finite-blocklength rate margin for
the discrete-input continuous-output flash read channel.

Capacity here always means the mutual information with equally likely
level inputs ("instantaneous storage capacity"); the input distribution is
never optimized. Entropy integrals run in nats and convert to bits at the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .channel import NoiseSpec, log_conditional_density, sample_mixture, support_interval

__all__ = [
    "QuadratureConfig",
    "MiEstimate",
    "NumericalFailure",
    "mutual_information",
    "mutual_information_mc",
    "channel_dispersion",
    "normal_approx_rate",
]

LN2 = math.log(2.0)

# Chunk size for partitioned Monte-Carlo seeding; results are identical no
# matter how chunks are distributed across workers.
MC_CHUNK = 1 << 16


class NumericalFailure(RuntimeError):
    """Quadrature failed to converge; carries the achieved tolerance."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and math.isfinite(self.max_subdivisions)):
            raise ValueError("rel_tol and max_subdivisions must be finite")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


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
# mean: dense near the peak, geometric into the tails.
_BREAKS = np.array(
    [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0, 30.0, 40.0]
)


def _panel_edges(specs) -> np.ndarray:
    lo, hi = support_interval(specs)
    edges = [np.array([lo, hi])]
    for s in specs:
        scale = s.sigma + s.lam
        edges.append(s.mu + scale * _BREAKS)
        edges.append(s.mu - scale * _BREAKS)
    all_edges = np.unique(np.concatenate(edges))
    return all_edges[(all_edges >= lo) & (all_edges <= hi)]


def _information_integrals(specs, cfg: QuadratureConfig, moments: int) -> np.ndarray:
    """Per-level integrals of f_i * (ln f_i - ln f_Y)^p for p = 1, ...,
    moments, shape (moments, L), in nats. p=1 gives the MI contributions,
    p=2 the second moment of the information density.

    One composite quadrature on the shared panel grid: each round
    evaluates the L x N log-density matrix once, at the 21 Kronrod nodes
    of every panel, and reduces the mixture with one exp of that matrix.
    The Kronrod value of every panel is accepted when the summed per-panel
    differences to the embedded 10-node Gauss value are within rel_tol of
    every integral; otherwise all panels are halved, within a budget of
    max_subdivisions panels.
    """
    edges = _panel_edges(specs)
    achieved = float("inf")
    splits = 1
    while splits * (len(edges) - 1) <= max(cfg.max_subdivisions, len(edges)):
        width = np.diff(edges) / splits
        a = (edges[:-1, None] + width[:, None] * np.arange(splits)).ravel()
        half = 0.5 * np.repeat(width, splits)
        ys = (a + half)[:, None] + half[:, None] * _NODES
        lf = np.stack([log_conditional_density(ys.ravel(), s) for s in specs])
        # Shift by the largest component at each node: one exp gives both
        # the densities and the mixture. The mean, unlike log(sum) - log(L),
        # leaves identical levels with exactly zero information.
        top = lf.max(axis=0)
        e = np.exp(lf - top)
        info = lf - (top + np.log(e.mean(axis=0)))
        vals = [e * np.exp(top) * info]
        while len(vals) < moments:
            vals.append(vals[-1] * info)
        # (moment, level, panel, rule): each panel's Kronrod and Gauss values.
        vals = np.reshape(vals, (moments, len(specs)) + ys.shape)
        panels = vals @ _WEIGHTS.T * half[:, None]
        total = panels[..., 0].sum(axis=-1)
        error = np.abs(panels[..., 0] - panels[..., 1]).sum(axis=-1)
        achieved = float(np.max(error / np.maximum(np.abs(total), 1e-12)))
        if achieved <= cfg.rel_tol:
            return total
        splits *= 2
    raise NumericalFailure("quadrature did not converge", achieved)


def mutual_information(
    specs: list[NoiseSpec], cfg: QuadratureConfig = QuadratureConfig()
) -> MiEstimate:
    """Mutual information in bits between the (uniform) stored level and
    the read voltage, by adaptive quadrature.

    Computed as the average over levels of the KL divergence between the
    conditional output density and the mixture, which equals
    h(Y) - h(Y|X) without the cancellation error of differencing the two
    entropies.
    """
    if len(specs) < 2:
        raise ValueError("need at least 2 levels")
    terms = _information_integrals(specs, cfg, moments=1)[0]
    value = max(0.0, float(np.mean(terms)) / LN2)
    return MiEstimate(value=value, stderr=0.0, method="quadrature")


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
    root = np.random.SeedSequence(seed)
    n_chunks = (n_samples + MC_CHUNK - 1) // MC_CHUNK
    children = root.spawn(n_chunks)
    total = 0.0
    total_sq = 0.0
    done = 0
    for child in children:
        m = min(MC_CHUNK, n_samples - done)
        rng = np.random.default_rng(child)
        levels, y = sample_mixture(specs, rng, m)
        lf = np.array([log_conditional_density(y, s) for s in specs])
        lcond = lf[levels, np.arange(m)]
        lmix = np.logaddexp.reduce(lf, axis=0) - math.log(len(specs))
        info = (lcond - lmix) / LN2
        total += info.sum()
        total_sq += (info**2).sum()
        done += m
    mean = total / n_samples
    var = max(0.0, total_sq / n_samples - mean**2)
    return MiEstimate(
        value=mean, stderr=math.sqrt(var / n_samples), method="monte_carlo"
    )


def channel_dispersion(
    specs: list[NoiseSpec], cfg: QuadratureConfig = QuadratureConfig()
) -> float:
    """Variance (bits^2) of the information density under uniform inputs.

    This is the unconditional information variance, the dispersion term of
    the normal-approximation rate formula.
    """
    if len(specs) < 2:
        raise ValueError("need at least 2 levels")
    mean_nats, second_nats = _information_integrals(specs, cfg, moments=2).mean(axis=1)
    var_nats = max(0.0, second_nats - mean_nats**2)
    return var_nats / LN2**2


def normal_approx_rate(n: int, eps: float, c: float, v: float) -> float:
    """Backed-off rate C - sqrt(V/n) Q^{-1}(eps) in bits per channel use.

    The O(log n)/n correction of the normal approximation is dropped; the
    formula is only used as a coarse margin assessment.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if v < 0:
        raise ValueError("dispersion must be nonnegative")
    return c - math.sqrt(v / n) * float(-ndtri(eps))
