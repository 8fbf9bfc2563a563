"""Reference routines for the per-cell RSS distributions, used by tests only.

Direct sampling, the density in the RSS variable r, and the mean as the
r-domain integral of r times that density: the independent routes that
the package's vectorized sampling and its standardized-variable mean
integral are checked against.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from link_oracle import RssDistribution
from quadpack_oracle import Quadrature, integrate, std_normal_cdf, std_normal_pdf


def pdf(dist: RssDistribution, r: float) -> float:
    """Density of the distribution at r.

    For the max of independent Gaussians: sum over components of that
    component's density times the probability every other component is
    below r.
    """
    total = 0.0
    for n, cn in enumerate(dist.components):
        term = std_normal_pdf((r - cn.mu) / cn.sigma) / cn.sigma
        for j, cj in enumerate(dist.components):
            if j != n:
                term *= std_normal_cdf((r - cj.mu) / cj.sigma)
        total += term
    return total


def cdf_array(dist: RssDistribution, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    for c in dist.components:
        out *= ndtr((r - c.mu) / c.sigma)
    return out


def support(dists: "RssDistribution | list[RssDistribution]",
            n_sigma: float = 10.0) -> tuple[float, float]:
    """Interval outside which the distributions' mass is negligible."""
    if isinstance(dists, RssDistribution):
        dists = [dists]
    comps = [c for d in dists for c in d.components]
    sig = max(c.sigma for c in comps)
    return (min(c.mu for c in comps) - n_sigma * sig,
            max(c.mu for c in comps) + n_sigma * sig)


def mean_by_density(dist: RssDistribution, quadrature: Quadrature | None = None) -> float:
    """Mean RSS as the integral of r * pdf(r) over the support.

    Adaptive quadrature misses the density once the sigmas shrink to a
    few hundredths of a dB, so this oracle is only trusted for sigma >= 0.05.
    """
    lo, hi = support(dist)
    return integrate(lambda r: r * pdf(dist, r), lo, hi, quadrature).require()


def sample_rss(dist: RssDistribution, rng: np.random.Generator) -> float:
    """One RSS draw: an independent Gaussian per component, then the max."""
    draws = [c.mu + c.sigma * rng.standard_normal() for c in dist.components]
    return max(draws)


def sample_rss_block(dist: RssDistribution, rng: np.random.Generator,
                     n: int) -> np.ndarray:
    """n independent RSS draws as an array (vectorized form of sample_rss)."""
    k = len(dist.components)
    z = rng.standard_normal((n, k))
    mus = np.array([c.mu for c in dist.components])
    sigmas = np.array([c.sigma for c in dist.components])
    return np.max(mus + sigmas * z, axis=1)
