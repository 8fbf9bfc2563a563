"""QUADPACK through scipy.integrate.quad: the reference quadrature of the tests.

The package integrates with its own array Gauss-Kronrod rule
(`statfun.integrate_rows`); this scalar, checked wrapper around `quad`
and the integrals built on it (the general trigger integral, the mean
of a max of Gaussians, the conditional failure probability) are the
independent routes that rule and the closed-form trigger probability
are checked against. Their scalar normal kernels (`std_normal_cdf`,
`q_function`, `std_normal_pdf`, `gaussian_hazard`) take libm's erf and
erfc, not the package's `statfun.ndtr`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate as _sci_integrate
from scipy.special import erfcx

from railhandover.statfun import NumericsError
from link_oracle import LinkStat, RssDistribution


def std_normal_cdf(z: float) -> float:
    """CDF of the standard normal distribution at z, as 1/2 (1 + erf).

    Raises ValueError for non-finite input.
    """
    if not math.isfinite(z):
        raise ValueError(f"std_normal_cdf requires finite z, got {z!r}")
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def q_function(z: float) -> float:
    """Upper-tail probability Q(z) = 1 - CDF(z).

    Uses the complementary error function so the result keeps full
    relative accuracy deep into the tail (z well beyond 8) instead of
    cancelling against 1.
    """
    if not math.isfinite(z):
        raise ValueError(f"q_function requires finite z, got {z!r}")
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def std_normal_pdf(z: float) -> float:
    """Density of the standard normal distribution at z."""
    if not math.isfinite(z):
        raise ValueError(f"std_normal_pdf requires finite z, got {z!r}")
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def gaussian_hazard(z: float) -> float:
    """Hazard rate pdf(z)/Q(z) of the standard normal, stable for any z.

    Computed through the scaled complementary error function; naive
    division underflows for z beyond ~37 while this form does not.
    """
    if not math.isfinite(z):
        raise ValueError(f"gaussian_hazard requires finite z, got {z!r}")
    return math.sqrt(2.0 / math.pi) / float(erfcx(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class Quadrature:
    """Accuracy budget for adaptive integration."""

    absolute_tolerance: float = 1e-8
    max_subdivisions: int = 2 ** 14

    def __post_init__(self) -> None:
        if not (self.absolute_tolerance > 0.0):
            raise ValueError("absolute_tolerance must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    """Outcome of one integrate() call; converged is never silently false."""

    value: float
    error_estimate: float
    converged: bool
    evaluations: int

    def require(self) -> float:
        if not self.converged:
            raise NumericsError(
                f"integration did not converge (value={self.value:.6g}, "
                f"error={self.error_estimate:.3g}, evaluations={self.evaluations})"
            )
        return self.value


def integrate(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    quadrature: Quadrature | None = None,
) -> IntegralResult:
    """Adaptive quadrature of f over the finite interval [lower, upper].

    Thin wrapper around QUADPACK that maps the non-convergence signal to
    an explicit flag instead of a warning. The interval may be degenerate
    (lower == upper), in which case the integral is exactly zero.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("integration bounds must be finite")
    if lower > upper:
        raise ValueError(f"lower bound {lower} exceeds upper bound {upper}")
    q = quadrature or Quadrature()
    if lower == upper:
        return IntegralResult(0.0, 0.0, True, 0)
    out = _sci_integrate.quad(
        f,
        lower,
        upper,
        epsabs=q.absolute_tolerance,
        epsrel=0.0,
        limit=q.max_subdivisions,
        full_output=1,
    )
    value, error = float(out[0]), float(out[1])
    info = out[2]
    # quad appends an explanation message only when QUADPACK reports trouble
    converged = len(out) == 3
    return IntegralResult(value, error, converged, int(info["neval"]))


def trigger_prob_integral(serving: LinkStat, target: LinkStat, hysteresis: float) -> float:
    """P(target - serving > hysteresis) through the integral over the target density.

    target - serving > hysteresis iff serving < r - hysteresis once the
    target value r is fixed, so the integrand is
    F_serving(r - hysteresis) * f_target(r). It must agree with
    the closed form `trigger_curve` evaluates.
    """
    lo = target.mu - 10.0 * target.sigma
    hi = target.mu + 10.0 * target.sigma

    def integrand(r: float) -> float:
        under = std_normal_cdf((r - hysteresis - serving.mu) / serving.sigma)
        dens = math.exp(-0.5 * ((r - target.mu) / target.sigma) ** 2) \
            / (math.sqrt(2.0 * math.pi) * target.sigma)
        return under * dens

    value = integrate(integrand, lo, hi).require()
    return min(max(value, 0.0), 1.0)


def _pieces(f: Callable[[float], float], lower: float, upper: float, cuts,
            tolerance: float) -> float:
    """QUADPACK over [lower, upper], split at the cuts that fall inside."""
    edges = [lower, *sorted(c for c in cuts if lower < c < upper), upper]
    return sum(integrate(f, a, b, Quadrature(tolerance)).require()
               for a, b in zip(edges, edges[1:]))


def max_mean(dist: RssDistribution, tolerance: float = 1e-11) -> float:
    """E[max] of the components, one QUADPACK integral per component.

    Component n's term is integrated over its standardized draw z in
    [-10, 10] (as `channel.max_means` does), split where another
    component's CDF argument crosses zero: a step once that component's
    sigma is tiny, which QUADPACK cannot resolve inside one interval.
    """
    total = 0.0
    for n, cn in enumerate(dist.components):
        others = [((cn.mu - cj.mu) / cj.sigma, cn.sigma / cj.sigma)
                  for j, cj in enumerate(dist.components) if j != n]

        def term(z: float, cn=cn, others=others) -> float:
            out = (cn.mu + cn.sigma * z) * std_normal_pdf(z)
            for offset, scale in others:
                out *= std_normal_cdf(offset + scale * z)
            return out

        total += _pieces(term, -10.0, 10.0, [-o / s for o, s in others], tolerance)
    return total


def failure_rederived(serving: LinkStat, target: LinkStat, hysteresis: float,
                      threshold: float, tolerance: float = 1e-11) -> float:
    """P(target < threshold | target - serving > hysteresis) by QUADPACK.

    The integrals of `analytics.failure_curve`, split where the target's
    conditional CDF crosses one half, a step once its conditional sigma
    is tiny.
    """
    sigma_v = math.hypot(serving.sigma, target.sigma)
    z0 = (hysteresis - (target.mu - serving.mu)) / sigma_v
    slope = target.sigma ** 2 / sigma_v
    sigma_c = serving.sigma * target.sigma / sigma_v
    step = (threshold - target.mu) / slope

    def conditional_cdf(z: float) -> float:
        return std_normal_cdf((threshold - (target.mu + slope * z)) / sigma_c)

    if z0 >= -8.0:
        hz = gaussian_hazard(z0)
        value = _pieces(lambda e: hz * math.exp(-z0 * e - 0.5 * e * e) * conditional_cdf(z0 + e),
                        0.0, 12.0 + max(0.0, -z0), [step - z0], tolerance)
    else:
        value = _pieces(lambda z: std_normal_pdf(z) * conditional_cdf(z),
                        max(z0, -40.0), 10.0, [step], tolerance) / q_function(z0)
    return min(max(value, 0.0), 1.0)
