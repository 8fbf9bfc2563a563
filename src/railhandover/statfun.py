"""Scalar statistical kernels and numerical integration helpers.

Everything downstream (channel statistics, trigger/failure analytics) is
built from three ingredients: the standard normal CDF and its complement,
a checked adaptive quadrature, and a moment-matching approximation for a
sum of lognormal powers expressed in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _sci_integrate
from scipy import special as _sci_special

_SQRT2 = math.sqrt(2.0)
# dB-to-natural-log scale: 10^(x/10) = exp(LAMBDA * x)
_LAMBDA = math.log(10.0) / 10.0


class NumericsError(RuntimeError):
    """A numerical routine could not reach its requested accuracy."""


def std_normal_cdf(z: float) -> float:
    """CDF of the standard normal distribution at z.

    Raises ValueError for non-finite input.
    """
    if not math.isfinite(z):
        raise ValueError(f"std_normal_cdf requires finite z, got {z!r}")
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def std_normal_pdf(z: float) -> float:
    """Density of the standard normal distribution at z."""
    if not math.isfinite(z):
        raise ValueError(f"std_normal_pdf requires finite z, got {z!r}")
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def q_function(z: float) -> float:
    """Upper-tail probability Q(z) = 1 - CDF(z).

    Uses the complementary error function so the result keeps full
    relative accuracy deep into the tail (z well beyond 8) instead of
    cancelling against 1.
    """
    if not math.isfinite(z):
        raise ValueError(f"q_function requires finite z, got {z!r}")
    return 0.5 * math.erfc(z / _SQRT2)


def gaussian_hazard(z: float) -> float:
    """Hazard rate pdf(z)/Q(z) of the standard normal, stable for any z.

    Computed through the scaled complementary error function; naive
    division underflows for z beyond ~37 while this form does not.
    """
    if not math.isfinite(z):
        raise ValueError(f"gaussian_hazard requires finite z, got {z!r}")
    return math.sqrt(2.0 / math.pi) / float(_sci_special.erfcx(z / _SQRT2))


# === Checked quadrature ===


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


# === Lognormal sum approximation ===


def lognormal_sum_approx(means_db: Sequence[float],
                         sigmas_db: Sequence[float]) -> tuple[float, float]:
    """Gaussian (in dB) approximation of a sum of independent dB-lognormal powers.

    Each component i is a power level whose dB value is normal with mean
    means_db[i] and standard deviation sigmas_db[i]. The linear-domain sum
    of the components is approximated by a single lognormal whose first
    and second linear-domain moments match the exact ones, and the result
    is reported back on the dB scale.

    Returns
    -------
    (mu_db, sigma_db)
        Mean and standard deviation of the approximating dB-normal.

    Notes
    -----
    The match is exact in the linear-domain mean by construction: the
    approximating lognormal's mean power equals the sum of the component
    mean powers to within floating-point rounding.
    """
    means = np.asarray(means_db, dtype=float)
    sigmas = np.asarray(sigmas_db, dtype=float)
    if means.ndim != 1 or means.size == 0:
        raise ValueError("means_db must be a non-empty 1-d sequence")
    if sigmas.shape != means.shape:
        raise ValueError("sigmas_db must have the same length as means_db")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(sigmas))):
        raise ValueError("means_db and sigmas_db must be finite")
    if np.any(sigmas < 0.0):
        raise ValueError("sigmas_db must be >= 0")

    m = _LAMBDA * means
    s2 = (_LAMBDA * sigmas) ** 2
    # Linear-domain first moments and variances of each lognormal component.
    first = np.exp(m + 0.5 * s2)
    var = np.exp(2.0 * m + s2) * np.expm1(s2)
    total = float(np.sum(first))
    sig2_ln = float(np.log1p(np.sum(var) / total ** 2))
    mu_ln = math.log(total) - 0.5 * sig2_ln
    return mu_ln / _LAMBDA, math.sqrt(sig2_ln) / _LAMBDA
