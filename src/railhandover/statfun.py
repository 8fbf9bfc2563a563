"""Statistical kernels: normal tails, array quadrature, lognormal sums.

Everything downstream (channel statistics, trigger/failure analytics) is
built from three ingredients: the standard normal CDF and its complement,
one adaptive Gauss-Kronrod quadrature that integrates a whole batch of
integrands as numpy arrays and raises NumericsError rather than return
an unconverged value, and a moment-matching approximation for a sum of
lognormal powers expressed in dB. The curves read scipy.special's five
ufuncs from here, imported on first use (rss and failure figures, `compare`,
`validate`; never `trace`, the protocol estimator or the other figures).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_SQRT2 = math.sqrt(2.0)
# dB-to-natural-log scale: 10^(x/10) = exp(LAMBDA * x)
_LAMBDA = math.log(10.0) / 10.0


def __getattr__(name: str):  # import scipy.special on first use: most of our import time
    if name not in ("ndtr", "erfc", "erfcx", "bdtr", "bdtrik"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special
    return globals().setdefault(name, getattr(scipy.special, name))


class NumericsError(RuntimeError):
    """A numerical routine could not reach its requested accuracy."""


def std_normal_cdf(z: float) -> float:
    """CDF of the standard normal distribution at z.

    Raises ValueError for non-finite input.
    """
    if not math.isfinite(z):
        raise ValueError(f"std_normal_cdf requires finite z, got {z!r}")
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def q_function(z: float) -> float:
    """Upper-tail probability Q(z) = 1 - CDF(z).

    Uses the complementary error function so the result keeps full
    relative accuracy deep into the tail (z well beyond 8) instead of
    cancelling against 1.
    """
    if not math.isfinite(z):
        raise ValueError(f"q_function requires finite z, got {z!r}")
    return 0.5 * math.erfc(z / _SQRT2)


# === Array Gauss-Kronrod quadrature ===

# QUADPACK's qk21 pair (Piessens et al., 1983) on [-1, 1]: the Kronrod
# nodes from 1 to 0 with their weights, and the weights of the 10-point
# Gauss rule on every second node. _NODES and _KRONROD run over all 21
# nodes in ascending order; _GAUSS holds the (node index, weight) pairs.
_XGK = (0.99565716302580808, 0.97390652851717172, 0.93015749135570823, 0.86506336668898451,
        0.78081772658641690, 0.67940956829902441, 0.56275713466860468, 0.43339539412924719,
        0.29439286270146020, 0.14887433898163121, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964727, 0.054755896574351996, 0.075039674810919953,
        0.093125454583697606, 0.10938715880229764, 0.12349197626206585, 0.13470921731147333,
        0.14277593857706008, 0.14773910490133849, 0.14944555400291691)
_WG = (0.066671344308688138, 0.14945134915058059, 0.21908636251598204, 0.26926671930999636,
       0.29552422471475287)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_KRONROD = _WGK[:-1] + _WGK[::-1]
_GAUSS = tuple((i, w) for k, w in enumerate(_WG) for i in (2 * k + 1, 19 - 2 * k))
# per row: the error budget, the bisection rounds and the intervals allowed
_TOLERANCE, _MAX_DEPTH, _MAX_INTERVALS = 1e-10, 50, 1024
# A normal CDF rising faster than this per unit of the integration variable
# is a step that 21 nodes cannot place; callers put an interval edge there.
STEP_SCALE = 1e3


def _qk21(f, a: np.ndarray, b: np.ndarray, rows: np.ndarray):
    """Kronrod value and |Kronrod - Gauss| of f over each interval [a, b]."""
    half = 0.5 * (b - a)
    fx = f(0.5 * (a + b) + half * _NODES[:, None], rows)
    # weighted sums term by term, so an interval's value never depends on its batch
    kronrod = sum(w * row for w, row in zip(_KRONROD, fx))
    gauss = sum(w * fx[i] for i, w in _GAUSS)
    return half * kronrod, np.abs(half * (kronrod - gauss))


def integrate_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   edges: np.ndarray, where: Callable[[int], str]) -> np.ndarray:
    """Integral of row r's integrand from edges[r, 0] to edges[r, -1], for all rows at once.

    Row r starts as the intervals between its non-decreasing edges (zero
    widths dropped, so a row can pad by repeating an end). f(x, rows) gives
    the integrand at nodes x of shape (21, k), column i on an interval of
    row rows[i]. Until a row's |Kronrod - Gauss| estimates sum to at most
    1e-10, its intervals above an equal share of that budget are bisected:
    a per-row budget, so an interval holding a steep rise is split until
    its error is negligible. Sums over a row run in a fixed order, so a
    row's value does not depend on its batch. Raises NumericsError naming
    where(r) for a row not finite or not done within the bounds.
    """
    a, b = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    rows = np.repeat(np.arange(len(edges)), edges.shape[1] - 1)
    a, b, rows = a[a != b], b[a != b], rows[a != b]
    value, error = _qk21(f, a, b, rows)
    depth = 0
    while True:
        total = np.bincount(rows, error, len(edges))
        count = np.bincount(rows, minlength=len(edges))
        unfinished = ~(total <= _TOLERANCE)
        if not unfinished.any():
            return np.bincount(rows, value, len(edges))
        stuck = unfinished & ((depth >= _MAX_DEPTH) | (count >= _MAX_INTERVALS)
                              | ~np.isfinite(total))
        if stuck.any():
            r = int(np.argmax(stuck))
            raise NumericsError(
                f"{where(r)}: quadrature did not converge (error estimate "
                f"{total[r]:.3g} over {count[r]} intervals after {depth} bisection rounds)")
        # each split interval becomes its two halves, in place along its row
        split = unfinished[rows] & ~(error * count[rows] <= _TOLERANCE)
        parts = 1 + split
        keep = np.repeat(np.arange(rows.size), parts)
        a, b, rows, value, error = a[keep], b[keep], rows[keep], value[keep], error[keep]
        left = (np.cumsum(parts) - parts)[split]
        b[left] = a[left + 1] = 0.5 * (a[left] + b[left])
        halves = np.concatenate((left, left + 1))
        value[halves], error[halves] = _qk21(f, a[halves], b[halves], rows[halves])
        depth += 1


# === Lognormal sum approximation ===


# Python's float power and math.log, elementwise: numpy's square and log
# differ from them in the last bit on some values. A total that
# underflows to 0 gives -inf and one whose square overflows inf (where
# ** raises), for the caller to reject.
_squared = np.vectorize(lambda t: math.inf if t * t == math.inf else t ** 2, otypes=[float])
_log = np.vectorize(lambda t: math.log(t) if t > 0.0 else -math.inf, otypes=[float])


def lognormal_sum_approx(means_db, sigmas_db) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian (in dB) approximation of a sum of independent dB-lognormal powers.

    Each component i is a power level whose dB value is normal with mean
    means_db[..., i] and standard deviation sigmas_db[..., i]; every
    leading index sums its own last axis. The linear-domain sum of the
    components is approximated by a single lognormal whose first and
    second linear-domain moments match the exact ones, and the result is
    reported back on the dB scale.

    Returns
    -------
    (mu_db, sigma_db)
        Mean and standard deviation of the approximating dB-normal, of
        the leading shape (0-d for one sequence of components).

    Notes
    -----
    The match is exact in the linear-domain mean by construction: the
    approximating lognormal's mean power equals the sum of the component
    mean powers to within floating-point rounding.
    """
    means = np.asarray(means_db, dtype=float)
    sigmas = np.asarray(sigmas_db, dtype=float)
    if means.ndim == 0 or means.shape[-1] == 0:
        raise ValueError("means_db must hold a non-empty last axis of components")
    if sigmas.shape != means.shape:
        raise ValueError("sigmas_db must have the same shape as means_db")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(sigmas))):
        raise ValueError("means_db and sigmas_db must be finite")
    if np.any(sigmas < 0.0):
        raise ValueError("sigmas_db must be >= 0")

    m = _LAMBDA * means
    s2 = (_LAMBDA * sigmas) ** 2
    # Linear-domain first moments and variances of each lognormal component.
    first = np.exp(m + 0.5 * s2)
    var = np.exp(2.0 * m + s2) * np.expm1(s2)
    total = np.sum(first, axis=-1)
    sig2_ln = np.log1p(np.sum(var, axis=-1) / _squared(total))
    mu_ln = _log(total) - 0.5 * sig2_ln
    return mu_ln / _LAMBDA, np.sqrt(sig2_ln) / _LAMBDA
