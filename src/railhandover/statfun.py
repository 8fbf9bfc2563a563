"""Statistical kernels: normal tails, binomial masses, array quadrature, lognormal sums.

Everything downstream (channel statistics, trigger/failure analytics,
the occurrence rule's binomial envelope) is built from four ingredients:
the standard normal CDF and its complements, the binomial mass function,
one adaptive Gauss-Kronrod quadrature that integrates a whole batch of
integrands as numpy arrays and raises NumericsError rather than return
an unconverged value, and a moment-matching approximation for a sum of
lognormal powers expressed in dB. The array kernels `ndtr`, `erfc`,
`erfcx` and `binomial_pmf` are numpy code, so the package needs numpy
only: the normal tails in the rational form of the Cephes library's
ndtr.c (after W. J. Cody, "Rational Chebyshev approximations for the
error function", Math. Comp. 23, 1969), with the rational that most
arguments reach run over every element and the other two overwriting
only their own elements, the binomial mass in C. Loader's
saddle-point form ("Fast and accurate computation of binomial
probabilities", 2000).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT1_2 = math.sqrt(0.5)
_SQRT_PI = math.sqrt(math.pi)
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


def q_function(z: float) -> float:
    """Upper-tail probability Q(z) = 1 - CDF(z).

    Uses the complementary error function so the result keeps full
    relative accuracy deep into the tail (z well beyond 8) instead of
    cancelling against 1.
    """
    if not math.isfinite(z):
        raise ValueError(f"q_function requires finite z, got {z!r}")
    return 0.5 * math.erfc(z / _SQRT2)


# === Normal tails ===

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) on |x| < 1, and erfc(x) =
# exp(-x^2) P(x) / Q(x) on [1, 8), exp(-x^2) R(x) / S(x) from 8 on; the
# denominators are monic. The numerators here are halved (exact in binary),
# so each rational gives half of erf or of exp(x^2) erfc(x).
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# exp(-x^2) underflows beyond this x^2, where Cephes returns 0; clipping
# |x| to 27 keeps the P/Q and R/S Horners finite there
_MAXLOG = 7.09782712893383996843e2


def _columns(num: tuple, den: tuple) -> list[np.ndarray]:
    """The Horner steps of num / 2 and of monic den as (2, 1) columns, the
    shorter padded with leading zeros (0 * x + c is exact)."""
    pad = len(den) + 1 - len(num)
    return [np.array([[a], [b]]) for a, b in
            zip((0.0,) * pad + tuple(0.5 * c for c in num), (1.0,) + den)]


_TU, _PQ, _RS = _columns(_T, _U), _columns(_P, _Q), _columns(_R, _S)


def _ratio(v: np.ndarray, steps: list[np.ndarray], acc: np.ndarray) -> np.ndarray:
    """Numerator over denominator at v, both by Horner in the (2, n) buffer
    acc; the quotient is acc[0]."""
    np.multiply(steps[0], v, out=acc)
    acc += steps[1]
    for c in steps[2:]:
        acc *= v
        acc += c
    out, den = acc
    out /= den
    return out


def _pq(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(x^2) erfc(|x|) / 2 by P/Q over the flat x, at |x| clipped to 27 so
    that its Horner stays finite: a (2, n) buffer with the values in row 0,
    |x| clipped, and the indices of |x| >= 8, which R/S must replace."""
    v = np.abs(x)
    np.minimum(v, 27.0, out=v)
    acc = np.empty((2, x.size))
    _ratio(v, _PQ, acc)
    return acc, v, (v >= 8.0).nonzero()[0]


def _half_erfc(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """erfc(|x|) / 2 over the flat x, 0 where x^2 > _MAXLOG as in Cephes,
    and |x| clipped to 27."""
    (y, e), v, far = _pq(x)
    if far.size:
        w = np.take(v, far)
        r = _ratio(w, _RS, np.empty((2, far.size)))
        r *= w * w <= _MAXLOG
        y[far] = r
    np.multiply(v, v, out=e)
    y *= np.exp(np.negative(e, out=e), out=e)
    return y, v


def _half_erf(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices where |x| < 1 (v is |x|, clipped), and erf(x) / 2 there."""
    near = (v < 1.0).nonzero()[0]
    xi = np.take(x, near)
    return near, _ratio(xi * xi, _TU, np.empty((2, near.size))) * xi


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, elementwise, from the Cephes rationals: with
    x = a / sqrt(2), erfc(|x|)/2 by P/Q over every element, R/S overwriting
    it from |x| = 8, taken from one for x > 0; then 1/2 + erf(x)/2 by T/U
    where |x| < 1. Within 4 ULP of scipy.special.ndtr; NaN stays NaN."""
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1) * _SQRT1_2
    y, v = _half_erfc(x)
    np.copysign(y, x, out=y)
    np.subtract(x > 0.0, y, out=y)  # 1 - y for x > 0, y otherwise
    near, half = _half_erf(x, v)
    y[near] = half + 0.5
    return y.reshape(a.shape)


def erfc(x) -> np.ndarray:
    """Complementary error function, elementwise, as Cephes computes it:
    1 - erf(x) for |x| < 1, else exp(-x^2) times a rational in |x|, taken
    from 2 for x < 0. Within 4 ULP of scipy.special.erfc."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    y, v = _half_erfc(flat)
    y *= 2.0
    out = np.where(flat < 0.0, 2.0 - y, y)
    near, half = _half_erf(flat, v)
    out[near] = 1.0 - 2.0 * half
    return out.reshape(x.shape)


def erfcx(x) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x), elementwise:
    the erfc rationals without their exp(-x^2) factor from 1 to 50, the
    asymptotic continued fraction beyond, exp(x^2) (1 - erf(x)) on |x| < 1,
    and 2 exp(x^2) - erfcx(-x) from -1 down (inf once exp overflows).
    Within 16 ULP of scipy.special.erfcx."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    with np.errstate(over="ignore"):  # inf from -26.6 down
        (y, _), v, far = _pq(flat)
        y *= 2.0
        t = np.abs(np.take(flat, far))
        u = 1.0 / (t * t)  # beyond 50 the continued fraction, with no overflow
        y[far] = np.where(t > 50.0, (1.0 + u * (4.5 + 2.0 * u))
                          / ((1.0 + u * (5.0 + 3.75 * u)) * _SQRT_PI * t),
                          2.0 * _ratio(np.minimum(t, 50.0), _RS, np.empty((2, far.size))))
        grow = np.exp(flat * flat)
        out = np.where(flat < 0.0, 2.0 * grow - y, y)
    near, half = _half_erf(flat, v)
    out[near] = np.take(grow, near) * (1.0 - 2.0 * half)
    return out.reshape(x.shape)


# === Binomial masses ===

# Loader's stirlerr(k) = log k! - log(sqrt(2 pi k) (k / e)^k), at k = 0..15,
# then its series in 1 / k with these coefficients
_STIRLERR = np.array([
    0.0, 0.0810614667953272582196702, 0.0413406959554092940938221,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.010411265261972096497478567,
    0.009255462182712732917728637, 0.008330563433362871256469318,
    0.007573675487951840794972024, 0.006942840107209529865664152,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.005554733551962801371038690])
_STIRLING = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """log k! less its Stirling approximation, for whole k >= 0."""
    u = 1.0 / np.maximum(k, 16.0)
    uu = u * u
    s0, s1, s2, s3, s4 = _STIRLING
    series = (s0 - (s1 - (s2 - (s3 - s4 * uu) * uu) * uu) * uu) * u
    return np.where(k <= 15.0, _STIRLERR[np.minimum(k, 15.0).astype(np.intp)], series)


def binomial_pmf(k, n: int, p) -> np.ndarray:
    """P(Binomial(n, p) = k) for whole 0 <= k <= n, elementwise over k and p
    broadcast together, by Loader's saddle-point form: exp of the Stirling
    remainders less the deviances bd0 of k from np and of n - k from
    n(1 - p), times sqrt(n / (2 pi k (n - k))). Each bd0 = x log(x / m) + m - x
    is formed as x log1p((x - m) / m) - (x - m), whose absolute error of a
    few ULP of |x - m| is all the exponent needs: relative error about 1e-13
    wherever |k - np| is below a few thousand. k = 0 and k = n are (1 - p)^n
    and p^n in floating point, as scipy's bdtr forms them.
    """
    k, p = np.asarray(k, dtype=float), np.asarray(p, dtype=float)
    q = 1.0 - p
    rest, gap = n - k, k - n * p  # n - k less n q is -gap
    whole, part, remainder = _stirlerr(np.stack(np.broadcast_arrays(float(n), k, rest)))
    with np.errstate(divide="ignore", invalid="ignore"):  # the ends are taken below
        exponent = (whole - part - remainder - (k * np.log1p(gap / (n * p)) - gap)
                    - (rest * np.log1p(-gap / (n * q)) + gap))
        out = np.exp(exponent) * np.sqrt(n / (2.0 * math.pi * k * rest))
        out = np.where(k == 0.0, q ** n, np.where(rest == 0.0, p ** n, out))
    # a certain outcome: every count but the one reached has no mass
    return np.where(p == 0.0, k == 0.0, np.where(q == 0.0, rest == 0.0, out))


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
