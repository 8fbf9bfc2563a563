"""Reference normal-tail kernels, used by tests only.

`ndtr`, `erfc` and `erfcx` in the branch-gather form that
`railhandover.statfun` replaced: each Cephes branch (T/U below |x| = 1,
P/Q below 8 and NaN, R/S from 8) is gathered into scratch rows, evaluated
only on the elements that reach it and scattered back. The package's
kernels evaluate P/Q on every element and overwrite the other two
branches; they must equal these bit for bit. The rational coefficients
are the package's own.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from railhandover.statfun import _MAXLOG, _PQ, _RS, _SQRT1_2, _SQRT_PI, _TU


def _branches(x: np.ndarray) -> Iterator[tuple]:
    """Each Cephes branch that some element of the flat array x reaches, by
    |x|: T/U below 1, P/Q below 8 (NaN too), R/S from 8. Yields the indices,
    the rational, x at the indices, a free row and the (2, n) Horner rows,
    all three in one scratch array that every branch reuses."""
    z = np.abs(x)
    near, far = z < 1.0, z >= 8.0
    mid = near | far
    np.logical_not(mid, out=mid)
    rows = np.empty((4, x.size))
    for mask, steps in ((near, _TU), (mid, _PQ), (far, _RS)):
        i = mask.nonzero()[0]
        m = i.size
        if m:
            yield i, steps, np.take(x, i, out=rows[0, :m], mode="clip"), rows[1, :m], rows[2:, :m]


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


def _half_erf(xi: np.ndarray, v: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """erf(x) / 2 on |x| < 1, in acc[0]; v is scratch."""
    np.multiply(xi, xi, out=v)
    out = _ratio(v, _TU, acc)
    out *= xi
    return out


def _half_erfc(xi: np.ndarray, steps, v: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """erfc(|x|) / 2 on |x| >= 1 by the rational steps, in acc[0]: 0 where
    x^2 > _MAXLOG, as in Cephes; v is scratch."""
    np.abs(xi, out=v)
    if steps is _RS:
        np.minimum(v, 27.0, out=v)
    out = _ratio(v, steps, acc)
    e = acc[1]
    np.multiply(v, v, out=e)
    if steps is _RS:
        out *= e <= _MAXLOG
    np.negative(e, out=e)
    np.exp(e, out=e)
    out *= e
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, elementwise, from the Cephes rationals: with
    x = a / sqrt(2), 1/2 + erf(x)/2 for |x| < 1, else erfc(|x|)/2, or one
    minus it for x > 0. Within 4 ULP of scipy.special.ndtr; NaN stays NaN."""
    a = np.asarray(a, dtype=float)
    out = np.empty(a.size)
    for i, steps, xi, v, acc in _branches(a.reshape(-1) * _SQRT1_2):
        if steps is _TU:
            y = _half_erf(xi, v, acc)
            y += 0.5
        else:
            y = _half_erfc(xi, steps, v, acc)
            np.copysign(y, xi, out=y)
            np.subtract(xi > 0.0, y, out=y)  # 1 - y for x > 0, y otherwise
        out[i] = y
    return out.reshape(a.shape)


def erfc(x) -> np.ndarray:
    """Complementary error function, elementwise, as Cephes computes it:
    1 - erf(x) for |x| < 1, else exp(-x^2) times a rational in |x|, taken
    from 2 for x < 0. Within 4 ULP of scipy.special.erfc."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i, steps, xi, v, acc in _branches(x.reshape(-1)):
        if steps is _TU:
            y = _half_erf(xi, v, acc)
            out[i] = 1.0 - 2.0 * y
        else:
            y = _half_erfc(xi, steps, v, acc)
            y *= 2.0
            out[i] = np.where(xi < 0.0, 2.0 - y, y)
    return out.reshape(x.shape)


def erfcx(x) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x), elementwise:
    the erfc rationals without their exp(-x^2) factor from 1 to 50, the
    asymptotic continued fraction beyond, exp(x^2) (1 - erf(x)) on |x| < 1,
    and 2 exp(x^2) - erfcx(-x) from -1 down (inf once exp overflows).
    Within 16 ULP of scipy.special.erfcx."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i, steps, xi, v, acc in _branches(x.reshape(-1)):
        with np.errstate(over="ignore"):  # inf from -26.6 down
            grow = np.exp(xi * xi)
            if steps is _TU:
                out[i] = grow * (1.0 - 2.0 * _half_erf(xi, v, acc))
                continue
            np.abs(xi, out=v)
            y = 2.0 * _ratio(np.minimum(v, 50.0), steps, acc)
            u = 1.0 / (v * v)  # beyond 50 the continued fraction, with no overflow
            far = (1.0 + u * (4.5 + 2.0 * u)) / ((1.0 + u * (5.0 + 3.75 * u)) * _SQRT_PI * v)
            out[i] = np.where(xi < 0.0, 2.0 * grow - y, np.where(v > 50.0, far, y))
    return out.reshape(x.shape)
