"""Closed-form handover metrics along the overlap span.

All metrics are evaluated position-wise on a measurement grid, with the
front antenna's along-track coordinate as the reference, and every curve
reads its Gaussian link statistics from `channel.link_table`. Trigger and
failure are the front antenna's curves, of its `LinkTable.comparands`,
interruption the scheme's. Every normal tail is the array kernel
`statfun.ndtr`: trigger and interruption apply it to standardized values,
failure integrates it with `statfun.erfcx`. A position's value does not
depend on the grid it sits on: the value at one position x is the curve
on PositionGrid((x,), step) (the grid type lives in `scenario`). Every
curve is a float array; failure, a conditional, is NaN where the trigger
almost never fires. Two evaluation modes exist because the published
closed forms for occurrence, failure and interruption are not
self-consistent: MetricMode.PAPER evaluates them exactly as printed,
MetricMode.REDERIVED (the default) evaluates the first-principles forms
that Monte Carlo estimates converge to.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from . import channel, statfun
from .scenario import PositionGrid, Scenario
from .statfun import STEP_SCALE, integrate_rows

# Conditional metrics are undefined once the conditioning event is this rare.
TRIGGER_FLOOR = 1e-12

_SQRT2 = math.sqrt(2.0)


class MetricMode(Enum):
    PAPER = "paper"
    REDERIVED = "rederived"


# === Trigger probability ===


def _trigger_point(mu_s, sigma_s, mu_t, sigma_t, hysteresis):
    """sigma_v = hypot(sigma_s, sigma_t), the sigma of the margin V = target
    - serving, and the trigger point z0 = (hysteresis - E[V]) / sigma_v:
    the rule fires with probability P(V > hysteresis) = ndtr(-z0)."""
    sigma_v = np.hypot(sigma_s, sigma_t)
    with np.errstate(over="ignore"):  # +-inf: a certain or an impossible trigger
        return sigma_v, (hysteresis - (mu_t - mu_s)) / sigma_v


def trigger_curve(sc: Scenario, grid: PositionGrid) -> np.ndarray:
    """Probability that the front antenna's handover rule fires at each
    grid position: the closed form ndtr(-z0) of its Gaussian pair (the
    boundary RAUs under RAU selection, the cell RSS otherwise)."""
    _, z0 = _trigger_point(*channel.link_table(sc, grid).comparands(), sc.hysteresis)
    return statfun.ndtr(-z0)


# === Occurrence probability ===


def occurrence_masses(trigger_probs: np.ndarray, step: float,
                      mode: MetricMode = MetricMode.REDERIVED) -> np.ndarray:
    """Per-position handover occurrence masses from a trigger curve.

    REDERIVED is the first-crossing distribution of the trigger events
    under position-independent shadowing: mass[k] = p[k] * prod_{j<k}
    (1 - p[j]), non-negative masses summing to at most one, the deficit
    being the no-trigger probability. PAPER evaluates the printed
    expression p[k] * (step * sum_{j<k} p[j]) verbatim; that curve is not
    a probability mass (it is not normalized and can exceed 1) and is
    emitted for comparison only.
    """
    p = np.asarray(trigger_probs, dtype=float)
    if mode is MetricMode.REDERIVED:
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("trigger probabilities must lie in [0, 1]")
        return p * np.concatenate(([1.0], np.cumprod(1.0 - p)[:-1]))
    running = np.concatenate(([0.0], np.cumsum(p)[:-1]))
    return p * (step * running)


# === Failure probability ===


def failure_curve(scs: Sequence[Scenario], grid: PositionGrid,
                  mode: MetricMode = MetricMode.REDERIVED) -> np.ndarray:
    """P(target RSS at the trigger moment < threshold | trigger fired) of
    the front antenna at every grid position, one row per scenario of scs,
    NaN where the trigger probability is below TRIGGER_FLOOR and the
    conditional is undefined.

    Let U be the target comparand and V the target-minus-serving margin.
    REDERIVED evaluates P(U < threshold | V > hysteresis) by integrating
    the conditional Gaussian of U over the hazard-weighted truncated law
    of V, which stays accurate even when the trigger probability is tiny.

    PAPER evaluates the printed form, whose integrand uses the upper
    tail of the serving comparand instead of the lower one; it equals
    P(U < threshold, V < hysteresis) / P(V > hysteresis) and can exceed
    one. It integrates the conditional Gaussian of U over the hazard-weighted
    law of V truncated to V < hysteresis, the mirror image of REDERIVED, and
    scales that by P(V < hysteresis) / P(V > hysteresis): no difference of
    near-equal numbers, so tiny values keep their digits.

    Each distinct (serving, target, hysteresis, threshold) row of all the
    scenarios is integrated once, in one batch, so schemes with equal
    pairs (das-single and the proposed front antenna) share them.
    """
    count = len(grid.positions)
    rows = np.concatenate([np.column_stack(channel.link_table(sc, grid).comparands()
                                           + (np.full(count, sc.hysteresis),
                                              np.full(count, sc.threshold)))
                           for sc in scs])
    distinct, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    values = _failure_rows(distinct, mode, [grid.positions[j % count] for j in first])
    return values[inverse.reshape(-1)].reshape(len(scs), count)


# +-inf in here is a limit (a certain or an impossible trigger, a step CDF) and NaN
# an undefined row, or a quadrature that integrate_rows reports as a NumericsError
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _failure_rows(pairs: np.ndarray, mode: MetricMode, at: Sequence[float]) -> np.ndarray:
    """Conditional failure of each (serving mu, sigma, target mu, sigma,
    hysteresis, threshold) row of pairs, NaN below TRIGGER_FLOOR; errors
    name row r by at[r]."""
    mu_s, sigma_s, mu_t, sigma_t, hysteresis, threshold = pairs.T
    sigma_v, z0 = _trigger_point(mu_s, sigma_s, mu_t, sigma_t, hysteresis)
    p_trig = statfun.ndtr(-z0)
    # the side of z0 the margin is truncated to: above it (the trigger
    # fired) or, for PAPER, below; s0 is the truncation point seen from that side
    side = 1.0 if mode is MetricMode.REDERIVED else -1.0
    s0 = side * z0
    hazard = math.sqrt(2.0 / math.pi) / statfun.erfcx(s0 / _SQRT2)
    # Conditional law of U given the standardized margin z: Gaussian with
    # mean mu_u(z) and a variance shrunk by the correlation with V. Its CDF
    # at the threshold steps at z = step once sigma_s << sigma_t.
    ratio = sigma_t / sigma_v  # sigma_t ** 2 would overflow past about 1.3e154
    slope = sigma_t * ratio
    sigma_c = sigma_s * ratio
    step = np.where(sigma_t > STEP_SCALE * sigma_s, (threshold - mu_t) / slope, np.nan)

    def conditional_cdf(z, rows):
        return statfun.ndtr((threshold[rows] - (mu_t[rows] + slope[rows] * z)) / sigma_c[rows])

    def truncated(e, rows):
        # the margin z0 + side * e under its law truncated to that side, hazard-weighted
        z = s0[rows]
        return hazard[rows] * np.exp(-z * e - 0.5 * e * e) * conditional_cdf(side * (z + e), rows)

    def whole_margin(z, rows):
        # trigger near-certain (REDERIVED only, as PAPER's s0 = -z0 stays above
        # -8 where the trigger is defined): the plain integral over the margin
        # law is stable and the truncation correction is negligible
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * conditional_cdf(z, rows)

    out = np.full(len(z0), np.nan)
    defined = p_trig >= TRIGGER_FLOOR
    for rows, integrand, lower, upper, cut in (
            (np.flatnonzero(defined & (s0 >= -8.0)), truncated,
             np.zeros_like(z0), 12.0 + np.maximum(0.0, -s0), side * (step - z0)),
            (np.flatnonzero(defined & (s0 < -8.0)), whole_margin,
             np.maximum(z0, -40.0), np.full_like(z0, 10.0), step)):
        lower, upper, cut = lower[rows], upper[rows], cut[rows]
        edges = np.stack((lower, np.where((lower < cut) & (cut < upper), cut, lower), upper), 1)
        out[rows] = integrate_rows(lambda x, r, rows=rows, f=integrand: f(x, rows[r]), edges,
                                   lambda r, rows=rows: f"failure probability at x="
                                   f"{at[rows[r]]:g} m (front antenna)")
    out = np.clip(np.where(s0 < -8.0, out / p_trig, out), 0.0, 1.0)
    if mode is MetricMode.PAPER:
        out = out * statfun.ndtr(z0) / p_trig
    return out


# === Interruption probability ===


def _running_product(values: np.ndarray) -> np.ndarray:
    """Product over the last axis, multiplied left to right as math.prod does."""
    out = values[..., 0]
    for k in range(1, values.shape[-1]):
        out = out * values[..., k]
    return out


def interruption_curve(sc: Scenario, grid: PositionGrid,
                       mode: MetricMode = MetricMode.REDERIVED) -> np.ndarray:
    """P(every active antenna's RSS from every cell is below the usable
    threshold) at each grid position.

    A cell's below-threshold probability is the product of its component
    CDFs. Per antenna, REDERIVED multiplies the two cells' probabilities
    (independent shadowing across cells) and PAPER takes their minimum as
    printed, an upper bound, so REDERIVED <= PAPER everywhere. The antenna
    values multiply.
    """
    mu, sigma = channel.link_table(sc, grid).cell_components()
    with np.errstate(over="ignore"):  # +-inf: a step CDF
        cells = _running_product(statfun.ndtr((sc.threshold - mu) / sigma))
    if mode is MetricMode.REDERIVED:
        antennas = cells[..., 0] * cells[..., 1]
    else:
        antennas = np.minimum(cells[..., 0], cells[..., 1])
    return _running_product(antennas)


# === Curve utilities ===


def first_level_crossing(grid: PositionGrid, values: np.ndarray,
                         level: float) -> float | None:
    """First grid coordinate where the curve reaches the level, interpolated.

    Scans left to right; returns None when the curve stays below level.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (len(grid.positions),):
        raise ValueError("values must match the grid length")
    if v[0] >= level:
        return grid.positions[0]
    above = np.nonzero(v >= level)[0]
    if above.size == 0:
        return None
    k = int(above[0])
    x0, x1 = grid.positions[k - 1], grid.positions[k]
    v0, v1 = v[k - 1], v[k]
    if v1 == v0:
        return x1
    return x0 + (level - v0) * (x1 - x0) / (v1 - v0)
