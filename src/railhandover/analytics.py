"""Closed-form handover metrics along the overlap span.

All metrics are evaluated position-wise on a measurement grid, with the
front antenna's along-track coordinate as the reference. Two evaluation
modes exist because the published closed forms for occurrence, failure
and interruption are not self-consistent: MetricMode.PAPER evaluates
them exactly as printed, MetricMode.REDERIVED (the default) evaluates
the first-principles forms that Monte Carlo estimates converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.special import erfc, erfcx, ndtr

from . import channel
from .scenario import AntennaId, CellId, Scenario
from .statfun import STEP_SCALE, integrate_rows, q_function

# Conditional metrics are undefined once the conditioning event is this rare.
TRIGGER_FLOOR = 1e-12

_SQRT2 = math.sqrt(2.0)


class MetricMode(Enum):
    PAPER = "paper"
    REDERIVED = "rederived"


class UndefinedConditionalError(ValueError):
    """Raised when a conditional metric's conditioning probability is ~ 0."""


@dataclass(frozen=True)
class PositionGrid:
    """Uniformly spaced front-antenna positions covering [0, length]."""

    positions: tuple[float, ...]
    step: float

    def __post_init__(self) -> None:
        # plain floats keep the grid hashable, so link tables can be cached by it
        object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        if not (self.step > 0.0):
            raise ValueError(f"step must be > 0, got {self.step}")
        if len(self.positions) < 1:
            raise ValueError("grid needs at least one position")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("grid positions must be strictly increasing")

    @classmethod
    def over(cls, length: float, step: float) -> "PositionGrid":
        if not (length >= 0.0 and step > 0.0):
            raise ValueError("length must be >= 0 and step > 0")
        count = int(math.floor(length / step + 1e-9))
        return cls(tuple(k * step for k in range(count + 1)), step)

    @classmethod
    def for_scenario(cls, sc: Scenario) -> "PositionGrid":
        return cls.over(sc.ds, sc.measurement_step)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.positions, dtype=float)


def _check_antenna(sc: Scenario, antenna: AntennaId) -> None:
    if antenna not in sc.antennas():
        raise ValueError(f"scheme {sc.scheme.value} has no {antenna.name.lower()} antenna")


# === Trigger probability ===


def trigger_prob_closed_form(serving: channel.LinkStat, target: channel.LinkStat,
                             hysteresis: float) -> float:
    """P(target RSS - serving RSS > hysteresis) for one Gaussian pair."""
    gap = math.hypot(serving.sigma, target.sigma)
    margin = target.mu - serving.mu
    return q_function((hysteresis - margin) / gap)


def trigger_prob(sc: Scenario, front_x: float, antenna: AntennaId = AntennaId.FRONT) -> float:
    """Probability that the handover rule fires at this position: the closed
    form, exact for the Gaussian pair every scheme compares (the boundary
    RAUs under RAU selection, the per-cell distributions otherwise)."""
    _check_antenna(sc, antenna)
    return trigger_prob_closed_form(*channel.trigger_pair(sc, front_x, antenna),
                                    sc.hysteresis)


def trigger_curve(sc: Scenario, grid: PositionGrid,
                  antenna: AntennaId = AntennaId.FRONT) -> np.ndarray:
    """trigger_prob at every grid position, from the link table's comparands."""
    _check_antenna(sc, antenna)
    table = channel.link_table(sc, grid)
    a = table.antennas.index(antenna)
    return np.array([trigger_prob_closed_form(*table.trigger_pair(j, a), sc.hysteresis)
                     for j in range(len(grid.positions))])


# === Occurrence probability ===


def first_crossing_masses(trigger_probs: np.ndarray) -> np.ndarray:
    """Probability that the first trigger lands on each grid index.

    mass[k] = p[k] * prod_{j<k} (1 - p[j]); the masses are non-negative
    and sum to at most one, the deficit being the no-trigger probability.
    """
    p = np.asarray(trigger_probs, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("trigger probabilities must lie in [0, 1]")
    survival_before = np.concatenate(([1.0], np.cumprod(1.0 - p)[:-1]))
    return p * survival_before


def occurrence_prob(sc: Scenario, grid: PositionGrid,
                    antenna: AntennaId = AntennaId.FRONT,
                    mode: MetricMode = MetricMode.REDERIVED) -> np.ndarray:
    """Per-position handover occurrence masses along the grid.

    REDERIVED is the first-crossing distribution of the trigger events
    under position-independent shadowing. PAPER evaluates the printed
    expression p[k] * (step * sum_{j<k} p[j]) verbatim; that curve is not
    a probability mass (it is not normalized and can exceed 1) and is
    emitted for comparison only.
    """
    return occurrence_masses(trigger_curve(sc, grid, antenna), grid.step, mode)


def occurrence_masses(trigger_probs: np.ndarray, step: float,
                      mode: MetricMode = MetricMode.REDERIVED) -> np.ndarray:
    """occurrence_prob from an already evaluated trigger curve."""
    p = np.asarray(trigger_probs, dtype=float)
    if mode is MetricMode.REDERIVED:
        return first_crossing_masses(p)
    running = np.concatenate(([0.0], np.cumsum(p)[:-1]))
    return p * (step * running)


# === Failure probability ===


def failure_prob(sc: Scenario, front_x: float, antenna: AntennaId = AntennaId.FRONT,
                 mode: MetricMode = MetricMode.REDERIVED) -> float:
    """P(target RSS at the trigger moment < threshold | trigger fired).

    Let U be the target comparand and V the target-minus-serving margin.
    REDERIVED evaluates P(U < threshold | V > hysteresis) by integrating
    the conditional Gaussian of U over the hazard-weighted truncated law
    of V, which stays accurate even when the trigger probability is tiny.

    PAPER evaluates the printed form, whose integrand uses the upper
    tail of the serving comparand instead of the lower one; it equals
    P(U < threshold, V < hysteresis) / P(V > hysteresis) and can exceed
    one. It is derived here from the rederived value via
    P(U < T) = P(U < T, V > H) + P(U < T, V < H).

    Raises UndefinedConditionalError when the trigger probability is
    below TRIGGER_FLOOR.
    """
    _check_antenna(sc, antenna)
    serving, target = channel.trigger_pair(sc, front_x, antenna)
    pair = np.array([[serving.mu, serving.sigma, target.mu, target.sigma]])
    value = _failure_rows(pair.tobytes(), sc.hysteresis, sc.threshold, mode, antenna,
                          (front_x,))[0]
    if math.isnan(value):
        raise UndefinedConditionalError(
            f"trigger probability {trigger_prob(sc, front_x, antenna):.3g} at "
            f"x={front_x:.6g} is below {TRIGGER_FLOOR:.0e}; conditional failure undefined")
    return float(value)


def failure_curve(sc: Scenario, grid: PositionGrid,
                  antenna: AntennaId = AntennaId.FRONT,
                  mode: MetricMode = MetricMode.REDERIVED) -> list[float | None]:
    """failure_prob at every grid position, None where it is undefined.

    Each distinct (serving, target) pair is integrated once, and schemes
    with equal pairs (das-single and the proposed front antenna) share them.
    """
    _check_antenna(sc, antenna)
    table = channel.link_table(sc, grid)
    a, (s, t) = table.antennas.index(antenna), table.trigger_column
    pairs = np.stack((table.mu[:, a, 0, s], table.sigma[:, a, 0, s],
                      table.mu[:, a, 1, t], table.sigma[:, a, 1, t]), axis=1)
    distinct, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    values = _failure_rows(distinct.tobytes(), sc.hysteresis, sc.threshold, mode, antenna,
                           tuple(grid.positions[j] for j in first))
    return [None if math.isnan(v) else v for v in values[inverse.reshape(-1)].tolist()]


@lru_cache(maxsize=32)
def _failure_rows(pairs: bytes, hysteresis: float, threshold: float, mode: MetricMode,
                  antenna: AntennaId, at: tuple[float, ...]) -> np.ndarray:
    """Conditional failure of each (serving mu, sigma, target mu, sigma) row of
    pairs (float64 bytes), NaN below TRIGGER_FLOOR; errors name row r by the
    antenna and at[r]. Schemes with equal pairs share the cached values."""
    mu_s, sigma_s, mu_t, sigma_t = np.frombuffer(pairs).reshape(-1, 4).T
    sigma_v = np.hypot(sigma_s, sigma_t)
    z0 = (hysteresis - (mu_t - mu_s)) / sigma_v
    p_trig = 0.5 * erfc(z0 / _SQRT2)
    hazard = math.sqrt(2.0 / math.pi) / erfcx(z0 / _SQRT2)
    # Conditional law of U given the standardized margin z: Gaussian with
    # mean mu_u(z) and a variance shrunk by the correlation with V. Its CDF
    # at the threshold steps at z = step once sigma_s << sigma_t.
    slope = sigma_t ** 2 / sigma_v
    sigma_c = sigma_s * sigma_t / sigma_v
    with np.errstate(divide="ignore", over="ignore"):
        step = np.where(sigma_t > STEP_SCALE * sigma_s, (threshold - mu_t) / slope, np.nan)

    def conditional_cdf(z, rows):
        return ndtr((threshold - (mu_t[rows] + slope[rows] * z)) / sigma_c[rows])

    def beyond_trigger(e, rows):
        # the margin z0 + e under its law truncated to z > z0, hazard-weighted
        z = z0[rows]
        return hazard[rows] * np.exp(-z * e - 0.5 * e * e) * conditional_cdf(z + e, rows)

    def whole_margin(z, rows):
        # trigger near-certain: the plain integral over the margin law is
        # stable and the truncation correction is negligible
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * conditional_cdf(z, rows)

    out = np.full(len(z0), np.nan)
    defined = p_trig >= TRIGGER_FLOOR
    for rows, integrand, lower, upper, cut in (
            (np.flatnonzero(defined & (z0 >= -8.0)), beyond_trigger,
             np.zeros_like(z0), 12.0 + np.maximum(0.0, -z0), step - z0),
            (np.flatnonzero(defined & (z0 < -8.0)), whole_margin,
             np.maximum(z0, -40.0), np.full_like(z0, 10.0), step)):
        lower, upper, cut = lower[rows], upper[rows], cut[rows]
        edges = np.stack((lower, np.where((lower < cut) & (cut < upper), cut, lower), upper), 1)
        out[rows] = integrate_rows(lambda x, r, rows=rows, f=integrand: f(x, rows[r]), edges,
                                   lambda r, rows=rows: f"failure probability at x="
                                   f"{at[rows[r]]:g} m ({antenna.name.lower()} antenna)")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # NaN stays NaN
        out = np.clip(np.where(z0 < -8.0, out / p_trig, out), 0.0, 1.0)
        if mode is MetricMode.PAPER:
            out = np.maximum(ndtr((threshold - mu_t) / sigma_t) / p_trig - out, 0.0)
    out.flags.writeable = False
    return out


# === Interruption probability ===


def interruption_prob_antenna(sc: Scenario, front_x: float, antenna: AntennaId,
                              mode: MetricMode = MetricMode.REDERIVED) -> float:
    """P(one antenna's RSS from every cell is below the usable threshold).

    REDERIVED multiplies the per-cell below-threshold probabilities
    (independent shadowing across cells). PAPER takes the minimum of the
    per-cell probabilities as printed; it upper-bounds the rederived
    value, so REDERIVED <= PAPER everywhere.
    """
    _check_antenna(sc, antenna)
    return _cells_interruption(sc, [channel.rss_distribution(sc, front_x, antenna, cell)
                                    for cell in channel.CELLS], mode)


def _cells_interruption(sc: Scenario, cells: list[channel.RssDistribution],
                        mode: MetricMode) -> float:
    below = [channel.cdf(dist, sc.threshold) for dist in cells]
    return below[0] * below[1] if mode is MetricMode.REDERIVED else min(below)


def interruption_prob(sc: Scenario, front_x: float,
                      mode: MetricMode = MetricMode.REDERIVED) -> float:
    """Communication interruption: every active antenna below threshold."""
    return math.prod(interruption_prob_antenna(sc, front_x, antenna, mode)
                     for antenna in sc.antennas())


def interruption_curve(sc: Scenario, grid: PositionGrid,
                       mode: MetricMode = MetricMode.REDERIVED) -> np.ndarray:
    """interruption_prob at every grid position, from the link table's cells."""
    table = channel.link_table(sc, grid)
    cells = range(len(channel.CELLS))
    return np.array([math.prod(
        _cells_interruption(sc, [table.cell_distribution(j, a, c) for c in cells], mode)
        for a in range(len(table.antennas))) for j in range(len(grid.positions))])


# === Mean RSS ===


def mean_rss(sc: Scenario, front_x: float, antenna: AntennaId = AntennaId.FRONT) -> float:
    """Mean RSS in dBm of the better cell at this antenna position.

    "Better" picks the cell whose RSS distribution has the larger mean;
    the reported value is that mean.
    """
    _check_antenna(sc, antenna)
    return max(channel.distribution_mean(channel.rss_distribution(sc, front_x, antenna, cell))
               for cell in (CellId.SERVING, CellId.TARGET))


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
