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

import numpy as np

from . import channel
from .scenario import SELECTION_SCHEMES, AntennaId, CellId, Scenario
from .statfun import gaussian_hazard, integrate, q_function, std_normal_cdf

# Conditional metrics are undefined once the conditioning event is this rare.
TRIGGER_FLOOR = 1e-12


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


def trigger_prob_integral(serving: channel.LinkStat, target: channel.LinkStat,
                          hysteresis: float) -> float:
    """Same probability through the general integral over the target density.

    target - serving > hysteresis iff serving < r - hysteresis once the
    target value r is fixed, so the integrand is
    F_serving(r - hysteresis) * f_target(r). Kept as an independent
    evaluation route; it must agree with the closed form.
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


def trigger_prob(sc: Scenario, front_x: float, antenna: AntennaId = AntennaId.FRONT) -> float:
    """Probability that the handover rule fires at this position.

    RAU-selection schemes use the closed form on the boundary-RAU pair;
    blanket and traditional schemes evaluate the general integral with
    their per-cell distributions.
    """
    _check_antenna(sc, antenna)
    return _pair_trigger_prob(sc, *channel.trigger_pair(sc, front_x, antenna))


def _pair_trigger_prob(sc: Scenario, serving: channel.LinkStat,
                       target: channel.LinkStat) -> float:
    if sc.scheme in SELECTION_SCHEMES:
        return trigger_prob_closed_form(serving, target, sc.hysteresis)
    return trigger_prob_integral(serving, target, sc.hysteresis)


def _table_pairs(sc: Scenario, grid: PositionGrid, antenna: AntennaId):
    """(front_x, serving, target) of every grid position, read from the link table."""
    _check_antenna(sc, antenna)
    table = channel.link_table(sc, grid)
    a = table.antennas.index(antenna)
    return [(x, *table.trigger_pair(j, a)) for j, x in enumerate(grid.positions)]


def trigger_curve(sc: Scenario, grid: PositionGrid,
                  antenna: AntennaId = AntennaId.FRONT) -> np.ndarray:
    """trigger_prob at every grid position, from the link table's comparands."""
    return np.array([_pair_trigger_prob(sc, serving, target)
                     for _, serving, target in _table_pairs(sc, grid, antenna)])


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
    return _pair_failure_prob(sc, front_x, *channel.trigger_pair(sc, front_x, antenna), mode)


def failure_curve(sc: Scenario, grid: PositionGrid,
                  antenna: AntennaId = AntennaId.FRONT,
                  mode: MetricMode = MetricMode.REDERIVED) -> list[float | None]:
    """failure_prob at every grid position, None where it is undefined."""
    out: list[float | None] = []
    for x, serving, target in _table_pairs(sc, grid, antenna):
        try:
            out.append(_pair_failure_prob(sc, x, serving, target, mode))
        except UndefinedConditionalError:
            out.append(None)
    return out


def _pair_failure_prob(sc: Scenario, front_x: float, serving: channel.LinkStat,
                       target: channel.LinkStat, mode: MetricMode) -> float:
    h = sc.hysteresis
    sigma_v = math.hypot(serving.sigma, target.sigma)
    mu_v = target.mu - serving.mu
    z0 = (h - mu_v) / sigma_v
    p_trig = q_function(z0)
    if p_trig < TRIGGER_FLOOR:
        raise UndefinedConditionalError(
            f"trigger probability {p_trig:.3g} at x={front_x:.6g} is below "
            f"{TRIGGER_FLOOR:.0e}; conditional failure undefined"
        )

    # Conditional law of U given the standardized margin z: Gaussian with
    # mean mu_u(z) and a variance shrunk by the correlation with V.
    slope = target.sigma ** 2 / sigma_v
    sigma_c = serving.sigma * target.sigma / sigma_v

    def conditional_cdf(z: float) -> float:
        return std_normal_cdf((sc.threshold - (target.mu + slope * z)) / sigma_c)

    if z0 >= -8.0:
        hz = gaussian_hazard(z0)

        def integrand(e: float) -> float:
            return hz * math.exp(-z0 * e - 0.5 * e * e) * conditional_cdf(z0 + e)

        upper = 12.0 + max(0.0, -z0)
        rederived = integrate(integrand, 0.0, upper).require()
    else:
        # Trigger is near-certain; the plain integral over the margin law
        # is stable and the truncation correction is negligible.
        def integrand(z: float) -> float:
            dens = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return dens * conditional_cdf(z)

        joint = integrate(integrand, max(z0, -40.0), 10.0).require()
        rederived = joint / p_trig
    rederived = min(max(rederived, 0.0), 1.0)

    if mode is MetricMode.REDERIVED:
        return rederived
    below = std_normal_cdf((sc.threshold - target.mu) / target.sigma)
    return max(below / p_trig - rederived, 0.0)


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
