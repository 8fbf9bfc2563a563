"""The scalar single-position link statistics and metrics: the tests' reference.

The package builds every link statistic once per grid in
`channel.link_table` and evaluates every curve on those arrays. This
module is the independent scalar route the table and the curves are
checked against bitwise: its own node geometry, path loss, per-unit
power and per-unit sigma from the `Scenario` fields, one `LinkStat` per
link, one `RssDistribution` per (antenna, cell), and each metric at one
position from plain floats through the same kernels (`math.hypot` and
`math.log10` for the links, `statfun.ndtr` on one value at a time for
the normal tails). Only the blanket moment match is the package's own
`statfun.lognormal_sum_approx`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from railhandover import analytics, channel
from railhandover.analytics import TRIGGER_FLOOR, MetricMode
from railhandover.scenario import (
    SELECTION_SCHEMES,
    AntennaId,
    CellId,
    Scenario,
    Scheme,
    SelectionRule,
)
from railhandover.statfun import lognormal_sum_approx, ndtr

# === Geometry ===


# A transmit node: along-track coordinate plus lateral offset, meters.
Node = namedtuple("Node", "along_track offset")


def rau_positions(sc: Scenario, cell: CellId) -> tuple[Node, ...]:
    """A cell's RAU nodes by index 1..n_raus: pitch dr about its base station, du off the track."""
    shift = 0.0 if cell is CellId.SERVING else sc.ds
    center = (sc.n_raus + 1) / 2.0
    return tuple(Node((n - center) * sc.dr + shift, sc.du) for n in range(1, sc.n_raus + 1))


def bs_position(sc: Scenario, cell: CellId) -> Node:
    """Base-station node of a cell: at 0 or ds, d0 off the track."""
    return Node(0.0 if cell is CellId.SERVING else sc.ds, sc.d0)


def antenna_x(sc: Scenario, front_x: float, antenna: AntennaId) -> float:
    """Along-track coordinate of a train antenna, given the front position."""
    return front_x if antenna is AntennaId.FRONT else front_x - sc.train_length


def link_distance(antenna_along: float, node: Node) -> float:
    """Euclidean distance from a train antenna to a transmit node."""
    return math.hypot(node.along_track - antenna_along, node.offset)


# === Link statistics ===


def path_loss(sc: Scenario, distance: float) -> float:
    """Log-distance path loss in dB at a link distance > 0 in meters."""
    if not distance > 0.0:
        raise ValueError(f"path loss requires distance > 0, got {distance!r}")
    return sc.pathloss_a + 10.0 * sc.pathloss_gamma * math.log10(distance)


def unit_power(sc: Scenario) -> float:
    """Transmit power of one RAU in dBm: the cell's, split evenly under blanket transmission."""
    if sc.scheme is Scheme.DAS_BLANKET:
        return sc.tx_power - 10.0 * math.log10(sc.n_raus)
    return sc.tx_power


def unit_sigma(sc: Scenario, rau_index: int) -> float:
    """Shadow sigma of RAU rau_index (1-based): its per-RAU override, else shadow_sigma."""
    if sc.shadow_sigma_per_rau is None:
        return sc.shadow_sigma
    return sc.shadow_sigma_per_rau[rau_index - 1]


@dataclass(frozen=True)
class LinkStat:
    """Gaussian RSS statistics of one link: mean dBm, shadow sigma dB."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")


class DistributionKind(Enum):
    MAX_OF_GAUSSIANS = "max-of-gaussians"
    SINGLE_GAUSSIAN = "single-gaussian"


@dataclass(frozen=True)
class RssDistribution:
    """RSS distribution of one (antenna, cell) pair at one position."""

    kind: DistributionKind
    components: tuple[LinkStat, ...]

    def __post_init__(self) -> None:
        if len(self.components) == 0:
            raise ValueError("a distribution needs at least one component")
        if self.kind is DistributionKind.SINGLE_GAUSSIAN and len(self.components) != 1:
            raise ValueError("single-gaussian distribution must have exactly one component")


def link_stat(sc: Scenario, front_x: float, rau_index: int, antenna: AntennaId,
              cell: CellId) -> LinkStat:
    """RSS statistics of the link from one RAU to one train antenna."""
    if not (1 <= rau_index <= sc.n_raus):
        raise ValueError(f"rau_index must be in 1..{sc.n_raus}, got {rau_index}")
    node = rau_positions(sc, cell)[rau_index - 1]
    d = link_distance(antenna_x(sc, front_x, antenna), node)
    return LinkStat(unit_power(sc) - path_loss(sc, d), unit_sigma(sc, rau_index))


def _bs_link_stat(sc: Scenario, front_x: float, antenna: AntennaId, cell: CellId) -> LinkStat:
    node = bs_position(sc, cell)
    d = link_distance(antenna_x(sc, front_x, antenna), node)
    return LinkStat(sc.tx_power - path_loss(sc, d), sc.shadow_sigma)


def rss_distribution(sc: Scenario, front_x: float, antenna: AntennaId,
                     cell: CellId) -> RssDistribution:
    """Per-cell RSS distribution seen by a train antenna at front_x."""
    if sc.scheme is Scheme.TRADITIONAL:
        return RssDistribution(DistributionKind.SINGLE_GAUSSIAN,
                               (_bs_link_stat(sc, front_x, antenna, cell),))

    links = tuple(link_stat(sc, front_x, n, antenna, cell)
                  for n in range(1, sc.n_raus + 1))
    if sc.scheme is Scheme.DAS_BLANKET:
        mu, sigma = lognormal_sum_approx([l.mu for l in links], [l.sigma for l in links])
        return RssDistribution(DistributionKind.SINGLE_GAUSSIAN, (LinkStat(mu, sigma),))
    if sc.selection is SelectionRule.MEAN_PATHLOSS:
        best = max(links, key=lambda l: l.mu)
        return RssDistribution(DistributionKind.SINGLE_GAUSSIAN, (best,))
    return RssDistribution(DistributionKind.MAX_OF_GAUSSIANS, links)


def trigger_pair(sc: Scenario, front_x: float, antenna: AntennaId) -> tuple[LinkStat, LinkStat]:
    """The (serving, target) Gaussian comparands of the handover rule.

    Under RAU selection, handover compares the serving cell's last RAU
    against the target cell's first RAU (the links that face each other
    across the cell boundary, and the RAU the target powers during a
    handover). Blanket and traditional schemes compare their per-cell
    RSS variables directly.
    """
    if sc.scheme in SELECTION_SCHEMES:
        serving = link_stat(sc, front_x, sc.n_raus, antenna, CellId.SERVING)
        target = link_stat(sc, front_x, 1, antenna, CellId.TARGET)
        return serving, target
    serving_dist = rss_distribution(sc, front_x, antenna, CellId.SERVING)
    target_dist = rss_distribution(sc, front_x, antenna, CellId.TARGET)
    return serving_dist.components[0], target_dist.components[0]


# === The link table read back as scalar objects ===


def table_components(table: channel.LinkTable, j: int, a: int, c: int) -> tuple[LinkStat, ...]:
    """The components of the cell RSS the table holds at position index j,
    antenna a, cell c: every column, or the mean-pathloss pick."""
    if table.cell_column is None:
        columns = range(table.mu.shape[-1])
    else:
        columns = (int(table.cell_column[j, a, c]),)
    return tuple(LinkStat(float(table.mu[j, a, c, n]), float(table.sigma[j, a, c, n]))
                 for n in columns)


def table_distribution(table: channel.LinkTable, j: int, a: int, c: int) -> RssDistribution:
    """table_components as a distribution (a max unless it has one component)."""
    comps = table_components(table, j, a, c)
    kind = (DistributionKind.MAX_OF_GAUSSIANS if len(comps) > 1
            else DistributionKind.SINGLE_GAUSSIAN)
    return RssDistribution(kind, comps)


def table_trigger_pair(table: channel.LinkTable, j: int, a: int) -> tuple[LinkStat, LinkStat]:
    """The (serving, target) comparands the table holds at position index j, antenna a."""
    (s, t) = table.trigger_column
    return (LinkStat(float(table.mu[j, a, 0, s]), float(table.sigma[j, a, 0, s])),
            LinkStat(float(table.mu[j, a, 1, t]), float(table.sigma[j, a, 1, t])))


# === Distribution evaluations ===


def cdf(dist: RssDistribution, r: float) -> float:
    """P(RSS <= r): product of the per-component Gaussian CDFs."""
    out = 1.0
    for c in dist.components:
        out *= float(ndtr((r - c.mu) / c.sigma))
    return out


def distribution_mean(dist: RssDistribution) -> float:
    """Mean RSS in dBm; one-row `channel.max_means` for a max, exact otherwise."""
    comps = dist.components
    if len(comps) == 1:
        return comps[0].mu
    stats = np.array([[c.mu for c in comps], [c.sigma for c in comps]])
    return float(channel.max_means(stats[:1], stats[1:], lambda r: "cell mean")[0])


# === Metrics at one position ===


class UndefinedConditionalError(ValueError):
    """Raised when a conditional metric's conditioning probability is ~ 0."""


def _check_antenna(sc: Scenario, antenna: AntennaId) -> None:
    if antenna not in sc.antennas():
        raise ValueError(f"scheme {sc.scheme.value} has no {antenna.name.lower()} antenna")


def trigger_prob_closed_form(serving: LinkStat, target: LinkStat, hysteresis: float) -> float:
    """P(target RSS - serving RSS > hysteresis) for one Gaussian pair."""
    gap = np.hypot(serving.sigma, target.sigma)
    margin = target.mu - serving.mu
    return float(ndtr(-((hysteresis - margin) / gap)))


def trigger_prob(sc: Scenario, front_x: float, antenna: AntennaId = AntennaId.FRONT) -> float:
    """Probability that the handover rule fires at this position."""
    _check_antenna(sc, antenna)
    return trigger_prob_closed_form(*trigger_pair(sc, front_x, antenna), sc.hysteresis)


def failure_prob(sc: Scenario, front_x: float,
                 mode: MetricMode = MetricMode.REDERIVED) -> float:
    """The front antenna's conditional failure probability, its (serving,
    target) pair integrated alone: `analytics._failure_rows` on a batch of
    one row.

    Raises UndefinedConditionalError when the trigger probability is
    below TRIGGER_FLOOR.
    """
    serving, target = trigger_pair(sc, front_x, AntennaId.FRONT)
    row = np.array([[serving.mu, serving.sigma, target.mu, target.sigma,
                     sc.hysteresis, sc.threshold]])
    value = analytics._failure_rows(row, mode, (front_x,))[0]
    if math.isnan(value):
        raise UndefinedConditionalError(
            f"trigger probability {trigger_prob(sc, front_x):.3g} at "
            f"x={front_x:.6g} is below {TRIGGER_FLOOR:.0e}; conditional failure undefined")
    return float(value)


def interruption_prob_antenna(sc: Scenario, front_x: float, antenna: AntennaId,
                              mode: MetricMode = MetricMode.REDERIVED) -> float:
    """P(one antenna's RSS from every cell is below the usable threshold).

    REDERIVED multiplies the per-cell below-threshold probabilities;
    PAPER takes their minimum.
    """
    _check_antenna(sc, antenna)
    below = [cdf(rss_distribution(sc, front_x, antenna, cell), sc.threshold)
             for cell in channel.CELLS]
    return below[0] * below[1] if mode is MetricMode.REDERIVED else min(below)


def interruption_prob(sc: Scenario, front_x: float,
                      mode: MetricMode = MetricMode.REDERIVED) -> float:
    """Communication interruption: every active antenna below threshold."""
    return math.prod(interruption_prob_antenna(sc, front_x, antenna, mode)
                     for antenna in sc.antennas())
