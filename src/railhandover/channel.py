"""Received-signal-strength models for each transmission scheme.

A link's RSS in dBm is transmit power minus log-distance path loss minus
a zero-mean Gaussian shadow-fading term; shadowing draws are independent
across links, cells, antennas and measurement positions. Per scheme a
train antenna sees one RSS random variable per cell:

* PROPOSED / DAS_SINGLE: the cell powers its best RAU, so the cell RSS
  is the maximum of the per-RAU Gaussians (full power each).
* DAS_BLANKET: every RAU transmits at tx_power / n_raus; the cell RSS is
  the dB value of the linear power sum, approximated by a single
  Gaussian through linear-domain moment matching.
* TRADITIONAL: a single base-station link at full power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.special import ndtr

from .scenario import (
    SELECTION_SCHEMES,
    AntennaId,
    CellId,
    Scenario,
    Scheme,
    SelectionRule,
    antenna_x,
    bs_position,
    link_distance,
    rau_positions,
)
from .statfun import STEP_SCALE, integrate_rows, lognormal_sum_approx, std_normal_cdf

if TYPE_CHECKING:
    from .analytics import PositionGrid

# Cell order along the table's cell axis.
CELLS = (CellId.SERVING, CellId.TARGET)

# initial intervals of a mean integral, as the rule would bisect [-10, 10]
_MEAN_EDGES = (-10.0, -5.0, -2.5, 0.0, 2.5, 5.0, 10.0)

# The target cell counts as the better one only when its mean RSS beats
# the serving cell's by more than this (dB); exact ties stay on SERVING.
BETTER_CELL_MARGIN = 1e-9


def path_loss(sc: Scenario, distance: float) -> float:
    """Log-distance path loss in dB at the given link distance in meters."""
    if not (distance > 0.0):
        raise ValueError(f"path loss requires distance > 0, got {distance!r}")
    return sc.pathloss_a + 10.0 * sc.pathloss_gamma * math.log10(distance)


def per_rau_power(sc: Scenario) -> float:
    """Transmit power per RAU in dBm under the scenario's scheme."""
    if sc.scheme is Scheme.DAS_BLANKET:
        return sc.tx_power - 10.0 * math.log10(sc.n_raus)
    return sc.tx_power


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
    return LinkStat(per_rau_power(sc) - path_loss(sc, d), sc.rau_sigma(rau_index))


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


# === Distribution evaluations ===


def cdf(dist: RssDistribution, r: float) -> float:
    """P(RSS <= r): product of the per-component Gaussian CDFs."""
    out = 1.0
    for c in dist.components:
        out *= std_normal_cdf((r - c.mu) / c.sigma)
    return out


def distribution_mean(dist: RssDistribution) -> float:
    """Mean RSS in dBm; numeric for the max distribution, exact otherwise."""
    comps = dist.components
    if len(comps) == 1:
        return comps[0].mu
    stats = np.array([[c.mu for c in comps], [c.sigma for c in comps]])
    return float(max_means(stats[:1], stats[1:], lambda r: "cell mean")[0])


def max_means(mu: np.ndarray, sigma: np.ndarray, where: Callable[[int], str]) -> np.ndarray:
    """E[max] of each row of independent Gaussians (mu, sigma of shape (rows, n)).

    E[max] = sum_n integral over z in [-10, 10] of (mu_n + sigma_n z) phi(z)
    prod_{j != n} Phi((mu_n - mu_j)/sigma_j + (sigma_n/sigma_j) z), z being
    component n's standardized draw. Unlike an integral over r, this keeps
    unit width and loses no digits to r - mu_j even at sigma = 1e-9.
    """
    n = mu.shape[1]
    others = ~np.eye(n, dtype=bool)  # the components j != n of each n, in order
    with np.errstate(over="ignore"):
        offset = ((mu[:, :, None] - mu[:, None, :]) / sigma[:, None, :])[:, others]
        scale = (sigma[:, :, None] / sigma[:, None, :])[:, others]
    # a finite bound keeps every CDF argument offset + scale * z, |z| <= 10, finite
    if not np.isfinite(np.abs(offset) + 10.0 * np.abs(scale)).all():
        raise ValueError("distribution_mean requires finite normal CDF arguments; "
                         "the component sigmas are too small for their mean gaps")
    # the standard partition, and an edge wherever another component's CDF
    # rises as a step (else a repeat of -10)
    steps = -offset / scale
    edges = np.sort(np.hstack((np.where((scale > STEP_SCALE) & (np.abs(steps) < 10.0),
                                        steps, -10.0), np.tile(_MEAN_EDGES, (len(mu), 1)))), 1)
    offset, scale = offset.reshape(len(mu), n, n - 1), scale.reshape(len(mu), n, n - 1)

    def integrand(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
        z3, o, s = z[:, :, None], offset[rows], scale[rows]
        terms = mu[rows] + sigma[rows] * z3
        for j in range(n - 1):
            terms = terms * ndtr(o[:, :, j] + s[:, :, j] * z3)
        total = terms[..., 0]
        for k in range(1, n):
            total = total + terms[..., k]
        return total * (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))

    return integrate_rows(integrand, edges, where)


# === Link table ===


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Link statistics of one scheme at every position of one grid.

    mu and sigma have shape (positions, antennas, cells, components):
    one component per RAU under RAU selection, else the cell's single
    Gaussian. Antennas follow `antennas`, cells follow CELLS. A cell's
    RSS is the maximum over its components, or under mean-pathloss
    selection the component cell_column[position, antenna, cell] (the
    best mean link). The handover rule compares component
    trigger_column[cell] of each cell: the facing boundary RAUs under
    RAU selection, the cell RSS otherwise.
    """

    antennas: tuple[AntennaId, ...]
    kind: DistributionKind
    mu: np.ndarray
    sigma: np.ndarray
    cell_column: np.ndarray | None
    trigger_column: tuple[int, int]

    def cell_distribution(self, j: int, a: int, c: int) -> RssDistribution:
        """The cell RSS distribution at position index j, antenna a, cell c."""
        if self.cell_column is None:
            columns = range(self.mu.shape[-1])
        else:
            columns = (int(self.cell_column[j, a, c]),)
        return RssDistribution(self.kind, tuple(self._stat(j, a, c, n) for n in columns))

    def trigger_pair(self, j: int, a: int) -> tuple[LinkStat, LinkStat]:
        """The (serving, target) comparands at position index j, antenna a."""
        return self._stat(j, a, 0, self.trigger_column[0]), \
            self._stat(j, a, 1, self.trigger_column[1])

    def _stat(self, j: int, a: int, c: int, n: int) -> LinkStat:
        return LinkStat(float(self.mu[j, a, c, n]), float(self.sigma[j, a, c, n]))

    def sample(self, rows: slice, a: int, c: int, rng: np.random.Generator,
               n: int) -> tuple[np.ndarray, np.ndarray]:
        """n shadowed draws of every link of antenna a, cell c at the grid rows.

        rows selects either one position (its links broadcast over n
        trials) or n positions (one draw each). Returns the cell RSS and
        the trigger comparand, both of length n, from the same draws.
        """
        rss = self.mu[rows, a, c] + self.sigma[rows, a, c] * rng.standard_normal(
            (n, self.mu.shape[-1]))
        if self.cell_column is None:
            # a running maximum over the few components beats np.max along a short axis
            cell = rss[:, 0].copy()
            for k in range(1, rss.shape[1]):
                np.maximum(cell, rss[:, k], out=cell)
        else:
            cell = rss[np.arange(n), self.cell_column[rows, a, c]]
        return cell, rss[:, self.trigger_column[c]]


@lru_cache(maxsize=32)
def link_table(sc: Scenario, grid: "PositionGrid") -> LinkTable:
    """The scenario's link statistics over the grid, built once per pair.

    Every value comes from link_stat / rss_distribution, so the table
    matches the scalar path bitwise.
    """
    selection = sc.scheme in SELECTION_SCHEMES

    def links(x: float, antenna: AntennaId, cell: CellId) -> tuple[LinkStat, ...]:
        if selection:
            return tuple(link_stat(sc, x, n, antenna, cell)
                         for n in range(1, sc.n_raus + 1))
        return rss_distribution(sc, x, antenna, cell).components

    stats = np.array([[[[(l.mu, l.sigma) for l in links(x, antenna, cell)] for cell in CELLS]
                       for antenna in sc.antennas()] for x in grid.positions])
    mu, sigma = _frozen(stats[..., 0]), _frozen(stats[..., 1])
    picky = selection and sc.selection is SelectionRule.MEAN_PATHLOSS
    kind = (DistributionKind.MAX_OF_GAUSSIANS if selection and not picky
            else DistributionKind.SINGLE_GAUSSIAN)
    return LinkTable(
        antennas=sc.antennas(), kind=kind, mu=mu, sigma=sigma,
        cell_column=_frozen(np.argmax(mu, axis=-1)) if picky else None,
        trigger_column=(sc.n_raus - 1, 0) if selection else (0, 0))


@lru_cache(maxsize=32)
def cell_means(sc: Scenario, grid: "PositionGrid") -> tuple[np.ndarray, np.ndarray]:
    """Mean RSS of every cell distribution of the link table, and the better cell.

    Returns the means, shape (positions, antennas, cells), and a boolean
    array of shape (positions, antennas) that is True where the target
    cell's mean exceeds the serving cell's by more than BETTER_CELL_MARGIN.
    The distinct max-of-Gaussians rows are integrated in one batch.
    """
    table = link_table(sc, grid)
    shape, n = table.mu.shape[:3], table.mu.shape[3]
    if table.cell_column is not None:
        means = np.take_along_axis(table.mu, table.cell_column[..., None], axis=-1)[..., 0]
    elif n == 1:
        means = table.mu[..., 0].copy()
    else:
        stats = np.concatenate((table.mu, table.sigma), axis=-1).reshape(-1, 2 * n)
        distinct, first, inverse = np.unique(stats, axis=0, return_index=True,
                                             return_inverse=True)

        def where(r: int) -> str:
            j, a, c = np.unravel_index(first[r], shape)
            return (f"cell mean of {sc.scheme.value} at x={grid.positions[j]:g} m "
                    f"({table.antennas[a].name.lower()} antenna, "
                    f"{CELLS[c].name.lower()} cell)")

        means = max_means(distinct[:, :n], distinct[:, n:], where)[inverse.reshape(shape)]
    target_better = means[..., 1] - means[..., 0] > BETTER_CELL_MARGIN
    return _frozen(means), _frozen(target_better)
