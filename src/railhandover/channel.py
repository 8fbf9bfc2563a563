"""Link statistics of each transmission scheme, as one array table per grid.

A link's RSS in dBm is transmit power minus log-distance path loss minus
a zero-mean Gaussian shadow-fading term; shadowing draws are independent
across links, cells, antennas and measurement positions. Per scheme a
train antenna sees one RSS random variable per cell:

* PROPOSED / DAS_SINGLE: the cell powers its best RAU, so the cell RSS
  is the maximum of the per-RAU Gaussians (full power each), or under
  mean-pathloss selection the RAU link with the best mean.
* DAS_BLANKET: every RAU transmits at tx_power / n_raus; the cell RSS is
  the dB value of the linear power sum, approximated by a single
  Gaussian through linear-domain moment matching.
* TRADITIONAL: a single base-station link at full power.

`link_table` is the one producer of these statistics: it evaluates every
link of a grid with the scalar `math` arithmetic of `path_loss` and
`link_distance` and stacks the (mu, sigma) pairs into arrays that every
analytic curve, Monte Carlo sweep and protocol run reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .statfun import STEP_SCALE, integrate_rows, lognormal_sum_approx

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
    finite = np.isfinite(np.abs(offset) + 10.0 * np.abs(scale)).all(axis=1)
    if not finite.all():
        raise ValueError(f"{where(int(np.argmin(finite)))}: the normal CDF arguments are not "
                         "finite; the component sigmas are too small for their mean gaps")
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
    mu: np.ndarray
    sigma: np.ndarray
    cell_column: np.ndarray | None
    trigger_column: tuple[int, int]

    def cell_components(self) -> tuple[np.ndarray, np.ndarray]:
        """mu and sigma of the components whose maximum is each cell's RSS."""
        if self.cell_column is None:
            return self.mu, self.sigma
        pick = self.cell_column[..., None]
        return (np.take_along_axis(self.mu, pick, axis=-1),
                np.take_along_axis(self.sigma, pick, axis=-1))

    def shadowed(self, z: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """Shadow standard normals z into link RSS, in place, at the grid rows.

        z has shape (..., antennas, cells, n, components). rows selects
        either one position, slice(j, j + 1), whose links broadcast over
        n trials, or every position, slice(None), one draw each. Returns
        the cell RSS and the trigger comparands, both of shape
        (..., antennas, cells, n), from the same draws.
        """
        mu, sigma = (np.moveaxis(a[rows], 0, 2) for a in (self.mu, self.sigma))
        z *= sigma
        z += mu
        if self.cell_column is None:
            # a running maximum over the few components beats np.max along a short axis
            cell = z[..., 0].copy()
            for k in range(1, z.shape[-1]):
                np.maximum(cell, z[..., k], out=cell)
        else:
            column = np.moveaxis(self.cell_column[rows], 0, 2)[..., np.newaxis]
            cell = np.take_along_axis(z, np.broadcast_to(column, z.shape[:-1] + (1,)),
                                      axis=-1)[..., 0]
        trig = np.stack([z[..., c, :, k] for c, k in enumerate(self.trigger_column)], axis=-2)
        return cell, trig


def _links(sc: Scenario, x: float, antenna: AntennaId, cell: CellId) -> list[tuple[float, float]]:
    """(mu, sigma) of each table component of one cell at front position x.

    Under RAU selection these are the per-RAU links; blanket cells sum
    them into one Gaussian, traditional cells have the one base-station
    link. Raises ValueError naming the link when a distance is zero or a
    mean is not finite.
    """
    def link() -> str:
        return (f"of {sc.scheme.value} at x={x:g} m ({antenna.name.lower()} antenna, "
                f"{cell.name.lower()} cell)")

    def loss(d: float) -> float:
        if not d > 0.0:
            raise ValueError(f"link distance {d:g} m {link()}: path loss requires distance > 0")
        return path_loss(sc, d)

    def checked(links: list[tuple[float, float]]) -> list[tuple[float, float]]:
        for mu, _ in links:
            if not math.isfinite(mu):
                raise ValueError(f"link mean {mu} {link()} is not finite")
        return links

    at = antenna_x(sc, x, antenna)
    if sc.scheme is Scheme.TRADITIONAL:
        d = link_distance(at, bs_position(sc, cell))
        return checked([(sc.tx_power - loss(d), sc.shadow_sigma)])
    power = per_rau_power(sc)
    links = checked([(power - loss(link_distance(at, node)), sc.rau_sigma(n))
                     for n, node in enumerate(rau_positions(sc, cell), 1)])
    if sc.scheme is Scheme.DAS_BLANKET:
        with np.errstate(all="ignore"):  # a sum beyond the float range is named by checked
            return checked([lognormal_sum_approx(*zip(*links))])
    return links


@lru_cache(maxsize=32)
def link_table(sc: Scenario, grid: "PositionGrid") -> LinkTable:
    """The scenario's link statistics over the grid, built once per pair."""
    stats = np.array([[[_links(sc, x, antenna, cell) for cell in CELLS]
                       for antenna in sc.antennas()] for x in grid.positions])
    mu, sigma = _frozen(stats[..., 0]), _frozen(stats[..., 1])
    selection = sc.scheme in SELECTION_SCHEMES
    picky = selection and sc.selection is SelectionRule.MEAN_PATHLOSS
    return LinkTable(
        antennas=sc.antennas(), mu=mu, sigma=sigma,
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
    mu, sigma = table.cell_components()
    shape, n = mu.shape[:3], mu.shape[3]
    if n == 1:
        means = mu[..., 0].copy()
    else:
        stats = np.concatenate((mu, sigma), axis=-1).reshape(-1, 2 * n)
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
