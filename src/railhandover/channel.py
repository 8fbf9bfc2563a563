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

`link_table` is the one producer of these statistics: it forms every
link of a grid at once, as arrays, from the `Scenario` fields, with the
scalar `math.hypot` and `math.log10` kernels applied elementwise, and every
analytic curve, Monte Carlo sweep and protocol run reads its (mu, sigma) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import statfun
from .scenario import (
    SELECTION_SCHEMES,
    AntennaId,
    CellId,
    PositionGrid,
    Scenario,
    Scheme,
    SelectionRule,
)
from .statfun import STEP_SCALE, integrate_rows, lognormal_sum_approx

# the scalar math.hypot and math.log10 kernels of link_table's distance and
# path loss, elementwise: numpy's own hypot and log10 differ from math's in the last bit
_hypot = np.vectorize(math.hypot, otypes=[float])
_log10 = np.vectorize(math.log10, otypes=[float])

# Cell order along the table's cell axis.
CELLS = (CellId.SERVING, CellId.TARGET)

# initial intervals of a mean integral, as the rule would bisect [-10, 10]
_MEAN_EDGES = (-10.0, -5.0, -2.5, 0.0, 2.5, 5.0, 10.0)

# The target cell counts as the better one only when its mean RSS beats
# the serving cell's by more than this (dB); exact ties stay on SERVING.
BETTER_CELL_MARGIN = 1e-9

# dB values at or above this have a normal float power 10^(x/10)
_POWER_SUM_FLOOR = -3000.0


def power_sum_db(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """10 log10(10^(a/10) + 10^(b/10)) elementwise: the plain form where its sum is
    finite and a, b >= _POWER_SUM_FLOOR dB, else (a power overflows, is subnormal
    or is 0) the larger term factored out. NaN propagates."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total = 10.0 * np.log10(np.power(10.0, a / 10.0) + np.power(10.0, b / 10.0))
        plain = np.isfinite(total) & (np.minimum(a, b) >= _POWER_SUM_FLOOR)
        if plain.all():
            return total
        return np.where(plain, total, np.maximum(a, b)
                        + 10.0 * np.log10(1.0 + 10.0 ** (-np.abs(a - b) / 10.0)))


def max_means(mu: np.ndarray, sigma: np.ndarray, where: Callable[[int], str]) -> np.ndarray:
    """E[max] of each row of independent Gaussians (mu, sigma of shape (rows, n)).

    E[max] = sum_n integral over z in [-10, 10] of (mu_n + sigma_n z) phi(z)
    prod_{j != n} Phi((mu_n - mu_j)/sigma_j + (sigma_n/sigma_j) z), z being
    component n's standardized draw. Unlike an integral over r, this keeps
    unit width and loses no digits to r - mu_j even at sigma = 1e-9. Each
    row's (mu, sigma) pairs are sorted, as E[max] does not depend on their
    order, and each distinct sorted row is integrated once; where(i) names
    input row i.
    """
    order = np.lexsort((sigma, mu), axis=1)
    key = np.hstack([np.take_along_axis(a, order, axis=1) for a in (mu, sigma)])
    key, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    mu, sigma = np.hsplit(key, 2)
    n = mu.shape[1]
    others = ~np.eye(n, dtype=bool)  # the components j != n of each n, in order
    with np.errstate(over="ignore"):
        offset = ((mu[:, :, None] - mu[:, None, :]) / sigma[:, None, :])[:, others]
        scale = (sigma[:, :, None] / sigma[:, None, :])[:, others]
    # a finite bound keeps every CDF argument offset + scale * z, |z| <= 10, finite
    finite = np.isfinite(np.abs(offset) + 10.0 * np.abs(scale)).all(axis=1)
    if not finite.all():
        raise ValueError(f"{where(int(first[~finite].min()))}: the normal CDF arguments "
                         "are not finite; the component sigmas are too small for their mean gaps")
    # the standard partition, and an edge wherever another component's CDF
    # rises as a step (else a repeat of -10)
    steps = -offset / scale
    edges = np.sort(np.hstack((np.where((scale > STEP_SCALE) & (np.abs(steps) < 10.0),
                                        steps, -10.0), np.tile(_MEAN_EDGES, (len(mu), 1)))), 1)
    offset, scale = offset.reshape(len(mu), n, n - 1), scale.reshape(len(mu), n, n - 1)

    def integrand(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # n elements a node in each (nodes, intervals, n) temporary; columns computed alone
        z3, o, s = z[:, :, None], offset[rows], scale[rows]
        terms = mu[rows] + sigma[rows] * z3
        for j in range(n - 1):
            terms = terms * statfun.ndtr(o[:, :, j] + s[:, :, j] * z3)
        total = terms[..., 0]
        for k in range(1, n):
            total = total + terms[..., k]
        return total * (np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))

    return integrate_rows(integrand, edges, lambda r: where(int(first[r])), n)[inverse.ravel()]


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

    def comparands(self) -> tuple[np.ndarray, ...]:
        """Serving mu, sigma, target mu, sigma of the front antenna's trigger rule per position."""
        s, t = self.trigger_column
        return (self.mu[:, 0, 0, s], self.sigma[:, 0, 0, s],
                self.mu[:, 0, 1, t], self.sigma[:, 0, 1, t])

    def shadowed(self, z: np.ndarray,
                 rows: slice) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Shadow standard normals z into link RSS at the grid rows; z may be overwritten.

        z has shape (..., antennas, cells, n, components). rows selects
        either one position, slice(j, j + 1), whose links broadcast over
        n trials, or every position, slice(None), one draw each. Returns
        the cell RSS, of shape (..., antennas, cells, n), and the serving
        and target trigger comparands, views of shape (..., antennas, n),
        all from the same draws.
        """
        # (antennas, cells, positions, components)
        mu, sigma = (a[rows].transpose(1, 2, 0, 3) for a in (self.mu, self.sigma))
        # contiguous operands and, for one position of several components, f of
        # its trials folded into the component axis, so that numpy's inner loop
        # runs over f * k values or every position's, not over the k components
        k = mu.shape[3]
        f = math.gcd(z.shape[-2], 64) if mu.shape[2] == 1 and k > 1 else 1
        folded = z.reshape(z.shape[:-2] + (-1, f * k))
        folded *= _folded(sigma, f)
        folded += _folded(mu, f)
        z = folded.reshape(z.shape)
        if self.cell_column is None:
            # a running maximum over the few components beats np.max along a short axis
            cell = z[..., 0].copy()
            for n in range(1, k):
                np.maximum(cell, z[..., n], out=cell)
        else:
            column = self.cell_column[rows].transpose(1, 2, 0)[..., np.newaxis]
            cell = np.take_along_axis(z, np.broadcast_to(column, z.shape[:-1] + (1,)),
                                      axis=-1)[..., 0]
        serving, target = self.trigger_column
        return cell, (z[..., 0, :, serving], z[..., 1, :, target])


def _folded(a: np.ndarray, f: int) -> np.ndarray:
    """a, of shape (antennas, cells, positions, k), as a contiguous array
    with each position's k values repeated f times along the last axis."""
    out = np.empty(a.shape[:3] + (f, a.shape[3]))
    out[...] = a[..., np.newaxis, :]
    return out.reshape(a.shape[:3] + (-1,))


@lru_cache(maxsize=32)
def link_table(sc: Scenario, grid: PositionGrid) -> LinkTable:
    """The scenario's link statistics over the grid, built once per pair.

    Base stations stand at 0 and ds along the track, RAU n of a cell at
    (n - (n_raus+1)/2) * dr from its own, the rear antenna train_length behind.
    A unit's link mean is its power minus pathloss_a + 10 pathloss_gamma log10(distance)
    and its sigma its shadow_sigma_per_rau entry, else shadow_sigma.

    Raises ValueError naming the first bad link in (position, antenna,
    cell) order: a zero distance, else a unit link mean or blanket sum
    that is not finite (the sum's moment match overflows for shadow
    sigmas of about 90 dB and more, and the message then names the
    sigma key), else a sigma that is not > 0 (a blanket sum's
    moment-matched sigma underflows for shadow sigmas below about 1e-155).
    """
    antennas = sc.antennas()
    if sc.scheme is Scheme.TRADITIONAL:
        along, offset, sigmas = np.zeros(1), sc.d0, [sc.shadow_sigma]
    else:
        along = (np.arange(1, sc.n_raus + 1) - (sc.n_raus + 1) / 2.0) * sc.dr
        offset, sigmas = sc.du, sc.shadow_sigma_per_rau or [sc.shadow_sigma]
    power = (sc.tx_power - 10.0 * math.log10(sc.n_raus) if sc.scheme is Scheme.DAS_BLANKET
             else sc.tx_power)
    at = grid.as_array()[:, np.newaxis] - [0.0, sc.train_length][:len(antennas)]
    # shape (positions, antennas, cells, units)
    distance = _hypot(along + [[0.0], [sc.ds]] - at[:, :, np.newaxis, np.newaxis], offset)
    near = ~(distance > 0.0)
    with np.errstate(all="ignore"):  # a link beyond the float range is named below
        unit_mu = power - (sc.pathloss_a
                           + 10.0 * sc.pathloss_gamma * _log10(np.where(near, 1.0, distance)))
        mu, sigma = unit_mu, np.broadcast_to(sigmas, unit_mu.shape).copy()
        if sc.scheme is Scheme.DAS_BLANKET:
            mu, sigma = (a[..., np.newaxis] for a in lognormal_sum_approx(
                np.where(np.isfinite(unit_mu), unit_mu, 0.0), sigma))
    checks = ((near, distance, "link distance {:g} m {}: path loss requires distance > 0"),
              (~np.isfinite(unit_mu), unit_mu, "link mean {} {} is not finite"),
              (~np.isfinite(mu), mu, "link mean {} {} is not finite"),
              (~(sigma > 0.0), sigma,
               "link sigma {:g} dB {} is not > 0: its normal CDF arguments are not finite"))
    bad = np.any([flags.any(axis=-1) for flags, _, _ in checks], axis=0)
    if bad.any():
        j, a, c = np.unravel_index(np.argmax(bad), bad.shape)
        flags, values, text = check = next(ch for ch in checks if ch[0][j, a, c].any())
        message = text.format(
            float(values[j, a, c][np.argmax(flags[j, a, c])]),
            f"of {sc.scheme.value} at x={grid.positions[j]:g} m "
            f"({antennas[a].name.lower()} antenna, {CELLS[c].name.lower()} cell)")
        units = unit_mu[j, a, c]
        # a blanket sum that is finite without fading overflows by its sigmas
        with np.errstate(all="ignore"):
            if check is checks[2] and np.isfinite(lognormal_sum_approx(units, 0.0 * units)).all():
                key = "shadow_sigma_per_rau" if sc.shadow_sigma_per_rau else "shadow_sigma"
                message += (f": the blanket power sum's moment match overflows at {key} = "
                            + ",".join(f"{s:g}" for s in np.atleast_1d(getattr(sc, key))))
        raise ValueError(message)
    selection = sc.scheme in SELECTION_SCHEMES
    picky = selection and sc.selection is SelectionRule.MEAN_PATHLOSS
    return LinkTable(
        antennas=antennas, mu=_frozen(mu), sigma=_frozen(sigma),
        cell_column=_frozen(np.argmax(mu, axis=-1)) if picky else None,
        trigger_column=(sc.n_raus - 1, 0) if selection else (0, 0))


def cell_means(scs: tuple[Scenario, ...],
               grid: PositionGrid) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Mean RSS of every cell distribution of each scenario's link table, and the better cell.

    Returns, per scenario, the means, shape (positions, antennas, cells),
    and a boolean array of shape (positions, antennas) that is True where
    the target cell's mean exceeds the serving cell's by more than
    BETTER_CELL_MARGIN. All the scenarios' max-of-Gaussians rows go to
    max_means in one batch per component count, which integrates a row two
    scenarios share, or its mirror image at the mirrored position, once.
    """
    tables = [link_table(sc, grid) for sc in scs]
    parts = [t.cell_components() for t in tables]
    means = [mu[..., 0].copy() for mu, _ in parts]  # single Gaussians: their mu
    for n in sorted({mu.shape[3] for mu, _ in parts} - {1}):
        ks = [k for k, (mu, _) in enumerate(parts) if mu.shape[3] == n]
        ends = np.cumsum([means[k].size for k in ks])

        def where(i: int) -> str:
            m = int(np.searchsorted(ends, i, side="right"))
            k = ks[m]
            j, a, c = np.unravel_index(i - ends[m] + means[k].size, means[k].shape)
            return (f"cell mean of {scs[k].scheme.value} at x={grid.positions[j]:g} m "
                    f"({tables[k].antennas[a].name.lower()} antenna, "
                    f"{CELLS[c].name.lower()} cell)")

        values = max_means(*(np.concatenate([parts[k][i].reshape(-1, n) for k in ks])
                             for i in (0, 1)), where)
        for k, part in zip(ks, np.split(values, ends[:-1])):
            means[k] = part.reshape(means[k].shape)
    return tuple((_frozen(m), _frozen(m[..., 1] - m[..., 0] > BETTER_CELL_MARGIN))
                 for m in means)
