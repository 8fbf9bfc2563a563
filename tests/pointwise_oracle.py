"""Reference pointwise sweep, one (antenna, cell) draw at a time, used by tests only.

`pointwise_sweep` walks every position on the same keyed substream as
`estimate_pointwise`, but draws each (antenna, cell) block of shadowing
on its own, `standard_normal((trials, components))`, front antenna
first, serving cell first, and scores it with scalar binomial and mean
rows: the route the array sweep is checked against. Both must agree
bit for bit, NaN included.
"""

from __future__ import annotations

import math

import numpy as np

from railhandover import channel
from railhandover.analytics import PositionGrid
from railhandover.montecarlo import DOMAIN_POINTWISE, Estimate, PointwiseEstimate, SeedPolicy
from railhandover.scenario import Scenario


def _binomial_hw(p: float, n: int) -> float:
    if n < 1:
        return math.nan
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _mean_hw(samples: np.ndarray) -> float:
    n = samples.size
    if n < 2:
        return math.nan
    return 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(n)


def _sample(table: channel.LinkTable, j: int, a: int, c: int, rng: np.random.Generator,
            n: int) -> tuple[np.ndarray, np.ndarray]:
    """n draws of the links of antenna a, cell c at position j: cell RSS and trigger comparand."""
    rss = table.mu[j, a, c] + table.sigma[j, a, c] * rng.standard_normal(
        (n, table.mu.shape[-1]))
    if table.cell_column is None:
        cell = np.max(rss, axis=1)
    else:
        cell = rss[np.arange(n), table.cell_column[j, a, c]]
    return cell, rss[:, table.trigger_column[c]]


def _binomial_row(p: float, base: int) -> tuple[float, float, int]:
    return (p, _binomial_hw(p, base), base) if base else (math.nan, math.nan, 0)


def _estimate(rows: list) -> Estimate:
    """Rows of (value, half-width, base) per position, or per position and
    column, as arrays."""
    value, hw, base = np.moveaxis(np.array(rows, dtype=object), -1, 0)
    return Estimate(value.astype(float), hw.astype(float), base.astype(np.int64))


def pointwise_sweep(sc: Scenario, grid: PositionGrid, trials: int, seed: SeedPolicy,
                    better: np.ndarray | None = None) -> PointwiseEstimate:
    """What estimate_pointwise returns for sc and its better-cell flags,
    computed one scalar row at a time."""
    table = channel.link_table(sc, grid)
    fields: dict[str, list] = {"trigger": [], "failure": [], "interruption": [], "rss": []}
    for j in range(len(grid.positions)):
        rng = seed.stream(DOMAIN_POINTWISE, j)
        draws = [[_sample(table, j, a, c, rng, trials) for c in range(len(channel.CELLS))]
                 for a in range(len(table.antennas))]
        (_, trig_s), (_, trig_t) = draws[0]
        fired = trig_t - trig_s > sc.hysteresis
        fields["trigger"].append(_binomial_row(float(np.mean(fired)), trials))
        base = int(np.count_nonzero(fired))
        failed = float(np.count_nonzero(fired & (trig_t < sc.threshold)))
        fields["failure"].append(_binomial_row(failed / base if base else math.nan, base))
        all_below = np.ones(trials, dtype=bool)
        for (serving, _), (target, _) in draws:
            all_below &= np.maximum(serving, target) < sc.threshold
        fields["interruption"].append(_binomial_row(float(np.mean(all_below)), trials))
        if better is not None:
            best = [draws[a][int(better[j, a])][0] for a in range(len(draws))]
            if len(best) == 2:
                linear = sum(np.power(10.0, s / 10.0) for s in best)
                best[1] = 10.0 * np.log10(linear)
            fields["rss"].append([(float(np.mean(s)), _mean_hw(s), trials) for s in best])
    return PointwiseEstimate(*(_estimate(fields[name]) if fields[name] else None
                               for name in PointwiseEstimate._fields))


def assert_sweeps_equal(got: PointwiseEstimate, want: PointwiseEstimate) -> None:
    """Every value, half-width and base count equal bit for bit (NaN equal to
    NaN)."""
    for name in PointwiseEstimate._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        for field, x, y in zip(Estimate._fields, a or (), b or ()):
            assert x.shape == y.shape and x.dtype.kind == y.dtype.kind, (name, field)
            nan = np.isnan(y.astype(float))
            assert (np.isnan(x.astype(float)) == nan).all(), (name, field)
            assert x[~nan].astype(y.dtype).tobytes() == y[~nan].tobytes(), (name, field)
