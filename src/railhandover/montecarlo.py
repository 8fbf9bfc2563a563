"""Monte Carlo estimators mirroring the closed-form metrics.

Randomness is organized as keyed substreams derived from one master
seed: every (domain, index...) key maps to its own SeedSequence-spawned
generator, so estimates are bitwise reproducible for a given master
seed regardless of how the sweep is parallelized or in what order
positions execute. Reductions run in index order. The pointwise and
first-crossing keys name no scheme, so the two sweeps take every
scenario of a run at once: each substream is drawn once and each
scenario reads its prefix, the values it would draw alone, and a
scenario whose links repeat another's reads that one's counts. The
sweeps read link tables only, drawing shadowing through
`LinkTable.shadowed`, and integrate nothing. Both return `Estimate`s,
arrays over positions: the pointwise sweep's hold the front antenna's
trigger and failure and the scheme-level interruption (mean RSS, given
the caller's better-cell flags: a column for the front antenna's and
the combined trace, each scenario's rows reduced where it shadows
them), the first-crossing sweep's the front antenna's first-trigger
masses.
`figures.FigureRunner.mc` reads each figure's estimate from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import channel, protocol
from .scenario import AntennaId, PositionGrid, Scenario

# Substream domain tags; part of the documented seed derivation.
DOMAIN_POINTWISE = 0
DOMAIN_FIRST_CROSSING = 1
DOMAIN_PROTOCOL = 2

# Trials are drawn in blocks of this size inside the first-crossing
# estimator; the block index is part of the substream key.
_BLOCK = 8192
# Each block is drawn and compared in sub-blocks of this many trials, which
# bounds the sweep's memory; the generator fills sequentially, so the
# sub-blocks together hold the block's one draw.
_SUB_BLOCK = 256

# Crossings go through the protocol kernel in blocks of this size, which
# bounds its memory; every crossing keeps its own substream, so the block
# size does not change the estimate.
_PROTOCOL_BLOCK = 256


@dataclass(frozen=True)
class SeedPolicy:
    """Deterministic substream derivation from one master seed.

    stream(*key) spawns a generator from SeedSequence(master_seed,
    spawn_key=key); distinct keys give statistically independent
    streams. The estimators key their streams by (domain, position) or
    (domain, antenna, block) or (domain, trial).
    """

    master_seed: int

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must be an unsigned 64-bit integer")

    def stream(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master_seed, spawn_key=tuple(key))
        return np.random.default_rng(ss)


class Estimate(NamedTuple):
    """Monte Carlo estimates with their 95% half-widths and base counts.

    base_count is the number of trials an estimate averages over: every
    trial, or for failure the trials that triggered. A zero base leaves
    the estimate undefined, its value and half-width NaN.
    """

    value: np.ndarray
    half_width_95: np.ndarray
    base_count: np.ndarray


class PointwiseEstimate(NamedTuple):
    """The pointwise sweep: Estimates of shape (positions,).

    trigger and failure are the front antenna's, interruption the
    scheme's: every antenna below the threshold at once. rss, None unless
    requested, has shape (positions, columns): the front antenna's column
    and, on two antennas, the combined two-antenna trace.
    """

    trigger: Estimate
    failure: Estimate
    interruption: Estimate
    rss: Estimate | None


def _binomial(hits: np.ndarray, base: np.ndarray) -> Estimate:
    with np.errstate(invalid="ignore", divide="ignore"):  # a zero base reads NaN
        p = hits / base
        return Estimate(p, 1.96 * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / base), base)


def _parallel_map(fn, count: int, jobs: int) -> list:
    if jobs <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor  # a serial run never loads it
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, range(count)))


# === Shared draws ===


def _sources(scs: Sequence[Scenario], grid: PositionGrid, better: Sequence | None = None
             ) -> tuple[list[channel.LinkTable], list[int]]:
    """The link tables of scs and, per scenario, the scenario whose draws it reads.

    Scenario k reads scenario m's results on m's first antennas (m = k:
    its own) when, on those antennas, the two tables hold equal mu,
    sigma, cell_column and trigger_column and any better-cell flags
    agree, and the scenarios share hysteresis and threshold. Wider
    tables are taken first, so the choice does not depend on the order
    of scs.
    """
    if len(scs) == 0:
        raise ValueError("at least one scenario is required")
    tables = [channel.link_table(sc, grid) for sc in scs]
    if better is not None and [np.shape(b) for b in better] != [t.mu.shape[:2] for t in tables]:
        raise ValueError("better must hold one (positions, antennas) array per scenario")

    def covers(m: int, k: int) -> bool:
        wide, narrow = tables[m], tables[k]
        a = len(narrow.antennas)

        def same(name: str) -> bool:
            x = getattr(wide, name)
            return np.array_equal(x if x is None else x[:, :a], getattr(narrow, name))

        return (wide.trigger_column == narrow.trigger_column
                and scs[m].hysteresis == scs[k].hysteresis
                and scs[m].threshold == scs[k].threshold
                and same("mu") and same("sigma") and same("cell_column")
                and (better is None or np.array_equal(better[m][:, :a], better[k])))

    source: dict[int, int] = {}
    for k in sorted(range(len(scs)), key=lambda k: -len(tables[k].antennas)):
        source[k] = next((m for m in source if source[m] == m and covers(m, k)), k)
    return tables, [source[k] for k in range(len(scs))]


# === Pointwise sweep ===


def _position_counts(sc: Scenario, cell: np.ndarray, serving: np.ndarray,
                     target: np.ndarray) -> list[int]:
    """Counts of one position's shadowed links: the front antenna's fired and
    failed trials, then per antenna the trials in which it and every antenna
    before it are below the threshold. A reader of the first a antennas
    takes counts 0, 1 and 1 + a."""
    fired = target[0] - serving[0] > sc.hysteresis
    below = np.maximum(cell[:, 0], cell[:, 1]) < sc.threshold
    every = [below[0]]
    for row in below[1:]:
        every.append(every[-1] & row)
    return [np.count_nonzero(fired), np.count_nonzero(fired & (target[0] < sc.threshold)),
            *map(np.count_nonzero, every)]


def _best_series(cell: np.ndarray, target_better: np.ndarray) -> np.ndarray:
    """The front antenna's best-cell RSS, then for two antennas the combined
    trace (channel.power_sum_db of both antennas' best cells), as rows (rows, trials)."""
    series = cell[np.arange(len(cell)), target_better.astype(int)]
    if len(series) == 2:
        series = np.vstack((series[0], channel.power_sum_db(*series)))
    return series


def _row_stats(rows: np.ndarray) -> np.ndarray:
    """Mean and 95% half-width of each row of trials from one sum per row, as
    np.mean and 1.96 np.std(ddof=1) / sqrt(n) give them bit for bit; overwrites rows."""
    n = rows.shape[1]
    mean = np.add.reduce(rows, axis=1, keepdims=True)
    mean /= n
    with np.errstate(over="ignore", invalid="ignore"):  # inf is written empty; 0 / 0, one trial
        np.square(np.subtract(rows, mean, out=rows), out=rows)
        hw = 1.96 * np.sqrt(np.add.reduce(rows, axis=1) / (n - 1)) / math.sqrt(n)
    return np.column_stack((mean[:, 0], hw))


def estimate_pointwise(scs: Sequence[Scenario], grid: PositionGrid, trials: int,
                       seed: SeedPolicy, jobs: int = 1,
                       better: Sequence | None = None) -> tuple[PointwiseEstimate, ...]:
    """Independent per-position estimates of the position-wise metrics, per scenario.

    Each position draws standard normals from its own substream once:
    each scenario shadows the first of them, shaped (antennas, cells,
    trials, components), the values it would draw alone, and counts
    them, or reads the counts of a scenario that repeats its links
    (_sources). The same draws give the front antenna's trigger and
    failure (conditional on trigger, NaN where no trial triggered) and
    the scheme-level interruption. Only given better, per scenario the
    (positions, antennas) flags that are True where an antenna's better
    cell is the target (channel.cell_means'), does it add the front
    antenna's mean best-cell RSS and the combined trace (linear power sum).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tables, source = _sources(scs, grid, better)
    shapes = [t.mu.shape[1:3] + (trials, t.mu.shape[3]) for t in tables]
    # shadowing scales in place: every scenario but the widest scales a copy
    # of its prefix, and the widest, last, scales the draw itself
    shadowing = sorted(set(source), key=lambda k: math.prod(shapes[k]))
    widest = shadowing[-1]

    # per source scenario and position: counts, and mean rows (front, combined)
    n_pos = len(grid.positions)
    counts = {m: np.empty((n_pos, 2 + len(tables[m].antennas)), int) for m in shadowing}
    means = {m: np.empty((n_pos, len(tables[m].antennas), 2)) for m in shadowing}

    def one_position(j: int) -> None:
        z = seed.stream(DOMAIN_POINTWISE, j).standard_normal(math.prod(shapes[widest]))
        for m in shadowing:
            block = z[:math.prod(shapes[m])].reshape(shapes[m])
            cell, (serving, target) = tables[m].shadowed(
                block if m == widest else block.copy(), slice(j, j + 1))
            counts[m][j] = _position_counts(scs[m], cell, serving, target)
            if better is not None:
                means[m][j] = _row_stats(_best_series(cell, better[m][j]))

    _parallel_map(one_position, n_pos, jobs)
    estimates = []
    for t, m in zip(tables, source):
        a = len(t.antennas)  # a reader of scenario m's first a antennas
        fired, failed, every = counts[m][:, [0, 1, 1 + a]].T
        value, hw = np.moveaxis(means[m][:, :a], 2, 0)
        rss = Estimate(value, hw, np.full(value.shape, trials)) if better is not None else None
        base = np.full_like(fired, trials)
        estimates.append(PointwiseEstimate(_binomial(fired, base), _binomial(failed, fired),
                                           _binomial(every, base), rss))
    return tuple(estimates)


# === First-crossing sweep ===


def estimate_first_crossing(scs: Sequence[Scenario], grid: PositionGrid, trials: int,
                            seed: SeedPolicy, jobs: int = 1) -> tuple[Estimate, ...]:
    """Empirical occurrence distribution per scenario of scs: at each grid
    position, the share of trials whose first fresh shadowing draw that
    satisfies the front antenna's trigger rule, walking left to right,
    falls there.

    Trials are drawn in fixed-size blocks; each block is an independent
    substream, drawn once, in sub-blocks of _SUB_BLOCK trials that every
    scenario compares before the next is drawn, so an estimate
    depends neither on execution order nor on the other scenarios. A
    scenario whose links repeat another's reads its counts (see _sources).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tables, source = _sources(scs, grid)
    rules = [t.comparands() for t in tables]
    shadowing = sorted(set(source))
    n_pos = len(grid.positions)

    def one_block(b: int) -> dict[int, np.ndarray]:
        size = min(_BLOCK, trials - b * _BLOCK)
        rng = seed.stream(DOMAIN_FIRST_CROSSING, AntennaId.FRONT.value, b)
        counts = {k: np.zeros(n_pos, dtype=np.intp) for k in shadowing}
        for first in range(0, size, _SUB_BLOCK):
            z = rng.standard_normal((min(_SUB_BLOCK, size - first), n_pos, 2))
            for k in shadowing:
                mu_s, sig_s, mu_t, sig_t = rules[k]
                margin = (mu_t + sig_t * z[:, :, 1]) - (mu_s + sig_s * z[:, :, 0])
                trig = margin > scs[k].hysteresis
                counts[k] += np.bincount(np.argmax(trig, axis=1)[trig.any(axis=1)],
                                         minlength=n_pos)
        return counts

    blocks = _parallel_map(one_block, (trials + _BLOCK - 1) // _BLOCK, jobs)
    estimates = {k: _binomial(sum(block[k] for block in blocks), np.full(n_pos, trials))
                 for k in shadowing}
    return tuple(estimates[m] for m in source)


# === Protocol sweep ===


@dataclass(frozen=True)
class ProtocolStats:
    """Aggregates over repeated crossings of the executable procedure."""

    grid: PositionGrid
    trials: int
    completed: int
    front_failed_trials: int
    rear_failed_trials: int
    front_ho_hist: np.ndarray        # successful front attach count per position
    rear_ho_hist: np.ndarray
    front_attempt_hist: np.ndarray   # front attach attempts per position
    front_failure_hist: np.ndarray   # failed front attempts per position
    interruption_lengths: tuple[float, ...]  # meters, one entry per interval


def estimate_protocol(sc: Scenario, grid: PositionGrid, trials: int,
                      seed: SeedPolicy, jobs: int = 1) -> ProtocolStats:
    """Run the crossing procedure trials times with per-trial substreams.

    Crossing t draws from stream (DOMAIN_PROTOCOL, t), so its outcome is
    the one run_crossing gives on that stream; protocol.run_crossings
    computes it in blocks of crossings without walking the state machine.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def one_block(b: int) -> protocol.CrossingArrays:
        first = b * _PROTOCOL_BLOCK
        return protocol.run_crossings(sc, grid, [
            seed.stream(DOMAIN_PROTOCOL, t)
            for t in range(first, min(first + _PROTOCOL_BLOCK, trials))])

    blocks = _parallel_map(one_block, (trials + _PROTOCOL_BLOCK - 1) // _PROTOCOL_BLOCK,
                           jobs)
    out = protocol.CrossingArrays(*map(np.concatenate, zip(*blocks)))
    n_pos = len(grid.positions)
    front_hist = np.bincount(out.front_index[out.front_index >= 0], minlength=n_pos)
    attempt_hist = out.front_attempts.sum(axis=0)
    xs = grid.as_array()
    runs = out.interruptions  # the crossing's row in its block is not read
    lengths = (xs[runs[:, 2]] - xs[runs[:, 1]]) + grid.step
    return ProtocolStats(
        grid, trials,
        completed=int(np.count_nonzero(out.rear_index >= 0)),
        front_failed_trials=int(np.count_nonzero(out.front_failed)),
        rear_failed_trials=int(np.count_nonzero(out.rear_failed)),
        front_ho_hist=front_hist,
        rear_ho_hist=np.bincount(out.rear_index[out.rear_index >= 0], minlength=n_pos),
        front_attempt_hist=attempt_hist,
        front_failure_hist=attempt_hist - front_hist,
        interruption_lengths=tuple(lengths.tolist()))
