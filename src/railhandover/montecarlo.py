"""Monte Carlo estimators mirroring the closed-form metrics.

Randomness is organized as keyed substreams derived from one master
seed: every (domain, index...) key maps to its own SeedSequence-spawned
generator, so estimates are bitwise reproducible for a given master
seed regardless of how the sweep is parallelized or in what order
positions execute. Reductions run in index order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import channel, protocol
from .analytics import PositionGrid
from .scenario import AntennaId, Scenario

# Substream domain tags; part of the documented seed derivation.
DOMAIN_POINTWISE = 0
DOMAIN_FIRST_CROSSING = 1
DOMAIN_PROTOCOL = 2

# Trials are drawn in blocks of this size inside the first-crossing
# estimator; the block index is part of the substream key.
_BLOCK = 8192

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


class Metric(Enum):
    TRIGGER = "trigger"
    FAILURE = "failure"
    INTERRUPTION = "interruption"
    MEAN_RSS = "mean_rss"


@dataclass(frozen=True)
class SweepEstimate:
    """One Monte Carlo point estimate with its 95% half-width.

    antenna is None for scheme-level rows (interruption over all
    antennas, combined-RSS trace). For conditional metrics base_count
    holds the number of conditioning events; a zero base flags the
    estimate as undefined and the value is NaN.
    """

    position: float
    metric: Metric
    value: float
    trials: int
    half_width_95: float
    antenna: AntennaId | None = None
    base_count: int | None = None


def _binomial_hw(p: float, n: int) -> float:
    if n < 1:
        return math.nan
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _mean_hw(samples: np.ndarray) -> float:
    n = samples.size
    if n < 2:
        return math.nan
    return 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(n)


def _parallel_map(fn, count: int, jobs: int) -> list:
    if jobs <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, range(count)))


# === Pointwise sweep ===


def estimate_pointwise(sc: Scenario, grid: PositionGrid, trials: int,
                       seed: SeedPolicy, jobs: int = 1,
                       metrics: Iterable[Metric] | None = None) -> list[SweepEstimate]:
    """Independent per-position estimates of the position-wise metrics.

    Every (position) gets its own substream; within it each trial draws
    fresh shadowing for all links, front antenna first, serving cell
    first. From the same draws it computes trigger, failure (conditional
    on trigger, NaN when no trial triggered) and per-antenna and
    scheme-level interruption, and returns the requested metrics' rows
    (all by default). Mean best-cell RSS per antenna plus a combined
    two-antenna trace (linear power sum) is computed only on request,
    since picking the better cell needs the analytic cell means. Rows
    do not depend on which metrics are requested.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    wanted = set(metrics) if metrics is not None else set(Metric)
    table = channel.link_table(sc, grid)
    target_better = (channel.cell_means(sc, grid)[1] if Metric.MEAN_RSS in wanted
                     else None)

    def one_position(j: int) -> list[SweepEstimate]:
        x = grid.positions[j]
        rng = seed.stream(DOMAIN_POINTWISE, j)
        # per antenna: ((serving cell RSS, trigger comparand), (target ...))
        draws = [tuple(table.sample(slice(j, j + 1), a, c, rng, trials)
                       for c in range(len(channel.CELLS)))
                 for a in range(len(table.antennas))]
        rows: list[SweepEstimate] = []

        for antenna, ((_, trig_s), (_, trig_t)) in zip(table.antennas, draws):
            trig = trig_t - trig_s > sc.hysteresis
            p = float(np.mean(trig))
            rows.append(SweepEstimate(x, Metric.TRIGGER, p, trials,
                                      _binomial_hw(p, trials), antenna))
            base = int(np.count_nonzero(trig))
            if base == 0:
                rows.append(SweepEstimate(x, Metric.FAILURE, math.nan,
                                          trials, math.nan, antenna, 0))
            else:
                q = float(np.count_nonzero(trig & (trig_t < sc.threshold))) / base
                rows.append(SweepEstimate(x, Metric.FAILURE, q, trials,
                                          _binomial_hw(q, base), antenna, base))

        all_below = np.ones(trials, dtype=bool)
        for antenna, ((serving, _), (target, _)) in zip(table.antennas, draws):
            below = np.maximum(serving, target) < sc.threshold
            p = float(np.mean(below))
            rows.append(SweepEstimate(x, Metric.INTERRUPTION, p, trials,
                                      _binomial_hw(p, trials), antenna))
            all_below &= below
        p = float(np.mean(all_below))
        rows.append(SweepEstimate(x, Metric.INTERRUPTION, p, trials,
                                  _binomial_hw(p, trials), None))

        if target_better is not None:
            best_cell_samples = []
            for a, antenna in enumerate(table.antennas):
                samples = draws[a][int(target_better[j, a])][0]
                best_cell_samples.append(samples)
                rows.append(SweepEstimate(x, Metric.MEAN_RSS, float(np.mean(samples)),
                                          trials, _mean_hw(samples), antenna))
            if len(table.antennas) == 2:
                linear = sum(np.power(10.0, s / 10.0) for s in best_cell_samples)
                combined = 10.0 * np.log10(linear)
                rows.append(SweepEstimate(x, Metric.MEAN_RSS, float(np.mean(combined)),
                                          trials, _mean_hw(combined), None))
        return [row for row in rows if row.metric in wanted]

    chunks = _parallel_map(one_position, len(grid.positions), jobs)
    return [row for chunk in chunks for row in chunk]


# === First-crossing sweep ===


@dataclass(frozen=True)
class FirstCrossingEstimate:
    """Histogram of the first triggering position over many crossings."""

    grid: PositionGrid
    masses: np.ndarray
    half_widths: np.ndarray
    no_trigger_fraction: float
    trials: int
    antenna: AntennaId


def estimate_first_crossing(sc: Scenario, grid: PositionGrid, trials: int,
                            seed: SeedPolicy, antenna: AntennaId = AntennaId.FRONT,
                            jobs: int = 1) -> FirstCrossingEstimate:
    """Empirical occurrence distribution: first position whose fresh
    shadowing draw satisfies the trigger rule, walked left to right.

    Trials are drawn in fixed-size blocks; each block is an independent
    substream, so the estimate does not depend on execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if antenna not in sc.antennas():
        raise ValueError(f"scheme {sc.scheme.value} has no {antenna.name.lower()} antenna")
    table = channel.link_table(sc, grid)
    a = table.antennas.index(antenna)
    (mu_s, sig_s), (mu_t, sig_t) = [
        (table.mu[:, a, c, n], table.sigma[:, a, c, n])
        for c, n in enumerate(table.trigger_column)]
    n_pos = len(grid.positions)
    n_blocks = (trials + _BLOCK - 1) // _BLOCK

    def one_block(b: int) -> tuple[np.ndarray, int]:
        size = min(_BLOCK, trials - b * _BLOCK)
        rng = seed.stream(DOMAIN_FIRST_CROSSING, antenna.value, b)
        z = rng.standard_normal((size, n_pos, 2))
        margin = (mu_t + sig_t * z[:, :, 1]) - (mu_s + sig_s * z[:, :, 0])
        trig = margin > sc.hysteresis
        has = trig.any(axis=1)
        first = np.argmax(trig, axis=1)
        counts = np.bincount(first[has], minlength=n_pos)
        return counts, int(np.count_nonzero(~has))

    results = _parallel_map(one_block, n_blocks, jobs)
    counts = np.zeros(n_pos, dtype=np.int64)
    none = 0
    for c, n in results:
        counts += c
        none += n
    masses = counts / float(trials)
    hw = 1.96 * np.sqrt(np.maximum(masses * (1.0 - masses), 0.0) / trials)
    return FirstCrossingEstimate(grid, masses, hw, none / float(trials),
                                 trials, antenna)


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
    n_pos = len(grid.positions)
    front = np.concatenate([b.front_index for b in blocks])
    rear = np.concatenate([b.rear_index for b in blocks])
    front_hist = np.bincount(front[front >= 0], minlength=n_pos)
    attempt_hist = sum(b.front_attempts.sum(axis=0) for b in blocks)
    runs = np.concatenate([b.interruptions for b in blocks])
    xs = grid.as_array()
    lengths = (xs[runs[:, 2]] - xs[runs[:, 1]]) + grid.step
    return ProtocolStats(
        grid, trials,
        completed=int(np.count_nonzero(rear >= 0)),
        front_failed_trials=sum(int(np.count_nonzero(b.front_failed)) for b in blocks),
        rear_failed_trials=sum(int(np.count_nonzero(b.rear_failed)) for b in blocks),
        front_ho_hist=front_hist,
        rear_ho_hist=np.bincount(rear[rear >= 0], minlength=n_pos),
        front_attempt_hist=attempt_hist,
        front_failure_hist=attempt_hist - front_hist,
        interruption_lengths=tuple(lengths.tolist()))
