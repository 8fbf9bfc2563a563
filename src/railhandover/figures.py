"""Result tables, figure sweeps, and the scheme-comparison runner.

Each figure is one CSV: position-indexed rows, one column group per
scheme holding analytic values (mode-tagged where the algebraic mode
matters) next to Monte Carlo estimates with 95% half-widths. Numeric
cells are pinned to 6 significant digits when the table is built, so a
written file re-reads field for field and reruns with the same
(seed, trials, config) triple are byte identical.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analytics, channel
from ._version import __version__
from .analytics import MetricMode
from .montecarlo import (
    Estimate,
    PointwiseEstimate,
    SeedPolicy,
    estimate_first_crossing,
    estimate_pointwise,
)
from .scenario import PositionGrid, Scenario, Scheme


@dataclass(frozen=True)
class RunConfig:
    """Everything one reproduction run depends on.

    jobs and output_dir are execution details and stay out of the config
    fingerprint; all other fields feed it.
    """

    scenario: Scenario = field(default_factory=Scenario)
    trials: int = 100_000
    master_seed: int = 12345
    mode: MetricMode = MetricMode.REDERIVED
    schemes: tuple[Scheme, ...] = tuple(Scheme)
    output_dir: Path = Path("results")
    jobs: int = 1

    def __post_init__(self) -> None:
        if len(self.schemes) == 0:
            raise ValueError("schemes must be non-empty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("schemes must not repeat")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def step(self) -> float:  # perfbench/workloads.py reads it too
        return self.scenario.measurement_step

    def fingerprint(self) -> str:
        parts = []
        for name in sorted(self.scenario.__dataclass_fields__):
            value = getattr(self.scenario, name)
            value = value.value if isinstance(value, Enum) else value
            parts.append(f"{name}={value!r}")
        parts.append(f"trials={self.trials}")
        parts.append(f"master_seed={self.master_seed}")
        parts.append(f"mode={self.mode.value}")
        parts.append("schemes=" + "+".join(sorted(s.value for s in self.schemes)))
        digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
        return digest[:12]

    def provenance(self) -> str:
        return (f"version={__version__} seed={self.master_seed} "
                f"trials={self.trials} mode={self.mode.value} "
                f"schemes={'+'.join(s.value for s in self.schemes)} "
                f"step={self.step:g} config={self.fingerprint()}")


class Figure(Enum):
    RSS = "rss"
    TRIGGER = "trigger"
    OCCURRENCE = "occurrence"
    FAILURE = "failure"
    INTERRUPTION = "interruption"

    @property
    def filename(self) -> str:
        return _FIGURE_FILES[self]


_FIGURE_FILES = {
    Figure.RSS: "fig3_rss.csv",
    Figure.TRIGGER: "fig4_trigger.csv",
    Figure.OCCURRENCE: "fig5_occurrence.csv",
    Figure.FAILURE: "fig6_failure.csv",
    Figure.INTERRUPTION: "fig7_interruption.csv",
}

SUMMARY_FILE = "summary.csv"


def _cell(value) -> tuple:
    """A cell pinned to 6 significant digits (None if not finite) and its CSV text,
    a text cell quoted as csv.QUOTE_MINIMAL quotes it."""
    if value is None or isinstance(value, str):
        text = (value or "").replace('"', '""')
        return value, f'"{text}"' if any(c in text for c in ',"\r\n') else text
    v = float(value)
    text = f"{v:.6g}" if math.isfinite(v) else ""
    return (float(text) if text else None), text


@dataclass(frozen=True)
class ResultTable:
    """One CSV worth of results: its cells, provenance line and rows' CSV text."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: str
    lines: tuple[str, ...] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("every row must match the header width")

    @classmethod
    def build(cls, columns, rows, provenance: str) -> "ResultTable":
        cells = [[_cell(c) for c in row] for row in rows]
        return cls(tuple(columns), tuple(tuple(v for v, _ in row) for row in cells),
                   provenance, tuple(",".join(t for _, t in row) for row in cells))

    def write(self, path: Path) -> None:
        lines = (f"# provenance: {self.provenance}", ",".join(self.columns), *self.lines)
        Path(path).write_text("\n".join(lines) + "\n")


class FigureRunner:
    """Shared sweep cache behind run_figure / compare_schemes.

    Every curve figure (trigger, occurrence, failure, interruption) is an
    analytic curve beside a Monte Carlo Estimate, read through
    analytic(scheme, figure, mode) and mc(scheme, figure). Each is
    computed on the first request, for every configured scheme together,
    and kept per scheme. The Monte Carlo sweeps run once per run: one
    pointwise sweep computing every position-wise metric as arrays, mean
    RSS included only once a figure asks for it, and one first-crossing
    sweep for occurrence. Every scheme reads a prefix of the same keyed
    substreams, so a sweep rerun with mean RSS reproduces the earlier
    arrays exactly, and a scheme whose links repeat another's reads that
    scheme's counts. The analytic curves are kept per mode, trigger's
    without one, and the failure curves of every scheme come from one
    quadrature batch per mode.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.grid = PositionGrid.for_scenario(config.scenario)
        self.seed = SeedPolicy(config.master_seed)
        self.scenarios = tuple(config.scenario.with_scheme(s) for s in config.schemes)
        self._cache: dict[tuple, dict] = {}

    def _per_scheme(self, key: tuple, compute: Callable) -> dict:
        """compute()'s values, one per configured scheme, computed once per key."""
        if key not in self._cache:
            self._cache[key] = dict(zip(self.config.schemes, compute()))
        return self._cache[key]

    def pointwise(self, scheme: Scheme, mean_rss: bool) -> PointwiseEstimate:
        """The pointwise sweep's estimates; a sweep with mean RSS serves either request."""
        key = ("pointwise", mean_rss or ("pointwise", True) in self._cache)
        return self._per_scheme(key, lambda: estimate_pointwise(
            self.scenarios, self.grid, self.config.trials, self.seed,
            jobs=self.config.jobs, mean_rss=key[1]))[scheme]

    def mc(self, scheme: Scheme, figure: Figure) -> Estimate:
        """The curve figure's Monte Carlo estimate: the front antenna's
        first-trigger masses for occurrence, else the pointwise sweep's
        field, the front antenna's or for interruption the scheme's."""
        if figure is Figure.OCCURRENCE:
            return self._per_scheme(("crossing",), lambda: estimate_first_crossing(
                self.scenarios, self.grid, self.config.trials, self.seed,
                jobs=self.config.jobs))[scheme]
        return getattr(self.pointwise(scheme, False), figure.value)

    def mc_rows(self, scheme: Scheme, figure: Figure) -> list[Estimate]:
        """mc as one Estimate of Python numbers per position."""
        return [Estimate(*row) for row in zip(*(a.tolist() for a in self.mc(scheme, figure)))]

    def analytic(self, scheme: Scheme, figure: Figure, mode: MetricMode) -> np.ndarray:
        """The figure's analytic curve of the front antenna (failure NaN where
        undefined); trigger does not depend on the mode."""
        if figure is Figure.TRIGGER:
            mode = None
        return self._per_scheme((figure, mode), lambda: self._curves(figure, mode))[scheme]

    def _curves(self, figure: Figure, mode: MetricMode | None) -> list:
        if figure is Figure.FAILURE:
            return analytics.failure_curve(self.scenarios, self.grid, mode)
        if figure is Figure.OCCURRENCE:
            return [analytics.occurrence_masses(self.analytic(s, Figure.TRIGGER, mode),
                                                self.grid.step, mode) for s in self.config.schemes]
        if figure is Figure.TRIGGER:
            return [analytics.trigger_curve(sc, self.grid) for sc in self.scenarios]
        return [analytics.interruption_curve(sc, self.grid, mode) for sc in self.scenarios]

    def rss_values(self, scheme: Scheme) -> dict[str, np.ndarray]:
        """Each antenna's cell mean by channel.cell_means' better-cell flags (front,
        rear, NaN on one antenna), the larger (best) and their power sum (combined)."""
        def curves(means: np.ndarray, better: np.ndarray) -> dict[str, np.ndarray]:
            cell = np.full((2, len(means)), np.nan)
            cell[:means.shape[1]] = np.where(better, means[..., 1], means[..., 0]).T
            front, rear = cell
            return {"front": front, "rear": rear, "best": np.fmax(front, rear),
                    "combined": channel.power_sum_db(front, rear)}
        return self._per_scheme(("rss",), lambda: [
            curves(*pair) for pair in channel.cell_means(self.scenarios, self.grid)])[scheme]

    # --- tables ---

    def table(self, figure: Figure) -> ResultTable:
        names, values = zip(*(pair for s in self.config.schemes
                              for pair in self._columns(s, figure)))
        # as Python numbers, which _cell formats at half the cost of numpy scalars
        rows = list(zip(self.grid.positions, *(v.tolist() for v in values)))
        return ResultTable.build(("position_m",) + names, rows, self.config.provenance())

    def _columns(self, scheme: Scheme, figure: Figure) -> list[tuple[str, np.ndarray]]:
        """The scheme's (name, values) columns: rss's cell-mean curves, then its MC
        front and combined traces; a curve's analytic, mc, mc_hw (failure: mc_base)."""
        tag = scheme.value.replace("-", "_")
        if figure is Figure.RSS:
            columns = [(f"{tag}_{name}_dbm", v) for name, v in self.rss_values(scheme).items()]
            mc = self.pointwise(scheme, True).rss
            # the front and combined rows, the combined NaN on one antenna
            value, hw = (np.vstack((a.T, np.full((2 - a.shape[1], len(a)), np.nan)))
                         for a in (mc.value, mc.half_width_95))
            return columns + [(f"{tag}_mc_front_dbm", value[0]), (f"{tag}_mc_front_hw", hw[0]),
                              (f"{tag}_mc_combined_dbm", value[1]),
                              (f"{tag}_mc_combined_hw", hw[1])]
        mode = self.config.mode
        suffix = "" if figure is Figure.TRIGGER else f"_{mode.value}"
        mc = self.mc(scheme, figure)
        columns = [(f"{tag}_analytic{suffix}", self.analytic(scheme, figure, mode)),
                   (f"{tag}_mc", mc.value), (f"{tag}_mc_hw", mc.half_width_95)]
        if figure is Figure.FAILURE:
            columns.append((f"{tag}_mc_base", mc.base_count))
        return columns


def run_figure(config: RunConfig, figure: Figure) -> ResultTable:
    return FigureRunner(config).table(figure)


# === Scheme comparison ===


class Assertion(NamedTuple):
    """One comparison rule's outcome across the grid: a row of summary.csv,
    whose columns are these fields in order; figure is the figure's file.

    checked counts positions where the rule was evaluated, failed those
    where it conclusively failed, inconclusive those where overlapping
    Monte Carlo intervals (or an undefined value) prevented a verdict.
    """

    assertion: str
    figure: str
    status: str
    checked: int
    failed: int
    inconclusive: int
    worst_position: float | None
    detail: str


# Interruption comparisons are skipped where every scheme is below this;
# such positions carry no usable ordering information.
NEGLIGIBLE_INTERRUPTION = 1e-6

# Conditional-failure MC estimates need this many triggered trials
# before they enter a comparison.
MIN_CONDITION_COUNT = 25

_ANALYTIC_SLACK = 1e-12
_FAILURE_WINDOW = (1200.0, 1800.0)
_VALIDATE_Z_LIMIT = 4.0


def _binomial_envelope(analytic: np.ndarray, trials: int) -> np.ndarray:
    """Two-sided per-bin fluctuation allowance at 3-sigma coverage.

    Exact binomial quantiles instead of a normal approximation: with few
    trials a single count in a near-zero bin is routine, and a symmetric
    3-standard-error band would flag it. The 0.01 floor is the agreement
    budget at the acceptance trial count, where it dominates.
    """
    p = np.clip(np.asarray(analytic, dtype=float), 0.0, 1.0)
    low, high = _binomial_quantile((0.00135, 0.99865), trials, p) / trials
    return np.maximum(0.01, np.maximum(high - p, p - low))


def _binomial_quantile(levels, trials: int, p: np.ndarray) -> np.ndarray:
    """For each level q in levels, the smallest count k with
    P(Binomial(trials, p) <= k) >= q, for 0 < q < 1, elementwise over p
    (NaN read as 0): one such array per level, stacked.

    The masses are summed exactly over the counts within 8 standard
    deviations and 20 counts of the mean (and as many more as the widest
    row needs), beyond which less than 1e-14 is left out: the lower tail up
    for q < 1/2, the upper tail down for the others, so no tail is formed
    as 1 - F. Each row's masses are the ratios pmf(k + 1) / pmf(k) =
    (trials - k) / (k + 1) * p / (1 - p), multiplied outward from its mode
    as sums of logs, then divided by their own sum. p is read as
    1 - (1 - p) in floating point, as scipy's bdtr reads it.
    """
    shape = np.shape(p)
    p = np.fmax(np.asarray(p, dtype=float).reshape(-1, 1), 0.0)  # NaN to 0
    p = 1.0 - (1.0 - p)
    mean = trials * p
    reach = 8.0 * np.sqrt(mean * (1.0 - p)) + 20.0
    lo = np.maximum(np.floor(mean - reach), 0.0)
    hi = np.minimum(np.ceil(mean + reach), trials)
    mode = np.minimum(np.floor(mean + p), hi)
    counts = lo + np.arange(int((hi - lo).max(initial=0.0)) + 1)
    logs = np.zeros(counts.shape)
    # log pmf(k + 1) / pmf(k), -inf past trials (p = 0 or 1: taken below)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(np.maximum(trials - counts[:, :-1], 0.0) / counts[:, 1:] * (p / (1.0 - p)),
               out=logs[:, 1:])
        np.cumsum(logs[:, 1:], axis=1, out=logs[:, 1:])
        logs -= logs[np.arange(len(p)), (mode - lo)[:, 0].astype(np.intp), np.newaxis]
        mass = np.exp(logs, out=logs)
        mass /= mass.sum(axis=1, keepdims=True)
    out = []
    for level in levels:
        if level > 0.5:  # P(count > k): the masses above k, summed from the top
            reached = np.ones(counts.shape, dtype=bool)
            np.less_equal(np.cumsum(mass[:, :0:-1], axis=1)[:, ::-1], 1.0 - level,
                          out=reached[:, :-1])
        else:
            reached = np.cumsum(mass, axis=1) >= level
        # a certain outcome: the count is the mean
        out.append(np.where((p[:, 0] == 0.0) | (p[:, 0] == 1.0), mean[:, 0],
                            lo[:, 0] + np.argmax(reached, axis=1)).reshape(shape))
    return np.array(out)


def _failure_z(analytic: float, mc: Estimate) -> float:
    """|analytic - mc| of a conditional failure estimate in standard errors.

    NaN where the analytic value is undefined (NaN) or fewer than
    MIN_CONDITION_COUNT trials triggered; a zero half-width scores 0.
    """
    if math.isnan(analytic) or mc.base_count < MIN_CONDITION_COUNT:
        return math.nan
    se = mc.half_width_95 / 1.96
    return abs(analytic - mc.value) / se if se > 0 else 0.0


class Mark(NamedTuple):
    """One position's verdict; failed counts its failing sides (analytic, MC).

    An unchecked position is inconclusive when marked so, else skipped.
    """

    checked: bool
    failed: int = 0
    inconclusive: int = 0
    score: float | None = None  # the highest score marks the worst position
    mc_failed: bool = False


_SKIP, _UNDEFINED = Mark(False), Mark(False, inconclusive=1)


class Tally(NamedTuple):
    """A rule's counts over its positions and its worst position."""

    checked: int
    failed: int
    inconclusive: int
    skipped: int
    worst_position: float | None
    worst_score: float
    worst_values: tuple  # the verdict's arguments at the worst position


def _tally(sides, verdict, window=None, floor=0.0, mc_moves_worst=False) -> Tally:
    """Mark every position of sides: a positions column, then verdict's columns.

    The worst position scores highest above floor; a Monte Carlo failure
    takes it always if mc_moves_worst, otherwise only while it is unset.
    """
    checked = failed = inconclusive = skipped = 0
    worst_x, worst_score, worst_values = None, floor, ()
    for x, *values in zip(*sides):
        if window and not window[0] <= x <= window[1]:
            continue
        mark = verdict(*values)
        checked += mark.checked
        failed += mark.failed
        inconclusive += mark.inconclusive
        skipped += not (mark.checked or mark.inconclusive)
        if mark.score is not None and mark.score > worst_score:
            worst_x, worst_score, worst_values = x, mark.score, tuple(values)
        if mark.mc_failed and (mc_moves_worst or worst_x is None):
            worst_x = x
    return Tally(checked, failed, inconclusive, skipped, worst_x, worst_score, worst_values)


def _within(value: float, limit: float) -> Mark:
    """value <= limit, scored by value; NaN leaves the position inconclusive."""
    return _UNDEFINED if math.isnan(value) else Mark(True, int(value > limit), score=value)


def _within_relative(value: float, limit: float) -> Mark:
    """value <= limit, scored by value / limit."""
    return _UNDEFINED if math.isnan(value) else Mark(True, int(value > limit),
                                                     score=value / limit)


def _first_failure(bad: bool) -> Mark:
    # the first failing position is the worst
    return Mark(True, int(bad), score=1.0 if bad else None)


def _ordered(a, b, ea: Estimate, eb: Estimate, mc_usable: bool = True) -> Mark:
    """a <= b on the analytic curves, and on disjoint 95% MC intervals if usable."""
    analytic_fail = bool(a > b + _ANALYTIC_SLACK)
    mc_fail = mc_usable and ea.value - ea.half_width_95 > eb.value + eb.half_width_95
    return Mark(True, analytic_fail + mc_fail, 0, a - b if analytic_fail else None, mc_fail)


def _failure_order(a, b, ea, eb) -> Mark:
    if math.isnan(a) or math.isnan(b):
        return _UNDEFINED
    return _ordered(a, b, ea, eb, min(ea.base_count, eb.base_count) >= MIN_CONDITION_COUNT)


def _interruption_order(a, b, ea, eb) -> Mark:
    if max(a, b, ea.value, eb.value) < NEGLIGIBLE_INTERRUPTION:
        return _SKIP
    mark = _ordered(a, b, ea, eb)
    return mark._replace(inconclusive=int(not mark.mc_failed and ea.value > eb.value))


def _crossing_sides(runner: FigureRunner, *schemes: Scheme) -> list | None:
    """The first scheme's 0.5-crossing as the one position, then every crossing."""
    curves = (runner.analytic(s, Figure.TRIGGER, MetricMode.REDERIVED) for s in schemes)
    xs = [analytics.first_level_crossing(runner.grid, curve, 0.5) for curve in curves]
    # a gap needs both crossings
    return None if len(xs) > 1 and None in xs else [[x] for x in xs[:1] + xs]


def _occurrence_sides(runner: FigureRunner, s: Scheme) -> tuple:
    analytic = runner.analytic(s, Figure.OCCURRENCE, MetricMode.REDERIVED)
    return (runner.grid.positions, np.abs(analytic - runner.mc(s, Figure.OCCURRENCE).value),
            _binomial_envelope(analytic, runner.config.trials))


def _curve_sides(figure: Figure):
    """Positions, each scheme's rederived curve, then each scheme's MC rows."""
    def sides(runner: FigureRunner, *schemes: Scheme) -> list:
        return ([runner.grid.positions]
                + [runner.analytic(s, figure, MetricMode.REDERIVED) for s in schemes]
                + [runner.mc_rows(s, figure) for s in schemes])
    return sides


def _rss_sides(runner: FigureRunner, a: Scheme, b: Scheme) -> tuple:
    return runner.grid.positions, runner.rss_values(a)["best"], runner.rss_values(b)["front"]


def _each(*excluded: str):
    """(s,) for each configured scheme s not named in excluded."""
    skip = tuple(map(Scheme, excluded))
    return lambda schemes: [(s,) for s in schemes if s not in skip]


def _against(name: str, *others: str):
    """(a, b) for scheme a and each configured b named in others, or any other."""
    a, named = Scheme(name), tuple(map(Scheme, others))
    return lambda schemes: [(a, b) for b in (named or schemes)
                            if a in schemes and b in schemes and b is not a]


@dataclass(frozen=True)
class Rule:
    """One `compare` rule, evaluated for each scheme tuple that bind yields.

    sides(runner, *schemes) returns the columns _tally walks, or None to
    omit the rule. The status is fail on any failed position, else pass if
    any position was checked, else inconclusive; with min_share it is
    whether that share of the checked positions passes. detail is
    formatted with the Tally's fields and percent, the passing share.
    """

    name: str
    figure: Figure
    bind: Callable
    sides: Callable
    verdict: Callable
    detail: str
    window: tuple[float, float] | None = None
    floor: float = 0.0
    mc_moves_worst: bool = False
    min_share: float | None = None


_FAILURE_SIDES = _curve_sides(Figure.FAILURE)

RULES = (
    Rule("trigger_half_crossing[{0}]", Figure.TRIGGER, _each(), _crossing_sides,
         lambda x: Mark(True, int(not (x is not None and 1500.0 <= x <= 1700.0)), score=0.0),
         "0.5-crossing inside [1500, 1700] m", floor=-math.inf),
    Rule("trigger_crossing_gap[{0}~{1}]", Figure.TRIGGER,
         _against("proposed", "das-blanket"), _crossing_sides,
         lambda xa, xb: _within(abs(xa - xb), 100.0),
         "0.5-crossings {worst_score:.4g} m apart (limit 100)", floor=-math.inf),
    Rule("occurrence_match[{0}]", Figure.OCCURRENCE, _each(), _occurrence_sides,
         _within_relative,
         "max |analytic - mc| = {worst_values[0]:.4g} (limit {worst_values[1]:.4g})",
         floor=-math.inf),
    Rule("failure_order[{0}<={1}]", Figure.FAILURE,
         _against("proposed", "traditional"), _FAILURE_SIDES, _failure_order,
         "rederived failure, window [1200, 1800] m", _FAILURE_WINDOW, mc_moves_worst=True),
    Rule("failure_similar[{0}~{1}]", Figure.FAILURE,
         _against("proposed", "das-single"), _FAILURE_SIDES,
         lambda a, b, *_: _within(abs(a - b), 0.02),
         "max |gap| = {worst_score:.4g} (limit 0.02), window [1200, 1800] m", _FAILURE_WINDOW),
    Rule("failure_mc_agreement[{0}]", Figure.FAILURE, _each("das-blanket"), _FAILURE_SIDES,
         lambda a, mc: _within(_failure_z(a, mc), 3.0),
         "max |analytic - mc| = {worst_score:.3g} standard errors (limit 3)", _FAILURE_WINDOW),
    Rule("interruption_lowest[{0}<={1}]", Figure.INTERRUPTION,
         _against("proposed"), _curve_sides(Figure.INTERRUPTION), _interruption_order,
         "{skipped} positions skipped below " f"{NEGLIGIBLE_INTERRUPTION:g}"),
    Rule("rss_dominates[{0}>={1}]", Figure.RSS, _against("proposed", "das-single"), _rss_sides,
         lambda best, other: _first_failure(best < other - 1e-9),
         "two-antenna best trace dominates the single-antenna trace"),
    Rule("rss_mostly_highest[{0}>={1}@90%]", Figure.RSS,
         _against("proposed", "traditional"), _rss_sides,
         lambda best, other: _first_failure(best < other),
         "proposed >= traditional at {percent:.1f}% of positions", min_share=0.9),
)


def evaluate_assertions(runner: FigureRunner) -> list[Assertion]:
    """Each rule of RULES for each scheme tuple it binds in the configured set.

    Ordering rules always compare rederived analytic curves; Monte Carlo
    sides of a rule only count against it when the 95% intervals are
    disjoint, otherwise the position is tallied as inconclusive.
    """
    out = []
    for rule in RULES:
        for schemes in rule.bind(runner.config.schemes):
            sides = rule.sides(runner, *schemes)
            if sides is None:
                continue
            t = _tally(sides, rule.verdict, rule.window, rule.floor, rule.mc_moves_worst)
            share = 1.0 - t.failed / t.checked if t.checked else 0.0
            status = "fail" if t.failed else "pass" if t.checked else "inconclusive"
            failed = t.failed
            if rule.min_share is not None:
                status, failed = ("pass", 0) if share >= rule.min_share else ("fail", failed)
            out.append(Assertion(
                rule.name.format(*(s.value for s in schemes)), rule.figure.filename, status,
                t.checked, failed, t.inconclusive, t.worst_position,
                rule.detail.format(**t._asdict(), percent=100.0 * share)))
    return out


def compare_schemes(config: RunConfig) -> tuple[ResultTable, int]:
    """Write every figure CSV plus summary.csv; exit status 1 on failure.

    Assertions touching schemes outside the configured set are omitted,
    so a single-scheme run carries no comparative rules and succeeds.
    """
    runner = FigureRunner(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for figure in Figure:
        runner.table(figure).write(out_dir / figure.filename)
    assertions = evaluate_assertions(runner)
    summary = ResultTable.build(Assertion._fields, assertions, config.provenance())
    summary.write(out_dir / SUMMARY_FILE)
    return summary, int(any(a.status == "fail" for a in assertions))


def _normal_gaps(runner: FigureRunner, analytic, mc) -> tuple:
    """Positions, |analytic - mc| and max(0.01, 3 binomial sigma at analytic)."""
    analytic = np.asarray(analytic, dtype=float)
    p = np.clip(analytic, 0.0, 1.0)
    return (runner.grid.positions, np.abs(analytic - np.asarray(mc, dtype=float)),
            np.maximum(0.01, 3.0 * np.sqrt(p * (1.0 - p) / runner.config.trials)))


def validate_schemes(config: RunConfig) -> tuple[ResultTable, int]:
    """Analytic-vs-Monte-Carlo agreement sweep for each configured scheme.

    Each check reports its position with the largest ratio of gap to
    limit. trigger, occurrence and interruption compare |analytic - mc|
    with max(0.01, 3 binomial standard errors at the analytic value).
    failure_z compares _failure_z scores with 4: the conditional failure
    estimate gets noisier as the conditioning event thins out.
    """
    runner, rederived, rows = FigureRunner(config), MetricMode.REDERIVED, []
    for s in config.schemes:
        z = list(map(_failure_z, runner.analytic(s, Figure.FAILURE, rederived),
                     runner.mc_rows(s, Figure.FAILURE)))
        checks = {figure.value: _normal_gaps(runner, runner.analytic(s, figure, rederived),
                                             runner.mc(s, figure).value)
                  for figure in (Figure.TRIGGER, Figure.OCCURRENCE, Figure.INTERRUPTION)}
        checks["failure_z"] = (runner.grid.positions, z, [_VALIDATE_Z_LIMIT] * len(z))
        for name, sides in checks.items():
            worst = _tally(sides, _within_relative, floor=-math.inf).worst_values
            # no usable failure position reads as 0 standard errors
            value, limit = map(float, worst) if worst else (0.0, _VALIDATE_Z_LIMIT)
            rows.append((s.value, name, value, limit, "pass" if value <= limit else "fail"))
    table = ResultTable.build(("scheme", "check", "value", "limit", "status"),
                              rows, config.provenance())
    return table, 0 if all(row[-1] == "pass" for row in rows) else 1
