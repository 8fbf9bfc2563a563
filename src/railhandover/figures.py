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

import numpy as np
from scipy import stats as _sci_stats

from . import analytics, channel
from ._version import __version__
from .analytics import MetricMode, PositionGrid
from .montecarlo import (
    FirstCrossingEstimate,
    Metric,
    SeedPolicy,
    SweepEstimate,
    estimate_first_crossing,
    estimate_pointwise,
)
from .scenario import AntennaId, Scenario, Scheme


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
    def step(self) -> float:
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


def _quantize(value):
    if value is None or isinstance(value, str):
        return value
    v = float(value)
    if not math.isfinite(v):
        return None
    return float(f"{v:.6g}")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.6g}"


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


@dataclass(frozen=True)
class ResultTable:
    """One CSV worth of results plus its provenance line."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: str

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("every row must match the header width")

    @classmethod
    def build(cls, columns, rows, provenance: str) -> "ResultTable":
        cooked = tuple(tuple(_quantize(c) for c in row) for row in rows)
        return cls(tuple(columns), cooked, provenance)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def write(self, path: Path) -> None:
        lines = [f"# provenance: {self.provenance}", ",".join(self.columns)]
        lines.extend(",".join(_format_cell(c) for c in row) for row in self.rows)
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path: Path) -> "ResultTable":
        lines = Path(path).read_text().splitlines()
        if not lines or not lines[0].startswith("# provenance: "):
            raise ValueError(f"{path}: missing provenance header")
        provenance = lines[0][len("# provenance: "):]
        columns = tuple(lines[1].split(","))
        rows = tuple(tuple(_parse_cell(c) for c in line.split(","))
                     for line in lines[2:] if line != "")
        return cls(columns, rows, provenance)


# Metrics every pointwise sweep computes; mean RSS is added on request.
_SWEEP_METRICS = frozenset({Metric.TRIGGER, Metric.FAILURE, Metric.INTERRUPTION})


def _tag(scheme: Scheme) -> str:
    return scheme.value.replace("-", "_")


class FigureRunner:
    """Shared sweep cache behind run_figure / compare_schemes.

    Each scheme gets one Monte Carlo pointwise sweep computing every
    position-wise metric, mean RSS included only once a figure asks for
    it; draws are substream-keyed by (domain, position), so a sweep
    rerun with mean RSS reproduces the earlier columns exactly. Analytic
    curves are cached per (scheme, mode).
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.grid = PositionGrid.over(config.scenario.ds, config.step)
        self.seed = SeedPolicy(config.master_seed)
        self._pointwise: dict[Scheme, tuple[bool, list[SweepEstimate]]] = {}
        self._crossing: dict[Scheme, FirstCrossingEstimate] = {}
        self._analytic: dict[tuple, object] = {}

    def scenario_for(self, scheme: Scheme) -> Scenario:
        return self.config.scenario.with_scheme(scheme)

    # --- Monte Carlo caches ---

    def pointwise(self, scheme: Scheme, mean_rss: bool) -> list[SweepEstimate]:
        cached = self._pointwise.get(scheme)
        if cached is None or (mean_rss and not cached[0]):
            metrics = _SWEEP_METRICS | ({Metric.MEAN_RSS} if mean_rss else frozenset())
            rows = estimate_pointwise(self.scenario_for(scheme), self.grid,
                                      self.config.trials, self.seed,
                                      jobs=self.config.jobs, metrics=metrics)
            self._pointwise[scheme] = (mean_rss, rows)
        return self._pointwise[scheme][1]

    def mc_rows(self, scheme: Scheme, metric: Metric,
                antenna: AntennaId | None) -> list[SweepEstimate]:
        rows = [e for e in self.pointwise(scheme, metric is Metric.MEAN_RSS)
                if e.metric is metric and e.antenna is antenna]
        if len(rows) != len(self.grid.positions):
            raise RuntimeError("sweep rows misaligned with the grid")
        return rows

    def crossing(self, scheme: Scheme) -> FirstCrossingEstimate:
        if scheme not in self._crossing:
            self._crossing[scheme] = estimate_first_crossing(
                self.scenario_for(scheme), self.grid, self.config.trials,
                self.seed, AntennaId.FRONT, jobs=self.config.jobs)
        return self._crossing[scheme]

    # --- analytic caches ---

    def _cached(self, key, compute):
        if key not in self._analytic:
            self._analytic[key] = compute()
        return self._analytic[key]

    def trigger_values(self, scheme: Scheme) -> np.ndarray:
        return self._cached(("trigger", scheme), lambda: analytics.trigger_curve(
            self.scenario_for(scheme), self.grid))

    def occurrence_values(self, scheme: Scheme, mode: MetricMode) -> np.ndarray:
        return self._cached(("occurrence", scheme, mode),
                            lambda: analytics.occurrence_masses(
                                self.trigger_values(scheme), self.grid.step, mode))

    def failure_values(self, scheme: Scheme, mode: MetricMode) -> list:
        return self._cached(("failure", scheme, mode), lambda: analytics.failure_curve(
            self.scenario_for(scheme), self.grid, AntennaId.FRONT, mode))

    def interruption_values(self, scheme: Scheme, mode: MetricMode) -> np.ndarray:
        return self._cached(("interruption", scheme, mode),
                            lambda: analytics.interruption_curve(
                                self.scenario_for(scheme), self.grid, mode))

    def rss_values(self, scheme: Scheme) -> dict[str, list]:
        def compute():
            sc = self.scenario_for(scheme)
            # better-cell mean per antenna, as analytics.mean_rss gives it
            per = channel.cell_means(sc, self.grid)[0].max(axis=2).T.tolist()
            front = per[0]
            rear = per[1] if len(per) == 2 else None
            n = len(self.grid.positions)
            best = [max(front[i], rear[i]) if rear else front[i] for i in range(n)]
            if rear:
                combined = [10.0 * math.log10(10.0 ** (front[i] / 10.0)
                                              + 10.0 ** (rear[i] / 10.0))
                            for i in range(n)]
            else:
                combined = [None] * n
            return {"front": front, "rear": rear or [None] * n,
                    "best": best, "combined": combined}
        return self._cached(("rss", scheme), compute)

    # --- tables ---

    def table(self, figure: Figure) -> ResultTable:
        builder = {
            Figure.RSS: self._rss_table,
            Figure.TRIGGER: self._trigger_table,
            Figure.OCCURRENCE: self._occurrence_table,
            Figure.FAILURE: self._failure_table,
            Figure.INTERRUPTION: self._interruption_table,
        }[figure]
        columns, column_values = builder()
        rows = list(zip(self.grid.positions, *column_values))
        return ResultTable.build(("position_m",) + tuple(columns), rows,
                                 self.config.provenance())

    def _trigger_table(self):
        columns, values = [], []
        for s in self.config.schemes:
            tag = _tag(s)
            mc = self.mc_rows(s, Metric.TRIGGER, AntennaId.FRONT)
            columns += [f"{tag}_analytic", f"{tag}_mc", f"{tag}_mc_hw"]
            values += [list(self.trigger_values(s)),
                       [e.value for e in mc], [e.half_width_95 for e in mc]]
        return columns, values

    def _occurrence_table(self):
        mode = self.config.mode
        columns, values = [], []
        for s in self.config.schemes:
            tag = _tag(s)
            mc = self.crossing(s)
            columns += [f"{tag}_analytic_{mode.value}", f"{tag}_mc", f"{tag}_mc_hw"]
            values += [list(self.occurrence_values(s, mode)),
                       list(mc.masses), list(mc.half_widths)]
        return columns, values

    def _failure_table(self):
        mode = self.config.mode
        columns, values = [], []
        for s in self.config.schemes:
            tag = _tag(s)
            mc = self.mc_rows(s, Metric.FAILURE, AntennaId.FRONT)
            columns += [f"{tag}_analytic_{mode.value}", f"{tag}_mc",
                        f"{tag}_mc_hw", f"{tag}_mc_base"]
            values += [self.failure_values(s, mode),
                       [e.value for e in mc], [e.half_width_95 for e in mc],
                       [float(e.base_count) for e in mc]]
        return columns, values

    def _interruption_table(self):
        mode = self.config.mode
        columns, values = [], []
        for s in self.config.schemes:
            tag = _tag(s)
            mc = self.mc_rows(s, Metric.INTERRUPTION, None)
            columns += [f"{tag}_analytic_{mode.value}", f"{tag}_mc", f"{tag}_mc_hw"]
            values += [self.interruption_values(s, mode),
                       [e.value for e in mc], [e.half_width_95 for e in mc]]
        return columns, values

    def _rss_table(self):
        columns, values = [], []
        for s in self.config.schemes:
            tag = _tag(s)
            curves = self.rss_values(s)
            mc_front = self.mc_rows(s, Metric.MEAN_RSS, AntennaId.FRONT)
            two = len(self.scenario_for(s).antennas()) == 2
            if two:
                mc_comb = self.mc_rows(s, Metric.MEAN_RSS, None)
                comb_val = [e.value for e in mc_comb]
                comb_hw = [e.half_width_95 for e in mc_comb]
            else:
                comb_val = comb_hw = [None] * len(self.grid.positions)
            columns += [f"{tag}_front_dbm", f"{tag}_rear_dbm", f"{tag}_best_dbm",
                        f"{tag}_combined_dbm", f"{tag}_mc_front_dbm",
                        f"{tag}_mc_front_hw", f"{tag}_mc_combined_dbm",
                        f"{tag}_mc_combined_hw"]
            values += [curves["front"], curves["rear"], curves["best"],
                       curves["combined"], [e.value for e in mc_front],
                       [e.half_width_95 for e in mc_front], comb_val, comb_hw]
        return columns, values


def run_figure(config: RunConfig, figure: Figure) -> ResultTable:
    return FigureRunner(config).table(figure)


# === Scheme comparison ===


@dataclass(frozen=True)
class Assertion:
    """Outcome of one comparison rule across the grid.

    checked counts positions where the rule was evaluated, failed those
    where it conclusively failed, inconclusive those where overlapping
    Monte Carlo intervals (or an undefined value) prevented a verdict.
    """

    name: str
    figure: Figure
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


def _status(checked: int, failed: int) -> str:
    if failed > 0:
        return "fail"
    if checked == 0:
        return "inconclusive"
    return "pass"


def _crossing_assertions(runner: FigureRunner) -> list[Assertion]:
    out = []
    crossings = {}
    for s in runner.config.schemes:
        x_cross = analytics.first_level_crossing(runner.grid,
                                                 runner.trigger_values(s), 0.5)
        crossings[s] = x_cross
        ok = x_cross is not None and 1500.0 <= x_cross <= 1700.0
        out.append(Assertion(
            name=f"trigger_half_crossing[{s.value}]", figure=Figure.TRIGGER,
            status="pass" if ok else "fail", checked=1, failed=0 if ok else 1,
            inconclusive=0, worst_position=x_cross,
            detail="0.5-crossing inside [1500, 1700] m"))
    pair = (Scheme.PROPOSED, Scheme.DAS_BLANKET)
    if all(s in crossings and crossings[s] is not None for s in pair):
        gap = abs(crossings[pair[0]] - crossings[pair[1]])
        ok = gap <= 100.0
        out.append(Assertion(
            name="trigger_crossing_gap[proposed~das-blanket]", figure=Figure.TRIGGER,
            status="pass" if ok else "fail", checked=1, failed=0 if ok else 1,
            inconclusive=0, worst_position=crossings[pair[0]],
            detail=f"0.5-crossings {gap:.4g} m apart (limit 100)"))
    return out


def _binomial_envelope(analytic: np.ndarray, trials: int) -> np.ndarray:
    """Two-sided per-bin fluctuation allowance at 3-sigma coverage.

    Exact binomial quantiles instead of a normal approximation: with few
    trials a single count in a near-zero bin is routine, and a symmetric
    3-standard-error band would flag it. The 0.01 floor is the agreement
    budget at the acceptance trial count, where it dominates.
    """
    p = np.clip(np.asarray(analytic, dtype=float), 0.0, 1.0)
    upper = _sci_stats.binom.ppf(0.99865, trials, p) / trials - p
    lower = p - _sci_stats.binom.ppf(0.00135, trials, p) / trials
    return np.maximum(0.01, np.maximum(upper, lower))


def _occurrence_assertions(runner: FigureRunner) -> list[Assertion]:
    out = []
    for s in runner.config.schemes:
        analytic = runner.occurrence_values(s, MetricMode.REDERIVED)
        mc = runner.crossing(s).masses
        gaps = np.abs(analytic - mc)
        limits = _binomial_envelope(analytic, runner.config.trials)
        worst = int(np.argmax(gaps / limits))
        failed = int(np.count_nonzero(gaps > limits))
        out.append(Assertion(
            name=f"occurrence_match[{s.value}]", figure=Figure.OCCURRENCE,
            status=_status(len(gaps), failed), checked=len(gaps), failed=failed,
            inconclusive=0, worst_position=runner.grid.positions[worst],
            detail=f"max |analytic - mc| = {gaps[worst]:.4g} "
                   f"(limit {limits[worst]:.4g})"))
    return out


def _window_indices(grid: PositionGrid, lo: float, hi: float) -> list[int]:
    return [i for i, x in enumerate(grid.positions) if lo <= x <= hi]


def _failure_assertions(runner: FigureRunner) -> list[Assertion]:
    out = []
    schemes = runner.config.schemes
    window = _window_indices(runner.grid, 1200.0, 1800.0)

    def curve(s):
        return runner.failure_values(s, MetricMode.REDERIVED)

    if Scheme.PROPOSED in schemes and Scheme.TRADITIONAL in schemes:
        a, b = curve(Scheme.PROPOSED), curve(Scheme.TRADITIONAL)
        mc_a = runner.mc_rows(Scheme.PROPOSED, Metric.FAILURE, AntennaId.FRONT)
        mc_b = runner.mc_rows(Scheme.TRADITIONAL, Metric.FAILURE, AntennaId.FRONT)
        checked = failed = inconclusive = 0
        worst_pos, worst_gap = None, 0.0
        for i in window:
            if a[i] is None or b[i] is None:
                inconclusive += 1
                continue
            checked += 1
            if a[i] > b[i] + _ANALYTIC_SLACK:
                failed += 1
                if a[i] - b[i] > worst_gap:
                    worst_gap, worst_pos = a[i] - b[i], runner.grid.positions[i]
            ea, eb = mc_a[i], mc_b[i]
            if (ea.base_count >= MIN_CONDITION_COUNT
                    and eb.base_count >= MIN_CONDITION_COUNT
                    and ea.value - ea.half_width_95 > eb.value + eb.half_width_95):
                failed += 1
                worst_pos = runner.grid.positions[i]
        out.append(Assertion(
            name="failure_order[proposed<=traditional]", figure=Figure.FAILURE,
            status=_status(checked, failed), checked=checked, failed=failed,
            inconclusive=inconclusive, worst_position=worst_pos,
            detail="rederived failure, window [1200, 1800] m"))

    if Scheme.PROPOSED in schemes and Scheme.DAS_SINGLE in schemes:
        a, b = curve(Scheme.PROPOSED), curve(Scheme.DAS_SINGLE)
        checked = failed = inconclusive = 0
        worst_pos, worst_gap = None, 0.0
        for i in window:
            if a[i] is None or b[i] is None:
                inconclusive += 1
                continue
            checked += 1
            gap = abs(a[i] - b[i])
            if gap > 0.02:
                failed += 1
            if gap > worst_gap:
                worst_gap, worst_pos = gap, runner.grid.positions[i]
        out.append(Assertion(
            name="failure_similar[proposed~das-single]", figure=Figure.FAILURE,
            status=_status(checked, failed), checked=checked, failed=failed,
            inconclusive=inconclusive, worst_position=worst_pos,
            detail=f"max |gap| = {worst_gap:.4g} (limit 0.02), window [1200, 1800] m"))

    # the failure comparison rule covers the selection schemes and the
    # traditional baseline; the blanket scheme has no similarity claim
    for s in schemes:
        if s is Scheme.DAS_BLANKET:
            continue
        analytic = curve(s)
        mc = runner.mc_rows(s, Metric.FAILURE, AntennaId.FRONT)
        checked = failed = inconclusive = 0
        worst_pos, worst_z = None, 0.0
        for i in window:
            e = mc[i]
            if analytic[i] is None or e.base_count < MIN_CONDITION_COUNT:
                inconclusive += 1
                continue
            checked += 1
            se = e.half_width_95 / 1.96
            z = abs(analytic[i] - e.value) / se if se > 0 else 0.0
            if z > 3.0:
                failed += 1
            if z > worst_z:
                worst_z, worst_pos = z, runner.grid.positions[i]
        out.append(Assertion(
            name=f"failure_mc_agreement[{s.value}]", figure=Figure.FAILURE,
            status=_status(checked, failed), checked=checked, failed=failed,
            inconclusive=inconclusive, worst_position=worst_pos,
            detail=f"max |analytic - mc| = {worst_z:.3g} standard errors (limit 3)"))
    return out


def _interruption_assertions(runner: FigureRunner) -> list[Assertion]:
    out = []
    schemes = runner.config.schemes
    if Scheme.PROPOSED not in schemes:
        return out
    a = runner.interruption_values(Scheme.PROPOSED, MetricMode.REDERIVED)
    mc_a = runner.mc_rows(Scheme.PROPOSED, Metric.INTERRUPTION, None)
    for other in schemes:
        if other is Scheme.PROPOSED:
            continue
        b = runner.interruption_values(other, MetricMode.REDERIVED)
        mc_b = runner.mc_rows(other, Metric.INTERRUPTION, None)
        checked = failed = inconclusive = skipped = 0
        worst_pos, worst_gap = None, 0.0
        for i, x in enumerate(runner.grid.positions):
            ea, eb = mc_a[i], mc_b[i]
            if max(a[i], b[i], ea.value, eb.value) < NEGLIGIBLE_INTERRUPTION:
                skipped += 1
                continue
            checked += 1
            if a[i] > b[i] + _ANALYTIC_SLACK:
                failed += 1
                if a[i] - b[i] > worst_gap:
                    worst_gap, worst_pos = a[i] - b[i], x
            if ea.value - ea.half_width_95 > eb.value + eb.half_width_95:
                failed += 1
                if worst_pos is None:
                    worst_pos = x
            elif ea.value > eb.value:
                inconclusive += 1
        out.append(Assertion(
            name=f"interruption_lowest[proposed<={other.value}]",
            figure=Figure.INTERRUPTION,
            status=_status(checked, failed), checked=checked, failed=failed,
            inconclusive=inconclusive, worst_position=worst_pos,
            detail=f"{skipped} positions skipped below {NEGLIGIBLE_INTERRUPTION:g}"))
    return out


def _rss_assertions(runner: FigureRunner) -> list[Assertion]:
    out = []
    schemes = runner.config.schemes
    if Scheme.PROPOSED not in schemes:
        return out
    best = runner.rss_values(Scheme.PROPOSED)["best"]
    n = len(runner.grid.positions)
    if Scheme.DAS_SINGLE in schemes:
        single = runner.rss_values(Scheme.DAS_SINGLE)["front"]
        bad = [i for i in range(n) if best[i] < single[i] - 1e-9]
        out.append(Assertion(
            name="rss_dominates[proposed>=das-single]", figure=Figure.RSS,
            status=_status(n, len(bad)), checked=n, failed=len(bad),
            inconclusive=0,
            worst_position=runner.grid.positions[bad[0]] if bad else None,
            detail="two-antenna best trace dominates the single-antenna trace"))
    if Scheme.TRADITIONAL in schemes:
        trad = runner.rss_values(Scheme.TRADITIONAL)["front"]
        bad = [i for i in range(n) if best[i] < trad[i]]
        share = 1.0 - len(bad) / n
        ok = share >= 0.9
        worst = runner.grid.positions[bad[0]] if bad else None
        out.append(Assertion(
            name="rss_mostly_highest[proposed>=traditional@90%]", figure=Figure.RSS,
            status="pass" if ok else "fail", checked=n,
            failed=0 if ok else len(bad), inconclusive=0, worst_position=worst,
            detail=f"proposed >= traditional at {100.0 * share:.1f}% of positions"))
    return out


def evaluate_assertions(runner: FigureRunner) -> list[Assertion]:
    """All comparison rules applicable to the configured scheme set.

    Ordering rules always compare rederived analytic curves; Monte Carlo
    sides of a rule only count against it when the 95% intervals are
    disjoint, otherwise the position is tallied as inconclusive.
    """
    out = []
    out += _crossing_assertions(runner)
    out += _occurrence_assertions(runner)
    out += _failure_assertions(runner)
    out += _interruption_assertions(runner)
    out += _rss_assertions(runner)
    return out


def summary_table(assertions: list[Assertion], config: RunConfig) -> ResultTable:
    columns = ("assertion", "figure", "status", "checked", "failed",
               "inconclusive", "worst_position", "detail")
    rows = [(a.name, a.figure.filename, a.status, float(a.checked),
             float(a.failed), float(a.inconclusive), a.worst_position, a.detail)
            for a in assertions]
    return ResultTable.build(columns, rows, config.provenance())


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
    summary = summary_table(assertions, config)
    summary.write(out_dir / SUMMARY_FILE)
    exit_status = 1 if any(a.status == "fail" for a in assertions) else 0
    return summary, exit_status


def validate_schemes(config: RunConfig) -> tuple[ResultTable, int]:
    """Analytic-vs-Monte-Carlo agreement sweep for each configured scheme.

    Position-wise metrics must track their estimators within 0.01 (or
    four standard errors for the conditional failure metric, which gets
    noisier as the conditioning event thins out).
    """
    runner = FigureRunner(config)
    rows = []
    ok = True

    def worst_case(analytic, mc):
        # abs budget 0.01 at the acceptance trial count, widened per
        # position when the estimator is noisier than that
        analytic = np.asarray(analytic, dtype=float)
        gaps = np.abs(analytic - np.asarray(mc, dtype=float))
        p = np.clip(analytic, 0.0, 1.0)
        limits = np.maximum(0.01, 3.0 * np.sqrt(p * (1.0 - p) / config.trials))
        i = int(np.argmax(gaps / limits))
        return float(gaps[i]), float(limits[i])

    for s in config.schemes:
        checks = []
        trig = [e.value for e in runner.mc_rows(s, Metric.TRIGGER, AntennaId.FRONT)]
        checks.append(("trigger", *worst_case(runner.trigger_values(s), trig)))
        checks.append(("occurrence", *worst_case(
            runner.occurrence_values(s, MetricMode.REDERIVED),
            runner.crossing(s).masses)))
        inter = [e.value for e in runner.mc_rows(s, Metric.INTERRUPTION, None)]
        checks.append(("interruption", *worst_case(
            runner.interruption_values(s, MetricMode.REDERIVED), inter)))
        worst_z = 0.0
        analytic = runner.failure_values(s, MetricMode.REDERIVED)
        for i, e in enumerate(runner.mc_rows(s, Metric.FAILURE, AntennaId.FRONT)):
            if analytic[i] is None or e.base_count < MIN_CONDITION_COUNT:
                continue
            se = e.half_width_95 / 1.96
            if se > 0:
                worst_z = max(worst_z, abs(analytic[i] - e.value) / se)
        checks.append(("failure_z", worst_z, 4.0))
        for name, value, limit in checks:
            status = "pass" if value <= limit else "fail"
            ok = ok and status == "pass"
            rows.append((s.value, name, value, limit, status))
    table = ResultTable.build(("scheme", "check", "value", "limit", "status"),
                              rows, config.provenance())
    return table, 0 if ok else 1
