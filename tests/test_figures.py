"""Reproduction tables: quantization, round-trips, agreement gates.

The compare and validate runs are statistical gates, so their seeds,
trial counts and grid steps are pinned to combinations whose margins
were checked against independent large-trial re-runs.
"""

import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover.analytics import MetricMode
from railhandover.cli import main
from railhandover.figures import (
    Figure,
    FigureRunner,
    ResultTable,
    RunConfig,
    _binomial_envelope,
    _binomial_quantile,
    _cell,
    compare_schemes,
    run_figure,
    validate_schemes,
)
from railhandover.scenario import Scenario, Scheme


GOLDEN = Path(__file__).parent / "golden" / "compare_250m"


def _config(**kw):
    defaults = dict(
        scenario=replace(Scenario(), measurement_step=50.0),
        trials=2000,
        master_seed=7,
        schemes=(Scheme.PROPOSED,),
        jobs=4,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="non-empty"):
        RunConfig(schemes=())
    with pytest.raises(ValueError, match="repeat"):
        RunConfig(schemes=(Scheme.PROPOSED, Scheme.PROPOSED))
    with pytest.raises(ValueError, match="trials"):
        RunConfig(trials=0)
    with pytest.raises(ValueError, match="jobs"):
        RunConfig(jobs=0)


def test_fingerprint_ignores_execution_details(tmp_path):
    base = RunConfig()
    assert base.fingerprint() == RunConfig(jobs=8).fingerprint()
    assert base.fingerprint() == RunConfig(output_dir=tmp_path).fingerprint()
    assert base.fingerprint() != RunConfig(trials=999).fingerprint()
    assert base.fingerprint() != RunConfig(master_seed=1).fingerprint()
    assert base.fingerprint() != RunConfig(
        scenario=replace(Scenario(), hysteresis=3.0)).fingerprint()


def test_provenance_names_the_run():
    cfg = RunConfig(trials=123, master_seed=9, mode=MetricMode.PAPER,
                    schemes=(Scheme.TRADITIONAL,))
    text = cfg.provenance()
    for token in ("seed=9", "trials=123", "mode=paper", "schemes=traditional",
                  "step=10", f"config={cfg.fingerprint()}"):
        assert token in text


def _quantize(value):
    """A cell as a table keeps it: 6 significant digits, None if not finite."""
    return _cell(value)[0]


def test_quantize_pins_six_significant_digits():
    assert _quantize(0.123456789) == 0.123457
    assert _quantize(1234567.89) == 1234570.0
    assert _quantize(None) is None
    assert _quantize("text") == "text"
    assert _quantize(float("nan")) is None
    assert _quantize(float("inf")) is None


def _parse_cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _read_table(path: Path) -> ResultTable:
    """A written table read back as CSV, each cell a float, a string or None."""
    first, _, body = Path(path).read_text().partition("\n")
    if not first.startswith("# provenance: "):
        raise ValueError(f"{path}: missing provenance header")
    columns, *rows = (fields for fields in csv.reader(io.StringIO(body)) if fields)
    cells = tuple(tuple(_parse_cell(c) for c in fields) for fields in rows)
    return ResultTable.build(tuple(columns), cells, first[len("# provenance: "):])


def _column(table: ResultTable, name: str) -> list:
    idx = table.columns.index(name)
    return [row[idx] for row in table.rows]


def test_result_table_round_trip(tmp_path):
    table = ResultTable.build(
        ("position_m", "value", "label"),
        [(0.0, 0.123456789, "a"), (10.0, None, 'window [1, 2] m, "b"')],
        provenance="seed=1 trials=2",
    )
    path = tmp_path / "t.csv"
    table.write(path)
    text = path.read_text()
    assert text.startswith("# provenance: seed=1 trials=2\n")
    back = _read_table(path)
    assert back.columns == table.columns
    assert back.provenance == table.provenance
    assert back.rows == table.rows
    assert back.lines == table.lines
    assert _column(back, "value") == [0.123457, None]
    assert _column(back, "label") == ["a", 'window [1, 2] m, "b"']


def _quantized_text(cell) -> str:
    """A cell as a table wrote it when it quantized first and formatted the result again."""
    q = _quantize(cell)
    return "" if q is None else q if isinstance(q, str) else f"{q:.6g}"


@settings(max_examples=200)
@given(st.lists(st.one_of(st.none(), st.text(alphabet="ab_", max_size=3),
                          st.floats(), st.integers(-10**20, 10**20)), min_size=1, max_size=6))
def test_text_kept_from_build_is_the_text_of_its_quantized_rows(cells):
    """build formats each cell once and keeps that text for write: it equals
    the quantized value formatted again, so a table built from read-back
    rows writes the same bytes."""
    columns = tuple(f"c{i}" for i in range(len(cells)))
    built = ResultTable.build(columns, [cells], "p")
    assert built.lines == (",".join(map(_quantized_text, cells)),)


def test_figure_filenames():
    assert Figure.RSS.filename == "fig3_rss.csv"
    assert Figure.TRIGGER.filename == "fig4_trigger.csv"
    assert Figure.OCCURRENCE.filename == "fig5_occurrence.csv"
    assert Figure.FAILURE.filename == "fig6_failure.csv"
    assert Figure.INTERRUPTION.filename == "fig7_interruption.csv"


def test_trigger_figure_degenerate_step():
    cfg = _config(scenario=replace(Scenario(), shadow_sigma=1e-9,
                                   measurement_step=50.0),
                  trials=10, master_seed=1)
    table = run_figure(cfg, Figure.TRIGGER)
    ana = _column(table, "proposed_analytic")
    mc = _column(table, "proposed_mc")
    assert set(ana) == {0.0, 1.0}
    assert ana == mc
    xs = _column(table, "position_m")
    jump = min(x for x, v in zip(xs, ana) if v == 1.0)
    assert jump == 1550.0  # first 50 m point past the deterministic onset


def test_rss_figure_traditional_origin():
    cfg = _config(schemes=(Scheme.TRADITIONAL,), trials=10)
    table = run_figure(cfg, Figure.RSS)
    assert _column(table, "position_m")[0] == 0.0
    assert _column(table, "traditional_front_dbm")[0] == pytest.approx(-15.5)


def test_rerun_is_byte_identical(tmp_path):
    cfg = _config(trials=50)
    for name in ("a.csv", "b.csv"):
        run_figure(cfg, Figure.OCCURRENCE).write(tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_binomial_envelope_floor_at_large_trials():
    env = _binomial_envelope(np.array([0.0, 0.2, 0.5, 1.0]), 100_000)
    assert np.all(env == 0.01)
    # in the rare-event regime the allowance widens with the Poisson tail
    small = _binomial_envelope(np.array([5e-4]), 10)
    assert small[0] > 0.01


_QUANTILES = (0.00135, 0.99865)


def _assert_binomial_quantiles_match_scipy(trials, p):
    from scipy.stats import binom

    for q, got in zip(_QUANTILES, _binomial_quantile(_QUANTILES, trials, p)):
        assert np.array_equal(got, binom.ppf(q, trials, p)), (q, trials)


def test_binomial_quantile_matches_scipy_on_the_goldens_and_acceptance_runs():
    """Every analytic occurrence mass the golden transcripts, the golden
    compare CSVs, the acceptance runs and the benchmark's compare feed the
    envelope, at their trial counts."""
    from railhandover.cli import parse_config
    from test_compare_rules import CASES

    configs = [parse_config(text) for text in CASES.values()]
    configs += [RunConfig(scenario=Scenario(measurement_step=step), trials=trials)
                for step, trials in ((250.0, 200), (250.0, 2000), (50.0, 2000),
                                     (10.0, 100_000))]
    for config in configs:
        runner = FigureRunner(config)
        for scheme in config.schemes:
            p = np.clip(runner.analytic(scheme, Figure.OCCURRENCE, MetricMode.REDERIVED),
                        0.0, 1.0)
            _assert_binomial_quantiles_match_scipy(config.trials, p)


@settings(max_examples=200)
@given(st.integers(1, 100_000),
       st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0),
                          st.floats(0.0, 1e-3), st.floats(1e-300, 1e-6)), min_size=1))
def test_binomial_quantile_matches_scipy_on_generated_masses(trials, p):
    _assert_binomial_quantiles_match_scipy(trials, np.array(p))


@pytest.mark.parametrize("trials", [1, 2, 20, 200, 2000, 100_000])
def test_binomial_quantile_matches_scipy_beside_its_steps(trials):
    """Masses one part in 1e9 either side of each point where the quantile
    steps, that is where P(count <= k) equals the quantile level. At the
    point itself both sides of the comparison round that CDF to within an
    ulp or so of the level, and which count comes out is decided by how
    each implementation rounds, so the point itself is not compared."""
    from scipy.special import bdtri
    from scipy.stats import binom

    counts = np.arange(min(trials, 3000))
    for q in _QUANTILES:
        steps = bdtri(counts, trials, q)
        for side in (1.0 - 1e-9, 1.0 + 1e-9):
            p = np.clip(steps * side, 0.0, 1.0)
            assert np.array_equal(_binomial_quantile((q,), trials, p)[0],
                                  binom.ppf(q, trials, p))
    _assert_binomial_quantiles_match_scipy(trials, np.array([0.0, 1.0]))


def test_compare_single_scheme_passes(tmp_path):
    cfg = _config(trials=20_000, output_dir=tmp_path, jobs=8)
    summary, code = compare_schemes(cfg)
    assert code == 0
    assert all((tmp_path / f).exists() for f in (
        "fig3_rss.csv", "fig4_trigger.csv", "fig5_occurrence.csv",
        "fig6_failure.csv", "fig7_interruption.csv", "summary.csv"))
    statuses = dict(zip(_column(summary, "assertion"), _column(summary, "status")))
    for name in ("trigger_half_crossing[proposed]", "occurrence_match[proposed]",
                 "failure_mc_agreement[proposed]"):
        assert statuses[name] == "pass", name


def test_compare_tiny_trials_is_honestly_inconclusive(tmp_path):
    cfg = _config(trials=10, schemes=(Scheme.PROPOSED, Scheme.DAS_BLANKET),
                  output_dir=tmp_path)
    summary, code = compare_schemes(cfg)
    assert code == 0
    rows = {name: (status, inconclusive) for name, status, inconclusive in zip(
        _column(summary, "assertion"), _column(summary, "status"),
        _column(summary, "inconclusive"))}
    status, inconclusive = rows["failure_mc_agreement[proposed]"]
    assert status in ("pass", "inconclusive")
    assert inconclusive > 0


def test_validate_proposed_beats_traditional(tmp_path):
    cfg = _config(trials=4000, schemes=(Scheme.PROPOSED, Scheme.TRADITIONAL),
                  output_dir=tmp_path, jobs=8)
    table, code = validate_schemes(cfg)
    assert code == 0
    assert set(_column(table, "status")) == {"pass"}


@pytest.mark.parametrize("schemes, shadowing", [
    (tuple(Scheme), 3), ((Scheme.DAS_SINGLE,), 1), ((Scheme.DAS_SINGLE, Scheme.PROPOSED), 1),
    ((Scheme.DAS_BLANKET, Scheme.TRADITIONAL), 2)])
def test_compare_sweeps_once_and_shadows_repeated_links_once(tmp_path, monkeypatch,
                                                             schemes, shadowing):
    """One pointwise sweep and one failure quadrature per compare; das-single's
    links are proposed's front antenna's, so it reads proposed's counts in
    either order."""
    from railhandover import analytics, channel, figures

    sweeps, shadowed, failures = [], [], []
    real_sweep, real_shadowed = figures.estimate_pointwise, channel.LinkTable.shadowed
    real_failure = analytics.failure_curve
    monkeypatch.setattr(figures, "estimate_pointwise",
                        lambda *a, **k: sweeps.append(a) or real_sweep(*a, **k))
    monkeypatch.setattr(channel.LinkTable, "shadowed",
                        lambda *a: shadowed.append(a) or real_shadowed(*a))
    monkeypatch.setattr(analytics, "failure_curve",
                        lambda *a, **k: failures.append(a) or real_failure(*a, **k))
    cfg = _config(scenario=Scenario(measurement_step=250.0), trials=20, schemes=schemes,
                  output_dir=tmp_path)
    compare_schemes(cfg)
    positions = len(FigureRunner(cfg).grid.positions)
    assert (len(sweeps), len(shadowed), len(failures)) == (1, shadowing * positions, 1)


def test_runner_tables_are_reproducible():
    cfg = _config(trials=20)
    runner = FigureRunner(cfg)
    assert runner.table(Figure.TRIGGER) == runner.table(Figure.TRIGGER)
    assert runner.table(Figure.TRIGGER) == FigureRunner(cfg).table(Figure.TRIGGER)


@pytest.mark.parametrize("mode", list(MetricMode))
def test_every_analytic_curve_is_a_float_array(mode):
    """Each curve figure's analytic side is a float64 array over the grid;
    failure is NaN exactly where the trigger curve is below TRIGGER_FLOOR."""
    from railhandover.analytics import TRIGGER_FLOOR

    cfg = _config(scenario=Scenario(measurement_step=250.0, hysteresis=12.0),
                  schemes=tuple(Scheme))
    runner = FigureRunner(cfg)
    undefined = defined = 0
    for s in cfg.schemes:
        for figure in (Figure.TRIGGER, Figure.OCCURRENCE, Figure.FAILURE, Figure.INTERRUPTION):
            curve = runner.analytic(s, figure, mode)
            assert isinstance(curve, np.ndarray)
            assert (curve.dtype, curve.shape) == (np.float64, (len(runner.grid.positions),))
        nan = np.isnan(runner.analytic(s, Figure.FAILURE, mode))
        assert nan.tolist() == (runner.analytic(s, Figure.TRIGGER, mode) < TRIGGER_FLOOR).tolist()
        undefined += np.count_nonzero(nan)
        defined += np.count_nonzero(~nan)
    assert undefined > 0 and defined > 0


def test_runner_sweeps_again_only_to_add_mean_rss(monkeypatch):
    """The runner keeps one pointwise sweep per run, and sweeps again only
    when a table needs mean RSS that the kept sweep lacks; the sweep with
    mean RSS gives the trigger table unchanged."""
    from railhandover import figures

    flags, real_sweep = [], figures.estimate_pointwise

    def counting(*args, mean_rss=False, **kwargs):
        flags.append(mean_rss)
        return real_sweep(*args, mean_rss=mean_rss, **kwargs)

    monkeypatch.setattr(figures, "estimate_pointwise", counting)
    cfg = _config(scenario=Scenario(measurement_step=250.0), trials=20, schemes=tuple(Scheme))
    runner = FigureRunner(cfg)
    trigger = runner.table(Figure.TRIGGER)
    runner.table(Figure.RSS)
    runner.table(Figure.RSS)
    assert flags == [False, True]
    assert runner.table(Figure.TRIGGER) == trigger
    fresh = FigureRunner(cfg)
    fresh.table(Figure.RSS)
    assert fresh.table(Figure.TRIGGER) == trigger
    assert flags == [False, True, True]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_compare_matches_golden_output(tmp_path, capsys, jobs):
    """`compare --trials 200 --seed 12345` on a 250 m grid, byte for byte.

    Any change to a CSV byte, at any job count, changes the published
    numbers and must come with regenerated golden files.
    """
    config = tmp_path / "coarse.cfg"
    config.write_text("measurement_step = 250.0\n")
    out = tmp_path / "out"
    code = main(["compare", "--trials", "200", "--seed", "12345", "--jobs", jobs,
                 "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    # near the base stations the tower wins interruption and, on this coarse
    # grid, mean RSS; both full-span rules report fail
    assert code == 1
    golden = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in out.iterdir()) == golden
    for name in golden:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        _read_table(out / name)  # a CSV reader finds every row as wide as the header


@pytest.mark.parametrize("text", ["tx_power = 5000\n", "d0 = 1e300\n", "tx_power = -3110\n"],
                         ids=["overflow", "underflow", "subnormal"])
def test_combined_trace_stays_finite_at_extreme_means(tmp_path, capsys, recwarn, text):
    """Cell means near 4 900 dBm overflow the plain power sum of the two
    antennas, near -10 446 dBm underflow it to 0, and near -3 230 dBm make
    its terms subnormal: the analytic and the Monte Carlo combined traces
    stay finite, with nothing on stderr, and the analytic one is the power
    sum of its row's front and rear columns up to their 6-digit rounding."""
    config = tmp_path / "extreme.cfg"
    config.write_text("measurement_step = 250\n" + text)
    code = main(["compare", "--trials", "50", "--schemes", "traditional",
                 "--config", str(config), "--out", str(tmp_path)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in recwarn] == []
    table = np.genfromtxt(tmp_path / "fig3_rss.csv", delimiter=",", names=True, skip_header=1)
    assert len(table) == 13
    assert np.isfinite(table["traditional_combined_dbm"]).all()
    assert np.isfinite(table["traditional_mc_combined_dbm"]).all()
    for front, rear, combined in table[["traditional_front_dbm", "traditional_rear_dbm",
                                        "traditional_combined_dbm"]]:
        factored = max(front, rear) + 10.0 * math.log10(1.0 + 10.0 ** (-abs(front - rear) / 10.0))
        assert combined == pytest.approx(factored, abs=0.02)
