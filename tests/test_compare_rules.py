"""`compare` and `validate` verdicts pinned across scheme sets and edge configs.

Each golden file under `tests/golden/rules/` is the transcript of one
configuration on the 250 m grid at seed 12345: `compare`'s exit code,
stdout and `summary.csv`, the SHA-256 of every figure CSV it wrote,
then `validate`'s exit code and stdout and its table at 6 significant
digits. The scheme-subset cases run 200 trials. The edge cases run all
four schemes at 20 trials: as they are, with no 0.5-crossing
(`hysteresis = 1e6`, so the crossing-gap rule is omitted), with two
units per cell, and with a -80 dBm threshold (every interruption
position skipped). `tests/golden/compare_250m_paper.txt` holds the
compare part alone of `compare --mode paper --trials 200 --seed 12345`.
`tests/golden/default_grid/` holds the same parts on the default 10 m
grid at seed 12345: `compare --trials 2000` in each mode and `validate
--trials 4000`.

To rewrite the goldens after a deliberate output change, run
`PYTHONPATH=src python tests/test_compare_rules.py` and list the
changed files with the change.
"""

import contextlib
import hashlib
import io
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest

from railhandover import figures
from railhandover.cli import main, parse_config
from railhandover.figures import (
    _SKIP,
    _UNDEFINED,
    Figure,
    FigureRunner,
    Mark,
    Rule,
    _each,
    evaluate_assertions,
    validate_schemes,
)
from railhandover.montecarlo import Estimate
from railhandover.scenario import Scheme

GOLDEN = Path(__file__).parent / "golden" / "rules"
PAPER_GOLDEN = Path(__file__).parent / "golden" / "compare_250m_paper.txt"
PAPER_FLAGS = ("--mode", "paper", "--trials", "200", "--seed", "12345")
BASE = "measurement_step = 250.0\nmaster_seed = 12345\n"
DEFAULT_GOLDEN = Path(__file__).parent / "golden" / "default_grid"

CASES = {
    "+".join(s.value for s in subset): BASE + "trials = 200\nschemes = "
    + ",".join(s.value for s in subset) + "\n"
    for k in range(1, len(Scheme) + 1)
    for subset in itertools.combinations(tuple(Scheme), k)
}
CASES.update({
    "edge-trials-20": BASE + "trials = 20\n",
    "edge-no-crossing": BASE + "trials = 20\nhysteresis = 1e6\n",
    "edge-two-units": BASE + "trials = 20\nn_raus = 2\n",
    "edge-threshold-80": BASE + "trials = 20\nthreshold = -80\n",
})


def _cli(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


def compare_transcript(config_text: str, workdir: Path, *flags: str) -> str:
    config = workdir / "case.cfg"
    config.write_text(config_text)
    out = workdir / "out"
    code, stdout = _cli(["compare", "--config", str(config), "--out", str(out), *flags])
    parts = [f"$ compare -> exit {code}\n", stdout.replace(str(out), "<out>"),
             "--- summary.csv\n", (out / "summary.csv").read_text()]
    for figure in Figure:
        digest = hashlib.sha256((out / figure.filename).read_bytes()).hexdigest()
        parts.append(f"{figure.filename} sha256 {digest}\n")
    return "".join(parts)


def validate_transcript(config_text: str, workdir: Path) -> str:
    config = workdir / "case.cfg"
    config.write_text(config_text)
    code, stdout = _cli(["validate", "--config", str(config)])
    parts = [f"$ validate -> exit {code}\n", stdout, "--- validate table\n"]
    table, _ = validate_schemes(parse_config(config_text))
    table.write(workdir / "validate.csv")
    parts.append((workdir / "validate.csv").read_text())
    return "".join(parts)


def transcript(config_text: str, workdir: Path) -> str:
    return compare_transcript(config_text, workdir) + validate_transcript(config_text, workdir)


_DEFAULT_COMPARE = "trials = 2000\nmaster_seed = 12345\n"
DEFAULT_CASES = {
    "compare": lambda work: compare_transcript(_DEFAULT_COMPARE, work),
    "compare_paper": lambda work: compare_transcript(_DEFAULT_COMPARE, work, "--mode", "paper"),
    "validate": lambda work: validate_transcript("trials = 4000\nmaster_seed = 12345\n", work),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_compare_and_validate_match_golden(tmp_path, name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert transcript(CASES[name], tmp_path) == expected


def test_paper_mode_compare_matches_golden(tmp_path):
    """Paper-mode analytic columns, byte for byte through their digests."""
    expected = PAPER_GOLDEN.read_text()
    assert compare_transcript("measurement_step = 250.0\n", tmp_path, *PAPER_FLAGS) == expected


@pytest.mark.parametrize("name", sorted(DEFAULT_CASES))
def test_default_grid_matches_golden(tmp_path, name):
    """The default 10 m grid, which every other golden leaves out."""
    assert DEFAULT_CASES[name](tmp_path) == (DEFAULT_GOLDEN / f"{name}.txt").read_text()


def test_golden_cases_cover_every_scheme_subset():
    assert len(CASES) == 2 ** len(Scheme) - 1 + 4
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


# --- Monte Carlo-only ordering failures ---

# The failure window of the 250 m grid holds 1250, 1500 and 1750 m.
_MC_FAILS = {Figure.FAILURE: (1250.0, 1500.0), Figure.INTERRUPTION: (500.0, 1000.0)}
_ANALYTIC_FAILS = {Figure.FAILURE: 1250.0, Figure.INTERRUPTION: 250.0}


class _StubRunner(FigureRunner):
    """Equal analytic curves and Monte Carlo columns that order the schemes wrongly.

    Proposed's failure and interruption estimates sit far above
    traditional's at the _MC_FAILS positions, with disjoint 95%
    intervals, from base_count triggered trials for failure. With
    analytic_fail, proposed's analytic curve also exceeds traditional's at
    the _ANALYTIC_FAILS position, before those. The columns are numpy
    arrays, as the sweep returns them, so the rules must see them as
    Python numbers: on numpy booleans a verdict's analytic + MC failure
    count would be a logical or.
    """

    def __init__(self, config, analytic_fail: bool, base_count: int):
        super().__init__(config)
        self.analytic_fail = analytic_fail
        self.base_count = base_count

    def analytic(self, scheme, figure, mode):
        if figure not in _ANALYTIC_FAILS:
            return super().analytic(scheme, figure, mode)
        values = [0.2] * len(self.grid.positions)
        if self.analytic_fail and scheme is Scheme.PROPOSED:
            values[self.grid.positions.index(_ANALYTIC_FAILS[figure])] = 0.5
        return values

    def mc(self, scheme, figure):
        if figure not in _MC_FAILS:
            return super().mc(scheme, figure)
        xs = np.array(self.grid.positions)
        wrong = (scheme is Scheme.PROPOSED) & np.isin(xs, _MC_FAILS[figure])
        base = self.base_count if figure is Figure.FAILURE else 1000
        return Estimate(np.where(wrong, 0.9, 0.2), np.full(len(xs), 0.01),
                        np.full(len(xs), base))


@pytest.mark.parametrize("analytic_fail, base_count, expected", [
    (False, 500, {
        "failure_order[proposed<=traditional]": ("fail", 3, 2, 0, 1500.0),
        "interruption_lowest[proposed<=traditional]": ("fail", 13, 2, 0, 500.0),
    }),
    (True, 500, {
        "failure_order[proposed<=traditional]": ("fail", 3, 3, 0, 1500.0),
        "interruption_lowest[proposed<=traditional]": ("fail", 13, 3, 0, 250.0),
    }),
    # below MIN_CONDITION_COUNT triggered trials the failure MC side is ignored
    (False, 24, {
        "failure_order[proposed<=traditional]": ("pass", 3, 0, 0, None),
        "failure_mc_agreement[proposed]": ("inconclusive", 0, 0, 3, None),
    }),
])
def test_monte_carlo_only_ordering_failures(analytic_fail, base_count, expected):
    """failure_order moves the worst position to the last MC failure, past
    an analytic one; interruption_lowest takes an MC failure only while no
    analytic failure has set the worst position."""
    config = parse_config(BASE + "trials = 20\nschemes = proposed,traditional\n")
    got = {a.assertion: (a.status, a.checked, a.failed, a.inconclusive, a.worst_position)
           for a in evaluate_assertions(_StubRunner(config, analytic_fail, base_count))
           if a.assertion in expected}
    assert got == expected


@pytest.mark.parametrize("marks, min_share, expected", [
    ((Mark(True), Mark(True)), None, ("pass", 2, 0)),
    ((Mark(True, 1), Mark(True)), None, ("fail", 2, 1)),
    ((_UNDEFINED, _SKIP), None, ("inconclusive", 0, 0)),
    ((Mark(True, 1),) + (Mark(True),) * 9, 0.9, ("pass", 10, 0)),
    ((Mark(True, 1),) + (Mark(True),) * 8, 0.9, ("fail", 9, 1)),
    # a share rule with no position checked fails, with nothing failed
    ((_UNDEFINED, _SKIP), 0.9, ("fail", 0, 0)),
])
def test_status_of_the_counts_and_of_min_share(monkeypatch, marks, min_share, expected):
    rule = Rule("rule[{0}]", Figure.RSS, _each(), lambda runner, s: (range(len(marks)), marks),
                lambda mark: mark, "", min_share=min_share)
    monkeypatch.setattr(figures, "RULES", (rule,))
    config = parse_config(BASE + "trials = 20\nschemes = proposed\n")
    [a] = evaluate_assertions(FigureRunner(config))
    assert (a.status, a.checked, a.failed) == expected


def _write_goldens() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, text in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            (GOLDEN / f"{name}.txt").write_text(transcript(text, Path(work)))
    with tempfile.TemporaryDirectory() as work:
        PAPER_GOLDEN.write_text(compare_transcript("measurement_step = 250.0\n", Path(work),
                                                   *PAPER_FLAGS))
    DEFAULT_GOLDEN.mkdir(exist_ok=True)
    for name, make in DEFAULT_CASES.items():
        with tempfile.TemporaryDirectory() as work:
            (DEFAULT_GOLDEN / f"{name}.txt").write_text(make(Path(work)))


if __name__ == "__main__":
    _write_goldens()
