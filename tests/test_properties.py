"""Properties of the analytic curves and the CLI on generated scenarios.

Scenarios span 1 to 8 units per cell, uniform or per-unit shadowing
sigmas down to the no-fading value 1e-9, all four schemes, both
selection rules, on the 250 m grid. Every analytic curve converges on
all of them: no NumericsError is allowed, and the CLI never exits 3.
Two configurations that once did are pinned as explicit cases: the
no-fading `shadow_sigma = 1e-9`, and a max-of-Gaussians cell that mixes
a 1e-9 sigma with larger ones.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover.analytics import (
    MetricMode,
    PositionGrid,
    interruption_curve,
    occurrence_masses,
    trigger_curve,
)
from railhandover.cli import main
from railhandover.scenario import Scenario, Scheme, SelectionRule

SIGMAS = (1e-9, 0.5, 4.0, 8.0, 12.0)


@st.composite
def _settings(draw) -> dict:
    """Scenario fields as they would appear in a configuration file."""
    n_raus = draw(st.integers(1, 8))
    fields = {
        "n_raus": n_raus,
        "shadow_sigma": draw(st.sampled_from(SIGMAS)),
        "selection": draw(st.sampled_from(list(SelectionRule))),
        "measurement_step": 250.0,
    }
    per_rau = draw(st.one_of(st.none(), st.lists(st.sampled_from(SIGMAS), min_size=n_raus,
                                                 max_size=n_raus).map(tuple)))
    if per_rau is not None:
        fields["shadow_sigma_per_rau"] = per_rau
    return fields


def _scenario(fields: dict, scheme: Scheme) -> Scenario:
    return Scenario(**fields, scheme=scheme)


@settings(max_examples=80)
@given(_settings(), st.sampled_from(list(Scheme)))
def test_occurrence_masses_are_a_sub_probability(fields, scheme):
    sc = _scenario(fields, scheme)
    grid = PositionGrid.for_scenario(sc)
    masses = occurrence_masses(trigger_curve(sc, grid), grid.step)
    assert (masses >= 0.0).all()
    assert masses.sum() <= 1.0 + 1e-12


@settings(max_examples=80)
@given(_settings(), st.sampled_from(list(Scheme)))
def test_rederived_interruption_never_exceeds_paper(fields, scheme):
    sc = _scenario(fields, scheme)
    grid = PositionGrid.for_scenario(sc)
    rederived = interruption_curve(sc, grid, MetricMode.REDERIVED)
    paper = interruption_curve(sc, grid, MetricMode.PAPER)
    assert (rederived <= paper).all()


def _run_cli(work, fields: dict, schemes, verb: str) -> tuple[int, str]:
    """compare or validate at 50 trials on the fields as a configuration file."""
    lines = [f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}"
             for key, value in fields.items() if key != "selection"]
    lines.append(f"selection = {fields['selection'].value}")
    (work / "case.cfg").write_text("\n".join(lines) + "\n")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([verb, "--config", str(work / "case.cfg"), "--trials", "50",
                     "--seed", "12345", "--schemes", ",".join(s.value for s in schemes),
                     "--out", str(work / "out")])
    return code, stderr.getvalue()


@settings(max_examples=25)
@given(_settings(), st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=4,
                             unique=True), st.sampled_from(["compare", "validate"]))
def test_cli_exits_cleanly_on_generated_configs(tmp_path_factory, fields, schemes, verb):
    """compare and validate at 50 trials end in exit 0 to 2, never a traceback."""
    code, stderr = _run_cli(tmp_path_factory.mktemp("cli"), fields, schemes, verb)
    assert code in (0, 1, 2), stderr


@pytest.mark.parametrize("verb", ["compare", "validate"])
@pytest.mark.parametrize("fields", [
    {"shadow_sigma": 1e-9},
    {"n_raus": 3, "shadow_sigma_per_rau": (1e-9, 4.0, 4.0)},
], ids=["no-fading", "mixed-unit-sigmas"])
def test_cli_converges_where_quadpack_did_not(tmp_path, fields, verb):
    """The blanket and traditional trigger integral at shadow_sigma = 1e-9,
    and the cell mean of units with sigmas 1e-9, 4, 4 under max-RSS
    selection, made `compare` exit 3 under QUADPACK; every scheme now
    converges."""
    fields = {**fields, "selection": SelectionRule.MAX_RSS, "measurement_step": 250.0}
    code, stderr = _run_cli(tmp_path, fields, list(Scheme), verb)
    assert code in (0, 1), stderr
