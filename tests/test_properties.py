"""Properties of the analytic curves and the CLI on generated scenarios.

Scenarios span 1 to 8 units per cell, uniform or per-unit shadowing
sigmas down to the no-fading value 1e-9, all four schemes, both
selection rules, on the 250 m grid. Two integrals are known not to
converge when a link's sigma is 1e-9 (NumericsError, CLI exit 3; see
CHANGES.md): the blanket and traditional trigger integral, and the mean
of a max-of-Gaussians cell that mixes a 1e-9 sigma with larger ones.
The tests below accept those failures only where a sigma is 1e-9.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover.analytics import (
    MetricMode,
    PositionGrid,
    interruption_curve,
    occurrence_prob,
)
from railhandover.cli import main
from railhandover.scenario import SELECTION_SCHEMES, Scenario, Scheme, SelectionRule
from railhandover.statfun import NumericsError

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


def _no_fading_link(sc: Scenario) -> bool:
    return min((sc.shadow_sigma, *(sc.shadow_sigma_per_rau or ()))) <= 1e-9


@settings(max_examples=80)
@given(_settings(), st.sampled_from(list(Scheme)))
def test_occurrence_masses_are_a_sub_probability(fields, scheme):
    sc = _scenario(fields, scheme)
    try:
        masses = occurrence_prob(sc, PositionGrid.for_scenario(sc))
    except NumericsError:
        # only the trigger integral runs here; the selection schemes use a closed form
        assert sc.scheme not in SELECTION_SCHEMES and _no_fading_link(sc)
        return
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


@settings(max_examples=25)
@given(_settings(), st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=4,
                             unique=True), st.sampled_from(["compare", "validate"]))
def test_cli_exits_cleanly_on_generated_configs(tmp_path_factory, fields, schemes, verb):
    """compare and validate at 50 trials end in exit 0 to 3, never a traceback."""
    work = tmp_path_factory.mktemp("cli")
    lines = [f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}"
             for key, value in fields.items() if key != "selection"]
    lines.append(f"selection = {fields['selection'].value}")
    (work / "case.cfg").write_text("\n".join(lines) + "\n")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([verb, "--config", str(work / "case.cfg"), "--trials", "50",
                     "--seed", "12345", "--schemes", ",".join(s.value for s in schemes),
                     "--out", str(work / "out")])
    assert code in (0, 1, 2, 3), stderr.getvalue()
    if code == 3:
        assert _no_fading_link(_scenario(fields, schemes[0])), stderr.getvalue()
