"""Properties of the analytic curves and the CLI on generated scenarios.

Scenarios span 1 to 8 units per cell, uniform or per-unit shadowing
sigmas down to the no-fading value 1e-9, all four schemes, both
selection rules, on the 250 m grid. Every analytic curve converges on
all of them: no NumericsError is allowed, and the CLI never exits 3.
Two configurations that once did are pinned as explicit cases: the
no-fading `shadow_sigma = 1e-9`, and a max-of-Gaussians cell that mixes
a 1e-9 sigma with larger ones.

Configurations at extreme magnitudes, every float key from 0 to 1e300
on grids of 1 to 40 steps, run through every verb at 20 trials: each
ends in an exit code, 0 to 3, with no traceback and no numpy warning.
"""

import contextlib
import io
import typing
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from railhandover.analytics import (
    MetricMode,
    PositionGrid,
    interruption_curve,
    occurrence_masses,
    trigger_curve,
)
from railhandover.cli import main
from railhandover.figures import Figure
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


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return value.value if isinstance(value, Enum) else str(value)


def _run_cli(work, fields: dict, schemes, argv: list[str], trials: int = 50) -> tuple[int, str]:
    """argv at the given trials on the fields as a configuration file."""
    (work / "case.cfg").write_text("".join(f"{key} = {_text(value)}\n"
                                           for key, value in fields.items()))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--config", str(work / "case.cfg"), "--trials", str(trials),
                     "--seed", "12345", "--schemes", ",".join(s.value for s in schemes),
                     "--out", str(work / "out")])
    return code, stderr.getvalue()


@settings(max_examples=25)
@given(_settings(), st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=4,
                             unique=True), st.sampled_from(["compare", "validate"]))
def test_cli_exits_cleanly_on_generated_configs(tmp_path_factory, fields, schemes, verb):
    """compare and validate at 50 trials end in exit 0 to 2, never a traceback."""
    code, stderr = _run_cli(tmp_path_factory.mktemp("cli"), fields, schemes, [verb])
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
    code, stderr = _run_cli(tmp_path, fields, list(Scheme), [verb])
    assert code in (0, 1), stderr


MAGNITUDES = (0.0, 1e-300, 1e-9, 1.0, 30.0, 1e3, 1e300)
SIGNED = ("tx_power", "pathloss_a", "threshold", "noise_density")
ARGVS = [["run", "--figure", f.value] for f in Figure] + [["compare"], ["validate"], ["trace"]]


@st.composite
def _extreme_settings(draw) -> dict:
    """Every float config key at a magnitude from 0 to 1e300, negative too
    where a sign is legal; measurement_step divides ds into 1 to 40 steps."""
    magnitude = st.sampled_from(MAGNITUDES)
    fields = {}
    for key, kind in typing.get_type_hints(Scenario).items():
        if kind is float and key not in ("measurement_step", "dr"):
            sign = -1.0 if key in SIGNED and draw(st.booleans()) else 1.0
            fields[key] = sign * draw(magnitude)
    fields["n_raus"] = n_raus = draw(st.integers(1, 12))
    fields["measurement_step"] = fields["ds"] / draw(st.integers(1, 40))
    dr = draw(st.none() | magnitude)
    if dr is not None:
        fields["dr"] = dr
    per_rau = draw(st.none() | st.lists(magnitude, min_size=n_raus, max_size=n_raus))
    if per_rau is not None:
        fields["shadow_sigma_per_rau"] = tuple(per_rau)
    fields["selection"] = draw(st.sampled_from(list(SelectionRule)))
    return fields


def _pinned(argv, schemes, **fields):
    return example(fields={**fields, "measurement_step": 250.0}, schemes=schemes, argv=argv)


@settings(max_examples=300)
@given(fields=_extreme_settings(), argv=st.sampled_from(ARGVS),
       schemes=st.lists(st.sampled_from(list(Scheme)), min_size=1, max_size=4, unique=True))
@_pinned(["run", "--figure", "trigger"], list(Scheme), hysteresis=1e300, shadow_sigma=1e-9)
@_pinned(["run", "--figure", "interruption"], list(Scheme), threshold=1e300, shadow_sigma=1e-9)
@_pinned(["run", "--figure", "failure"], [Scheme.PROPOSED], shadow_sigma=1e-300)
@_pinned(["validate"], [Scheme.TRADITIONAL], shadow_sigma=1e300)
@_pinned(["run", "--figure", "rss"], [Scheme.TRADITIONAL], shadow_sigma=1e300)
def test_cli_exits_cleanly_at_extreme_magnitudes(tmp_path_factory, fields, argv, schemes):
    """Every verb at 20 trials ends in an exit code, 0 to 3, with no
    traceback and no numpy warning (the suite makes RuntimeWarning an
    error). The pinned cases each printed one or more: an overflow to +-inf
    that is a certain or impossible trigger, a step CDF or an infinite
    half-width, or, for the validate case, on the way to its exit 3."""
    code, stderr = _run_cli(tmp_path_factory.mktemp("cli"), fields, schemes, argv, trials=20)
    assert code in (0, 1, 2, 3), stderr
