"""Parameter model (defaults, validation), the oracle's node placement, and the
per-RAU sigma override as the link table reads it."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from railhandover import channel
from railhandover.scenario import (
    AntennaId,
    CellId,
    PositionGrid,
    Scenario,
    Scheme,
    SelectionRule,
)
from link_oracle import Node, antenna_x, bs_position, link_distance, rau_positions


def test_default_parameters(sc):
    assert sc.ds == 3000.0
    assert sc.dr == 750.0
    assert sc.d0 == 100.0
    assert sc.du == 60.0
    assert sc.train_length == 200.0
    assert sc.speed == 100.0
    assert sc.n_raus == 4
    assert sc.tx_power == 86.0
    assert sc.shadow_sigma == 4.0
    assert sc.pathloss_a == 31.5
    assert sc.pathloss_gamma == 3.5
    assert sc.hysteresis == 2.0
    assert sc.threshold == -30.0
    assert sc.measurement_step == 10.0
    assert sc.noise_density == -145.0
    assert sc.scheme is Scheme.PROPOSED
    assert sc.selection is SelectionRule.MAX_RSS


def test_dr_defaults_to_even_coverage():
    assert Scenario(n_raus=8).dr == pytest.approx(375.0)
    assert Scenario(ds=2000.0, n_raus=5).dr == pytest.approx(400.0)
    assert Scenario(dr=500.0).dr == 500.0


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"ds": 0.0}, "ds"),
        ({"ds": -1.0}, "ds"),
        ({"dr": -5.0}, "dr"),
        ({"dr": 4000.0}, "dr"),
        ({"d0": -1.0}, "d0"),
        ({"du": -1.0}, "du"),
        ({"train_length": -1.0}, "train_length"),
        ({"speed": 0.0}, "speed"),
        ({"n_raus": 0}, "n_raus"),
        ({"shadow_sigma": 0.0}, "shadow_sigma"),
        ({"shadow_sigma": -4.0}, "shadow_sigma"),
        ({"hysteresis": -1.0}, "hysteresis"),
        ({"measurement_step": 0.0}, "measurement_step"),
        ({"tx_power": float("inf")}, "tx_power"),
        ({"threshold": float("nan")}, "threshold"),
        ({"shadow_sigma_per_rau": (4.0, 4.0)}, "shadow_sigma_per_rau"),
        ({"shadow_sigma_per_rau": (4.0, 4.0, 4.0, 0.0)}, "shadow_sigma_per_rau"),
        ({"ds": float("inf")}, "ds"),
        ({"hysteresis": float("inf")}, "hysteresis"),
        ({"speed": float("inf")}, "speed"),
        ({"shadow_sigma": float("inf")}, "shadow_sigma"),
        ({"measurement_step": float("inf")}, "measurement_step"),
        ({"noise_density": float("inf")}, "noise_density"),
        ({"noise_density": float("nan")}, "noise_density"),
        ({"shadow_sigma_per_rau": (4.0, float("inf"), 4.0, 4.0)}, "shadow_sigma_per_rau"),
        ({"d0": float("inf")}, "d0"),
        ({"d0": float("nan")}, "d0"),
        ({"du": float("inf")}, "du"),
        ({"du": float("nan")}, "du"),
    ],
)
def test_validation_names_the_offending_key(kwargs, key):
    with pytest.raises(ValueError, match=key):
        Scenario(**kwargs)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("build,field", [
    (lambda: PositionGrid.over(3000.0, INF), "step"),
    (lambda: PositionGrid.over(3000.0, NAN), "step"),
    (lambda: PositionGrid.over(3000.0, 0.0), "step"),
    (lambda: PositionGrid.over(INF, 10.0), "length"),
    (lambda: PositionGrid.over(NAN, 10.0), "length"),
    (lambda: PositionGrid((0.0, 10.0), INF), "step"),
    (lambda: PositionGrid((0.0, 10.0), NAN), "step"),
    (lambda: PositionGrid((NAN,), 10.0), "positions"),
    (lambda: PositionGrid((0.0, INF), 10.0), "positions"),
    (lambda: PositionGrid((), 10.0), "positions"),
], ids=["over-step-inf", "over-step-nan", "over-step-0", "over-length-inf",
        "over-length-nan", "step-inf", "step-nan", "position-nan", "position-inf",
        "no-position"])
def test_grid_rejects_non_finite_input(build, field):
    """A non-finite step, length or position is a ValueError that names
    its field, never a NaN grid or an OverflowError."""
    with pytest.raises(ValueError, match=field):
        build()


def test_scenario_is_immutable(sc):
    with pytest.raises(AttributeError):
        sc.ds = 1.0


def test_with_scheme_returns_modified_copy(sc):
    other = sc.with_scheme(Scheme.TRADITIONAL)
    assert other.scheme is Scheme.TRADITIONAL
    assert sc.scheme is Scheme.PROPOSED
    assert other.ds == sc.ds


def test_antennas_per_scheme(sc):
    assert sc.antennas() == (AntennaId.FRONT, AntennaId.REAR)
    assert sc.with_scheme(Scheme.DAS_SINGLE).antennas() == (AntennaId.FRONT,)
    assert sc.with_scheme(Scheme.DAS_BLANKET).antennas() == (AntennaId.FRONT, AntennaId.REAR)
    assert sc.with_scheme(Scheme.TRADITIONAL).antennas() == (AntennaId.FRONT, AntennaId.REAR)


def test_rau_sigma_override(sc):
    """The link table's sigma column of RAU n is its shadow_sigma_per_rau
    entry, or shadow_sigma without the override."""
    grid = PositionGrid((0.0, 1500.0), 1.0)
    assert (channel.link_table(sc, grid).sigma == 4.0).all()
    tweaked = replace(sc, shadow_sigma_per_rau=(1.0, 2.0, 3.0, 4.0))
    sigma = channel.link_table(tweaked, grid).sigma
    assert sigma.shape == (2, 2, 2, 4)
    assert (sigma == [1.0, 2.0, 3.0, 4.0]).all()


def test_exactly_two_antenna_ids():
    assert [a.value for a in AntennaId] == [1, 2]


def test_four_schemes():
    assert {s.value for s in Scheme} == {
        "proposed", "das-blanket", "das-single", "traditional"}


def test_serving_rau_positions(sc):
    got = rau_positions(sc, CellId.SERVING)
    assert [p.along_track for p in got] == [-1125.0, -375.0, 375.0, 1125.0]
    assert all(p.offset == 60.0 for p in got)


def test_target_rau_positions_shifted_by_ds(sc):
    got = rau_positions(sc, CellId.TARGET)
    assert [p.along_track for p in got] == [1875.0, 2625.0, 3375.0, 4125.0]


def test_single_rau_sits_at_cell_center():
    got = rau_positions(Scenario(n_raus=1, dr=3000.0), CellId.SERVING)
    assert len(got) == 1
    assert got[0].along_track == 0.0


@given(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=10.0, max_value=800.0),
)
def test_rau_positions_strictly_increasing(n, dr):
    sc = Scenario(n_raus=n, dr=dr)
    for cell in CellId:
        xs = [p.along_track for p in rau_positions(sc, cell)]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert len(xs) == n


def test_bs_positions(sc):
    assert bs_position(sc, CellId.SERVING) == Node(0.0, 100.0)
    assert bs_position(sc, CellId.TARGET) == Node(3000.0, 100.0)


def test_bs_on_track_is_legal():
    assert bs_position(Scenario(d0=0.0), CellId.SERVING).offset == 0.0


def test_antenna_coordinates(sc):
    assert antenna_x(sc, 1500.0, AntennaId.FRONT) == 1500.0
    assert antenna_x(sc, 1500.0, AntennaId.REAR) == 1300.0
    zero_length = replace(sc, train_length=0.0)
    assert antenna_x(zero_length, 700.0, AntennaId.REAR) == 700.0


def test_link_distance_cases():
    assert link_distance(375.0, Node(375.0, 60.0)) == 60.0
    assert link_distance(10.0, Node(0.0, 0.0)) == 10.0
    assert link_distance(1500.0, Node(1125.0, 60.0)) == pytest.approx(
        379.7696670351649, abs=1e-9)


@given(st.floats(min_value=-5000.0, max_value=5000.0))
def test_link_distance_bounded_below_by_offset(x):
    sc = Scenario()
    for cell in CellId:
        for node in rau_positions(sc, cell):
            assert link_distance(x, node) >= sc.du
        assert link_distance(x, bs_position(sc, cell)) >= sc.d0


def test_boundary_raus_mirror_about_midpoint(sc):
    """Serving RAU N and target RAU 1 are equidistant from x = ds/2."""
    serving_last = rau_positions(sc, CellId.SERVING)[-1]
    target_first = rau_positions(sc, CellId.TARGET)[0]
    mid = sc.ds / 2.0
    assert link_distance(mid, serving_last) == link_distance(mid, target_first)
    assert serving_last.along_track - mid == -(target_first.along_track - mid)


@given(st.integers(min_value=1, max_value=8), st.floats(min_value=50.0, max_value=700.0))
def test_mirror_symmetry_for_any_layout(n, dr):
    sc = Scenario(n_raus=n, dr=dr)
    mid = sc.ds / 2.0
    a = link_distance(mid, rau_positions(sc, CellId.SERVING)[-1])
    b = link_distance(mid, rau_positions(sc, CellId.TARGET)[0])
    assert a == pytest.approx(b, rel=1e-12)
