"""Closed-form trigger, occurrence, failure and interruption curves.

Anchor values come from three independent routes: the Q-function
closed form by hand, trapezoid integration of the defining integrals,
and seeded draw oracles (constants noted inline where used). A value
at one position is the curve on the one-position grid; the curves are
checked bitwise against the scalar metrics of `tests/link_oracle.py`.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from railhandover import channel
from railhandover.analytics import (
    TRIGGER_FLOOR,
    MetricMode,
    PositionGrid,
    failure_curve,
    first_level_crossing,
    interruption_curve,
    occurrence_masses,
    trigger_curve,
)
from railhandover.scenario import AntennaId, CellId, Scenario, Scheme, SelectionRule
from link_oracle import (
    UndefinedConditionalError,
    failure_prob,
    interruption_prob,
    interruption_prob_antenna,
    link_stat,
    rss_distribution,
    table_components,
    table_trigger_pair,
    trigger_pair,
    trigger_prob,
)
from quadpack_oracle import trigger_prob_integral

# Q(2 / sqrt(32)): symmetric boundary point, equal mu both sides
TRIG_AT_1500 = 0.36183680491588155
TRIG_AT_2250 = 0.9948906333503441

ALL_SCHEMES = list(Scheme)


def _at(x):
    return PositionGrid((x,), 1.0)


def trigger_at(sc, x):
    return float(trigger_curve(sc, _at(x))[0])


def failure_at(sc, x, mode=MetricMode.REDERIVED):
    return failure_curve((sc,), _at(x), mode=mode)[0][0]


def interruption_at(sc, x, mode=MetricMode.REDERIVED):
    return float(interruption_curve(sc, _at(x), mode)[0])


def mean_rss_at(sc, x, antenna=AntennaId.FRONT):
    """The better cell's mean RSS: the larger of the two cell means."""
    means, _ = channel.cell_means((sc,), _at(x))[0]
    return float(means[0, sc.antennas().index(antenna)].max())


def occurrence(sc, grid, mode=MetricMode.REDERIVED):
    return occurrence_masses(trigger_curve(sc, grid), grid.step, mode)


def test_trigger_anchor_midpoint(sc):
    value = trigger_at(sc, 1500.0)
    assert value == pytest.approx(TRIG_AT_1500, abs=1e-12)
    assert value == pytest.approx(1.0 - ndtr(2.0 / math.sqrt(32.0)), abs=1e-12)


def test_trigger_anchor_deep_in_target(sc):
    assert trigger_at(sc, 2250.0) == pytest.approx(TRIG_AT_2250, abs=1e-12)


def test_trigger_without_hysteresis_is_half_at_midpoint(sc):
    assert trigger_at(replace(sc, hysteresis=0.0), 1500.0) == pytest.approx(
        0.5, abs=1e-9)


def test_closed_form_matches_integral(sc):
    for x in (1200.0, 1500.0, 1800.0, 2250.0):
        serving = link_stat(sc, x, 4, AntennaId.FRONT, CellId.SERVING)
        target = link_stat(sc, x, 1, AntennaId.FRONT, CellId.TARGET)
        closed = trigger_at(sc, x)
        quad = trigger_prob_integral(serving, target, sc.hysteresis)
        assert closed == pytest.approx(quad, abs=1e-4)


def test_trigger_monotone_between_boundary_raus(sc):
    """Approach monotonicity only holds between the facing boundary units."""
    curve = trigger_curve(sc, PositionGrid(np.arange(1125.0, 1875.0 + 1, 25.0), 25.0))
    assert all(b >= a for a, b in zip(curve, curve[1:]))


@given(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.0, max_value=15.0))
def test_trigger_decreases_with_hysteresis(h, dh):
    sc = Scenario()
    low = trigger_at(replace(sc, hysteresis=h + dh), 1500.0)
    high = trigger_at(replace(sc, hysteresis=h), 1500.0)
    assert low <= high + 1e-12


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.value)
def test_trigger_in_unit_interval(scheme):
    sc = Scenario().with_scheme(scheme)
    curve = trigger_curve(sc, PositionGrid((0.0, 600.0, 1500.0, 2400.0, 3000.0), 1.0))
    assert ((0.0 <= curve) & (curve <= 1.0)).all()


# --- first-crossing / occurrence ---


def test_first_crossing_of_certain_trigger():
    masses = occurrence_masses(np.ones(5), 1.0)
    assert masses[0] == 1.0
    assert np.all(masses[1:] == 0.0)


def test_first_crossing_of_impossible_trigger():
    assert np.all(occurrence_masses(np.zeros(5), 1.0) == 0.0)


def test_first_crossing_manual_chain():
    masses = occurrence_masses(np.array([0.2, 0.5, 1.0]), 1.0)
    assert masses == pytest.approx([0.2, 0.8 * 0.5, 0.8 * 0.5 * 1.0])


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_first_crossing_masses_form_submeasure(probs):
    masses = occurrence_masses(np.array(probs), 1.0)
    assert np.all(masses >= 0.0)
    assert masses.sum() <= 1.0 + 1e-12


def test_occurrence_rederived_sums_to_one_on_default_grid(sc, grid):
    masses = occurrence(sc, grid)
    assert masses.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(masses >= 0.0)


def test_occurrence_paper_mode_is_the_literal_product_form(sc):
    grid = PositionGrid.over(3000.0, 250.0)
    trig = trigger_curve(sc, grid)
    got = occurrence(sc, grid, mode=MetricMode.PAPER)
    running = np.concatenate([[0.0], np.cumsum(trig)[:-1]])
    assert got == pytest.approx(trig * (grid.step * running), abs=1e-12)


def test_occurrence_modes_differ(sc, coarse_grid):
    red = occurrence(sc, coarse_grid)
    pap = occurrence(sc, coarse_grid, mode=MetricMode.PAPER)
    assert not np.allclose(red, pap)


# --- conditional failure ---


def test_failure_anchor_midpoint_both_modes(sc):
    assert failure_at(sc, 1500.0) == pytest.approx(0.8147604325493194, abs=1e-9)
    # the literal tail-function form is not a probability here; emitted as-is
    pap = failure_at(sc, 1500.0, mode=MetricMode.PAPER)
    assert pap == pytest.approx(1.7440828649131455, abs=1e-9)
    assert pap > 1.0


def test_failure_against_draw_oracle(sc):
    # conditional frequency over 858349 accepted draws, seed 20240605
    assert failure_at(sc, 1600.0) == pytest.approx(0.5624541998650898, abs=0.005)


def test_failure_stays_defined_under_tiny_triggers(sc):
    """Positions where triggering is rare stress the truncated-tail path."""
    anchors = {
        600.0: 0.9999997813719287,
        1000.0: 0.8510301663104519,
        1100.0: 0.1049807564390309,
        1200.0: 0.27204119571913127,
    }
    curve = failure_curve((sc,), PositionGrid(tuple(anchors), 1.0))[0]
    for got, want in zip(curve, anchors.values()):
        assert got == pytest.approx(want, rel=1e-6)
        assert 0.0 <= got <= 1.0


def _paper_failure_mpmath(mu_s, sigma_s, mu_t, sigma_t, hysteresis, threshold):
    """P(U < T, U - S < H) / P(U - S > H) at 40 digits, U ~ N(mu_t, sigma_t)
    and S ~ N(mu_s, sigma_s) independent, by integrating over U."""
    import mpmath as mp

    with mp.workdps(40):
        mu_s, sigma_s, mu_t, sigma_t, h, t = map(mp.mpf, (mu_s, sigma_s, mu_t, sigma_t,
                                                           hysteresis, threshold))
        joint = mp.quad(lambda u: mp.npdf(u, mu_t, sigma_t) * mp.ncdf((mu_s + h - u) / sigma_s),
                        sorted({mu_t - 40 * sigma_t, min(mu_s + h, t), min(mu_t, t), t}))
        z0 = (h - (mu_t - mu_s)) / mp.sqrt(sigma_s ** 2 + sigma_t ** 2)
        return float(joint / (mp.erfc(z0 / mp.sqrt(2)) / 2))


@pytest.mark.parametrize("scheme, positions", [
    (Scheme.DAS_BLANKET, (2550.0, 2620.0, 2630.0, 2700.0)),
    (Scheme.TRADITIONAL, (2850.0, 2940.0, 3000.0)),
], ids=["das-blanket", "traditional"])
def test_paper_failure_keeps_its_digits_in_the_far_tail(sc, scheme, positions):
    """Where the trigger is near-certain the printed form is 1e-19 to 1e-12:
    computed as the tail it is, not as a difference of near-equal numbers,
    it matches mpmath to far more than the 6 digits a table keeps."""
    sc = sc.with_scheme(scheme)
    grid = PositionGrid(positions, sc.measurement_step)
    got = failure_curve((sc,), grid, mode=MetricMode.PAPER)[0]
    rows = zip(*(c.tolist() for c in channel.link_table(sc, grid).comparands()))
    for value, row in zip(got, rows):
        assert value == pytest.approx(
            _paper_failure_mpmath(*row, sc.hysteresis, sc.threshold), rel=1e-9, abs=0.0)


def test_failure_threshold_extremes(sc):
    from rss_oracles import support

    lo, hi = support(rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING))
    assert failure_at(replace(sc, threshold=lo), 1500.0) <= 1e-10
    assert failure_at(replace(sc, threshold=hi), 1500.0) == pytest.approx(
        1.0, abs=1e-6)


def test_failure_undefined_below_trigger_floor(sc):
    """The curve reads NaN there; the scalar oracle raises."""
    stubborn = replace(sc, hysteresis=12.0)
    for mode in MetricMode:
        assert math.isnan(failure_at(stubborn, 1100.0, mode))
    with pytest.raises(UndefinedConditionalError, match="below 1e-12"):
        failure_prob(stubborn, 1100.0)


@pytest.mark.parametrize("sigma", [1e160, 1e300])
@pytest.mark.parametrize("scheme", [Scheme.PROPOSED, Scheme.DAS_SINGLE, Scheme.TRADITIONAL])
def test_failure_reads_its_limit_at_huge_link_sigmas(sigma, scheme):
    """Once shadowing swamps every mean, U and the serving comparand S are
    independent with one sigma and the threshold and hysteresis are 0 on
    their scale: REDERIVED reads P(U < 0 | U > S) = 1/4 and PAPER
    P(U < 0, U < S) / P(U > S) = 3/4 at every position. sigma ** 2
    overflows past about 1.3e154, so the integral must never form it."""
    sc = Scenario(scheme=scheme, shadow_sigma=sigma)
    grid = PositionGrid.over(sc.ds, 250.0)
    for mode, limit in ((MetricMode.REDERIVED, 0.25), (MetricMode.PAPER, 0.75)):
        np.testing.assert_allclose(failure_curve((sc,), grid, mode)[0], limit, rtol=0, atol=1e-12)


# --- interruption ---


def test_interruption_anchor_and_antenna_product(sc):
    front = interruption_prob_antenna(sc, 1500.0, AntennaId.FRONT)
    rear = interruption_prob_antenna(sc, 1500.0, AntennaId.REAR)
    whole = interruption_at(sc, 1500.0)
    assert whole == pytest.approx(front * rear, rel=1e-12)
    assert whole == pytest.approx(0.08477269562970283, abs=1e-12)


def test_interruption_modes_combine_cell_probabilities(sc):
    """REDERIVED multiplies the two cells' below-threshold probabilities and
    PAPER takes the smaller one (component CDFs here through scipy's ndtr)."""
    for x in (700.0, 1500.0, 2300.0):
        below = []
        for cell in (CellId.SERVING, CellId.TARGET):
            comps = rss_distribution(sc, x, AntennaId.FRONT, cell).components
            below.append(float(np.prod([ndtr((sc.threshold - c.mu) / c.sigma)
                                        for c in comps])))
        assert interruption_prob_antenna(sc, x, AntennaId.FRONT) == \
            pytest.approx(below[0] * below[1], rel=1e-12, abs=1e-300)
        assert interruption_prob_antenna(sc, x, AntennaId.FRONT, MetricMode.PAPER) == \
            pytest.approx(min(below), rel=1e-12, abs=1e-300)
    assert below[0] != pytest.approx(below[1], rel=1e-3)


def test_interruption_near_serving_rau_is_negligible(sc):
    for mode in MetricMode:
        assert interruption_prob_antenna(sc, 375.0, AntennaId.FRONT, mode) < 1e-7


def test_interruption_single_antenna_scheme_uses_front_only(sc):
    single = sc.with_scheme(Scheme.DAS_SINGLE)
    assert interruption_at(single, 1500.0) == interruption_prob_antenna(
        single, 1500.0, AntennaId.FRONT)


def test_interruption_keeps_its_digits_in_the_far_tail():
    """At a -80 dBm threshold every below-threshold probability is a far
    lower tail, 1e-35 to 1e-238 on the 250 m grid: each cell of each
    scheme matches mpmath at 40 digits, from the link table's float64
    statistics, to 1e-13 relative."""
    import mpmath as mp

    grid = PositionGrid.over(3000.0, 250.0)
    for scheme in ALL_SCHEMES:
        sc = Scenario(scheme=scheme, threshold=-80.0)
        got = interruption_curve(sc, grid)
        mu, sigma = channel.link_table(sc, grid).cell_components()
        with mp.workdps(40):
            for j in range(len(grid.positions)):
                want = mp.fprod(mp.ncdf((mp.mpf(sc.threshold) - mp.mpf(m)) / mp.mpf(s))
                                for m, s in zip(mu[j].ravel().tolist(), sigma[j].ravel().tolist()))
                assert abs(got[j] - want) <= 1e-13 * want, (scheme.value, grid.positions[j])
    # mpmath: 7.94374e-41; 1/2 (1 + erf(z / sqrt(2))) gives 6.95303e-41 here, 12% low
    assert float(interruption_curve(Scenario(scheme=Scheme.TRADITIONAL, threshold=-80.0),
                                    _at(1000.0))[0]) == pytest.approx(7.94374e-41, rel=1e-6)


def test_interruption_zero_when_serving_never_drops(sc):
    for mode in MetricMode:
        assert interruption_at(replace(sc, threshold=-1e6), 1500.0, mode) == 0.0


def test_interruption_rederived_never_exceeds_paper(sc):
    grid = PositionGrid.over(3000.0, 100.0)
    for scheme in ALL_SCHEMES:
        cfg = sc.with_scheme(scheme)
        red = interruption_curve(cfg, grid)
        pap = interruption_curve(cfg, grid, mode=MetricMode.PAPER)
        assert (red <= pap + 1e-15).all()


# --- mean RSS ---


def test_mean_rss_selection_gain(sc):
    value = mean_rss_at(sc, 1500.0)
    assert value == pytest.approx(-35.78035986311425, abs=1e-6)
    best = channel.link_table(sc, _at(1500.0)).mu[0, 0, 0].max()
    assert value > best


def test_mean_rss_traditional_at_origin(sc):
    trad = sc.with_scheme(Scheme.TRADITIONAL)
    assert mean_rss_at(trad, 0.0) == pytest.approx(-15.5, abs=1e-9)


# --- grids and crossings ---


def test_grid_over_spans_cell(sc):
    grid = PositionGrid.over(3000.0, 10.0)
    arr = grid.as_array()
    assert arr[0] == 0.0 and arr[-1] == 3000.0
    assert len(arr) == 301
    assert grid.step == 10.0


def test_grid_for_scenario_uses_measurement_step(sc):
    grid = PositionGrid.for_scenario(replace(sc, measurement_step=50.0))
    assert grid.step == 50.0
    assert len(grid.as_array()) == 61


def test_grid_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        PositionGrid(np.array([0.0, 10.0, 10.0]), 10.0)
    with pytest.raises(ValueError, match="step"):
        PositionGrid(np.array([0.0, 10.0]), 0.0)
    with pytest.raises(ValueError):
        PositionGrid.over(3000.0, -5.0)


def test_first_level_crossing_cases():
    grid = PositionGrid(np.array([0.0, 10.0, 20.0]), 10.0)
    assert first_level_crossing(grid, np.array([0.0, 0.1, 0.2]), 0.5) is None
    assert first_level_crossing(grid, np.array([0.7, 0.8, 0.9]), 0.5) == 0.0
    # linear interpolation between bracketing samples
    got = first_level_crossing(grid, np.array([0.0, 0.25, 1.0]), 0.5)
    assert got == pytest.approx(10.0 + 10.0 * (0.5 - 0.25) / 0.75)


def test_half_crossing_positions_by_scheme(sc, grid):
    want = {
        Scheme.PROPOSED: 1525.264136794723,
        Scheme.DAS_BLANKET: 1525.9884587468637,
        Scheme.DAS_SINGLE: 1525.264136794723,
        Scheme.TRADITIONAL: 1598.9794179539672,
    }
    for scheme, expected in want.items():
        curve = trigger_curve(sc.with_scheme(scheme), grid)
        got = first_level_crossing(grid, curve, 0.5)
        assert got == pytest.approx(expected, abs=1e-9), scheme.value


def test_trigger_curve_matches_pointwise(sc, coarse_grid):
    """A position's value does not depend on the grid it sits on."""
    curve = trigger_curve(sc, coarse_grid)
    for x, v in zip(coarse_grid.positions, curve):
        assert v.hex() == trigger_at(sc, x).hex()


# --- table-backed curves against the scalar metrics ---


def _curve_scenarios(scheme):
    for selection in SelectionRule:
        for n_raus in (1, 2, 3, 4, 8):
            yield Scenario(scheme=scheme, selection=selection, n_raus=n_raus)
        yield Scenario(scheme=scheme, selection=selection,
                       shadow_sigma_per_rau=(0.5, 4.0, 8.0, 12.0))
        yield Scenario(scheme=scheme, selection=selection, hysteresis=0.0)


def _bits(value):
    return None if value is None or math.isnan(value) else float(value).hex()


def _scalar_failure(sc, x, mode):
    try:
        return failure_prob(sc, x, mode=mode)
    except UndefinedConditionalError:
        return None


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_table_curves_equal_scalar_metrics_bitwise(scheme):
    """trigger_curve, failure_curve (the front antenna's) and
    interruption_curve read the link table; every value equals the scalar
    metric's bits, and failure reads NaN, in both modes, exactly where
    trigger_curve is below TRIGGER_FLOOR."""
    undefined = defined = 0
    for sc in _curve_scenarios(scheme):
        for step in (250.0, 50.0):
            grid = PositionGrid.over(sc.ds, step)
            trigger = trigger_curve(sc, grid)
            assert [_bits(v) for v in trigger] == \
                [_bits(trigger_prob(sc, x)) for x in grid.positions]
            for mode in MetricMode:
                got = failure_curve((sc,), grid, mode)[0]
                assert np.isnan(got).tolist() == (trigger < TRIGGER_FLOOR).tolist()
                want = [_scalar_failure(sc, x, mode) for x in grid.positions]
                assert [_bits(v) for v in got] == [_bits(v) for v in want]
                undefined += want.count(None)
                defined += len(want) - want.count(None)
            for mode in MetricMode:
                assert [_bits(v) for v in interruption_curve(sc, grid, mode)] == \
                    [_bits(interruption_prob(sc, x, mode)) for x in grid.positions]
    assert undefined > 0 and defined > 0


@st.composite
def _geometries(draw) -> Scenario:
    """Scenarios over the geometry, power and rule fields, every scheme and
    selection rule, 1 to 8 units, uniform or per-unit sigmas."""
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    n_raus = draw(st.integers(1, 8))
    ds = draw(floats(500.0, 5000.0))
    per_rau = draw(st.one_of(st.none(), st.lists(floats(0.1, 12.0), min_size=n_raus,
                                                 max_size=n_raus).map(tuple)))
    return Scenario(
        ds=ds, d0=draw(floats(1.0, 300.0)), du=draw(floats(1.0, 200.0)),
        dr=draw(st.one_of(st.just(0.0), floats(0.05, 1.0).map(lambda f: f * ds))),
        train_length=draw(floats(0.0, 400.0)), tx_power=draw(floats(20.0, 100.0)),
        pathloss_a=draw(floats(0.0, 60.0)), pathloss_gamma=draw(floats(2.0, 6.0)),
        hysteresis=draw(floats(0.0, 10.0)), threshold=draw(floats(-120.0, 0.0)),
        shadow_sigma=draw(floats(0.1, 12.0)), n_raus=n_raus, shadow_sigma_per_rau=per_rau,
        scheme=draw(st.sampled_from(ALL_SCHEMES)),
        selection=draw(st.sampled_from(list(SelectionRule))),
        measurement_step=ds / draw(st.integers(1, 12)))


def _stat_bits(stats):
    return [(float(s.mu).hex(), float(s.sigma).hex()) for s in stats]


@settings(max_examples=150)
@given(_geometries())
def test_table_and_curves_equal_the_oracle_on_generated_geometry(sc):
    """The link table (every antenna's trigger pairs and cell components),
    the front antenna's trigger curve and the interruption curve in both
    modes equal the scalar oracle's values bitwise."""
    grid = PositionGrid.for_scenario(sc)
    table = channel.link_table(sc, grid)
    for j, x in enumerate(grid.positions):
        for a, antenna in enumerate(sc.antennas()):
            assert _stat_bits(table_trigger_pair(table, j, a)) == \
                _stat_bits(trigger_pair(sc, x, antenna))
            for c, cell in enumerate(channel.CELLS):
                assert _stat_bits(table_components(table, j, a, c)) == \
                    _stat_bits(rss_distribution(sc, x, antenna, cell).components)
    assert [_bits(v) for v in trigger_curve(sc, grid)] == \
        [_bits(trigger_prob(sc, x)) for x in grid.positions]
    for mode in MetricMode:
        assert [_bits(v) for v in interruption_curve(sc, grid, mode)] == \
            [_bits(interruption_prob(sc, x, mode)) for x in grid.positions]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ALL_SCHEMES), st.sampled_from((0.0, 2.0, 5.0)),
                          st.sampled_from((-60.0, -30.0, -20.0))), min_size=1, max_size=5),
       st.sampled_from(list(MetricMode)))
def test_joint_failure_curves_equal_single_scenario_curves(runs, mode):
    """failure_curve integrates the distinct rows of all its scenarios in one
    batch; each scenario's curve equals its curve alone bitwise, in any
    order, with repeated schemes and mixed hysteresis and threshold."""
    grid = PositionGrid.over(3000.0, 250.0)
    scs = tuple(Scenario(scheme=scheme, hysteresis=h, threshold=t) for scheme, h, t in runs)
    joint = failure_curve(scs, grid, mode=mode)
    assert len(joint) == len(scs)
    for sc, curve in zip(scs, joint):
        assert [_bits(v) for v in curve] == \
            [_bits(v) for v in failure_curve((sc,), grid, mode=mode)[0]]

