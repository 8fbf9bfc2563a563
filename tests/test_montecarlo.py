"""Seeded estimators: substream policy, convergence, parallel invariance."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover import channel, montecarlo
from railhandover.analytics import (
    PositionGrid,
    failure_curve,
    occurrence_masses,
    trigger_curve,
)
from railhandover.montecarlo import (
    DOMAIN_FIRST_CROSSING,
    DOMAIN_POINTWISE,
    DOMAIN_PROTOCOL,
    SeedPolicy,
    estimate_first_crossing,
    estimate_pointwise,
    estimate_protocol,
)
from railhandover.scenario import Scenario, Scheme, SelectionRule

from pointwise_oracle import assert_sweeps_equal, pointwise_sweep
from protocol_oracle import STAT_FIELDS, format_stats, protocol_stats

GOLDEN_PROTOCOL = Path(__file__).parent / "golden" / "protocol_200.txt"


def test_seed_policy_rejects_out_of_range():
    with pytest.raises(ValueError):
        SeedPolicy(-1)
    with pytest.raises(ValueError):
        SeedPolicy(2 ** 64)
    SeedPolicy(0)
    SeedPolicy(2 ** 64 - 1)


def test_seed_policy_streams_are_keyed():
    policy = SeedPolicy(1234)
    a = policy.stream(DOMAIN_POINTWISE, 5).standard_normal(8)
    b = policy.stream(DOMAIN_POINTWISE, 5).standard_normal(8)
    c = policy.stream(DOMAIN_POINTWISE, 6).standard_normal(8)
    d = policy.stream(DOMAIN_FIRST_CROSSING, 5).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert DOMAIN_POINTWISE != DOMAIN_FIRST_CROSSING != DOMAIN_PROTOCOL


def test_pointwise_matches_analytic_step_with_degenerate_fading():
    sc = replace(Scenario(), shadow_sigma=1e-9)
    grid = PositionGrid.over(3000.0, 250.0)
    est = estimate_pointwise(sc, grid, 1, SeedPolicy(5)).trigger
    assert est.value.shape == (len(grid.positions), 2)  # one column per antenna
    assert np.isin(est.value, (0.0, 1.0)).all()
    assert (est.half_width_95 == 0.0).all()
    for a, antenna in enumerate(sc.antennas()):
        assert est.value[:, a] == pytest.approx(trigger_curve(sc, grid, antenna), abs=1e-9)


def test_half_width_halves_when_trials_quadruple():
    sc = Scenario()
    grid = PositionGrid(np.array([1500.0]), 10.0)

    def front_hw(trials):
        return estimate_pointwise(sc, grid, trials, SeedPolicy(77)).trigger.half_width_95[0, 0]

    ratio = front_hw(8000) / front_hw(2000)
    assert 0.4 <= ratio <= 0.6


def test_pointwise_parallel_runs_are_bitwise_identical():
    sc = Scenario()
    grid = PositionGrid.over(3000.0, 500.0)
    serial = estimate_pointwise(sc, grid, 400, SeedPolicy(9), jobs=1, mean_rss=True)
    parallel = estimate_pointwise(sc, grid, 400, SeedPolicy(9), jobs=8, mean_rss=True)
    assert_sweeps_equal(parallel, serial)


@pytest.mark.parametrize("scheme", [Scheme.PROPOSED, Scheme.DAS_SINGLE])
def test_counts_do_not_depend_on_mean_rss(scheme):
    sc = Scenario().with_scheme(scheme)
    grid = PositionGrid.over(3000.0, 500.0)
    without = estimate_pointwise(sc, grid, 300, SeedPolicy(9))
    with_rss = estimate_pointwise(sc, grid, 300, SeedPolicy(9), mean_rss=True)
    assert without.rss is None
    assert with_rss.rss.value.shape == (len(grid.positions), 3 if scheme is Scheme.PROPOSED
                                        else 1)
    assert_sweeps_equal(with_rss._replace(rss=None), without)


@st.composite
def _sweep_case(draw) -> tuple:
    """A scenario, trial count and mean_rss flag for the oracle comparison."""
    n_raus = draw(st.integers(1, 8))
    per_rau = draw(st.one_of(st.none(), st.lists(st.sampled_from((0.5, 4.0, 8.0, 12.0)),
                                                 min_size=n_raus, max_size=n_raus).map(tuple)))
    sc = Scenario(n_raus=n_raus, shadow_sigma_per_rau=per_rau,
                  scheme=draw(st.sampled_from(list(Scheme))),
                  selection=draw(st.sampled_from(list(SelectionRule))),
                  hysteresis=draw(st.sampled_from((0.0, 2.0, 1e6))))
    return sc, draw(st.sampled_from((1, 2, 57))), draw(st.booleans())


@settings(max_examples=100)
@given(_sweep_case())
def test_pointwise_equals_the_scalar_oracle(case):
    """One draw per position, counted along axes, equals one draw per
    antenna and cell scored as scalar rows: values, half-widths and base
    counts bit for bit, NaN where no trial triggered."""
    sc, trials, mean_rss = case
    grid = PositionGrid.over(3000.0, 500.0)
    assert_sweeps_equal(estimate_pointwise(sc, grid, trials, SeedPolicy(31), mean_rss=mean_rss),
                        pointwise_sweep(sc, grid, trials, SeedPolicy(31), mean_rss))


def test_sweep_without_mean_rss_needs_no_cell_means(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mean RSS not requested")

    monkeypatch.setattr(channel, "max_means", refuse)
    monkeypatch.setattr(channel, "cell_means", refuse)
    grid = PositionGrid.over(3000.0, 500.0)
    estimate_pointwise(Scenario(), grid, 50, SeedPolicy(2))


def test_mean_pathloss_trigger_estimate_tracks_analytic():
    """Mean-pathloss cells keep every RAU link, so the boundary-RAU
    trigger comparands exist; agreement within validate's limit."""
    sc = Scenario(selection=SelectionRule.MEAN_PATHLOSS)
    grid = PositionGrid.over(3000.0, 250.0)
    trials = 20_000
    est = estimate_pointwise(sc, grid, trials, SeedPolicy(12345), jobs=2).trigger
    for a, antenna in enumerate(sc.antennas()):
        p = trigger_curve(sc, grid, antenna)
        limit = np.maximum(0.01, 3.0 * np.sqrt(p * (1.0 - p) / trials))
        assert (np.abs(est.value[:, a] - p) <= limit).all()


def test_protocol_runs_under_mean_pathloss_selection(coarse_grid):
    sc = Scenario(selection=SelectionRule.MEAN_PATHLOSS)
    stats = estimate_protocol(sc, coarse_grid, 20, SeedPolicy(5))
    assert stats.trials == 20
    assert stats.rear_ho_hist.sum() <= stats.front_ho_hist.sum() <= 20


def test_first_crossing_certain_trigger_concentrates_at_first_point():
    sc = replace(Scenario(), shadow_sigma=1e-9, hysteresis=0.0)
    grid = PositionGrid(np.arange(1600.0, 1700.0 + 1, 10.0), 10.0)
    est = estimate_first_crossing(sc, grid, 50, SeedPolicy(4))
    assert est.masses[0] == 1.0
    assert np.all(est.masses[1:] == 0.0)
    assert est.no_trigger_fraction == 0.0


def test_first_crossing_huge_hysteresis_never_triggers(grid):
    sc = replace(Scenario(), hysteresis=1e6)
    est = estimate_first_crossing(sc, grid, 50, SeedPolicy(4))
    assert np.all(est.masses == 0.0)
    assert est.no_trigger_fraction == 1.0


def test_first_crossing_masses_partition_unity(sc, grid):
    est = estimate_first_crossing(sc, grid, 500, SeedPolicy(21))
    assert est.masses.sum() + est.no_trigger_fraction == pytest.approx(1.0, abs=1e-12)
    assert np.all(est.masses >= 0.0)


def test_first_crossing_tracks_analytic_occurrence(sc, grid):
    est = estimate_first_crossing(sc, grid, 20_000, SeedPolicy(99), jobs=8)
    ana = occurrence_masses(trigger_curve(sc, grid), grid.step)
    assert np.max(np.abs(est.masses - ana)) <= 0.01


def test_first_crossing_parallel_runs_are_bitwise_identical(sc, coarse_grid):
    a = estimate_first_crossing(sc, coarse_grid, 600, SeedPolicy(31), jobs=1)
    b = estimate_first_crossing(sc, coarse_grid, 600, SeedPolicy(31), jobs=8)
    assert np.array_equal(a.masses, b.masses)
    assert a.no_trigger_fraction == b.no_trigger_fraction


def test_protocol_permissive_threshold_never_fails(coarse_grid):
    sc = replace(Scenario(), threshold=-1e6)
    stats = estimate_protocol(sc, coarse_grid, 60, SeedPolicy(3))
    assert stats.completed == 60
    assert stats.front_failed_trials == 0
    assert stats.rear_failed_trials == 0
    assert stats.interruption_lengths == ()
    assert stats.front_ho_hist.sum() == 60


def test_protocol_degenerate_fading_gives_point_mass_histograms(grid):
    sc = replace(Scenario(), shadow_sigma=1e-9)
    stats = estimate_protocol(sc, grid, 40, SeedPolicy(8))
    xs = grid.as_array()
    k = int(np.argmax(stats.front_ho_hist))
    assert xs[k] == 1630.0
    assert stats.front_ho_hist[k] == 40
    assert stats.front_ho_hist.sum() == 40
    k = int(np.argmax(stats.rear_ho_hist))
    assert xs[k] == 1830.0
    assert stats.rear_ho_hist[k] == 40
    # attempts retry on every report from 1530 until the 1630 success:
    # 11 attempts per trial, the first 10 fail deterministically
    assert stats.front_attempt_hist.sum() == 11 * 40
    assert stats.front_failure_hist.sum() == 10 * 40
    failing = (xs >= 1530.0) & (xs <= 1620.0)
    assert np.all(stats.front_failure_hist[failing] == 40)
    assert np.all(stats.front_failure_hist[~failing] == 0)
    assert stats.front_failed_trials == 40


def test_protocol_parallel_runs_are_bitwise_identical(sc, coarse_grid):
    a = estimate_protocol(sc, coarse_grid, 80, SeedPolicy(13), jobs=1)
    b = estimate_protocol(sc, coarse_grid, 80, SeedPolicy(13), jobs=8)
    assert np.array_equal(a.front_ho_hist, b.front_ho_hist)
    assert np.array_equal(a.rear_ho_hist, b.rear_ho_hist)
    assert np.array_equal(a.front_failure_hist, b.front_failure_hist)
    assert a.interruption_lengths == b.interruption_lengths
    assert a.completed == b.completed


def _assert_stats_equal(got, want):
    assert got.grid == want.grid
    for name in STAT_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert type(a) is type(b) and a == b, name


@pytest.mark.parametrize("trials", [montecarlo._PROTOCOL_BLOCK - 1,
                                    montecarlo._PROTOCOL_BLOCK + 1])
def test_protocol_equals_state_machine_aggregate(sc, coarse_grid, trials):
    want = protocol_stats(sc, coarse_grid, trials, SeedPolicy(77))
    for jobs in (1, 3):
        _assert_stats_equal(estimate_protocol(sc, coarse_grid, trials, SeedPolicy(77),
                                              jobs=jobs), want)


@pytest.mark.parametrize("trials", [7, 8, 9, 17])
def test_protocol_block_size_does_not_change_the_estimate(sc, coarse_grid, monkeypatch,
                                                          trials):
    want = protocol_stats(sc, coarse_grid, trials, SeedPolicy(78))
    monkeypatch.setattr(montecarlo, "_PROTOCOL_BLOCK", 8)
    for jobs in (1, 3):
        _assert_stats_equal(estimate_protocol(sc, coarse_grid, trials, SeedPolicy(78),
                                              jobs=jobs), want)


@pytest.mark.parametrize("jobs", [1, 2])
def test_protocol_matches_golden_output(sc, grid, jobs):
    """200 crossings at seed 12345, byte for byte against the state
    machine's aggregate recorded before the array kernel replaced it."""
    stats = estimate_protocol(sc, grid, 200, SeedPolicy(12345), jobs=jobs)
    assert format_stats(stats) == GOLDEN_PROTOCOL.read_text()


@pytest.mark.parametrize("jobs", [1, 3])
def test_protocol_rejects_single_antenna_scheme(jobs):
    sc = Scenario().with_scheme(Scheme.DAS_SINGLE)
    with pytest.raises(ValueError, match="needs two antennas"):
        estimate_protocol(sc, PositionGrid.for_scenario(sc), 600, SeedPolicy(1), jobs=jobs)


def test_protocol_modal_bin_failure_rate_matches_analytic(sc, grid):
    """At the busiest attempt bin the empirical conditional failure rate
    lands within 0.02 of the closed form (10k crossings, fixed seed)."""
    stats = estimate_protocol(sc, grid, 10_000, SeedPolicy(2024), jobs=8)
    k = int(np.argmax(stats.front_attempt_hist))
    rate = stats.front_failure_hist[k] / stats.front_attempt_hist[k]
    assert abs(rate - failure_curve(sc, grid)[k]) <= 0.02


def test_estimators_validate_trials(sc, coarse_grid):
    with pytest.raises(ValueError):
        estimate_pointwise(sc, coarse_grid, 0, SeedPolicy(1))
    with pytest.raises(ValueError):
        estimate_first_crossing(sc, coarse_grid, -5, SeedPolicy(1))
    with pytest.raises(ValueError):
        estimate_protocol(sc, coarse_grid, 0, SeedPolicy(1))
