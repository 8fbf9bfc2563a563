"""Seeded estimators: substream policy, convergence, parallel invariance."""

import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from railhandover import channel, montecarlo, statfun
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
from railhandover.scenario import AntennaId, Scenario, Scheme, SelectionRule

from crossing_oracle import assert_crossings_equal, first_crossing
from link_oracle import trigger_prob
from pointwise_oracle import assert_sweeps_equal, pointwise_sweep
from protocol_oracle import STAT_FIELDS, format_stats, protocol_stats

GOLDEN_PROTOCOL = Path(__file__).parent / "golden" / "protocol_200.txt"


def _trigger_probs(sc, grid, antenna):
    """The scalar oracle's trigger probability of the antenna at every position."""
    return np.array([trigger_prob(sc, x, antenna) for x in grid.positions])


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
    est = estimate_pointwise((sc,), grid, 1, SeedPolicy(5))[0].trigger
    assert est.value.shape == (len(grid.positions),)  # the front antenna's
    assert np.isin(est.value, (0.0, 1.0)).all()
    assert (est.half_width_95 == 0.0).all()
    assert est.value == pytest.approx(_trigger_probs(sc, grid, AntennaId.FRONT), abs=1e-9)


def test_half_width_halves_when_trials_quadruple():
    sc = Scenario()
    grid = PositionGrid(np.array([1500.0]), 10.0)

    def front_hw(trials):
        est = estimate_pointwise((sc,), grid, trials, SeedPolicy(77))[0]
        return est.trigger.half_width_95[0]

    ratio = front_hw(8000) / front_hw(2000)
    assert 0.4 <= ratio <= 0.6


def _better(scs, grid) -> list:
    """channel.cell_means' better-cell flags of each scenario of scs."""
    return [flags for _, flags in channel.cell_means(tuple(scs), grid)]


def test_pointwise_parallel_runs_are_bitwise_identical():
    sc = Scenario()
    grid = PositionGrid.over(3000.0, 500.0)
    better = _better((sc,), grid)
    serial = estimate_pointwise((sc,), grid, 400, SeedPolicy(9), jobs=1, better=better)[0]
    parallel = estimate_pointwise((sc,), grid, 400, SeedPolicy(9), jobs=8, better=better)[0]
    assert_sweeps_equal(parallel, serial)


@pytest.mark.parametrize("trials", [1, 2, 3, 2000])
def test_mean_rss_rows_equal_numpy_mean_and_std(trials):
    """Each mean-RSS row's mean and half-width, from one sum per row, are
    np.mean and 1.96 np.std(ddof=1) / sqrt(n) bit for bit, of the rows at
    once and of each row alone; one trial leaves the half-width NaN."""
    rows = np.random.default_rng(trials).normal(-70.0, 8.0, (5, trials))
    mean, hw = montecarlo._row_stats(rows.copy()).T
    assert mean.tobytes() == np.mean(rows, axis=1).tobytes()
    assert mean.tolist() == [float(np.mean(row)) for row in rows]
    if trials == 1:
        assert np.isnan(hw).all()
    else:
        want = 1.96 * np.std(rows, axis=1, ddof=1) / np.sqrt(trials)
        assert hw.tobytes() == want.tobytes()
        assert hw.tolist() == [1.96 * float(np.std(row, ddof=1)) / np.sqrt(trials)
                               for row in rows]


@pytest.mark.parametrize("scheme", [Scheme.PROPOSED, Scheme.DAS_SINGLE])
def test_counts_do_not_depend_on_mean_rss(scheme):
    sc = Scenario().with_scheme(scheme)
    grid = PositionGrid.over(3000.0, 500.0)
    without = estimate_pointwise((sc,), grid, 300, SeedPolicy(9))[0]
    with_rss = estimate_pointwise((sc,), grid, 300, SeedPolicy(9),
                                  better=_better((sc,), grid))[0]
    assert without.rss is None
    # front and combined on two antennas, front alone on one
    assert with_rss.rss.value.shape == (len(grid.positions), 2 if scheme is Scheme.PROPOSED
                                        else 1)
    assert_sweeps_equal(with_rss._replace(rss=None), without)


def test_mean_rss_reduces_the_front_and_combined_rows_only(monkeypatch):
    """A four-scheme sweep on the 250 m grid reduces 6 mean-RSS rows per
    position, two per shadowing scheme: front and combined for proposed,
    das-blanket and traditional, while das-single reads proposed's front row."""
    reduced, row_stats = [], montecarlo._row_stats

    def counting(rows):
        reduced.append(len(rows))
        return row_stats(rows)

    monkeypatch.setattr(montecarlo, "_row_stats", counting)
    grid = PositionGrid.over(3000.0, 250.0)
    scs = tuple(Scenario().with_scheme(s) for s in Scheme)
    sweeps = dict(zip(Scheme, estimate_pointwise(scs, grid, 50, SeedPolicy(3),
                                                 better=_better(scs, grid))))
    assert reduced == [2] * 3 * len(grid.positions)
    assert {s: e.rss.value.shape[1] for s, e in sweeps.items()} == {
        Scheme.PROPOSED: 2, Scheme.DAS_BLANKET: 2, Scheme.DAS_SINGLE: 1, Scheme.TRADITIONAL: 2}
    for field in ("value", "half_width_95"):
        single = getattr(sweeps[Scheme.DAS_SINGLE].rss, field)
        assert single.tobytes() == getattr(sweeps[Scheme.PROPOSED].rss, field)[:, :1].tobytes()


def test_pointwise_returns_the_columns_outputs_read():
    """A four-scheme sweep on the 250 m grid gives each scheme the front
    antenna's trigger and failure and the scheme-level interruption, one
    value per position; das-single reads proposed's counts."""
    grid = PositionGrid.over(3000.0, 250.0)
    scs = tuple(Scenario().with_scheme(s) for s in Scheme)
    sweeps = dict(zip(Scheme, estimate_pointwise(scs, grid, 200, SeedPolicy(3))))
    for sweep in sweeps.values():
        for name in ("trigger", "failure", "interruption"):
            for a in getattr(sweep, name):
                assert a.shape == (len(grid.positions),), name
    single, proposed = sweeps[Scheme.DAS_SINGLE], sweeps[Scheme.PROPOSED]
    for name in ("trigger", "failure"):
        for a, b in zip(getattr(single, name), getattr(proposed, name)):
            assert a.tobytes() == b.tobytes(), name


@st.composite
def _sweep_case(draw) -> tuple:
    """The scenarios of one run, a scheme subset in any order, with a
    trial count, whether to ask for mean RSS, a job count and a first-crossing
    block size."""
    n_raus = draw(st.integers(1, 8))
    per_rau = draw(st.one_of(st.none(), st.lists(st.sampled_from((0.5, 4.0, 8.0, 12.0)),
                                                 min_size=n_raus, max_size=n_raus).map(tuple)))
    base = Scenario(n_raus=n_raus, shadow_sigma_per_rau=per_rau,
                    selection=draw(st.sampled_from(list(SelectionRule))),
                    hysteresis=draw(st.sampled_from((0.0, 2.0, 1e6))))
    schemes = draw(st.permutations(list(Scheme)))[:draw(st.integers(1, len(Scheme)))]
    scs = [base.with_scheme(s) for s in schemes]
    # now and then one scenario differs in a field the reuse rule checks
    odd = draw(st.sampled_from((None,) + tuple(range(len(schemes)))))
    if odd is not None:
        flipped = next(r for r in SelectionRule if r is not base.selection)
        scs[odd] = replace(scs[odd], **draw(st.sampled_from((
            {"hysteresis": base.hysteresis + 0.5}, {"threshold": base.threshold - 1.0},
            {"shadow_sigma_per_rau": (2.0,) * n_raus}, {"selection": flipped}))))
    scs = tuple(scs)
    # shadowed folds gcd(trials, 64) trials into the component axis: 1, 2, 64
    return (scs, draw(st.sampled_from((1, 2, 57, 64, 2003))), draw(st.booleans()),
            draw(st.sampled_from((1, 2))), draw(st.sampled_from((8, montecarlo._BLOCK))))


@settings(max_examples=100)
@given(_sweep_case())
# das-single reads proposed's counts and front mean rows, at a fold of 64
@example(((Scenario(), Scenario(scheme=Scheme.DAS_SINGLE)), 64, True, 1, 8))
def test_pointwise_equals_the_scalar_oracle(case):
    """The joint sweep gives every scenario what the single-scenario oracle
    gives it, which draws each antenna and cell on its own and scores
    scalar rows: values, half-widths and base counts bit for bit, NaN
    where no trial triggered."""
    scs, trials, mean_rss, jobs, _ = case
    grid = PositionGrid.over(3000.0, 500.0)
    better = _better(scs, grid) if mean_rss else None
    got = estimate_pointwise(scs, grid, trials, SeedPolicy(31), jobs=jobs, better=better)
    assert len(got) == len(scs)
    for k, (sweep, sc) in enumerate(zip(got, scs)):
        assert_sweeps_equal(sweep, pointwise_sweep(sc, grid, trials, SeedPolicy(31),
                                                   better[k] if better else None))


@settings(max_examples=100)
@given(_sweep_case(), st.sampled_from((3, 5, montecarlo._SUB_BLOCK)))
# one block of sub-blocks ending mid-sub-block; several blocks, each ending
# mid-sub-block, in one thread and in two
@example(((Scenario(),), 2003, False, 1, montecarlo._BLOCK), montecarlo._SUB_BLOCK)
@example(((Scenario(), Scenario(scheme=Scheme.TRADITIONAL)), 2003, False, 1, 8), 3)
@example(((Scenario(), Scenario(scheme=Scheme.TRADITIONAL)), 2003, False, 2, 8), 3)
def test_first_crossing_equals_the_single_scenario_oracle(case, sub_block):
    """Each block drawn once for every scenario, in sub-blocks, gives each
    the histogram of its own single-scenario sweep, which draws the block
    at once, bit for bit, at any block and sub-block size."""
    scs, trials, _, jobs, block = case
    grid = PositionGrid.over(3000.0, 250.0)
    with mock.patch.multiple(montecarlo, _BLOCK=block, _SUB_BLOCK=sub_block):
        got = estimate_first_crossing(scs, grid, trials, SeedPolicy(32), jobs=jobs)
        want = [first_crossing(sc, grid, trials, SeedPolicy(32))[0] for sc in scs]
    assert len(got) == len(scs)
    for g, w in zip(got, want):
        assert_crossings_equal(g, w)


def test_pointwise_sweep_runs_no_quadrature(monkeypatch):
    """The sweep reads link tables only: with the caller's better-cell flags
    or without them it integrates nothing, and its mean-RSS rows are the
    ones the scalar oracle forms from the same flags."""
    grid = PositionGrid.over(3000.0, 500.0)
    scs = tuple(Scenario().with_scheme(s) for s in Scheme)
    better = _better(scs, grid)
    want = [pointwise_sweep(sc, grid, 50, SeedPolicy(2), b) for sc, b in zip(scs, better)]

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran a quadrature")

    for module, name in ((channel, "cell_means"), (channel, "max_means"),
                         (channel, "integrate_rows"), (statfun, "integrate_rows")):
        monkeypatch.setattr(module, name, refuse)
    for got, w in zip(estimate_pointwise(scs, grid, 50, SeedPolicy(2), better=better), want):
        assert_sweeps_equal(got, w)
    for got, w in zip(estimate_pointwise(scs, grid, 50, SeedPolicy(2)), want):
        assert_sweeps_equal(got, w._replace(rss=None))


def test_a_scenario_reads_mean_rows_only_under_equal_flags():
    """das-single repeats proposed's front links, but given other better-cell
    flags it forms its own mean rows: each scenario's are the oracle's from
    its own flags."""
    grid = PositionGrid.over(3000.0, 500.0)
    scs = (Scenario(), Scenario().with_scheme(Scheme.DAS_SINGLE))
    n = len(grid.positions)
    better = [np.ones((n, 2), dtype=bool), np.zeros((n, 1), dtype=bool)]
    for sweep, sc, b in zip(estimate_pointwise(scs, grid, 64, SeedPolicy(5), better=better),
                            scs, better):
        assert_sweeps_equal(sweep, pointwise_sweep(sc, grid, 64, SeedPolicy(5), b))


def test_pointwise_rejects_flags_of_the_wrong_count_or_shape():
    """better holds one (positions, antennas) array per scenario, else ValueError."""
    grid = PositionGrid.over(3000.0, 500.0)
    scs = (Scenario(), Scenario().with_scheme(Scheme.DAS_SINGLE))
    flags = _better(scs, grid)
    for better in (flags[:1], flags + flags[:1], [flags[0], flags[0]], [flags[0].T, flags[1]],
                   [flags[0][:-1], flags[1]], [flags[0], flags[1][:, 0]]):
        with pytest.raises(ValueError, match=r"one \(positions, antennas\) array per scenario"):
            estimate_pointwise(scs, grid, 10, SeedPolicy(1), better=better)


def test_mean_pathloss_trigger_estimate_tracks_analytic():
    """Mean-pathloss cells keep every RAU link, so the boundary-RAU
    trigger comparands exist; agreement within validate's limit."""
    sc = Scenario(selection=SelectionRule.MEAN_PATHLOSS)
    grid = PositionGrid.over(3000.0, 250.0)
    trials = 20_000
    est = estimate_pointwise((sc,), grid, trials, SeedPolicy(12345), jobs=2)[0].trigger
    p = _trigger_probs(sc, grid, AntennaId.FRONT)
    limit = np.maximum(0.01, 3.0 * np.sqrt(p * (1.0 - p) / trials))
    assert (np.abs(est.value - p) <= limit).all()


def test_protocol_runs_under_mean_pathloss_selection(coarse_grid):
    sc = Scenario(selection=SelectionRule.MEAN_PATHLOSS)
    stats = estimate_protocol(sc, coarse_grid, 20, SeedPolicy(5))
    assert stats.trials == 20
    assert stats.rear_ho_hist.sum() <= stats.front_ho_hist.sum() <= 20


def test_first_crossing_certain_trigger_concentrates_at_first_point():
    sc = replace(Scenario(), shadow_sigma=1e-9, hysteresis=0.0)
    grid = PositionGrid(np.arange(1600.0, 1700.0 + 1, 10.0), 10.0)
    est = estimate_first_crossing((sc,), grid, 50, SeedPolicy(4))[0]
    assert est.value[0] == 1.0
    assert np.all(est.value[1:] == 0.0)
    assert first_crossing(sc, grid, 50, SeedPolicy(4))[1] == 0


def test_first_crossing_huge_hysteresis_never_triggers(grid):
    sc = replace(Scenario(), hysteresis=1e6)
    est = estimate_first_crossing((sc,), grid, 50, SeedPolicy(4))[0]
    assert np.all(est.value == 0.0)
    assert first_crossing(sc, grid, 50, SeedPolicy(4))[1] == 50


def test_first_crossing_masses_partition_unity(sc, grid):
    """The masses and the oracle's no-trigger share sum to one."""
    est = estimate_first_crossing((sc,), grid, 500, SeedPolicy(21))[0]
    want, none = first_crossing(sc, grid, 500, SeedPolicy(21))
    assert_crossings_equal(est, want)
    assert est.value.sum() + none / 500 == pytest.approx(1.0, abs=1e-12)
    assert np.all(est.value >= 0.0)
    assert np.all(est.base_count == 500)


def test_first_crossing_tracks_analytic_occurrence(sc, grid):
    est = estimate_first_crossing((sc,), grid, 20_000, SeedPolicy(99), jobs=8)[0]
    ana = occurrence_masses(trigger_curve(sc, grid), grid.step)
    assert np.max(np.abs(est.value - ana)) <= 0.01


def test_first_crossing_parallel_runs_are_bitwise_identical(sc, coarse_grid):
    a = estimate_first_crossing((sc,), coarse_grid, 600, SeedPolicy(31), jobs=1)[0]
    b = estimate_first_crossing((sc,), coarse_grid, 600, SeedPolicy(31), jobs=8)[0]
    assert_crossings_equal(a, b)


def test_first_crossing_peak_memory_does_not_grow_with_trials(grid):
    """Blocks are drawn and compared in sub-blocks, so the sweep's traced
    peak on the default grid reads the same at 20 000 and 60 000 trials,
    a few MiB (about 120 MiB when a whole 8192-trial block was drawn at once)."""
    scs = tuple(Scenario().with_scheme(scheme) for scheme in Scheme)
    estimate_first_crossing(scs, grid, 10, SeedPolicy(5))  # builds the cached link tables
    peaks = []
    for trials in (20_000, 60_000):
        tracemalloc.start()
        try:
            estimate_first_crossing(scs, grid, trials, SeedPolicy(5), jobs=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]
    assert max(peaks) < 8 * 2 ** 20


def test_protocol_peak_memory_does_not_grow_with_trials(grid):
    """Each block sums its crossings' attempt marks, so the protocol
    estimator's traced peak on the default grid, where no crossing is
    interrupted, reads the same at 1 280 and 5 120 crossings (8% more at
    5 120 when every crossing's (positions,) marks were kept to the end)."""
    sc = replace(Scenario(), threshold=-1e6)
    estimate_protocol(sc, grid, 10, SeedPolicy(5))  # builds the cached link table
    peaks = []
    for trials in (1280, 5120):
        tracemalloc.start()
        try:
            estimate_protocol(sc, grid, trials, SeedPolicy(5), jobs=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]


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
    assert np.array_equal(stats.front_ho_hist, 40 * _front_attach_law(sc, grid))
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
    assert abs(rate - failure_curve((sc,), grid)[0][k]) <= 0.02


def _front_attach_law(sc, grid):
    """The front antenna's attach-position law: shadowing is independent
    across positions, so the antenna attaches at the first crossing of
    q = trigger x (1 - failure), with q = 0 where failure is undefined."""
    failure = failure_curve((sc,), grid)[0]
    q = np.where(np.isnan(failure), 0.0, trigger_curve(sc, grid) * (1.0 - failure))
    return occurrence_masses(q, grid.step)


def test_protocol_front_attach_histogram_follows_the_closed_form_law(sc, grid):
    """Pearson chi-square of the front attach histogram against the law,
    20 000 crossings at a fixed seed, at a false-alarm rate of 1e-4. Each
    bin expecting at least 5 crossings is a cell; the sparse bins and the
    never-attached outcome pool into one last cell."""
    trials = 20_000
    observed = estimate_protocol(sc, grid, trials, SeedPolicy(12345), jobs=2).front_ho_hist
    expected = trials * _front_attach_law(sc, grid)
    kept = expected >= 5
    observed = np.append(observed[kept], trials - observed[kept].sum())
    expected = np.append(expected[kept], trials - expected[kept].sum())
    assert expected[-1] >= 5
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic <= chi2.isf(1e-4, len(expected) - 1)


@pytest.mark.parametrize("estimator", [estimate_pointwise, estimate_first_crossing])
def test_estimators_reject_no_scenarios(estimator, coarse_grid):
    with pytest.raises(ValueError, match="at least one scenario"):
        estimator((), coarse_grid, 10, SeedPolicy(1))


def test_estimators_validate_trials(sc, coarse_grid):
    with pytest.raises(ValueError):
        estimate_pointwise((sc,), coarse_grid, 0, SeedPolicy(1))
    with pytest.raises(ValueError):
        estimate_first_crossing((sc,), coarse_grid, -5, SeedPolicy(1))
    with pytest.raises(ValueError):
        estimate_protocol(sc, coarse_grid, 0, SeedPolicy(1))
