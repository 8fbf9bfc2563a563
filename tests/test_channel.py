"""Per-link RSS statistics, the link table, cell means, sampling.

Physical anchors are read from the link table, the package's one source
of link statistics; the scalar distributions of `tests/link_oracle.py`
serve the checks of the reference routines and the bitwise comparisons.
Numeric anchors were frozen from hand arithmetic on the default
geometry and from seeded draw oracles; each constant notes its source.
"""

import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from railhandover import channel, statfun
from railhandover.analytics import MetricMode, PositionGrid, failure_curve, interruption_curve
from railhandover.scenario import AntennaId, CellId, Scenario, Scheme, SelectionRule
from link_oracle import (
    DistributionKind,
    LinkStat,
    RssDistribution,
    cdf,
    distribution_mean,
    link_stat,
    rss_distribution,
    table_components,
    table_distribution,
    table_trigger_pair,
    trigger_pair,
)
from rss_oracles import (
    cdf_array,
    mean_by_density,
    pdf,
    sample_rss,
    sample_rss_block,
    support,
)

# hand arithmetic: hypot(1500-1125, 60) and the dB slope 35 per decade
MU_FRONT_SERVING_LAST_1500 = -35.78320958352816
MU_FRONT_SERVING_LAST_2250 = -52.311925812143215
# product of four component CDFs at r = -30, x = 1500 (front, serving)
CDF_AT_MINUS30_1500 = 0.925883671769651


def _table(sc, *xs):
    """The link table of sc at the front positions xs (increasing)."""
    return channel.link_table(sc, PositionGrid(xs, 1.0))


def test_path_loss_reference_points(sc):
    """A traditional link at x = 0 spans d0: its mean is tx_power minus
    31.5 + 35 log10(d0), 31.5, 101.5 and 136.5 dB at 1, 100 and 1000 m."""
    for d0, loss in ((1.0, 31.5), (100.0, 101.5), (1000.0, 136.5)):
        table = _table(replace(sc, d0=d0, scheme=Scheme.TRADITIONAL), 0.0)
        assert 86.0 - table.mu[0, 0, 0, 0] == pytest.approx(loss)


def test_path_loss_rejects_a_zero_distance_link():
    """A base station on the track at x = 0 is a zero-distance link, which
    the table names instead of taking the log of zero."""
    sc = Scenario(d0=0.0, scheme=Scheme.TRADITIONAL)
    with pytest.raises(ValueError, match=r"^link distance 0 m of traditional at x=0 m "
                                         r"\(front antenna, serving cell\): "
                                         r"path loss requires distance > 0$"):
        _table(sc, 0.0)


@given(st.floats(min_value=1.0, max_value=1e5), st.floats(min_value=1.001, max_value=2.0))
def test_path_loss_increases_with_distance(d, factor):
    """The traditional link mean at x = 0 falls strictly as d0 grows."""
    near, far = (_table(Scenario(d0=d0, scheme=Scheme.TRADITIONAL), 0.0).mu[0, 0, 0, 0]
                 for d0 in (d, d * factor))
    assert far < near


def test_per_rau_power_split(sc):
    """Without fading the blanket cell mean is the power sum of the proposed
    table's full-power unit links, each lowered by the split 10 log10(n_raus)."""
    quiet = replace(sc, shadow_sigma=1e-9)
    units = _table(quiet, 900.0).mu[0, 0, 0]
    total = 10.0 * math.log10(sum(10.0 ** (m / 10.0) for m in units))
    split = _table(quiet.with_scheme(Scheme.DAS_BLANKET), 900.0).mu[0, 0, 0, 0] - total
    assert split == pytest.approx(-10.0 * math.log10(4.0), abs=1e-9)
    assert 86.0 + split == pytest.approx(79.98, abs=0.01)


def test_link_stat_anchors(sc):
    """The serving cell's last RAU link of the front antenna."""
    table = _table(sc, 1500.0, 2250.0)
    mu, sigma = table.mu[:, 0, 0, 3], table.sigma[:, 0, 0, 3]
    assert mu[0] == pytest.approx(MU_FRONT_SERVING_LAST_1500, abs=1e-9)
    assert mu[0] == pytest.approx(-35.79, abs=0.02)
    assert sigma[0] == 4.0
    assert mu[1] == pytest.approx(MU_FRONT_SERVING_LAST_2250, abs=1e-9)
    assert mu[1] == pytest.approx(-52.31, abs=0.02)


def test_link_stat_rear_antenna_shifts_by_train_length(sc):
    table = _table(sc, 1500.0, 1700.0)
    assert table.antennas == (AntennaId.FRONT, AntennaId.REAR)
    assert table.mu[1, 1, 0, 3] == pytest.approx(table.mu[0, 0, 0, 3], abs=1e-12)


def test_link_stat_rejects_bad_rau_index(sc):
    with pytest.raises(ValueError):
        link_stat(sc, 1500.0, 0, AntennaId.FRONT, CellId.SERVING)
    with pytest.raises(ValueError):
        link_stat(sc, 1500.0, 5, AntennaId.FRONT, CellId.SERVING)


def test_link_stat_validation():
    with pytest.raises(ValueError, match="sigma"):
        LinkStat(-30.0, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        LinkStat(-30.0, -1.0)
    with pytest.raises(ValueError, match="mu"):
        LinkStat(float("inf"), 4.0)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_link_table_rejects_a_nonfinite_link_mean(scheme):
    """A path-loss exponent of 1e307 sends every link mean to -inf; the
    table names the scheme, the position, the antenna and the cell."""
    sc = Scenario(pathloss_gamma=1e307, scheme=scheme)
    with pytest.raises(ValueError, match=rf"link mean -inf of {scheme.value} at x=0 m "
                                         r"\(front antenna, serving cell\) is not finite"):
        _table(sc, 0.0)


@pytest.mark.parametrize("tx_power", [1e5, 1700.0, -1e5])
def test_blanket_power_sum_beyond_float_range_is_rejected(tx_power):
    """Finite unit links whose linear powers, or the square of their sum,
    overflow or underflow: the blanket sum is named as the link, without
    a numpy warning or an OverflowError."""
    sc = Scenario(tx_power=tx_power, scheme=Scheme.DAS_BLANKET)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"link mean \S+ of das-blanket at x=0 m "
                                             r"\(front antenna, serving cell\) is not finite"
                           ) as caught:
            _table(sc, 0.0)
    assert "shadow_sigma" not in str(caught.value)  # the sum overflows without fading too


def test_rss_distribution_kinds(sc):
    """Max-RSS selection keeps one column per RAU and no pick; blanket and
    traditional cells are one Gaussian."""
    table = _table(sc, 1500.0)
    assert table.mu.shape == (1, 2, 2, 4) and table.cell_column is None
    for scheme in (Scheme.DAS_BLANKET, Scheme.TRADITIONAL):
        table = _table(sc.with_scheme(scheme), 1500.0)
        assert table.mu.shape == (1, 2, 2, 1) and table.cell_column is None


def test_proposed_distribution_has_one_component_per_rau(sc):
    comps = table_components(_table(sc, 1500.0), 0, 0, 0)
    assert len(comps) == 4
    assert comps[-1].mu == pytest.approx(MU_FRONT_SERVING_LAST_1500)


def test_traditional_uses_bs_offset(sc):
    table = _table(sc.with_scheme(Scheme.TRADITIONAL), 0.0)
    assert table.mu[0, 0, 0, 0] == pytest.approx(-15.5)


def test_single_rau_cell_matches_traditional_with_rau_offset():
    """One RAU on the base station at the base station's offset is the
    traditional link: equal tables, hence equal interruption curves."""
    grid = PositionGrid((0.0, 800.0, 1500.0, 2900.0), 1.0)
    das = Scenario(n_raus=1, dr=3000.0)
    trad = Scenario(d0=60.0).with_scheme(Scheme.TRADITIONAL)
    a, b = channel.link_table(das, grid), channel.link_table(trad, grid)
    for array in ("mu", "sigma"):
        assert getattr(a, array).tobytes() == getattr(b, array).tobytes()
    for mode in MetricMode:
        assert interruption_curve(das, grid, mode).tobytes() == \
            interruption_curve(trad, grid, mode).tobytes()


def test_blanket_distribution_matches_moment_matching(sc):
    table = _table(sc.with_scheme(Scheme.DAS_BLANKET), 1500.0)
    assert table.mu[0, 0, 0, 0] == pytest.approx(-41.62250121590523, abs=1e-9)
    assert table.sigma[0, 0, 0, 0] == pytest.approx(3.9287018592077936, abs=1e-9)


def test_blanket_preserves_linear_mean_power(sc):
    """The blanket Gaussian's mean power is the sum of the per-RAU links'
    mean powers, the links of the proposed table at the split power."""
    lam = math.log(10.0) / 10.0
    blanket = sc.with_scheme(Scheme.DAS_BLANKET)
    table = _table(blanket, 900.0)
    mu, sigma = table.mu[0, 0, 0, 0], table.sigma[0, 0, 0, 0]
    split = -10.0 * math.log10(4.0)
    parts = _table(sc, 900.0)
    want = sum(math.exp(lam * (m + split) + 0.5 * (lam * s) ** 2)
               for m, s in zip(parts.mu[0, 0, 0], parts.sigma[0, 0, 0]))
    got = math.exp(lam * mu + 0.5 * (lam * sigma) ** 2)
    assert got == pytest.approx(want, rel=1e-9)


def test_mean_pathloss_selection_collapses_to_best_unit(sc):
    picky = replace(sc, selection=SelectionRule.MEAN_PATHLOSS)
    table = _table(picky, 1500.0)
    assert table.cell_column[0, 0, 0] == 3  # the serving cell's last RAU
    (comp,) = table_components(table, 0, 0, 0)
    assert comp.mu == pytest.approx(MU_FRONT_SERVING_LAST_1500)
    # the deterministic pick forfeits the selection gain of the shadowed max
    grid = PositionGrid((1500.0,), 1.0)
    assert channel.cell_means((picky,), grid)[0][0][0, 0, 0] < \
        channel.cell_means((sc,), grid)[0][0][0, 0, 0]


def test_cdf_of_identical_components_is_power():
    dist = RssDistribution(DistributionKind.MAX_OF_GAUSSIANS,
                           tuple(LinkStat(-40.0, 4.0) for _ in range(3)))
    single = ndtr((-38.0 - (-40.0)) / 4.0)
    assert cdf(dist, -38.0) == pytest.approx(single ** 3, rel=1e-12)


def test_cdf_vanishes_far_below_support(sc):
    dist = rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING)
    lowest = min(c.mu for c in dist.components) - 20.0 * 4.0
    assert cdf(dist, lowest) <= 1e-12


def test_cdf_anchor_and_draw_oracle(sc):
    dist = rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING)
    value = cdf(dist, -30.0)
    assert value == pytest.approx(CDF_AT_MINUS30_1500, abs=1e-12)
    draws = sample_rss_block(dist, np.random.default_rng(42), 10 ** 6)
    assert value == pytest.approx(np.mean(draws <= -30.0), abs=0.002)


@given(st.floats(min_value=-100.0, max_value=0.0), st.floats(min_value=0.0, max_value=30.0))
def test_cdf_monotone_bounded(r, dr):
    dist = rss_distribution(Scenario(), 1500.0, AntennaId.FRONT, CellId.SERVING)
    lo, hi = cdf(dist, r), cdf(dist, r + dr)
    assert 0.0 <= lo <= hi <= 1.0


@given(st.floats(min_value=-90.0, max_value=-10.0))
def test_max_cdf_below_every_component_cdf(r):
    dist = rss_distribution(Scenario(), 1200.0, AntennaId.FRONT, CellId.SERVING)
    whole = cdf(dist, r)
    for c in dist.components:
        assert whole <= ndtr((r - c.mu) / c.sigma) + 1e-15


def test_cdf_array_matches_scalar(sc):
    dist = rss_distribution(sc, 700.0, AntennaId.FRONT, CellId.SERVING)
    rs = np.linspace(-80.0, 10.0, 101)
    block = cdf_array(dist, rs)
    for r, v in zip(rs, block):
        assert v == pytest.approx(cdf(dist, r), abs=1e-15)


def test_pdf_single_component_is_normal_density():
    dist = RssDistribution(DistributionKind.SINGLE_GAUSSIAN, (LinkStat(-20.0, 3.0),))
    want = math.exp(-0.5 * ((-19.0 + 20.0) / 3.0) ** 2) / (3.0 * math.sqrt(2 * math.pi))
    assert pdf(dist, -19.0) == pytest.approx(want, rel=1e-12)


def test_pdf_normalizes(sc):
    from quadpack_oracle import integrate

    dist = rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING)
    lo, hi = support(dist)
    assert integrate(lambda r: pdf(dist, r), lo, hi).require() == pytest.approx(
        1.0, abs=1e-6)


def test_pdf_matches_cdf_derivative(sc):
    dist = rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING)
    h = 1e-3
    for r in (-50.0, -40.0, -35.0, -30.0, -25.0):
        fd = (cdf(dist, r + h) - cdf(dist, r - h)) / (2.0 * h)
        assert pdf(dist, r) == pytest.approx(fd, abs=1e-5)


def test_support_covers_all_components(sc):
    dist = rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING)
    lo, hi = support(dist)
    mus = [c.mu for c in dist.components]
    assert lo == pytest.approx(min(mus) - 40.0)
    assert hi == pytest.approx(max(mus) + 40.0)
    both = support([dist, rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.TARGET)])
    assert both[0] <= lo and both[1] >= hi


@pytest.mark.parametrize("sigmas", [(4.0, 4.0, 4.0, 4.0), (0.5, 4.0, 8.0, 12.0),
                                    (0.05, 0.05, 0.05, 0.05)])
def test_distribution_mean_matches_density_oracle(sc, sigmas):
    """Cell means against the r-domain integral of r times the density."""
    picky = replace(sc, shadow_sigma_per_rau=sigmas)
    xs = (0.0, 700.0, 1500.0, 2250.0)
    means, _ = channel.cell_means((picky,), PositionGrid(xs, 1.0))[0]
    for j, x in enumerate(xs):
        for c, cell in enumerate(channel.CELLS):
            dist = rss_distribution(picky, x, AntennaId.FRONT, cell)
            assert means[j, 0, c] == pytest.approx(mean_by_density(dist), abs=1e-7)


@pytest.mark.parametrize("sigma", [1e-9, 1e-6, 1e-3, 0.01])
def test_distribution_mean_without_fading_is_largest_mu(sc, sigma):
    """An integral over r misses so narrow a density (it read 0 dBm below 0.01)."""
    faded = replace(sc, shadow_sigma=sigma)
    grid = PositionGrid((0.0, 1500.0, 2600.0), 1.0)
    means, _ = channel.cell_means((faded,), grid)[0]
    top = channel.link_table(faded, grid).mu[:, 0, 0].max(axis=-1)
    assert means[:, 0, 0] == pytest.approx(top, abs=10.0 * sigma)


def test_distribution_mean_rejects_nonfinite_cdf_arguments():
    # mean gaps over a subnormal sigma overflow the standardized offsets
    tiny = RssDistribution(DistributionKind.MAX_OF_GAUSSIANS,
                           (LinkStat(-40.0, 1e-320), LinkStat(-45.0, 1e-320)))
    with pytest.raises(ValueError, match="finite"):
        distribution_mean(tiny)


def test_distribution_mean_of_single_is_mu():
    dist = RssDistribution(DistributionKind.SINGLE_GAUSSIAN, (LinkStat(-20.0, 3.0),))
    assert distribution_mean(dist) == -20.0


def test_selection_gain_raises_mean(sc):
    """Mean of the max strictly exceeds every component mean."""
    grid = PositionGrid((1500.0,), 1.0)
    mean = channel.cell_means((sc,), grid)[0][0][0, 0, 0]
    assert mean > channel.link_table(sc, grid).mu[0, 0, 0].max()
    assert mean == pytest.approx(-35.78035986311425, abs=1e-6)


def test_trigger_pair_selection_uses_boundary_raus(sc):
    table = _table(sc, 1500.0, 2250.0)
    assert table.trigger_column == (3, 0)
    serving, target = table_trigger_pair(table, 0, 0)
    assert serving.mu == pytest.approx(MU_FRONT_SERVING_LAST_1500)
    assert target.mu == pytest.approx(MU_FRONT_SERVING_LAST_1500)  # symmetric point
    serving, target = table_trigger_pair(table, 1, 0)
    assert target.mu - serving.mu == pytest.approx(16.52, abs=0.02)


def test_trigger_pair_blanket_uses_cell_distributions(sc):
    table = _table(sc.with_scheme(Scheme.DAS_BLANKET), 1500.0)
    assert table.trigger_column == (0, 0)
    serving, target = table_trigger_pair(table, 0, 0)
    assert serving.sigma == pytest.approx(3.9287018592077936)
    assert serving.mu == pytest.approx(target.mu, abs=1e-6)


# --- link table ---


def _table_scenarios():
    for scheme in Scheme:
        for selection in SelectionRule:
            for n_raus in (1, 2, 3, 4, 8):
                for per_rau in (None, tuple(0.5 + 1.5 * n for n in range(n_raus))):
                    yield Scenario(n_raus=n_raus, scheme=scheme, selection=selection,
                                   shadow_sigma_per_rau=per_rau)


def test_link_table_matches_scalar_path():
    """Every cell distribution and trigger comparand equals the scalar one bitwise."""
    grid = PositionGrid.over(3000.0, 375.0)
    for sc in _table_scenarios():
        table = channel.link_table(sc, grid)
        assert table.antennas == sc.antennas()
        for j, x in enumerate(grid.positions):
            for a, antenna in enumerate(sc.antennas()):
                pair = trigger_pair(sc, x, antenna)
                for c, cell in enumerate(channel.CELLS):
                    assert table_components(table, j, a, c) == \
                        rss_distribution(sc, x, antenna, cell).components
                    n = table.trigger_column[c]
                    assert LinkStat(table.mu[j, a, c, n], table.sigma[j, a, c, n]) \
                        == pair[c]


def test_link_table_is_cached_and_read_only(sc):
    grid = PositionGrid.over(3000.0, 500.0)
    channel.link_table.cache_clear()
    table = channel.link_table(sc, grid)
    assert channel.link_table(sc, PositionGrid.over(3000.0, 500.0)) is table
    assert channel.link_table.cache_info().hits == 1
    means, target_better = channel.cell_means((sc,), grid)[0]
    for array in (table.mu, table.sigma, means, target_better):
        assert not array.flags.writeable


def test_cell_means_match_scalar_means(sc):
    grid = PositionGrid.over(3000.0, 500.0)
    for scheme in Scheme:
        s = sc.with_scheme(scheme)
        means, _ = channel.cell_means((s,), grid)[0]
        for j, x in enumerate(grid.positions):
            for a, antenna in enumerate(s.antennas()):
                for c, cell in enumerate(channel.CELLS):
                    assert means[j, a, c] == distribution_mean(
                        rss_distribution(s, x, antenna, cell))


def _four_scheme_means(sc, grid):
    """channel.cell_means of the four schemes."""
    return channel.cell_means(tuple(sc.with_scheme(scheme) for scheme in Scheme), grid)


@pytest.mark.parametrize("elements", [1, 10 ** 9], ids=["one-interval", "every-interval"])
def test_cell_means_do_not_depend_on_the_slice_width(sc, grid, monkeypatch, elements):
    """The mean integrand runs over its intervals in slices; one interval
    per slice, or every interval in one, gives the same bits."""
    want = _four_scheme_means(sc, grid)
    monkeypatch.setattr(statfun, "_SLICE_ELEMENTS", elements)
    for (m, b), (w, v) in zip(_four_scheme_means(sc, grid), want):
        assert m.tobytes() == w.tobytes() and b.tobytes() == v.tobytes()


def _four_scheme_failure(sc, grid, mode=MetricMode.REDERIVED):
    """failure_curve of the four schemes in one call."""
    return failure_curve(tuple(sc.with_scheme(scheme) for scheme in Scheme), grid, mode)


@pytest.mark.parametrize("elements", [1, 10 ** 9], ids=["one-interval", "every-interval"])
@pytest.mark.parametrize("mode", list(MetricMode))
def test_failure_curve_does_not_depend_on_the_slice_width(sc, grid, monkeypatch, elements,
                                                          mode):
    """The failure integrands run over their intervals in slices too; one
    interval per slice, or every interval in one, gives the same bits."""
    want = _four_scheme_failure(sc, grid, mode)
    monkeypatch.setattr(statfun, "_SLICE_ELEMENTS", elements)
    assert _four_scheme_failure(sc, grid, mode).tobytes() == want.tobytes()


def test_cell_means_peak_memory_is_bounded(sc, grid):
    """The mean integrand's temporaries stay within a fixed element budget,
    so the traced peak of the four schemes' cell means on the default grid
    is a few MiB (about 10 MiB when every interval was evaluated at once)."""
    _four_scheme_means(sc, grid)  # builds the cached link tables
    tracemalloc.start()
    try:
        _four_scheme_means(sc, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_failure_curve_peak_memory_is_bounded(sc, grid):
    """The failure integrands' temporaries stay within the same element
    budget: the traced peak of the four schemes' failure curve on the
    default grid is under 2.5 MiB (about 3.3 MiB when every interval was
    evaluated at once)."""
    _four_scheme_failure(sc, grid)  # builds the cached link tables
    tracemalloc.start()
    try:
        _four_scheme_failure(sc, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


def test_better_cell_ties_stay_on_serving(sc, grid):
    """Mirror-image positions give equal cell means up to rounding; those
    three pairs keep the serving cell, every other pair is far from a tie."""
    ties = {(Scheme.PROPOSED, 1500.0, 0), (Scheme.PROPOSED, 1700.0, 1),
            (Scheme.DAS_SINGLE, 1500.0, 0)}
    for scheme in (Scheme.PROPOSED, Scheme.DAS_SINGLE):
        means, target_better = channel.cell_means((sc.with_scheme(scheme),), grid)[0]
        gap = np.abs(means[..., 1] - means[..., 0])
        for j, x in enumerate(grid.positions):
            for a in range(gap.shape[1]):
                if (scheme, x, a) in ties:
                    assert gap[j, a] <= channel.BETTER_CELL_MARGIN
                    assert not target_better[j, a]
                else:
                    assert gap[j, a] > 1e-6
    # two single Gaussians at mirror-image distances tie exactly
    means, target_better = channel.cell_means((sc.with_scheme(Scheme.TRADITIONAL),), grid)[0]
    j = grid.positions.index(1500.0)
    assert means[j, 0, 0] == means[j, 0, 1]
    assert not target_better[j, 0]


def _plain_power_sum_db(a, b):
    with np.errstate(over="ignore", divide="ignore"):
        return 10.0 * np.log10(np.power(10.0, a / 10.0) + np.power(10.0, b / 10.0))


@pytest.mark.parametrize("a, b, plain", [
    (-3230.0, -3231.0, -3227.04),  # subnormal powers: finite, but 0.42 dB off
    (3100.0, 3090.0, math.inf),  # the powers overflow
    (-20.0, -3300.0, -20.0),  # one power underflows to 0
    (-1e4, -1e4 - 1.0, -math.inf),  # both underflow
], ids=["subnormal", "overflow", "one-underflows", "both-underflow"])
def test_power_sum_db_matches_mpmath(a, b, plain):
    """Outside the normal float range the kernel factors out the larger
    power; it is exact to a few ulps where the plain form is off or not finite."""
    with mpmath.workdps(40):
        want = float(10 * mpmath.log10(mpmath.power(10, mpmath.mpf(a) / 10)
                                       + mpmath.power(10, mpmath.mpf(b) / 10)))
    got = channel.power_sum_db(np.array([a, b]), np.array([b, a]))
    assert got == pytest.approx([want, want], rel=1e-15, abs=0.0)
    assert got[0] == got[1]
    assert _plain_power_sum_db(np.float64(a), np.float64(b)) == pytest.approx(plain, abs=0.005)
    if a == -3230.0:
        assert want == pytest.approx(-3227.46098, abs=1e-5)


def test_power_sum_db_propagates_nan():
    got = channel.power_sum_db(np.array([np.nan, 0.0, np.nan, -4000.0]),
                               np.array([0.0, np.nan, np.nan, np.nan]))
    assert np.isnan(got).all()


def test_power_sum_db_is_the_plain_form_in_the_normal_range():
    """Bit for bit the plain numpy form, as tests/pointwise_oracle.py writes it."""
    a, b = np.random.default_rng(20).uniform(-300.0, 300.0, (2, 10 ** 5))
    assert channel.power_sum_db(a, b).tobytes() == _plain_power_sum_db(a, b).tobytes()


def _clear_package_caches():
    """Clear every cache reachable as a railhandover module attribute."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("railhandover"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _count_rows(monkeypatch) -> list:
    """Record the number of rows of each integrate_rows call from here on."""
    from railhandover import analytics

    calls = []
    for module in (channel, analytics):
        real = module.integrate_rows

        def counted(f, edges, where, per_node=1, _real=real):
            calls.append(len(edges))
            return _real(f, edges, where, per_node)

        monkeypatch.setattr(module, "integrate_rows", counted)
    return calls


@pytest.mark.parametrize("scenario", [
    Scenario(), Scenario(shadow_sigma_per_rau=(0.5, 4.0, 8.0, 12.0)), Scenario(n_raus=8),
    Scenario(selection=SelectionRule.MEAN_PATHLOSS)])
def test_keyed_cell_means_equal_uncached_means(scenario, monkeypatch):
    """Cell means keyed by their distinct component multisets equal one-row
    distribution_mean integrals bitwise, and one call integrates each
    distinct multiset of a multi-component row of its scenarios exactly
    once, whatever the order of its components."""
    grid = PositionGrid.over(3000.0, 100.0)
    _clear_package_caches()
    calls = _count_rows(monkeypatch)
    alone, every = [], set()
    for scheme in Scheme:
        s = scenario.with_scheme(scheme)
        table = channel.link_table(s, grid)
        del calls[:]
        means, _ = channel.cell_means((s,), grid)[0]
        alone.append(means)
        batch = list(calls)
        distinct = set()
        for j in range(len(grid.positions)):
            for a in range(len(table.antennas)):
                for c in range(len(channel.CELLS)):
                    dist = table_distribution(table, j, a, c)
                    if len(dist.components) > 1:
                        distinct.add(tuple(sorted((u.mu, u.sigma) for u in dist.components)))
                    assert float(means[j, a, c]).hex() == distribution_mean(dist).hex()
        assert batch == ([len(distinct)] if distinct else [])
        every |= distinct
    # all schemes at once, in any order: each distinct row of the run once
    # (das-single's rows are proposed's), and every mean as computed alone
    for order in (tuple(Scheme), tuple(reversed(Scheme))):
        del calls[:]
        joint = channel.cell_means(tuple(scenario.with_scheme(s) for s in order), grid)
        assert calls == ([len(every)] if every else [])
        for scheme, (means, _) in zip(order, joint):
            assert means.tobytes() == alone[list(Scheme).index(scheme)].tobytes()


def test_mirrored_rows_share_one_integration(sc, monkeypatch):
    """On the 250 m grid the front antenna's serving cell at x holds the
    components of its target cell at 3000 - x in reverse order: the two
    means are bit-identical, from one integrated row."""
    grid = PositionGrid.over(sc.ds, 250.0)
    _clear_package_caches()
    calls = _count_rows(monkeypatch)
    table = channel.link_table(sc, grid)
    means, _ = channel.cell_means((sc,), grid)[0]
    front = table.antennas.index(AntennaId.FRONT)
    mu, sigma = table.cell_components()
    serving = np.concatenate((mu[:, front, 0], sigma[:, front, 0]), axis=-1)
    target = np.concatenate((mu[::-1, front, 1, ::-1], sigma[::-1, front, 1, ::-1]), axis=-1)
    assert grid.positions == tuple(sc.ds - x for x in reversed(grid.positions))
    assert np.array_equal(serving, target)
    assert means[:, front, 0].tobytes() == means[::-1, front, 1].tobytes()
    k = mu.shape[-1]
    rows = [tuple(zip(m, s)) for m, s in zip(mu.reshape(-1, k), sigma.reshape(-1, k))]
    assert calls == [len({tuple(sorted(row)) for row in rows})]
    assert calls[0] < len(set(rows))


def test_das_single_failure_pairs_are_integrated_once(sc, monkeypatch):
    """das-single's front trigger pairs are the proposed front antenna's, so
    a joint failure curve of the two integrates each distinct pair once and
    gives both the proposed values, in either mode."""
    grid = PositionGrid.over(3000.0, 250.0)
    proposed, single = sc.with_scheme(Scheme.PROPOSED), sc.with_scheme(Scheme.DAS_SINGLE)
    for mode in MetricMode:
        _clear_package_caches()
        alone = failure_curve((proposed,), grid, mode=mode)[0]
        calls = _count_rows(monkeypatch)
        joint = failure_curve((proposed, single), grid, mode=mode)
        assert [c.tobytes() for c in joint] == [alone.tobytes()] * 2
        assert sum(calls) == np.count_nonzero(~np.isnan(alone))
        # das-single alone integrates every distinct pair once too
        del calls[:]
        assert failure_curve((single,), grid, mode=mode)[0].tobytes() == alone.tobytes()
        assert sum(calls) == np.count_nonzero(~np.isnan(alone))
        monkeypatch.undo()


def test_single_gaussian_cell_means_need_no_integral(monkeypatch):
    """A single Gaussian's mean is its mu: blanket, traditional, mean-pathloss
    and one-unit cells never reach the quadrature."""
    grid = PositionGrid.over(3000.0, 250.0)
    _clear_package_caches()
    calls = _count_rows(monkeypatch)
    for sc in (Scenario().with_scheme(Scheme.DAS_BLANKET),
               Scenario().with_scheme(Scheme.TRADITIONAL),
               Scenario(selection=SelectionRule.MEAN_PATHLOSS), Scenario(n_raus=1)):
        mu, _ = channel.link_table(sc, grid).cell_components()
        means, _ = channel.cell_means((sc,), grid)[0]
        assert mu.shape[-1] == 1
        assert means.tobytes() == mu[..., 0].tobytes()
    assert calls == []
    channel.cell_means((Scenario(),), grid)
    assert len(calls) == 1


def test_cleared_caches_keep_compare_cold(tmp_path, monkeypatch):
    """Clearing the caches found on module attributes, as a benchmark does
    before each cold operation, makes a rerun repeat every integral; a rerun
    without clearing them repeats every integral too, as only the link
    tables are cached across runs."""
    from railhandover.figures import RunConfig, compare_schemes

    config = RunConfig(scenario=Scenario(measurement_step=250.0), trials=200,
                       output_dir=tmp_path)
    calls = _count_rows(monkeypatch)
    counts = []
    for clear in (True, True, False):
        if clear:
            _clear_package_caches()
        del calls[:]
        compare_schemes(config)
        counts.append(sum(calls))
    assert counts[0] == counts[1] == counts[2] > 0


def test_sample_cell_rss_is_the_component_maximum(sc):
    """shadowed's running maximum over component columns equals np.max
    bitwise, for one position broadcast over trials and for every position."""
    grid = PositionGrid.over(3000.0, 250.0)
    for n_raus in (1, 2, 4, 8):
        table = channel.link_table(Scenario(n_raus=n_raus), grid)
        every = len(grid.positions)
        for rows, n in ((slice(3, 4), 500), (slice(None), every)):
            z = np.random.default_rng(11).standard_normal((2, 2, n, n_raus))
            want = np.max(np.moveaxis(table.mu[rows], 0, 2)
                          + np.moveaxis(table.sigma[rows], 0, 2) * z, axis=-1)
            cell, _ = table.shadowed(z, rows)
            assert cell.tobytes() == want.tobytes()


@pytest.mark.parametrize("selection", list(SelectionRule))
@pytest.mark.parametrize("n_raus", [1, 2, 4, 8])
def test_shadowed_equals_plain_scaling_in_both_layouts(selection, n_raus):
    """shadowed's folded kernel (one position over trials whose fold is 1,
    2 or 64) and its contiguous one (every position, under a leading
    crossing axis) give z * sigma + mu bitwise: the cell RSS is the
    component maximum or the mean-pathloss pick, the comparands are the
    trigger columns."""
    grid = PositionGrid.over(3000.0, 250.0)
    table = channel.link_table(Scenario(n_raus=n_raus, selection=selection), grid)
    rng = np.random.default_rng(n_raus)
    cases = [(slice(5, 6), (2, 2, n, n_raus)) for n in (1, 2, 57, 64, 2003)]
    cases.append((slice(None), (3, 2, 2, len(grid.positions), n_raus)))
    for rows, shape in cases:
        z = rng.standard_normal(shape)
        links = z * np.moveaxis(table.sigma[rows], 0, 2) + np.moveaxis(table.mu[rows], 0, 2)
        if table.cell_column is None:
            want = np.max(links, axis=-1)
        else:
            column = np.moveaxis(table.cell_column[rows], 0, 2)[..., np.newaxis]
            want = np.take_along_axis(links, np.broadcast_to(column, links.shape[:-1] + (1,)),
                                      axis=-1)[..., 0]
        s, t = table.trigger_column
        cell, (serving, target) = table.shadowed(z.copy(), rows)
        assert cell.tobytes() == want.tobytes()
        assert serving.tobytes() == links[..., 0, :, s].tobytes()
        assert target.tobytes() == links[..., 1, :, t].tobytes()


@pytest.mark.parametrize("selection", list(SelectionRule))
def test_batched_shadowing_equals_one_call_per_crossing(selection):
    """One shadowed call over a batch of crossings equals one call each."""
    grid = PositionGrid.over(3000.0, 250.0)
    table = channel.link_table(Scenario(selection=selection), grid)
    z = np.random.default_rng(5).standard_normal((3, 2, 2, len(grid.positions), 4))
    singles = [table.shadowed(zi.copy(), slice(None)) for zi in z]
    cell, trig = table.shadowed(z, slice(None))
    for i, (cell_i, trig_i) in enumerate(singles):
        assert cell[i].tobytes() == cell_i.tobytes()
        for batch, single in zip(trig, trig_i):  # serving, then target
            assert batch[i].tobytes() == single.tobytes()


# --- sampling ---


def test_sample_rss_degenerate_sigma_returns_max_mu():
    dist = RssDistribution(
        DistributionKind.MAX_OF_GAUSSIANS,
        (LinkStat(-50.0, 1e-9), LinkStat(-35.0, 1e-9), LinkStat(-44.0, 1e-9)))
    value = sample_rss(dist, np.random.default_rng(0))
    assert value == pytest.approx(-35.0, abs=1e-6)


def test_sample_mean_single_gaussian():
    dist = RssDistribution(DistributionKind.SINGLE_GAUSSIAN, (LinkStat(-20.0, 4.0),))
    draws = sample_rss_block(dist, np.random.default_rng(7), 10 ** 6)
    assert np.mean(draws) == pytest.approx(-20.0, abs=3.0 * 4.0 / 1000.0)


def test_scalar_and_block_sampling_agree_in_distribution(sc):
    dist = rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING)
    rng = np.random.default_rng(11)
    scalars = np.array([sample_rss(dist, rng) for _ in range(4000)])
    ks = _ks_distance(dist, np.sort(scalars))
    assert ks <= 0.035  # 95% KS band at n=4000 is 0.0215, tripled for margin


def test_block_sampling_tracks_cdf(sc):
    dist = rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING)
    draws = np.sort(sample_rss_block(dist, np.random.default_rng(3), 10 ** 6))
    assert _ks_distance(dist, draws) <= 0.005


def test_sampling_is_deterministic_per_stream(sc):
    dist = rss_distribution(sc, 1200.0, AntennaId.FRONT, CellId.SERVING)
    a = sample_rss_block(dist, np.random.default_rng(123), 64)
    b = sample_rss_block(dist, np.random.default_rng(123), 64)
    assert np.array_equal(a, b)


def _ks_distance(dist, sorted_draws):
    n = len(sorted_draws)
    model = cdf_array(dist, sorted_draws)
    steps = np.arange(1, n + 1) / n
    return max(np.max(np.abs(model - steps)), np.max(np.abs(model - steps + 1.0 / n)))
