"""The array Gauss-Kronrod rule (`statfun.integrate_rows`) and the curves on it.

The rule is checked on integrands with known integrals, then against
QUADPACK (`tests/quadpack_oracle.py`) on generated scenarios: 1 to 8
units per cell, uniform or per-unit shadowing sigmas down to 1e-9, on
cell means and on conditional failure probabilities, within 1e-9. A
row's value must not depend on the rows it is batched with. The cells
QUADPACK once failed on are checked against mpmath at 30 digits.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover import channel, statfun
from railhandover.analytics import MetricMode, PositionGrid, failure_curve, trigger_curve
from railhandover.channel import max_means
from railhandover.scenario import AntennaId, CellId, Scenario, Scheme, SelectionRule
from railhandover.statfun import NumericsError, integrate_rows
from link_oracle import (
    LinkStat,
    RssDistribution,
    distribution_mean,
    failure_prob,
    rss_distribution,
    table_distribution,
    table_trigger_pair,
)
from quadpack_oracle import failure_rederived, max_mean

SIGMAS = (1e-9, 0.5, 4.0, 8.0, 12.0)
AGREEMENT = 1e-9


def _row_label(r: int) -> str:
    return f"row {r}"


def _unit_rows(count: int, upper: float = 1.0) -> np.ndarray:
    return np.tile([0.0, upper], (count, 1))


# --- the rule on known integrals ---


def test_rule_is_exact_for_polynomials_up_to_degree_31():
    degrees = np.arange(32)
    got = integrate_rows(lambda x, rows: x ** degrees[rows], _unit_rows(32), _row_label)
    assert np.abs(got - 1.0 / (degrees + 1)).max() <= 1e-15


def test_rule_bisects_down_to_a_jump():
    """A unit step inside the interval converges on a per-row budget; a
    budget per unit width would never accept the interval that holds it."""
    steps = np.array([0.1, 1.0 / 3.0, 0.5, 0.7071067811865476, 0.99])
    step = lambda x, rows: (x > steps[rows]).astype(float)  # noqa: E731
    got = integrate_rows(step, _unit_rows(steps.size), _row_label)
    assert np.abs(got - (1.0 - steps)).max() <= 1e-8
    # an edge at the step needs no bisection at all
    at_step = np.stack((np.zeros(steps.size), steps, np.ones(steps.size)), axis=1)
    assert np.abs(integrate_rows(step, at_step, _row_label) - (1.0 - steps)).max() <= 1e-15


def test_density_integrates_to_one_over_padded_and_degenerate_rows():
    edges = np.array([[-12.0, -12.0, 12.0], [-12.0, 0.5, 12.0], [3.0, 3.0, 3.0]])
    got = integrate_rows(lambda x, rows: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
                         edges, _row_label)
    assert got[0] == pytest.approx(1.0, abs=1e-12)
    assert got[1] == pytest.approx(1.0, abs=1e-12)
    assert got[2] == 0.0


def test_unconverged_row_raises_naming_it(monkeypatch):
    monkeypatch.setattr(statfun, "_MAX_DEPTH", 3)
    steps = np.array([0.5, 1.0 / 3.0])
    with pytest.raises(NumericsError, match=r"row 1: quadrature did not converge .* "
                                            r"after 3 bisection rounds"):
        integrate_rows(lambda x, rows: (x > steps[rows]).astype(float), _unit_rows(2),
                       _row_label)


def test_non_finite_integrand_raises():
    with pytest.raises(NumericsError, match="row 0"):
        integrate_rows(lambda x, rows: np.full_like(x, np.nan), _unit_rows(1), _row_label)


def test_interval_cap_bounds_the_work(monkeypatch):
    monkeypatch.setattr(statfun, "_MAX_INTERVALS", 4)
    with pytest.raises(NumericsError, match="over 4 intervals"):
        integrate_rows(lambda x, rows: np.sin(200.0 * x), _unit_rows(1, 10.0), _row_label)


# --- batch independence ---


@settings(max_examples=30)
@given(st.integers(2, 8), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_row_value_does_not_depend_on_its_batch(n, rows, seed):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-90.0, -20.0, (rows, n))
    sigma = rng.choice(SIGMAS, (rows, n))
    together = max_means(mu, sigma, _row_label)
    backwards = max_means(mu[::-1].copy(), sigma[::-1].copy(), _row_label)[::-1]
    for r in range(rows):
        alone = max_means(mu[r:r + 1], sigma[r:r + 1], _row_label)[0]
        assert together[r].hex() == alone.hex() == backwards[r].hex()


# --- against QUADPACK on generated scenarios ---


@st.composite
def _scenarios(draw) -> Scenario:
    n_raus = draw(st.integers(1, 8))
    per_rau = draw(st.one_of(st.none(), st.lists(st.sampled_from(SIGMAS), min_size=n_raus,
                                                 max_size=n_raus).map(tuple)))
    return Scenario(n_raus=n_raus, shadow_sigma=draw(st.sampled_from(SIGMAS)),
                    shadow_sigma_per_rau=per_rau, measurement_step=750.0)


@settings(max_examples=30)
@given(_scenarios())
def test_cell_means_match_quadpack(sc):
    grid = PositionGrid.for_scenario(sc)
    table = channel.link_table(sc, grid)
    means, _ = channel.cell_means((sc,), grid)[0]
    for j in range(len(grid.positions)):
        for a in range(len(table.antennas)):
            for c in range(len(channel.CELLS)):
                dist = table_distribution(table, j, a, c)
                assert abs(means[j, a, c] - max_mean(dist)) <= AGREEMENT


@settings(max_examples=30)
@given(_scenarios(), st.sampled_from(list(Scheme)), st.sampled_from([-95.0, -80.0, -60.0]))
def test_failure_curve_matches_quadpack(sc, scheme, threshold):
    sc = replace(sc, scheme=scheme, threshold=threshold)
    grid = PositionGrid.for_scenario(sc)
    table = channel.link_table(sc, grid)
    for j, value in enumerate(failure_curve((sc,), grid)[0]):
        if not math.isnan(value):
            want = failure_rederived(*table_trigger_pair(table, j, 0), sc.hysteresis,
                                     threshold)
            assert abs(value - want) <= AGREEMENT


# --- the cells QUADPACK failed on, against mpmath ---


def _mp_max_mean(dist: RssDistribution) -> mpmath.mpf:
    """E[max] over the whole line, each term split at the other components' steps."""
    total = mpmath.mpf(0)
    comps = [(mpmath.mpf(c.mu), mpmath.mpf(c.sigma)) for c in dist.components]
    for n, (mu_n, s_n) in enumerate(comps):
        others = [((mu_n - mu_j) / s_j, s_n / s_j) for j, (mu_j, s_j) in enumerate(comps)
                  if j != n]

        def term(z, mu_n=mu_n, s_n=s_n, others=others):
            out = (mu_n + s_n * z) * mpmath.npdf(z)
            for offset, scale in others:
                out *= mpmath.ncdf(offset + scale * z)
            return out

        cuts = sorted(-o / s for o, s in others if abs(o / s) < 12)
        total += mpmath.quad(term, [-mpmath.inf, *cuts, mpmath.inf])
    return total


def _mp_trigger(serving: LinkStat, target: LinkStat,
                hysteresis: float) -> mpmath.mpf:
    gap = mpmath.sqrt(mpmath.mpf(serving.sigma) ** 2 + mpmath.mpf(target.sigma) ** 2)
    margin = mpmath.mpf(target.mu) - mpmath.mpf(serving.mu)
    return mpmath.ncdf(-(mpmath.mpf(hysteresis) - margin) / gap)


def test_mixed_sigma_cell_mean_matches_mpmath():
    """n_raus = 3 with unit sigmas 1e-9, 4, 4 at x = 2750 m, front antenna,
    target cell: QUADPACK stopped at error 1.1e-8 over [-10, 10]."""
    sc = Scenario(n_raus=3, shadow_sigma_per_rau=(1e-9, 4.0, 4.0),
                  selection=SelectionRule.MAX_RSS)
    dist = rss_distribution(sc, 2750.0, AntennaId.FRONT, CellId.TARGET)
    with mpmath.workdps(30):
        want = _mp_max_mean(dist)
    assert abs(distribution_mean(dist) - float(want)) <= AGREEMENT


@pytest.mark.parametrize("scheme, step, positions", [
    (Scheme.DAS_BLANKET, 250.0, (1750.0, 2000.0, 2250.0, 2750.0, 3000.0)),
    (Scheme.TRADITIONAL, 250.0, (1750.0, 2000.0, 2250.0, 2500.0)),
    (Scheme.DAS_BLANKET, 250.0, (250.0,)),
    (Scheme.TRADITIONAL, 250.0, (0.0,)),
], ids=["blanket-no-fading", "traditional-no-fading", "blanket-tail", "traditional-tail"])
def test_trigger_cells_match_mpmath(scheme, step, positions):
    """The closed form at the no-fading setting, where the QUADPACK trigger
    integral did not converge, and at the two tail cells of the 250 m golden
    trigger figure it moved (1.4378e-13 to 1.43781e-13, 1.08778e-21 to
    1.10883e-21): within 1e-9 and to 1e-12 relative."""
    sigma = 1e-9 if len(positions) > 1 else 4.0
    sc = Scenario(scheme=scheme, shadow_sigma=sigma, measurement_step=step)
    grid = PositionGrid.for_scenario(sc)
    curve = trigger_curve(sc, grid)
    table = channel.link_table(sc, grid)
    for x in positions:
        j = grid.positions.index(x)
        with mpmath.workdps(30):
            want = _mp_trigger(*table_trigger_pair(table, j, 0), sc.hysteresis)
        assert abs(curve[j] - float(want)) <= AGREEMENT
        assert curve[j] == pytest.approx(float(want), rel=1e-12, abs=1e-300)


def test_failure_probabilities_do_not_depend_on_the_batch():
    """failure_prob integrates one pair; failure_curve all distinct pairs
    at once, in both branches of z0 = -8; the values agree bitwise."""
    sc = Scenario()
    grid = PositionGrid.over(3000.0, 100.0)
    for mode in MetricMode:
        curve = failure_curve((sc,), grid, mode=mode)[0]
        for x, value in zip(grid.positions, curve):
            if not math.isnan(value):
                assert failure_prob(sc, x, mode=mode).hex() == value.hex()
