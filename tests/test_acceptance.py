"""Release acceptance gates, one printed verdict line per criterion.

All Monte Carlo gates run at the stated trial counts with the default
master seed, so every number below is reproducible bit for bit. The
interruption criterion is split in two: the ordering against the other
distributed schemes holds at every position, while the ordering against
the traditional single-tower layout is gated only outside the end zones
within END_ZONE of either base station. With the default even n_raus no
RAU sits at a base station, so there the tower is nearer to a train
antenna than any RAU and can genuinely win (criterion 06 exempts the same
zones for mean RSS); the verdict line still counts those positions.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from railhandover import channel
from railhandover.analytics import (
    MetricMode,
    PositionGrid,
    failure_curve,
    first_level_crossing,
    interruption_curve,
    occurrence_masses,
    trigger_curve,
)
from railhandover.figures import RunConfig, compare_schemes
from railhandover.montecarlo import (
    DOMAIN_PROTOCOL,
    SeedPolicy,
    estimate_first_crossing,
    estimate_pointwise,
)
from railhandover.protocol import EventKind, Phase, replay, run_crossing
from railhandover.scenario import AntennaId, CellId, Scenario, Scheme
from link_oracle import cdf, link_stat, rss_distribution
from quadpack_oracle import integrate
from rss_oracles import cdf_array, pdf, sample_rss_block, support

TRIALS = 100_000
SEED = 12345
DAS_SCHEMES = (Scheme.PROPOSED, Scheme.DAS_BLANKET, Scheme.DAS_SINGLE)
# distance from either base station within which criteria 05b and 06 let
# the traditional tower beat the proposed scheme
END_ZONE = 300.0


@pytest.fixture
def report(capsys):
    def emit(label, ok, detail):
        with capsys.disabled():
            print(f"  criterion {label}: {'PASS' if ok else 'FAIL'} ({detail})")
        return ok
    return emit


def test_trigger_curve_agreement(report):
    sc = Scenario()
    grid = PositionGrid.over(sc.ds, 50.0)
    est = estimate_pointwise(sc, grid, TRIALS, SeedPolicy(SEED), jobs=8)
    curve = trigger_curve(sc, grid)
    gaps = np.abs(est.trigger.value[:, 0] - curve)  # the front antenna's column
    anchor = curve[grid.positions.index(1500.0)]
    anchor_gap = abs(anchor - 0.3618)
    ok = max(gaps) <= 0.01 and anchor_gap <= 1e-4
    report("01 trigger-agreement", ok,
           f"max gap {max(gaps):.5f} <= 0.01, anchor off by {anchor_gap:.2e}")
    assert max(gaps) <= 0.01
    assert anchor_gap <= 1e-4


def test_trigger_half_crossing_positions(report):
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    crossings = {}
    for scheme in Scheme:
        curve = trigger_curve(sc.with_scheme(scheme), grid)
        crossings[scheme] = first_level_crossing(grid, curve, 0.5)
    spread = abs(crossings[Scheme.PROPOSED] - crossings[Scheme.DAS_BLANKET])
    ok = all(c is not None and 1500.0 <= c <= 1700.0 for c in crossings.values())
    ok = ok and spread <= 100.0
    report("02 half-crossing-window", ok,
           "crossings " + ", ".join(f"{s.value}={c:.1f}"
                                    for s, c in crossings.items()))
    for scheme, c in crossings.items():
        assert c is not None and 1500.0 <= c <= 1700.0, scheme.value
    assert spread <= 100.0


def test_occurrence_histogram_agreement(report):
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    ana = occurrence_masses(trigger_curve(sc, grid), grid.step)
    est = estimate_first_crossing(sc, grid, TRIALS, SeedPolicy(SEED), jobs=8)
    gap = float(np.max(np.abs(ana - est.masses)))
    emitted = occurrence_masses(trigger_curve(sc, grid), grid.step, MetricMode.PAPER)
    ok = (gap <= 0.01 and np.all(ana >= 0.0) and ana.sum() <= 1.0 + 1e-12
          and np.all(np.isfinite(emitted)))
    report("03 occurrence-agreement", ok,
           f"max bin gap {gap:.5f} <= 0.01, mass sum {ana.sum():.6f}")
    assert gap <= 0.01
    assert np.all(ana >= 0.0) and ana.sum() <= 1.0 + 1e-12
    # the literal-form curve is emitted alongside but is not a measure,
    # so it only has to be finite
    assert np.all(np.isfinite(emitted))


def test_failure_ordering_in_handover_window(report):
    sc = Scenario()
    window = PositionGrid(np.arange(1200.0, 1800.0 + 1, 10.0), 10.0)
    curves = {}
    for scheme in (Scheme.PROPOSED, Scheme.DAS_SINGLE, Scheme.TRADITIONAL):
        cfg = sc.with_scheme(scheme)
        curves[scheme] = np.array(failure_curve(cfg, window))
    ordered = np.all(curves[Scheme.PROPOSED] <= curves[Scheme.TRADITIONAL] + 1e-12)
    close = float(np.max(np.abs(curves[Scheme.PROPOSED]
                                - curves[Scheme.DAS_SINGLE])))
    worst_z = 0.0
    for scheme, ana in curves.items():
        failure = estimate_pointwise(sc.with_scheme(scheme), window, TRIALS,
                                     SeedPolicy(SEED), jobs=8).failure
        # the front antenna's column, position by position
        for value, hw, base, a in zip(*(f[:, 0].tolist() for f in failure), ana):
            if base < 25:
                continue
            se = hw / 1.96
            if se > 0.0:
                worst_z = max(worst_z, abs(value - a) / se)
    ok = ordered and close <= 0.02 and worst_z <= 3.0
    report("04 failure-ordering", ok,
           f"proposed<=traditional {ordered}, das-single gap {close:.3f}, "
           f"worst MC z {worst_z:.2f}")
    assert ordered
    assert close <= 0.02
    assert worst_z <= 3.0


def _interruption_tables(schemes):
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    xs = grid.as_array()
    ana, mc = {}, {}
    for scheme in schemes:
        cfg = sc.with_scheme(scheme)
        ana[scheme] = interruption_curve(cfg, grid)
        # the scheme-level column: every antenna below the threshold
        mc[scheme] = estimate_pointwise(cfg, grid, TRIALS, SeedPolicy(SEED),
                                        jobs=8).interruption.value[:, -1]
    return xs, ana, mc


def test_interruption_lowest_among_das_schemes(report):
    xs, ana, mc = _interruption_tables(DAS_SCHEMES)
    violations = []
    for rival in (Scheme.DAS_BLANKET, Scheme.DAS_SINGLE):
        for table in (ana, mc):
            lead, other = table[Scheme.PROPOSED], table[rival]
            skip = (lead < 1e-6) & (other < 1e-6)
            bad = (lead > other + 1e-12) & ~skip
            violations += [(rival.value, float(x)) for x in xs[bad]]
    ok = not violations
    report("05a interruption-lowest-vs-das", ok,
           f"{len(violations)} violations" if violations else "no violations")
    assert violations == []


def test_interruption_lowest_vs_traditional(report):
    xs, ana, mc = _interruption_tables((Scheme.PROPOSED, Scheme.TRADITIONAL))
    ds = Scenario().ds
    outside = (xs > END_ZONE) & (xs < ds - END_ZONE)
    counts, beyond_counts, violations = [], [], []
    for name, table in (("analytic", ana), ("mc", mc)):
        lead, other = table[Scheme.PROPOSED], table[Scheme.TRADITIONAL]
        skip = (lead < 1e-6) & (other < 1e-6)
        bad = (lead > other + 1e-12) & ~skip
        counts.append(f"{name} {int(bad.sum())}")
        beyond_counts.append(str(int((bad & outside).sum())))
        violations += [(name, float(x)) for x in xs[bad & outside]]
    lead, other = ana[Scheme.PROPOSED], ana[Scheme.TRADITIONAL]
    worst = int(np.argmax(lead - other))
    ok = not violations
    report("05b interruption-lowest-vs-traditional", ok,
           f"{' / '.join(counts)} of {len(xs)} positions favour the tower, "
           f"{' / '.join(beyond_counts)} beyond {END_ZONE:.0f} m of a base "
           f"station; worst x={xs[worst]:.0f} ({lead[worst]:.4f} vs "
           f"{other[worst]:.2e})")
    # with an even n_raus the RAUs straddle each base station dr/2 away,
    # so within END_ZONE of it the tower is nearer to a train antenna than
    # any RAU; the ordering is gated only outside those zones, on both tables
    assert violations == []


def test_mean_rss_ordering(report):
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    xs = grid.as_array()

    def better_cell_means(scheme):
        # per position and antenna, the larger of the two cell means
        return channel.cell_means(sc.with_scheme(scheme), grid)[0].max(axis=2)

    best = better_cell_means(Scheme.PROPOSED).max(axis=1)
    single = better_cell_means(Scheme.DAS_SINGLE)[:, 0]
    trad = better_cell_means(Scheme.TRADITIONAL)[:, 0]
    dominates_single = bool(np.all(best >= single - 1e-9))
    exceed = xs[best < trad]
    share = 1.0 - len(exceed) / len(xs)
    near_ends = all(x <= END_ZONE or x >= sc.ds - END_ZONE for x in exceed)
    ok = dominates_single and share >= 0.90 and near_ends
    report("06 mean-rss-ordering", ok,
           f"beats single everywhere {dominates_single}, beats traditional "
           f"at {share:.1%}, exceedances near ends {near_ends}")
    assert dominates_single
    assert share >= 0.90
    assert near_ends


def test_distribution_correctness(report):
    sc = Scenario()
    dist = rss_distribution(sc, 1500.0, AntennaId.FRONT, CellId.SERVING)
    lo, hi = support(dist)
    mass = integrate(lambda r: pdf(dist, r), lo, hi).require()
    mass_err = abs(mass - 1.0)
    h = 1e-3
    fd_err = max(abs(pdf(dist, r) - (cdf(dist, r + h) - cdf(dist, r - h))
                     / (2.0 * h))
                 for r in np.linspace(lo + 5.0, hi - 5.0, 17))
    draws = np.sort(sample_rss_block(dist, np.random.default_rng(SEED), 10 ** 6))
    model = cdf_array(dist, draws)
    steps = np.arange(1, len(draws) + 1) / len(draws)
    ks = max(float(np.max(np.abs(model - steps))),
             float(np.max(np.abs(model - steps + 1.0 / len(draws)))))
    ok = mass_err <= 1e-6 and fd_err <= 1e-5 and ks <= 0.005
    report("07 distribution-correctness", ok,
           f"pdf mass err {mass_err:.1e}, fd err {fd_err:.1e}, KS {ks:.5f}")
    assert mass_err <= 1e-6
    assert fd_err <= 1e-5
    assert ks <= 0.005


def test_power_sum_approximation(report):
    from scipy.special import ndtr

    sc = Scenario().with_scheme(Scheme.DAS_BLANKET)
    table = channel.link_table(sc, PositionGrid((1500.0,), 1.0))
    mu, sigma = table.mu[0, 0, 0, 0], table.sigma[0, 0, 0, 0]
    # draw the exact sum of the four per-unit lognormals and compare
    rng = np.random.default_rng(SEED)
    stats = [link_stat(sc, 1500.0, n, AntennaId.FRONT, CellId.SERVING)
             for n in range(1, 5)]
    linear = np.zeros(10 ** 6)
    for s in stats:
        linear += 10.0 ** ((s.mu + s.sigma * rng.standard_normal(10 ** 6)) / 10.0)
    draws = np.sort(10.0 * np.log10(linear))
    model = ndtr((draws - mu) / sigma)
    steps = np.arange(1, len(draws) + 1) / len(draws)
    sup = max(float(np.max(np.abs(model - steps))),
              float(np.max(np.abs(model - steps + 1.0 / len(draws)))))
    ok = sup <= 0.03
    report("08 power-sum-approximation", ok, f"sup distance {sup:.5f} <= 0.03")
    assert sup <= 0.03


INPUT_KINDS = frozenset({
    EventKind.MEASUREMENT_REPORT, EventKind.HO_REQUEST_ACK,
    EventKind.FRONT_ATTACHED, EventKind.REAR_ATTACHED,
    EventKind.DUALCAST_FINISH_ACK,
})


def test_protocol_invariants_over_seeded_crossings(report):
    from railhandover.protocol import HandoverState, format_trace, transition

    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    policy = SeedPolicy(SEED)
    n = 10_000
    replays = 0
    for i in range(n):
        outcome, trace = run_crossing(sc, grid, policy.stream(DOMAIN_PROTOCOL, i))
        final = replay(trace, sc.hysteresis)  # raises on any violation
        assert final == outcome.final_state
        replays += 1
        kinds = [t.event.kind for t in trace]
        if EventKind.HO_COMMAND_REAR in kinds:
            assert kinds.index(EventKind.FRONT_ATTACHED) < kinds.index(
                EventKind.HO_COMMAND_REAR)
        # a crossing must never leave the train with no attachment
        state = HandoverState()
        for entry in trace:
            if entry.event.kind in INPUT_KINDS:
                state, _ = transition(state, entry.event, sc.hysteresis)
            assert state.front_attached is not None \
                or state.rear_attached is not None
    # identical seeds reproduce identical traces bytewise
    identical = all(
        format_trace(run_crossing(sc, grid, policy.stream(DOMAIN_PROTOCOL, i))[1])
        == format_trace(run_crossing(sc, grid, policy.stream(DOMAIN_PROTOCOL, i))[1])
        for i in range(300))
    ok = replays == n and identical
    report("09 protocol-invariants", ok,
           f"{replays} replays clean, byte-identical reruns {identical}")
    assert replays == n
    assert identical


def test_mode_inequality_everywhere(report):
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    worst = 0.0
    for scheme in Scheme:
        cfg = sc.with_scheme(scheme)
        red = interruption_curve(cfg, grid)
        pap = interruption_curve(cfg, grid, mode=MetricMode.PAPER)
        worst = max(worst, float(np.max(red - pap)))
    ok = worst <= 1e-15
    report("10 mode-inequality", ok, f"max rederived-literal excess {worst:.2e}")
    assert worst <= 1e-15


def test_parallel_compare_is_byte_identical(report, tmp_path):
    scenario = replace(Scenario(), measurement_step=50.0)
    outputs = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        cfg = RunConfig(scenario=scenario, trials=2000, master_seed=7,
                        output_dir=out, jobs=jobs)
        compare_schemes(cfg)
        outputs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    same = outputs[1] == outputs[8]
    ok = same and len(outputs[1]) == 6
    report("11 parallel-determinism", ok,
           f"{len(outputs[1])} files, byte-identical {same}")
    assert len(outputs[1]) == 6
    assert same
