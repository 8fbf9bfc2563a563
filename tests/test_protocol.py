"""State machine for the dual-antenna handover procedure.

Degenerate-fading goldens (sigma = 1e-9) are deterministic: the first
grid point where the target-serving margin beats the hysteresis is
x = 1530 on the default layout, and every coverage gap is fixed by
geometry alone.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railhandover.analytics import PositionGrid
from railhandover.montecarlo import DOMAIN_PROTOCOL, SeedPolicy
from railhandover.protocol import (
    CrossingOutcome,
    EventKind,
    HandoverState,
    Phase,
    ProtocolEvent,
    ProtocolViolation,
    format_trace,
    run_crossing,
    run_crossings,
    transition,
)
from railhandover.scenario import AntennaId, CellId, Scenario, Scheme, SelectionRule
from protocol_oracle import replay


def _mr(position, front_rss, rear_rss):
    return ProtocolEvent(EventKind.MEASUREMENT_REPORT, position,
                         front_rss=front_rss, rear_rss=rear_rss)


def _triggered_mr(position=1500.0):
    # front target leads serving by more than the default hysteresis of 2
    return _mr(position, front_rss=(-40.0, -30.0), rear_rss=(-35.0, -50.0))


def _quiet_mr(position=500.0):
    return _mr(position, front_rss=(-30.0, -60.0), rear_rss=(-28.0, -70.0))


def test_triggered_report_starts_preparation():
    state, emitted = transition(HandoverState(), _triggered_mr(), hysteresis=2.0)
    assert state.phase is Phase.PREPARATION_FRONT
    assert [e.kind for e in emitted] == [EventKind.HO_REQUEST]
    assert emitted[0].rau_index == 1


def test_quiet_report_is_a_no_op():
    state, emitted = transition(HandoverState(), _quiet_mr(), hysteresis=2.0)
    assert state == HandoverState()
    assert emitted == []


def test_request_ack_opens_dualcast_and_commands_front():
    state = HandoverState(phase=Phase.PREPARATION_FRONT, selected_rau_index=1)
    state, emitted = transition(
        state, ProtocolEvent(EventKind.HO_REQUEST_ACK, 1500.0), hysteresis=2.0)
    assert state.phase is Phase.EXECUTING_FRONT
    assert state.dualcast_active
    assert [e.kind for e in emitted] == [
        EventKind.HO_COMMAND_FRONT, EventKind.DUALCAST_START]


def test_front_attachment_waits_for_rear():
    state = HandoverState(phase=Phase.EXECUTING_FRONT, dualcast_active=True,
                          selected_rau_index=1)
    state, emitted = transition(
        state, ProtocolEvent(EventKind.FRONT_ATTACHED, 1530.0,
                             antenna=AntennaId.FRONT), hysteresis=2.0)
    assert state.phase is Phase.AWAIT_REAR
    assert state.front_attached is CellId.TARGET
    assert emitted == []


def test_rear_attachment_finishes_dualcast():
    state = HandoverState(phase=Phase.EXECUTING_REAR, dualcast_active=True,
                          front_attached=CellId.TARGET, selected_rau_index=1)
    state, emitted = transition(
        state, ProtocolEvent(EventKind.REAR_ATTACHED, 1730.0,
                             antenna=AntennaId.REAR), hysteresis=2.0)
    assert state.phase is Phase.COMPLETING
    assert state.rear_attached is CellId.TARGET
    assert [e.kind for e in emitted] == [EventKind.DUALCAST_FINISH]


def test_finish_ack_completes():
    state = HandoverState(phase=Phase.COMPLETING, dualcast_active=True,
                          front_attached=CellId.TARGET,
                          rear_attached=CellId.TARGET, selected_rau_index=1)
    state, emitted = transition(
        state, ProtocolEvent(EventKind.DUALCAST_FINISH_ACK, 1730.0),
        hysteresis=2.0)
    assert state.phase is Phase.DONE
    assert not state.dualcast_active
    assert emitted == []


def test_measurement_reports_are_legal_in_every_phase():
    for phase in Phase:
        state = HandoverState(phase=phase, selected_rau_index=1)
        transition(state, _quiet_mr(), hysteresis=2.0)  # must not raise


def test_triggered_report_retries_commands_during_execution():
    front = HandoverState(phase=Phase.EXECUTING_FRONT, dualcast_active=True,
                          selected_rau_index=1)
    _, emitted = transition(front, _triggered_mr(1540.0), hysteresis=2.0)
    assert [e.kind for e in emitted] == [EventKind.HO_COMMAND_FRONT]
    rear = HandoverState(phase=Phase.EXECUTING_REAR, dualcast_active=True,
                         front_attached=CellId.TARGET, selected_rau_index=1)
    # retrying the rear leg needs the rear antenna's own margin to hold
    rear_mr = _mr(1740.0, front_rss=(-60.0, -30.0), rear_rss=(-40.0, -30.0))
    _, emitted = transition(rear, rear_mr, hysteresis=2.0)
    assert [e.kind for e in emitted] == [EventKind.HO_COMMAND_REAR]


def test_await_rear_advances_on_rear_trigger():
    state = HandoverState(phase=Phase.AWAIT_REAR, dualcast_active=True,
                          front_attached=CellId.TARGET, selected_rau_index=1)
    state, emitted = transition(
        state, _mr(1700.0, front_rss=(-60.0, -30.0), rear_rss=(-40.0, -30.0)),
        hysteresis=2.0)
    assert state.phase is Phase.EXECUTING_REAR
    assert [e.kind for e in emitted] == [EventKind.HO_COMMAND_REAR]


@pytest.mark.parametrize("phase,kind", [
    (Phase.IDLE, EventKind.HO_REQUEST_ACK),
    (Phase.IDLE, EventKind.DUALCAST_FINISH_ACK),
    (Phase.PREPARATION_FRONT, EventKind.FRONT_ATTACHED),
    (Phase.EXECUTING_FRONT, EventKind.REAR_ATTACHED),
    (Phase.AWAIT_REAR, EventKind.HO_REQUEST_ACK),
    (Phase.DONE, EventKind.REAR_ATTACHED),
], ids=lambda v: getattr(v, "value", v))
def test_out_of_phase_inputs_are_violations(phase, kind):
    state = HandoverState(phase=phase, selected_rau_index=1)
    with pytest.raises(ProtocolViolation) as err:
        transition(state, ProtocolEvent(kind, 1000.0), hysteresis=2.0)
    assert kind.value in str(err.value)
    assert phase.value in str(err.value)


def test_emitted_kinds_cannot_be_fed_back():
    state = HandoverState(phase=Phase.PREPARATION_FRONT, selected_rau_index=1)
    with pytest.raises(ProtocolViolation):
        transition(state, ProtocolEvent(EventKind.HO_REQUEST, 1500.0),
                   hysteresis=2.0)
    with pytest.raises(ProtocolViolation):
        transition(HandoverState(), ProtocolEvent(EventKind.DUALCAST_START, 0.0),
                   hysteresis=2.0)


_S, _T, _F, _B = CellId.SERVING, CellId.TARGET, AntennaId.FRONT, AntennaId.REAR

# the one state of each phase: front cell, rear cell, dual-cast, selected RAU
PHASE_STATES = {
    Phase.IDLE: HandoverState(Phase.IDLE, _S, _S, False, None),
    Phase.PREPARATION_FRONT: HandoverState(Phase.PREPARATION_FRONT, _S, _S, False, 1),
    Phase.EXECUTING_FRONT: HandoverState(Phase.EXECUTING_FRONT, _S, _S, True, 1),
    Phase.AWAIT_REAR: HandoverState(Phase.AWAIT_REAR, _T, _S, True, 1),
    Phase.EXECUTING_REAR: HandoverState(Phase.EXECUTING_REAR, _T, _S, True, 1),
    Phase.COMPLETING: HandoverState(Phase.COMPLETING, _T, _T, True, 1),
    Phase.DONE: HandoverState(Phase.DONE, _T, _T, False, None),
}

# Measurement reports by which antenna's (serving, target) pair triggers at
# hysteresis 2; a quiet pair sits exactly at the hysteresis, a missing one
# carries no comparands.
_QUIET, _LEADS = (-40.0, -38.0), (-40.0, -30.0)
REPORTS = {
    "quiet": (_QUIET, _QUIET),
    "front": (_LEADS, _QUIET),
    "rear": (_QUIET, _LEADS),
    "both": (_LEADS, _LEADS),
    "missing": (None, None),
}

_FRONT_CMD = (EventKind.HO_COMMAND_FRONT, _F, None)
_REAR_CMD = (EventKind.HO_COMMAND_REAR, _B, None)
_MR = EventKind.MEASUREMENT_REPORT
# (phase, input) -> (next phase, emitted (kind, antenna, rau_index)); a report
# not listed leaves the state as it is, any other input not listed is illegal
TABLE = {
    (Phase.IDLE, "front"): (Phase.PREPARATION_FRONT, [(EventKind.HO_REQUEST, _F, 1)]),
    (Phase.IDLE, "both"): (Phase.PREPARATION_FRONT, [(EventKind.HO_REQUEST, _F, 1)]),
    (Phase.PREPARATION_FRONT, EventKind.HO_REQUEST_ACK): (
        Phase.EXECUTING_FRONT, [_FRONT_CMD, (EventKind.DUALCAST_START, None, None)]),
    (Phase.EXECUTING_FRONT, "front"): (Phase.EXECUTING_FRONT, [_FRONT_CMD]),
    (Phase.EXECUTING_FRONT, "both"): (Phase.EXECUTING_FRONT, [_FRONT_CMD]),
    (Phase.EXECUTING_FRONT, EventKind.FRONT_ATTACHED): (Phase.AWAIT_REAR, []),
    (Phase.AWAIT_REAR, "rear"): (Phase.EXECUTING_REAR, [_REAR_CMD]),
    (Phase.AWAIT_REAR, "both"): (Phase.EXECUTING_REAR, [_REAR_CMD]),
    (Phase.EXECUTING_REAR, "rear"): (Phase.EXECUTING_REAR, [_REAR_CMD]),
    (Phase.EXECUTING_REAR, "both"): (Phase.EXECUTING_REAR, [_REAR_CMD]),
    (Phase.EXECUTING_REAR, EventKind.REAR_ATTACHED): (
        Phase.COMPLETING, [(EventKind.DUALCAST_FINISH, None, None)]),
    (Phase.COMPLETING, EventKind.DUALCAST_FINISH_ACK): (Phase.DONE, []),
}

_INPUTS = [*REPORTS, *(kind for kind in EventKind if kind is not _MR)]


@pytest.mark.parametrize("phase,given", [(p, g) for p in Phase for g in _INPUTS],
                         ids=lambda v: getattr(v, "value", v))
def test_transition_table(phase, given):
    """Every phase against every input: the next state and the emitted
    (kind, position, antenna, rau_index) list, or the exact violation.
    Emitted kinds fed back in are illegal in every phase."""
    state = PHASE_STATES[phase]
    if given in REPORTS:
        front, rear = REPORTS[given]
        event = ProtocolEvent(_MR, 1500.0, front_rss=front, rear_rss=rear)
    else:
        event = ProtocolEvent(given, 1500.0)
    if (phase, given) in TABLE:
        after, emitted = TABLE[phase, given]
        expected = (PHASE_STATES[after], [(k, 1500.0, a, r) for k, a, r in emitted])
    elif given in REPORTS:
        expected = (state, [])
    else:
        with pytest.raises(ProtocolViolation) as err:
            transition(state, event, hysteresis=2.0)
        assert str(err.value) == f"event {given.value} is illegal in phase {phase.value}"
        assert (err.value.phase, err.value.kind) == (phase, given)
        return
    got, out = transition(state, event, hysteresis=2.0)
    assert (got, [(e.kind, e.position, e.antenna, e.rau_index) for e in out]) == expected


# --- full crossings ---


def _degenerate(threshold):
    return replace(Scenario(), shadow_sigma=1e-9, threshold=threshold)


def test_degenerate_crossing_with_permissive_threshold():
    sc = _degenerate(-1e6)
    out, trace = run_crossing(sc, PositionGrid.for_scenario(sc),
                              np.random.default_rng(0))
    assert out.front_ho_position == 1530.0
    assert out.rear_ho_position == 1730.0
    assert not out.front_failed and not out.rear_failed
    assert out.interruption_intervals == ()
    assert out.final_state.phase is Phase.DONE
    rows = [(t.phase_before, t.event.kind, t.phase_after)
            for t in trace if t.position == 1530.0]
    assert rows == [
        (Phase.IDLE, EventKind.MEASUREMENT_REPORT, Phase.PREPARATION_FRONT),
        (Phase.PREPARATION_FRONT, EventKind.HO_REQUEST, Phase.PREPARATION_FRONT),
        (Phase.PREPARATION_FRONT, EventKind.HO_REQUEST_ACK, Phase.EXECUTING_FRONT),
        (Phase.EXECUTING_FRONT, EventKind.HO_COMMAND_FRONT, Phase.EXECUTING_FRONT),
        (Phase.EXECUTING_FRONT, EventKind.DUALCAST_START, Phase.EXECUTING_FRONT),
        (Phase.EXECUTING_FRONT, EventKind.FRONT_ATTACHED, Phase.AWAIT_REAR),
    ]


def test_degenerate_crossing_with_default_threshold():
    """Coverage gaps and first-attempt failures are pure geometry here."""
    sc = _degenerate(-30.0)
    out, _ = run_crossing(sc, PositionGrid.for_scenario(sc),
                          np.random.default_rng(0))
    assert out.front_ho_position == 1630.0
    assert out.rear_ho_position == 1830.0
    assert out.front_failed and out.rear_failed
    assert out.interruption_intervals == (
        (80.0, 120.0), (830.0, 870.0), (1580.0, 1620.0), (2330.0, 2370.0))
    assert out.final_state.phase is Phase.DONE
    for lo, hi in out.interruption_intervals:
        assert 0.0 <= lo < hi <= sc.ds


def test_permissive_threshold_never_fails_or_interrupts():
    sc = replace(Scenario(), threshold=-1e6)
    grid = PositionGrid.for_scenario(sc)
    for seed in range(20):
        out, _ = run_crossing(sc, grid, np.random.default_rng(seed))
        assert not out.front_failed and not out.rear_failed
        assert out.interruption_intervals == ()


def test_huge_hysteresis_never_triggers():
    sc = replace(Scenario(), hysteresis=1e6)
    out, trace = run_crossing(sc, PositionGrid.for_scenario(sc),
                              np.random.default_rng(1))
    assert out.front_ho_position is None
    assert out.rear_ho_position is None
    assert out.final_state.phase is Phase.IDLE
    assert all(t.phase_after is Phase.IDLE for t in trace)


def test_rear_handover_never_precedes_front():
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    for seed in range(30):
        out, _ = run_crossing(sc, grid, np.random.default_rng(seed))
        if out.front_ho_position is None:
            assert out.rear_ho_position is None
        elif out.rear_ho_position is not None:
            assert out.rear_ho_position >= out.front_ho_position


def test_replay_accepts_recorded_traces():
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    for seed in range(30):
        out, trace = run_crossing(sc, grid, np.random.default_rng(seed))
        final = replay(trace, sc.hysteresis)
        assert final == out.final_state
        if out.rear_ho_position is not None:
            assert final.phase is Phase.DONE


def test_rear_command_only_after_front_attachment():
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    for seed in range(30):
        _, trace = run_crossing(sc, grid, np.random.default_rng(seed))
        kinds = [t.event.kind for t in trace]
        if EventKind.HO_COMMAND_REAR in kinds:
            assert EventKind.FRONT_ATTACHED in kinds
            assert kinds.index(EventKind.FRONT_ATTACHED) < kinds.index(
                EventKind.HO_COMMAND_REAR)


def test_dualcast_window_brackets_the_handover():
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    for seed in range(30):
        out, trace = run_crossing(sc, grid, np.random.default_rng(seed))
        kinds = [t.event.kind for t in trace]
        if out.final_state.phase is not Phase.DONE:
            continue
        start = kinds.index(EventKind.DUALCAST_START)
        finish = kinds.index(EventKind.DUALCAST_FINISH_ACK)
        assert start < finish
        assert kinds.count(EventKind.DUALCAST_START) == 1
        assert kinds.count(EventKind.DUALCAST_FINISH_ACK) == 1
        for entry in trace[start:finish]:
            # dualcast stays active strictly inside the window
            assert entry.phase_after not in (Phase.IDLE,)


def test_trace_formatting_and_determinism():
    sc = Scenario()
    grid = PositionGrid.for_scenario(sc)
    _, a = run_crossing(sc, grid, np.random.default_rng(42))
    _, b = run_crossing(sc, grid, np.random.default_rng(42))
    text = format_trace(a)
    assert text == format_trace(b)
    header, first = text.splitlines()[:2]
    assert header == "position_m\tphase_before\tevent_kind\tantenna\tphase_after"
    assert len(first.split("\t")) == 5


def test_single_antenna_scheme_is_rejected():
    sc = Scenario().with_scheme(Scheme.DAS_SINGLE)
    with pytest.raises(ValueError, match="needs two antennas"):
        run_crossing(sc, PositionGrid.for_scenario(sc), np.random.default_rng(0))


def test_outcome_is_a_plain_record():
    out = CrossingOutcome(front_ho_position=None, rear_ho_position=None,
                          front_failed=False, rear_failed=False,
                          interruption_intervals=(),
                          final_state=HandoverState())
    assert out.front_ho_position is None


# --- array kernel against the state machine ---


def _machine_outcome(sc, grid, rng):
    out, trace = run_crossing(sc, grid, rng)
    attempts = tuple(t.position for t in trace
                     if t.event.kind is EventKind.HO_COMMAND_FRONT)
    return (out.front_ho_position, out.rear_ho_position, out.front_failed,
            out.rear_failed, out.interruption_intervals,
            out.final_state.phase is Phase.DONE, attempts)


def _kernel_outcomes(sc, grid, rngs):
    arrays = run_crossings(sc, grid, rngs)
    xs = grid.positions
    intervals = [[] for _ in rngs]
    for c, first, last in arrays.interruptions.tolist():
        intervals[c].append((xs[first], xs[last]))

    def at(j):
        return None if j < 0 else xs[j]

    return [(at(arrays.front_index[i]), at(arrays.rear_index[i]),
             bool(arrays.front_failed[i]), bool(arrays.rear_failed[i]),
             tuple(intervals[i]), bool(arrays.rear_index[i] >= 0),
             tuple(xs[j] for j in np.flatnonzero(arrays.front_attempts[i])))
            for i in range(len(rngs))]


def _assert_kernel_matches_machine(sc, grid, seed, trials):
    policy = SeedPolicy(seed)
    kernel = _kernel_outcomes(
        sc, grid, [policy.stream(DOMAIN_PROTOCOL, t) for t in range(trials)])
    for t, got in enumerate(kernel):
        assert got == _machine_outcome(sc, grid, policy.stream(DOMAIN_PROTOCOL, t)), t


def test_kernel_matches_state_machine_at_default_scenario(sc, grid):
    _assert_kernel_matches_machine(sc, grid, 12345, 2000)


@st.composite
def _scenarios(draw):
    n_raus = draw(st.integers(1, 8))
    sigmas = draw(st.one_of(
        st.none(), st.lists(st.sampled_from([0.5, 4.0, 8.0, 12.0]),
                            min_size=n_raus, max_size=n_raus).map(tuple)))
    return Scenario(
        n_raus=n_raus, shadow_sigma_per_rau=sigmas,
        shadow_sigma=draw(st.sampled_from([1e-9, 4.0, 8.0])),
        hysteresis=draw(st.sampled_from([0.0, 2.0, 1e6])),
        threshold=draw(st.sampled_from([-1e6, -80.0, -30.0])),
        scheme=draw(st.sampled_from([Scheme.PROPOSED, Scheme.DAS_BLANKET,
                                     Scheme.TRADITIONAL])),
        selection=draw(st.sampled_from(list(SelectionRule))),
        measurement_step=draw(st.sampled_from([50.0, 250.0])))


@settings(max_examples=60)
@given(_scenarios(), st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_state_machine_on_generated_scenarios(sc, seed):
    _assert_kernel_matches_machine(sc, PositionGrid.for_scenario(sc), seed, 20)


@settings(max_examples=60)
@given(_scenarios(), st.integers(0, 2 ** 32 - 1))
def test_replay_accepts_traces_on_generated_scenarios(sc, seed):
    """run_crossing records a report that cannot act without calling
    transition; replay feeds every report to transition and must agree."""
    grid = PositionGrid.for_scenario(sc)
    policy = SeedPolicy(seed)
    for t in range(20):
        out, trace = run_crossing(sc, grid, policy.stream(DOMAIN_PROTOCOL, t))
        assert replay(trace, sc.hysteresis) == out.final_state, t


def test_kernel_rejects_single_antenna_scheme():
    sc = Scenario().with_scheme(Scheme.DAS_SINGLE)
    with pytest.raises(ValueError, match="needs two antennas"):
        run_crossings(sc, PositionGrid.for_scenario(sc), [np.random.default_rng(0)])
