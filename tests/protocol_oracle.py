"""Reference crossings through the state machine, used by tests only.

`walk_crossing` is the state-machine walk that decides its own outcome:
it attaches an antenna wherever an attempt's target comparand is usable
and scans each position for an interruption, independently of the array
kernel that decides `run_crossing`'s and `estimate_protocol`'s outcomes.
`protocol_stats` walks it once per trial on the same keyed substreams as
`estimate_protocol` and tallies its outcomes and traces event by event.
`format_stats` renders `ProtocolStats` as stable text for the golden
file. `replay` re-runs a recorded trace through the transition table and
checks every recorded phase and emission.
"""

from __future__ import annotations

import numpy as np

from railhandover.analytics import PositionGrid
from railhandover.montecarlo import DOMAIN_PROTOCOL, ProtocolStats, SeedPolicy
from railhandover.protocol import (
    _REPORT_ANTENNA,
    _RESPONSES,
    _T,
    _TABLE,
    CrossingOutcome,
    EventKind,
    HandoverState,
    Phase,
    ProtocolEvent,
    TraceEntry,
    _draw_crossings,
    transition,
)
from railhandover.scenario import Scenario

# Events fed into the machine; all other kinds are only ever emitted by it.
_INPUT_KINDS = frozenset(kind for _, kind in _TABLE)

STAT_FIELDS = ("trials", "completed", "front_failed_trials", "rear_failed_trials",
               "front_ho_hist", "rear_ho_hist", "front_attempt_hist",
               "front_failure_hist", "interruption_lengths")


def walk_crossing(sc: Scenario, grid: PositionGrid,
                  rng: np.random.Generator) -> tuple[CrossingOutcome, list[TraceEntry]]:
    """Walk the grid once and drive the handover procedure to completion.

    The environment responds to emitted messages within the same grid
    step: requests are acked, commands make the named antenna attempt to
    attach to the target cell (success iff the sampled target comparand
    is at or above the threshold; on failure the antenna stays on its
    previous cell and retries at the next triggering position), and the
    dual-cast finish is acked by the core network.

    An interruption interval is open while every antenna's sampled RSS
    from its attached cell is below the threshold; intervals are reported
    as (first, last) grid coordinates of each below-threshold run.
    """
    (cell,), (serving,), (target,), (triggers,), (usable,) = _draw_crossings(sc, grid, [rng])
    # per antenna: the (serving, target) comparands at each position, whether
    # the target comparand is usable, and per cell whether its RSS is below
    reports = [list(zip(s, t)) for s, t in zip(serving.tolist(), target.tolist())]
    usable, below = usable.tolist(), (cell < sc.threshold).tolist()
    # per phase whose measurement report has a row: at each position, whether
    # the row's antenna triggers
    triggered = dict(zip(sc.antennas(), triggers.tolist()))
    acts = {phase: triggered[antenna] for phase, antenna in _REPORT_ANTENNA.items()}
    state = HandoverState()
    trace: list[TraceEntry] = []
    ho_position: list[float | None] = [None, None]
    failed = [False, False]
    interrupted_runs: list[tuple[float, float]] = []
    run_start: float | None = None

    def feed(event: ProtocolEvent) -> None:
        nonlocal state
        before = state.phase
        state, emitted = transition(state, event, sc.hysteresis)
        after = state.phase
        trace.append(TraceEntry(event.position, before, event, after))
        # record the whole emission batch before reacting, so a trace is a
        # flat input-then-emissions sequence that a replay can verify
        trace.extend(TraceEntry(out.position, after, out, after) for out in emitted)
        # environment side: zero-latency responses within the grid step
        for out in emitted:
            if out.kind not in _RESPONSES:
                continue
            a, response = _RESPONSES[out.kind]
            if a is None:
                feed(ProtocolEvent(response, out.position))
            elif usable[a][j]:  # an attach attempt at the walk's grid index j
                ho_position[a] = out.position
                feed(ProtocolEvent(response, out.position, out.antenna))
            else:
                failed[a] = True

    for j, (x, front, rear) in enumerate(zip(grid.positions, *reports)):
        report = ProtocolEvent(EventKind.MEASUREMENT_REPORT, x, front_rss=front, rear_rss=rear)
        fires = acts.get(state.phase)
        if fires is not None and fires[j]:
            feed(report)
        else:  # a report that cannot act leaves the phase as it is
            trace.append(TraceEntry(x, state.phase, report, state.phase))
        # threshold check against each antenna's attached cell (index 1: target)
        if (below[0][state.front_attached is _T][j]
                and below[1][state.rear_attached is _T][j]):
            run_start = x if run_start is None else run_start
        elif run_start is not None:
            interrupted_runs.append((run_start, grid.positions[j - 1]))
            run_start = None
    if run_start is not None:
        interrupted_runs.append((run_start, grid.positions[-1]))

    outcome = CrossingOutcome(
        front_ho_position=ho_position[0],
        rear_ho_position=ho_position[1],
        front_failed=failed[0],
        rear_failed=failed[1],
        interruption_intervals=tuple(interrupted_runs),
        final_state=state,
    )
    return outcome, trace


def protocol_stats(sc: Scenario, grid: PositionGrid, trials: int,
                   seed: SeedPolicy) -> ProtocolStats:
    """ProtocolStats from trials state-machine crossings, trial t on stream (DOMAIN_PROTOCOL, t)."""
    index = {x: j for j, x in enumerate(grid.positions)}
    n_pos = len(grid.positions)
    front_hist = np.zeros(n_pos, dtype=np.int64)
    rear_hist = np.zeros(n_pos, dtype=np.int64)
    attempt_hist = np.zeros(n_pos, dtype=np.int64)
    failure_hist = np.zeros(n_pos, dtype=np.int64)
    completed = front_failed = rear_failed = 0
    lengths: list[float] = []
    for t in range(trials):
        outcome, trace = walk_crossing(sc, grid, seed.stream(DOMAIN_PROTOCOL, t))
        front_pos = outcome.front_ho_position
        if front_pos is not None:
            front_hist[index[front_pos]] += 1
        if outcome.rear_ho_position is not None:
            rear_hist[index[outcome.rear_ho_position]] += 1
        for entry in trace:
            if entry.event.kind is EventKind.HO_COMMAND_FRONT:
                attempt_hist[index[entry.position]] += 1
                if entry.position != front_pos:
                    failure_hist[index[entry.position]] += 1
        completed += int(outcome.final_state.phase is Phase.DONE)
        front_failed += int(outcome.front_failed)
        rear_failed += int(outcome.rear_failed)
        lengths.extend((b - a) + grid.step for a, b in outcome.interruption_intervals)
    return ProtocolStats(grid, trials, completed, front_failed, rear_failed,
                         front_hist, rear_hist, attempt_hist, failure_hist,
                         tuple(lengths))


def format_stats(stats: ProtocolStats) -> str:
    """One line per field: its name, a tab, its values separated by spaces."""
    lines = []
    for name in STAT_FIELDS:
        value = getattr(stats, name)
        values = value if isinstance(value, (tuple, np.ndarray)) else (value,)
        lines.append(name + "\t" + " ".join(repr(v.item() if isinstance(v, np.generic)
                                                 else v) for v in values))
    return "\n".join(lines) + "\n"


def replay(trace: list[TraceEntry], hysteresis: float) -> HandoverState:
    """Re-run every input event of a trace through the transition table.

    Verifies that the recorded phases and emitted events match what the
    table produces; raises ProtocolViolation or AssertionError on any
    divergence. Returns the final state.
    """
    state = HandoverState()
    i = 0
    while i < len(trace):
        entry = trace[i]
        if entry.event.kind not in _INPUT_KINDS:
            raise AssertionError(
                f"trace row {i}: emitted event {entry.event.kind.value} "
                f"not preceded by its input transition")
        if entry.phase_before is not state.phase:
            raise AssertionError(
                f"trace row {i}: recorded phase {entry.phase_before.value}, "
                f"machine is in {state.phase.value}")
        state, emitted = transition(state, entry.event, hysteresis)
        if entry.phase_after is not state.phase:
            raise AssertionError(f"trace row {i}: phase_after mismatch")
        i += 1
        # the emission batch follows its input row directly; reactions to
        # the emissions appear later as their own input rows
        for out in emitted:
            if i >= len(trace):
                raise AssertionError("trace ends before all emitted events")
            got = trace[i].event
            if got.kind is not out.kind or got.position != out.position:
                raise AssertionError(
                    f"trace row {i}: expected emission {out.kind.value}, "
                    f"found {got.kind.value}")
            i += 1
    return state
