"""Reference aggregation of crossings through the state machine, used by tests only.

`protocol_stats` walks `run_crossing` once per trial on the same keyed
substreams as `estimate_protocol` and tallies its outcomes and traces
event by event: the route the array kernel behind `estimate_protocol`
is checked against. `format_stats` renders `ProtocolStats` as stable
text for the golden file. `replay` re-runs a recorded trace through the
transition table and checks every recorded phase and emission.
"""

from __future__ import annotations

import numpy as np

from railhandover.analytics import PositionGrid
from railhandover.montecarlo import DOMAIN_PROTOCOL, ProtocolStats, SeedPolicy
from railhandover.protocol import (
    _TABLE,
    EventKind,
    HandoverState,
    Phase,
    TraceEntry,
    run_crossing,
    transition,
)
from railhandover.scenario import Scenario

# Events fed into the machine; all other kinds are only ever emitted by it.
_INPUT_KINDS = frozenset(kind for _, kind in _TABLE)

STAT_FIELDS = ("trials", "completed", "front_failed_trials", "rear_failed_trials",
               "front_ho_hist", "rear_ho_hist", "front_attempt_hist",
               "front_failure_hist", "interruption_lengths")


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
        outcome, trace = run_crossing(sc, grid, seed.stream(DOMAIN_PROTOCOL, t))
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
