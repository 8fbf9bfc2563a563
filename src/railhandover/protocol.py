"""Executable handover procedure for a two-antenna train.

The procedure crosses one cell boundary: the front antenna triggers,
the serving cell requests the handover and starts dual-casting user
data to both cells, the front antenna re-attaches to the target cell,
the rear antenna follows when its own measurements trigger, and the
serving cell stops dual-casting after the rear antenna has attached.

Control messaging is modeled with zero latency (every request/ack pair
completes within one grid step) and admission always accepts. Handover
attempts are radio-limited only: an attempt fails when the sampled
target RSS at the attempt position is below the usable threshold, and
the antenna retries at the next position whose measurement satisfies
the trigger rule.

The procedure is data: `_TABLE` holds one row per legal (phase, input
kind), `transition` is one lookup in it, and each phase has exactly one
state (`_STATES`), since its attachments, dual-cast flag and selected
RAU follow from the phase.

Events and trace entries are named tuples, the cheapest immutable records
to build (a crossing makes about 300 of each). They read by field name,
iterate and unpack, and, being tuples, compare equal to a plain tuple of
the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import channel
from .scenario import AntennaId, CellId, PositionGrid, Scenario


class Phase(Enum):
    IDLE = "Idle"
    PREPARATION_FRONT = "PreparationFront"
    EXECUTING_FRONT = "ExecutingFront"
    AWAIT_REAR = "AwaitRear"
    EXECUTING_REAR = "ExecutingRear"
    COMPLETING = "Completing"
    DONE = "Done"

    # members are singletons: hash by identity, not Enum's Python-level hash
    __hash__ = object.__hash__


class EventKind(Enum):
    MEASUREMENT_REPORT = "MeasurementReport"
    HO_REQUEST = "HoRequest"
    HO_REQUEST_ACK = "HoRequestAck"
    HO_COMMAND_FRONT = "HoCommandFront"
    FRONT_ATTACHED = "FrontAttached"
    HO_COMMAND_REAR = "HoCommandRear"
    REAR_ATTACHED = "RearAttached"
    DUALCAST_START = "DualcastStart"
    DUALCAST_FINISH = "DualcastFinish"
    DUALCAST_FINISH_ACK = "DualcastFinishAck"

    __hash__ = object.__hash__


# During the handover the target cell powers its boundary RAU.
_HANDOVER_RAU_INDEX = 1


class ProtocolEvent(NamedTuple):
    """One protocol message. Measurement reports carry, per antenna, the
    (serving, target) RSS comparands of the trigger rule in dBm."""

    kind: EventKind
    position: float
    antenna: AntennaId | None = None
    front_rss: tuple[float, float] | None = None
    rear_rss: tuple[float, float] | None = None
    rau_index: int | None = None


@dataclass(frozen=True)
class HandoverState:
    phase: Phase = Phase.IDLE
    front_attached: CellId = CellId.SERVING
    rear_attached: CellId = CellId.SERVING
    dualcast_active: bool = False
    selected_rau_index: int | None = None


class ProtocolViolation(RuntimeError):
    """An event arrived in a phase whose transition table does not allow it."""

    def __init__(self, phase: Phase, kind: EventKind):
        super().__init__(f"event {kind.value} is illegal in phase {phase.value}")
        self.phase = phase
        self.kind = kind


_S, _T = CellId.SERVING, CellId.TARGET
_FRONT, _REAR = AntennaId.FRONT, AntennaId.REAR

# The one state of each phase: front cell, rear cell, dual-cast, selected RAU.
_STATES = {phase: HandoverState(phase, *fields) for phase, fields in (
    (Phase.IDLE, (_S, _S, False, None)),
    (Phase.PREPARATION_FRONT, (_S, _S, False, _HANDOVER_RAU_INDEX)),
    (Phase.EXECUTING_FRONT, (_S, _S, True, _HANDOVER_RAU_INDEX)),
    (Phase.AWAIT_REAR, (_T, _S, True, _HANDOVER_RAU_INDEX)),
    (Phase.EXECUTING_REAR, (_T, _S, True, _HANDOVER_RAU_INDEX)),
    (Phase.COMPLETING, (_T, _T, True, _HANDOVER_RAU_INDEX)),
    (Phase.DONE, (_T, _T, False, None)),
)}

# (phase, input kind) -> (antenna whose trigger rule a measurement report
# needs, next phase, emitted (kind, antenna, RAU index) messages)
_TABLE = {
    (Phase.IDLE, EventKind.MEASUREMENT_REPORT): (
        _FRONT, Phase.PREPARATION_FRONT, ((EventKind.HO_REQUEST, _FRONT, _HANDOVER_RAU_INDEX),)),
    (Phase.PREPARATION_FRONT, EventKind.HO_REQUEST_ACK): (
        None, Phase.EXECUTING_FRONT,
        ((EventKind.HO_COMMAND_FRONT, _FRONT, None), (EventKind.DUALCAST_START, None, None))),
    # retry of a failed front attempt
    (Phase.EXECUTING_FRONT, EventKind.MEASUREMENT_REPORT): (
        _FRONT, Phase.EXECUTING_FRONT, ((EventKind.HO_COMMAND_FRONT, _FRONT, None),)),
    (Phase.EXECUTING_FRONT, EventKind.FRONT_ATTACHED): (None, Phase.AWAIT_REAR, ()),
    (Phase.AWAIT_REAR, EventKind.MEASUREMENT_REPORT): (
        _REAR, Phase.EXECUTING_REAR, ((EventKind.HO_COMMAND_REAR, _REAR, None),)),
    # retry of a failed rear attempt
    (Phase.EXECUTING_REAR, EventKind.MEASUREMENT_REPORT): (
        _REAR, Phase.EXECUTING_REAR, ((EventKind.HO_COMMAND_REAR, _REAR, None),)),
    (Phase.EXECUTING_REAR, EventKind.REAR_ATTACHED): (
        None, Phase.COMPLETING, ((EventKind.DUALCAST_FINISH, None, None),)),
    (Phase.COMPLETING, EventKind.DUALCAST_FINISH_ACK): (None, Phase.DONE, ()),
}

# phase -> the antenna whose trigger rule lets a measurement report act there
_REPORT_ANTENNA = {phase: antenna for (phase, kind), (antenna, _, _) in _TABLE.items()
                   if kind is EventKind.MEASUREMENT_REPORT}


def transition(state: HandoverState, event: ProtocolEvent,
               hysteresis: float) -> tuple[HandoverState, list[ProtocolEvent]]:
    """Apply one input event; return the new state and emitted messages.

    Measurement reports are legal in every phase (they are periodic) and
    act only where the table has a row for them and the row's antenna
    triggers; every other input kind is legal only in the phases whose
    row names it.
    """
    row = _TABLE.get((state.phase, event.kind))
    if row is None:
        if event.kind is EventKind.MEASUREMENT_REPORT:
            return state, []
        raise ProtocolViolation(state.phase, event.kind)
    antenna, phase, emits = row
    if antenna is not None:
        rss = event.front_rss if antenna is _FRONT else event.rear_rss
        if rss is None or not rss[1] - rss[0] > hysteresis:
            return state, []
    return _STATES[phase], [ProtocolEvent(kind, event.position, to, rau_index=rau)
                            for kind, to, rau in emits]


# === Crossing simulation ===


class TraceEntry(NamedTuple):
    """One trace line: the event plus the phases around it.

    Emitted events do not change the phase themselves, so their before
    and after phases coincide with the state right after the transition
    that produced them.
    """

    position: float
    phase_before: Phase
    event: ProtocolEvent
    phase_after: Phase


@dataclass(frozen=True)
class CrossingOutcome:
    front_ho_position: float | None
    rear_ho_position: float | None
    front_failed: bool
    rear_failed: bool
    interruption_intervals: tuple[tuple[float, float], ...]
    final_state: HandoverState


def _draw_crossings(sc: Scenario, grid: PositionGrid, rngs: list[np.random.Generator]
                    ) -> tuple[np.ndarray, ...]:
    """Draw every shadowing realization of each crossing, one generator each.

    Each generator makes one standard-normal draw of shape (antennas,
    cells, positions, components), which fixes the order: front antenna
    first, serving cell first, grid position outermost within a cell.
    Returns the cell RSS, of shape (crossings, antennas, cells,
    positions), then, each of shape (crossings, antennas, positions),
    the serving and target trigger comparands, where the trigger rule
    fires and where the target comparand is usable.
    """
    if len(sc.antennas()) != 2:
        raise ValueError(f"the handover procedure needs two antennas; "
                         f"scheme {sc.scheme.value} has {len(sc.antennas())}")
    table = channel.link_table(sc, grid)
    positions, antennas, cells, components = table.mu.shape
    z = np.empty((len(rngs), antennas, cells, positions, components))
    for rng, out in zip(rngs, z):
        rng.standard_normal(out=out)
    cell, (serving, target) = table.shadowed(z, slice(None))
    # the array form of transition's trigger check, and the attach rule
    return cell, serving, target, target - serving > sc.hysteresis, target >= sc.threshold


# The environment's response to an emitted message: an ack, or an attach
# attempt by the antenna at index a (front 0, rear 1) that reports success.
_RESPONSES = {
    EventKind.HO_REQUEST: (None, EventKind.HO_REQUEST_ACK),
    EventKind.HO_COMMAND_FRONT: (0, EventKind.FRONT_ATTACHED),
    EventKind.HO_COMMAND_REAR: (1, EventKind.REAR_ATTACHED),
    EventKind.DUALCAST_FINISH: (None, EventKind.DUALCAST_FINISH_ACK),
}


def run_crossing(sc: Scenario, grid: PositionGrid,
                 rng: np.random.Generator) -> tuple[CrossingOutcome, list[TraceEntry]]:
    """Draw one crossing, decide it with the array kernel, and trace it.

    The outcome (attach positions, failures, interruption intervals as
    (first, last) grid coordinates of each run) is the kernel's row on
    this draw. The walk then drives the handover procedure through
    `transition` to record the trace and the final state. The
    environment responds to emitted messages within the same grid step:
    requests are acked, a command makes the named antenna attach to the
    target cell where the kernel says it attaches (elsewhere the attempt
    fails and the antenna retries at its next triggering position), and
    the dual-cast finish is acked by the core network.
    """
    cell, serving, target, triggers, usable = _draw_crossings(sc, grid, [rng])
    arrays = _crossing_outcomes(cell, triggers, usable, sc.threshold)
    attach = (int(arrays.front_index[0]), int(arrays.rear_index[0]))
    # per antenna: the (serving, target) comparands at each position
    reports = [list(zip(s, t)) for s, t in zip(serving[0].tolist(), target[0].tolist())]
    # per phase whose measurement report has a row: at each position, whether
    # the row's antenna triggers
    triggered = dict(zip(sc.antennas(), triggers[0].tolist()))
    acts = {phase: triggered[antenna] for phase, antenna in _REPORT_ANTENNA.items()}
    state = HandoverState()
    trace: list[TraceEntry] = []

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
            elif attach[a] == j:  # the kernel's attach index, at the walk's grid index j
                feed(ProtocolEvent(response, out.position, out.antenna))

    for j, (x, front, rear) in enumerate(zip(grid.positions, *reports)):
        report = ProtocolEvent(EventKind.MEASUREMENT_REPORT, x, front_rss=front, rear_rss=rear)
        fires = acts.get(state.phase)
        if fires is not None and fires[j]:
            feed(report)
        else:  # a report that cannot act leaves the phase as it is
            trace.append(TraceEntry(x, state.phase, report, state.phase))

    xs = grid.positions
    front_at, rear_at = (None if j < 0 else xs[j] for j in attach)
    return CrossingOutcome(
        front_at, rear_at, bool(arrays.front_failed[0]), bool(arrays.rear_failed[0]),
        tuple((xs[first], xs[last]) for _, first, last in arrays.interruptions.tolist()),
        state), trace


# === Array kernel ===


class CrossingArrays(NamedTuple):
    """Outcomes of a batch of crossings, one row per crossing.

    front_index and rear_index hold the grid index where each antenna
    attached to the target cell, -1 where it never did; a crossing is
    done exactly when its rear antenna attached. front_attempts marks
    the positions of every front attach attempt. interruptions lists
    each interruption run as (crossing's row, first index, last index),
    by crossing, then position.
    """

    front_index: np.ndarray
    rear_index: np.ndarray
    front_failed: np.ndarray
    rear_failed: np.ndarray
    front_attempts: np.ndarray
    interruptions: np.ndarray


def _attach(triggered: np.ndarray, usable: np.ndarray,
            allowed: np.ndarray | bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per crossing: the first allowed triggering index whose target
    comparand is usable (-1 if none), the attempts up to and including
    it, and whether any of those attempts failed."""
    attempts = triggered & allowed
    hits = attempts & usable
    attached = hits.any(axis=1)
    first = np.where(attached, hits.argmax(axis=1), -1)
    last = np.where(attached, first, attempts.shape[1] - 1)
    attempts &= np.arange(attempts.shape[1]) <= last[:, np.newaxis]
    return first, attempts, (attempts & ~usable).any(axis=1)


def _crossing_outcomes(cell: np.ndarray, triggered: np.ndarray, usable: np.ndarray,
                       threshold: float) -> CrossingArrays:
    """The procedure's outcome of each drawn crossing, from `_draw_crossings`' arrays.

    The one place that decides attach, failure and interruption: the
    front antenna attempts at every trigger until the first one whose
    target comparand reaches the threshold; the rear antenna does the
    same from the position after the front attach, since the front
    attaches inside that position's own measurement report; each
    antenna's RSS comes from the target cell from its attach on, and an
    interruption is a run of positions where both are below the threshold.
    """
    positions = np.arange(cell.shape[-1])
    front, front_attempts, front_failed = _attach(triggered[:, 0], usable[:, 0], True)
    after_front = (front[:, np.newaxis] >= 0) & (positions > front[:, np.newaxis])
    rear, _, rear_failed = _attach(triggered[:, 1], usable[:, 1], after_front)
    attach = np.stack([front, rear], axis=1)[..., np.newaxis]
    on_target = (attach >= 0) & (positions >= attach)  # (crossings, antennas, positions)
    rss = np.where(on_target, cell[:, :, 1], cell[:, :, 0])
    below = (rss < threshold).all(axis=1).astype(np.int8)
    edges = np.diff(below, axis=1, prepend=0, append=0)
    last = np.nonzero(edges == -1)[1] - 1
    interruptions = np.column_stack([np.argwhere(edges == 1), last])
    return CrossingArrays(front, rear, front_failed, rear_failed, front_attempts,
                          interruptions)


def run_crossings(sc: Scenario, grid: PositionGrid,
                  rngs: list[np.random.Generator]) -> CrossingArrays:
    """The outcomes run_crossing gives on each generator, as arrays."""
    cell, _, _, triggered, usable = _draw_crossings(sc, grid, rngs)
    return _crossing_outcomes(cell, triggered, usable, sc.threshold)


# === Trace serialization ===


def format_trace(trace: list[TraceEntry]) -> str:
    """Tab-separated trace, one event per line, stable field order."""
    lines = ["position_m\tphase_before\tevent_kind\tantenna\tphase_after"]
    for entry in trace:
        antenna = "" if entry.event.antenna is None else entry.event.antenna.name.lower()
        lines.append(f"{entry.position:.6g}\t{entry.phase_before.value}\t"
                     f"{entry.event.kind.value}\t{antenna}\t{entry.phase_after.value}")
    return "\n".join(lines) + "\n"
