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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import channel
from .analytics import PositionGrid
from .scenario import AntennaId, CellId, Scenario


class Phase(Enum):
    IDLE = "Idle"
    PREPARATION_FRONT = "PreparationFront"
    EXECUTING_FRONT = "ExecutingFront"
    AWAIT_REAR = "AwaitRear"
    EXECUTING_REAR = "ExecutingRear"
    COMPLETING = "Completing"
    DONE = "Done"


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


# Events fed into the machine; all other kinds are only ever emitted by it.
_INPUT_KINDS = frozenset({
    EventKind.MEASUREMENT_REPORT,
    EventKind.HO_REQUEST_ACK,
    EventKind.FRONT_ATTACHED,
    EventKind.REAR_ATTACHED,
    EventKind.DUALCAST_FINISH_ACK,
})

# During the handover the target cell powers its boundary RAU.
_HANDOVER_RAU_INDEX = 1


@dataclass(frozen=True)
class ProtocolEvent:
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


def _triggered(rss: tuple[float, float] | None, hysteresis: float) -> bool:
    if rss is None:
        return False
    serving, target = rss
    return target - serving > hysteresis


def transition(state: HandoverState, event: ProtocolEvent,
               hysteresis: float) -> tuple[HandoverState, list[ProtocolEvent]]:
    """Apply one input event; return the new state and emitted messages.

    Measurement reports are legal in every phase (they are periodic) and
    act only where the transition table reacts to them; every other input
    kind is legal in exactly one phase.
    """
    kind = event.kind
    if kind not in _INPUT_KINDS:
        raise ProtocolViolation(state.phase, kind)
    phase = state.phase

    if kind is EventKind.MEASUREMENT_REPORT:
        if phase is Phase.IDLE and _triggered(event.front_rss, hysteresis):
            emitted = [ProtocolEvent(EventKind.HO_REQUEST, event.position,
                                     AntennaId.FRONT, rau_index=_HANDOVER_RAU_INDEX)]
            return replace(state, phase=Phase.PREPARATION_FRONT,
                           selected_rau_index=_HANDOVER_RAU_INDEX), emitted
        if phase is Phase.EXECUTING_FRONT and _triggered(event.front_rss, hysteresis):
            # retry of a failed front attempt
            return state, [ProtocolEvent(EventKind.HO_COMMAND_FRONT, event.position,
                                         AntennaId.FRONT)]
        if phase is Phase.AWAIT_REAR and _triggered(event.rear_rss, hysteresis):
            return (replace(state, phase=Phase.EXECUTING_REAR),
                    [ProtocolEvent(EventKind.HO_COMMAND_REAR, event.position,
                                   AntennaId.REAR)])
        if phase is Phase.EXECUTING_REAR and _triggered(event.rear_rss, hysteresis):
            # retry of a failed rear attempt
            return state, [ProtocolEvent(EventKind.HO_COMMAND_REAR, event.position,
                                         AntennaId.REAR)]
        return state, []

    if kind is EventKind.HO_REQUEST_ACK:
        if phase is not Phase.PREPARATION_FRONT:
            raise ProtocolViolation(phase, kind)
        emitted = [
            ProtocolEvent(EventKind.HO_COMMAND_FRONT, event.position, AntennaId.FRONT),
            ProtocolEvent(EventKind.DUALCAST_START, event.position),
        ]
        return replace(state, phase=Phase.EXECUTING_FRONT, dualcast_active=True), emitted

    if kind is EventKind.FRONT_ATTACHED:
        if phase is not Phase.EXECUTING_FRONT:
            raise ProtocolViolation(phase, kind)
        return replace(state, phase=Phase.AWAIT_REAR,
                       front_attached=CellId.TARGET), []

    if kind is EventKind.REAR_ATTACHED:
        if phase is not Phase.EXECUTING_REAR:
            raise ProtocolViolation(phase, kind)
        return (replace(state, phase=Phase.COMPLETING, rear_attached=CellId.TARGET),
                [ProtocolEvent(EventKind.DUALCAST_FINISH, event.position)])

    if kind is EventKind.DUALCAST_FINISH_ACK:
        if phase is not Phase.COMPLETING:
            raise ProtocolViolation(phase, kind)
        return replace(state, phase=Phase.DONE, dualcast_active=False,
                       selected_rau_index=None), []

    raise ProtocolViolation(phase, kind)  # unreachable


# === Crossing simulation ===


@dataclass(frozen=True)
class TraceEntry:
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


def _draw_crossings(table: channel.LinkTable, rngs: list[np.random.Generator]
                    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Draw every shadowing realization of each crossing, one generator each.

    Each generator makes one standard-normal draw of shape (antennas,
    cells, positions, components), which fixes the order: front antenna
    first, serving cell first, grid position outermost within a cell.
    Returns the cell RSS, of shape (crossings, antennas, cells,
    positions), and the serving and target trigger comparands, of shape
    (crossings, antennas, positions).
    """
    positions, antennas, cells, components = table.mu.shape
    z = np.empty((len(rngs), antennas, cells, positions, components))
    for rng, out in zip(rngs, z):
        rng.standard_normal(out=out)
    return table.shadowed(z, slice(None))


def _require_two_antennas(sc: Scenario) -> None:
    if len(sc.antennas()) != 2:
        raise ValueError(f"the handover procedure needs two antennas; "
                         f"scheme {sc.scheme.value} has {len(sc.antennas())}")


def run_crossing(sc: Scenario, grid: PositionGrid,
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
    _require_two_antennas(sc)
    table = channel.link_table(sc, grid)
    (cell,), ((serving,), (target,)) = _draw_crossings(table, [rng])
    # per antenna and position, the (serving, target) comparands as floats
    reports = np.stack((serving, target), axis=-1).tolist()
    state = HandoverState()
    trace: list[TraceEntry] = []
    attached = [0, 0]  # per antenna, front then rear: its cell's index in CELLS
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
        for out in emitted:
            trace.append(TraceEntry(out.position, after, out, after))
        for out in emitted:
            react(out)

    def react(message: ProtocolEvent) -> None:
        # environment side: zero-latency responses within the grid step
        if message.kind is EventKind.HO_REQUEST:
            feed(ProtocolEvent(EventKind.HO_REQUEST_ACK, message.position))
        elif message.kind is EventKind.HO_COMMAND_FRONT:
            attempt(0, message.position)
        elif message.kind is EventKind.HO_COMMAND_REAR:
            attempt(1, message.position)
        elif message.kind is EventKind.DUALCAST_FINISH:
            feed(ProtocolEvent(EventKind.DUALCAST_FINISH_ACK, message.position))

    def attempt(a: int, position: float) -> None:
        if target[a, position_index[position]] >= sc.threshold:
            attached[a] = 1
            ho_position[a] = position
            done_kind = (EventKind.FRONT_ATTACHED, EventKind.REAR_ATTACHED)[a]
            feed(ProtocolEvent(done_kind, position, table.antennas[a]))
        else:
            failed[a] = True

    position_index = {x: j for j, x in enumerate(grid.positions)}

    for j, x in enumerate(grid.positions):
        feed(ProtocolEvent(EventKind.MEASUREMENT_REPORT, x,
                           front_rss=tuple(reports[0][j]), rear_rss=tuple(reports[1][j])))
        # threshold check against each antenna's attached cell
        below = all(cell[a, attached[a], j] < sc.threshold for a in (0, 1))
        if below:
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


# === Array kernel ===


@dataclass(frozen=True)
class CrossingArrays:
    """Outcomes of a batch of crossings, one row per crossing.

    front_index and rear_index hold the grid index where each antenna
    attached to the target cell, -1 where it never did; a crossing is
    done exactly when its rear antenna attached. front_attempts marks
    the positions of every front attach attempt. interruptions lists
    each interruption run as (crossing, first index, last index), by
    crossing, then position.
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


def run_crossings(sc: Scenario, grid: PositionGrid,
                  rngs: list[np.random.Generator]) -> CrossingArrays:
    """The outcomes run_crossing gives on each generator, as arrays.

    Draws exactly what run_crossing draws, then applies the procedure's
    rules to whole arrays instead of walking the state machine: the
    front antenna attempts at every trigger until the first one whose
    target comparand reaches the threshold; the rear antenna does the
    same from the position after the front attach, since the front
    attaches inside that position's own measurement report; each
    antenna's RSS comes from the target cell from its attach on.
    """
    _require_two_antennas(sc)
    cell, (serving, target) = _draw_crossings(channel.link_table(sc, grid), rngs)
    triggered = target - serving > sc.hysteresis
    usable = target >= sc.threshold
    positions = np.arange(len(grid.positions))
    front, front_attempts, front_failed = _attach(triggered[:, 0], usable[:, 0], True)
    after_front = (front[:, np.newaxis] >= 0) & (positions > front[:, np.newaxis])
    rear, _, rear_failed = _attach(triggered[:, 1], usable[:, 1], after_front)
    attach = np.stack([front, rear], axis=1)[..., np.newaxis]
    on_target = (attach >= 0) & (positions >= attach)  # (crossings, antennas, positions)
    rss = np.where(on_target, cell[:, :, 1], cell[:, :, 0])
    below = (rss < sc.threshold).all(axis=1).astype(np.int8)
    edges = np.diff(below, axis=1, prepend=0, append=0)
    last = np.nonzero(edges == -1)[1] - 1
    interruptions = np.column_stack([np.argwhere(edges == 1), last])
    return CrossingArrays(front, rear, front_failed, rear_failed, front_attempts,
                          interruptions)


# === Trace serialization ===


def format_trace(trace: list[TraceEntry]) -> str:
    """Tab-separated trace, one event per line, stable field order."""
    lines = ["position_m\tphase_before\tevent_kind\tantenna\tphase_after"]
    for entry in trace:
        antenna = "" if entry.event.antenna is None else entry.event.antenna.name.lower()
        lines.append(f"{entry.position:.6g}\t{entry.phase_before.value}\t"
                     f"{entry.event.kind.value}\t{antenna}\t{entry.phase_after.value}")
    return "\n".join(lines) + "\n"
