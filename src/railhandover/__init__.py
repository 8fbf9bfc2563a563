"""Handover performance models for rail corridors with distributed antennas.

Analytic curves (trigger, occurrence, failure, interruption, mean RSS)
with Monte Carlo estimators, an executable handover protocol, and a CLI
that reproduces the comparison figures as CSV tables.
"""

from ._version import __version__
from .analytics import (
    MetricMode,
    failure_curve,
    interruption_curve,
    occurrence_masses,
    trigger_curve,
)
from .figures import Figure, ResultTable, RunConfig, compare_schemes, run_figure
from .montecarlo import (
    SeedPolicy,
    estimate_first_crossing,
    estimate_pointwise,
    estimate_protocol,
)
from .protocol import HandoverState, ProtocolViolation, run_crossing, transition
from .scenario import AntennaId, CellId, PositionGrid, Scenario, Scheme, SelectionRule

__all__ = [
    "__version__",
    "AntennaId",
    "CellId",
    "Figure",
    "HandoverState",
    "MetricMode",
    "PositionGrid",
    "ProtocolViolation",
    "ResultTable",
    "RunConfig",
    "Scenario",
    "Scheme",
    "SeedPolicy",
    "SelectionRule",
    "compare_schemes",
    "estimate_first_crossing",
    "estimate_pointwise",
    "estimate_protocol",
    "failure_curve",
    "interruption_curve",
    "occurrence_masses",
    "run_crossing",
    "run_figure",
    "transition",
    "trigger_curve",
]
