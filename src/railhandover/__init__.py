"""Handover performance models for rail corridors with distributed antennas.

Analytic curves (trigger, occurrence, failure, interruption, mean RSS)
with Monte Carlo estimators, an executable handover protocol, and a CLI
that reproduces the comparison figures as CSV tables.
"""

from ._version import __version__
from .analytics import (
    MetricMode,
    PositionGrid,
    failure_curve,
    first_crossing_masses,
    interruption_curve,
    occurrence_masses,
    trigger_curve,
)
from .channel import path_loss
from .figures import Figure, ResultTable, RunConfig, compare_schemes, run_figure
from .montecarlo import (
    Metric,
    SeedPolicy,
    estimate_first_crossing,
    estimate_pointwise,
    estimate_protocol,
)
from .protocol import HandoverState, ProtocolViolation, run_crossing, transition
from .scenario import AntennaId, CellId, Scenario, Scheme, SelectionRule

__all__ = [
    "__version__",
    "AntennaId",
    "CellId",
    "Figure",
    "HandoverState",
    "Metric",
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
    "first_crossing_masses",
    "interruption_curve",
    "occurrence_masses",
    "path_loss",
    "run_crossing",
    "run_figure",
    "transition",
    "trigger_curve",
]
