"""Track geometry and deployment parameters.

One cell consists of a base station plus n_raus remote antenna units
fed over fiber, evenly spaced along the track and centered on the base
station. Two neighboring cells (serving and target) overlap along the
span [0, ds] walked by the train; the front antenna position is the
reference coordinate and the rear antenna trails it by train_length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum


class Scheme(Enum):
    """Downlink transmission schemes compared by the simulator."""

    # two train antennas, each cell powers its closest RAU
    PROPOSED = "proposed"
    # two train antennas, each cell splits power across all RAUs
    DAS_BLANKET = "das-blanket"
    # one train antenna, closest-RAU power allocation
    DAS_SINGLE = "das-single"
    # two train antennas, centralized cell antenna at the base station
    TRADITIONAL = "traditional"


# Schemes whose cells power one selected RAU per train antenna.
SELECTION_SCHEMES = (Scheme.PROPOSED, Scheme.DAS_SINGLE)


class SelectionRule(Enum):
    """How a cell picks the RAU serving a given train antenna."""

    MAX_RSS = "shadowed-rss"      # best instantaneous shadowed RSS
    MEAN_PATHLOSS = "mean-pathloss"  # best mean (deterministic) link


class AntennaId(Enum):
    FRONT = 1
    REAR = 2


class CellId(Enum):
    SERVING = "serving"
    TARGET = "target"


@dataclass(frozen=True)
class NodePosition:
    """A transmit node: along-track coordinate plus lateral offset, meters."""

    along_track: float
    offset: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.along_track) and math.isfinite(self.offset)):
            raise ValueError("node coordinates must be finite")
        if self.offset < 0.0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")


@dataclass(frozen=True)
class Scenario:
    """Deployment and model parameters. Distances in meters, powers in dBm.

    dr defaults to ds / n_raus, the even-coverage spacing.
    """

    ds: float = 3000.0            # base-station spacing along the track
    d0: float = 100.0             # lateral offset of each base station
    du: float = 60.0              # lateral offset of each RAU
    train_length: float = 200.0   # front-to-rear antenna separation
    speed: float = 100.0          # train speed, m/s (reporting only)
    n_raus: int = 4               # RAUs per cell
    tx_power: float = 86.0        # total transmit power per cell, dBm
    shadow_sigma: float = 4.0     # shadow-fading std dev, dB
    pathloss_a: float = 31.5      # path-loss intercept, dB
    pathloss_gamma: float = 3.5   # path-loss exponent (slope 10*gamma dB/decade)
    hysteresis: float = 2.0       # handover hysteresis margin, dB
    threshold: float = -30.0      # minimum usable RSS, dBm
    measurement_step: float = 10.0  # grid step between measurements, m
    noise_density: float = -145.0   # dBm/Hz; carried in configs, unused by the models
    scheme: Scheme = Scheme.PROPOSED
    selection: SelectionRule = SelectionRule.MAX_RSS
    dr: float = field(default=0.0)  # RAU spacing; 0 means "use ds / n_raus"
    shadow_sigma_per_rau: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _require(self.ds > 0.0, "ds", "must be > 0", self.ds)
        _require(self.n_raus >= 1, "n_raus", "must be >= 1", self.n_raus)
        if self.dr == 0.0:
            object.__setattr__(self, "dr", self.ds / self.n_raus)
        _require(0.0 < self.dr <= self.ds, "dr", "must satisfy 0 < dr <= ds", self.dr)
        _require(self.d0 >= 0.0, "d0", "must be >= 0", self.d0)
        _require(self.du >= 0.0, "du", "must be >= 0", self.du)
        _require(self.train_length >= 0.0, "train_length", "must be >= 0", self.train_length)
        _require(self.speed > 0.0, "speed", "must be > 0", self.speed)
        # no-fading studies pass a tiny sigma (1e-9), never exactly zero
        _require(self.shadow_sigma > 0.0, "shadow_sigma", "must be > 0", self.shadow_sigma)
        _require(self.hysteresis >= 0.0, "hysteresis", "must be >= 0", self.hysteresis)
        _require(self.measurement_step > 0.0, "measurement_step", "must be > 0",
                 self.measurement_step)
        if self.shadow_sigma_per_rau is not None:
            _require(len(self.shadow_sigma_per_rau) == self.n_raus,
                     "shadow_sigma_per_rau", f"must list exactly n_raus={self.n_raus} values",
                     self.shadow_sigma_per_rau)
            _require(all(s > 0.0 for s in self.shadow_sigma_per_rau),
                     "shadow_sigma_per_rau", "entries must be > 0", self.shadow_sigma_per_rau)
        # inf passes every range check above, as nan does where a field has none
        values = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]
        values += [("shadow_sigma_per_rau", s) for s in self.shadow_sigma_per_rau or ()]
        for name, value in values:
            _require(math.isfinite(value), name, "must be finite", value)

    def with_scheme(self, scheme: Scheme) -> "Scenario":
        return replace(self, scheme=scheme)

    def antennas(self) -> tuple[AntennaId, ...]:
        """Train antennas active under this scenario's scheme."""
        if self.scheme is Scheme.DAS_SINGLE:
            return (AntennaId.FRONT,)
        return (AntennaId.FRONT, AntennaId.REAR)

    def rau_sigma(self, rau_index: int) -> float:
        """Shadow sigma for RAU link rau_index (1-based), honoring overrides."""
        if self.shadow_sigma_per_rau is None:
            return self.shadow_sigma
        return self.shadow_sigma_per_rau[rau_index - 1]


def _require(cond: bool, key: str, constraint: str, value) -> None:
    if not cond:
        raise ValueError(f"{key} {constraint} (got {value!r})")


def rau_positions(sc: Scenario, cell: CellId) -> tuple[NodePosition, ...]:
    """RAU nodes of a cell, ordered by RAU index 1..n_raus.

    RAUs are evenly spaced with pitch dr, centered on their base station:
    RAU n of the serving cell sits at along_track (n - (n_raus+1)/2) * dr,
    so consecutive serving/target boundary RAUs are symmetric about the
    midpoint ds/2 of the overlap. The target cell layout is the serving
    one shifted by ds.
    """
    shift = 0.0 if cell is CellId.SERVING else sc.ds
    center = (sc.n_raus + 1) / 2.0
    return tuple(
        NodePosition((n - center) * sc.dr + shift, sc.du)
        for n in range(1, sc.n_raus + 1)
    )


def bs_position(sc: Scenario, cell: CellId) -> NodePosition:
    """Base-station node of a cell (used directly by the traditional scheme)."""
    along = 0.0 if cell is CellId.SERVING else sc.ds
    return NodePosition(along, sc.d0)


def antenna_x(sc: Scenario, front_x: float, antenna: AntennaId) -> float:
    """Along-track coordinate of a train antenna, given the front position."""
    if antenna is AntennaId.FRONT:
        return front_x
    return front_x - sc.train_length
