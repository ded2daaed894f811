"""SafeDrones runtime monitor: telemetry in, reliability guarantees out.

Composes the propulsion, battery, and processor models under a UAV-loss
fault tree and maps the live probability of failure to the three-level
guarantee vocabulary the Fig. 1 ConSert consumes (High / Medium / Low
reliability). Also detects the battery cell-fault signature (sharp SoC
collapse) that the Fig. 5 scenario injects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.safedrones.battery import BatteryReliabilityModel
from repro.safedrones.fta import ComplexBasicEvent, FaultTree, OrGate
from repro.safedrones.processor import ProcessorReliabilityModel
from repro.safedrones.propulsion import PropulsionModel


#: Companion-computer junction temperature rise over the battery bay.
JUNCTION_RISE_C = 15.0


def check_telemetry(soc, temp_c) -> None:
    """Refuse a non-finite SoC or temperature (floats or per-row arrays),
    so NaN or inf never becomes a plausible PoF."""
    if isinstance(soc, float):
        finite = math.isfinite(soc) and math.isfinite(temp_c)
    else:
        finite = np.isfinite(soc).all() and np.isfinite(temp_c).all()
    if not finite:
        raise ValueError(f"non-finite telemetry: soc={soc!r}, temp_c={temp_c!r}")


class ReliabilityLevel(enum.Enum):
    """Guarantee levels offered to the ConSert layer (Fig. 1)."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"

    @classmethod
    def from_failure_probability(
        cls, pof: float, medium_at: float = 0.2, low_at: float = 0.6
    ) -> "ReliabilityLevel":
        """Map a probability of failure to a guarantee level."""
        if not 0.0 <= pof <= 1.0:
            raise ValueError(f"probability of failure out of range: {pof}")
        if pof < medium_at:
            return cls.HIGH
        if pof < low_at:
            return cls.MEDIUM
        return cls.LOW


@dataclass(frozen=True)
class ReliabilityAssessment:
    """One SafeDrones output sample."""

    stamp: float
    failure_probability: float
    battery_pof: float
    propulsion_pof: float
    processor_pof: float
    level: ReliabilityLevel
    battery_fault_detected: bool
    abort_recommended: bool


@dataclass
class SafeDronesMonitor:
    """Per-UAV runtime reliability monitor.

    ``pof_abort_threshold`` is the paper's predefined failure-probability
    threshold (0.9 in the Fig. 5 experiment): below it, SafeDrones lets the
    mission continue even after a diagnosed battery fault; at or above it,
    it recommends aborting (emergency landing).
    """

    uav_id: str
    rotor_count: int = 4
    pof_abort_threshold: float = 0.9
    mission_horizon_s: float = 600.0
    soc_collapse_threshold: float = 0.15
    battery: BatteryReliabilityModel = field(default_factory=BatteryReliabilityModel)
    processor: ProcessorReliabilityModel = field(
        default_factory=ProcessorReliabilityModel
    )
    propulsion: PropulsionModel = None  # type: ignore[assignment]
    _last_soc: float | None = field(default=None, repr=False)
    battery_fault_detected: bool = False
    history: list[ReliabilityAssessment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.propulsion is None:
            self.propulsion = PropulsionModel(rotor_count=self.rotor_count)
        loss_tree = OrGate(
            name="uav_loss",
            children=[
                ComplexBasicEvent("battery_failure", self.battery),
                ComplexBasicEvent("processor_failure", _SnapshotModel(self)),
            ],
        )
        self.fault_tree = FaultTree(name=f"{self.uav_id}_loss", top=loss_tree)

    # -------------------------------------------------------------- update
    def update(
        self,
        now: float,
        soc: float,
        battery_temp_c: float,
        motors_failed: int | None = None,
    ) -> ReliabilityAssessment:
        """Feed one telemetry sample; returns the current assessment.

        ``motors_failed`` (when reported) syncs the propulsion Markov
        model with the flight controller's observed motor state.
        """
        check_telemetry(soc, battery_temp_c)
        if motors_failed is not None:
            while self.propulsion.motors_failed < motors_failed:
                self.propulsion.record_motor_failure()
        if (
            self._last_soc is not None
            and not self.battery_fault_detected
            and self._last_soc - soc >= self.soc_collapse_threshold
        ):
            # Sharp SoC collapse between consecutive samples: diagnosed
            # cell-group fault (the Fig. 5 80% -> 40% drop).
            self.battery_fault_detected = True
            self.battery.register_cell_fault()
        self._last_soc = soc

        battery_pof = self.battery.update(now, soc, battery_temp_c)
        # Junction temperature tracks battery bay temperature plus load rise.
        processor_pof = self.processor.update(now, battery_temp_c + JUNCTION_RISE_C)
        propulsion_pof = self.propulsion.failure_probability(self.mission_horizon_s)
        self._propulsion_snapshot = propulsion_pof

        total_pof = self.fault_tree.top_event_probability()
        # Fold the propulsion mission-horizon risk in as an OR term.
        total_pof = 1.0 - (1.0 - total_pof) * (1.0 - propulsion_pof)
        assessment = ReliabilityAssessment(
            stamp=now,
            failure_probability=total_pof,
            battery_pof=battery_pof,
            propulsion_pof=propulsion_pof,
            processor_pof=processor_pof,
            level=ReliabilityLevel.from_failure_probability(total_pof),
            battery_fault_detected=self.battery_fault_detected,
            abort_recommended=total_pof >= self.pof_abort_threshold,
        )
        self.history.append(assessment)
        return assessment

    @property
    def latest(self) -> ReliabilityAssessment | None:
        """The most recent assessment, or None before the first update."""
        return self.history[-1] if self.history else None


@dataclass
class _SnapshotModel:
    """Adapter exposing the monitor's processor PoF to the fault tree."""

    monitor: "SafeDronesMonitor"

    @property
    def failure_probability(self) -> float:
        return self.monitor.processor.failure_probability
