"""Array/target geometry: element placement, target location, carrier, and
the validity guards of the steering model.

Angles are radians everywhere; degrees exist only at the CLI boundary.
Element indices are signed integers centered at 0: m in {-(M-1)/2, ..., (M-1)/2}.
Every length, angle and frequency must be finite. Distances and phases are
computed by the steering kernel (steering.steering_factors).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

# Proposition-style closed forms assume eps = spacing/range << 1; past this
# threshold results carry a non-fatal accuracy warning.
EPS_WARN_THRESHOLD = 0.1

AMPLITUDE_VALIDITY_FACTOR = 1.2  # r must exceed 1.2 * aperture


class Mode(enum.Enum):
    """Radar operating mode."""

    MIMO = "mimo"
    PHASED = "phased"


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear transmit/receive arrays on a common axis.

    num_tx must be odd so the transmit index set is integer-symmetric about
    the center element; num_rx may be even (half-integer symmetric indices).
    array_separation is the distance R between array centers; 0 means
    monostatic (co-located arrays), and is_monostatic is the one place that
    decides a geometry's topology: every kernel and bound reads it there.
    """

    num_tx: int
    num_rx: int
    tx_spacing: float
    rx_spacing: float
    array_separation: float = 0.0

    def __post_init__(self):
        if self.num_tx < 1 or self.num_tx % 2 == 0:
            raise DomainError(f"num_tx must be a positive odd integer, got {self.num_tx}")
        if self.num_rx < 1:
            raise DomainError(f"num_rx must be a positive integer, got {self.num_rx}")
        if not (0.0 < self.tx_spacing < math.inf and 0.0 < self.rx_spacing < math.inf):
            raise DomainError("element spacings must be positive and finite")
        if not 0.0 <= self.array_separation < math.inf:
            raise DomainError("array separation must be finite and >= 0")

    @property
    def tx_aperture(self) -> float:
        return self.num_tx * self.tx_spacing

    @property
    def is_monostatic(self) -> bool:
        return self.array_separation == 0.0

    def tx_indices(self) -> np.ndarray:
        half = (self.num_tx - 1) // 2
        return np.arange(-half, half + 1)

    def rx_indices(self) -> np.ndarray:
        # symmetric about 0; half-integer for even counts
        return np.arange(self.num_rx) - (self.num_rx - 1) / 2.0


@dataclass(frozen=True)
class TargetLocation:
    """Point target at polar (range, angle) relative to the transmit-array center."""

    range_m: float
    angle_rad: float

    def __post_init__(self):
        if not 0.0 < self.range_m < math.inf:
            raise DomainError(f"target range must be finite and > 0, got {self.range_m}")
        if not abs(self.angle_rad) <= math.pi / 2:
            raise DomainError(f"target angle must lie in [-pi/2, pi/2], got {self.angle_rad}")


@dataclass(frozen=True)
class CarrierConfig:
    """Carrier frequency; wavelength is always derived (single source of truth)."""

    carrier_freq: float

    def __post_init__(self):
        if not 0.0 < self.carrier_freq < math.inf:
            raise DomainError(
                f"carrier frequency must be positive and finite, got {self.carrier_freq}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @classmethod
    def from_wavelength(cls, wavelength: float) -> "CarrierConfig":
        if not wavelength > 0:
            raise DomainError("wavelength must be positive")
        return cls(carrier_freq=SPEED_OF_LIGHT / wavelength)


@dataclass(frozen=True)
class SensingScenario:
    """Bundle of geometry + target + carrier + operating mode; the geometry
    decides the topology.

    The single input record consumed by steering, FIM, closed-form, and
    simulation code.
    """

    geometry: ArrayGeometry
    target: TargetLocation
    carrier: CarrierConfig
    mode: Mode = Mode.MIMO


def epsilon_tx(geom: ArrayGeometry, tgt: TargetLocation) -> float:
    """Spacing-to-range ratio eps = d_tx / r for the transmit side."""
    return geom.tx_spacing / tgt.range_m


def amplitude_model_valid(geom: ArrayGeometry, tgt: TargetLocation) -> bool:
    """Whether the constant-amplitude steering model is inside its stated
    validity region (range comfortably exceeding the transmit aperture)."""
    return tgt.range_m > AMPLITUDE_VALIDITY_FACTOR * geom.tx_aperture
