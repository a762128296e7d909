"""Gaussian-beam geometry for the low-NA excitation arm.

The excitation region inside the sample is approximated as a cylinder of
radius w0. Two models for the cylinder length are supported:

* "clipped"   -- length = min(2 * z_R, sample thickness)
* "thickness" -- length = sample thickness

All lengths in meters, powers in watts. The functions work elementwise
when a length is a numpy array (the design sweep passes whole grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VOLUME_MODELS = ("clipped", "thickness")


def rayleigh_length(w0: float, wavelength: float) -> float:
    """Rayleigh length pi * w0**2 / lambda of a Gaussian beam."""
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if np.less(w0, 0).any():
        raise ValueError(f"waist radius must be non-negative, got {w0}")
    return math.pi * w0 * w0 / wavelength


def waist_from_lens(focal_length: float, beam_diameter: float,
                    wavelength: float) -> float:
    """Waist radius w0 = 2 * lambda * F / (pi * D) of a collimated beam
    of diameter D focused by a lens of focal length F."""
    _require_positive(focal_length=focal_length, beam_diameter=beam_diameter,
                      wavelength=wavelength)
    return 2.0 * wavelength * focal_length / (math.pi * beam_diameter)


def focal_length_for_rayleigh(zr: float, beam_diameter: float,
                              wavelength: float) -> float:
    """Focal length F = (D/2) * sqrt(z_R * pi / lambda) that produces a
    given Rayleigh length from a beam of diameter D."""
    _require_positive(rayleigh_length=zr, beam_diameter=beam_diameter,
                      wavelength=wavelength)
    return 0.5 * beam_diameter * np.sqrt(zr * math.pi / wavelength)


@dataclass(frozen=True)
class ExcitationRegion:
    """Cylindrical excitation volume and the average power density in it."""

    waist_radius: float
    sample_thickness: float
    effective_length: float
    volume: float
    mean_power_density: float
    laser_power: float


def excitation_region(w0: float, sample_thickness: float, laser_power: float,
                      wavelength: float,
                      model: str = "clipped") -> ExcitationRegion:
    """Build the excitation cylinder for a beam of waist w0 in a sample of
    the given thickness."""
    _require_positive(waist_radius=w0, sample_thickness=sample_thickness)
    if laser_power < 0:
        raise ValueError(f"laser power must be non-negative, got {laser_power}")
    if model not in VOLUME_MODELS:
        raise ValueError(f"unknown volume model {model!r}; "
                         f"expected one of {VOLUME_MODELS}")
    if model == "clipped":
        length = np.minimum(2.0 * rayleigh_length(w0, wavelength),
                            sample_thickness)
    else:
        length = sample_thickness
    area = math.pi * w0 * w0
    return ExcitationRegion(
        waist_radius=w0,
        sample_thickness=sample_thickness,
        effective_length=length,
        volume=area * length,
        mean_power_density=laser_power / area,
        laser_power=laser_power,
    )


def _require_positive(**values):
    for name, value in values.items():
        if np.less_equal(value, 0).any():
            raise ValueError(f"{name} must be positive, got {value}")
