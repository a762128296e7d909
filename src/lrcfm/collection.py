"""Collection-side model: numerical aperture, relative detection rate,
fiber-core detection proportion, and the detected-signal figure of merit.

The NA-to-collected-fraction map assumes one-sided isotropic point
emission: the fraction of photons inside the collection cone of
half-angle theta is (1 - cos(theta)) / 2. The detection rate is that
fraction normalized to NA = 1, which simplifies to 1 - sqrt(1 - NA^2).

`figure_of_merit` is the one detected-signal formula. It works
elementwise on arrays, and the design core (`designer._evaluate`) calls
it on whole arrays of focal lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nv_rates import (NvRateSet, PumpModel, cw_fluorescence, polarization,
                       steady_states)


def numerical_aperture(lens_radius, focal_length):
    """NA = sin(arctan(lens_radius / focal_length)), elementwise on
    arrays."""
    if np.less_equal(lens_radius, 0).any() or \
            np.less_equal(focal_length, 0).any():
        raise ValueError("lens radius and focal length must be positive")
    ratio = np.divide(lens_radius, focal_length)
    # math per element: numpy's SIMD arctan is not correctly rounded, so
    # its last bit would depend on the CPU
    na = [math.sin(math.atan(x)) for x in ratio.ravel().tolist()]
    return np.reshape(na, ratio.shape)[()]


def detection_rate(na):
    """Collected solid-angle fraction relative to an NA = 1 objective,
    elementwise on arrays."""
    if not (np.greater(na, 0.0) & np.less_equal(na, 1.0)).all():
        raise ValueError(f"NA must be in (0, 1], got {na}")
    return 1.0 - np.sqrt(1.0 - na * na)


def detection_proportion(core_radius: float, magnification: float,
                         w0: float) -> float:
    """Area fraction of the excited-spot image passed by the fiber core,
    min(1, (core_radius / (magnification * w0))^2)."""
    if core_radius <= 0 or magnification <= 0 or w0 <= 0:
        raise ValueError("core radius, magnification and waist must be positive")
    ratio = core_radius / (magnification * w0)
    return min(1.0, ratio * ratio)


@dataclass(frozen=True)
class FigureOfMerit:
    """Detected-signal figure of merit, its factors, and the power density
    the rate model was evaluated at."""

    detection_volume: float
    power_density: float
    i_cw: float
    polarization: float
    detection_rate: float
    detected_signal: float


def figure_of_merit(volume, power_density, detection, rates: NvRateSet,
                    pump: PumpModel, density: float = 1.0) -> FigureOfMerit:
    """Detected signal = volume * I_cw * P * detection rate * center
    density, with the rate model evaluated at the mean power density.
    Elementwise on arrays of volume, power density and detection rate; the
    steady states are one batched solve."""
    if density <= 0:
        raise ValueError(f"center density must be positive, got {density}")
    ss = steady_states(rates, pump, power_density)
    i_cw = cw_fluorescence(ss, rates)
    pol = polarization(ss)
    return FigureOfMerit(
        detection_volume=volume,
        power_density=power_density,
        i_cw=i_cw,
        polarization=pol,
        detection_rate=detection,
        detected_signal=volume * i_cw * pol * detection * density,
    )
