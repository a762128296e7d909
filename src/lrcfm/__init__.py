"""Design and analysis toolkit for a long-Rayleigh-length confocal
microscope: Gaussian-beam excitation geometry, five-level NV rate model,
collection figure of merit, design sweeps, pulse-measurement fitting and
spatial mapping."""

from importlib import resources

from .beam_optics import (ExcitationRegion, excitation_region,
                          focal_length_for_rayleigh, rayleigh_length,
                          waist_from_lens)
from .collection import (FigureOfMerit, detection_proportion, detection_rate,
                         figure_of_merit, numerical_aperture)
from .config import load_rate_file
from .nv_rates import (NvRateSet, PumpModel, SteadyState, cw_fluorescence,
                       polarization, steady_state)
from .pulse_fit import FitResult, TimeSeries, auto_init, fit, pi_time
from .mapping import MapStats, PixelMap, assemble, stats, synth_map

__version__ = "0.1.0"


def data_path(name: str):
    """Path to a shipped data file (example rates, lens catalog, config)."""
    return resources.files("lrcfm.data") / name
