import numpy as np
import pytest

from lrcfm import beam_optics as bo
from lrcfm import collection as col


def test_numerical_aperture_values():
    # frozen from 30-digit sin(atan(r/F))
    assert col.numerical_aperture(12.7e-3, 30e-3) == pytest.approx(
        0.389840257198187, rel=1e-12)
    assert col.numerical_aperture(6.35e-3, 30e-3) == pytest.approx(
        0.207078643441574, rel=1e-12)


def test_numerical_aperture_limits():
    assert col.numerical_aperture(12.7e-3, 1e6) < 1.3e-8
    with pytest.raises(ValueError):
        col.numerical_aperture(0.0, 30e-3)


def test_detection_rate_values():
    assert col.detection_rate(1.0) == 1.0
    # frozen from 30-digit 1 - sqrt(1 - NA^2)
    assert col.detection_rate(0.389840257198187) == pytest.approx(
        0.0791175026814487, rel=1e-12)
    assert col.detection_rate(0.207078643441574) == pytest.approx(
        0.0216757002760294, rel=1e-12)


def test_detection_rate_domain():
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            col.detection_rate(bad)


def test_detection_rate_monotone_and_small_na_series():
    grid = np.linspace(1e-3, 1.0, 500)
    values = np.array([col.detection_rate(na) for na in grid])
    assert np.all(np.diff(values) > 0)
    for na in (0.01, 0.03, 0.05):
        assert col.detection_rate(na) == pytest.approx(na ** 2 / 2, rel=1e-3)


def test_detection_proportion():
    assert col.detection_proportion(100e-6, 6.7, 11.3e-6) == 1.0
    assert col.detection_proportion(1e-6, 1.0, 10e-6) == pytest.approx(0.01)
    assert col.detection_proportion(1e-9, 1.0, 10e-6) == pytest.approx(
        0.0, abs=1e-8)
    with pytest.raises(ValueError):
        col.detection_proportion(0.0, 1.0, 10e-6)


def _reference_fom(zr, reference_context, density=1.0):
    ctx = reference_context
    focal = bo.focal_length_for_rayleigh(zr, ctx.incident_beam_diameter,
                                         ctx.wavelength)
    w0 = bo.waist_from_lens(focal, ctx.incident_beam_diameter, ctx.wavelength)
    region = bo.excitation_region(w0, ctx.sample_thickness, ctx.laser_power,
                                  ctx.wavelength)
    rate = col.detection_rate(col.numerical_aperture(ctx.lens_radius, focal))
    return col.figure_of_merit(region.volume, region.mean_power_density,
                               rate, ctx.rates, ctx.pump, density=density)


def test_figure_of_merit_linear_in_density(reference_context):
    f1 = _reference_fom(0.25e-3, reference_context, density=1.0)
    f2 = _reference_fom(0.25e-3, reference_context, density=3.0)
    assert f2.detected_signal == pytest.approx(3 * f1.detected_signal,
                                               rel=1e-12)


def test_figure_of_merit_product_identity(reference_context):
    fom = _reference_fom(0.1e-3, reference_context, density=2.0)
    assert fom.detected_signal == pytest.approx(
        fom.detection_volume * fom.i_cw * fom.polarization
        * fom.detection_rate * 2.0, rel=1e-12)


def test_figure_of_merit_peak_at_thickness_match(reference_context):
    # detected signal on a zR log grid peaks where 2 zR = sample thickness
    grid = np.geomspace(1e-6, 10e-3, 160)
    signal = [_reference_fom(zr, reference_context).detected_signal for zr in grid]
    peak = grid[int(np.argmax(signal))]
    target = reference_context.sample_thickness / 2.0
    step = grid[1] / grid[0]
    assert target / step <= peak <= target * step


def test_figure_of_merit_unimodal_on_grid(reference_context):
    grid = np.geomspace(1e-6, 10e-3, 160)
    signal = np.array([_reference_fom(zr, reference_context).detected_signal
                       for zr in grid])
    d = np.diff(signal)
    d = d[d != 0]
    changes = int(np.sum(np.sign(d[1:]) != np.sign(d[:-1])))
    assert changes <= 1


def test_figure_of_merit_checks_its_arguments(reference_context):
    for kwargs in ({"density": 0.0}, {"density": -1.0}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            _reference_fom(0.25e-3, reference_context, **kwargs)
