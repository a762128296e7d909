import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lrcfm import beam_optics as bo

LAMBDA = 532e-9


def test_rayleigh_length_zero_waist():
    assert bo.rayleigh_length(0.0, LAMBDA) == 0.0


def test_rayleigh_length_values():
    # frozen from a 30-digit evaluation of pi * w0**2 / lambda
    assert bo.rayleigh_length(6.5e-6, LAMBDA) == pytest.approx(
        2.49496784989039e-4, rel=1e-12)
    assert bo.rayleigh_length(450e-6, LAMBDA) == pytest.approx(
        1.19581299314273, rel=1e-12)


def test_rayleigh_length_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        bo.rayleigh_length(1e-6, 0.0)
    with pytest.raises(ValueError):
        bo.rayleigh_length(-1e-6, LAMBDA)


def test_focal_length_for_rayleigh_value():
    # frozen from a 30-digit evaluation of (D/2) * sqrt(zR * pi / lambda)
    assert bo.focal_length_for_rayleigh(0.25e-3, 0.9e-3, LAMBDA) == \
        pytest.approx(0.0172902645522179, rel=1e-12)


def test_focal_length_sqrt_scaling():
    f1 = bo.focal_length_for_rayleigh(0.1e-3, 0.9e-3, LAMBDA)
    f2 = bo.focal_length_for_rayleigh(0.4e-3, 0.9e-3, LAMBDA)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-12)


def test_waist_from_lens_values():
    # frozen from a 30-digit evaluation of 2 * lambda * F / (pi * D)
    assert bo.waist_from_lens(30e-3, 0.9e-3, LAMBDA) == pytest.approx(
        1.12893906299851e-5, rel=1e-12)
    assert bo.waist_from_lens(3.6e-3, 0.9e-3, LAMBDA) == pytest.approx(
        1.35472687559821e-6, rel=1e-12)


def test_waist_inverse_in_beam_diameter():
    w1 = bo.waist_from_lens(30e-3, 0.9e-3, LAMBDA)
    w2 = bo.waist_from_lens(30e-3, 1.8e-3, LAMBDA)
    assert w2 == pytest.approx(w1 / 2.0, rel=1e-12)


@given(st.floats(min_value=1e-4, max_value=1e0))
def test_focal_length_round_trip(f):
    w0 = bo.waist_from_lens(f, 0.9e-3, LAMBDA)
    zr = bo.rayleigh_length(w0, LAMBDA)
    assert bo.focal_length_for_rayleigh(zr, 0.9e-3, LAMBDA) == \
        pytest.approx(f, rel=1e-12)


@given(st.floats(min_value=1e-2, max_value=1e2))
def test_rayleigh_quadratic_scaling(c):
    base = bo.rayleigh_length(5e-6, LAMBDA)
    assert bo.rayleigh_length(c * 5e-6, LAMBDA) == \
        pytest.approx(c * c * base, rel=1e-9)


def test_excitation_region_clipped_below_thickness():
    region = bo.excitation_region(6.5e-6, 500e-6, 10e-3, LAMBDA)
    assert region.effective_length == pytest.approx(2 * 2.49496784989039e-4,
                                                    rel=1e-12)
    # frozen: pi * w0**2 * 2 * zR at 30 digits
    assert region.volume == pytest.approx(6.62325590459382e-14, rel=1e-12)
    assert region.mean_power_density * math.pi * 6.5e-6 ** 2 == \
        pytest.approx(10e-3, rel=1e-15)


def test_excitation_region_clipping_branch():
    # 2 zR > t: length clips to the sample thickness exactly
    region = bo.excitation_region(450e-6, 500e-6, 10e-3, LAMBDA)
    assert region.effective_length == 500e-6
    region_t = bo.excitation_region(6.5e-6, 500e-6, 10e-3, LAMBDA,
                                    model="thickness")
    assert region_t.effective_length == 500e-6


def test_excitation_region_zero_power():
    region = bo.excitation_region(6.5e-6, 500e-6, 0.0, LAMBDA)
    assert region.mean_power_density == 0.0


def test_excitation_region_rejects_unknown_model():
    with pytest.raises(ValueError):
        bo.excitation_region(6.5e-6, 500e-6, 10e-3, LAMBDA, model="sphere")


def test_clipped_volume_monotone_in_waist():
    waists = np.geomspace(1e-6, 1e-3, 64)
    volumes = [bo.excitation_region(w, 500e-6, 10e-3, LAMBDA).volume
               for w in waists]
    assert np.all(np.diff(volumes) >= 0)


def test_power_density_volume_identity():
    for w0 in (2e-6, 6.5e-6, 50e-6, 450e-6):
        region = bo.excitation_region(w0, 500e-6, 10e-3, LAMBDA)
        assert region.mean_power_density * region.volume == \
            pytest.approx(10e-3 * region.effective_length, rel=1e-14)


def test_beam_geometry_consistency_check():
    # the lens relation w0 = 2 lambda F / (pi D) and its inverse through
    # the Rayleigh length agree
    w0 = bo.waist_from_lens(30e-3, 0.9e-3, LAMBDA)
    assert w0 == pytest.approx(1.12893906299851e-5, rel=1e-12)
    zr = bo.rayleigh_length(w0, LAMBDA)
    assert bo.focal_length_for_rayleigh(zr, 0.9e-3, LAMBDA) == \
        pytest.approx(30e-3, rel=1e-12)
