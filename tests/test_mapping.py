import json

import numpy as np
import pytest

from lrcfm import mapping, pulse_fit
from lrcfm.pulse_fit import TimeSeries

PITCH = 50e-6


def t2_truth_field(ny=21, nx=7):
    """Smoothly varying stretched-exponential parameters, realistic
    scales (T2 around 21.5 us, exponent around 1.5)."""
    params = np.empty((ny, nx, 3))
    for iy in range(ny):
        for ix in range(nx):
            params[iy, ix] = (1.0,
                              21.5e-6 * (1 + 0.2 * ix / nx - 0.1 * iy / ny),
                              1.5)
    return params


def t2_tau():
    return np.linspace(0, 80e-6, 121)[1:]


def test_synth_map_deterministic():
    params = t2_truth_field(3, 2)
    a = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=42)
    b = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=42)
    for (xa, ya, sa), (xb, yb, sb) in zip(a, b):
        assert (xa, ya) == (xb, yb)
        assert np.array_equal(sa.signal, sb.signal)
    c = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=43)
    assert not np.array_equal(a[0][2].signal, c[0][2].signal)


def test_synth_map_noiseless_on_curve():
    params = t2_truth_field(2, 2)
    for x, y, series in mapping.synth_map(params, "t2", t2_tau(), 0.0, 1):
        iy = int(round(y / PITCH))
        ix = int(round(x / PITCH))
        clean = pulse_fit.model_eval("t2", series.tau, params[iy, ix])
        assert np.array_equal(series.signal, clean)


def test_single_pixel_rabi_map():
    truth = np.array([1.0, 20e-6, 5e6, 0.0, 0.5])
    tau = np.linspace(0, 60e-6, 3200)
    records = mapping.synth_map(truth[None, None, :], "rabi", tau, 0.0, 0)
    pixel_map = mapping.assemble(records, "rabi", pitch=PITCH)
    assert (pixel_map.nx, pixel_map.ny) == (1, 1)
    assert pixel_map.quantity == "pi_time"
    assert pixel_map.values[0, 0] == pytest.approx(1 / (2 * 5e6), rel=1e-6)


def test_map_round_trip_t2():
    params = t2_truth_field()
    records = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=1)
    pixel_map = mapping.assemble(records, "t2")
    assert (pixel_map.nx, pixel_map.ny) == (7, 21)
    assert pixel_map.pitch == pytest.approx(PITCH)
    truth = params[:, :, 1]
    valid = np.isfinite(pixel_map.values)
    rel_err = np.abs(pixel_map.values[valid] / truth[valid] - 1)
    assert np.mean(rel_err < 0.02) >= 0.95


def test_assemble_order_independent():
    params = t2_truth_field(4, 3)
    records = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=2)
    forward = mapping.assemble(records, "t2")
    backward = mapping.assemble(list(reversed(records)), "t2")
    assert np.array_equal(forward.values, backward.values,
                          equal_nan=True)


def test_assemble_rejects_duplicates_and_offgrid():
    params = t2_truth_field(2, 2)
    records = mapping.synth_map(params, "t2", t2_tau(), 0.0, 0)
    with pytest.raises(ValueError, match="duplicate"):
        mapping.assemble(records + [records[0]], "t2", pitch=PITCH)
    x, y, series = records[0]
    shifted = [(x + 0.3 * PITCH, y, series)] + records[1:]
    with pytest.raises(ValueError, match="off the pixel grid"):
        mapping.assemble(shifted, "t2", pitch=PITCH)


def test_constant_pixel_marked_missing():
    params = t2_truth_field(2, 2)
    records = mapping.synth_map(params, "t2", t2_tau(), 0.0, 0)
    x, y, series = records[1]
    records[1] = (x, y, TimeSeries(series.tau,
                                   np.full_like(series.signal, 3.0)))
    pixel_map = mapping.assemble(records, "t2", pitch=PITCH)
    assert np.isnan(pixel_map.values[0, 1])
    assert np.sum(np.isfinite(pixel_map.values)) == 3


def test_missing_pixels_counted_by_reason(tmp_path):
    params = t2_truth_field(2, 3)
    params[1, 2, 1] = 60e-6  # the pixel whose derived value fails
    records = mapping.synth_map(params, "t2", t2_tau(), 0.001, 0)
    x, y, series = records[0]
    records[0] = (x, y, TimeSeries(series.tau,
                                   np.full_like(series.signal, 3.0)))
    x, y, series = records[1]
    rising = TimeSeries(series.tau, np.linspace(0.0, 1.0, len(series)))
    assert not pulse_fit.fit("t2", rising).converged
    records[1] = (x, y, rising)

    def derive(result):
        if result.params[1] > 50e-6:
            raise ValueError("out of range")
        return float(result.params[1])

    pixel_map = mapping.assemble(records, "t2", derive=derive, pitch=PITCH)
    assert pixel_map.failures == {"unidentifiable": 1, "not_converged": 1,
                                  "derive_failed": 1}
    assert np.isnan(pixel_map.values[0, 0]) and np.isnan(pixel_map.values[0, 1])
    assert np.isnan(pixel_map.values[1, 2])
    s = mapping.stats(pixel_map)
    assert (s.n_valid, s.n_missing) == (3, 3)
    assert (s.n_unidentifiable, s.n_not_converged, s.n_derive_failed) == \
        (1, 1, 1)
    path = tmp_path / "stats.json"
    mapping.write_stats_json(s, path)
    assert list(json.loads(path.read_text())) == [
        "mean", "std", "min", "max", "n_valid", "n_missing",
        "n_unidentifiable", "n_not_converged", "n_derive_failed"]


def test_stats_basic():
    values = np.array([[1.0, 1.0], [1.0, 1.0]])
    pm = mapping.PixelMap((0, 0), PITCH, 2, 2, values, "custom", "s")
    s = mapping.stats(pm)
    assert (s.mean, s.std) == (1.0, 0.0)
    pm2 = mapping.PixelMap((0, 0), PITCH, 2, 1, np.array([[0.0, 2.0]]),
                           "custom", "s")
    s2 = mapping.stats(pm2)
    assert (s2.mean, s2.std, s2.min, s2.max) == (1.0, 1.0, 0.0, 2.0)


def test_stats_excludes_missing_and_counts():
    values = np.array([[1.0, np.nan], [3.0, np.nan]])
    pm = mapping.PixelMap((0, 0), PITCH, 2, 2, values, "custom", "s")
    s = mapping.stats(pm)
    assert s.mean == 2.0
    assert s.n_valid == 2
    assert s.n_missing == 2
    empty = mapping.PixelMap((0, 0), PITCH, 1, 1,
                             np.array([[np.nan]]), "custom", "s")
    with pytest.raises(ValueError, match="valid"):
        mapping.stats(empty)


def test_stats_scaling():
    rng = np.random.default_rng(0)
    values = rng.uniform(1, 2, (4, 5))
    pm = mapping.PixelMap((0, 0), PITCH, 5, 4, values, "custom", "s")
    pm_scaled = mapping.PixelMap((0, 0), PITCH, 5, 4, 3.0 * values,
                                 "custom", "s")
    a, b = mapping.stats(pm), mapping.stats(pm_scaled)
    assert b.mean == pytest.approx(3 * a.mean, rel=1e-15)
    assert b.std == pytest.approx(3 * a.std, rel=1e-12)
    assert (b.min, b.max) == (3 * a.min, 3 * a.max)


def test_stats_match_truth_field_at_zero_noise():
    params = t2_truth_field(6, 4)
    records = mapping.synth_map(params, "t2", t2_tau(), 0.0, 0)
    pixel_map = mapping.assemble(records, "t2")
    s = mapping.stats(pixel_map)
    truth = params[:, :, 1]
    assert s.mean == pytest.approx(np.mean(truth), rel=1e-6)
    assert s.std == pytest.approx(np.std(truth), rel=1e-4)


def test_pi_time_correction_contract():
    """Echo analysis that consumes the per-pixel pi time beats one that
    assumes a single global pi time.

    Generator: an echo with a correctly calibrated pi pulse decays as a
    pure stretched exponential. A mis-set pi pulse (wrong duration for
    that pixel) leaves a fraction eps = sin^2(pi/2 * (applied/needed - 1))
    of the coherence unrefocused, which decays with the much faster
    free-induction time and distorts the curve shape. Per-pixel pi times
    keep eps = 0 everywhere.
    """
    rng = np.random.default_rng(3)
    ny, nx = 3, 3
    pi_times = 100e-9 * rng.uniform(0.7, 1.3, (ny, nx))
    global_pi = 100e-9
    t2, power, t2_star = 21.5e-6, 1.5, 1.5e-6
    tau = np.linspace(0, 80e-6, 121)[1:]

    def echo_signal(needed_pi, applied_pi):
        eps = np.sin(np.pi / 2 * (applied_pi / needed_pi - 1)) ** 2
        refocused = np.exp(-(tau / t2) ** power)
        unrefocused = np.exp(-tau / t2_star)
        return (1 - eps) * refocused + eps * unrefocused

    rms_per_pixel, rms_global = [], []
    for iy in range(ny):
        for ix in range(nx):
            needed = pi_times[iy, ix]
            noise = rng.normal(0, 1e-3, tau.shape)
            exact = echo_signal(needed, needed) + noise
            wrong = echo_signal(needed, global_pi) + noise
            rms_per_pixel.append(
                pulse_fit.fit("t2", TimeSeries(tau, exact)).residual_rms)
            rms_global.append(
                pulse_fit.fit("t2", TimeSeries(tau, wrong)).residual_rms)
    assert np.mean(rms_global) > 2 * np.mean(rms_per_pixel)


def test_map_csv_format(tmp_path):
    values = np.array([[1.5, np.nan]])
    pm = mapping.PixelMap((0, 0), PITCH, 2, 1, values, "t2", "s")
    path = tmp_path / "map.csv"
    mapping.write_map_csv(pm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_um,y_um,value,units"
    assert lines[1].split(",") == ["0.0", "0.0", "1.5", "s"]
    assert lines[2].split(",") == ["50.0", "0.0", "", "s"]
