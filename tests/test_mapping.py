import json

import numpy as np
import pytest

from lrcfm import mapping, pulse_fit
from lrcfm.pulse_fit import TimeSeries
from lrcfm.traces import Traces

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


def edited(data, x=None, y=None, signal=None):
    """The one-stack Dataset data with its coordinates or readings
    replaced."""
    (stack,) = data.traces
    if signal is None:
        signal = stack.signal
    return mapping.Dataset(data.x if x is None else x,
                           data.y if y is None else y,
                           [Traces(stack.tau, signal)])


def test_synth_map_deterministic():
    params = t2_truth_field(3, 2)
    a = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=42)
    b = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=42)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.traces[0].signal, b.traces[0].signal)
    c = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=43)
    assert not np.array_equal(a.traces[0].signal[0], c.traces[0].signal[0])
    # row iy * nx + ix is pixel (ix, iy), its noise drawn from its own
    # stream, keyed by (seed, iy, ix)
    clean = pulse_fit.model_eval("t2", t2_tau(), params[2, 1])
    noise = np.random.default_rng([42, 2, 1]).normal(0.0, 0.01, clean.shape)
    assert np.array_equal(a.traces[0].signal[5], clean + noise)
    assert (a.x[5], a.y[5]) == (1 * PITCH, 2 * PITCH)


def test_synth_map_noiseless_on_curve():
    params = t2_truth_field(2, 2)
    data = mapping.synth_map(params, "t2", t2_tau(), 0.0, 1)
    (stack,) = data.traces
    assert len(data.x) == len(data.y) == len(stack) == 4
    for k, (x, y) in enumerate(zip(data.x, data.y)):
        iy = int(round(y / PITCH))
        ix = int(round(x / PITCH))
        assert k == iy * 2 + ix
        clean = pulse_fit.model_eval("t2", stack.tau, params[iy, ix])
        assert np.array_equal(stack.signal[k], clean)


def test_single_pixel_rabi_map():
    truth = np.array([1.0, 20e-6, 5e6, 0.0, 0.5])
    tau = np.linspace(0, 60e-6, 3200)
    data = mapping.synth_map(truth[None, None, :], "rabi", tau, 0.0, 0)
    pixel_map = mapping.assemble(data, "rabi", pitch=PITCH)
    assert (pixel_map.nx, pixel_map.ny) == (1, 1)
    assert pixel_map.quantity == "pi_time"
    assert pixel_map.values[0, 0] == pytest.approx(1 / (2 * 5e6), rel=1e-6)


def test_map_round_trip_t2():
    params = t2_truth_field()
    data = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=1)
    pixel_map = mapping.assemble(data, "t2")
    assert (pixel_map.nx, pixel_map.ny) == (7, 21)
    assert pixel_map.pitch == pytest.approx(PITCH)
    truth = params[:, :, 1]
    valid = np.isfinite(pixel_map.values)
    rel_err = np.abs(pixel_map.values[valid] / truth[valid] - 1)
    assert np.mean(rel_err < 0.02) >= 0.95


def test_assemble_order_independent():
    params = t2_truth_field(4, 3)
    data = mapping.synth_map(params, "t2", t2_tau(), 0.01, seed=2)
    forward = mapping.assemble(data, "t2")
    backward = mapping.assemble(edited(data, data.x[::-1], data.y[::-1],
                                       data.traces[0].signal[::-1]), "t2")
    assert np.array_equal(forward.values, backward.values,
                          equal_nan=True)


def test_assemble_rejects_duplicates_and_offgrid():
    params = t2_truth_field(2, 2)
    data = mapping.synth_map(params, "t2", t2_tau(), 0.0, 0)
    signal = data.traces[0].signal
    twice = edited(data, np.append(data.x, data.x[0]),
                   np.append(data.y, data.y[0]),
                   np.vstack([signal, signal[0]]))
    with pytest.raises(ValueError, match="duplicate"):
        mapping.assemble(twice, "t2", pitch=PITCH)
    shifted = edited(data, data.x + np.array([0.3 * PITCH, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="off the pixel grid"):
        mapping.assemble(shifted, "t2", pitch=PITCH)


def test_constant_pixel_marked_missing():
    params = t2_truth_field(2, 2)
    data = mapping.synth_map(params, "t2", t2_tau(), 0.0, 0)
    signal = data.traces[0].signal.copy()
    signal[1] = 3.0
    pixel_map = mapping.assemble(edited(data, signal=signal), "t2",
                                 pitch=PITCH)
    assert np.isnan(pixel_map.values[0, 1])
    assert np.sum(np.isfinite(pixel_map.values)) == 3


def test_missing_pixels_counted_by_reason(tmp_path, monkeypatch):
    params = t2_truth_field(2, 3)
    params[1, 2, 1] = 60e-6  # the pixel whose derived value fails
    data = mapping.synth_map(params, "t2", t2_tau(), 0.001, 0)
    signal = data.traces[0].signal.copy()
    signal[0] = 3.0
    signal[1] = np.linspace(0.0, 1.0, len(t2_tau()))
    rising = TimeSeries(t2_tau(), signal[1])
    assert not pulse_fit.fit("t2", rising).converged

    def derive(result):
        if result.params[1] > 50e-6:
            raise ValueError("out of range")
        return float(result.params[1])

    monkeypatch.setitem(mapping._DERIVE, "t2", ("t2", "s", derive))
    pixel_map = mapping.assemble(edited(data, signal=signal), "t2",
                                 pitch=PITCH)
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
    pm = mapping.PixelMap((0, 0), PITCH, 2, 2, values, "t2", "s")
    s = mapping.stats(pm)
    assert (s.mean, s.std) == (1.0, 0.0)
    pm2 = mapping.PixelMap((0, 0), PITCH, 2, 1, np.array([[0.0, 2.0]]),
                           "t2", "s")
    s2 = mapping.stats(pm2)
    assert (s2.mean, s2.std, s2.min, s2.max) == (1.0, 1.0, 0.0, 2.0)


def test_stats_excludes_missing_and_counts():
    values = np.array([[1.0, np.nan], [3.0, np.nan]])
    pm = mapping.PixelMap((0, 0), PITCH, 2, 2, values, "t2", "s")
    s = mapping.stats(pm)
    assert s.mean == 2.0
    assert s.n_valid == 2
    assert s.n_missing == 2
    empty = mapping.PixelMap((0, 0), PITCH, 1, 1,
                             np.array([[np.nan]]), "t2", "s")
    with pytest.raises(ValueError, match="valid"):
        mapping.stats(empty)


def test_stats_scaling():
    rng = np.random.default_rng(0)
    values = rng.uniform(1, 2, (4, 5))
    pm = mapping.PixelMap((0, 0), PITCH, 5, 4, values, "t2", "s")
    pm_scaled = mapping.PixelMap((0, 0), PITCH, 5, 4, 3.0 * values,
                                 "t2", "s")
    a, b = mapping.stats(pm), mapping.stats(pm_scaled)
    assert b.mean == pytest.approx(3 * a.mean, rel=1e-15)
    assert b.std == pytest.approx(3 * a.std, rel=1e-12)
    assert (b.min, b.max) == (3 * a.min, 3 * a.max)


def test_stats_match_truth_field_at_zero_noise():
    params = t2_truth_field(6, 4)
    data = mapping.synth_map(params, "t2", t2_tau(), 0.0, 0)
    pixel_map = mapping.assemble(data, "t2")
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
