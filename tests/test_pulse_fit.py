import numpy as np
import pytest

from lrcfm import pulse_fit as pf
from lrcfm.pulse_fit import TimeSeries, UnidentifiableDataError
from lrcfm.traces import Traces, write_traces


def wrap_phase(phi):
    return -((-phi + np.pi) % (2 * np.pi) - np.pi)


def make_data(model, truth, noise=0.0, seed=0, n=None):
    """tau grid sized so decay and oscillation are both well sampled."""
    if model == "rabi":
        span = 3 * truth[1]
        n = n or max(400, int(np.ceil(10 * truth[2] * span)))
        tau = np.linspace(0, span, n)
    elif model == "t1":
        tau = np.linspace(0, 4 * truth[1], n or 120)
    else:
        tau = np.linspace(0, 4 * truth[1], (n or 120) + 1)[1:]
    y = pf.model_eval(model, tau, truth)
    if noise > 0:
        y = y + np.random.default_rng(seed).normal(0, noise, tau.shape)
    return TimeSeries(tau, y)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0, 2.0]), np.zeros(3),
                   sigma=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        TimeSeries(np.array([-1e-9, 0.0, 1.0]), np.zeros(3))
    assert len(TimeSeries(np.array([-0.0, 1.0]), np.zeros(2))) == 2


def test_exact_model_fixed_point():
    truth = np.array([1.0, 20e-6, 5e6, 0.3, 0.5])
    data = make_data("rabi", truth)
    result = pf.fit("rabi", data, init=truth)
    assert result.converged
    np.testing.assert_allclose(result.params, truth, rtol=1e-9)
    assert result.residual_rms <= 1e-10 * np.sqrt(np.mean(data.signal ** 2))


@pytest.mark.parametrize("model,truth", [
    ("rabi", np.array([1.0, 20e-6, 1e6, 0.3, 0.5])),
    ("t1", np.array([1.0, 11e-3, 0.2])),
    ("t2", np.array([1.0, 21.5e-6, 1.5])),
])
def test_init_uses_only_nonlinear_entries(model, truth):
    data = make_data(model, truth, noise=0.01, seed=2)
    linear = [0, 3, 4] if model == "rabi" else [0, 2] if model == "t1" else [0]
    other = truth.copy()
    other[linear] = [-5.0, 2.0, 7.0][:len(linear)]
    a, b = pf.fit(model, data, init=truth), pf.fit(model, data, init=other)
    assert a.converged
    assert np.array_equal(a.params, b.params)
    assert a.iterations == b.iterations
    bad = truth.copy()
    bad[1] = -bad[1]
    with pytest.raises(ValueError, match="a2 of .* must be positive"):
        pf.fit(model, data, init=bad)


def test_constant_signal_unidentifiable():
    tau = np.linspace(0, 1e-3, 50)
    with pytest.raises(UnidentifiableDataError):
        pf.fit("rabi", TimeSeries(tau, np.full(50, 2.0)))


def test_too_few_points():
    with pytest.raises(ValueError, match="points"):
        pf.fit("rabi", TimeSeries(np.linspace(0, 1, 4), np.arange(4.0)))


@pytest.mark.parametrize("model,truth", [
    ("t1", np.array([1.0, 11e-3, 0.2])),
    ("t2", np.array([1.0, 21.5e-6, 1.5])),
])
def test_noisy_recovery_decay_models(model, truth):
    # 1% noise on unit amplitude, 100 seeds: a2 within 2% on >= 95
    ok = 0
    for seed in range(100):
        data = make_data(model, truth, noise=0.01, seed=seed)
        result = pf.fit(model, data)
        if result.converged and abs(result.params[1] / truth[1] - 1) < 0.02:
            if model != "t2" or abs(result.params[2] / truth[2] - 1) < 0.05:
                ok += 1
    assert ok >= 95


def test_noisy_recovery_rabi():
    truth = np.array([1.0, 10e-6, 1e6, 0.3, 0.5])
    ok = 0
    for seed in range(100):
        data = make_data("rabi", truth, noise=0.01, seed=seed)
        result = pf.fit("rabi", data)
        if (result.converged
                and abs(result.params[1] / truth[1] - 1) < 0.02
                and abs(result.params[2] / truth[2] - 1) < 0.02):
            ok += 1
    assert ok >= 95


def test_auto_init_then_fit_recovers_noiseless():
    rng = np.random.default_rng(7)
    for model in ("rabi", "t1", "t2"):
        for _ in range(50):
            if model == "rabi":
                truth = np.array([rng.uniform(0.5, 2),
                                  rng.uniform(5e-6, 30e-6),
                                  rng.uniform(0.5e6, 3e6),
                                  wrap_phase(rng.uniform(-3, 3)),
                                  rng.uniform(-1, 1)])
            elif model == "t1":
                truth = np.array([rng.uniform(0.5, 2),
                                  rng.uniform(5e-3, 20e-3),
                                  rng.uniform(-0.5, 0.5)])
            else:
                truth = np.array([rng.uniform(0.5, 2),
                                  rng.uniform(10e-6, 40e-6),
                                  rng.uniform(0.8, 2.2)])
            data = make_data(model, truth)
            result = pf.fit(model, data)
            assert result.converged
            np.testing.assert_allclose(result.params, truth, rtol=1e-6)


def test_auto_init_frequency_within_bin():
    tau = np.linspace(0, 50e-6, 256)
    freq = 211e3
    data = TimeSeries(tau, np.cos(2 * np.pi * freq * tau))
    init = pf.auto_init("rabi", data)
    bin_width = 1.0 / (tau[-1] - tau[0])
    assert abs(init[2] - freq) <= bin_width


def test_auto_init_decay_positive():
    tau = np.linspace(0, 1e-3, 40)
    data = TimeSeries(tau, np.exp(-tau / 2e-4))
    for model in ("t1", "t2"):
        init = pf.auto_init(model, data)
        assert init[1] > 0


def test_auto_init_few_points_warns():
    tau = np.linspace(0, 1e-6, 6)
    data = TimeSeries(tau, np.cos(2 * np.pi * 2e6 * tau))
    with pytest.warns(UserWarning, match="spectral"):
        init = pf.auto_init("rabi", data)
    assert init[2] > 0


@pytest.mark.parametrize("model", ["rabi", "t1", "t2"])
def test_jacobian_matches_finite_differences(model):
    rng = np.random.default_rng(42)
    arity = pf.MODEL_ARITY[model]
    for _ in range(20):
        if model == "rabi":
            a = np.array([rng.uniform(0.5, 2), rng.uniform(5e-6, 30e-6),
                          rng.uniform(0.5e6, 3e6), rng.uniform(-3, 3),
                          rng.uniform(-1, 1)])
            tau = np.linspace(1e-8, 50e-6, 60)
        elif model == "t1":
            a = np.array([rng.uniform(0.5, 2), rng.uniform(5e-3, 20e-3),
                          rng.uniform(-0.5, 0.5)])
            tau = np.linspace(1e-6, 50e-3, 60)
        else:
            a = np.array([rng.uniform(0.5, 2), rng.uniform(10e-6, 40e-6),
                          rng.uniform(0.8, 2.2)])
            tau = np.linspace(1e-7, 80e-6, 60)
        analytic = pf.model_jacobian(model, tau, a)
        fd = np.empty_like(analytic)
        for j in range(arity):
            h = 1e-6 * max(abs(a[j]), 1e-12)
            up, down = a.copy(), a.copy()
            up[j] += h
            down[j] -= h
            fd[:, j] = (pf.model_eval(model, tau, up)
                        - pf.model_eval(model, tau, down)) / (2 * h)
        col_err = (np.linalg.norm(analytic - fd, axis=0)
                   / np.linalg.norm(analytic, axis=0))
        assert np.max(col_err) <= 1e-5


def test_signal_scaling_invariance():
    truth = np.array([1.2, 12e-6, 1.1e6, 0.4, 0.3])
    base = make_data("rabi", truth, noise=0.01, seed=3)
    data = TimeSeries(base.tau, base.signal, sigma=np.full(len(base), 0.01))
    c = 7.5
    scaled = TimeSeries(data.tau, c * data.signal, sigma=c * data.sigma)
    r1 = pf.fit("rabi", data, step_tol=1e-12)
    r2 = pf.fit("rabi", scaled, step_tol=1e-12)
    np.testing.assert_allclose(r2.params[[0, 4]], c * r1.params[[0, 4]],
                               rtol=1e-9)
    np.testing.assert_allclose(r2.params[[1, 2, 3]], r1.params[[1, 2, 3]],
                               rtol=1e-9)


def test_time_scaling_invariance():
    truth = np.array([1.0, 15e-3, 0.1])
    data = make_data("t1", truth, noise=0.01, seed=4)
    c = 1e3
    scaled = TimeSeries(c * data.tau, data.signal)
    r1 = pf.fit("t1", data)
    r2 = pf.fit("t1", scaled)
    assert r2.params[1] == pytest.approx(c * r1.params[1], rel=1e-9)
    np.testing.assert_allclose(r2.params[[0, 2]], r1.params[[0, 2]],
                               rtol=1e-9)


def test_fit_deterministic():
    truth = np.array([1.0, 21.5e-6, 1.5])
    data = make_data("t2", truth, noise=0.01, seed=5)
    r1 = pf.fit("t2", data)
    r2 = pf.fit("t2", data)
    assert np.array_equal(r1.params, r2.params)
    assert r1.iterations == r2.iterations


def test_covariance_symmetric_psd():
    truth = np.array([1.0, 11e-3, 0.2])
    data = make_data("t1", truth, noise=0.01, seed=6)
    result = pf.fit("t1", data)
    cov = result.covariance
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) >= -1e-18)


def test_weighted_fit_uses_sigma():
    truth = np.array([1.0, 11e-3, 0.2])
    data = make_data("t1", truth, noise=0.01, seed=8)
    weighted = TimeSeries(data.tau, data.signal,
                          sigma=np.full(len(data), 0.01))
    result = pf.fit("t1", weighted)
    assert result.converged
    assert result.params[1] == pytest.approx(truth[1], rel=0.05)


def test_pi_time():
    truth = np.array([1.0, 20e-6, 5e6, 0.0, 0.5])
    data = make_data("rabi", truth)
    result = pf.fit("rabi", data, init=truth)
    assert pf.pi_time(result) == pytest.approx(100e-9, rel=1e-9)


def test_pi_time_inverse_frequency():
    from dataclasses import replace
    truth = np.array([1.0, 20e-6, 1.0, 0.0, 0.5])
    result = pf.FitResult("rabi", truth, np.eye(5), 0.0, True, 1)
    assert pf.pi_time(result) == 0.5
    doubled = replace(result, params=truth * np.array([1, 1, 2, 1, 1]))
    assert pf.pi_time(doubled) == 0.25


def test_pi_time_requires_convergence():
    result = pf.FitResult("rabi", np.array([1, 1, 1, 0, 0.5]), np.eye(5),
                          0.0, False, 200)
    with pytest.raises(ValueError, match="converged"):
        pf.pi_time(result)


def test_csv_round_trip(tmp_path):
    truth = np.array([1.0, 11e-3, 0.2])
    data = make_data("t1", truth, noise=0.01, seed=9)
    path = tmp_path / "trace.csv"
    data.to_csv(path)
    back = TimeSeries.from_csv(path)
    assert np.array_equal(back.tau, data.tau)
    assert np.array_equal(back.signal, data.signal)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,counts\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        TimeSeries.from_csv(path)


def former_to_csv_text(data):
    """The former writer: one repr(float(v)) per value."""
    cols = [data.tau, data.signal]
    header = "tau_s,signal"
    if data.sigma is not None:
        cols.append(data.sigma)
        header += ",sigma"
    lines = [header]
    for row in zip(*cols):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def test_to_csv_matches_former_writer(tmp_path):
    rng = np.random.default_rng(31)
    edge = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                     0.1, 1 / 3, 1e16, 2.0 ** 53 + 2, 1.7976931348623157e308])
    traces = [TimeSeries(np.sort(rng.uniform(0, 1e-3, 50)),
                         rng.normal(size=50)),
              TimeSeries(np.arange(edge.size, dtype=float), edge,
                         np.abs(edge) + 5e-324),
              TimeSeries(np.unique(np.exp(rng.normal(0, 30, 40))),
                         np.exp(rng.normal(0, 200, 40)) * rng.choice(
                             [-1.0, 1.0], 40),
                         np.exp(rng.normal(0, 30, 40)))]
    for k, data in enumerate(traces):
        path = tmp_path / f"trace{k}.csv"
        data.to_csv(path)
        assert path.read_text() == former_to_csv_text(data)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["trace0.csv", "trace1.csv", "trace2.csv"]  # no temporary file
    # a whole field through the stacked writer, which formats the shared
    # tau column once, with and without errors and with the edge values
    tau = np.concatenate([[0.0, 5e-324, 1e-300], np.cumsum(
        np.exp(rng.normal(-10, 3, 27)))])
    signal = rng.normal(size=(21, 30)) * np.exp(rng.uniform(-300, 300,
                                                            (21, 30)))
    signal[0, :edge.size] = edge
    signal[1, :edge.size] = -edge
    for sigma in (None, np.exp(rng.uniform(-700, 700, (21, 30)))):
        field = tmp_path / ("plain" if sigma is None else "weighted")
        field.mkdir()
        paths = [field / f"pixel_{i:03d}.csv" for i in range(21)]
        write_traces(paths, Traces(tau, signal, sigma))
        for i, path in enumerate(paths):
            data = TimeSeries(tau, signal[i],
                              None if sigma is None else sigma[i])
            assert path.read_text() == former_to_csv_text(data)
        assert sorted(p.name for p in field.iterdir()) == \
            [p.name for p in paths]  # no temporary file
    with pytest.raises(ValueError, match="paths"):
        write_traces(paths[:3], Traces(tau, signal, sigma))
