"""The batched Gauss-Newton engine against the scalar engine it replaced.

The oracle below is the former scalar implementation, kept verbatim: one
damped Gauss-Newton loop per trace (`_fit_from`) and the rabi phase
restart loop (`scalar_fit`). It shares only the model, its Jacobian and
the automatic start with the package.
"""

import math

import numpy as np
import pytest

from lrcfm import mapping, pulse_fit
from lrcfm.pulse_fit import (MODEL_ARITY, STEP_TOLERANCE, MAX_ITERATIONS,
                             _LOG_PARAMS, FitResult, TimeSeries,
                             UnidentifiableDataError, _spectral_phase,
                             auto_init, model_eval, model_jacobian)

# ---------------------------------------------------------------------------
# scalar oracle (verbatim)
# ---------------------------------------------------------------------------


def _to_internal(model: str, a: np.ndarray) -> np.ndarray:
    b = np.array(a, dtype=float)
    for i in _LOG_PARAMS[model]:
        if b[i] <= 0:
            raise ValueError(f"parameter a{i + 1} of {model} must be positive")
        b[i] = np.log(b[i])
    return b


def _from_internal(model: str, b: np.ndarray) -> np.ndarray:
    a = np.array(b, dtype=float)
    for i in _LOG_PARAMS[model]:
        a[i] = np.exp(min(a[i], 700.0))  # keep trial steps finite
    return a


def scalar_fit(model: str, data: TimeSeries, init=None,
        step_tol: float = STEP_TOLERANCE) -> FitResult:
    """Least-squares fit of `model` to `data`.

    Minimizes sum(((f(tau; a) - y) / sigma)^2) with adaptive Marquardt
    damping. Convergence: relative parameter step < step_tol (default
    1e-8) within 200 iterations; a non-converged fit is returned with
    converged=False rather than raised.
    """
    arity = MODEL_ARITY.get(model)
    if arity is None:
        raise ValueError(f"unknown model {model!r}")
    if len(data) < arity + 1:
        raise ValueError(f"{model} fit needs at least {arity + 1} points, "
                         f"got {len(data)}")
    if np.ptp(data.signal) == 0.0:
        raise UnidentifiableDataError(
            f"constant signal cannot constrain a {model} model")
    if init is None:
        start = auto_init(model, data)
        if model == "rabi":
            # the a4 = 0 starting phase captures only part of the phase
            # circle; start from the spectral phase estimate and three
            # offsets of it and keep the lowest-cost minimizer
            phase0 = _spectral_phase(data.tau, data.signal, start[2])
            best = None
            for offset in (0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi):
                candidate = start.copy()
                candidate[3] = phase0 + offset
                result, cost = _fit_from(model, data, candidate, step_tol)
                if best is None or cost < best[1]:
                    best = (result, cost)
            return best[0]
        return _fit_from(model, data, start, step_tol)[0]
    init = np.asarray(init, dtype=float)
    if init.shape != (arity,):
        raise ValueError(f"init must have {arity} parameters")
    return _fit_from(model, data, init, step_tol)[0]


def _fit_from(model: str, data: TimeSeries, init: np.ndarray,
              step_tol: float = STEP_TOLERANCE):
    """One damped Gauss-Newton run; returns (FitResult, weighted cost)."""
    arity = MODEL_ARITY[model]
    sigma = data.sigma if data.sigma is not None else np.ones(len(data))

    def residuals(a):
        # extreme trial iterates can overflow/underflow; such steps are
        # simply rejected by the non-finite cost check below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return (model_eval(model, data.tau, a) - data.signal) / sigma

    b = _to_internal(model, init)
    a = _from_internal(model, b)
    r = residuals(a)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    jtj = None
    for iterations in range(1, MAX_ITERATIONS + 1):
        a = _from_internal(model, b)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ja = model_jacobian(model, data.tau, a) / sigma[:, None]
            scale = np.ones(arity)
            for i in _LOG_PARAMS[model]:
                scale[i] = a[i]  # chain rule d a / d log(a)
            jb = ja * scale
            jtj = jb.T @ jb
            g = jb.T @ r
        step = None
        for _ in range(50):  # grow damping until a step is accepted
            with np.errstate(over="ignore"):
                damped = jtj + lam * np.diag(
                    np.clip(np.diag(jtj), 1e-300, None))
            try:
                step = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = b + step
            with np.errstate(over="ignore", invalid="ignore"):
                r_trial = residuals(_from_internal(model, trial))
                cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                b, r, cost = trial, r_trial, cost_trial
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        else:
            break  # damping exhausted; report best iterate
        if np.max(np.abs(step) / (1.0 + np.abs(b))) < step_tol:
            converged = True
            break

    a = _from_internal(model, b)
    raw = model_eval(model, data.tau, a) - data.signal
    residual_rms = float(np.sqrt(np.mean(raw ** 2)))
    cov = _covariance(model, a, jtj, cost, len(data), arity)
    if model == "rabi":
        a, cov = _canonicalize_rabi(a, cov)
    result = FitResult(model=model, params=a, covariance=cov,
                       residual_rms=residual_rms, converged=converged,
                       iterations=iterations)
    return result, cost


def _canonicalize_rabi(a, cov):
    """Resolve the (a1, a4) ~ (-a1, a4 + pi) gauge: amplitude >= 0, phase
    wrapped to (-pi, pi]."""
    a = a.copy()
    if a[0] < 0:
        a[0] = -a[0]
        a[3] += np.pi
        flip = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
        cov = flip @ cov @ flip
    a[3] = -((-a[3] + np.pi) % (2 * np.pi) - np.pi)  # wrap to (-pi, pi]
    return a, cov


def _covariance(model, a, jtj, cost, n, p):
    dof = max(n - p, 1)
    s2 = cost / dof
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            cov_b = s2 * np.linalg.inv(jtj)
        except np.linalg.LinAlgError:
            cov_b = s2 * np.linalg.pinv(jtj)
        scale = np.ones(p)
        for i in _LOG_PARAMS[model]:
            scale[i] = a[i]
        cov = cov_b * np.outer(scale, scale)  # d a / d log(a) chain rule
        return 0.5 * (cov + cov.T)



# ---------------------------------------------------------------------------
# fields shaped like the benchmark's: 7 x 21 pixels, 120 tau points
# ---------------------------------------------------------------------------

NY, NX, N_TAU = 21, 7, 120


def _log_uniform(rng, lo, hi, shape):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), shape))


def field(model, seed):
    """(series per pixel, true params per pixel) of a seeded noisy field."""
    rng = np.random.default_rng([seed, 17])
    shape = (NY, NX)
    if model == "rabi":
        params = np.stack([np.ones(shape), _log_uniform(rng, 1.5e-6, 5e-6, shape),
                           _log_uniform(rng, 1e6, 3e6, shape),
                           rng.uniform(-math.pi, math.pi, shape),
                           np.full(shape, 0.5)], axis=-1)
        tau, noise = np.linspace(0.0, 4e-6, N_TAU), 0.02
    elif model == "t1":
        params = np.stack([rng.uniform(0.8, 1.2, shape),
                           _log_uniform(rng, 0.5e-3, 1.5e-3, shape),
                           rng.uniform(0.2, 0.4, shape)], axis=-1)
        tau, noise = np.linspace(0.0, 5e-3, N_TAU), 0.01
    else:
        params = np.stack([rng.uniform(0.5, 1.0, shape),
                           _log_uniform(rng, 10e-6, 40e-6, shape),
                           rng.uniform(1.0, 2.5, shape)], axis=-1)
        tau, noise = np.linspace(0.0, 160e-6, N_TAU + 1)[1:], 0.01
    records = mapping.synth_map(params, model, tau, noise, seed)
    return [series for _, _, series in records], params.reshape(-1, params.shape[-1])


def same_result(a, b):
    return (a.model == b.model and np.array_equal(a.params, b.params)
            and np.array_equal(a.covariance, b.covariance, equal_nan=True)
            and a.residual_rms == b.residual_rms
            and a.converged == b.converged and a.iterations == b.iterations)


def wrap(phi):
    return -((-phi + np.pi) % (2 * np.pi) - np.pi)


# ---------------------------------------------------------------------------
# batched engine vs scalar oracle
# ---------------------------------------------------------------------------


# the oracle's covariance flip warns on infinite entries
ORACLE_WARNING = "ignore:invalid value encountered in matmul:RuntimeWarning"


@pytest.mark.filterwarnings(ORACLE_WARNING)
@pytest.mark.parametrize("model", ["t1", "t2", "rabi"])
def test_batched_matches_scalar_oracle(model):
    series, truth = field(model, seed=1)
    batched = pulse_fit.fit_many(model, series)
    compared = same_iterations = 0
    for data, true, new in zip(series, truth, batched):
        old = scalar_fit(model, data)
        if model == "rabi":
            # only fits the oracle left in band and on the true frequency
            nyquist = 0.5 / (data.tau[1] - data.tau[0])
            if old.params[2] > nyquist or abs(old.params[2] / true[2] - 1) > 0.02:
                continue
        compared += 1
        same_iterations += new.iterations == old.iterations
        assert new.converged == old.converged
        if model == "rabi":
            assert abs(wrap(new.params[3] - old.params[3])) <= 1e-6
            keep = [0, 1, 2, 4]
        else:
            keep = list(range(MODEL_ARITY[model]))
        np.testing.assert_allclose(new.params[keep], old.params[keep],
                                   rtol=1e-6, atol=0)
    assert compared >= 0.95 * len(series)
    # the same per-row algorithm takes the same path; reordered sums may
    # move a rare accept or stop decision by one iteration
    assert same_iterations >= 0.95 * compared


@pytest.mark.filterwarnings(ORACLE_WARNING)
def test_fold_recovers_at_least_the_oracle_pi_times():
    hits_old = hits_new = 0
    for seed in (1, 2):
        series, truth = field("rabi", seed)
        for data, true, new in zip(series, truth,
                                   pulse_fit.fit_many("rabi", series)):
            old = scalar_fit("rabi", data)
            target = 1 / (2 * true[2])
            hits_old += abs(pulse_fit.pi_time(old) / target - 1) < 0.02
            hits_new += abs(pulse_fit.pi_time(new) / target - 1) < 0.02
    assert hits_new >= hits_old
    assert hits_new == 2 * NX * NY


@pytest.mark.parametrize("model", ["t1", "t2", "rabi"])
def test_fit_equals_its_row_of_a_batch(model):
    series, _ = field(model, seed=3)
    series = series[:24]
    forward = pulse_fit.fit_many(model, series)
    backward = pulse_fit.fit_many(model, series[::-1])[::-1]
    for data, a, b in zip(series, forward, backward):
        alone = pulse_fit.fit(model, data)
        assert same_result(alone, a)
        assert same_result(alone, b)


def test_assemble_pixels_equal_lone_fits():
    series, _ = field("rabi", seed=4)
    records = [(ix * 50e-6, iy * 50e-6, series[iy * NX + ix])
               for iy in range(4) for ix in range(NX)]
    values = mapping.assemble(records, "rabi").values
    for x, y, data in records:
        lone = pulse_fit.pi_time(pulse_fit.fit("rabi", data))
        assert values[round(y / 50e-6), round(x / 50e-6)] == lone


def test_fit_many_groups_grids_sigma_and_constant_traces():
    series, _ = field("t1", seed=5)
    coarse = TimeSeries(series[0].tau[::2], series[0].signal[::2])
    weighted = TimeSeries(series[1].tau, series[1].signal,
                          sigma=np.linspace(0.01, 0.03, len(series[1])))
    flat = TimeSeries(series[2].tau, np.full(len(series[2]), 0.3))
    batch = [series[3], coarse, weighted, flat, series[4]]
    results = pulse_fit.fit_many("t1", batch)
    assert results[3] is None
    with pytest.raises(UnidentifiableDataError):
        pulse_fit.fit("t1", flat)
    for data, result in zip(batch, results):
        if result is not None:
            assert same_result(pulse_fit.fit("t1", data), result)
    with pytest.raises(ValueError, match="points"):
        pulse_fit.fit_many("t1", [series[0], TimeSeries(np.arange(3.0),
                                                        np.arange(3.0))])


def test_singular_rows_get_no_step():
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    matrices = np.stack([good, np.zeros((2, 2)), 2 * good])
    rhs = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, -1.0]])
    steps = pulse_fit._solve_rows(matrices, rhs)
    assert np.all(np.isnan(steps[1]))
    assert np.array_equal(steps[0], np.linalg.solve(good, rhs[0][:, None])[:, 0])
    assert np.array_equal(steps[2],
                          np.linalg.solve(2 * good, rhs[2][:, None])[:, 0])


# ---------------------------------------------------------------------------
# rabi gauge: Nyquist fold and covariance signs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alias", ["shifted", "mirrored"])
def test_alias_start_folds_back_in_band(alias):
    truth = np.array([1.0, 3e-6, 2.2e6, 0.7, 0.5])
    tau = np.linspace(0.3e-6, 4.3e-6, N_TAU)  # tau0 != 0 moves the phase
    dtau = tau[1] - tau[0]
    noise = np.random.default_rng(11).normal(0, 0.02, N_TAU)
    data = TimeSeries(tau, model_eval("rabi", tau, truth) + noise)
    start = truth.copy()
    if alias == "shifted":
        start[2] += 1 / dtau
        start[3] -= 2 * np.pi * tau[0] / dtau
    else:
        start[2] = 1 / dtau - truth[2]
        start[3] = -(truth[3] + 2 * np.pi * tau[0] / dtau)
    # the alias start reproduces the true samples
    np.testing.assert_allclose(model_eval("rabi", tau, start),
                               model_eval("rabi", tau, truth), atol=1e-9)
    in_band = pulse_fit.fit("rabi", data, init=truth)
    folded = pulse_fit.fit("rabi", data, init=start)
    assert folded.converged and in_band.converged
    assert folded.params[2] == pytest.approx(in_band.params[2], rel=1e-6)
    assert abs(wrap(folded.params[3] - in_band.params[3])) < 1e-5
    assert folded.residual_rms == pytest.approx(in_band.residual_rms,
                                                rel=1e-6)
    # the fold changes no sample of the model
    np.testing.assert_allclose(model_eval("rabi", tau, folded.params),
                               model_eval("rabi", tau, in_band.params),
                               atol=1e-6)


def test_fold_only_on_uniform_grids():
    a = np.array([1.0, 3e-6, 40e6, 0.2, 0.5])
    cov = np.eye(5)
    uniform = np.linspace(0.0, 4e-6, N_TAU)
    folded, _ = pulse_fit._canonicalize_rabi(a, cov, uniform)
    assert folded[2] < 0.5 / (uniform[1] - uniform[0])
    jittered = uniform.copy()
    jittered[5] += 1e-3 * (uniform[1] - uniform[0])
    kept, _ = pulse_fit._canonicalize_rabi(a, cov, jittered)
    assert kept[2] == a[2]


def test_covariance_sign_flip_keeps_inf():
    a = np.array([-1.0, 3e-6, 1e6, 0.2, 0.5])
    cov = np.eye(5)
    cov[1, 1] = np.inf
    tau = np.linspace(0.0, 4e-6, N_TAU)
    flipped, out = pulse_fit._canonicalize_rabi(a, cov, tau)
    assert flipped[0] == 1.0
    assert out[1, 1] == np.inf
    assert not np.any(np.isnan(out))
    assert out[0, 0] == 1.0


def test_covariance_follows_the_fold():
    tau = np.linspace(0.0, 4e-6, N_TAU)
    rate = 1 / (tau[1] - tau[0])
    a = np.array([1.0, 3e-6, rate - 1e6, 0.2, 0.5])
    cov = np.arange(25.0).reshape(5, 5)
    cov = cov + cov.T
    folded, out = pulse_fit._canonicalize_rabi(a, cov, tau)
    assert folded[2] == pytest.approx(1e6)
    sign = np.array([1, 1, -1, -1, 1])
    assert np.array_equal(out, cov * np.outer(sign, sign))


# ---------------------------------------------------------------------------
# CSV reader against the former per-value parser
# ---------------------------------------------------------------------------


def scalar_read(path):
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    return np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])


@pytest.mark.parametrize("with_sigma", [False, True])
def test_csv_reader_matches_per_value_parse(tmp_path, with_sigma):
    rng = np.random.default_rng(12)
    edge = [5e-324, -0.0, 0.0, 1.7976931348623157e308, -1.7976931348623157e308,
            2.2250738585072014e-308, 1e-310, 0.1, 1 / 3, 1e16, 123456789.0]
    n = 400
    tau = np.cumsum(rng.exponential(1e-7, n))
    signal = np.concatenate([edge, rng.normal(size=n - len(edge))
                             * np.exp(rng.uniform(-300, 300, n - len(edge)))])
    sigma = np.exp(rng.uniform(-700, 700, n)) if with_sigma else None
    path = tmp_path / "trace.csv"
    TimeSeries(tau, signal, sigma).to_csv(path)
    back = TimeSeries.from_csv(path)
    data = scalar_read(path)
    assert back.tau.tobytes() == data[:, 0].tobytes()
    assert back.signal.tobytes() == data[:, 1].tobytes()
    assert back.signal.tobytes() == signal.tobytes()
    if with_sigma:
        assert back.sigma.tobytes() == data[:, 2].tobytes()
    else:
        assert back.sigma is None


@pytest.mark.parametrize("text,message", [
    ("", "empty file"),
    ("\n \n", "empty file"),
    ("tau_s,signal\n", "ragged rows"),
    ("tau_s,signal\n0,1\n1,2,3\n", "ragged rows"),
    ("tau_s,signal,sigma\n0,1\n1,2\n", "ragged rows"),
    ("tau_s,signal\n0,1\n1,x\n", "could not convert"),
])
def test_csv_reader_errors(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        TimeSeries.from_csv(path)
