"""The batched variable-projection engine against the full-parameter
Gauss-Newton engine it replaced.

The oracle below is the former scalar implementation, kept verbatim: one
damped Gauss-Newton loop over all parameters per trace (`_fit_from`) and
the rabi phase restart loop (`scalar_fit`), with its spectral phase
estimate. The batched full-parameter engine that came after it matched
it bitwise. The oracle shares only the model, its Jacobian and the
automatic start with the package.
"""

import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from lrcfm import mapping, pulse_fit
from lrcfm.pulse_fit import (MODEL_ARITY, STEP_TOLERANCE, MAX_ITERATIONS,
                             FitResult, TimeSeries, UnidentifiableDataError,
                             auto_init, model_eval, model_jacobian)
from lrcfm.traces import Traces, read_traces, write_traces

from conftest import fit_rows

# ---------------------------------------------------------------------------
# scalar oracle (verbatim)
# ---------------------------------------------------------------------------

# indices of parameters constrained positive via log transform
_LOG_PARAMS = {"rabi": (1, 2), "t1": (1,), "t2": (1, 2)}


def _spectral_phase(tau, y, freq):
    """Phase of the oscillation at `freq`, from the matched DFT coefficient
    of the uniformly resampled signal."""
    n = len(tau)
    grid = np.linspace(tau[0], tau[-1], n)
    resampled = np.interp(grid, tau, y) - np.mean(y)
    z = np.sum(resampled * np.exp(-2j * np.pi * freq * grid))
    if z == 0:
        return 0.0
    return float(np.angle(z))


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
    # the final iterate can be as extreme as a trial step (a rabi restart
    # can end at a2 ~ 1e-318 s), and whether -tau / a2 then sets numpy's
    # overflow flag depends on the SIMD kernel dispatched at run time
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    (stack,) = mapping.synth_map(params, model, tau, noise, seed).traces
    return ([stack.series(i) for i in range(len(stack))],
            params.reshape(-1, params.shape[-1]))


def as_stacks(series):
    """TimeSeries as the Traces stacks fit_many takes: one per tau grid and
    presence of errors, in order of first appearance; `rows` index
    `series`."""
    groups = {}
    for row, data in enumerate(series):
        key = (data.tau.tobytes(), data.sigma is None)
        groups.setdefault(key, []).append((row, data))
    out = []
    for members in groups.values():
        rows, group = zip(*members)
        sigma = None if group[0].sigma is None else \
            np.stack([data.sigma for data in group])
        out.append(Traces(group[0].tau,
                          np.stack([data.signal for data in group]), sigma,
                          rows))
    return out


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
    for seed in (1, 2):
        series, truth = field(model, seed)
        batched = fit_rows(pulse_fit.fit_many(model, as_stacks(series)))
        compared = 0
        for data, true, new in zip(series, truth, batched):
            old = scalar_fit(model, data)
            if model == "rabi":
                # only fits the oracle left in band and on the true frequency
                nyquist = 0.5 / (data.tau[1] - data.tau[0])
                if (old.params[2] > nyquist
                        or abs(old.params[2] / true[2] - 1) > 0.02):
                    continue
            compared += 1
            assert new.converged == old.converged
            if model == "rabi":
                assert abs(wrap(new.params[3] - old.params[3])) <= 1e-6
                keep = [0, 1, 2, 4]
            else:
                keep = list(range(MODEL_ARITY[model]))
            np.testing.assert_allclose(new.params[keep], old.params[keep],
                                       rtol=1e-6, atol=0)
            # the covariance of all parameters, in units of the
            # oracle's standard errors
            std = np.sqrt(np.diag(old.covariance))
            assert np.all(np.abs(new.covariance - old.covariance)
                          <= 1e-5 * np.outer(std, std))
            # iterating on the nonlinear parameters alone, with the linear
            # ones solved exactly, takes no more steps than iterating on all
            assert new.iterations <= old.iterations + 1
        assert compared >= 0.95 * len(series)


@pytest.mark.filterwarnings(ORACLE_WARNING)
def test_fold_recovers_at_least_the_oracle_pi_times():
    hits_old = hits_new = 0
    for seed in (1, 2):
        series, truth = field("rabi", seed)
        fits = fit_rows(pulse_fit.fit_many("rabi", as_stacks(series)))
        for data, true, new in zip(series, truth, fits):
            old = scalar_fit("rabi", data)
            target = 1 / (2 * true[2])
            hits_old += abs(pulse_fit.pi_time(old) / target - 1) < 0.02
            hits_new += abs(pulse_fit.pi_time(new) / target - 1) < 0.02
    assert hits_new >= hits_old
    assert hits_new == 2 * NX * NY


@pytest.mark.parametrize("model", ["t1", "t2", "rabi"])
def test_fit_equals_its_row_of_a_batch(model, monkeypatch):
    series, _ = field(model, seed=3)
    series = series[:24]
    forward = pulse_fit.fit_many(model, as_stacks(series))
    backward = pulse_fit.fit_many(model, as_stacks(series[::-1]))
    with monkeypatch.context() as patch:  # blocks of 5, 5, 5, 5 and 4 rows
        patch.setattr(pulse_fit, "_BLOCK", 5)
        blocks = pulse_fit.fit_many(model, as_stacks(series))
    for i, data in enumerate(series):
        alone = pulse_fit.fit(model, data)
        for batch, row in ((forward, i), (backward, len(series) - 1 - i),
                           (blocks, i)):
            # every field of the row, bitwise, and of the Python types of
            # a lone fit once taken out of the arrays
            assert batch.model == alone.model
            assert np.array_equal(batch.params[row], alone.params)
            assert np.array_equal(batch.covariance[row], alone.covariance,
                                  equal_nan=True)
            assert batch.residual_rms[row].tobytes() == \
                np.float64(alone.residual_rms).tobytes()
            assert batch.converged[row] == alone.converged
            assert batch.iterations[row] == alone.iterations
            assert same_result(alone, fit_rows(batch)[row])
    assert type(alone.residual_rms) is float
    assert type(alone.converged) is bool and type(alone.iterations) is int


@pytest.mark.parametrize("model", ["t1", "t2", "rabi"])
def test_fit_many_starts_every_row_from_init(model):
    """`init` gives every row of a batch one start, as it gives the lone
    fit of each trace; a bad init is refused for the whole batch."""
    series, truth = field(model, seed=3)
    series, init = series[:12], truth[0]
    batch = pulse_fit.fit_many(model, as_stacks(series), init)
    for i, data in enumerate(series):
        assert same_result(pulse_fit.fit(model, data, init),
                           fit_rows(batch)[i])
    auto = pulse_fit.fit_many(model, as_stacks(series))
    assert not np.array_equal(batch.iterations, auto.iterations)
    bad = init.copy()
    bad[1] = -bad[1]
    with pytest.raises(ValueError, match="a2 of .* must be positive"):
        pulse_fit.fit_many(model, as_stacks(series), bad)


def test_assemble_pixels_equal_lone_fits():
    series, _ = field("rabi", seed=4)
    series = series[:4 * NX]
    iy, ix = np.divmod(np.arange(len(series)), NX)
    data = mapping.Dataset(ix * 50e-6, iy * 50e-6, as_stacks(series))
    values = mapping.assemble(data, "rabi").values
    for k, trace in enumerate(series):
        lone = pulse_fit.pi_time(pulse_fit.fit("rabi", trace))
        assert values[iy[k], ix[k]] == lone


def test_fit_many_groups_grids_sigma_and_constant_traces():
    series, _ = field("t1", seed=5)
    coarse = TimeSeries(series[0].tau[::2], series[0].signal[::2])
    weighted = TimeSeries(series[1].tau, series[1].signal,
                          sigma=np.linspace(0.01, 0.03, len(series[1])))
    flat = TimeSeries(series[2].tau, np.full(len(series[2]), 0.3))
    batch = [series[3], coarse, weighted, flat, series[4]]
    fitted = pulse_fit.fit_many("t1", as_stacks(batch))
    assert fitted.iterations[3] == 0 and not fitted.converged[3]
    assert np.isnan(fitted.params[3]).all()
    assert np.isnan(fitted.covariance[3]).all()
    assert np.isnan(fitted.residual_rms[3])
    assert (fitted.iterations[[0, 1, 2, 4]] > 0).all()
    results = fit_rows(fitted)
    assert results[3] is None
    with pytest.raises(UnidentifiableDataError):
        pulse_fit.fit("t1", flat)
    for data, result in zip(batch, results):
        if result is not None:
            assert same_result(pulse_fit.fit("t1", data), result)
    with pytest.raises(ValueError, match="points"):
        pulse_fit.fit_many("t1", as_stacks([series[0],
                                            TimeSeries(np.arange(3.0),
                                                       np.arange(3.0))]))


def test_rabi_field_needs_few_rounds(monkeypatch):
    """One row per pixel and no phase restarts: a 147-px rabi field takes
    a few dozen rounds, where fitting four restarts per pixel took ~480.
    Each round solves one damped 2 x 2 system, the step in (log a2,
    log a3), for the rows in flight; the linear solves are 3 x 3."""
    series, _ = field("rabi", seed=6)
    solve = pulse_fit._solve_rows
    rounds = []

    def counting(matrices, rhs):
        if matrices.shape[-1] == 2:
            rounds.append(len(matrices))
        return solve(matrices, rhs)

    monkeypatch.setattr(pulse_fit, "_solve_rows", counting)
    results = fit_rows(pulse_fit.fit_many("rabi", as_stacks(series)))
    assert len(series) == 147 and all(r.converged for r in results)
    assert sum(rounds) >= len(series)  # every row took a step
    assert len(rounds) <= 40


def test_rabi_field_jacobian_only_for_covariance(monkeypatch):
    """The iterations build Kaufman's Jacobian from the basis in hand; the
    full-model Jacobian is evaluated once per block of at most _BLOCK
    rows, for the covariance at the solution, from the one basis that also
    gives the residual RMS: the fit calls neither model_eval nor
    model_jacobian, which would each build the basis again."""
    series, _ = field("rabi", seed=6)
    jacobian = pulse_fit._jacobian
    rows = []

    def counting(model, tau, a, phi, c):
        rows.append(len(a))
        return jacobian(model, tau, a, phi, c)

    def refused(model, tau, a):
        raise AssertionError("the fit built the basis at the solution again")

    monkeypatch.setattr(pulse_fit, "_jacobian", counting)
    monkeypatch.setattr(pulse_fit, "model_jacobian", refused)
    monkeypatch.setattr(pulse_fit, "model_eval", refused)
    results = fit_rows(pulse_fit.fit_many("rabi", as_stacks(series)))
    assert len(series) == 147 and all(r.converged for r in results)
    assert len(rows) == math.ceil(147 / pulse_fit._BLOCK)
    assert sum(rows) == 147


# ---------------------------------------------------------------------------
# closed-form models (verbatim): the package's former model_eval and
# model_jacobian, one closed-form expression per model and derivative.
# The package now derives both from the fitter's basis; these keep an
# independent derivation to test it against.
# ---------------------------------------------------------------------------


def _closed_form_columns(a):
    """Parameter columns a_1..a_p of a (p,) vector or an (N, p) stack,
    shaped to broadcast against tau: (1,) or (N, 1) each."""
    return np.asarray(a, dtype=float).T[..., None]


def _closed_form_stretched_power(tau, a2, a3):
    with np.errstate(divide="ignore"):
        return np.where(tau > 0, (tau / a2) ** a3, 0.0)


def _closed_form_stretched_log(tau, a2, u):
    """u * log(tau/a2) for u = _stretched_power(tau, a2, a3): d u / d a3,
    taken as its limit 0 at tau = 0 (for a3 > 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tau > 0, u * np.log(np.where(tau > 0, tau, 1.0) / a2),
                        0.0)


def closed_form_model_eval(model, tau, a):
    """Model values at tau: shape (len(tau),) for parameters a of shape
    (p,), or (N, len(tau)) for a stack of N parameter rows."""
    tau = np.asarray(tau, dtype=float)
    if model == "rabi":
        a1, a2, a3, a4, a5 = _closed_form_columns(a)
        return a1 * np.exp(-tau / a2) * np.cos(2 * np.pi * a3 * tau + a4) + a5
    if model == "t1":
        a1, a2, a3 = _closed_form_columns(a)
        return a1 * np.exp(-tau / a2) + a3
    if model == "t2":
        a1, a2, a3 = _closed_form_columns(a)
        return a1 * np.exp(-_closed_form_stretched_power(tau, a2, a3))
    raise ValueError(f"unknown model {model!r}")


def closed_form_model_jacobian(model, tau, a):
    """d f / d a_j in the original parameters: shape (len(tau), arity), or
    (N, len(tau), arity) for a stack of N parameter rows."""
    tau = np.asarray(tau, dtype=float)
    if model == "rabi":
        a1, a2, a3, a4, a5 = _closed_form_columns(a)
        env = np.exp(-tau / a2)
        phase = 2 * np.pi * a3 * tau + a4
        c, s = np.cos(phase), np.sin(phase)
        jac = np.empty(env.shape + (5,))
        jac[..., 0] = env * c
        jac[..., 1] = a1 * env * c * tau / a2 ** 2
        jac[..., 2] = -a1 * env * s * 2 * np.pi * tau
        jac[..., 3] = -a1 * env * s
        jac[..., 4] = 1.0
        return jac
    if model == "t1":
        a1, a2, a3 = _closed_form_columns(a)
        env = np.exp(-tau / a2)
        jac = np.empty(env.shape + (3,))
        jac[..., 0] = env
        jac[..., 1] = a1 * env * tau / a2 ** 2
        jac[..., 2] = 1.0
        return jac
    if model == "t2":
        a1, a2, a3 = _closed_form_columns(a)
        u = _closed_form_stretched_power(tau, a2, a3)
        env = np.exp(-u)
        jac = np.empty(env.shape + (3,))
        jac[..., 0] = env
        jac[..., 1] = a1 * env * u * a3 / a2
        jac[..., 2] = -a1 * env * _closed_form_stretched_log(tau, a2, u)
        return jac
    raise ValueError(f"unknown model {model!r}")


# the basis form of a model may differ from the closed form by this much
# of the largest magnitude in its row (per Jacobian column): near a zero
# of the rabi cosine, a1 cos(2 pi a3 tau + a4) and c0 cos + c1 sin round
# differently (measured: at most 1.3e-14 of the row scale)
BASIS_RTOL = 1e-12
SPAN = {"rabi": 4e-6, "t1": 5e-3, "t2": 160e-6}


def parameter_rows(model, rng, n):
    """n seeded parameter rows around the field ranges above, the rabi
    phase spread over (-pi, pi], then the special rows: a3 = 0 (rabi and
    t2), and each parameter but the rabi phase at +-1e-300 and +-1e300 in
    turn (the nonlinear ones only positive)."""
    if model == "rabi":
        rows = np.column_stack([rng.normal(0.0, 1.0, n),
                                _log_uniform(rng, 0.3e-6, 30e-6, n),
                                _log_uniform(rng, 0.1e6, 20e6, n),
                                np.linspace(-np.pi, np.pi, n + 1)[1:],
                                rng.normal(0.0, 1.0, n)])
    elif model == "t1":
        rows = np.column_stack([rng.normal(0.0, 1.0, n),
                                _log_uniform(rng, 0.1e-3, 10e-3, n),
                                rng.normal(0.0, 1.0, n)])
    else:
        rows = np.column_stack([rng.normal(0.0, 1.0, n),
                                _log_uniform(rng, 3e-6, 200e-6, n),
                                rng.uniform(0.3, 4.0, n)])
    special = []
    if model != "t1":
        special.append(rows[0].copy())
        special[-1][2] = 0.0
    for i in range(rows.shape[1]):
        if model == "rabi" and i == 3:
            continue
        for value in (1e-300, 1e300, -1e-300, -1e300):
            if value > 0 or i not in pulse_fit._NONLINEAR[model]:
                special.append(rows[1].copy())
                special[-1][i] = value
    return np.vstack([rows, special])


def assert_within_row_scale(got, want):
    """got equals want to BASIS_RTOL of the largest finite magnitude of
    want along tau (axis 1), where both are finite; and both are finite at
    the same entries."""
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    scale = np.max(np.abs(np.where(finite, want, 0.0)), axis=1,
                   keepdims=True)
    assert np.all(np.abs(np.where(finite, got - want, 0.0))
                  <= BASIS_RTOL * scale)


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("model", ["rabi", "t1", "t2"])
def test_model_functions_equal_closed_form(model, stacked):
    """model_eval and model_jacobian, from the basis, equal the closed
    forms to BASIS_RTOL of each row's scale, with the same non-finite
    entries, called on a stack of rows or row by row (which give equal
    bits). tau = 0 is on the grid. A rabi row with a3 = 1e300 is compared
    only for finiteness: its phase (~1e295 rad) is resolved by neither
    form."""
    rng = np.random.default_rng([37, len(model)])
    tau = np.linspace(0.0, SPAN[model], N_TAU)
    rows = parameter_rows(model, rng, 48)
    compared = ~((model == "rabi") & (rows[:, 2] > 1e10))
    for package, closed_form in [
            (model_eval, closed_form_model_eval),
            (model_jacobian, closed_form_model_jacobian)]:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = closed_form(model, tau, rows)
            got = package(model, tau, rows)
            lone = np.stack([package(model, tau, row) for row in rows])
        assert np.array_equal(got, lone, equal_nan=True)
        if not stacked:
            got = lone
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert_within_row_scale(got[compared], want[compared])
    with pytest.raises(ValueError, match="unknown model"):
        model_eval("t3", tau, rows[0])
    with pytest.raises(ValueError, match="unknown model"):
        model_jacobian("t3", tau, rows)


def nonlinear_rows(model, rng, n):
    """n log nonlinear parameter rows around the field ranges above."""
    if model == "rabi":
        return np.log(np.column_stack([_log_uniform(rng, 0.3e-6, 30e-6, n),
                                       _log_uniform(rng, 0.1e6, 20e6, n)]))
    if model == "t1":
        return np.log(_log_uniform(rng, 0.1e-3, 10e-3, (n, 1)))
    return np.log(np.column_stack([_log_uniform(rng, 3e-6, 200e-6, n),
                                   rng.uniform(0.3, 4.0, n)]))


@pytest.mark.parametrize("with_sigma", [False, True])
@pytest.mark.parametrize("model", ["rabi", "t1", "t2"])
def test_basis_derivatives_equal_log_jacobian(model, with_sigma):
    """(d phi / d a) c from the weighted basis, times a (the diag(a) the
    fitter applies to its normal matrix), equals the nonlinear columns of
    the closed-form Jacobian in theta = log(a) (to BASIS_RTOL of the largest entry of the row). With
    parameters on and above the cap of `_positive` it is non-finite
    exactly where that is; the finite values there are not compared,
    since neither form resolves a rabi phase of ~1e299 rad or keeps
    tau / a2**2 from underflowing."""
    rng = np.random.default_rng([31, N_TAU, with_sigma, len(model)])
    n = 64
    tau = np.linspace(0.0, SPAN[model], N_TAU)  # tau = 0 included
    nonlinear = list(pulse_fit._NONLINEAR[model])
    q = len(nonlinear)
    k = MODEL_ARITY[model] - q
    theta = nonlinear_rows(model, rng, n)
    capped = theta[:3 * q].copy()  # each parameter on the cap, then all
    for j in range(q):
        capped[j, j] = 700.0
        capped[q + j, j] = 750.0
    capped[2 * q:] = 700.0
    theta = np.vstack([theta, capped])
    coef = rng.normal(0.0, 1.0, (len(theta), k))
    sigma = (np.exp(rng.normal(-4.0, 0.5, (len(theta), N_TAU)))
             if with_sigma else np.ones((len(theta), N_TAU)))
    nl = pulse_fit._positive(theta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi = pulse_fit._basis(model, tau, nl) / sigma[:, :, None]
        got = pulse_fit._basis_derivatives(model, tau, nl, phi, coef) \
            * nl[:, None, :]
        want = closed_form_model_jacobian(
            model, tau, pulse_fit._full_params(model, nl, coef)
        )[..., nonlinear] / sigma[:, :, None] * nl[:, None, :]
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    if model == "t2":  # u = inf where tau > a2 at a3 on the cap
        assert not finite[n:].all()
    assert finite[:n].all()
    assert_within_row_scale(got[:n], want[:n])


def former_solve_rows(matrices, rhs):
    """The former fallback of `_solve_rows`: each system solved alone,
    NaN where that solve finds it singular."""
    vector = rhs.ndim == 2
    if vector:
        rhs = rhs[:, :, None]
    out = np.full_like(rhs, np.nan)
    for i, (matrix, b) in enumerate(zip(matrices, rhs)):
        try:
            out[i] = np.linalg.solve(matrix, b)
        except np.linalg.LinAlgError:
            pass
    return out[:, :, 0] if vector else out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_rows_equals_former_per_row_loop(p):
    """The masked batched retry gives the former per-row loop's rows, bit
    for bit (NaN as NaN), on a stack with singular, NaN, infinite and
    extremely scaled members, for vector and matrix right-hand sides."""
    rng = np.random.default_rng(25)
    good = rng.normal(size=(14, p, p))
    matrices = good.copy()
    matrices[1] = 0.0
    matrices[2, 0, -1] = np.nan
    matrices[3, -1, 0] = np.inf
    matrices[4, 0, 0] = -np.inf
    matrices[5] = good[5] * 1e-300
    matrices[6] = good[6] * 1e300
    matrices[7] = np.outer(np.arange(1.0, p + 1), np.arange(p, 0.0, -1))
    matrices[8, -1] = 0.0
    matrices[9] = good[9] * 1e-320  # subnormal entries
    matrices[10, :, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):  # the fallback is taken
        np.linalg.solve(matrices, np.ones((14, p, 1)))
    for rhs in (rng.normal(size=(14, p)), rng.normal(size=(14, p, 2)),
                np.broadcast_to(np.eye(p), matrices.shape),
                rng.normal(size=(14, p)) * 1e300):
        got = pulse_fit._solve_rows(matrices, rhs)
        want = former_solve_rows(matrices, rhs)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        assert nan[[1, 7, 8, 10]].all()
        assert not nan[[0, 11, 12, 13]].any()


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
    a = np.array([[1.0, 3e-6, 40e6, 0.2, 0.5]])
    cov = np.eye(5)[None]
    uniform = np.linspace(0.0, 4e-6, N_TAU)
    folded, _ = pulse_fit._canonicalize_rabi(a, cov, uniform)
    assert folded[0, 2] < 0.5 / (uniform[1] - uniform[0])
    jittered = uniform.copy()
    jittered[5] += 1e-3 * (uniform[1] - uniform[0])
    kept, _ = pulse_fit._canonicalize_rabi(a, cov, jittered)
    assert kept[0, 2] == a[0, 2]


def test_covariance_sign_flip_keeps_inf():
    """The fold's sign flip of (a3, a4) keeps infinite covariance entries
    infinite, in the flipped cross terms too, and makes no NaN."""
    tau = np.linspace(0.0, 4e-6, N_TAU)
    rate = 1 / (tau[1] - tau[0])
    a = np.array([[1.0, 3e-6, rate - 1e6, 0.2, 0.5]])
    cov = np.eye(5)[None]
    cov[0, 2, 2] = cov[0, 1, 1] = np.inf
    cov[0, 2, 3] = cov[0, 3, 2] = np.inf
    cov[0, 1, 2] = cov[0, 2, 1] = -np.inf
    folded, out = pulse_fit._canonicalize_rabi(a, cov, tau)
    assert folded[0, 2] == pytest.approx(1e6)
    assert out[0, 2, 2] == out[0, 1, 1] == np.inf
    assert out[0, 2, 3] == out[0, 3, 2] == np.inf  # two flipped signs
    assert out[0, 1, 2] == out[0, 2, 1] == np.inf  # one flipped sign
    assert not np.any(np.isnan(out))
    assert out[0, 3, 3] == 1.0


def test_covariance_follows_the_fold():
    tau = np.linspace(0.0, 4e-6, N_TAU)
    rate = 1 / (tau[1] - tau[0])
    a = np.array([[1.0, 3e-6, rate - 1e6, 0.2, 0.5],
                  [1.0, 3e-6, 1e6, 0.2, 0.5]])
    cov = np.arange(25.0).reshape(5, 5)
    cov = np.stack([cov + cov.T] * 2)
    folded, out = pulse_fit._canonicalize_rabi(a, cov, tau)
    assert folded[:, 2] == pytest.approx([1e6, 1e6])
    sign = np.array([1, 1, -1, -1, 1])
    assert np.array_equal(out[0], cov[0] * np.outer(sign, sign))
    assert np.array_equal(out[1], cov[1])  # in band: not flipped


# ---------------------------------------------------------------------------
# the former per-trace starts, covariance and fold (verbatim), and the
# fit_many they made with the same engine: the stacked path must equal it
# bitwise
# ---------------------------------------------------------------------------


def former_auto_init(model, data):
    tau, y = data.tau, data.signal
    span = float(tau[-1] - tau[0]) or float(tau[-1]) or 1.0
    if model == "rabi":
        mean = float(np.mean(y))
        amp = 2.0 * float(np.sqrt(np.mean((y - mean) ** 2)))
        freq = _former_dominant_frequency(tau, y)
        if freq is None:
            freq = 1.0 / span
        return np.array([amp if amp > 0 else 1.0, span / 2.0, freq, 0.0, mean])
    if model == "t1":
        n_tail = max(3, len(data) // 5)
        tail = float(np.mean(y[-n_tail:]))
        a1 = float(y[0]) - tail
        a2 = _former_one_over_e_time(tau, y, baseline=tail, amplitude=a1,
                                     fallback=span / 3.0)
        return np.array([a1 if a1 != 0 else 1.0, a2, tail])
    a1 = float(y[0]) if y[0] != 0 else float(np.max(np.abs(y))) or 1.0
    a2 = _former_one_over_e_time(tau, y, baseline=0.0, amplitude=a1,
                                 fallback=span / 3.0)
    return np.array([a1, a2, 1.0])


def _former_dominant_frequency(tau, y):
    n = len(tau)
    if n < 8:
        return None
    grid = np.linspace(tau[0], tau[-1], n)
    resampled = np.interp(grid, tau, y)
    spectrum = np.abs(np.fft.rfft(resampled - np.mean(resampled)))
    if spectrum.size < 2:
        return None
    k = 1 + int(np.argmax(spectrum[1:]))
    return k / (grid[-1] - grid[0])


def _former_one_over_e_time(tau, y, baseline, amplitude, fallback):
    if amplitude == 0:
        return fallback
    norm = (y - baseline) / amplitude
    below = np.nonzero(norm < np.exp(-1.0))[0]
    first = below[0] if below.size else None
    if first is None or first == 0 or tau[first] <= 0:
        return fallback
    return float(tau[first])


def former_covariance(model, a, jtj, cost, n):
    p = MODEL_ARITY[model]
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
        cov = cov_b * np.outer(scale, scale)
        return 0.5 * (cov + cov.T)


def former_fold(a, cov, tau):
    a = a.copy()
    sign = np.ones(5)
    dtau = (tau[-1] - tau[0]) / (len(tau) - 1)
    if np.all(np.abs(np.diff(tau) - dtau) <= 1e-9 * dtau):
        rate = 1.0 / dtau
        k = np.floor(a[2] / rate)
        if k:
            a[2] -= k * rate
            a[3] += 2 * np.pi * k * tau[0] / dtau
        if a[2] > 0.5 * rate:
            a[2] = rate - a[2]
            a[3] = -(a[3] + 2 * np.pi * tau[0] / dtau)
            sign[[2, 3]] = -1.0
    if a[0] < 0:
        a[0] = -a[0]
        a[3] += np.pi
        sign[0] = -1.0
    a[3] = -((-a[3] + np.pi) % (2 * np.pi) - np.pi)
    if np.any(sign < 0):
        cov = cov * np.outer(sign, sign)
    return a, cov


def former_fit_many(model, series):
    """One start per trace, traces grouped by tau grid (ones for missing
    errors), the shared engine, then covariance and fold per trace."""
    results = [None] * len(series)
    groups = {}
    for index, data in enumerate(series):
        if np.ptp(data.signal) == 0.0:
            continue
        a = former_auto_init(model, data)
        start = np.log(a[list(_LOG_PARAMS[model])])
        groups.setdefault(data.tau.tobytes(), []).append((index, data, start))
    for members in groups.values():
        indices, group, starts = zip(*members)
        tau = group[0].tau
        signal = np.stack([data.signal for data in group])
        sigma = None
        if any(data.sigma is not None for data in group):
            sigma = np.stack([data.sigma if data.sigma is not None
                              else np.ones(len(data)) for data in group])
        theta, coef, cost, converged, iterations = \
            pulse_fit._variable_projection(model, tau, signal, sigma,
                                           np.stack(starts))
        a = pulse_fit._full_params(model, pulse_fit._positive(theta), coef)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jb = model_jacobian(model, tau, a)
            if sigma is not None:
                jb /= sigma[:, :, None]
            for i in _LOG_PARAMS[model]:
                jb[:, :, i] *= a[:, i, None]  # chain rule d a / d log(a)
            jtj = jb.transpose(0, 2, 1) @ jb
            raw = model_eval(model, tau, a) - signal
        rms = np.sqrt(np.mean(raw ** 2, axis=1))
        for i, index in enumerate(indices):
            cov = former_covariance(model, a[i], jtj[i], cost[i], len(tau))
            params = a[i]
            if model == "rabi":
                params, cov = former_fold(params, cov, tau)
            results[index] = FitResult(model, params, cov, float(rms[i]),
                                       bool(converged[i]), int(iterations[i]))
    return results


def mixed_field(model, seed):
    """A field with errors on some traces, a second tau grid on others and
    one constant trace."""
    series, _ = field(model, seed)
    rng = np.random.default_rng(seed)
    for i in range(0, len(series), 5):
        s = series[i]
        series[i] = TimeSeries(s.tau, s.signal,
                               np.exp(rng.normal(-4, 0.5, len(s.tau))))
    for i in range(2, len(series), 7):
        s = series[i]
        series[i] = TimeSeries(s.tau[::2], s.signal[::2],
                               None if s.sigma is None else s.sigma[::2])
    series[3] = TimeSeries(series[3].tau, np.full(len(series[3].tau), 0.25))
    return series


@pytest.mark.parametrize("model", ["t1", "t2", "rabi"])
def test_stacked_path_equals_former_per_trace_path(model):
    for series in (field(model, 7)[0], mixed_field(model, 8)):
        want = former_fit_many(model, series)
        got = fit_rows(pulse_fit.fit_many(model, as_stacks(series)))
        assert [r is None for r in got] == [r is None for r in want]
        for new, old in zip(got, want):
            assert new is None or same_result(new, old)


def test_fit_many_takes_read_stacks(tmp_path):
    series = mixed_field("t2", 9)
    paths = [tmp_path / f"p{i}.csv" for i in range(len(series))]
    for path, data in zip(paths, series):
        data.to_csv(path)
    stacks = read_traces(paths)
    assert len(stacks) == 4  # two grids, with and without errors
    got = fit_rows(pulse_fit.fit_many("t2", stacks))
    for new, old in zip(got, former_fit_many("t2", series)):
        assert (new is None and old is None) or same_result(new, old)


@pytest.mark.filterwarnings("ignore:too few points")
def test_starts_equal_former_per_trace_starts():
    rng = np.random.default_rng(21)
    uniform = np.linspace(0.0, 4e-6, 40)
    grids = [uniform, np.sort(rng.uniform(0, 1e-3, 40)),  # interpolated
             uniform[:7], np.linspace(1e-6, 5e-6, 9)]
    for tau in grids:
        y = rng.normal(size=(12, len(tau))) * np.exp(rng.uniform(-5, 5, (12, 1)))
        y[1] = np.linspace(1.0, 0.0, len(tau))  # decays through 1/e
        y[2, 0] = 0.0                           # t2 falls back to max |y|
        y[3] = y[3, -1]                          # t1 amplitude 0
        y[3, 0] += 1e-3                          # but not constant
        y[4, :] = 0.0
        y[4, 3] = -2.0
        for model in ("rabi", "t1", "t2"):
            got = auto_init(model, Traces(tau, y))
            for row, data in zip(got, y):
                want = former_auto_init(model, TimeSeries(tau, data))
                assert row.tobytes() == want.tobytes(), (model, len(tau))
                assert auto_init(model, TimeSeries(tau, data)).tobytes() == \
                    want.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value")
def test_covariance_and_fold_equal_former_per_row():
    rng = np.random.default_rng(22)
    n = 50
    tau = np.linspace(0.3e-6, 4.3e-6, n)
    rate = 1 / (tau[1] - tau[0])
    # amplitudes as the fitter gives them, np.hypot of the linear terms
    a = np.column_stack([np.abs(rng.normal(size=9)),
                         np.exp(rng.normal(-12, 1, 9)),
                         rng.uniform(-2, 3, 9) * rate, rng.uniform(-9, 9, 9),
                         rng.normal(size=9)])
    a[4, 2] = np.nan
    m = rng.normal(size=(9, 5, 5))
    jtj = m @ m.transpose(0, 2, 1)
    jtj[2, 4] = jtj[2, :, 4] = 0.0  # singular: a NaN covariance
    jtj[5, 1] = jtj[5, :, 1] = np.inf
    cost = rng.uniform(0.1, 2, 9)
    cov = pulse_fit._covariance("rabi", a, jtj, cost, n)
    folded, folded_cov = pulse_fit._canonicalize_rabi(a, cov, tau)
    for i in range(9):
        want = former_covariance("rabi", a[i], jtj[i], cost[i], n)
        if i == 2:  # the former path took a pseudo-inverse here
            assert np.isnan(cov[i]).all()
            want = cov[i]
        assert cov[i].tobytes() == want.tobytes()
        fa, fc = former_fold(a[i], want, tau)
        assert folded[i].tobytes() == fa.tobytes()
        assert folded_cov[i].tobytes() == fc.tobytes()


# ---------------------------------------------------------------------------
# pixel-file reader against the former per-file, per-value parser
# ---------------------------------------------------------------------------


def scalar_read(path):
    """The former reader: every non-blank line after the header, split on
    commas, each value through float()."""
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


def _integer_spelling(draw, value):
    """Text that float() reads as the integer `value`."""
    digits = str(abs(value))
    form = draw(st.sampled_from(["plain", "underscore", "fullwidth",
                                 "exponent", "point"]))
    if form == "underscore" and len(digits) > 1:
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    elif form == "fullwidth":
        digits = "".join(chr(0xFF10 + int(d)) for d in digits)
    elif form == "exponent":
        digits = f"{digits}0E-1"
    elif form == "point":
        digits = f"{digits}." if value else ".0"
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    return sign + digits


@st.composite
def pixel_files(draw):
    """(file texts, float columns per file) for a manifest that mixes two
    tau grids, files with and without a sigma column, float() spellings,
    CRLF and CR line ends, and blank lines between rows."""
    grids = [sorted(draw(st.sets(st.integers(0, 10**6), min_size=1,
                                 max_size=9))) for _ in range(2)]
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**7, 10**7).map(str),
        st.sampled_from(["+.5", "-.5", "1E5", "1e-5", "1_000", "-0", "0.0"]))
    texts = []
    for _ in range(draw(st.integers(1, 5))):
        tau = draw(st.sampled_from(grids))
        width = draw(st.sampled_from([2, 3]))
        pad = st.sampled_from(["", " ", "  ", "\t"])
        header = ",".join(draw(pad) + name + draw(pad) for name in
                          ("tau_s", "signal", "sigma")[:width])
        rows = []
        for t in tau:
            fields = [_integer_spelling(draw, t), draw(values)]
            if width == 3:
                fields.append(str(draw(st.integers(1, 10**6))))
            rows.append(",".join(draw(pad) + f + draw(pad) for f in fields))
        lines = [header]
        for row in rows:
            lines += draw(st.lists(st.sampled_from(["", " ", "\t "]),
                                   max_size=2))
            lines.append(row)
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        texts.append(end.join(lines) + draw(st.sampled_from(["", end])))
    return texts


@settings(max_examples=60, deadline=None)
@given(texts=pixel_files())
def test_stacked_reader_equals_per_file_parse(tmp_path_factory, texts):
    tmp = tmp_path_factory.mktemp("pixels")
    paths = [tmp / f"p{i}.csv" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text, newline="")
    found = {}
    for stack in read_traces(paths):
        assert len(stack.tau) == stack.signal.shape[1]
        for j, row in enumerate(stack.rows):
            found[int(row)] = (stack.tau, stack.signal[j],
                               None if stack.sigma is None else stack.sigma[j])
    assert sorted(found) == list(range(len(paths)))
    for i, path in enumerate(paths):
        want = scalar_read(path)
        tau, signal, sigma = found[i]
        assert tau.tobytes() == want[:, 0].tobytes()
        assert signal.tobytes() == want[:, 1].tobytes()
        assert (sigma is None) == (want.shape[1] == 2)
        if sigma is not None:
            assert sigma.tobytes() == want[:, 2].tobytes()
        alone = TimeSeries.from_csv(path)
        assert alone.signal.tobytes() == signal.tobytes()


GOOD = "tau_s,signal\n0,1\n1,0.5\n2,0.25\n"


@pytest.mark.parametrize("text,message", [
    ("", "empty file"),
    ("\n \n", "empty file"),
    ("tau_s,signal\n", "no data rows"),
    ("tau_s,signal,sigma\n\n \n", "no data rows"),
    ("tau_s,signal\n0,1\n1,2,3\n", "ragged rows"),
    ("tau_s,signal,sigma\n0,1\n1,2\n", "ragged rows"),
    ("tau_s,signal\n0\n1,2,3\n", "ragged rows"),  # widths that sum right
    ("tau_s,signal\n0,1\n1,x\n", "could not convert"),
    ("tau_s,signal\n0,1\ny,2\n", "could not convert"),
    ("tau_s,signal,sigma\n0,1,1\n1,2,1__0\n", "could not convert"),
    ("time,counts\n0,1\n", "header"),
    ("tau_s,signal,extra\n0,1,2\n", "header"),
    ("tau_s,signal\n1,1\n0,2\n", "strictly increasing"),
    ("tau_s,signal\n-1e-5,1\n0,2\n1,3\n", "non-negative"),
    ("tau_s,signal\n0,1\n1,inf\n", "finite"),
    ("tau_s,signal,sigma\n0,1,1\n1,2,0\n", "sigma"),
    ("tau_s,signal,sigma\n0,1,1\n1,2,nan\n", "sigma"),
])
def test_csv_reader_errors(tmp_path, text, message):
    """Each rejection names its file, alone or among good files."""
    good = tmp_path / "good.csv"
    good.write_text(GOOD)
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as alone:
        TimeSeries.from_csv(path)
    with pytest.raises(ValueError, match=message) as among:
        read_traces([good, path, good])
    for error in (alone, among):
        assert str(path) in str(error.value)

