"""Nonlinear least-squares fitting of pulsed-measurement curves.

Three models are supported:

* rabi: a1 * exp(-tau/a2) * cos(2*pi*a3*tau + a4) + a5
* t1:   a1 * exp(-tau/a2) + a3
* t2:   a1 * exp(-(tau/a2)**a3)     (stretched exponential)

Each model is linear in some parameters once the others are fixed:

* rabi: nonlinear (a2, a3); linear (a1 cos a4, -a1 sin a4, a5)
* t1:   nonlinear a2;       linear (a1, a3)
* t2:   nonlinear (a2, a3); linear a1

Each model is written once, in that form: `_basis` gives the columns phi
multiplying the linear coefficients c, `_basis_derivatives` the
derivatives (d phi / d a) c. `model_eval` (phi c) and `model_jacobian`
are built from these, so fits, covariances and `simulate` share them.

Fitting uses variable projection (Golub & Pereyra 1973): the linear
parameters are solved exactly, by a small normal-equation solve, at every
value of the nonlinear ones, and only the nonlinear parameters are
iterated, by damped Gauss-Newton (Levenberg-style adaptive damping) with
Kaufman's (1975) Jacobian of the projected residual. That Jacobian is
built from the basis and the normal matrix already formed for the linear
solve: each derivative (d phi / d theta) c is a product of the basis
columns themselves, so an iteration evaluates no model Jacobian. The
nonlinear parameters are positive, and are optimized as their logarithms.
The rabi phase is part of the linear solve, so a rabi fit needs no phase
restarts. The covariance is that of all parameters, from the full-model
Jacobian (`model_jacobian`) at the solution.

There is one engine, `_variable_projection`, and it works on a stack of
rows: `fit_many` fits each `Traces` stack (every trace of a map that
shares a tau grid) as one batch, one row per trace, and `fit` is a batch
of one trace. The automatic starts, the covariances and the rabi fold
below are computed for the whole stack at once. Each row keeps its own
damping, accept/reject rule and stopping test, so a trace's result does
not depend on the batch it was fitted in.

The traces come from pixel files (format in `lrcfm.traces`): `map`
reads a whole manifest with `read_traces`, which converts each distinct
tau column once, into the stacks `fit_many` takes.

On a uniform tau grid (step dtau) the rabi frequencies a3 and
+-a3 + k/dtau give identical samples; a fit that lands on such an alias
is folded back to the in-band frequency in [0, 1/(2 dtau)].
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .io import atomic_write
from .traces import TimeSeries, Traces

MODEL_ARITY = {"rabi": 5, "t1": 3, "t2": 3}

# indices of the nonlinear parameters, which are positive and optimized as
# logarithms; the model is linear in the others
_NONLINEAR = {"rabi": (1, 2), "t1": (1,), "t2": (1, 2)}
# of the decay models, the parameters that are the linear coefficients
_LINEAR = {"t1": (0, 2), "t2": (0,)}

MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-8
_MAX_REJECTIONS = 50  # rejected trial steps per iteration before giving up
# rows in flight in one batch; bounds the working arrays, such as the
# (rows, len(tau), k) basis
_LANES = 96


class UnidentifiableDataError(ValueError):
    """The data cannot constrain the model (e.g. constant signal)."""


@dataclass(frozen=True)
class FitResult:
    model: str
    params: np.ndarray
    covariance: np.ndarray
    residual_rms: float
    converged: bool
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "params": [float(p) for p in self.params],
            "covariance": [[float(c) for c in row] for row in self.covariance],
            "residual_rms": float(self.residual_rms),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
        }


def model_eval(model: str, tau: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Model values at tau: shape (len(tau),) for parameters a of shape
    (p,), or (N, len(tau)) for a stack of N parameter rows. The basis
    times the linear coefficients, as the fitter evaluates the model."""
    tau = np.asarray(tau, dtype=float)
    rows, nl = _parameter_rows(model, a)
    phi, c = _basis(model, tau, nl), _coefficients(model, rows)
    # summed column by column, without BLAS (which may fuse a multiply and
    # an add), so a t1 or t2 value is a1*exp(...) + a3 rounded as written
    f = phi[:, :, 0] * c[:, :1]
    for j in range(1, c.shape[1]):
        f += phi[:, :, j] * c[:, j:j + 1]
    return f[0] if np.ndim(a) == 1 else f


def model_jacobian(model: str, tau: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d f / d a_j in the original parameters: shape (len(tau), arity), or
    (N, len(tau), arity) for a stack of N parameter rows. The nonlinear
    columns are `_basis_derivatives`, the linear ones the basis."""
    tau = np.asarray(tau, dtype=float)
    rows, nl = _parameter_rows(model, a)
    c = _coefficients(model, rows)
    phi = _basis(model, tau, nl)
    jac = np.empty(phi.shape[:2] + rows.shape[1:])
    jac[:, :, _NONLINEAR[model]] = _basis_derivatives(model, tau, nl, phi, c)
    if model == "rabi":  # (a1, a4) are the polar form of (c0, c1)
        p0, p1 = phi[:, :, 0], phi[:, :, 1]
        jac[:, :, 0] = np.cos(rows[:, 3:4]) * p0 - np.sin(rows[:, 3:4]) * p1
        jac[:, :, 3] = c[:, 1:2] * p0 - c[:, :1] * p1
        jac[:, :, 4] = phi[:, :, 2]
    else:
        jac[:, :, _LINEAR[model]] = phi
    return jac[0] if np.ndim(a) == 1 else jac


def _parameter_rows(model, a):
    """Parameter rows (N, arity) of a (p,) vector or an (N, p) stack, and
    their nonlinear entries (N, q)."""
    if model not in MODEL_ARITY:
        raise ValueError(f"unknown model {model!r}")
    rows = np.atleast_2d(np.asarray(a, dtype=float))
    return rows, rows[:, _NONLINEAR[model]]


def _stretched_power(tau, a2, a3):
    with np.errstate(divide="ignore"):
        return np.where(tau > 0, (tau / a2) ** a3, 0.0)


def _stretched_log(tau, a2, u):
    """u * log(tau/a2) for u = _stretched_power(tau, a2, a3): d u / d a3,
    taken as its limit 0 at tau = 0 (for a3 > 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tau > 0, u * np.log(np.where(tau > 0, tau, 1.0) / a2),
                        0.0)


def fit(model: str, data: TimeSeries, init=None,
        step_tol: float = STEP_TOLERANCE) -> FitResult:
    """Least-squares fit of `model` to `data`.

    Minimizes sum(((f(tau; a) - y) / sigma)^2) by variable projection:
    adaptive Marquardt damping on the nonlinear parameters, the linear
    ones solved exactly at every step. Convergence: relative step of the
    nonlinear parameters < step_tol (default 1e-8) within 200 iterations;
    a non-converged fit is returned with converged=False rather than
    raised. Of `init` only the nonlinear entries are used (a2, and a3 for
    rabi and t2). A batch of one trace: the result is that of `fit_many`.
    """
    traces, theta = _starts(model, data.as_traces(), init)
    if not len(traces):
        raise UnidentifiableDataError(
            f"constant signal cannot constrain a {model} model")
    return _fit_stack(model, traces, theta, step_tol)[0]


def fit_many(model: str, stacks: list[Traces]) -> list[FitResult | None]:
    """Fit every trace from its automatic start, as `fit` would one at a
    time; None marks a constant (unidentifiable) trace.

    `stacks` are Traces whose `rows` together number the traces 0..m-1
    (as `read_traces` returns them); the results are in that order. The
    traces of a stack are fitted together, one row of a batch per trace;
    each result is bitwise equal to the lone `fit` of its trace.
    """
    results = [None] * sum(len(traces) for traces in stacks)
    for traces in stacks:
        traces, theta = _starts(model, traces)
        if len(traces):
            for row, result in zip(traces.rows, _fit_stack(
                    model, traces, theta, STEP_TOLERANCE)):
                results[row] = result
    return results


def check_points(model: str, n: int) -> None:
    """Refuse a tau grid of n points for `model`: a fit needs at least one
    point more than the model has parameters."""
    arity = MODEL_ARITY.get(model)
    if arity is None:
        raise ValueError(f"unknown model {model!r}")
    if n < arity + 1:
        raise ValueError(f"{model} fit needs at least {arity + 1} points, "
                         f"got {n}")


def _starts(model: str, traces: Traces, init=None):
    """Validate a stack for `model`. Returns its identifiable traces (those
    whose signal is not constant) and their starting nonlinear
    parameters, as logarithms, shape (k, q)."""
    check_points(model, len(traces.tau))
    arity = MODEL_ARITY[model]
    identifiable = np.ptp(traces.signal, axis=1) != 0.0
    if not identifiable.all():
        traces = traces.take(identifiable)
    nonlinear = list(_NONLINEAR[model])
    if not len(traces):
        return traces, np.empty((0, len(nonlinear)))
    if init is None:
        a = auto_init(model, traces)
    else:
        a = np.asarray(init, dtype=float)
        if a.shape != (arity,):
            raise ValueError(f"init must have {arity} parameters")
        a = np.broadcast_to(a, (len(traces), arity))
    bad = np.argwhere(~(a[:, nonlinear] > 0))
    if bad.size:
        i = nonlinear[bad[0, 1]]
        raise ValueError(f"parameter a{i + 1} of {model} must be positive")
    return traces, np.log(a[:, nonlinear])


def _fit_stack(model, traces, theta, step_tol) -> list[FitResult]:
    """Fit each trace of a stack from its start theta (log nonlinear
    parameters); the covariance comes from the full-parameter Jacobian
    at the solution."""
    tau, signal, sigma = traces.tau, traces.signal, traces.sigma
    theta, coef, cost, converged, iterations = _variable_projection(
        model, tau, signal, sigma, theta, step_tol)
    a = _full_params(model, _positive(theta), coef)
    jtj = np.empty((len(a), a.shape[1], a.shape[1]))
    rms = np.empty(len(a))
    for lo in range(0, len(a), _LANES):  # bounded working set
        rows = slice(lo, lo + _LANES)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jb = _log_jacobian(model, tau, a[rows],
                               None if sigma is None else sigma[rows])
            jtj[rows] = jb.transpose(0, 2, 1) @ jb
            raw = model_eval(model, tau, a[rows]) - signal[rows]
        rms[rows] = np.sqrt(np.mean(raw ** 2, axis=1))
    cov = _covariance(model, a, jtj, cost, len(tau))
    if model == "rabi":
        a, cov = _canonicalize_rabi(a, cov, tau)
    return [FitResult(model=model, params=params, covariance=c,
                      residual_rms=r, converged=ok, iterations=n)
            for params, c, r, ok, n in zip(
                a, cov, rms.tolist(), converged.tolist(),
                iterations.tolist())]


def _log_jacobian(model, tau, a, sigma):
    """Jacobian in every parameter, the nonlinear ones taken as logarithms,
    of the model divided by sigma (rows of errors, or None for ones):
    shape (N, len(tau), arity) for parameter rows a of shape (N, arity)."""
    jb = model_jacobian(model, tau, a)
    if sigma is not None:
        jb /= sigma[:, :, None]
    for i in _NONLINEAR[model]:
        jb[:, :, i] *= a[:, i, None]  # chain rule d a / d log(a)
    return jb


def _positive(theta):
    """Nonlinear parameters from their logarithms, capped to keep extreme
    trial iterates finite."""
    return np.exp(np.minimum(theta, 700.0))


def _basis(model, tau, nl):
    """The columns multiplying the linear parameters, shape (N, len(tau),
    k), at nonlinear parameters nl = a[_NONLINEAR], shape (N, q)."""
    if model == "t2":
        return np.exp(-_stretched_power(tau, nl[:, :1], nl[:, 1:]))[:, :, None]
    env = np.exp(-tau / nl[:, :1])
    phi = np.empty(env.shape + (3 if model == "rabi" else 2,))
    if model == "rabi":
        phase = 2 * np.pi * nl[:, 1:] * tau
        np.multiply(env, np.cos(phase), out=phi[:, :, 0])
        np.multiply(env, np.sin(phase), out=phi[:, :, 1])
    else:
        phi[:, :, 0] = env
    phi[:, :, -1] = 1.0
    return phi


def _basis_derivatives(model, tau, nl, phi, c):
    """(d phi / d a_j) c for each nonlinear parameter a_j, shape (N,
    len(tau), q): the derivative of the model phi c at fixed linear
    coefficients c (N, k), built from the columns of the (weighted) basis
    phi = _basis(model, tau, nl) themselves. Times a_j, it is the
    derivative in theta_j = log(a_j)."""
    v = np.empty(phi.shape[:2] + (len(_NONLINEAR[model]),))
    if model == "rabi":
        c0, c1 = c[:, :1], c[:, 1:2]
        p0, p1 = phi[:, :, 0], phi[:, :, 1]
        v[:, :, 0] = (c0 * p0 + c1 * p1) * tau / nl[:, :1] ** 2
        v[:, :, 1] = 2 * np.pi * tau * (c1 * p0 - c0 * p1)
    elif model == "t1":
        v[:, :, 0] = c[:, :1] * phi[:, :, 0] * tau / nl[:, :1] ** 2
    else:
        a2, a3 = nl[:, :1], nl[:, 1:]
        u = _stretched_power(tau, a2, a3)
        f = c[:, :1] * phi[:, :, 0]
        v[:, :, 0] = f * u * a3 / a2
        v[:, :, 1] = -f * _stretched_log(tau, a2, u)
    return v


def _coefficients(model, a):
    """Linear coefficients c (N, k) of parameter rows a (N, arity): the
    inverse of `_full_params`."""
    if model == "rabi":
        return np.column_stack([a[:, 0] * np.cos(a[:, 3]),
                                -a[:, 0] * np.sin(a[:, 3]), a[:, 4]])
    return a[:, _LINEAR[model]]


def _full_params(model, nl, c):
    """Model parameters (N, arity) from nonlinear nl (N, q) and linear
    coefficients c (N, k)."""
    if model == "rabi":
        return np.column_stack([np.hypot(c[:, 0], c[:, 1]), nl,
                                np.arctan2(-c[:, 1], c[:, 0]), c[:, 2]])
    if model == "t1":
        return np.column_stack([c[:, 0], nl, c[:, 1]])
    return np.column_stack([c, nl])


def _variable_projection(model, tau, y, sigma, theta, step_tol):
    """Damped Gauss-Newton on the nonlinear parameters of a stack of rows:
    row m fits `model` to trace y[m] (errors sigma[m], or ones when sigma
    is None) from theta[m], the logarithms of its nonlinear parameters.

    At every theta the linear coefficients c solve the weighted normal
    equations (phi^T phi) c = phi^T y exactly, and the residual is
    r = phi c - y. The Jacobian of r is Kaufman's P (d phi / d theta) c,
    with P the projector off the columns of phi (Kaufman 1975; O'Leary &
    Rust 2013). `_basis_derivatives` builds (d phi / d a) c from phi and
    c; times diag(a) it is (d phi / d theta) c, a scaling applied to the
    small normal matrix and gradient. P reuses the phi^T phi of the linear
    solve at the same theta, so a new iteration costs no model evaluation.

    Every row runs its own loop: per iteration one Jacobian, then trial
    steps with damping lam (start 1e-3, /10 on accept, x10 on reject or
    on a singular system) until a finite cost no larger than the current
    one is found; a row stops on a relative step of theta below step_tol
    (converged), after 50 rejections in one iteration, or after
    MAX_ITERATIONS iterations. Each round makes one trial step for every
    row in flight; at most _LANES rows are in flight, and finished rows
    are replaced by waiting ones. A row's arithmetic does not depend on
    the other rows.

    Returns (theta, c, cost, converged, iterations).
    """
    m, q = theta.shape
    diagonal = np.arange(q)
    theta = theta.copy()
    if sigma is not None:
        y = y / sigma
    coef = np.empty((m, MODEL_ARITY[model] - q))
    cost = np.empty(m)
    lam = np.full(m, 1e-3)
    jtj = np.empty((m, q, q))
    g = np.empty((m, q))
    converged = np.zeros(m, dtype=bool)
    finished = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)
    rejected = np.zeros(m, dtype=int)

    # extreme trial iterates can overflow/underflow or make phi singular;
    # such steps are simply rejected by the non-finite cost check
    def project(rows, trial):
        """Nonlinear parameters, weighted basis, its Gram matrix phi^T phi,
        linear coefficients, residuals and cost of `rows` at `trial`."""
        nl = _positive(trial)
        phi = _basis(model, tau, nl)
        if sigma is not None:
            phi /= sigma[rows][:, :, None]
        phit = phi.transpose(0, 2, 1)
        gram = phit @ phi
        c = _solve_rows(gram, (phit @ y[rows][:, :, None])[:, :, 0])
        r = (phi @ c[:, :, None])[:, :, 0]
        r -= y[rows]
        return (nl, phi, gram, c, r,
                np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])

    def linearize(rows, nl, phi, gram, c, r):
        """Start a new iteration of `rows` at theta[rows], where `project`
        gave nl, phi, gram, c and r."""
        iterations[rows] += 1
        rejected[rows] = 0
        v = _basis_derivatives(model, tau, nl, phi, c)
        jb = v - phi @ _solve_rows(gram, phi.transpose(0, 2, 1) @ v)
        jbt = jb.transpose(0, 2, 1)
        # in theta = log(a) the Jacobian is jb diag(a)
        jtj[rows] = jbt @ jb * (nl[:, :, None] * nl[:, None, :])
        g[rows] = (jbt @ r[:, :, None])[:, :, 0] * nl

    active = np.arange(0)
    next_row = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while active.size or next_row < m:
            # refill in bulk once half the lanes are free
            if next_row < m and active.size <= _LANES // 2:
                rows = np.arange(next_row,
                                 min(m, next_row + _LANES - active.size))
                next_row = rows[-1] + 1
                nl, phi, gram, coef[rows], r, cost[rows] = project(
                    rows, theta[rows])
                linearize(rows, nl, phi, gram, coef[rows], r)
                active = np.concatenate([active, rows])
            damped = jtj[active]
            damped[:, diagonal, diagonal] += lam[active, None] * np.clip(
                damped[:, diagonal, diagonal], 1e-300, None)
            step = _solve_rows(damped, -g[active])
            trial = theta[active] + step
            nl, phi, gram, c, r, cost_trial = project(active, trial)
            accept = np.isfinite(cost_trial) & (cost_trial <= cost[active])
            rows = active[~accept]
            lam[rows] *= 10.0
            rejected[rows] += 1
            finished[rows] = rejected[rows] >= _MAX_REJECTIONS
            rows = active[accept]
            theta[rows], cost[rows] = trial[accept], cost_trial[accept]
            coef[rows] = c[accept]
            lam[rows] = np.maximum(lam[rows] / 10.0, 1e-12)
            converged[rows] = np.max(
                np.abs(step[accept]) / (1.0 + np.abs(theta[rows])),
                axis=1) < step_tol
            finished[rows] = converged[rows] | (iterations[rows] >= MAX_ITERATIONS)
            going = accept.copy()
            going[accept] = ~finished[rows]
            if going.any():
                linearize(active[going], nl[going], phi[going], gram[going],
                          c[going], r[going])
            active = active[~finished[active]]
    return theta, coef, cost, converged, iterations


def _solve_rows(matrices, rhs):
    """Solve each (p, p) system of a stack for its right-hand side, shape
    (p,) or (p, q); NaN for singular systems, whose trial step or
    coefficients then give a rejected (non-finite) cost."""
    vector = rhs.ndim == 2
    if vector:
        rhs = rhs[:, :, None]
    try:
        out = np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i, (matrix, b) in enumerate(zip(matrices, rhs)):
            try:
                out[i] = np.linalg.solve(matrix, b)
            except np.linalg.LinAlgError:
                pass
    return out[:, :, 0] if vector else out


def _canonicalize_rabi(a, cov, tau):
    """Resolve the gauges of rabi fits: parameters a (5,) or (N, 5) and
    their covariances (5, 5) or (N, 5, 5). On a uniform tau grid (step
    dtau, start tau0), a3 and +-a3 + k/dtau give the same samples: fold
    a3 into [0, 1/(2 dtau)], adjusting a4 so the samples are unchanged.
    Then resolve (a1, a4) ~ (-a1, a4 + pi): amplitude >= 0, phase wrapped
    to (-pi, pi]. The covariance follows the sign changes elementwise, so
    infinite entries stay infinite."""
    single = np.ndim(a) == 1
    a = np.array(a, dtype=float, ndmin=2)
    cov = np.array(cov, dtype=float, ndmin=3)
    sign = np.ones_like(a)
    dtau = (tau[-1] - tau[0]) / (len(tau) - 1)
    if np.all(np.abs(np.diff(tau) - dtau) <= 1e-9 * dtau):
        rate = 1.0 / dtau
        k = np.floor(a[:, 2] / rate)
        s = k != 0  # also true for NaN, which leaves the row NaN
        a[s, 2] -= k[s] * rate
        a[s, 3] += 2 * np.pi * k[s] * tau[0] / dtau
        s = a[:, 2] > 0.5 * rate
        a[s, 2] = rate - a[s, 2]
        a[s, 3] = -(a[s, 3] + 2 * np.pi * tau[0] / dtau)
        sign[s, 2:4] = -1.0
    s = a[:, 0] < 0
    a[s, 0] = -a[s, 0]
    a[s, 3] += np.pi
    sign[s, 0] = -1.0
    a[:, 3] = -((-a[:, 3] + np.pi) % (2 * np.pi) - np.pi)  # wrap to (-pi, pi]
    s = np.any(sign < 0, axis=1)
    cov[s] = cov[s] * (sign[s, :, None] * sign[s, None, :])
    return (a[0], cov[0]) if single else (a, cov)


def _covariance(model, a, jtj, cost, n):
    """Covariances (N, arity, arity) of parameter rows a (N, arity), from
    the log-parameter normal matrices jtj and the costs of the fits."""
    dof = max(n - MODEL_ARITY[model], 1)
    s2 = cost / dof
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            inverse = np.linalg.inv(jtj)
        except np.linalg.LinAlgError:  # some row is singular
            inverse = np.empty_like(jtj)
            for i, matrix in enumerate(jtj):
                try:
                    inverse[i] = np.linalg.inv(matrix)
                except np.linalg.LinAlgError:
                    inverse[i] = np.linalg.pinv(matrix)
        cov_b = s2[:, None, None] * inverse
        scale = np.ones_like(a)
        for i in _NONLINEAR[model]:
            scale[:, i] = a[:, i]
        # d a / d log(a) chain rule
        cov = cov_b * (scale[:, :, None] * scale[:, None, :])
        return 0.5 * (cov + cov.transpose(0, 2, 1))


def auto_init(model: str, data) -> np.ndarray:
    """Data-driven starting parameters: shape (arity,) for a TimeSeries,
    (m, arity) for the m rows of a Traces stack."""
    tau = data.tau
    y = np.atleast_2d(data.signal)
    m = len(y)
    span = float(tau[-1] - tau[0]) or float(tau[-1]) or 1.0
    if model == "rabi":
        mean = np.mean(y, axis=1)
        amp = 2.0 * np.sqrt(np.mean((y - mean[:, None]) ** 2, axis=1))
        freq = _dominant_frequency(tau, y)
        if freq is None:
            warnings.warn("too few points for spectral frequency init; "
                          "falling back to one oscillation per span")
            freq = np.full(m, 1.0 / span)
        a = np.column_stack([np.where(amp > 0, amp, 1.0),
                             np.full(m, span / 2.0), freq, np.zeros(m), mean])
    elif model == "t1":
        n_tail = max(3, len(tau) // 5)
        tail = np.mean(y[:, -n_tail:], axis=1)
        a1 = y[:, 0] - tail
        a2 = _one_over_e_time(tau, y, baseline=tail, amplitude=a1,
                              fallback=span / 3.0)
        a = np.column_stack([np.where(a1 != 0, a1, 1.0), a2, tail])
    elif model == "t2":
        peak = np.max(np.abs(y), axis=1)
        a1 = np.where(y[:, 0] != 0, y[:, 0], np.where(peak != 0, peak, 1.0))
        a2 = _one_over_e_time(tau, y, baseline=0.0, amplitude=a1,
                              fallback=span / 3.0)
        a = np.column_stack([a1, a2, np.ones(m)])
    else:
        raise ValueError(f"unknown model {model!r}")
    return a[0] if np.ndim(data.signal) == 1 else a


def _dominant_frequency(tau, y):
    """Per row of y, the frequency of the largest nonzero DFT bin after
    uniform resampling; None for fewer than 8 points."""
    n = len(tau)
    if n < 8:
        return None
    grid = np.linspace(tau[0], tau[-1], n)
    # np.interp returns the samples themselves on their own grid
    resampled = y if np.array_equal(grid, tau) else np.array(
        [np.interp(grid, tau, row) for row in y])
    spectrum = np.abs(np.fft.rfft(
        resampled - np.mean(resampled, axis=1, keepdims=True), axis=1))
    k = 1 + np.argmax(spectrum[:, 1:], axis=1)
    return k / (grid[-1] - grid[0])


def _one_over_e_time(tau, y, baseline, amplitude, fallback):
    """Per row of y, the first tau at which (y - baseline) / amplitude
    falls below 1/e; `fallback` where there is none, where it is the
    first sample or not positive, or where the amplitude is 0."""
    baseline = np.reshape(baseline, (-1, 1))
    zero = amplitude == 0
    norm = (y - baseline) / np.where(zero, 1.0, amplitude)[:, None]
    below = norm < np.exp(-1.0)
    first = np.argmax(below, axis=1)
    found = below.any(axis=1) & (first != 0) & (tau[first] > 0) & ~zero
    return np.where(found, tau[first], fallback)


def pi_time(rabi_result: FitResult) -> float:
    """Pi-pulse duration 1 / (2 * a3) from a converged rabi fit."""
    if rabi_result.model != "rabi":
        raise ValueError("pi_time requires a rabi fit result")
    if not rabi_result.converged:
        raise ValueError("pi_time requires a converged fit")
    a3 = rabi_result.params[2]
    if a3 <= 0:
        raise ValueError(f"rabi frequency must be positive, got {a3}")
    return 1.0 / (2.0 * a3)


def write_fit_json(result: FitResult, path) -> None:
    atomic_write(path, json.dumps(result.to_json_dict(), indent=2) + "\n")
