"""Nonlinear least-squares fitting of pulsed-measurement curves.

Three models are supported:

* rabi: a1 * exp(-tau/a2) * cos(2*pi*a3*tau + a4) + a5
* t1:   a1 * exp(-tau/a2) + a3
* t2:   a1 * exp(-(tau/a2)**a3)     (stretched exponential)

Fitting uses damped Gauss-Newton (Levenberg-style adaptive damping) with
analytic Jacobians. Positivity of scale parameters (a2 everywhere, the
rabi frequency a3, and the t2 stretching exponent a3) is enforced by
optimizing their logarithms.

There is one engine, `_gauss_newton`, and it works on a stack of rows:
`fit_many` puts every trace of a map that shares a tau grid, times every
rabi phase restart, into one batch, and `fit` is a batch of one trace.
Each row keeps its own damping, accept/reject rule and stopping test, so
a trace's result does not depend on the batch it was fitted in.

On a uniform tau grid (step dtau) the rabi frequencies a3 and
+-a3 + k/dtau give identical samples; a fit that lands on such an alias
is folded back to the in-band frequency in [0, 1/(2 dtau)].
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import atomic_write

MODEL_ARITY = {"rabi": 5, "t1": 3, "t2": 3}

# indices of parameters constrained positive via log transform
_LOG_PARAMS = {"rabi": (1, 2), "t1": (1,), "t2": (1, 2)}

MAX_ITERATIONS = 200
STEP_TOLERANCE = 1e-8
_MAX_REJECTIONS = 50  # rejected trial steps per iteration before giving up
_PHASE_OFFSETS = (0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi)  # rabi restarts
# rows in flight in one Gauss-Newton batch; bounds the working arrays,
# such as the (rows, len(tau), p) Jacobian
_LANES = 96


class UnidentifiableDataError(ValueError):
    """The data cannot constrain the model (e.g. constant signal)."""


@dataclass(frozen=True)
class TimeSeries:
    """A pulse-measurement trace: delay times, readings, optional errors."""

    tau: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        signal = np.asarray(self.signal, dtype=float)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "signal", signal)
        if tau.ndim != 1 or signal.shape != tau.shape:
            raise ValueError("tau and signal must be 1-d arrays of equal length")
        if np.any(np.diff(tau) <= 0):
            raise ValueError("tau must be strictly increasing")
        if np.any(~np.isfinite(tau)) or np.any(~np.isfinite(signal)):
            raise ValueError("tau and signal must be finite")
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            object.__setattr__(self, "sigma", sigma)
            if sigma.shape != tau.shape or np.any(sigma <= 0):
                raise ValueError("sigma must match tau and be positive")

    def __len__(self):
        return self.tau.size

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        path = Path(path)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        if not lines:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in lines[0].split(",")]
        if header not in (["tau_s", "signal"], ["tau_s", "signal", "sigma"]):
            raise ValueError(f"{path}: expected header 'tau_s,signal[,sigma]', "
                             f"got {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if not rows or any(len(row) != len(header) for row in rows):
            raise ValueError(f"{path}: ragged rows")
        data = np.array(rows, dtype=float)  # parses each value as float()
        sigma = data[:, 2] if len(header) == 3 else None
        return cls(data[:, 0], data[:, 1], sigma)

    def to_csv(self, path) -> None:
        """Write the trace with full round-trip precision, atomically."""
        cols = [self.tau, self.signal]
        header = "tau_s,signal"
        if self.sigma is not None:
            cols.append(self.sigma)
            header += ",sigma"
        lines = [header]
        lines += [",".join(map(repr, row))
                  for row in np.column_stack(cols).tolist()]
        atomic_write(path, "\n".join(lines) + "\n")


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


def _columns(a):
    """Parameter columns a_1..a_p of a (p,) vector or an (N, p) stack,
    shaped to broadcast against tau: (1,) or (N, 1) each."""
    return np.asarray(a, dtype=float).T[..., None]


def model_eval(model: str, tau: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Model values at tau: shape (len(tau),) for parameters a of shape
    (p,), or (N, len(tau)) for a stack of N parameter rows."""
    tau = np.asarray(tau, dtype=float)
    if model == "rabi":
        a1, a2, a3, a4, a5 = _columns(a)
        return a1 * np.exp(-tau / a2) * np.cos(2 * np.pi * a3 * tau + a4) + a5
    if model == "t1":
        a1, a2, a3 = _columns(a)
        return a1 * np.exp(-tau / a2) + a3
    if model == "t2":
        a1, a2, a3 = _columns(a)
        return a1 * np.exp(-_stretched_power(tau, a2, a3))
    raise ValueError(f"unknown model {model!r}")


def model_jacobian(model: str, tau: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d f / d a_j in the original parameters: shape (len(tau), arity), or
    (N, len(tau), arity) for a stack of N parameter rows."""
    tau = np.asarray(tau, dtype=float)
    if model == "rabi":
        a1, a2, a3, a4, a5 = _columns(a)
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
        a1, a2, a3 = _columns(a)
        env = np.exp(-tau / a2)
        jac = np.empty(env.shape + (3,))
        jac[..., 0] = env
        jac[..., 1] = a1 * env * tau / a2 ** 2
        jac[..., 2] = 1.0
        return jac
    if model == "t2":
        a1, a2, a3 = _columns(a)
        u = _stretched_power(tau, a2, a3)
        env = np.exp(-u)
        jac = np.empty(env.shape + (3,))
        jac[..., 0] = env
        jac[..., 1] = a1 * env * u * a3 / a2
        # u * log(tau/a2) -> 0 as tau -> 0 for a3 > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ulog = np.where(tau > 0, u * np.log(np.where(tau > 0, tau, 1.0) / a2),
                            0.0)
        jac[..., 2] = -a1 * env * ulog
        return jac
    raise ValueError(f"unknown model {model!r}")


def _stretched_power(tau, a2, a3):
    with np.errstate(divide="ignore"):
        return np.where(tau > 0, (tau / a2) ** a3, 0.0)


def _to_internal(model: str, a: np.ndarray) -> np.ndarray:
    b = np.array(a, dtype=float)
    for i in _LOG_PARAMS[model]:
        if np.any(b[..., i] <= 0):
            raise ValueError(f"parameter a{i + 1} of {model} must be positive")
        b[..., i] = np.log(b[..., i])
    return b


def _from_internal(model: str, b: np.ndarray) -> np.ndarray:
    a = np.array(b, dtype=float)
    log = list(_LOG_PARAMS[model])
    a[..., log] = np.exp(np.minimum(a[..., log], 700.0))  # keep trials finite
    return a


def fit(model: str, data: TimeSeries, init=None,
        step_tol: float = STEP_TOLERANCE) -> FitResult:
    """Least-squares fit of `model` to `data`.

    Minimizes sum(((f(tau; a) - y) / sigma)^2) with adaptive Marquardt
    damping. Convergence: relative parameter step < step_tol (default
    1e-8) within 200 iterations; a non-converged fit is returned with
    converged=False rather than raised. Without `init`, a rabi fit starts
    from four phases and keeps the lowest-cost minimizer.
    """
    return _fit_group(model, [data], [_starts(model, data, init)],
                      step_tol)[0]


def fit_many(model: str, series) -> list[FitResult | None]:
    """Fit every trace of `series` from its automatic start, as `fit` would
    one at a time; None marks a constant (unidentifiable) trace.

    Traces that share a tau grid are fitted together, every trace and
    restart as one row of a batch; each result is bitwise equal to the
    lone `fit` of its trace.
    """
    results = [None] * len(series)
    groups = {}
    for index, data in enumerate(series):
        try:
            starts = _starts(model, data)
        except UnidentifiableDataError:
            continue
        groups.setdefault(data.tau.tobytes(), []).append((index, data, starts))
    for members in groups.values():
        indices, group, starts = zip(*members)
        for index, result in zip(
                indices, _fit_group(model, group, starts, STEP_TOLERANCE)):
            results[index] = result
    return results


def _starts(model: str, data: TimeSeries, init=None) -> np.ndarray:
    """Validate `data` for `model`; the starting points, shape (restarts, p)."""
    arity = MODEL_ARITY.get(model)
    if arity is None:
        raise ValueError(f"unknown model {model!r}")
    if len(data) < arity + 1:
        raise ValueError(f"{model} fit needs at least {arity + 1} points, "
                         f"got {len(data)}")
    if np.ptp(data.signal) == 0.0:
        raise UnidentifiableDataError(
            f"constant signal cannot constrain a {model} model")
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (arity,):
            raise ValueError(f"init must have {arity} parameters")
        return init[None, :]
    start = auto_init(model, data)
    if model != "rabi":
        return start[None, :]
    # the a4 = 0 starting phase captures only part of the phase circle;
    # start from the spectral phase estimate and three offsets of it
    phase0 = _spectral_phase(data.tau, data.signal, start[2])
    starts = np.repeat(start[None, :], len(_PHASE_OFFSETS), axis=0)
    starts[:, 3] = [phase0 + offset for offset in _PHASE_OFFSETS]
    return starts


def _fit_group(model, group, starts, step_tol) -> list[FitResult]:
    """Fit traces that share one tau grid, each from its own (restarts, p)
    starting points (the same count for all), and keep each trace's
    lowest-cost restart."""
    tau = group[0].tau
    restarts = len(starts[0])
    signal = np.stack([data.signal for data in group])
    sigma = None
    if any(data.sigma is not None for data in group):
        sigma = np.stack([data.sigma if data.sigma is not None
                          else np.ones(len(data)) for data in group])
    b, cost, jtj, converged, iterations = _gauss_newton(
        model, tau, signal, sigma,
        np.repeat(np.arange(len(group)), restarts),
        np.concatenate([_to_internal(model, s) for s in starts]), step_tol)
    results = []
    for i, data in enumerate(group):
        best = i * restarts
        for row in range(best + 1, best + restarts):
            if cost[row] < cost[best]:
                best = row
        a = _from_internal(model, b[best])
        raw = model_eval(model, tau, a) - data.signal
        cov = _covariance(model, a, jtj[best], cost[best], len(data))
        if model == "rabi":
            a, cov = _canonicalize_rabi(a, cov, tau)
        results.append(FitResult(
            model=model, params=a, covariance=cov,
            residual_rms=float(np.sqrt(np.mean(raw ** 2))),
            converged=bool(converged[best]),
            iterations=int(iterations[best])))
    return results


def _gauss_newton(model, tau, y, sigma, trace, b, step_tol):
    """Damped Gauss-Newton on a stack of rows: row m fits `model` to trace
    y[trace[m]] (errors sigma[trace[m]], or ones when sigma is None) from
    internal parameters b[m].

    Every row runs its own loop: per iteration one Jacobian, then trial
    steps with damping lam (start 1e-3, /10 on accept, x10 on reject or
    on a singular system) until a finite cost no larger than the current
    one is found; a row stops on a relative step below step_tol
    (converged), after 50 rejections in one iteration, or after
    MAX_ITERATIONS iterations. Each round makes one trial step for every
    row in flight; at most _LANES rows are in flight, and finished rows
    are replaced by waiting ones. A row's arithmetic does not depend on
    the other rows.

    Returns (b, cost, J^T J at the last Jacobian, converged, iterations).
    """
    m, p = b.shape
    diagonal = np.arange(p)
    b = b.copy()
    cost = np.empty(m)
    lam = np.full(m, 1e-3)
    jtj = np.empty((m, p, p))
    g = np.empty((m, p))
    converged = np.zeros(m, dtype=bool)
    finished = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)
    rejected = np.zeros(m, dtype=int)

    # extreme trial iterates can overflow/underflow; such steps are
    # simply rejected by the non-finite cost check
    def residuals(rows, trial):
        r = model_eval(model, tau, _from_internal(model, trial))
        r -= y[trace[rows]]
        if sigma is not None:
            r /= sigma[trace[rows]]
        return r, np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]

    def linearize(rows, r):
        """Start a new iteration of `rows` at b[rows], residuals r."""
        iterations[rows] += 1
        rejected[rows] = 0
        a = _from_internal(model, b[rows])
        jb = model_jacobian(model, tau, a)
        if sigma is not None:
            jb /= sigma[trace[rows]][:, :, None]
        for i in _LOG_PARAMS[model]:
            jb[:, :, i] *= a[:, i, None]  # chain rule d a / d log(a)
        jbt = jb.transpose(0, 2, 1)
        jtj[rows] = jbt @ jb
        g[rows] = (jbt @ r[:, :, None])[:, :, 0]

    active = np.arange(0)
    next_row = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while active.size or next_row < m:
            # refill in bulk once half the lanes are free
            if next_row < m and active.size <= _LANES // 2:
                rows = np.arange(next_row,
                                 min(m, next_row + _LANES - active.size))
                next_row = rows[-1] + 1
                r, cost[rows] = residuals(rows, b[rows])
                linearize(rows, r)
                active = np.concatenate([active, rows])
            damped = jtj[active]
            damped[:, diagonal, diagonal] += lam[active, None] * np.clip(
                damped[:, diagonal, diagonal], 1e-300, None)
            step = _solve_rows(damped, -g[active])
            trial = b[active] + step
            r, cost_trial = residuals(active, trial)
            accept = np.isfinite(cost_trial) & (cost_trial <= cost[active])
            rows = active[~accept]
            lam[rows] *= 10.0
            rejected[rows] += 1
            finished[rows] = rejected[rows] >= _MAX_REJECTIONS
            rows = active[accept]
            b[rows], cost[rows] = trial[accept], cost_trial[accept]
            lam[rows] = np.maximum(lam[rows] / 10.0, 1e-12)
            converged[rows] = np.max(
                np.abs(step[accept]) / (1.0 + np.abs(b[rows])), axis=1) < step_tol
            finished[rows] = converged[rows] | (iterations[rows] >= MAX_ITERATIONS)
            going = ~finished[rows]
            if going.any():
                linearize(rows[going], r[accept][going])
            active = active[~finished[active]]
    return b, cost, jtj, converged, iterations


def _solve_rows(matrices, rhs):
    """Solve each (p, p) system of a stack; NaN rows for singular ones,
    whose trial step is then rejected."""
    try:
        return np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(rhs, np.nan)
        for i, (matrix, v) in enumerate(zip(matrices, rhs)):
            try:
                steps[i] = np.linalg.solve(matrix, v[:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return steps


def _canonicalize_rabi(a, cov, tau):
    """Resolve the gauges of a rabi fit. On a uniform tau grid (step dtau,
    start tau0), a3 and +-a3 + k/dtau give the same samples: fold a3 into
    [0, 1/(2 dtau)], adjusting a4 so the samples are unchanged. Then
    resolve (a1, a4) ~ (-a1, a4 + pi): amplitude >= 0, phase wrapped to
    (-pi, pi]. The covariance follows the sign changes elementwise, so
    infinite entries stay infinite."""
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
    a[3] = -((-a[3] + np.pi) % (2 * np.pi) - np.pi)  # wrap to (-pi, pi]
    if np.any(sign < 0):
        cov = cov * np.outer(sign, sign)
    return a, cov


def _covariance(model, a, jtj, cost, n):
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
        cov = cov_b * np.outer(scale, scale)  # d a / d log(a) chain rule
        return 0.5 * (cov + cov.T)


def auto_init(model: str, data: TimeSeries) -> np.ndarray:
    """Data-driven starting parameters."""
    tau, y = data.tau, data.signal
    span = float(tau[-1] - tau[0]) or float(tau[-1]) or 1.0
    if model == "rabi":
        mean = float(np.mean(y))
        amp = 2.0 * float(np.sqrt(np.mean((y - mean) ** 2)))
        freq = _dominant_frequency(tau, y)
        if freq is None:
            warnings.warn("too few points for spectral frequency init; "
                          "falling back to one oscillation per span")
            freq = 1.0 / span
        return np.array([amp if amp > 0 else 1.0, span / 2.0, freq, 0.0, mean])
    if model == "t1":
        n_tail = max(3, len(data) // 5)
        tail = float(np.mean(y[-n_tail:]))
        a1 = float(y[0]) - tail
        a2 = _one_over_e_time(tau, y, baseline=tail, amplitude=a1,
                              fallback=span / 3.0)
        return np.array([a1 if a1 != 0 else 1.0, a2, tail])
    if model == "t2":
        a1 = float(y[0]) if y[0] != 0 else float(np.max(np.abs(y))) or 1.0
        a2 = _one_over_e_time(tau, y, baseline=0.0, amplitude=a1,
                              fallback=span / 3.0)
        return np.array([a1, a2, 1.0])
    raise ValueError(f"unknown model {model!r}")


def _dominant_frequency(tau, y):
    """Frequency of the largest nonzero DFT bin after uniform resampling."""
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


def _one_over_e_time(tau, y, baseline, amplitude, fallback):
    if amplitude == 0:
        return fallback
    norm = (y - baseline) / amplitude
    below = np.nonzero(norm < np.exp(-1.0))[0]
    first = below[0] if below.size else None
    if first is None or first == 0 or tau[first] <= 0:
        return fallback
    return float(tau[first])


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
