"""Nonlinear least-squares fitting of pulsed-measurement curves.

Three models are supported:

* rabi: a1 * exp(-tau/a2) * cos(2*pi*a3*tau + a4) + a5
* t1:   a1 * exp(-tau/a2) + a3
* t2:   a1 * exp(-(tau/a2)**a3)     (stretched exponential)

Fitting uses damped Gauss-Newton (Levenberg-style adaptive damping) with
analytic Jacobians. Positivity of scale parameters (a2 everywhere, the
rabi frequency a3, and the t2 stretching exponent a3) is enforced by
optimizing their logarithms.
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
        data = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        if data.ndim != 2 or data.shape[1] != len(header):
            raise ValueError(f"{path}: ragged rows")
        sigma = data[:, 2] if len(header) == 3 else None
        return cls(data[:, 0], data[:, 1], sigma)

    def to_csv(self, path) -> None:
        cols = [self.tau, self.signal]
        header = "tau_s,signal"
        if self.sigma is not None:
            cols.append(self.sigma)
            header += ",sigma"
        lines = [header]
        for row in zip(*cols):
            lines.append(",".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n")


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
    tau = np.asarray(tau, dtype=float)
    if model == "rabi":
        a1, a2, a3, a4, a5 = a
        return a1 * np.exp(-tau / a2) * np.cos(2 * np.pi * a3 * tau + a4) + a5
    if model == "t1":
        a1, a2, a3 = a
        return a1 * np.exp(-tau / a2) + a3
    if model == "t2":
        a1, a2, a3 = a
        return a1 * np.exp(-_stretched_power(tau, a2, a3))
    raise ValueError(f"unknown model {model!r}")


def model_jacobian(model: str, tau: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d f / d a_j, shape (len(tau), arity), in the original parameters."""
    tau = np.asarray(tau, dtype=float)
    if model == "rabi":
        a1, a2, a3, a4, a5 = a
        env = np.exp(-tau / a2)
        phase = 2 * np.pi * a3 * tau + a4
        c, s = np.cos(phase), np.sin(phase)
        return np.column_stack([
            env * c,
            a1 * env * c * tau / a2 ** 2,
            -a1 * env * s * 2 * np.pi * tau,
            -a1 * env * s,
            np.ones_like(tau),
        ])
    if model == "t1":
        a1, a2, a3 = a
        env = np.exp(-tau / a2)
        return np.column_stack([
            env,
            a1 * env * tau / a2 ** 2,
            np.ones_like(tau),
        ])
    if model == "t2":
        a1, a2, a3 = a
        u = _stretched_power(tau, a2, a3)
        env = np.exp(-u)
        # u * log(tau/a2) -> 0 as tau -> 0 for a3 > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ulog = np.where(tau > 0, u * np.log(np.where(tau > 0, tau, 1.0) / a2),
                            0.0)
        return np.column_stack([
            env,
            a1 * env * u * a3 / a2,
            -a1 * env * ulog,
        ])
    raise ValueError(f"unknown model {model!r}")


def _stretched_power(tau, a2, a3):
    with np.errstate(divide="ignore"):
        return np.where(tau > 0, (tau / a2) ** a3, 0.0)


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


def fit(model: str, data: TimeSeries, init=None,
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
