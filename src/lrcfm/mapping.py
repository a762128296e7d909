"""Per-pixel fitting into spatial maps, map statistics, and a seeded
synthetic multi-pixel dataset generator used as the test oracle.

A map's pixels are one `Dataset` of coordinates and `Traces` stacks, as
`cmd_map` reads them and `synth_map` makes them; `assemble` fits them
into one batch of arrays (`pulse_fit.fit_many`), derives the map quantity
from the whole batch, and `write_map_csv` writes map.csv by columns.

Pixels that fail (unidentifiable data, a fit that did not converge, or a
derived value that is not finite or longer than the trace's span) are
recorded as missing (NaN) and excluded from statistics, never imputed;
the map counts each reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import pulse_fit
from .io import cells, write_csv
from .traces import Traces

# per-model map quantity, its units, and its values from a batch of fits:
# rabi maps report the pi time, decay maps the fitted time constant a2
_DERIVE = {
    "rabi": ("pi_time", "s", pulse_fit.pi_time),
    "t1": ("t1", "s", lambda batch: batch.params[:, 1]),
    "t2": ("t2", "s", lambda batch: batch.params[:, 1]),
}
QUANTITIES = tuple(quantity for quantity, _, _ in _DERIVE.values())
# why a fitted pixel is missing, in the order stats.json reports them
FAILURES = ("unidentifiable", "not_converged", "derive_failed")


@dataclass(frozen=True)
class PixelMap:
    origin: tuple[float, float]  # (x, y) of pixel (ix=0, iy=0), meters
    pitch: float
    nx: int
    ny: int
    values: np.ndarray  # shape (ny, nx); NaN = missing pixel
    quantity: str
    units: str
    # pixels missing from values, per reason in FAILURES
    failures: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.pitch <= 0:
            raise ValueError("pitch must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be at least 1")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.ny, self.nx):
            raise ValueError(f"values must have shape (ny={self.ny}, "
                             f"nx={self.nx}), got {values.shape}")
        if np.any(np.isinf(values)):
            raise ValueError("map values must be finite or NaN")
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")


@dataclass(frozen=True)
class MapStats:
    mean: float
    std: float
    min: float
    max: float
    n_valid: int
    n_missing: int
    n_unidentifiable: int = 0
    n_not_converged: int = 0
    n_derive_failed: int = 0


@dataclass(frozen=True)
class Dataset:
    """The pixels of a map: coordinates x and y (m,), in meters, and their
    traces as `Traces` stacks whose `rows` index the coordinates, as
    `read_traces` returns them."""

    x: np.ndarray
    y: np.ndarray
    traces: list[Traces]


def assemble(data: Dataset, model: str,
             pitch: float | None = None) -> PixelMap:
    """Fit every pixel of `data` and place the model's map quantity (pi
    time for rabi, a2 for t1 and t2) on a regular grid.

    Coordinates must snap to a common grid (tolerance pitch/100); the
    pitch is inferred from coordinate spacing when not given, and must be
    positive and finite (ValueError). A grid too large to index is an
    ArithmeticError. The pixels are fitted as one batch (`fit_many`); a
    pixel whose trace is constant (iterations 0), whose fit did not
    converge or whose value is not finite stays missing, counted in FAILURES.
    A pixel's value must also be at most its trace's span, tau[-1] -
    tau[0]: a longer time was not measured (less than half a rabi period
    observed, or a decay that does not decay within the span), and counts
    as derive_failed.
    """
    xs, ys = data.x, data.y
    if not xs.size:
        raise ValueError("no pixels to assemble")
    quantity, units, derive = _DERIVE[model]
    if pitch is None:
        pitch = _infer_pitch(xs, ys)
    if not (pitch > 0 and np.isfinite(pitch)):
        raise ValueError(f"pixel pitch must be positive and finite, got "
                         f"{pitch:g} m")
    x0, y0 = float(np.min(xs)), float(np.min(ys))
    with np.errstate(over="ignore"):  # the flat cell index is an int64
        shape = np.round(np.subtract((xs.max(), ys.max()), (x0, y0)) / pitch)
        indexable = np.prod(shape + 1) < 2.0 ** 63
    if not indexable:
        raise ArithmeticError(f"a pixel pitch of {pitch:g} m makes a grid "
                              "too large to index")
    nx, ny = map(int, shape + 1)
    cell = _cells(xs, ys, x0, y0, pitch, nx)
    batch = pulse_fit.fit_many(model, data.traces)
    value = derive(batch)
    span = np.empty(value.size)  # a time longer than this was not measured
    for stack in data.traces:
        span[stack.rows] = stack.tau[-1] - stack.tau[0]
    value = np.where(value <= span, value, np.nan)
    # the index in FAILURES of each pixel's first reason to be missing;
    # 3 for a valid pixel
    reason = np.select([batch.iterations == 0, ~batch.converged,
                        ~np.isfinite(value)], [0, 1, 2], 3)
    values = np.full(ny * nx, np.nan)
    values[cell] = np.where(reason == 3, value, np.nan)
    failures = dict(zip(FAILURES, np.bincount(reason, minlength=3).tolist()))
    return PixelMap(origin=(x0, y0), pitch=float(pitch), nx=nx, ny=ny,
                    values=values.reshape(ny, nx), quantity=quantity,
                    units=units, failures=failures)


def _cells(xs, ys, x0, y0, pitch, nx):
    """Flat grid cell iy * nx + ix of each pixel. The first pixel that is
    off the grid (tolerance pitch/100) or lands on a cell an earlier pixel
    took is an error."""
    fx, fy = (xs - x0) / pitch, (ys - y0) / pitch
    ix, iy = np.round(fx), np.round(fy)
    off_x, off_y = np.abs(fx - ix) > 0.01, np.abs(fy - iy) > 0.01
    cell = iy.astype(int) * nx + ix.astype(int)
    first = np.zeros(cell.size, dtype=bool)
    first[np.unique(cell, return_index=True)[1]] = True
    bad = off_x | off_y | ~first
    if bad.any():
        k = int(np.argmax(bad))
        if off_x[k] or off_y[k]:
            axis, coordinate = ("x", xs[k]) if off_x[k] else ("y", ys[k])
            raise ValueError(f"record at {axis} = {coordinate:g} is off the "
                             "pixel grid")
        raise ValueError(f"duplicate record at (x={xs[k]:g}, y={ys[k]:g})")
    return cell


def _infer_pitch(xs, ys) -> float:
    deltas = np.concatenate([np.diff(np.unique(xs)), np.diff(np.unique(ys))])
    deltas = deltas[deltas > 0]
    if deltas.size == 0:
        raise ValueError("cannot infer pixel pitch from a single coordinate; "
                         "pass pitch explicitly")
    return float(np.min(deltas))


def stats(pixel_map: PixelMap) -> MapStats:
    """Mean, population standard deviation, min and max over valid pixels,
    and the counts of missing pixels, per reason when the map has them."""
    values = pixel_map.values
    valid = values[np.isfinite(values)]
    if valid.size == 0:
        raise ValueError("no valid pixels")
    return MapStats(
        mean=float(np.mean(valid)),
        std=float(np.std(valid)),  # population std, divisor n
        min=float(np.min(valid)),
        max=float(np.max(valid)),
        n_valid=int(valid.size),
        n_missing=int(values.size - valid.size),
        **{f"n_{reason}": pixel_map.failures.get(reason, 0)
           for reason in FAILURES},
    )


def synth_map(truth_params: np.ndarray, model: str, tau: np.ndarray,
              noise_sigma: float, seed: int,
              origin: tuple[float, float] = (0.0, 0.0),
              pitch: float = 50e-6) -> Dataset:
    """Generate a noisy trace per pixel from per-pixel true parameters of
    shape (ny, nx, arity), as a Dataset of one stack whose row
    iy * nx + ix is pixel (ix, iy).

    The noise stream of each pixel is keyed by (seed, iy, ix), so the
    output is deterministic and independent of generation order.
    """
    truth_params = np.asarray(truth_params, dtype=float)
    if truth_params.ndim != 3:
        raise ValueError("truth_params must have shape (ny, nx, arity)")
    ny, nx, arity = truth_params.shape
    if arity != pulse_fit.MODEL_ARITY[model]:
        raise ValueError(f"{model} needs {pulse_fit.MODEL_ARITY[model]} "
                         f"parameters per pixel, got {arity}")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError("noise sigma must be finite and non-negative, "
                         f"got {noise_sigma!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    tau = np.asarray(tau, dtype=float)
    iy, ix = np.divmod(np.arange(ny * nx), nx)
    signal = pulse_fit.model_eval(model, tau,
                                  truth_params.reshape(ny * nx, arity))
    if noise_sigma > 0:
        signal = signal + [
            np.random.default_rng([seed, j, i]).normal(0.0, noise_sigma,
                                                       size=tau.shape)
            for j, i in zip(iy.tolist(), ix.tolist())]
    return Dataset(origin[0] + ix * pitch, origin[1] + iy * pitch,
                   [Traces(tau, signal)])


def write_map_csv(pixel_map: PixelMap, path) -> None:
    """Map CSV: x_um,y_um,value,units with one row per pixel, row
    iy * nx + ix for pixel (ix, iy); a missing pixel has an empty value."""
    (x0, y0), pitch = pixel_map.origin, pixel_map.pitch
    iy, ix = np.divmod(np.arange(pixel_map.ny * pixel_map.nx), pixel_map.nx)
    write_csv(path, ("x_um", "y_um", "value", "units"), (
        cells((x0 + ix * pitch) * 1e6), cells((y0 + iy * pitch) * 1e6),
        cells(pixel_map.values.ravel()), [pixel_map.units] * ix.size))


def map_to_json_dict(pixel_map: PixelMap) -> dict:
    """map.json: the grid, and its values with None for missing pixels."""
    values = pixel_map.values.astype(object)
    values[np.isnan(pixel_map.values)] = None
    return {"origin_m": list(pixel_map.origin), "pitch_m": pixel_map.pitch,
            "nx": pixel_map.nx, "ny": pixel_map.ny,
            "quantity": pixel_map.quantity, "units": pixel_map.units,
            "values": values}
