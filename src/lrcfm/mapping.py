"""Per-pixel fitting into spatial maps, map statistics, and a seeded
synthetic multi-pixel dataset generator used as the test oracle.

A map's pixels are one `Dataset`: their coordinates and their traces as
`Traces` stacks, as `cmd_map` reads them from pixel files and as
`synth_map` generates them. `assemble` fits each stack as one batch.

Pixels that fail (unidentifiable data, a fit that did not converge, or a
derived value that cannot be computed) are recorded as missing (NaN) and
excluded from statistics, never imputed; the map counts each reason.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import pulse_fit
from .io import atomic_write
from .traces import Traces

# per-model map quantity, its units, and its value from a fit: rabi maps
# report the pi time, decay maps the fitted time constant a2
_DERIVE = {
    "rabi": ("pi_time", "s", pulse_fit.pi_time),
    "t1": ("t1", "s", lambda r: float(r.params[1])),
    "t2": ("t2", "s", lambda r: float(r.params[1])),
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

    def coordinates(self, ix: int, iy: int) -> tuple[float, float]:
        return (self.origin[0] + ix * self.pitch,
                self.origin[1] + iy * self.pitch)


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

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "min": self.min,
                "max": self.max, "n_valid": self.n_valid,
                "n_missing": self.n_missing,
                "n_unidentifiable": self.n_unidentifiable,
                "n_not_converged": self.n_not_converged,
                "n_derive_failed": self.n_derive_failed}


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
    pitch is inferred from coordinate spacing when not given. Each stack
    of traces that share a tau grid is fitted as one batch
    (`pulse_fit.fit_many`). Failed pixels stay missing, and are counted
    per reason in FAILURES.
    """
    xs, ys = data.x, data.y
    if not xs.size:
        raise ValueError("no pixels to assemble")
    quantity, units, derive = _DERIVE[model]
    if pitch is None:
        pitch = _infer_pitch(xs, ys)
    x0, y0 = float(np.min(xs)), float(np.min(ys))
    nx = int(round((np.max(xs) - x0) / pitch)) + 1
    ny = int(round((np.max(ys) - y0) / pitch)) + 1
    cell = _cells(xs, ys, x0, y0, pitch, nx)
    values = np.full(ny * nx, np.nan)
    failures = dict.fromkeys(FAILURES, 0)
    for k, result in enumerate(pulse_fit.fit_many(model, data.traces)):
        if result is None:
            failures["unidentifiable"] += 1
        elif not result.converged:
            failures["not_converged"] += 1
        else:
            try:
                values[cell[k]] = derive(result)
            except ValueError:
                failures["derive_failed"] += 1
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
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
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
    """Map CSV: x_um,y_um,value,units with one row per pixel; missing
    pixels get an empty value field."""
    lines = ["x_um,y_um,value,units"]
    for iy in range(pixel_map.ny):
        for ix in range(pixel_map.nx):
            x, y = pixel_map.coordinates(ix, iy)
            v = pixel_map.values[iy, ix]
            value = repr(float(v)) if math.isfinite(v) else ""
            lines.append(f"{repr(x * 1e6)},{repr(y * 1e6)},{value},"
                         f"{pixel_map.units}")
    atomic_write(path, "\n".join(lines) + "\n")


def map_to_json_dict(pixel_map: PixelMap) -> dict:
    values = [[None if not math.isfinite(v) else float(v) for v in row]
              for row in pixel_map.values]
    return {
        "origin_m": [pixel_map.origin[0], pixel_map.origin[1]],
        "pitch_m": pixel_map.pitch,
        "nx": pixel_map.nx,
        "ny": pixel_map.ny,
        "quantity": pixel_map.quantity,
        "units": pixel_map.units,
        "values": values,
    }


def write_stats_json(map_stats: MapStats, path) -> None:
    atomic_write(path, json.dumps(map_stats.to_json_dict(), indent=2) + "\n")
