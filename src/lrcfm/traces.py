"""Pulse-measurement traces and the pixel files that hold them.

A `TimeSeries` is one trace: delay times tau, readings, and optional
errors sigma. A `Traces` stack holds traces that share one tau grid, one
per row; the reader, the writer and the fitter (`pulse_fit`) work on
stacks, and the single-trace functions are batches of one.

A pixel file is comma-separated text: the header `tau_s,signal` or
`tau_s,signal,sigma` (spaces around the names allowed), then one row per
delay (at least one), as wide as the header. Blank and whitespace-only
lines are skipped; lines may end in LF, CRLF or CR. Each value is parsed as
Python's float() parses it (surrounding spaces, `1_000`, `+.5`, `1E5`
and non-ASCII digits included), so a file reads the same alone or among
others. tau must strictly increase and be non-negative (-0 counts as 0),
tau and the readings must be finite, and sigma must be positive.
`read_traces` converts each distinct tau column once and the readings one
file at a time; `write_traces` writes every value as its repr(), which
reads back to the same float, and formats a shared tau column once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .io import atomic_write


def check_tau(tau) -> None:
    """Refuse a tau grid that is not finite, non-negative and strictly
    increasing (-0.0 is a valid delay)."""
    if np.any(np.diff(tau) <= 0):
        raise ValueError("tau must be strictly increasing")
    if not np.isfinite(tau).all():
        raise ValueError("tau and signal must be finite")
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")


def _check_readings(signal, sigma) -> None:
    if not np.isfinite(signal).all():
        raise ValueError("tau and signal must be finite")
    if sigma is not None and (sigma.shape != signal.shape
                              or np.any(sigma <= 0)):
        raise ValueError("sigma must match tau and be positive")


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
        if self.sigma is not None:
            object.__setattr__(self, "sigma",
                               np.asarray(self.sigma, dtype=float))
        check_tau(tau)
        _check_readings(signal, self.sigma)

    def __len__(self):
        return self.tau.size

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        """Read one pixel file: `read_traces` of one path."""
        return read_traces([path])[0].series(0)

    def to_csv(self, path) -> None:
        """Write one pixel file: `write_traces` of one trace."""
        write_traces([path], self.as_traces())

    def as_traces(self) -> "Traces":
        """This trace as a stack of one."""
        return Traces(self.tau, self.signal[None],
                      None if self.sigma is None else self.sigma[None])


@dataclass(frozen=True)
class Traces:
    """Traces on one shared tau grid, one per row of `signal` (and of
    `sigma`, None for no errors), shape (m, len(tau)). `rows` are their
    positions in the set they came from, 0..m-1 by default."""

    tau: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        signal = np.asarray(self.signal, dtype=float)
        rows = np.arange(len(signal)) if self.rows is None else self.rows
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "signal", signal)
        object.__setattr__(self, "rows", np.asarray(rows, dtype=int))
        if signal.ndim != 2 or signal.shape[1:] != tau.shape \
                or self.rows.shape != signal.shape[:1]:
            raise ValueError("traces need one row of len(tau) readings and "
                             "one position each")
        if self.sigma is not None:
            object.__setattr__(self, "sigma",
                               np.asarray(self.sigma, dtype=float))
        check_tau(tau)
        _check_readings(signal, self.sigma)

    def __len__(self):
        return len(self.signal)

    def series(self, i: int) -> TimeSeries:
        return TimeSeries(self.tau, self.signal[i],
                          None if self.sigma is None else self.sigma[i])

    def take(self, keep) -> "Traces":
        """The traces picked by a mask or an index array."""
        return Traces(self.tau, self.signal[keep],
                      None if self.sigma is None else self.sigma[keep],
                      self.rows[keep])


_WIDTH = {("tau_s", "signal"): 2, ("tau_s", "signal", "sigma"): 3}


def read_traces(paths) -> list[Traces]:
    """Read pixel files (format in the module docstring) into one stack
    per distinct tau column text and presence of a sigma column, in order
    of first appearance; `rows` index `paths`. Each distinct tau column is
    converted once; the readings one file at a time. An error names its
    file."""
    taus = {}  # tau column text -> tau
    groups = {}  # (tau column text, columns) -> [(row, signal, sigma)]
    for row, path in enumerate(paths):
        try:
            width, values = _split_pixel_file(path)
            key = ",".join(values[0::width])
            if key not in taus:
                taus[key] = np.array(values[0::width], dtype=float)
                check_tau(taus[key])
            signal = np.array(values[1::width], dtype=float)
            sigma = np.array(values[2::width], dtype=float) \
                if width == 3 else None
            _check_readings(signal, sigma)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        groups.setdefault((key, width), []).append((row, signal, sigma))
    stacks = []
    for (key, width), members in groups.items():
        rows, signal, sigma = zip(*members)
        stacks.append(Traces(taus[key], np.stack(signal),
                             None if width == 2 else np.stack(sigma), rows))
    return stacks


def _split_pixel_file(path) -> tuple[int, list[str]]:
    """(columns, value texts in row-major order) of a pixel file, after
    checking that it has a header and rows as wide as the header."""
    with open(path) as fh:
        lines = [*filter(str.strip, fh.read().splitlines())]
    if not lines:
        raise ValueError("empty file")
    width = _WIDTH.get(tuple(h.strip() for h in lines[0].split(",")))
    if width is None:
        raise ValueError("expected header 'tau_s,signal[,sigma]', "
                         f"got {lines[0]!r}")
    if len(lines) == 1:
        raise ValueError("no data rows")
    if set(map(str.count, lines[1:], repeat(","))) != {width - 1}:
        raise ValueError("ragged rows")
    return width, ",".join(lines[1:]).split(",")


def write_traces(paths, traces: Traces) -> None:
    """Write trace i to paths[i] as a pixel file, atomically, every value
    as its repr(), which reads back to the same float. The shared tau
    column is formatted once."""
    if len(paths) != len(traces):
        raise ValueError(f"{len(traces)} traces for {len(paths)} paths")
    header = "tau_s,signal" if traces.sigma is None else "tau_s,signal,sigma"
    tau = [*map(repr, traces.tau.tolist())]
    for i, path in enumerate(paths):
        columns = [tau, map(repr, traces.signal[i].tolist())]
        if traces.sigma is not None:
            columns.append(map(repr, traces.sigma[i].tolist()))
        atomic_write(path, "\n".join([header, *map(",".join, zip(*columns))])
                     + "\n")
