"""The run's input files, read and checked here alone: the config and the
NV rate file it names (`key = value` lines), the lens catalog CSV, the
truth JSON of `simulate` (`load_truth`), and the manifest that `simulate`
writes (`dataset_manifest`) and `map` reads (`load_manifest`). `traces`
reads and writes the pixel files that a manifest lists.

A refusal is a ConfigError that starts with its place: `file:line:` in a
`key = value` or CSV file, `file: 'key':` in a JSON file, `file:` for the
whole file (a missing key; a JSON decode error, with its line and column;
a file that is not UTF-8). `located` puts there the ValueError of a domain
object built from what a reader let through: `NvRateSet`, `PumpModel`,
`SweepSpec`, `LensCatalog`, and the tau and parameter checks of `traces`
and `pulse_fit` (`cli` applies it to a pixel file too short for the fit).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import beam_optics, designer, pulse_fit, traces
from .nv_rates import RATE_KEYS, NvRateSet, PumpModel
from .units import parse_number, parse_quantity


class ConfigError(ValueError):
    """An input file is malformed or references a missing file."""


@contextmanager
def located(where, kind=ValueError):
    """Re-raise a `kind` of ValueError of the block, but not a ConfigError,
    as a ConfigError that starts with `where` (or where(error), if callable)."""
    try:
        yield
    except ConfigError:
        raise
    except kind as exc:
        raise ConfigError(f"{where(exc) if callable(where) else where}: "
                          f"{exc}") from exc


def _read_text(path: Path) -> str:
    with located(path):  # a file that is not UTF-8 is refused by its name
        return path.read_text()


@dataclass(frozen=True)
class RunConfig:
    """The design's sweep (z_R on the sweep.* grid, with its context), the
    lens catalog, and the settings that the sweep does not use."""

    spec: designer.SweepSpec
    catalog: designer.LensCatalog
    fiber_core_diameter: float | None
    fiber_magnification: float | None
    output: Path | None


class _Fields(dict):
    """The lines of a `key = value` text ('#' starts a comment), {key:
    (line number, value)}, with the checked conversions of a value."""

    def __init__(self, text: str, source: str, known, required):
        super().__init__()
        self.source = source
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            if key in self:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            if not value:
                raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
            self[key] = (lineno, value)
        missing = [k for k in required if k not in self]
        if missing:
            raise ConfigError(f"{source}: missing required keys: "
                              f"{', '.join(missing)}")

    def at(self, *keys):
        """`located`'s location of an error in a value built from keys:
        the line of the key it names, else the last line of the keys."""
        def where(exc):
            named = [k for k in keys if k in str(exc).split()] or keys
            lines = [self[k][0] for k in named if k in self]
            return f"{self.source}:{max(lines)}" if lines else self.source
        return where

    def quantity(self, key, kind, default=None):
        return self._value(key, lambda v: parse_quantity(v, kind), default,
                           positive=True)

    def number(self, key, default=None, positive=False):
        return self._value(key, parse_number, default, positive)

    def _value(self, key, parse, default, positive):
        """The key's value, parsed, finite and positive if asked."""
        if key not in self:
            return default
        lineno, text = self[key]
        where = f"{self.source}:{lineno}"
        with located(f"{where}: field {key!r}"):
            value = parse(text)
        if not math.isfinite(value) or positive and value <= 0:
            rule = "positive and finite" if positive else "finite"
            raise ConfigError(f"{where}: {key} must be {rule}")
        return value

    def file(self, key, base_dir: Path, what: str) -> Path:
        """The existing file that the key names, relative to base_dir."""
        lineno, value = self[key]
        path = (base_dir / value).resolve()
        if not path.is_file():
            raise ConfigError(f"{self.source}:{lineno}: {what} not found: "
                              f"{path}")
        return path


def load_rate_file(path) -> tuple[NvRateSet, PumpModel]:
    """The rates (k31..k52, in MHz) and the pump coupling (kappa, in Hz
    per (W/m^2)) of a rate file."""
    path = Path(path)
    keys = RATE_KEYS + ("kappa",)
    fields = _Fields(_read_text(path), str(path), keys, keys)
    with located(fields.at(*RATE_KEYS)):
        rates = NvRateSet(**{k: fields.number(k) * 1e6 for k in RATE_KEYS})
    with located(fields.at("kappa")):
        return rates, PumpModel(coupling=fields.number("kappa"))


_CATALOG_HEADER = "name,focal_length_mm,diameter_mm"


def load_lens_catalog(path) -> designer.LensCatalog:
    """A lens catalog CSV: the header name,focal_length_mm,diameter_mm,
    then one lens per row (blank lines skipped)."""
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != _CATALOG_HEADER:
        raise ConfigError(f"{path}:1: expected header {_CATALOG_HEADER!r}")
    rows = {}  # line number: (name, focal length, diameter)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 fields")
        name, f_mm, d_mm = parts
        with located(f"{path}:{lineno}"):
            rows[lineno] = (name.strip(), float(f_mm) * 1e-3,
                            float(d_mm) * 1e-3)
    entries = tuple(rows.values())
    try:
        return designer.LensCatalog(entries)
    except ValueError:  # refused at the first row the catalog cannot take
        for n, lineno in enumerate(rows, start=1):
            with located(f"{path}:{lineno}"):
                designer.LensCatalog(entries[:n])
        with located(path):  # or refused as a whole: it holds no lens
            raise


def default_catalog() -> designer.LensCatalog:
    """The shipped 1-inch achromat catalog, data/lens_catalog.csv."""
    return load_lens_catalog(resources.files("lrcfm.data")
                             / "lens_catalog.csv")


_KNOWN_KEYS = {
    "laser.wavelength", "laser.power", "laser.incident_beam_diameter",
    "sample.thickness", "sample.density", "rates", "pump.kappa",
    "lens.radius", "lens.catalog", "fiber.core_diameter",
    "fiber.magnification", "volume_model", "sweep.points", "sweep.min",
    "sweep.max", "output",
}

_REQUIRED_KEYS = ("laser.wavelength", "laser.power",
                  "laser.incident_beam_diameter", "sample.thickness",
                  "rates", "lens.radius")


def parse_config_text(text: str, base_dir: Path, source: str = "<config>"
                      ) -> RunConfig:
    fields = _Fields(text, source, _KNOWN_KEYS, _REQUIRED_KEYS)
    rates, pump = load_rate_file(fields.file("rates", base_dir, "rates file"))
    kappa = fields.number("pump.kappa")
    if kappa is not None:
        with located(fields.at("pump.kappa")):
            pump = PumpModel(coupling=kappa)

    if "lens.catalog" in fields:
        catalog = load_lens_catalog(
            fields.file("lens.catalog", base_dir, "lens catalog"))
    else:
        catalog = default_catalog()

    volume_model = fields.get("volume_model", (0, "clipped"))[1]
    points = fields.number("sweep.points", 200.0)
    with located(fields.at("volume_model", "sweep.points")):
        if volume_model not in beam_optics.VOLUME_MODELS:
            choices = " or ".join(map(repr, beam_optics.VOLUME_MODELS))
            raise ValueError(f"volume_model must be {choices}, "
                             f"got {volume_model!r}")
        if points != int(points) or points < 2:
            raise ValueError("sweep.points must be an integer >= 2")

    output = None
    if "output" in fields:
        output = (base_dir / fields["output"][1]).resolve()

    context = designer.SweepContext(
        wavelength=fields.quantity("laser.wavelength", "length"),
        laser_power=fields.quantity("laser.power", "power"),
        incident_beam_diameter=fields.quantity(
            "laser.incident_beam_diameter", "length"),
        sample_thickness=fields.quantity("sample.thickness", "length"),
        lens_radius=fields.quantity("lens.radius", "length"),
        rates=rates,
        pump=pump,
        volume_model=volume_model,
        density=fields.number("sample.density", 1.0, positive=True),
    )
    grid = designer.default_grid(fields.quantity("sweep.min", "length", 1e-6),
                                 fields.quantity("sweep.max", "length", 1e-2),
                                 int(points))
    with located(fields.at("sweep.min", "sweep.max", "sweep.points")):
        spec = designer.SweepSpec("rayleigh_length", grid, context)
    return RunConfig(
        spec=spec,
        catalog=catalog,
        fiber_core_diameter=fields.quantity("fiber.core_diameter", "length"),
        fiber_magnification=fields.number("fiber.magnification",
                                          positive=True),
        output=output,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: config file not found")
    return parse_config_text(_read_text(path), path.parent.resolve(),
                             source=str(path))


_NUMBER = (int, float)


def _entry(obj, key: str, where: str, kind, default=None):
    """obj[key], of JSON type `kind` and finite if a number, from the object
    at `where`; `default` when given and the key is absent."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    if key not in obj and default is not None:
        return default
    if key not in obj:
        raise ConfigError(f"{where}: {key!r}: missing")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}: {key!r}: wrong type: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: {key!r}: must be finite, got {value!r}")
    return value


def _count(obj, key: str, where: str) -> int:
    """obj[key] as a whole number of at least 1."""
    value = _entry(obj, key, where, _NUMBER)
    if not (value >= 1 and float(value).is_integer()):
        raise ConfigError(f"{where}: {key!r}: must be a whole number of at "
                          f"least 1, got {value!r}")
    return int(value)


def _floats(obj, key: str, where: str, default=None) -> np.ndarray:
    """obj[key], a finite number or (nested) list of them, as floats."""
    value = _entry(obj, key, where, (list, *_NUMBER), default)
    try:
        values = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: {key!r}: must hold numbers") from None
    if not np.isfinite(values).all():
        raise ConfigError(f"{where}: {key!r}: must hold finite numbers")
    return values


def load_truth(path, model: str):
    """(params (ny, nx, arity), tau, origin (x, y), pitch), in SI units, of
    a truth JSON for `model`, refused before any model evaluation where
    `fit` or `map` would refuse it."""
    path, where = Path(path), str(path)
    with located(where):
        truth = json.loads(path.read_text())
    if (given := _entry(truth, "model", where, str, model)) != model:
        raise ConfigError(f"{where}: 'model': the truth is for {given!r}, "
                          f"not {model!r}")
    arity = pulse_fit.MODEL_ARITY[model]
    nx, ny = _count(truth, "nx", where), _count(truth, "ny", where)
    params = _floats(truth, "params", where)
    with located(f"{where}: 'params'"):
        if params.shape not in ((arity,), (ny, nx, arity)):
            raise ValueError(f"must have shape ({ny}, {nx}, {arity}) or "
                             f"({arity},), got {params.shape}")
        pulse_fit.check_params(model, params)
    if "tau_s" in truth:
        key, tau = "tau_s", _floats(truth, "tau_s", where)
    else:
        key, spec = "tau", _entry(truth, "tau", where, dict)
        at = f"{where}: 'tau'"
        tau = np.linspace(float(_entry(spec, "start_s", at, _NUMBER)),
                          float(_entry(spec, "stop_s", at, _NUMBER)),
                          _count(spec, "points", at))
    with located(f"{where}: {key!r}"):  # a grid `map` would refuse
        if tau.ndim != 1:
            raise ValueError("must be a list of delays")
        traces.check_tau(tau)
        pulse_fit.check_points(model, len(tau))
    origin = _floats(truth, "origin_um", where, [0.0, 0.0])
    if origin.shape != (2,):
        raise ConfigError(f"{where}: 'origin_um': must be two numbers")
    origin = tuple((1e-6 * origin).tolist())
    pitch_um = _entry(truth, "pitch_um", where, _NUMBER, default=50.0)
    pitch = 1e-6 * float(pitch_um)
    with np.errstate(over="ignore"):  # the pitch and corners as written
        written = 1e6 * np.array([pitch, *origin, *(
            np.array(origin) + pitch * np.array([nx - 1, ny - 1]))])
    if not (pitch > 0 and np.isfinite(written).all()):
        raise ConfigError(f"{where}: 'pitch_um': {pitch_um!r} must be "
                          "positive and keep the pixel coordinates finite")
    return np.broadcast_to(params, (ny, nx, arity)), tau, origin, pitch


def dataset_manifest(model: str, x, y, nx: int, pitch: float,
                     noise: float, seed: int) -> dict:
    """The manifest of a simulated dataset: pixel k, at (x[k], y[k]), is
    (ix, iy) = (k % nx, k // nx), in the file pixel_{iy:03d}_{ix:03d}.csv."""
    pixels = [{"x_um": xk, "y_um": yk,
               "file": "pixel_{:03d}_{:03d}.csv".format(*divmod(k, nx))}
              for k, (xk, yk) in enumerate(zip((x * 1e6).tolist(),
                                               (y * 1e6).tolist()))]
    return {"model": model, "pitch_um": pitch * 1e6, "noise_sigma": noise,
            "seed": seed, "pixels": pixels}


def load_manifest(path):
    """(x, y, pixel file paths, pitch or None), lengths in metres, of a
    manifest.json or of the directory that holds one."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    if not path.is_file():
        raise ConfigError(f"{path}: manifest not found")
    where = str(path)
    with located(where):
        manifest = json.loads(path.read_text())
    x, y, files = [], [], []
    for i, pixel in enumerate(_entry(manifest, "pixels", where, list)):
        at = f"{where}: 'pixels'[{i}]"
        x.append(_entry(pixel, "x_um", at, _NUMBER) * 1e-6)
        y.append(_entry(pixel, "y_um", at, _NUMBER) * 1e-6)
        files.append(path.parent / _entry(pixel, "file", at, str))
    pitch = None
    if "pitch_um" in manifest:
        pitch = _entry(manifest, "pitch_um", where, _NUMBER) * 1e-6
    return np.array(x), np.array(y), files, pitch
