"""The settings files: a run configuration and the NV rate file it names.

Both are flat `key = value` files, read by one line reader: '#' starts a
comment and blank lines are skipped; a line without '=', an unknown or
repeated key, an empty value and a missing required key are errors that
name the file, and the line where there is one. Every number must be
finite. The config uses dotted keys and explicit unit suffixes, e.g.

    laser.wavelength = 532 nm
    laser.power = 10 mW
    rates = nv_rates_example.txt

and paths in it are resolved against its directory. The rate file gives
k31..k52 in MHz and kappa in Hz per (W/m^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import beam_optics, designer
from .nv_rates import RATE_KEYS, NvRateSet, PumpModel
from .units import UnitError, parse_number, parse_quantity


class ConfigError(ValueError):
    """A settings file is malformed or references a missing file."""


@dataclass(frozen=True)
class RunConfig:
    """The design's sweep (the "rayleigh_length" variable on the sweep.*
    grid, with its context) and the settings that the sweep does not use."""

    spec: designer.SweepSpec
    catalog: designer.LensCatalog | None
    fiber_core_diameter: float | None
    fiber_magnification: float | None
    output: Path | None


class _Fields(dict):
    """The lines of a `key = value` text, {key: (line number, value)},
    with the checked conversions of a value."""

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

    def _parse(self, key, parse):
        """(where, parse(value)) of the key's line."""
        lineno, value = self[key]
        where = f"{self.source}:{lineno}"
        try:
            return where, parse(value)
        except UnitError as exc:
            raise ConfigError(f"{where}: field {key!r}: {exc}") from exc

    def quantity(self, key, kind, default=None):
        if key not in self:
            return default
        where, result = self._parse(key, lambda v: parse_quantity(v, kind))
        if not 0 < result < math.inf:
            raise ConfigError(f"{where}: {key} must be positive and finite")
        return result

    def number(self, key, default=None, positive=False):
        if key not in self:
            return default
        where, result = self._parse(key, parse_number)
        if not math.isfinite(result):
            raise ConfigError(f"{where}: {key} must be finite")
        if positive and result <= 0:
            raise ConfigError(f"{where}: {key} must be positive")
        return result

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
    fields = _Fields(path.read_text(), str(path), keys, keys)
    rates = {k: fields.number(k) * 1e6 for k in RATE_KEYS}
    return NvRateSet(**rates), PumpModel(coupling=fields.number("kappa"))


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
        pump = PumpModel(coupling=kappa)

    catalog = None
    if "lens.catalog" in fields:
        catalog = designer.load_lens_catalog(
            fields.file("lens.catalog", base_dir, "lens catalog"))

    volume_model = fields.get("volume_model", (0, "clipped"))[1]
    if volume_model not in beam_optics.VOLUME_MODELS:
        choices = " or ".join(repr(m) for m in beam_optics.VOLUME_MODELS)
        raise ConfigError(f"{source}: volume_model must be {choices}, "
                          f"got {volume_model!r}")

    points = fields.number("sweep.points", 200.0)
    if points != int(points) or points < 2:
        raise ConfigError(f"{source}: sweep.points must be an integer >= 2")

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
    return RunConfig(
        spec=designer.SweepSpec("rayleigh_length", grid, context),
        catalog=catalog,
        fiber_core_diameter=fields.quantity("fiber.core_diameter", "length"),
        fiber_magnification=fields.number("fiber.magnification",
                                          positive=True),
        output=output,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), path.parent.resolve(),
                             source=str(path))
