"""Run configuration: flat key-value files with dotted keys and explicit
unit suffixes, e.g.

    laser.wavelength = 532 nm
    laser.power = 10 mW
    rates = nv_rates_example.txt

Relative paths are resolved against the config file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import beam_optics, designer
from .nv_rates import NvRateSet, PumpModel, load_rate_file
from .units import UnitError, parse_number, parse_quantity


class ConfigError(ValueError):
    """A config file is malformed or references a missing file."""


@dataclass(frozen=True)
class RunConfig:
    wavelength: float
    laser_power: float
    incident_beam_diameter: float
    sample_thickness: float
    density: float
    rates: NvRateSet
    pump: PumpModel
    lens_radius: float | None
    catalog: designer.LensCatalog | None
    fiber_core_diameter: float | None
    fiber_magnification: float | None
    volume_model: str
    sweep_points: int
    sweep_min: float
    sweep_max: float
    output: Path | None

    def sweep_context(self) -> designer.SweepContext:
        if self.lens_radius is None:
            raise ConfigError("no lens.radius configured")
        return designer.SweepContext(
            wavelength=self.wavelength,
            laser_power=self.laser_power,
            incident_beam_diameter=self.incident_beam_diameter,
            sample_thickness=self.sample_thickness,
            lens_radius=self.lens_radius,
            rates=self.rates,
            pump=self.pump,
            volume_model=self.volume_model,
            density=self.density,
        )

    def sweep_grid(self) -> tuple[float, ...]:
        return designer.default_grid(self.sweep_min, self.sweep_max,
                                     self.sweep_points)


_KNOWN_KEYS = {
    "laser.wavelength", "laser.power", "laser.incident_beam_diameter",
    "sample.thickness", "sample.density", "rates", "pump.kappa",
    "lens.radius", "lens.catalog", "fiber.core_diameter",
    "fiber.magnification", "volume_model", "sweep.points", "sweep.min",
    "sweep.max", "output",
}

_REQUIRED_KEYS = ("laser.wavelength", "laser.power",
                  "laser.incident_beam_diameter", "sample.thickness",
                  "rates")


def parse_config_text(text: str, base_dir: Path, source: str = "<config>"
                      ) -> RunConfig:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        raw[key] = (lineno, value)

    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{source}: missing required keys: "
                          f"{', '.join(missing)}")

    def quantity(key, kind, default=None):
        if key not in raw:
            return default
        lineno, value = raw[key]
        try:
            result = parse_quantity(value, kind)
        except UnitError as exc:
            raise ConfigError(f"{source}:{lineno}: field {key!r}: {exc}") from exc
        if not 0 < result < math.inf:
            raise ConfigError(f"{source}:{lineno}: {key} must be positive "
                              "and finite")
        return result

    def number(key, default=None, positive=False):
        if key not in raw:
            return default
        lineno, value = raw[key]
        try:
            result = parse_number(value)
        except UnitError as exc:
            raise ConfigError(f"{source}:{lineno}: field {key!r}: {exc}") from exc
        if not math.isfinite(result):
            raise ConfigError(f"{source}:{lineno}: {key} must be finite")
        if positive and result <= 0:
            raise ConfigError(f"{source}:{lineno}: {key} must be positive")
        return result

    rates_lineno, rates_value = raw["rates"]
    rates_path = (base_dir / rates_value).resolve()
    if not rates_path.is_file():
        raise ConfigError(f"{source}:{rates_lineno}: rates file not found: "
                          f"{rates_path}")
    try:
        rates, pump = load_rate_file(rates_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kappa = number("pump.kappa")
    if kappa is not None:
        pump = PumpModel(coupling=kappa)

    catalog = None
    if "lens.catalog" in raw:
        cat_lineno, cat_value = raw["lens.catalog"]
        cat_path = (base_dir / cat_value).resolve()
        if not cat_path.is_file():
            raise ConfigError(f"{source}:{cat_lineno}: lens catalog not "
                              f"found: {cat_path}")
        try:
            catalog = designer.load_lens_catalog(cat_path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    volume_model = raw.get("volume_model", (0, "clipped"))[1]
    if volume_model not in beam_optics.VOLUME_MODELS:
        choices = " or ".join(repr(m) for m in beam_optics.VOLUME_MODELS)
        raise ConfigError(f"{source}: volume_model must be {choices}, "
                          f"got {volume_model!r}")

    points = number("sweep.points", 200.0)
    if points != int(points) or points < 2:
        raise ConfigError(f"{source}: sweep.points must be an integer >= 2")

    output = None
    if "output" in raw:
        output = (base_dir / raw["output"][1]).resolve()

    return RunConfig(
        wavelength=quantity("laser.wavelength", "length"),
        laser_power=quantity("laser.power", "power"),
        incident_beam_diameter=quantity("laser.incident_beam_diameter",
                                        "length"),
        sample_thickness=quantity("sample.thickness", "length"),
        density=number("sample.density", 1.0, positive=True),
        rates=rates,
        pump=pump,
        lens_radius=quantity("lens.radius", "length"),
        catalog=catalog,
        fiber_core_diameter=quantity("fiber.core_diameter", "length"),
        fiber_magnification=number("fiber.magnification", positive=True),
        volume_model=volume_model,
        sweep_points=int(points),
        sweep_min=quantity("sweep.min", "length", 1e-6),
        sweep_max=quantity("sweep.max", "length", 1e-2),
        output=output,
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), path.parent.resolve(),
                             source=str(path))
