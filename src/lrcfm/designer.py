"""Design-space sweeps over the Rayleigh length and lens selection.

A sweep evaluates, for each Rayleigh length on a grid, the excitation
volume, the CW fluorescence per center, the spin polarization, their
product, the NA-limited detection rate, and the detected-signal figure
of merit. The optimum Rayleigh length is the grid argmax refined by
golden-section search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import beam_optics, collection
from .io import atomic_write
from .nv_rates import NvRateSet, PumpModel

SWEEP_HEADER = ("variable", "volume_m3", "icw", "polarization", "product",
                "detection_rate", "detected_signal")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepContext:
    """Fixed parameters shared by every grid point of a sweep."""

    wavelength: float
    laser_power: float
    incident_beam_diameter: float
    sample_thickness: float
    lens_radius: float
    rates: NvRateSet
    pump: PumpModel
    volume_model: str = "clipped"
    density: float = 1.0


@dataclass(frozen=True)
class SweepSpec:
    variable: str  # "rayleigh_length" | "waist_radius"
    grid: tuple[float, ...]
    context: SweepContext

    def __post_init__(self):
        if self.variable not in ("rayleigh_length", "waist_radius"):
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.size == 0 or np.any(grid <= 0):
            raise ValueError("sweep grid must be non-empty and positive")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise ValueError("sweep grid must be strictly increasing")


@dataclass(frozen=True)
class SweepRow:
    variable: float
    volume_m3: float
    icw: float
    polarization: float
    product: float
    detection_rate: float
    detected_signal: float

    def astuple(self):
        return (self.variable, self.volume_m3, self.icw, self.polarization,
                self.product, self.detection_rate, self.detected_signal)


@dataclass(frozen=True)
class LensCatalog:
    entries: tuple[tuple[str, float, float], ...]  # (name, focal length, diameter)

    def __post_init__(self):
        seen = {}
        for name, f, d in self.entries:
            if f <= 0 or d <= 0:
                raise ValueError(f"lens {name!r}: non-positive geometry")
            if name in seen and seen[name] != f:
                raise ValueError(f"lens name {name!r} reused with a "
                                 "different focal length")
            seen[name] = f


def default_grid(lo: float = 1e-6, hi: float = 1e-2, n: int = 200) -> tuple:
    """Log-spaced Rayleigh-length grid, 200 points over [1 um, 10 mm]."""
    return tuple(np.geomspace(lo, hi, n))


def default_catalog() -> LensCatalog:
    """The shipped 1-inch achromat catalog, data/lens_catalog.csv."""
    return load_lens_catalog(resources.files("lrcfm.data")
                             / "lens_catalog.csv")


def _evaluate(beam: beam_optics.BeamGeometry, lens_radius: float,
              ctx: SweepContext) -> collection.FigureOfMerit:
    """Figure of merit for one excitation beam behind a collection lens of
    the given radius at the beam's focal length."""
    region = beam_optics.excitation_region(
        beam.waist_radius, ctx.sample_thickness, ctx.laser_power,
        ctx.wavelength, model=ctx.volume_model)
    coll = collection.CollectionGeometry.from_lens(lens_radius,
                                                   beam.focal_length)
    return collection.figure_of_merit(beam, region, ctx.rates, ctx.pump,
                                      coll, density=ctx.density)


def evaluate_at_rayleigh(zr: float, ctx: SweepContext) -> SweepRow:
    """Figure-of-merit factors for one Rayleigh length."""
    beam = beam_optics.BeamGeometry.from_rayleigh_length(
        ctx.wavelength, ctx.incident_beam_diameter, zr)
    fom = _evaluate(beam, ctx.lens_radius, ctx)
    return SweepRow(
        variable=zr,
        volume_m3=fom.detection_volume,
        icw=fom.i_cw,
        polarization=fom.polarization,
        product=fom.detection_volume * fom.i_cw * fom.polarization,
        detection_rate=fom.detection_rate,
        detected_signal=fom.detected_signal,
    )


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the figure of merit on the grid, one row per point."""
    rows = []
    for value in spec.grid:
        zr = value
        if spec.variable == "waist_radius":
            zr = beam_optics.rayleigh_length(value, spec.context.wavelength)
        try:
            row = evaluate_at_rayleigh(zr, spec.context)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(
                f"sweep failed at {spec.variable} = {value:g}: {exc}") from exc
        if spec.variable == "waist_radius":
            row = replace(row, variable=value)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class OptimalResult:
    rayleigh_length: float
    detected_signal: float
    unimodal: bool
    rows: tuple[SweepRow, ...] = field(repr=False)


def _sign_changes(values: np.ndarray) -> int:
    d = np.diff(values)
    d = d[d != 0.0]
    if d.size < 2:
        return 0
    return int(np.sum(np.sign(d[1:]) != np.sign(d[:-1])))


def optimal_rayleigh(spec: SweepSpec) -> OptimalResult:
    """Grid argmax of the detected signal, refined by golden-section
    search between the neighboring grid points (relative tolerance 1e-4).
    Ties break toward smaller Rayleigh length. If the grid profile is not
    unimodal the result carries unimodal=False and no refinement is done.
    The swept grid rows come back in the result.
    """
    if spec.variable != "rayleigh_length":
        raise ValueError("optimal_rayleigh requires a rayleigh_length sweep")
    rows = tuple(sweep(spec))
    signal = np.array([r.detected_signal for r in rows])
    grid = np.array([r.variable for r in rows])
    i = int(np.argmax(signal))  # first occurrence: ties go to smaller zR
    if grid.size == 1:
        return OptimalResult(float(grid[0]), float(signal[0]), True, rows)
    if _sign_changes(signal) > 1:
        warnings.warn("detected signal is not unimodal on the sweep grid; "
                      "returning the grid argmax without refinement")
        return OptimalResult(float(grid[i]), float(signal[i]), False, rows)
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    fun = lambda zr: evaluate_at_rayleigh(zr, spec.context).detected_signal
    zr_star, f_star = _golden_max(fun, lo, hi, rtol=1e-4)
    if f_star < signal[i]:
        zr_star, f_star = float(grid[i]), float(signal[i])
    return OptimalResult(zr_star, f_star, True, rows)


def _golden_max(fun, lo: float, hi: float, rtol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > rtol * b:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
    x = c if fc >= fd else d
    return float(x), float(max(fc, fd))


@dataclass(frozen=True)
class LensChoice:
    name: str
    focal_length: float
    detected_signal: float
    waist_radius: float
    rayleigh_length: float


def evaluate_lens(focal_length: float, diameter: float,
                  ctx: SweepContext) -> LensChoice:
    beam = beam_optics.BeamGeometry.from_focal_length(
        ctx.wavelength, ctx.incident_beam_diameter, focal_length)
    fom = _evaluate(beam, diameter / 2.0, ctx)
    return LensChoice("", focal_length, fom.detected_signal,
                      beam.waist_radius, beam.rayleigh_length)


def recommend_lens(catalog: LensCatalog, spec: SweepSpec) -> LensChoice:
    """Exhaustively evaluate the detected signal for every catalog lens and
    return the best one. Ties break toward the shorter focal length, then
    by name ordering."""
    if not catalog.entries:
        raise ValueError("empty lens catalog")
    focal_seen = {}
    best = None
    for name, f, d in sorted(catalog.entries, key=lambda e: (e[1], e[0])):
        if f in focal_seen:
            warnings.warn(f"lens {name!r} duplicates {focal_seen[f]!r} "
                          "(same focal length)")
            continue
        focal_seen[f] = name
        choice = replace(evaluate_lens(f, d, spec.context), name=name)
        if best is None or choice.detected_signal > best.detected_signal:
            best = choice
    return best


def cfm_comparison(spec: SweepSpec, cfm_focal: float,
                   proportion_grid) -> list[tuple[float, float]]:
    """LRCFM-to-CFM detected-signal ratio as a function of the CFM
    detection proportion.

    LRCFM is evaluated at its optimum Rayleigh length with detection
    proportion 1; the CFM reference uses the given focal length with the
    same lens radius and each grid proportion.
    """
    if cfm_focal <= 0:
        raise ValueError("CFM focal length must be positive")
    proportions = np.asarray(proportion_grid, dtype=float)
    if np.any(proportions <= 0) or np.any(proportions > 1):
        raise ValueError("proportions must lie in (0, 1]")
    ctx = spec.context
    lrcfm_signal = optimal_rayleigh(spec).detected_signal
    cfm_zr = beam_optics.rayleigh_length(
        beam_optics.waist_from_lens(cfm_focal, ctx.incident_beam_diameter,
                                    ctx.wavelength), ctx.wavelength)
    cfm_base = evaluate_at_rayleigh(cfm_zr, ctx).detected_signal
    return [(float(p), lrcfm_signal / (cfm_base * p)) for p in proportions]


def ratio_threshold(spec: SweepSpec, cfm_focal: float,
                    target: float = 1e4) -> float:
    """Largest CFM detection proportion at which the LRCFM/CFM ratio still
    reaches `target` (the ratio is proportional to 1/proportion, so all
    smaller proportions exceed it)."""
    (_, ratio_at_one), = cfm_comparison(spec, cfm_focal, [1.0])
    return min(1.0, ratio_at_one / target)


def write_sweep_csv(rows, path) -> None:
    """Write sweep rows with the fixed header, full round-trip precision."""
    lines = [",".join(SWEEP_HEADER)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row.astuple()))
    atomic_write(path, "\n".join(lines) + "\n")


def load_lens_catalog(path) -> LensCatalog:
    """Read a lens catalog CSV with header name,focal_length_mm,diameter_mm."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "name,focal_length_mm,diameter_mm":
        raise ValueError(f"{path}: expected header "
                         "'name,focal_length_mm,diameter_mm'")
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields")
        name, f_mm, d_mm = parts
        try:
            entries.append((name.strip(), float(f_mm) * 1e-3,
                            float(d_mm) * 1e-3))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number") from exc
    return LensCatalog(tuple(entries))
