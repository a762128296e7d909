"""Design-space sweeps over the Rayleigh length and lens selection.

A sweep evaluates, for each Rayleigh length on a grid, the excitation
volume, the CW fluorescence per center, the spin polarization, their
product, the NA-limited detection rate, and the detected-signal figure
of merit. The optimum Rayleigh length is the grid argmax refined by
golden-section search.

Every evaluation goes through one array core, `_evaluate`: it takes an
array of excitation focal lengths and computes every factor for all of
them at once, with one batched steady-state solve. A sweep is one call
on its whole grid, a lens recommendation one call on the catalog, and
`evaluate_at_rayleigh` a call on one point. The golden-section search
calls the core once per `_LOOKAHEAD` steps, on every point those steps
could ask for, and then walks its comparisons through the values; the
core is elementwise, so the search is the same as one point per call.
The steady-state condition numbers (one batched SVD) are computed only
for the rows of a sweep: `sweep`, `evaluate_at_rayleigh`, and the `rows`
of an `optimal_rayleigh` result, which are built when first read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import beam_optics, collection
from .io import atomic_write
from .nv_rates import NvRateSet, PumpModel

SWEEP_HEADER = ("variable", "volume_m3", "icw", "polarization", "product",
                "detection_rate", "detected_signal")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section steps per call of the array core: the call evaluates the
# 2**_LOOKAHEAD - 1 points that any branch of the next steps can reach
_LOOKAHEAD = 5


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
    """One grid point: the sweep.csv columns, plus the condition number
    of its steady-state system (not written)."""

    variable: float
    volume_m3: float
    icw: float
    polarization: float
    product: float
    detection_rate: float
    detected_signal: float
    condition_number: float

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


def _evaluate(focal, lens_radius,
              ctx: SweepContext) -> collection.FigureOfMerit:
    """Figure of merit, elementwise, for excitation lenses of the given
    focal lengths (an array), each behind a collection lens of radius
    lens_radius (scalar or one per focal length) at the same focal length.
    Every field of the result is an array."""
    w0 = beam_optics.waist_from_lens(focal, ctx.incident_beam_diameter,
                                     ctx.wavelength)
    region = beam_optics.excitation_region(
        w0, ctx.sample_thickness, ctx.laser_power, ctx.wavelength,
        model=ctx.volume_model)
    na = collection.numerical_aperture(lens_radius, focal)
    return collection.merit(region.volume, region.mean_power_density,
                            collection.detection_rate(na), ctx.rates,
                            ctx.pump, density=ctx.density)


def _at_rayleigh(zr, ctx: SweepContext) -> collection.FigureOfMerit:
    """The array core at an array of Rayleigh lengths."""
    return _evaluate(beam_optics.focal_length_for_rayleigh(
        zr, ctx.incident_beam_diameter, ctx.wavelength), ctx.lens_radius, ctx)


def _rows(variable, fom: collection.FigureOfMerit) -> list[SweepRow]:
    """One row per entry of the arrays of fom, labelled with the matching
    entry of variable. Reads the condition numbers."""
    product = fom.detection_volume * fom.i_cw * fom.polarization
    columns = (variable, fom.detection_volume, fom.i_cw, fom.polarization,
               product, fom.detection_rate, fom.detected_signal,
               fom.condition_number)
    return [SweepRow(*values)
            for values in zip(*(np.asarray(c).tolist() for c in columns))]


def evaluate_at_rayleigh(zr: float, ctx: SweepContext) -> SweepRow:
    """Figure-of-merit factors for one Rayleigh length."""
    (row,) = _rows([zr], _at_rayleigh(np.array([zr], dtype=float), ctx))
    return row


def _sweep_merit(spec: SweepSpec):
    """(grid, figure of merit on it), from one call of the array core."""
    grid = np.array(spec.grid, dtype=float)
    zr = grid
    if spec.variable == "waist_radius":
        zr = beam_optics.rayleigh_length(grid, spec.context.wavelength)
    try:
        return grid, _at_rayleigh(zr, spec.context)
    except (ValueError, ArithmeticError):
        # every factor is elementwise: name the first point that fails alone
        for k, value in enumerate(grid):
            try:
                _at_rayleigh(zr[k:k + 1], spec.context)
            except (ValueError, ArithmeticError) as exc:
                raise type(exc)(f"sweep failed at {spec.variable} = "
                                f"{value:g}: {exc}") from exc
        raise


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the figure of merit on the grid, one row per point, in one
    call of the array core."""
    return _rows(*_sweep_merit(spec))


@dataclass(frozen=True)
class OptimalResult:
    """The optimum Rayleigh length, and the sweep it was found on: `rows`
    (with their condition numbers) are built when first read."""

    rayleigh_length: float
    detected_signal: float
    unimodal: bool
    grid: np.ndarray = field(repr=False, compare=False)
    merit: collection.FigureOfMerit = field(repr=False, compare=False)
    golden_evaluations: int = 0

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        return tuple(_rows(self.grid, self.merit))


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
    The swept grid comes back in the result, with the number of points
    the golden-section search evaluated.
    """
    if spec.variable != "rayleigh_length":
        raise ValueError("optimal_rayleigh requires a rayleigh_length sweep")
    grid, fom = _sweep_merit(spec)
    signal = fom.detected_signal
    i = int(np.argmax(signal))  # first occurrence: ties go to smaller zR
    if grid.size == 1:
        return OptimalResult(float(grid[0]), float(signal[0]), True, grid,
                             fom)
    if _sign_changes(signal) > 1:
        warnings.warn("detected signal is not unimodal on the sweep grid; "
                      "returning the grid argmax without refinement")
        return OptimalResult(float(grid[i]), float(signal[i]), False, grid,
                             fom)
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    zr_star, f_star, evaluations = _golden_max(
        lambda zr: _at_rayleigh(zr, spec.context).detected_signal, lo, hi,
        rtol=1e-4)
    if f_star < signal[i]:
        zr_star, f_star = float(grid[i]), float(signal[i])
    return OptimalResult(zr_star, f_star, True, grid, fom, evaluations)


def _golden_step(a, b, c, d, left: bool):
    """One golden-section step on the bracket [a, b] with interior points
    c < d: keep [a, d] if left (f(c) >= f(d)), else [c, b]. Returns the
    new bracket and interior points, and the new point to evaluate."""
    if left:
        b, d = d, c
        c = b - GOLDEN * (b - a)
        return a, b, c, d, c
    a, c = c, d
    d = a + GOLDEN * (b - a)
    return a, b, c, d, d


def _golden_max(fun, lo: float, hi: float,
                rtol: float) -> tuple[float, float, int]:
    """(argmax, max, number of evaluations) of fun on [lo, hi] by
    golden-section search until the bracket is narrower than rtol times
    its upper end. fun maps an array of points to their values.

    Each call of fun after the first takes the points of the next
    `_LOOKAHEAD` steps for every outcome of their comparisons, as a heap:
    node 0 is the next step, whose direction is known, and node j's
    children 2j+1 and 2j+2 are the steps after it if its new point wins
    (f(c) >= f(d)) or loses. The search then walks the path the real
    comparisons take. Points and comparisons are those of a search that
    evaluates one point at a time, and the count is the points it used.
    """
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = np.asarray(fun(np.array([c, d]))).tolist()
    evaluations = 2
    while (b - a) > rtol * b:
        steps = {0: _golden_step(a, b, c, d, fc >= fd)}
        for j in range(2 ** (_LOOKAHEAD - 1) - 1):
            if j in steps:
                a_, b_, c_, d_, _ = steps[j]
                if (b_ - a_) > rtol * b_:
                    steps[2 * j + 1] = _golden_step(a_, b_, c_, d_, True)
                    steps[2 * j + 2] = _golden_step(a_, b_, c_, d_, False)
        values = dict(zip(steps, np.asarray(fun(np.array(
            [step[4] for step in steps.values()]))).tolist()))
        j = 0
        while j in steps:
            left = fc >= fd
            a, b, c, d, _ = steps[j]
            fc, fd = (values[j], fc) if left else (fd, values[j])
            evaluations += 1
            j = 2 * j + (1 if fc >= fd else 2)
            if not (b - a) > rtol * b:
                break
    x = c if fc >= fd else d
    return float(x), float(max(fc, fd)), evaluations


@dataclass(frozen=True)
class LensChoice:
    name: str
    focal_length: float
    detected_signal: float
    waist_radius: float
    rayleigh_length: float


def _lens_choices(names, focal, lens_radius,
                  ctx: SweepContext) -> list[LensChoice]:
    """LensChoice for each lens (arrays of focal lengths and radii), from
    one call of the array core."""
    fom = _evaluate(focal, lens_radius, ctx)
    w0 = beam_optics.waist_from_lens(focal, ctx.incident_beam_diameter,
                                     ctx.wavelength)
    zr = beam_optics.rayleigh_length(w0, ctx.wavelength)
    return [LensChoice(*values) for values in zip(
        names, focal.tolist(), fom.detected_signal.tolist(), w0.tolist(),
        zr.tolist())]


def evaluate_lens(focal_length: float, diameter: float,
                  ctx: SweepContext) -> LensChoice:
    (choice,) = _lens_choices([""], np.array([focal_length], dtype=float),
                              np.array([diameter / 2.0]), ctx)
    return choice


def recommend_lens(catalog: LensCatalog, spec: SweepSpec) -> LensChoice:
    """Evaluate the detected signal for every catalog lens, in one call of
    the array core, and return the best one. Ties break toward the shorter
    focal length, then by name ordering."""
    if not catalog.entries:
        raise ValueError("empty lens catalog")
    lenses = {}  # focal length -> (name, diameter)
    for name, f, d in sorted(catalog.entries, key=lambda e: (e[1], e[0])):
        if f in lenses:
            warnings.warn(f"lens {name!r} duplicates {lenses[f][0]!r} "
                          "(same focal length)")
            continue
        lenses[f] = (name, d)
    names, diameters = zip(*lenses.values())
    choices = _lens_choices(names, np.array(list(lenses), dtype=float),
                            np.array(diameters) / 2.0, spec.context)
    return max(choices, key=lambda choice: choice.detected_signal)


def cfm_comparison(spec: SweepSpec, cfm_focal: float, proportion_grid,
                   optimum: OptimalResult | None = None
                   ) -> list[tuple[float, float]]:
    """LRCFM-to-CFM detected-signal ratio as a function of the CFM
    detection proportion.

    LRCFM is evaluated at its optimum Rayleigh length (`optimum`, the
    `optimal_rayleigh` of spec, found here when not given) with detection
    proportion 1; the CFM reference uses the given focal length with the
    same lens radius and each grid proportion.
    """
    if cfm_focal <= 0:
        raise ValueError("CFM focal length must be positive")
    proportions = np.asarray(proportion_grid, dtype=float)
    if np.any(proportions <= 0) or np.any(proportions > 1):
        raise ValueError("proportions must lie in (0, 1]")
    ctx = spec.context
    if optimum is None:
        optimum = optimal_rayleigh(spec)
    lrcfm_signal = optimum.detected_signal
    cfm_zr = beam_optics.rayleigh_length(
        beam_optics.waist_from_lens(cfm_focal, ctx.incident_beam_diameter,
                                    ctx.wavelength), ctx.wavelength)
    cfm_base = _at_rayleigh(np.array([cfm_zr]), ctx).detected_signal.item()
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
    lines += [",".join(map(repr, values)) for values in
              np.array([row.astuple() for row in rows], dtype=float).tolist()]
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
