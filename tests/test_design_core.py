"""The array design core against the former per-point chain.

The oracle below is the scalar chain the core replaced, kept verbatim
with module prefixes dropped and names prefixed with ``old_``: one
BeamGeometry, ExcitationRegion, steady state and figure of merit per grid
point, with math-module scalars throughout. The oracle keeps its own
copies of the dataclasses it builds, as they were then. Two edits: the
former figure_of_merit takes the detection rate in place of a
CollectionGeometry, and it also returns the steady-state condition
number, which the oracle's sweep rows carry.
"""

import json
import math
import warnings
from dataclasses import astuple, dataclass, replace

import numpy as np
import pytest

import lrcfm
from lrcfm import collection, designer, nv_rates
from lrcfm.cli import main
from lrcfm.config import default_catalog, load_config
from lrcfm.beam_optics import ExcitationRegion
from lrcfm.nv_rates import PumpModel

# ---------------------------------------------------------------- oracle

_CONSISTENCY_RTOL = 1e-12


@dataclass(frozen=True)
class SteadyState:
    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho55: float
    condition_number: float

    def populations(self):
        return np.array([self.rho11, self.rho22, self.rho33,
                         self.rho44, self.rho55])


@dataclass(frozen=True)
class FigureOfMerit:
    detection_volume: float
    i_cw: float
    polarization: float
    detection_rate: float
    detection_proportion: float
    detected_signal: float


@dataclass(frozen=True)
class SweepRow:
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


def _require_positive(**values):
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def old_rayleigh_length(w0, wavelength):
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if w0 < 0:
        raise ValueError(f"waist radius must be non-negative, got {w0}")
    return math.pi * w0 * w0 / wavelength


def old_waist_from_lens(focal_length, beam_diameter, wavelength):
    _require_positive(focal_length=focal_length, beam_diameter=beam_diameter,
                      wavelength=wavelength)
    return 2.0 * wavelength * focal_length / (math.pi * beam_diameter)


def old_focal_length_for_rayleigh(zr, beam_diameter, wavelength):
    _require_positive(rayleigh_length=zr, beam_diameter=beam_diameter,
                      wavelength=wavelength)
    return 0.5 * beam_diameter * math.sqrt(zr * math.pi / wavelength)


@dataclass(frozen=True)
class OldBeamGeometry:
    wavelength: float
    waist_radius: float
    incident_beam_diameter: float
    focal_length: float

    def __post_init__(self):
        _require_positive(wavelength=self.wavelength,
                          waist_radius=self.waist_radius,
                          incident_beam_diameter=self.incident_beam_diameter,
                          focal_length=self.focal_length)
        w0 = old_waist_from_lens(self.focal_length,
                                 self.incident_beam_diameter, self.wavelength)
        if abs(w0 - self.waist_radius) > _CONSISTENCY_RTOL * self.waist_radius:
            raise ValueError(
                "waist_radius and focal_length are inconsistent: "
                f"lens relation gives w0 = {w0}, got {self.waist_radius}")

    @classmethod
    def from_focal_length(cls, wavelength, beam_diameter, focal_length):
        w0 = old_waist_from_lens(focal_length, beam_diameter, wavelength)
        return cls(wavelength, w0, beam_diameter, focal_length)

    @classmethod
    def from_rayleigh_length(cls, wavelength, beam_diameter, zr):
        f = old_focal_length_for_rayleigh(zr, beam_diameter, wavelength)
        return cls.from_focal_length(wavelength, beam_diameter, f)

    @property
    def rayleigh_length(self):
        return old_rayleigh_length(self.waist_radius, self.wavelength)


def old_excitation_region(w0, sample_thickness, laser_power, wavelength,
                          model="clipped"):
    _require_positive(waist_radius=w0, sample_thickness=sample_thickness)
    if laser_power < 0:
        raise ValueError(f"laser power must be non-negative, got {laser_power}")
    if model not in ("clipped", "thickness"):
        raise ValueError(f"unknown volume model {model!r}")
    if model == "clipped":
        length = min(2.0 * old_rayleigh_length(w0, wavelength),
                     sample_thickness)
    else:
        length = sample_thickness
    area = math.pi * w0 * w0
    return ExcitationRegion(
        waist_radius=w0,
        sample_thickness=sample_thickness,
        effective_length=length,
        volume=area * length,
        mean_power_density=laser_power / area,
        laser_power=laser_power,
    )


def old_numerical_aperture(lens_radius, focal_length):
    if lens_radius <= 0 or focal_length <= 0:
        raise ValueError("lens radius and focal length must be positive")
    return math.sin(math.atan(lens_radius / focal_length))


def old_detection_rate(na):
    if not 0.0 < na <= 1.0:
        raise ValueError(f"NA must be in (0, 1], got {na}")
    return 1.0 - math.sqrt(1.0 - na * na)


def old_rate_matrix(rates, gamma):
    r = rates
    return np.array([
        [-gamma, 0.0, r.k31, r.k41, r.k51],
        [0.0, -gamma, r.k32, r.k42, r.k52],
        [gamma, 0.0, -r.excited0_decay, 0.0, 0.0],
        [0.0, gamma, 0.0, -r.excited1_decay, 0.0],
        [0.0, 0.0, r.k35, r.k45, -r.singlet_decay],
    ])


def old_steady_state(rates, pump, power_density):
    if power_density <= 0:
        raise ValueError(
            "degenerate steady state: power_density must be strictly "
            "positive (with no pumping the ground-state split is "
            "undetermined)")
    gamma = pump.pump_rate(power_density)
    a = old_rate_matrix(rates, gamma)
    a[0, :] = 1.0  # normalization row replaces one redundant balance row
    b = np.zeros(5)
    b[0] = 1.0
    cond = float(np.linalg.cond(a))
    try:
        rho = np.linalg.solve(a, b)
        rho += np.linalg.solve(a, b - a @ rho)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"singular steady-state system (cond={cond:.3e}, "
            f"gamma={gamma:.3e} Hz)") from exc
    return SteadyState(*rho, condition_number=cond)


def old_cw_fluorescence(ss, rates):
    d3 = rates.excited0_decay
    d4 = rates.excited1_decay
    if d3 <= 0 or d4 <= 0:
        raise ValueError("excited states must have a nonzero total decay")
    return ((rates.k31 + rates.k32) / d3 * ss.rho33
            + (rates.k41 + rates.k42) / d4 * ss.rho44)


def old_polarization(ss):
    total = ss.rho11 + ss.rho22
    if total <= 0:
        raise ValueError("polarization undefined: empty ground manifold")
    return (ss.rho11 - ss.rho22) / total


def old_figure_of_merit(beam, region, rates, pump, detection_rate,
                        proportion=1.0, density=1.0):
    """Returns (FigureOfMerit, steady-state condition number)."""
    if not 0.0 < proportion <= 1.0:
        raise ValueError(f"detection proportion must be in (0, 1], got {proportion}")
    if density <= 0:
        raise ValueError(f"center density must be positive, got {density}")
    if not math.isclose(beam.waist_radius, region.waist_radius,
                        rel_tol=1e-9):
        raise ValueError("beam and excitation region disagree on the waist "
                         f"radius: {beam.waist_radius} vs {region.waist_radius}")
    ss = old_steady_state(rates, pump, region.mean_power_density)
    i_cw = old_cw_fluorescence(ss, rates)
    pol = old_polarization(ss)
    detected = (region.volume * i_cw * pol * detection_rate
                * proportion * density)
    return FigureOfMerit(
        detection_volume=region.volume,
        i_cw=i_cw,
        polarization=pol,
        detection_rate=detection_rate,
        detection_proportion=proportion,
        detected_signal=detected,
    ), ss.condition_number


def old_evaluate(beam, lens_radius, ctx):
    region = old_excitation_region(
        beam.waist_radius, ctx.sample_thickness, ctx.laser_power,
        ctx.wavelength, model=ctx.volume_model)
    rate = old_detection_rate(old_numerical_aperture(lens_radius,
                                                     beam.focal_length))
    return old_figure_of_merit(beam, region, ctx.rates, ctx.pump, rate,
                               density=ctx.density)


def old_evaluate_at_rayleigh(zr, ctx):
    beam = OldBeamGeometry.from_rayleigh_length(
        ctx.wavelength, ctx.incident_beam_diameter, zr)
    fom, cond = old_evaluate(beam, ctx.lens_radius, ctx)
    return SweepRow(
        variable=zr,
        volume_m3=fom.detection_volume,
        icw=fom.i_cw,
        polarization=fom.polarization,
        product=fom.detection_volume * fom.i_cw * fom.polarization,
        detection_rate=fom.detection_rate,
        detected_signal=fom.detected_signal,
        condition_number=cond,
    )


def old_sweep(spec):
    rows = []
    for value in spec.grid:
        zr = value
        if spec.variable == "waist_radius":
            zr = old_rayleigh_length(value, spec.context.wavelength)
        try:
            row = old_evaluate_at_rayleigh(zr, spec.context)
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(
                f"sweep failed at {spec.variable} = {value:g}: {exc}") from exc
        if spec.variable == "waist_radius":
            row = replace(row, variable=value)
        rows.append(row)
    return rows


def old_evaluate_lens(focal_length, diameter, ctx):
    beam = OldBeamGeometry.from_focal_length(
        ctx.wavelength, ctx.incident_beam_diameter, focal_length)
    fom, _ = old_evaluate(beam, diameter / 2.0, ctx)
    return designer.LensChoice("", focal_length, fom.detected_signal,
                               beam.waist_radius, beam.rayleigh_length)


def old_recommend_lens(catalog, spec):
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
        choice = replace(old_evaluate_lens(f, d, spec.context), name=name)
        if best is None or choice.detected_signal > best.detected_signal:
            best = choice
    return best

# ----------------------------------------------------------------- tests


def random_contexts(base, n=8, seed=404):
    """Seeded contexts: thickness 0.2-5 mm and power 1-100 mW, both
    log-uniform, and each volume model."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        yield replace(
            base,
            sample_thickness=float(np.exp(rng.uniform(np.log(0.2e-3),
                                                      np.log(5e-3)))),
            laser_power=float(np.exp(rng.uniform(np.log(1e-3),
                                                 np.log(100e-3)))),
            volume_model=("clipped", "thickness")[k % 2])


def assert_rows_equal(rows, expected):
    assert rows.dtype.names == designer.SWEEP_HEADER
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert row.tolist() == want.astuple()  # bitwise, all seven columns


def sweep_specs(context, rng=None):
    """The shipped z_R grid, or with an rng a z_R grid with random ends,
    and a waist grid."""
    grid = designer.default_grid()
    if rng is not None:
        grid = designer.default_grid(rng.uniform(0.5e-6, 2e-6),
                                     rng.uniform(5e-3, 20e-3))
    yield designer.SweepSpec("rayleigh_length", grid, context)
    yield designer.SweepSpec("waist_radius",
                             tuple(np.geomspace(1e-6, 100e-6, 37)), context)


def test_sweep_matches_oracle_on_shipped_config(reference_context):
    for spec in sweep_specs(reference_context):
        assert_rows_equal(designer.sweep(spec), old_sweep(spec))


def test_sweep_matches_oracle_on_random_contexts(reference_context):
    rng = np.random.default_rng(505)
    for context in random_contexts(reference_context):
        for spec in sweep_specs(context, rng):
            assert_rows_equal(designer.sweep(spec), old_sweep(spec))


def test_rows_of_one_equal_rows_of_the_batch(reference_context):
    for context in random_contexts(reference_context, n=2, seed=7):
        spec = designer.SweepSpec("rayleigh_length",
                                  designer.default_grid(n=40), context)
        lone = [designer.evaluate_at_rayleigh(zr, context).tolist()
                for zr in spec.grid]
        assert lone == designer.sweep(spec).tolist()


def test_steady_states_equal_a_loop_of_steady_state(example_rates):
    rates, pump = example_rates
    rng = np.random.default_rng(12)
    density = np.exp(rng.uniform(np.log(1e2), np.log(1e13), 300))
    batch = nv_rates.steady_states(rates, pump, density)
    conditions = nv_rates.condition_numbers(rates, pump, density)
    assert batch.condition_number is None and conditions.shape == (300,)
    for k, s in enumerate(density):
        for one in (nv_rates.steady_state(rates, pump, s),
                    old_steady_state(rates, pump, s)):
            assert np.array_equal(batch.populations()[:, k],
                                  one.populations())
            assert conditions[k] == pytest.approx(one.condition_number,
                                                  rel=1e-12)


def test_figure_of_merit_matches_oracle(reference_context):
    ctx = reference_context
    for zr in (3e-6, 0.1e-3, 0.25e-3, 4e-3):
        beam = OldBeamGeometry.from_rayleigh_length(
            ctx.wavelength, ctx.incident_beam_diameter, zr)
        region = old_excitation_region(beam.waist_radius,
                                       ctx.sample_thickness, ctx.laser_power,
                                       ctx.wavelength)
        rate = collection.detection_rate(collection.numerical_aperture(
            ctx.lens_radius, beam.focal_length))
        fom = collection.figure_of_merit(
            region.volume, region.mean_power_density, rate, ctx.rates,
            ctx.pump, density=2.0)
        want, _ = old_figure_of_merit(
            beam, region, ctx.rates, ctx.pump,
            old_detection_rate(old_numerical_aperture(ctx.lens_radius,
                                                      beam.focal_length)),
            density=2.0)
        assert fom.power_density == region.mean_power_density
        # the oracle's detection proportion is its default, 1
        assert (fom.detection_volume, fom.i_cw, fom.polarization,
                fom.detection_rate, 1.0,
                fom.detected_signal) == astuple(want)


def test_recommend_lens_matches_oracle(reference_context):
    catalog = default_catalog()
    duplicated = designer.LensCatalog(catalog.entries
                                      + (("copy", catalog.entries[3][1],
                                          catalog.entries[3][2]),))
    for context in (reference_context, *random_contexts(reference_context)):
        spec = designer.SweepSpec("rayleigh_length", (1e-4,), context)
        assert designer.recommend_lens(catalog, spec) == \
            old_recommend_lens(catalog, spec)
        for entry in catalog.entries:  # each lens alone, through the core
            name, f, d = entry
            assert designer.recommend_lens(designer.LensCatalog((entry,)),
                                           spec) == \
                replace(old_evaluate_lens(f, d, context), name=name)
        with pytest.warns(UserWarning, match="duplicates"):
            got = designer.recommend_lens(duplicated, spec)
        with pytest.warns(UserWarning, match="duplicates"):
            assert got == old_recommend_lens(duplicated, spec)


def test_zero_power_names_the_first_grid_point(reference_context):
    spec = designer.SweepSpec("rayleigh_length", designer.default_grid(),
                              replace(reference_context, laser_power=0.0))
    message = f"sweep failed at rayleigh_length = {spec.grid[0]:g}: degenerate"
    with pytest.raises(ValueError, match=message):
        designer.sweep(spec)
    with pytest.raises(ValueError, match=message):
        old_sweep(spec)


@dataclass(frozen=True)
class CutoffPump(PumpModel):
    """No pumping below a power-density floor: a singular system there."""

    floor: float = 0.0

    def pump_rate(self, power_density):
        return np.where(power_density < self.floor, 0.0,
                        self.coupling * power_density)


def test_singular_point_is_named(reference_context):
    grid = designer.default_grid()
    k = 150  # the power density falls along the z_R grid
    focal = 0.5 * reference_context.incident_beam_diameter * np.sqrt(
        grid[k] * math.pi / reference_context.wavelength)
    w0 = old_waist_from_lens(focal, reference_context.incident_beam_diameter,
                             reference_context.wavelength)
    floor = reference_context.laser_power / (math.pi * w0 * w0) * (1 + 1e-9)
    pump = CutoffPump(reference_context.pump.coupling, floor)
    spec = designer.SweepSpec("rayleigh_length", grid,
                              replace(reference_context, pump=pump))
    message = (f"sweep failed at rayleigh_length = {grid[k]:g}: singular "
               r"steady-state system \(cond=.*, gamma=0.000e\+00 Hz\)")
    with pytest.raises(ArithmeticError, match=message):
        designer.sweep(spec)
    with pytest.raises(ArithmeticError, match=message):
        old_sweep(spec)


def former_singular_message(a, gamma):
    """The former naming of a singular stack: each system re-solved alone,
    in order, and the first that raises named."""
    for i in np.ndindex(np.shape(gamma)):
        try:
            np.linalg.solve(a[i], np.eye(5)[:, :1])
        except np.linalg.LinAlgError:
            return ("singular steady-state system "
                    f"(cond={np.linalg.cond(a[i]):.3e}, "
                    f"gamma={gamma[i]:.3e} Hz)")


@pytest.mark.parametrize("density", [
    1e8, [3e9, 1e8, 5e7], [[3e9, 2e9], [4e9, 1e8]]])
def test_singular_system_is_named_as_the_former_loop_named_it(
        reference_context, density):
    """steady_states names the first singular system of a stack, or the
    system of a scalar power density, as the former loop did."""
    pump = CutoffPump(reference_context.pump.coupling, 1e9)
    a, gamma = nv_rates._systems(reference_context.rates, pump, density)
    with pytest.raises(ArithmeticError) as got:
        nv_rates.steady_states(reference_context.rates, pump, density)
    assert str(got.value) == former_singular_message(a, gamma)


def test_design_report_conditions_match_oracle(tmp_path, capsys):
    config = lrcfm.data_path("example_config.txt")
    assert main(["--out", str(tmp_path), "design",
                 "--config", str(config)]) == 0
    report = json.loads((tmp_path / "design_report.json").read_text())
    want = [row.condition_number
            for row in old_sweep(load_config(config).spec)]
    assert report["steady_state_condition_min"] == \
        pytest.approx(min(want), rel=1e-12)
    assert report["steady_state_condition_max"] == \
        pytest.approx(max(want), rel=1e-12)
