"""Command-line front end.

Subcommands: design, sweep, fit, map, simulate. Exit codes: 0 success,
2 input/config error or an output that cannot be written (any OSError,
such as a full disk or an --out that names a file), 3 numerical failure,
4 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import (beam_optics, collection, designer, mapping, nv_rates,
               pulse_fit, traces)
from .config import (ConfigError, dataset_manifest, load_config,
                     load_manifest, load_truth, located)
from .io import cells, write_csv, write_json
from .units import parse_quantity

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lrcfm",
                     description="Design and analysis toolkit for a "
                                 "long-Rayleigh-length confocal microscope")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: config 'output' "
                             "or current directory)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for synthetic data generation")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("design", help="run the full design sweep and "
                                      "lens recommendation")
    p.add_argument("--config", type=Path, required=True)

    p = sub.add_parser("sweep", help="emit one sweep curve as CSV")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--variable", required=True,
                   choices=["rayleigh", "waist", "detection-proportion"])
    p.add_argument("--points", type=positive_int, default=None)
    p.add_argument("--min", dest="grid_min", default=None,
                   help="grid start, with unit for length variables "
                        "(e.g. '1 um')")
    p.add_argument("--max", dest="grid_max", default=None)
    p.add_argument("--cfm-focal", default="3.6 mm",
                   help="reference CFM focal length for "
                        "detection-proportion sweeps")

    p = sub.add_parser("fit", help="fit one time-series CSV")
    p.add_argument("--model", required=True, choices=["rabi", "t1", "t2"])
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--init", default=None,
                   help="comma-separated initial parameters")

    p = sub.add_parser("map", help="fit a dataset into a spatial map")
    p.add_argument("--model", required=True, choices=["rabi", "t1", "t2"])
    p.add_argument("--manifest", type=Path, required=True,
                   help="dataset manifest JSON (or its directory)")
    p.add_argument("--pitch", default=None,
                   help="pixel pitch with unit, e.g. '50 um'")

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--model", required=True, choices=["rabi", "t1", "t2"])
    p.add_argument("--truth", type=Path, required=True,
                   help="truth-field JSON file")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive Gaussian noise sigma, signal units")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handler = {
        "design": cmd_design,
        "sweep": cmd_sweep,
        "fit": cmd_fit,
        "map": cmd_map,
        "simulate": cmd_simulate,
    }[args.command]
    try:
        return handler(args)
    # first: np.linalg.LinAlgError is a ValueError subclass; MemoryError:
    # a grid too large to allocate, as a tiny pixel pitch asks for
    except (ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # ConfigError, UnitError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _out_dir(args, cfg=None) -> Path:
    out = args.out
    if out is None and cfg is not None and cfg.output is not None:
        out = cfg.output
    out = Path(out) if out is not None else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_design_output(merit: float, *values) -> None:
    """Refuse to write a design output that holds a non-finite number, or
    whose figure of merit at the optimum is not positive: the config lies
    outside what the model can evaluate (ArithmeticError, exit 3)."""
    if not all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values):
        raise ArithmeticError("the design output holds a non-finite value; "
                              "check the magnitudes in the config")
    if not merit > 0:
        raise ArithmeticError(f"detected signal at the optimum is {merit!r}, "
                              "not positive; check the magnitudes in the "
                              "config")


def _check_interior(opt: designer.OptimalResult) -> None:
    """Refuse an optimum at either end of a grid of three or more points:
    the signal may still rise beyond the grid (an input error, exit 2)."""
    i = int(np.argmax(opt.merit.detected_signal))
    if opt.grid.size >= 3 and i in (0, opt.grid.size - 1):
        end, key = ("lower", "sweep.min") if i == 0 else ("upper", "sweep.max")
        raise ConfigError(f"the detected signal peaks at the {end} end of the "
                          f"sweep grid (z_R = {opt.grid[i]:g} m), so the "
                          f"optimum may lie beyond it; move {key}")


# An absurd magnitude in a config (laser.power = 1e-320 W) makes the design
# numerics divide by zero or overflow; _check_design_output refuses every
# non-finite value they would write, so numpy's warnings would only add
# lines to its one-line error. The same holds for cmd_sweep.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def cmd_design(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.spec
    opt = designer.optimal_rayleigh(spec)
    focal = beam_optics.focal_length_for_rayleigh(
        opt.rayleigh_length, spec.context.incident_beam_diameter,
        spec.context.wavelength)
    choice = designer.recommend_lens(cfg.catalog, spec)
    report = {
        "optimal_rayleigh_length_m": opt.rayleigh_length,
        "twice_optimal_rayleigh_length_m": 2.0 * opt.rayleigh_length,
        "detected_signal_at_optimum": opt.detected_signal,
        "unimodal": opt.unimodal,
        "unconstrained_focal_length_m": focal,
        "recommended_lens": {
            "name": choice.name,
            "focal_length_m": choice.focal_length,
            "detected_signal": choice.detected_signal,
            "waist_radius_m": choice.waist_radius,
            "rayleigh_length_m": choice.rayleigh_length,
            "spot_diameter_m": 2.0 * choice.waist_radius,
        },
    }
    if cfg.fiber_core_diameter and cfg.fiber_magnification:
        report["fiber_detection_proportion"] = collection.detection_proportion(
            cfg.fiber_core_diameter / 2.0, cfg.fiber_magnification,
            choice.waist_radius)
    rows = designer.sweep_rows(opt.grid, opt.merit)
    columns = [rows[name] for name in designer.SWEEP_HEADER]
    conditions = nv_rates.condition_numbers(
        spec.context.rates, spec.context.pump,
        opt.merit.power_density).tolist()
    report["steady_state_condition_min"] = min(conditions)
    report["steady_state_condition_max"] = max(conditions)
    report["golden_evaluations"] = opt.golden_evaluations
    _check_design_output(
        opt.detected_signal, *columns,
        [v for v in (*report.values(), *report["recommended_lens"].values())
         if isinstance(v, float)])
    _check_interior(opt)
    out = _out_dir(args, cfg)
    write_csv(out / "sweep.csv", designer.SWEEP_HEADER, map(cells, columns))
    write_json(out / "design_report.json", report)
    print(f"optimal z_R = {opt.rayleigh_length * 1e6:.1f} um "
          f"(2 z_R = {2 * opt.rayleigh_length * 1e6:.1f} um), "
          f"F* = {focal * 1e3:.2f} mm, "
          f"recommended lens: {choice.name}")
    return EXIT_OK


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.spec
    n = args.points or len(spec.grid)
    if args.variable == "detection-proportion":
        lo = float(args.grid_min) if args.grid_min else 1e-6
        hi = float(args.grid_max) if args.grid_max else 1.0
        cfm_focal = parse_quantity(args.cfm_focal, "length")
        opt = designer.optimal_rayleigh(spec)
        proportion, ratio = np.array(designer.cfm_comparison(
            spec, cfm_focal, np.geomspace(lo, hi, n), opt)).T
        # the ratio is positive exactly when the optimum's signal is
        _check_design_output(float(ratio.min()), proportion, ratio)
        _check_interior(opt)
        path = _out_dir(args, cfg) / "cfm_comparison.csv"
        write_csv(path, ("proportion", "lrcfm_cfm_ratio"),
                  (cells(proportion), cells(ratio)))
        print(f"wrote {path}")
        return EXIT_OK
    variable = {"rayleigh": "rayleigh_length", "waist": "waist_radius"}[
        args.variable]
    lo = parse_quantity(args.grid_min, "length") if args.grid_min else spec.grid[0]
    hi = parse_quantity(args.grid_max, "length") if args.grid_max else spec.grid[-1]
    rows = designer.sweep(dataclasses.replace(
        spec, variable=variable, grid=designer.default_grid(lo, hi, n)))
    columns = [rows[name] for name in designer.SWEEP_HEADER]
    _check_design_output(float(rows["detected_signal"].max()), *columns)
    path = _out_dir(args, cfg) / "sweep.csv"
    write_csv(path, designer.SWEEP_HEADER, map(cells, columns))
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _read_pixel_files(model: str, files) -> list[traces.Traces]:
    """The pixel files' stacks (`read_traces`); a stack whose tau grid is
    too short for `model` is refused by its first file."""
    stacks = traces.read_traces(files)
    for stack in stacks:
        with located(files[stack.rows[0]]):
            pulse_fit.check_points(model, len(stack.tau))
    return stacks


def cmd_fit(args) -> int:
    data = _read_pixel_files(args.model, [args.input])[0].series(0)
    init = None if args.init is None else np.array(
        [float(v) for v in args.init.split(",")])
    # a constant file is refused by its name, an --init refusal is not
    with located(args.input, pulse_fit.UnidentifiableDataError):
        result = pulse_fit.fit(args.model, data, init=init)
    out = _out_dir(args)
    write_json(out / f"fit_{args.model}.json", dataclasses.asdict(result))
    params = ", ".join(f"a{i + 1}={p:.6g}"
                       for i, p in enumerate(result.params))
    print(f"{args.model}: converged={result.converged} "
          f"iterations={result.iterations} {params}")
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_map(args) -> int:
    x, y, files, pitch = load_manifest(args.manifest)
    stacks = _read_pixel_files(args.model, files)
    data = mapping.Dataset(x, y, stacks)
    if args.pitch is not None:
        pitch = parse_quantity(args.pitch, "length")
    pixel_map = mapping.assemble(data, args.model, pitch=pitch)
    try:
        map_stats = mapping.stats(pixel_map)
    except ValueError:
        print("numerical failure: no valid pixels", file=sys.stderr)
        return EXIT_NUMERICAL
    out = _out_dir(args)
    mapping.write_map_csv(pixel_map, out / "map.csv")
    write_json(out / "stats.json", dataclasses.asdict(map_stats))
    write_json(out / "map.json", mapping.map_to_json_dict(pixel_map))
    print(f"map {pixel_map.nx}x{pixel_map.ny}: mean={map_stats.mean:.6g} "
          f"{pixel_map.units}, valid={map_stats.n_valid}, "
          f"missing={map_stats.n_missing}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params, tau, origin, pitch = load_truth(args.truth, args.model)
    data = mapping.synth_map(params, args.model, tau, args.noise, args.seed,
                             origin=origin, pitch=pitch)
    out = _out_dir(args)
    manifest = dataset_manifest(args.model, data.x, data.y, params.shape[1],
                                pitch, args.noise, args.seed)
    traces.write_traces([out / pixel["file"] for pixel in manifest["pixels"]],
                        *data.traces)
    write_json(out / "manifest.json", manifest)
    print(f"wrote {len(data.x)} pixel files to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
