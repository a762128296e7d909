"""Command-line front end.

Subcommands: design, sweep, fit, map, simulate. Exit codes: 0 success,
2 input/config error or an output that cannot be written (any OSError,
such as a full disk or an --out that names a file), 3 numerical failure,
4 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import (beam_optics, collection, designer, mapping, nv_rates,
               pulse_fit, traces)
from .config import ConfigError, load_config
from .io import atomic_write
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
    # first: np.linalg.LinAlgError is a ValueError subclass
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # ConfigError, UnitError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


_NUMBER = (int, float)


def _entry(obj, key: str, where: str, kind, default=None):
    """obj[key] of JSON type `kind` (`default` when given and the key is
    absent). A missing key or a value of another type is an input error,
    not a KeyError or TypeError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    if key not in obj and default is not None:
        return default
    if key not in obj:
        raise ConfigError(f"{where}: missing {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}: {key!r} has the wrong type: {value!r}")
    return value


def _count(obj, key: str, where: str) -> int:
    """obj[key] as a whole number of at least 1."""
    value = _entry(obj, key, where, _NUMBER)
    if not (value >= 1 and float(value).is_integer()):
        raise ConfigError(f"{where}: {key!r} must be a whole number of at "
                          f"least 1, got {value!r}")
    return int(value)


def _floats(obj, key: str, where: str) -> np.ndarray:
    """obj[key] as a float array: a finite number or a (nested) list of
    finite numbers."""
    value = _entry(obj, key, where, (list, *_NUMBER))
    try:
        values = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: {key!r} must hold numbers") from None
    if not np.isfinite(values).all():
        raise ConfigError(f"{where}: {key!r} must hold finite numbers")
    return values


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
    out = _out_dir(args, cfg)
    spec = designer.SweepSpec("rayleigh_length", cfg.sweep_grid(),
                              cfg.sweep_context())
    opt = designer.optimal_rayleigh(spec)
    focal = beam_optics.focal_length_for_rayleigh(
        opt.rayleigh_length, cfg.incident_beam_diameter, cfg.wavelength)
    catalog = cfg.catalog if cfg.catalog is not None else designer.default_catalog()
    choice = designer.recommend_lens(catalog, spec)
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
    conditions = nv_rates.condition_numbers(
        spec.context.rates, spec.context.pump,
        opt.merit.power_density).tolist()
    report["steady_state_condition_min"] = min(conditions)
    report["steady_state_condition_max"] = max(conditions)
    report["golden_evaluations"] = opt.golden_evaluations
    _check_design_output(
        opt.detected_signal, [row.astuple() for row in rows],
        [v for v in (*report.values(), *report["recommended_lens"].values())
         if isinstance(v, float)])
    _check_interior(opt)
    designer.write_sweep_csv(rows, out / "sweep.csv")
    atomic_write(out / "design_report.json",
                 json.dumps(report, indent=2) + "\n")
    print(f"optimal z_R = {opt.rayleigh_length * 1e6:.1f} um "
          f"(2 z_R = {2 * opt.rayleigh_length * 1e6:.1f} um), "
          f"F* = {focal * 1e3:.2f} mm, "
          f"recommended lens: {choice.name}")
    return EXIT_OK


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    if args.variable == "detection-proportion":
        lo = float(args.grid_min) if args.grid_min else 1e-6
        hi = float(args.grid_max) if args.grid_max else 1.0
        n = args.points or cfg.sweep_points
        cfm_focal = parse_quantity(args.cfm_focal, "length")
        spec = designer.SweepSpec("rayleigh_length", cfg.sweep_grid(),
                                  cfg.sweep_context())
        opt = designer.optimal_rayleigh(spec)
        table = designer.cfm_comparison(spec, cfm_focal,
                                        np.geomspace(lo, hi, n), opt)
        # the ratio is positive exactly when the optimum's signal is
        _check_design_output(min(ratio for _, ratio in table), table)
        _check_interior(opt)
        lines = ["proportion,lrcfm_cfm_ratio"]
        lines += [f"{repr(float(p))},{repr(float(r))}" for p, r in table]
        path = out / "cfm_comparison.csv"
        atomic_write(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")
        return EXIT_OK
    variable = {"rayleigh": "rayleigh_length", "waist": "waist_radius"}[
        args.variable]
    lo = parse_quantity(args.grid_min, "length") if args.grid_min else cfg.sweep_min
    hi = parse_quantity(args.grid_max, "length") if args.grid_max else cfg.sweep_max
    n = args.points or cfg.sweep_points
    grid = designer.default_grid(lo, hi, n)
    spec = designer.SweepSpec(variable, grid, cfg.sweep_context())
    rows = designer.sweep(spec)
    _check_design_output(max(row.detected_signal for row in rows),
                         [row.astuple() for row in rows])
    path = out / "sweep.csv"
    designer.write_sweep_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_fit(args) -> int:
    data = pulse_fit.TimeSeries.from_csv(args.input)
    init = None
    if args.init is not None:
        init = np.array([float(v) for v in args.init.split(",")])
    result = pulse_fit.fit(args.model, data, init=init)
    out = _out_dir(args)
    path = out / f"fit_{args.model}.json"
    pulse_fit.write_fit_json(result, path)
    params = ", ".join(f"a{i + 1}={p:.6g}"
                       for i, p in enumerate(result.params))
    print(f"{args.model}: converged={result.converged} "
          f"iterations={result.iterations} {params}")
    if not result.converged:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_map(args) -> int:
    manifest_path = args.manifest
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    where = f"manifest {manifest_path}"
    base = manifest_path.parent
    pixels = _entry(manifest, "pixels", where, list)
    data = mapping.Dataset(
        np.array([_entry(p, "x_um", where, _NUMBER) * 1e-6 for p in pixels]),
        np.array([_entry(p, "y_um", where, _NUMBER) * 1e-6 for p in pixels]),
        traces.read_traces([os.path.join(base, _entry(p, "file", where, str))
                            for p in pixels]))
    pitch = None
    if args.pitch is not None:
        pitch = parse_quantity(args.pitch, "length")
    elif "pitch_um" in manifest:
        pitch = _entry(manifest, "pitch_um", where, _NUMBER) * 1e-6
    pixel_map = mapping.assemble(data, args.model, pitch=pitch)
    try:
        map_stats = mapping.stats(pixel_map)
    except ValueError:
        print("numerical failure: no valid pixels", file=sys.stderr)
        return EXIT_NUMERICAL
    out = _out_dir(args)
    mapping.write_map_csv(pixel_map, out / "map.csv")
    mapping.write_stats_json(map_stats, out / "stats.json")
    map_json = json.dumps(mapping.map_to_json_dict(pixel_map), indent=2)
    atomic_write(out / "map.json", map_json + "\n")
    print(f"map {pixel_map.nx}x{pixel_map.ny}: mean={map_stats.mean:.6g} "
          f"{pixel_map.units}, valid={map_stats.n_valid}, "
          f"missing={map_stats.n_missing}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    truth = json.loads(args.truth.read_text())
    where = f"truth file {args.truth}"
    model = _entry(truth, "model", where, str, default=args.model)
    if model != args.model:
        raise ConfigError(f"truth file is for model {model!r}, "
                          f"--model says {args.model!r}")
    arity = pulse_fit.MODEL_ARITY[args.model]
    nx = _count(truth, "nx", where)
    ny = _count(truth, "ny", where)
    params = _floats(truth, "params", where)
    if params.shape == (arity,):
        params = np.broadcast_to(params, (ny, nx, arity)).copy()
    elif params.shape != (ny, nx, arity):
        raise ConfigError(f"truth params must have shape ({ny}, {nx}, "
                          f"{arity}) or ({arity},), got {params.shape}")
    if "tau_s" in truth:
        tau = _floats(truth, "tau_s", where)
        if tau.ndim != 1 or not tau.size:
            raise ConfigError(f"{where}: 'tau_s' must be a list of at least "
                              "one delay")
    else:
        spec = _entry(truth, "tau", where, dict)
        tau = np.linspace(float(_entry(spec, "start_s", where, _NUMBER)),
                          float(_entry(spec, "stop_s", where, _NUMBER)),
                          _count(spec, "points", where))
    try:  # a grid `map` would refuse, before any model evaluation
        traces.check_tau(tau)
        pulse_fit.check_points(args.model, len(tau))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    origin = (0.0, 0.0)
    if "origin_um" in truth:
        origin = _floats(truth, "origin_um", where)
        if origin.shape != (2,):
            raise ConfigError(f"{where}: 'origin_um' must be two numbers")
        origin = tuple(1e-6 * float(v) for v in origin)
    pitch = 1e-6 * float(_entry(truth, "pitch_um", where, _NUMBER,
                                default=50.0))
    data = mapping.synth_map(params, args.model, tau, args.noise, args.seed,
                             origin=origin, pitch=pitch)
    out = _out_dir(args)
    pixels = [{"x_um": x, "y_um": y, "file": f"pixel_{iy:03d}_{ix:03d}.csv"}
              for (iy, ix), x, y in zip(np.ndindex(ny, nx),
                                        (data.x * 1e6).tolist(),
                                        (data.y * 1e6).tolist())]
    traces.write_traces([out / pixel["file"] for pixel in pixels],
                        *data.traces)
    manifest = {"model": args.model, "pitch_um": pitch * 1e6,
                "noise_sigma": args.noise, "seed": args.seed,
                "pixels": pixels}
    atomic_write(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(pixels)} pixel files to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
