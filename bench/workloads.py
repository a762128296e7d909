"""Seeded inputs, operations and output checks for each workload.

An operation calls ``lrcfm.cli.main(argv)`` in this process and times only
those calls. Input generation and output checks run outside the timed
region. Every input is drawn from ``numpy.random.default_rng([seed, i])``
for operation ``i``, so running an operation twice repeats it exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NX, NY, PITCH_UM = 7, 21, 50.0
N_PIXELS = NX * NY
N_TAU = 120

# every design_scan session must satisfy the design law this closely
LAW_TOLERANCE = 1e-3
CFM_POINTS = 50
# per-pixel relative tolerance on the mapped value: the pi time for rabi,
# a2 for t1/t2 (largest error seen while sizing: 0.2% rabi, 6% t2)
PIXEL_TOLERANCE = {"rabi": 0.02, "t1": 0.25, "t2": 0.25}

REPORT_KEYS = ("optimal_rayleigh_length_m", "twice_optimal_rayleigh_length_m",
               "detected_signal_at_optimum", "unimodal",
               "unconstrained_focal_length_m", "recommended_lens",
               "fiber_detection_proportion")
LENS_KEYS = ("name", "focal_length_m", "detected_signal", "waist_radius_m",
             "rayleigh_length_m", "spot_diameter_m")


@dataclass
class OpResult:
    """One operation: its wall time, the wall time of its `map` commands,
    the units it attempted and failed, and one relative error per unit.

    ``broken`` marks a failed operation: a command failed, or an output is
    missing or malformed, or a design check failed. A mapped value outside
    its tolerance fails only its pixel; at the seed about 1% of rabi
    pixels do (see ``rabi_truth``)."""

    wall_s: float = 0.0
    map_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    broken: bool = False
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # (command, wall seconds) for each cli.main call
    commands: list = field(default_factory=list)


def call_main(main, argv, result: OpResult) -> int:
    """Run one CLI command, time it, and keep its stdout out of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = main([str(a) for a in argv])
        wall = time.perf_counter() - start
    result.wall_s += wall
    command = next(a for a in argv if a in
                   ("design", "sweep", "map", "simulate", "fit"))
    result.commands.append((command, wall))
    if command == "map":
        result.map_wall_s += wall
    return code


def clear(directory: Path) -> None:
    """Remove a previous operation's outputs, so a command that exits 0
    without writing cannot pass on stale files."""
    if directory.is_dir():
        for path in directory.iterdir():
            path.unlink()


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


class DesignScan:
    """One design session per operation: ``design`` then ``sweep
    --variable detection-proportion`` on the shipped config with sample
    thickness and laser power redrawn."""

    name = "design_scan"
    units_per_op = 1

    def __init__(self, root: Path, work: Path, seed: int):
        self.data = root / "src" / "lrcfm" / "data"
        self.work = work
        self.seed = seed

    def setup(self, main) -> None:
        self.base = (self.data / "example_config.txt").read_text()

    def config_text(self, thickness_um: float, power_mw: float) -> str:
        lines = []
        for line in self.base.splitlines():
            key = line.split("=", 1)[0].strip()
            if key == "sample.thickness":
                line = f"sample.thickness = {thickness_um!r} um"
            elif key == "laser.power":
                line = f"laser.power = {power_mw!r} mW"
            elif key in ("rates", "lens.catalog"):
                value = line.split("=", 1)[1].strip()
                line = f"{key} = {(self.data / value).resolve()}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def run_op(self, main, i: int) -> OpResult:
        rng = np.random.default_rng([self.seed, i])
        # law holds to ~1e-5 for t >= 500 um at every power in 1-100 mW;
        # 200 um at 100 mW saturates and breaks it
        thickness_um = float(_log_uniform(rng, 500.0, 5000.0))
        power_mw = float(_log_uniform(rng, 1.0, 100.0))
        cfg = self.work / "session.cfg"
        out = self.work / "out"
        cfg.write_text(self.config_text(thickness_um, power_mw))
        clear(out)
        result = OpResult(attempted=1)
        codes = (call_main(main, ["--out", out, "design", "--config", cfg],
                           result),
                 call_main(main, ["--out", out, "sweep", "--config", cfg,
                                  "--variable", "detection-proportion",
                                  "--points", CFM_POINTS], result))
        problem = check_design(out, codes, thickness_um * 1e-6, result)
        if problem:
            result.failed = 1
            result.broken = True
            result.notes.append(f"session {i}: {problem}")
        return result


def check_design(out: Path, codes, thickness: float, result: OpResult):
    """None if the session's outputs are right, else the first problem.
    Appends |2 z_R* / t - 1| to result.errors."""
    if any(codes):
        return f"exit codes {codes}"
    try:
        report = json.loads((out / "design_report.json").read_text())
        missing = [k for k in REPORT_KEYS if k not in report]
        missing += [k for k in LENS_KEYS
                    if k not in report.get("recommended_lens", {})]
        if missing:
            return f"design_report.json lacks {missing}"
        if report["unimodal"] is not True:
            return "sweep is not unimodal"
        law = abs(2.0 * report["optimal_rayleigh_length_m"] / thickness - 1)
        result.errors.append(law)
        if not law < LAW_TOLERANCE:
            return f"|2 z_R*/t - 1| = {law:.3g}"
        with open(out / "sweep.csv", newline="") as fh:
            sweep_rows = list(csv.reader(fh))
        if len(sweep_rows) != 201:
            return f"sweep.csv has {len(sweep_rows) - 1} rows, not 200"
        with open(out / "cfm_comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["proportion", "lrcfm_cfm_ratio"]:
            return f"cfm_comparison.csv header {rows[0]}"
        table = np.array(rows[1:], dtype=float)
        if table.shape != (CFM_POINTS, 2):
            return f"cfm_comparison.csv has shape {table.shape}"
        # the ratio is inversely proportional to the CFM proportion
        product = table[:, 0] * table[:, 1]
        if not (np.all(np.isfinite(product)) and np.all(product > 0)
                and np.ptp(product) <= 1e-9 * product[0]):
            return "cfm ratio is not proportional to 1/proportion"
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def check_map(out: Path, code: int, truth: np.ndarray, model: str,
              result: OpResult) -> None:
    """Per-pixel check of map.csv against the truth map (ny, nx): a pixel
    fails when it is absent, empty or outside PIXEL_TOLERANCE. All pixels
    fail when the command failed or stats.json miscounts them. Anything
    but a value outside its tolerance also breaks the operation."""
    result.attempted += truth.size
    if code != 0:
        result.failed += truth.size
        result.broken = True
        result.notes.append(f"{model} map exit code {code}")
        return
    try:
        stats = json.loads((out / "stats.json").read_text())
        if stats["n_valid"] + stats["n_missing"] != truth.size:
            raise ValueError(f"n_valid + n_missing = "
                             f"{stats['n_valid'] + stats['n_missing']}")
        mapped = np.full(truth.shape, np.nan)
        with open(out / "map.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                ix = round(float(row["x_um"]) / PITCH_UM)
                iy = round(float(row["y_um"]) / PITCH_UM)
                if row["value"] and 0 <= iy < truth.shape[0] \
                        and 0 <= ix < truth.shape[1]:
                    mapped[iy, ix] = float(row["value"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.failed += truth.size
        result.broken = True
        result.notes.append(f"{model} map output: {exc!r}")
        return
    missing = np.isnan(mapped)
    err = np.abs(mapped / truth - 1.0)
    bad = ~(err <= PIXEL_TOLERANCE[model])
    result.failed += int(bad.sum())
    if missing.any():
        result.broken = True
        result.notes.append(f"{model} map: {int(missing.sum())} pixels "
                            f"missing")
    if (bad & ~missing).any():
        result.notes.append(f"{model} map: {int((bad & ~missing).sum())} "
                            f"pixels outside tolerance")
    result.errors.extend(err[~bad].tolist())


def rabi_truth(rng):
    """Rabi field (a1..a5 per pixel) and its tau grid. Frequency and decay
    vary across the field and the phase is uniform, so the phase restarts
    matter. The tau grid is uniform, as ``simulate``'s own tau spec makes
    it. On it a frequency +-a3 + k/dtau gives the same samples as a3, and
    at the seed the fitter converges to such an alias on about 1% of
    pixels; those pixels fail their check."""
    shape = (NY, NX)
    params = np.stack([
        np.ones(shape),
        _log_uniform(rng, 1.5e-6, 5e-6, shape),
        _log_uniform(rng, 1e6, 3e6, shape),
        rng.uniform(-math.pi, math.pi, shape),
        np.full(shape, 0.5),
    ], axis=-1)
    tau = np.linspace(0.0, 4e-6, N_TAU)
    return params, tau, 1.0 / (2.0 * params[..., 2])


def t1_truth(rng):
    shape = (NY, NX)
    params = np.stack([rng.uniform(0.8, 1.2, shape),
                       _log_uniform(rng, 0.5e-3, 1.5e-3, shape),
                       rng.uniform(0.2, 0.4, shape)], axis=-1)
    return params, np.linspace(0.0, 5e-3, N_TAU), params[..., 1]


def t2_truth(rng):
    shape = (NY, NX)
    params = np.stack([rng.uniform(0.5, 1.0, shape),
                       _log_uniform(rng, 10e-6, 40e-6, shape),
                       rng.uniform(1.0, 2.5, shape)], axis=-1)
    return params, np.linspace(0.0, 160e-6, N_TAU + 1)[1:], params[..., 1]


def write_truth(path: Path, model: str, params, tau) -> None:
    path.write_text(json.dumps({"model": model, "nx": NX, "ny": NY,
                                "params": params.tolist(),
                                "tau_s": tau.tolist(),
                                "pitch_um": PITCH_UM}))


class MapRabi:
    """One ``map --model rabi`` per operation, cycling over FIELDS seeded
    fields that ``simulate`` writes during setup (noise sigma 0.02 on a
    unit amplitude).

    Each set-up writes its fields into a new directory and leaves the
    previous ones until the next run clears the work directory. Rewriting
    the files in place made the file system flush them on close, so
    set-up time followed the disk; deleting them inside the set-up would
    time the deletions."""

    name = "map_rabi"
    units_per_op = N_PIXELS
    FIELDS = 8
    NOISE = 0.02

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.setups = 0

    def setup(self, main) -> None:
        self.setups += 1
        self.data = self.work / f"setup{self.setups}"
        self.data.mkdir()
        self.truth = []
        for k in range(self.FIELDS):
            params, tau, truth = rabi_truth(
                np.random.default_rng([self.seed, 10_000 + k]))
            path = self.data / f"truth{k}.json"
            write_truth(path, "rabi", params, tau)
            result = OpResult()
            code = call_main(main, ["--out", self.data / f"field{k}",
                                    "--seed", self.seed * 100 + k, "simulate",
                                    "--model", "rabi", "--truth", path,
                                    "--noise", self.NOISE], result)
            if code != 0:
                raise RuntimeError(f"simulate exited with {code}")
            self.truth.append(truth)

    def run_op(self, main, i: int) -> OpResult:
        k = i % self.FIELDS
        out = self.work / "out"
        clear(out)
        result = OpResult()
        code = call_main(main, ["--out", out, "map", "--model", "rabi",
                                "--manifest", self.data / f"field{k}"],
                         result)
        check_map(out, code, self.truth[k], "rabi", result)
        if i >= self.FIELDS:
            result.errors = []  # each field's errors count once
        return result


class MapDecay:
    """Per operation: ``simulate`` then ``map`` for one fresh t1 field and
    one fresh t2 field (noise sigma 0.01)."""

    name = "map_decay"
    units_per_op = 2 * N_PIXELS
    NOISE = 0.01

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self, main) -> None:
        pass

    def run_op(self, main, i: int) -> OpResult:
        rng = np.random.default_rng([self.seed, i])
        fields = []
        for model, make in (("t1", t1_truth), ("t2", t2_truth)):
            params, tau, truth = make(rng)
            path = self.work / f"truth_{model}.json"
            write_truth(path, model, params, tau)
            clear(self.work / f"data_{model}")
            clear(self.work / f"out_{model}")
            fields.append((model, path, truth))
        result = OpResult()
        sim_seed = int(rng.integers(2**31))
        for model, path, _ in fields:
            code = call_main(main, ["--out", self.work / f"data_{model}",
                                    "--seed", sim_seed, "simulate", "--model",
                                    model, "--truth", path, "--noise",
                                    self.NOISE], result)
            if code != 0:
                result.broken = True
                result.notes.append(f"{model} simulate exit code {code}")
        for model, _, truth in fields:
            out = self.work / f"out_{model}"
            code = call_main(main, ["--out", out, "map", "--model", model,
                                    "--manifest", self.work / f"data_{model}"],
                             result)
            check_map(out, code, truth, model, result)
        return result
