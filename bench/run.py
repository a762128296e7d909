#!/usr/bin/env python3
"""lrcfm benchmark: one closed-loop client calling ``lrcfm.cli.main`` in
this process, on seeded inputs, for a fixed number of seconds.

    python3 bench/run.py --workload design_scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``lrcfm`` is imported from its
``src/``. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, from operations run alternately with and without
tracing. The line before it (``info ...``) records the machine, the code
measured and the failure details. ``attempted`` and ``failed`` count
operations; ``pass_frac`` counts units (sessions or pixels). The exit code
is 1 when any operation fails and 2 when the checkout has no
``src/lrcfm``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads: one client, no extra threads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (N_PIXELS, DesignScan, MapDecay, MapRabi,  # noqa: E402
                       OpResult)

WORKLOADS = {w.name: w for w in (DesignScan, MapRabi, MapDecay)}
# set-ups per run, spread over the run so that they sample the same
# machine load as the operations
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import lrcfm.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds(src: Path) -> float:
    """Time `import lrcfm.cli` in a fresh interpreter, as a CLI user pays
    it on every command."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def provenance(root: Path, lrcfm) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lrcfm": getattr(lrcfm, "__version__", "?"),
        "src_sha256": digest.hexdigest()[:16],
        "commit": _git_head(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": _blas_name(),
        "blas_threads": BLAS_THREADS,
    }
    return info


def _git_head(root: Path):
    # without its own .git, git would report an enclosing repository
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def run_op(workload, main, i, log):
    """One operation; an exception fails all of its units."""
    try:
        return workload.run_op(main, i)
    except Exception:  # noqa: BLE001 - the benchmark must keep running
        log.append(traceback.format_exc(limit=3))
        return OpResult(attempted=workload.units_per_op,
                        failed=workload.units_per_op, broken=True,
                        wall_s=float("nan"))


def end_to_end(workload, ops, setup_s) -> dict:
    walls = np.array([r.wall_s for r in ops if np.isfinite(r.wall_s)])
    if not walls.size:  # every operation raised
        walls = np.array([np.nan])
    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    if workload.units_per_op == 1:
        work = len(walls) / walls.sum()
    else:
        work = (sum(r.attempted for r in ops if r.map_wall_s)
                / (sum(r.map_wall_s for r in ops) or np.nan))
    errors = [e for r in ops for e in r.errors]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
        "work_per_s": (float(work), "1/s"),
        "op_p90_ms": (float(np.percentile(walls, 90) * 1e3), "ms"),
        "rel_err_p95": (float(np.percentile(errors, 95)) if errors
                        else float("nan"), "ratio"),
    }


def traced_extras(plain, traced, agg) -> dict:
    """Metrics that combine spans with the benchmark's own timings."""
    def wall(ops, command):
        return sum(w for r in ops for c, w in r.commands if c == command)

    out = {}
    map_wall = wall(traced, "map")
    layers = agg["layers"]
    for name in ("pulse_fit.fit", "pulse_fit.TimeSeries.from_csv"):
        if name in agg["patched"]:
            busy = layers.get(name, {}).get("busy_s", 0.0)
            out[name + ".map_share"] = (busy / map_wall if map_wall else 0.0,
                                        "ratio")
    sim_wall = wall(plain, "simulate")
    sims = sum(1 for r in plain for c, _ in r.commands if c == "simulate")
    out["cli.simulate.pixels_per_s"] = (
        sims * N_PIXELS / sim_wall if sim_wall else 0.0, "1/s")
    plain_wall = sum(r.wall_s for r in plain)
    out["trace.overhead_frac"] = (
        sum(r.wall_s for r in traced) / plain_wall - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    src = root / "src"
    if not (src / "lrcfm" / "cli.py").is_file():
        print(f"error: no lrcfm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lrcfm
    import lrcfm.cli
    if src.resolve() not in Path(lrcfm.__file__).resolve().parents:
        print(f"error: imported lrcfm from {lrcfm.__file__}, not {src}",
              file=sys.stderr)
        return 2

    warning_counts: Counter = Counter()
    warnings.simplefilter("always")
    warnings.showwarning = (
        lambda message, category, *rest: warning_counts.update(
            [category.__name__]))

    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](root, work, args.seed)
    # looked up per call, so the traced passes see the patched cli.main
    main_fn = lambda argv: lrcfm.cli.main(argv)  # noqa: E731

    setups: list = []

    def set_up() -> float:
        """One set-up; returns its duration, which the run does not count."""
        start = time.perf_counter()
        workload.setup(main_fn)
        generate_s = time.perf_counter() - start
        # the probe's own interpreter start-up is not part of the import
        setups.append(generate_s + import_seconds(src))
        return time.perf_counter() - start

    set_up()
    log: list = []
    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        if (len(setups) < SETUP_REPEATS and time.perf_counter() - start
                >= len(setups) * args.seconds / SETUP_REPEATS):
            start += set_up()
        if tracer is None:
            plain.append(run_op(workload, main_fn, i, log))
        else:
            # alternate which pass runs first, so neither gets warmer caches
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                if with_trace:
                    tracer.install(lrcfm)
                    index = tracer.open("bench.op")
                    try:
                        traced.append(run_op(workload, main_fn, i, log))
                    finally:
                        tracer.close(index)
                        tracer.new_operation()
                        tracer.uninstall()
                else:
                    plain.append(run_op(workload, main_fn, i, log))
        i += 1
    while len(setups) < SETUP_REPEATS:
        set_up()
    setup_s = statistics.median(setups)

    ops = plain + traced
    units = sum(r.attempted for r in ops)
    units_failed = sum(r.failed for r in ops)
    failed = sum(r.broken for r in ops)
    if tracer is None:
        metrics = end_to_end(workload, plain, setup_s)
    else:
        agg = tracer.aggregate()
        metrics = layer_metrics(agg, len(traced))
        metrics["warnings.count"] = (sum(warning_counts.values()) / len(ops),
                                     "count/op")
        metrics.update(traced_extras(plain, traced, agg))
        tracer.save(work / "spans.npz")

    walls = [r.wall_s for r in plain if np.isfinite(r.wall_s)]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "units": units, "units_failed": units_failed,
        "fail_frac": units_failed / units,
        # reported, not gated: too unsteady on a shared machine
        "op_p50_ms": float(np.median(walls)) * 1e3 if walls else None,
        "warnings": dict(warning_counts),
        "setup_runs_s": [round(s, 6) for s in setups],
        "notes": [n for r in ops for n in r.notes][:20],
        "exceptions": log[:3],
        "machine": provenance(root, lrcfm),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    print(f"{'fail_frac':<44} {info['fail_frac']:.6g} ratio")
    if info["op_p50_ms"] is not None:
        print(f"{'op_p50_ms':<44} {info['op_p50_ms']:.6g} ms")
    print("info " + json.dumps(info))
    correct = failed == 0 and not log
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value if np.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
