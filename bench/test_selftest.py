"""Self-test of the benchmark: run it with ``python3 -m pytest bench``
from the root of a source checkout. All files go under .bench_work/."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work" / "selftest"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name
        if name.endswith(".self_s"):
            assert m["value"] >= 0, name
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_layers_separate():
    def layers(workload):
        done = run_bench(workload, 1)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        return {name: m["value"] for name, m in metrics.items()}

    design, rabi, decay = (layers(w) for w in
                           ("design_scan", "map_rabi", "map_decay"))
    assert design["pulse_fit.fit.calls"] == 0
    assert rabi["designer.sweep.calls"] == 0
    assert decay["designer.sweep.calls"] == 0
    assert rabi["pulse_fit.fit.map_share"] >= 0.9
    assert (decay["pulse_fit.TimeSeries.from_csv.map_share"]
            > rabi["pulse_fit.TimeSeries.from_csv.map_share"])


def test_fails_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("design_scan", 0, cwd=bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture(scope="module")
def decay_op():
    import lrcfm.cli
    work = WORK / "decay"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.MapDecay(ROOT, work, seed=5)
    workload.setup(lrcfm.cli.main)
    result = workload.run_op(lrcfm.cli.main, 0)
    truth = workloads.t1_truth(np.random.default_rng([5, 0]))[2]
    return work / "out_t1", truth, result


def recheck(out, truth):
    """(failed pixels, whether the operation broke) for a t1 map."""
    result = workloads.OpResult()
    workloads.check_map(out, 0, truth, "t1", result)
    return result.failed, result.broken


def test_clean_map_passes(decay_op):
    out, truth, result = decay_op
    assert result.failed == 0 and result.attempted == 2 * truth.size
    assert not result.broken
    assert recheck(out, truth) == (0, False)


def test_dropped_pixel_fails(decay_op):
    out, truth, _ = decay_op
    map_csv = out / "map.csv"
    original = map_csv.read_text()
    try:
        lines = original.splitlines()
        map_csv.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        assert recheck(out, truth) == (1, True)
        x, y, _, units = lines[5].split(",")
        lines[5] = f"{x},{y},,{units}"
        map_csv.write_text("\n".join(lines) + "\n")
        assert recheck(out, truth) == (1, True)
        # a wrong value fails its pixel but not the operation
        x, y, value, units = original.splitlines()[5].split(",")
        lines[5] = f"{x},{y},{float(value) * 2},{units}"
        map_csv.write_text("\n".join(lines) + "\n")
        assert recheck(out, truth) == (1, False)
    finally:
        map_csv.write_text(original)


def test_miscounted_stats_fail_every_pixel(decay_op):
    out, truth, _ = decay_op
    stats = out / "stats.json"
    original = stats.read_text()
    try:
        data = json.loads(original)
        data["n_missing"] += 1
        stats.write_text(json.dumps(data))
        assert recheck(out, truth) == (truth.size, True)
    finally:
        stats.write_text(original)


def test_design_checks():
    import lrcfm.cli
    work = WORK / "design"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.DesignScan(ROOT, work, seed=5)
    workload.setup(lrcfm.cli.main)
    assert workload.run_op(lrcfm.cli.main, 0).failed == 0
    report_path = work / "out" / "design_report.json"
    report = json.loads(report_path.read_text())
    thickness = 2 * report["optimal_rayleigh_length_m"]
    assert workloads.check_design(work / "out", (0, 0), thickness,
                                  workloads.OpResult()) is None
    assert workloads.check_design(work / "out", (0, 0), thickness * 1.01,
                                  workloads.OpResult()) is not None
    assert workloads.check_design(work / "out", (0, 2), thickness,
                                  workloads.OpResult()) is not None
    del report["unimodal"]
    report_path.write_text(json.dumps(report))
    assert workloads.check_design(work / "out", (0, 0), thickness,
                                  workloads.OpResult()) is not None
