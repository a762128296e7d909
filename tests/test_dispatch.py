"""Reproducibility across numpy's CPU dispatch.

numpy picks its SIMD kernels at run time, by CPU, and the last bits of a
result can depend on the choice. `NPY_DISABLE_CPU_FEATURES` turns
features off for one process, so a child process can run as on a CPU
without AVX-512 (on a CPU that lacks them already, both children run
alike, and numpy may warn that it cannot disable them). Each child runs
`design`, then `simulate` and `map` for rabi, t1 and t2; the outputs
must agree within the tolerances README states:

- pixel files: the same delays, and readings within machine epsilon
  (2.2e-16) absolute, one unit in the last place on a unit amplitude;
- `sweep.csv` and the floats of `design_report.json`: within 2e-15
  relative, since `np.geomspace` may give other last bits of the grid;
- map values (`map.csv`, `map.json`): within 1e-8 relative, the fitter's
  STEP_TOLERANCE, at which a fit whose iterates differ in their last
  bits stops; missing pixels at the same places;
- every exit code and every `stats.json` count equal.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lrcfm
from lrcfm import pulse_fit

SETTINGS = ("", "X86_V4 AVX512_ICL AVX512_SPR")
TRUTHS = {
    "rabi": {"params": [1.0, 2.5e-6, 1.7e6, 0.4, 0.5],
             "tau": {"start_s": 0, "stop_s": 4e-6, "points": 120}},
    "t1": {"params": [1.0, 1e-3, 0.3], "origin_um": [10, -20],
           "tau": {"start_s": 0, "stop_s": 5e-3, "points": 120}},
    "t2": {"params": [1.0, 2.15e-05, 1.5],
           "tau": {"start_s": 1e-7, "stop_s": 8e-5, "points": 120}},
}
# runs every command of argv lists through the CLI in one process, and
# writes their exit codes
CHILD = """
import json, sys
from lrcfm.cli import main
commands, codes = json.loads(sys.argv[1]), sys.argv[2]
open(codes, "w").write(json.dumps([main(argv) for argv in commands]))
"""


def run_commands(out: Path, features: str) -> list[int]:
    config = lrcfm.data_path("example_config.txt")
    commands = [["--out", out / "design", "design", "--config", config]]
    for model, truth in TRUTHS.items():
        path = out.parent / f"truth_{model}.json"
        path.write_text(json.dumps({"model": model, "nx": 7, "ny": 21,
                                    **truth}))
        commands += [["--out", out / model / "data", "--seed", "42",
                      "simulate", "--model", model, "--truth", path,
                      "--noise", "0.05"],
                     ["--out", out / model / "map", "map", "--model", model,
                      "--manifest", out / model / "data"]]
    package = str(Path(lrcfm.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": features,
           "PYTHONPATH": os.pathsep.join(
               [package, *filter(None, [os.environ.get("PYTHONPATH")])])}
    codes = out.parent / f"codes_{out.name}.json"
    subprocess.run([sys.executable, "-W", "ignore::ImportWarning", "-c",
                    CHILD, json.dumps([[str(a) for a in c] for c in commands]),
                    codes], env=env, check=True, capture_output=True)
    return json.loads(codes.read_text())


def columns(path: Path) -> np.ndarray:
    """The numeric columns of a CSV file, NaN for an empty cell."""
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(cell) if cell else np.nan
                      for cell in row.split(",")[:3]] for row in rows])


def flat(report: dict, prefix="") -> dict:
    """The entries of a JSON object, nested objects' as 'outer.inner'."""
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            out.update(flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def close(a, b, rtol):
    return np.allclose(a, b, rtol=rtol, atol=0.0, equal_nan=True) \
        and np.array_equal(np.isnan(a), np.isnan(b))


def test_outputs_agree_across_dispatch(tmp_path):
    default, narrow = (tmp_path / name for name in ("default", "narrow"))
    codes = [run_commands(out, features)
             for out, features in zip((default, narrow), SETTINGS)]
    assert codes[0] == codes[1] == [0] * 7

    sweep = [np.loadtxt(out / "design" / "sweep.csv", delimiter=",",
                        skiprows=1) for out in (default, narrow)]
    assert close(*sweep, rtol=2e-15)
    reports = [flat(json.loads((out / "design" / "design_report.json")
                               .read_text())) for out in (default, narrow)]
    assert reports[0].keys() == reports[1].keys()
    for key, value in reports[0].items():
        if isinstance(value, float):
            assert close(value, reports[1][key], rtol=2e-15), key
        else:
            assert value == reports[1][key], key

    for model in TRUTHS:
        data = [out / model / "data" for out in (default, narrow)]
        manifest = (data[0] / "manifest.json").read_text()
        assert manifest == (data[1] / "manifest.json").read_text()
        for pixel in json.loads(manifest)["pixels"]:
            a, b = (np.loadtxt(d / pixel["file"], delimiter=",", skiprows=1)
                    for d in data)
            assert np.array_equal(a[:, 0], b[:, 0])
            assert np.abs(a[:, 1] - b[:, 1]).max() <= np.finfo(float).eps

        maps = [out / model / "map" for out in (default, narrow)]
        a, b = (columns(m / "map.csv") for m in maps)
        assert np.array_equal(a[:, :2], b[:, :2])
        assert close(a[:, 2], b[:, 2], rtol=pulse_fit.STEP_TOLERANCE)
        a, b = (json.loads((m / "map.json").read_text()) for m in maps)
        values = [np.array(j.pop("values"), dtype=float) for j in (a, b)]
        assert a == b
        assert close(*values, rtol=pulse_fit.STEP_TOLERANCE)
        a, b = (json.loads((m / "stats.json").read_text()) for m in maps)
        assert {k: v for k, v in a.items() if k.startswith("n_")} == \
            {k: v for k, v in b.items() if k.startswith("n_")}
