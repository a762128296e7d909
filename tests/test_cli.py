import json
import pathlib
import shutil
import sys
import warnings

import numpy as np
import pytest

import lrcfm
from lrcfm import beam_optics, designer, nv_rates, pulse_fit
from lrcfm.cli import main
from lrcfm.config import load_config


@pytest.fixture()
def config_dir(tmp_path):
    for name in ("example_config.txt", "nv_rates_example.txt",
                 "lens_catalog.csv"):
        shutil.copy(lrcfm.data_path(name), tmp_path / name)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def run_showing_warnings(*argv):
    """run(*argv) with every warning printed to stderr, as a run from the
    shell prints it (pytest records warnings instead)."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename,
                                                lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        return run(*argv)


def test_usage_errors():
    assert run() == 4
    assert run("frobnicate") == 4
    assert run("design") == 4  # missing --config
    assert run("fit", "--model", "t3", "--input", "x.csv") == 4
    assert run("--threads", "2", "design", "--config", "x.txt") == 4
    for points in ("0", "-3"):
        assert run("sweep", "--config", "x.txt", "--variable", "rayleigh",
                   "--points", points) == 4


def test_missing_config_is_input_error(tmp_path, capsys):
    code = run("--out", tmp_path, "design", "--config",
               tmp_path / "nope.txt")
    assert code == 2
    assert "nope.txt" in capsys.readouterr().err


def test_missing_rates_file_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "run.txt"
    cfg.write_text(
        "laser.wavelength = 532 nm\nlaser.power = 10 mW\n"
        "laser.incident_beam_diameter = 0.9 mm\n"
        "sample.thickness = 500 um\nrates = absent_rates.txt\n")
    code = run("--out", tmp_path, "design", "--config", cfg)
    assert code == 2
    assert "absent_rates.txt" in capsys.readouterr().err


def test_design_end_to_end(config_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = run("--out", out, "design", "--config",
               config_dir / "example_config.txt")
    assert code == 0
    report = json.loads((out / "design_report.json").read_text())
    assert report["twice_optimal_rayleigh_length_m"] == \
        pytest.approx(500e-6, rel=0.05)
    assert report["unconstrained_focal_length_m"] == \
        pytest.approx(17.3e-3, rel=0.01)
    assert report["recommended_lens"]["name"] == "achromat-19mm"
    assert 0 < report["fiber_detection_proportion"] <= 1
    assert report["unimodal"] is True
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("variable,volume_m3,icw,polarization,product,"
                        "detection_rate,detected_signal")
    assert len(lines) == 201
    assert "recommended lens" in capsys.readouterr().out


def test_design_sweeps_once(config_dir, tmp_path, monkeypatch):
    config = config_dir / "example_config.txt"
    sizes = []
    evaluate = designer._evaluate

    def counting(focal, *args):
        sizes.append(np.size(focal))
        return evaluate(focal, *args)

    monkeypatch.setattr(designer, "_evaluate", counting)
    assert run("--out", tmp_path / "design", "design", "--config", config) == 0
    # one 200-point grid sweep; the golden-section search and the lens
    # catalog take a few smaller calls
    assert sizes.count(200) == 1 and max(sizes) == 200
    assert len(sizes) <= 7
    assert run("--out", tmp_path / "sweep", "sweep", "--config", config,
               "--variable", "rayleigh") == 0
    assert (tmp_path / "design" / "sweep.csv").read_bytes() == \
        (tmp_path / "sweep" / "sweep.csv").read_bytes()


def test_design_report_diagnostics(config_dir, tmp_path, monkeypatch):
    config = config_dir / "example_config.txt"
    searches = []
    golden_max = designer._golden_max

    def recording(fun, lo, hi, rtol):
        points = set()

        def counting(zr):
            points.update(zr.tolist())
            return fun(zr)

        result = golden_max(counting, lo, hi, rtol)
        searches.append((result[2], len(points)))
        return result

    monkeypatch.setattr(designer, "_golden_max", recording)
    assert run("--out", tmp_path, "design", "--config", config) == 0
    report = json.loads((tmp_path / "design_report.json").read_text())
    cfg = load_config(config)
    ctx = cfg.sweep_context()
    w0 = beam_optics.waist_from_lens(
        beam_optics.focal_length_for_rayleigh(
            np.array(cfg.sweep_grid()), ctx.incident_beam_diameter,
            ctx.wavelength), ctx.incident_beam_diameter, ctx.wavelength)
    region = beam_optics.excitation_region(w0, ctx.sample_thickness,
                                           ctx.laser_power, ctx.wavelength)
    conditions = nv_rates.condition_numbers(
        ctx.rates, ctx.pump, region.mean_power_density).tolist()
    assert report["steady_state_condition_min"] == min(conditions)
    assert report["steady_state_condition_max"] == max(conditions)
    assert 1.0 < min(conditions) < max(conditions)
    # the points the search used (17, as the one-point-per-call search in
    # test_golden_search counts them), not the points it evaluated
    ((used, evaluated),) = searches
    assert report["golden_evaluations"] == used == 17 < evaluated


def test_design_default_catalog(config_dir, tmp_path):
    full = config_dir / "example_config.txt"
    bare = config_dir / "no_catalog.txt"
    bare.write_text("".join(line for line in
                            full.read_text().splitlines(keepends=True)
                            if not line.startswith("lens.catalog")))
    reports = []
    for name, config in (("full", full), ("bare", bare)):
        out = tmp_path / name
        assert run("--out", out, "design", "--config", config) == 0
        reports.append(json.loads((out / "design_report.json").read_text()))
    assert reports[0]["recommended_lens"] == reports[1]["recommended_lens"]


def test_failed_write_keeps_previous_output(config_dir, tmp_path,
                                            monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ("--out", out, "design", "--config",
            config_dir / "example_config.txt")
    assert run(*argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_replace(self, target):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(pathlib.Path, "replace", failing_replace)
    assert run(*argv) == 2
    assert "simulated rename failure" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # --out naming a file: mkdir fails with FileExistsError
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory\n")
    assert run("--out", blocked, *argv[2:]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(blocked) in err
    assert blocked.read_text() == "not a directory\n"


def test_sweep_csv_repeatable(config_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("--out", out, "sweep", "--config",
                   config_dir / "example_config.txt",
                   "--variable", "rayleigh", "--points", "32") == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_waist_and_custom_grid(config_dir, tmp_path):
    out = tmp_path / "out"
    assert run("--out", out, "sweep", "--config",
               config_dir / "example_config.txt", "--variable", "waist",
               "--points", "8", "--min", "1 um", "--max", "100 um") == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 9
    first = float(lines[1].split(",")[0])
    assert first == pytest.approx(1e-6)


def test_sweep_detection_proportion(config_dir, tmp_path):
    out = tmp_path / "out"
    assert run("--out", out, "sweep", "--config",
               config_dir / "example_config.txt",
               "--variable", "detection-proportion", "--points", "16") == 0
    lines = (out / "cfm_comparison.csv").read_text().splitlines()
    assert lines[0] == "proportion,lrcfm_cfm_ratio"
    ratios = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert ratios == sorted(ratios, reverse=True)


@pytest.mark.parametrize("key,value", [
    ("laser.power", "1e-320 W"),                   # nan CFM ratios
    ("laser.incident_beam_diameter", "1e300 m"),   # no detected signal
])
def test_absurd_magnitude_writes_nothing(config_dir, tmp_path, capsys,
                                         key, value):
    cfg = config_dir / "example_config.txt"
    cfg.write_text("".join(
        f"{key} = {value}\n" if line.split("=")[0].strip() == key else line
        for line in cfg.read_text().splitlines(keepends=True)))
    for command in (["design"], ["sweep", "--variable", "rayleigh"],
                    ["sweep", "--variable", "detection-proportion"]):
        out = tmp_path / "out"
        code = run_showing_warnings("--out", out, *command, "--config", cfg)
        assert code in (2, 3), command
        assert not out.exists() or not any(out.iterdir()), command
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, (command, err)  # the error alone
        assert "Traceback" not in err
    code = run("--out", tmp_path / "out", "design", "--config", cfg)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,edge", [
    ("sample.thickness", "1 m", "sweep.max"),   # optimum far above the grid
    ("sweep.min", "1 mm", "sweep.min"),         # grid starts above t/2
])
def test_optimum_on_grid_edge_writes_nothing(config_dir, tmp_path, capsys,
                                             key, value, edge):
    cfg = config_dir / "example_config.txt"
    cfg.write_text("".join(
        f"{key} = {value}\n" if line.split("=")[0].strip() == key else line
        for line in cfg.read_text().splitlines(keepends=True)))
    for command in (["design"],
                    ["sweep", "--variable", "detection-proportion"]):
        out = tmp_path / command[0]
        capsys.readouterr()
        assert run("--out", out, *command, "--config", cfg) == 2, command
        err = capsys.readouterr().err
        assert edge in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir()), command
    # a plain sweep reports no optimum, so it still writes its curve
    assert run("--out", tmp_path / "curve", "sweep", "--variable", "rayleigh",
               "--config", cfg) == 0


def test_fit_noiseless_recovers_truth(tmp_path):
    truth = np.array([1.0, 21.5e-6, 1.5])
    tau = np.linspace(0, 80e-6, 121)[1:]
    data = pulse_fit.TimeSeries(tau, pulse_fit.model_eval("t2", tau, truth))
    data.to_csv(tmp_path / "trace.csv")
    assert run("--out", tmp_path, "fit", "--model", "t2",
               "--input", tmp_path / "trace.csv") == 0
    result = json.loads((tmp_path / "fit_t2.json").read_text())
    assert result["converged"] is True
    np.testing.assert_allclose(result["params"], truth, rtol=1e-6)


def test_fit_bad_csv_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,counts\n0,1\n1,2\n")
    code = run("--out", tmp_path, "fit", "--model", "t1", "--input", bad)
    assert code == 2
    assert "header" in capsys.readouterr().err


def test_fit_missing_input(tmp_path):
    assert run("--out", tmp_path, "fit", "--model", "t1",
               "--input", tmp_path / "absent.csv") == 2


def simulate(out, noise, seed, ny=3, nx=3):
    truth = {"model": "t2", "nx": nx, "ny": ny,
             "params": [1.0, 21.5e-6, 1.5],
             "tau": {"start_s": 1e-7, "stop_s": 80e-6, "points": 120}}
    truth_path = out.parent / f"truth_{out.name}.json"
    truth_path.write_text(json.dumps(truth))
    return run("--out", out, "--seed", seed, "simulate", "--model", "t2",
               "--truth", truth_path, "--noise", noise)


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert simulate(a, 0.01, 42) == 0
    assert simulate(b, 0.01, 42) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    c = tmp_path / "c"
    assert simulate(c, 0.01, 43) == 0
    assert (a / "pixel_000_000.csv").read_bytes() != \
        (c / "pixel_000_000.csv").read_bytes()


def test_simulate_then_map(tmp_path):
    data = tmp_path / "data"
    assert simulate(data, 0.01, 1, ny=3, nx=2) == 0
    out = tmp_path / "out"
    assert run("--out", out, "map", "--model", "t2",
               "--manifest", data) == 0
    lines = (out / "map.csv").read_text().splitlines()
    assert lines[0] == "x_um,y_um,value,units"
    assert len(lines) == 1 + 3 * 2
    stats = json.loads((out / "stats.json").read_text())
    assert stats["n_valid"] == 6
    assert stats["mean"] == pytest.approx(21.5e-6, rel=0.02)
    map_json = json.loads((out / "map.json").read_text())
    assert map_json["nx"] == 2 and map_json["ny"] == 3


def test_map_mixed_grids_and_errors_equals_lone_fits(tmp_path):
    """A manifest whose pixel files use two tau grids, some with a sigma
    column: each mapped value is the lone fit of its file."""
    truth = np.array([1.0, 21.5e-6, 1.5])
    rng = np.random.default_rng(5)
    data = tmp_path / "data"
    data.mkdir()
    pixels = []
    for k in range(12):
        tau = np.linspace(1e-7, 80e-6, 120 if k % 3 else 61)
        signal = pulse_fit.model_eval("t2", tau, truth) * rng.uniform(0.9, 1.1) \
            + rng.normal(0, 0.01, tau.size)
        sigma = np.full(tau.size, 0.01) if k % 4 == 1 else None
        name = f"p{k}.csv"
        pulse_fit.TimeSeries(tau, signal, sigma).to_csv(data / name)
        pixels.append({"x_um": 50.0 * (k % 4), "y_um": 50.0 * (k // 4),
                       "file": name})
    (data / "manifest.json").write_text(json.dumps({"pixels": pixels}))
    out = tmp_path / "out"
    assert run("--out", out, "map", "--model", "t2", "--manifest", data) == 0
    mapped = json.loads((out / "map.json").read_text())["values"]
    for k, pixel in enumerate(pixels):
        lone = pulse_fit.fit("t2", pulse_fit.TimeSeries.from_csv(
            data / pixel["file"]))
        assert mapped[k // 4][k % 4] == float(lone.params[1])


def test_map_rabi_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    params = np.stack([np.ones((4, 3)), rng.uniform(1.5e-6, 5e-6, (4, 3)),
                       rng.uniform(1e6, 3e6, (4, 3)),
                       rng.uniform(-np.pi, np.pi, (4, 3)),
                       np.full((4, 3), 0.5)], axis=-1)
    truth = {"model": "rabi", "nx": 3, "ny": 4, "params": params.tolist(),
             "tau": {"start_s": 0.0, "stop_s": 4e-6, "points": 120}}
    (tmp_path / "truth.json").write_text(json.dumps(truth))
    data = tmp_path / "data"
    assert run("--out", data, "--seed", 9, "simulate", "--model", "rabi",
               "--truth", tmp_path / "truth.json", "--noise", 0.02) == 0
    for out in ("a", "b"):
        assert run("--out", tmp_path / out, "map", "--model", "rabi",
                   "--manifest", data) == 0
    for name in ("map.csv", "stats.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    stats = json.loads((tmp_path / "a" / "stats.json").read_text())
    assert stats["n_valid"] == 12


def test_map_noiseless_matches_truth(tmp_path):
    data = tmp_path / "data"
    assert simulate(data, 0.0, 0, ny=2, nx=2) == 0
    out = tmp_path / "out"
    assert run("--out", out, "map", "--model", "t2",
               "--manifest", data / "manifest.json") == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["mean"] == pytest.approx(21.5e-6, rel=1e-6)
    assert stats["std"] == pytest.approx(0.0, abs=1e-10)


def test_map_all_pixels_failed(tmp_path, capsys):
    data = tmp_path / "data"
    assert simulate(data, 0.0, 0, ny=1, nx=2) == 0
    for csv in data.glob("pixel_*.csv"):
        lines = csv.read_text().splitlines()
        flat = [lines[0]] + [ln.split(",")[0] + ",1.0" for ln in lines[1:]]
        csv.write_text("\n".join(flat) + "\n")
    code = run("--out", tmp_path / "out", "map", "--model", "t2",
               "--manifest", data)
    assert code == 3
    assert "no valid pixels" in capsys.readouterr().err


def test_map_missing_manifest(tmp_path, capsys):
    code = run("--out", tmp_path, "map", "--model", "t2",
               "--manifest", tmp_path / "nothing")
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_simulate_model_mismatch(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"model": "t1", "nx": 1, "ny": 1,
                                 "params": [1.0, 11e-3, 0.2],
                                 "tau_s": [0.0, 1e-3, 2e-3]}))
    code = run("--out", tmp_path, "simulate", "--model", "t2",
               "--truth", truth)
    assert code == 2
    assert "model" in capsys.readouterr().err


def write_manifest(tmp_path, manifest):
    data = tmp_path / "data"
    assert simulate(data, 0.01, 1, ny=1, nx=2) == 0
    (data / "manifest.json").write_text(json.dumps(manifest(json.loads(
        (data / "manifest.json").read_text()))))
    return data


@pytest.mark.parametrize("edit", [
    lambda m: {k: v for k, v in m.items() if k != "pixels"},
    lambda m: {**m, "pixels": {"file": "pixel_000_000.csv"}},
    lambda m: {**m, "pixels": [{"x_um": 0.0, "y_um": 0.0}]},
    lambda m: {**m, "pixels": [{**m["pixels"][0], "x_um": "0"}]},
    lambda m: {**m, "pitch_um": [50.0]},
    lambda m: [m],
], ids=["no-pixels", "pixels-object", "no-file", "text-x", "list-pitch",
        "not-object"])
def test_malformed_manifest_is_input_error(tmp_path, capsys, edit):
    data = write_manifest(tmp_path, edit)
    out = tmp_path / "out"
    code = run("--out", out, "map", "--model", "t2", "--manifest", data)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "manifest" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("edit", [
    lambda t: {k: v for k, v in t.items() if k != "nx"},
    lambda t: {k: v for k, v in t.items() if k != "ny"},
    lambda t: {k: v for k, v in t.items() if k != "params"},
    lambda t: {k: v for k, v in t.items() if k != "tau"},
    lambda t: {**t, "tau": {"start_s": 0.0, "points": 5}},
    lambda t: {**t, "nx": [2]},
    lambda t: {**t, "params": [1.0, {"a": 2}, 1.5]},
    lambda t: {**t, "origin_um": [0.0]},
    lambda t: [t],
    lambda t: {**t, "nx": 0},
    lambda t: {**t, "nx": 2.7},
    lambda t: {**t, "ny": -1},
    lambda t: {**t, "tau": {**t["tau"], "points": 0}},
    lambda t: {**t, "tau": {**t["tau"], "points": 20.5}},
    lambda t: {**{k: v for k, v in t.items() if k != "tau"}, "tau_s": []},
    lambda t: {**t, "tau": {**t["tau"], "points": 3}},
    lambda t: {**{k: v for k, v in t.items() if k != "tau"},
               "tau_s": [0.0, 1e-6, 2e-6]},
    lambda t: {**t, "tau": {**t["tau"], "start_s": -1e-5}},
    lambda t: {**{k: v for k, v in t.items() if k != "tau"},
               "tau_s": [0.0, 2e-6, 1e-6, 3e-6, 4e-6]},
], ids=["no-nx", "no-ny", "no-params", "no-tau", "no-stop", "list-nx",
        "object-param", "short-origin", "not-object", "zero-nx",
        "fractional-nx", "negative-ny", "zero-points", "fractional-points",
        "empty-tau", "short-points", "short-tau-list", "negative-tau",
        "unordered-tau-list"])
def test_malformed_truth_is_input_error(tmp_path, capsys, edit):
    truth = {"model": "t2", "nx": 2, "ny": 1, "params": [1.0, 21.5e-6, 1.5],
             "tau": {"start_s": 1e-7, "stop_s": 80e-6, "points": 20}}
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(edit(truth)))
    out = tmp_path / "out"
    code = run_showing_warnings("--out", out, "simulate", "--model", "t2",
                                "--truth", path)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "truth" in err
    assert "Warning" not in err and len(err.splitlines()) == 1
    assert not out.exists() or not any(out.iterdir())


def test_negative_delay_in_pixel_file_is_input_error(tmp_path, capsys):
    data = write_manifest(tmp_path, lambda m: m)
    pixel = data / "pixel_000_001.csv"
    lines = pixel.read_text().splitlines()
    lines[1] = "-" + lines[1]  # the first delay, still below the second
    pixel.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run("--out", out, "map", "--model", "t2", "--manifest", data) == 2
    err = capsys.readouterr().err
    assert f"{pixel}: tau must be non-negative" in err
    assert not out.exists() or not any(out.iterdir())


def test_simulate_refuses_a_grid_map_refuses(tmp_path, capsys):
    """A t2 truth on 3 delays: `simulate` gives the message `map` would
    give for its pixel files, and 4 delays are enough for both."""
    truth = {"model": "t2", "nx": 2, "ny": 1, "params": [1.0, 21.5e-6, 1.5],
             "tau": {"start_s": 1e-7, "stop_s": 80e-6, "points": 3}}
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth))
    out = tmp_path / "short"
    assert run("--out", out, "simulate", "--model", "t2", "--truth", path) == 2
    assert "t2 fit needs at least 4 points, got 3" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
    truth["tau"]["points"] = 4
    path.write_text(json.dumps(truth))
    data = tmp_path / "data"
    assert run("--out", data, "simulate", "--model", "t2", "--truth",
               path) == 0
    assert run("--out", tmp_path / "map", "map", "--model", "t2",
               "--manifest", data) == 0


def test_linalg_failure_is_numerical(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    assert simulate(data, 0.01, 3, ny=1, nx=2) == 0

    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    def no_convergence(matrix):
        raise np.linalg.LinAlgError("SVD did not converge")

    # the fit covariance falls back from inv to pinv, and pinv fails too
    monkeypatch.setattr(np.linalg, "inv", singular)
    monkeypatch.setattr(np.linalg, "pinv", no_convergence)
    for argv in (("fit", "--model", "t2", "--input",
                  data / "pixel_000_000.csv"),
                 ("map", "--model", "t2", "--manifest", data)):
        out = tmp_path / argv[0]
        capsys.readouterr()
        assert run("--out", out, *argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "numerical failure: SVD did not converge" in err
        assert not out.exists() or not any(out.iterdir())


def test_failed_rename_during_simulate(tmp_path, monkeypatch, capsys):
    assert simulate(tmp_path / "whole", 0.01, 5) == 0
    whole = {p.name: p.read_bytes() for p in (tmp_path / "whole").iterdir()}
    replace = pathlib.Path.replace
    renames = []

    def failing_third(self, target):
        renames.append(target)
        if len(renames) == 3:
            raise OSError("simulated rename failure")
        return replace(self, target)

    monkeypatch.setattr(pathlib.Path, "replace", failing_third)
    out = tmp_path / "broken"
    assert simulate(out, 0.01, 5) == 2
    assert "simulated rename failure" in capsys.readouterr().err
    # the two pixel files renamed before the failure are whole; nothing
    # else is left, no temporary file and no manifest
    left = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(left) == ["pixel_000_000.csv", "pixel_000_001.csv"]
    assert all(left[name] == whole[name] for name in left)
