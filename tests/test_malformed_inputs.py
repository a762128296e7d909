"""Malformed inputs to every command that reads a file: each must exit
with a documented code (2 input, 3 numerical, 4 usage), print no
traceback, and leave --out absent. A malformed truth file, manifest or
pixel file must also be named on stderr.

Each strategy edits a valid input so that it is malformed for sure: a
required key dropped, a value of the wrong type or unit, a non-finite or
non-positive value, a magnitude so far out that the design model
underflows or overflows, a broken line, or broken JSON or CSV structure.
Values are never merely changed to other valid values; the design
session's own range of thickness and power must still pass.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcfm
from lrcfm.cli import main

EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

CONFIG = lrcfm.data_path("example_config.txt").read_text().splitlines()
RATES = lrcfm.data_path("nv_rates_example.txt").read_text().splitlines()
QUANTITY_KEYS = {"laser.wavelength": "nm", "laser.power": "mW",
                 "laser.incident_beam_diameter": "mm",
                 "sample.thickness": "um", "lens.radius": "mm",
                 "fiber.core_diameter": "um", "sweep.min": "um",
                 "sweep.max": "mm"}
NUMBER_KEYS = ("sample.density", "fiber.magnification", "sweep.points")
REQUIRED_KEYS = ("laser.wavelength", "laser.power",
                 "laser.incident_beam_diameter", "sample.thickness", "rates",
                 "lens.radius")

words = st.text(alphabet="abcdxyz!?,;", min_size=1, max_size=6)
non_finite = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])
# finite magnitudes that leave the design with a non-finite output or no
# detected signal at the optimum (each checked by hand on both commands)
ABSURD = {"laser.power": ["1e-320 W", "1e-315 W", "1e-310 W", "1e300 W"],
          "laser.incident_beam_diameter": ["1e300 m", "1e200 m", "1e100 m",
                                           "1e50 m"],
          "lens.radius": ["1e-300 m"],
          "sample.density": ["1e-320", "0", "-1"]}
wrong_json = (st.none() | st.booleans() | words
              | st.lists(words, min_size=1, max_size=2)
              | st.dictionaries(words, st.integers(0, 3), max_size=2))


def run(argv):
    """(exit code, stderr) of main(argv); stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_rejected(argv, out: Path, offender=None):
    """argv exits 2, 3 or 4 with no traceback and no --out, and its stderr
    names the offending file when one is given."""
    code, err = run(["--out", out, *argv])
    assert code in (2, 3, 4), (code, err)
    assert "Traceback" not in err
    assert not out.exists()
    assert offender is None or str(offender) in err, (offender, err)


def edit_line(lines, key, value):
    return [f"{key} = {value}" if line.split("=")[0].strip() == key
            else line for line in lines]


@st.composite
def malformed_config(draw):
    """(config lines, rates lines) with exactly one malformation."""
    config, rates = list(CONFIG), list(RATES)
    kind = draw(st.sampled_from(["drop", "quantity", "number", "line",
                                 "volume_model", "missing_file", "rates",
                                 "magnitude"]))
    if kind == "drop":
        key = draw(st.sampled_from(REQUIRED_KEYS))
        config = [ln for ln in config if ln.split("=")[0].strip() != key]
    elif kind == "quantity":
        key = draw(st.sampled_from(sorted(QUANTITY_KEYS)))
        unit = QUANTITY_KEYS[key]
        value = draw(st.one_of(
            words.map(lambda w: f"{w} {unit}"),          # not a number
            non_finite.map(lambda v: f"{v} {unit}"),
            st.sampled_from([f"0 {unit}", f"-2 {unit}", "5 Hz", "5",
                             f"1 {unit} {unit}"])))
        config = edit_line(config, key, value)
    elif kind == "number":
        key = draw(st.sampled_from(NUMBER_KEYS))
        value = draw(words | non_finite | st.sampled_from(["2 mm", "-3"]))
        if key == "sweep.points":
            value = draw(st.sampled_from([value, "1", "2.5", "0"]))
        config = edit_line(config, key, value)
    elif kind == "line":
        line = draw(st.sampled_from(["laser.colour = green",
                                     "laser.power 10 mW", "rates =",
                                     "laser.power = 1 mW"]))  # a duplicate
        config.insert(draw(st.integers(0, len(config))), line)
    elif kind == "magnitude":
        key = draw(st.sampled_from(sorted(ABSURD)))
        config = edit_line(config, key, draw(st.sampled_from(ABSURD[key])))
    elif kind == "volume_model":
        config = edit_line(config, "volume_model", draw(words))
    elif kind == "missing_file":
        key = draw(st.sampled_from(["rates", "lens.catalog"]))
        config = edit_line(config, key, draw(words) + ".absent")
    else:
        key = draw(st.sampled_from(["k31", "k35", "k51", "kappa"]))
        value = draw(st.one_of(words, non_finite, st.just(""), st.just("-1")))
        edit = draw(st.sampled_from(["drop", "value", "duplicate"]))
        if edit == "drop":
            rates = [ln for ln in rates if not ln.startswith(key + " ")]
        elif edit == "value":
            rates = edit_line(rates, key, value)
        else:  # a second line for the key, even with the same value
            rates.insert(draw(st.integers(0, len(rates))),
                         next(ln for ln in rates if ln.startswith(key + " ")))
    return config, rates


@EXAMPLES
@given(malformed_config())
def test_malformed_config(workdir, case):
    config, rates = case
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        shutil.copy(lrcfm.data_path("lens_catalog.csv"), tmp)
        (tmp / "nv_rates_example.txt").write_text("\n".join(rates) + "\n")
        (tmp / "run.cfg").write_text("\n".join(config) + "\n")
        for command in (["design"],
                        ["sweep", "--variable", "detection-proportion"]):
            out = tmp / "out"
            assert_rejected([*command, "--config", tmp / "run.cfg"], out)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.floats(500.0, 5000.0), st.floats(1.0, 100.0))
def test_design_session_range_passes(workdir, thickness_um, power_mw):
    """The thickness and power range of a design session stays valid."""
    config = edit_line(edit_line(CONFIG, "sample.thickness",
                                 f"{thickness_um!r} um"),
                       "laser.power", f"{power_mw!r} mW")
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        for name in ("lens_catalog.csv", "nv_rates_example.txt"):
            shutil.copy(lrcfm.data_path(name), tmp)
        (tmp / "run.cfg").write_text("\n".join(config) + "\n")
        for command in (["design"],
                        ["sweep", "--variable", "detection-proportion"]):
            code, err = run(["--out", tmp / "out", *command, "--config",
                             tmp / "run.cfg"])
            assert code == 0, err


TRUTH = {"model": "t2", "nx": 2, "ny": 1, "params": [1.0, 21.5e-6, 1.5],
         "tau": {"start_s": 1e-7, "stop_s": 80e-6, "points": 20},
         "pitch_um": 50.0}


@st.composite
def malformed_truth(draw):
    """Truth-file text with one malformation."""
    truth = json.loads(json.dumps(TRUTH))
    kind = draw(st.sampled_from(["drop", "type", "tau", "shape", "text",
                                 "not-object", "count"]))
    if kind == "drop":
        del truth[draw(st.sampled_from(["nx", "ny", "params", "tau"]))]
    elif kind == "count":  # not a whole number of at least 1
        value = draw(st.sampled_from([0, -1, -2.0, 0.5, 1.5, 2.7]))
        key = draw(st.sampled_from(["nx", "ny", "points"]))
        (truth["tau"] if key == "points" else truth)[key] = value
    elif kind == "type":
        key = draw(st.sampled_from(["nx", "ny", "params", "tau", "pitch_um",
                                    "model"]))
        value = draw(wrong_json)
        if key == "model":
            value = draw(st.sampled_from(["t1", "rabi", 3, None]))
        truth[key] = value
    elif kind == "tau":
        key = draw(st.sampled_from(["start_s", "stop_s", "points"]))
        if draw(st.booleans()):
            del truth["tau"][key]
        else:
            truth["tau"][key] = draw(wrong_json)
    elif kind == "shape":
        truth["params"] = draw(st.sampled_from(
            [[1.0, 2e-5], [[1.0, 2e-5, 1.5]], [], 1.0,
             [1.0, float("nan"), 1.5], [1.0, 2e-5, float("inf")],
             [1.0, 0.0, 1.5], [1.0, 2e-5, -1.5]]))
    text = json.dumps(truth)
    if kind == "text":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "not-object":
        text = json.dumps(draw(wrong_json.filter(
            lambda v: not isinstance(v, dict)) | st.just([truth])))
    return text


@EXAMPLES
@given(malformed_truth())
def test_malformed_truth(workdir, text):
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        (tmp / "truth.json").write_text(text)
        assert_rejected(["simulate", "--model", "t2", "--truth",
                         tmp / "truth.json", "--noise", "0.01"], tmp / "out",
                        offender=tmp / "truth.json")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@pytest.fixture(scope="module")
def dataset(workdir):
    """A valid 2 x 1 t2 dataset: manifest.json and two pixel files."""
    data = workdir / "dataset"
    (workdir / "truth.json").write_text(json.dumps(TRUTH))
    code, err = run(["--out", data, "--seed", 3, "simulate", "--model",
                     "t2", "--truth", workdir / "truth.json", "--noise",
                     0.01])
    assert code == 0, err
    return data


@st.composite
def malformed_manifest(draw):
    """(manifest text, {pixel file name: text}, name of the offending
    file) with one malformation in the manifest or in a pixel file."""
    manifest = {"model": "t2", "pitch_um": 50.0,
                "pixels": [{"x_um": 0.0, "y_um": 0.0, "file": "a.csv"},
                           {"x_um": 50.0, "y_um": 0.0, "file": "b.csv"}]}
    files = {"a.csv": None, "b.csv": None}  # None: the valid pixel file
    offender = "manifest.json"
    kind = draw(st.sampled_from(["drop", "type", "pixel", "missing", "text",
                                 "not-object", "csv"]))
    if kind == "drop":
        del manifest["pixels"]
    elif kind == "type":
        manifest[draw(st.sampled_from(["pixels", "pitch_um"]))] = \
            draw(wrong_json)
    elif kind == "pixel":
        pixel = manifest["pixels"][draw(st.integers(0, 1))]
        key = draw(st.sampled_from(["x_um", "y_um", "file"]))
        if draw(st.booleans()):
            del pixel[key]
        else:
            pixel[key] = draw(wrong_json.filter(
                lambda v: not isinstance(v, str) or key != "file"))
    elif kind == "missing":
        manifest["pixels"][1]["file"] = offender = "absent.csv"
    elif kind == "csv":
        files["b.csv"], offender = draw(malformed_csv()), "b.csv"
    text = json.dumps(manifest)
    if kind == "text":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "not-object":
        text = json.dumps(draw(wrong_json.filter(
            lambda v: not isinstance(v, dict)) | st.just([manifest])))
    return text, files, offender


@st.composite
def malformed_csv(draw):
    """Pixel-file edits, applied to the valid file's lines."""
    kind = draw(st.sampled_from(["header", "ragged", "value", "order",
                                 "short", "header-only", "empty"]))
    return kind, draw(st.integers(1, 19)), draw(words | non_finite)


def csv_text(valid: str, edit) -> str:
    kind, row, word = edit
    lines = valid.splitlines()
    if kind == "header":
        lines[0] = word
    elif kind == "ragged":
        lines[row] = lines[row].split(",")[0]
    elif kind == "value":
        lines[row] = lines[row].split(",")[0] + "," + word
    elif kind == "order":
        lines[row], lines[row + 1] = lines[row + 1], lines[row]
    elif kind == "short":
        lines = lines[:3]
    elif kind == "header-only":
        lines = lines[:1]
    else:
        lines = []
    return "\n".join(lines) + "\n"


@EXAMPLES
@given(malformed_manifest())
def test_malformed_manifest_and_pixel_files(workdir, dataset, case):
    text, files, offender = case
    valid = (dataset / "pixel_000_000.csv").read_text()
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        (tmp / "manifest.json").write_text(text)
        for name, edit in files.items():
            (tmp / name).write_text(valid if edit is None
                                    else csv_text(valid, edit))
        assert_rejected(["map", "--model", "t2", "--manifest", tmp],
                        tmp / "out", offender=offender and tmp / offender)
