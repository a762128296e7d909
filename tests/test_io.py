"""The output writers of `lrcfm.io` against the per-type writers they
replaced.

The former writers are kept below verbatim, as `former_*`, with the
record and serialiser methods they called turned into functions of the
object (`FormerSweepRow.astuple`, `former_fit_to_json_dict`,
`former_stats_to_json_dict`, `former_coordinates`). `map_to_json_dict`
keeps its name, with a new body; its former body is
`former_map_to_json_dict`, and `former_write_map_json` is the former
inline write of map.json. Each test writes
seeded inputs through the path the CLI now takes and through the former
writer, and compares the bytes. The inputs include NaN pixels, -0.0,
subnormals, +-1e308 and fits with a sigma column.

The sweep table never holds NaN when it is written: the CLI refuses a
non-finite design output first. The former sweep writer wrote NaN as
`nan`, `cells` writes it as an empty cell, as map.csv always has.
"""

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from lrcfm import collection, designer, mapping, pulse_fit
from lrcfm.io import atomic_write, cells, write_csv, write_json
from lrcfm.pulse_fit import FitResult, TimeSeries
from lrcfm.traces import Traces

from conftest import fit_rows

EDGE = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1e-300, 1 / 3, -2.5, 1e16, 2.0 ** 53 + 2, 1e308, -1e308,
                 1.7976931348623157e308])

# ---------------------------------------------------------------- oracle


@dataclass(frozen=True)
class FormerSweepRow:
    """One grid point: the sweep.csv columns."""

    variable: float
    volume_m3: float
    icw: float
    polarization: float
    product: float
    detection_rate: float
    detected_signal: float

    def astuple(self):
        return (self.variable, self.volume_m3, self.icw, self.polarization,
                self.product, self.detection_rate, self.detected_signal)


def former_write_sweep_csv(rows, path) -> None:
    """Write sweep rows with the fixed header, full round-trip precision."""
    lines = [",".join(designer.SWEEP_HEADER)]
    lines += [",".join(map(repr, values)) for values in
              np.array([row.astuple() for row in rows], dtype=float).tolist()]
    atomic_write(path, "\n".join(lines) + "\n")


def former_fit_to_json_dict(self) -> dict:
    return {
        "model": self.model,
        "params": [float(p) for p in self.params],
        "covariance": [[float(c) for c in row] for row in self.covariance],
        "residual_rms": float(self.residual_rms),
        "converged": bool(self.converged),
        "iterations": int(self.iterations),
    }


def former_write_fit_json(result: FitResult, path) -> None:
    atomic_write(path, json.dumps(former_fit_to_json_dict(result), indent=2)
                 + "\n")


def former_stats_to_json_dict(self) -> dict:
    return {"mean": self.mean, "std": self.std, "min": self.min,
            "max": self.max, "n_valid": self.n_valid,
            "n_missing": self.n_missing,
            "n_unidentifiable": self.n_unidentifiable,
            "n_not_converged": self.n_not_converged,
            "n_derive_failed": self.n_derive_failed}


def former_write_stats_json(map_stats, path) -> None:
    atomic_write(path, json.dumps(former_stats_to_json_dict(map_stats),
                                  indent=2) + "\n")


def former_coordinates(self, ix: int, iy: int) -> tuple[float, float]:
    return (self.origin[0] + ix * self.pitch,
            self.origin[1] + iy * self.pitch)


def former_write_map_csv(pixel_map, path) -> None:
    """Map CSV: x_um,y_um,value,units with one row per pixel; missing
    pixels get an empty value field."""
    lines = ["x_um,y_um,value,units"]
    for iy in range(pixel_map.ny):
        for ix in range(pixel_map.nx):
            x, y = former_coordinates(pixel_map, ix, iy)
            v = pixel_map.values[iy, ix]
            value = repr(float(v)) if math.isfinite(v) else ""
            lines.append(f"{repr(x * 1e6)},{repr(y * 1e6)},{value},"
                         f"{pixel_map.units}")
    atomic_write(path, "\n".join(lines) + "\n")



def former_map_to_json_dict(pixel_map) -> dict:
    values = [[None if not math.isfinite(v) else float(v) for v in row]
              for row in pixel_map.values]
    return {
        "origin_m": [pixel_map.origin[0], pixel_map.origin[1]],
        "pitch_m": pixel_map.pitch,
        "nx": pixel_map.nx,
        "ny": pixel_map.ny,
        "quantity": pixel_map.quantity,
        "units": pixel_map.units,
        "values": values,
    }


def former_write_map_json(pixel_map, path) -> None:
    map_json = json.dumps(former_map_to_json_dict(pixel_map), indent=2)
    atomic_write(path, map_json + "\n")

# ----------------------------------------------------------------- tests


def assert_same_bytes(tmp_path, write_new, write_former):
    write_new(tmp_path / "new")
    write_former(tmp_path / "former")
    assert (tmp_path / "new").read_bytes() == \
        (tmp_path / "former").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["former", "new"]
    for path in tmp_path.iterdir():
        path.unlink()


def write_sweep(rows, path):
    """sweep.csv as the CLI writes it."""
    write_csv(path, designer.SWEEP_HEADER,
              [cells(rows[name]) for name in designer.SWEEP_HEADER])


def test_cells():
    assert cells([np.nan, -0.0, 5e-324, 1e308, -np.inf, 0.1]) == \
        ["", "-0.0", "5e-324", "1e+308", "-inf", "0.1"]
    assert cells(np.array([], dtype=float)) == []
    assert all(float(text) == value or (text == "" and np.isnan(value))
               for text, value in zip(cells(EDGE), EDGE))


def test_write_csv_rows_from_columns(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("a", "b"), (["1", ""], iter(["x", "y"])))
    assert path.read_text() == "a,b\n1,x\n,y\n"
    write_csv(path, ("a",), ([],))
    assert path.read_text() == "a\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_write_json_numpy_values(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"array": np.array([[1.5, np.nan]]), "flag": np.True_,
                      "count": np.int64(3), "value": np.float64(-0.0)})
    text = path.read_text()
    assert text.endswith("}\n") and text.startswith('{\n  "array"')
    assert json.loads(text)["count"] == 3
    assert '"flag": true' in text and '"value": -0.0' in text


def test_sweep_table_writes_former_bytes(reference_context, tmp_path):
    rng = np.random.default_rng(808)
    for k in range(4):
        ctx = dataclasses.replace(
            reference_context,
            sample_thickness=float(np.exp(rng.uniform(np.log(0.2e-3),
                                                      np.log(5e-3)))),
            volume_model=("clipped", "thickness")[k % 2])
        for spec in (designer.SweepSpec("rayleigh_length",
                                        designer.default_grid(), ctx),
                     designer.SweepSpec("waist_radius", tuple(
                         np.geomspace(1e-6, 100e-6, 37)), ctx)):
            rows = designer.sweep(spec)
            former = [FormerSweepRow(*row.tolist()) for row in rows]
            assert_same_bytes(tmp_path, lambda p: write_sweep(rows, p),
                              lambda p: former_write_sweep_csv(former, p))
    # a table of edge values, each column in its own order
    n = EDGE.size
    columns = [EDGE[rng.permutation(n)] for _ in range(4)]
    fom = collection.FigureOfMerit(
        detection_volume=columns[1], power_density=columns[0],
        i_cw=np.ones(n), polarization=np.ones(n),
        detection_rate=columns[2], detected_signal=columns[3])
    rows = designer.sweep_rows(columns[0], fom)
    assert rows.dtype.names == designer.SWEEP_HEADER and len(rows) == n
    former = [FormerSweepRow(*row.tolist()) for row in rows]
    assert_same_bytes(tmp_path, lambda p: write_sweep(rows, p),
                      lambda p: former_write_sweep_csv(former, p))


def edge_maps(rng):
    """Maps with missing pixels, -0.0, subnormal and +-1e308 values, on
    origins and pitches from -0.0 and subnormal to 1e290 m."""
    for origin, pitch, (ny, nx) in [
            ((0, 0), 50e-6, (21, 7)),
            ((-0.0, -0.0), 50e-6, (3, 4)),
            ((-1.25e-3, 3.5e-4), 1e-7, (5, 9)),
            ((1e-310, -1e-300), 5e-324, (2, 3)),
            ((-1e300, 1e300), 1e290, (4, 2)),
            ((0.1, 0.2), 0.1, (1, 1))]:
        values = rng.normal(size=(ny, nx)) * np.exp(
            rng.uniform(-300, 300, (ny, nx)))
        flat = values.reshape(-1)
        flat[:EDGE.size] = EDGE[:flat.size]
        flat[rng.random(flat.size) < 0.3] = np.nan
        yield mapping.PixelMap(origin, pitch, nx, ny, values, "t2", "s")


def test_map_csv_writes_former_bytes(tmp_path):
    for pixel_map in edge_maps(np.random.default_rng(909)):
        assert_same_bytes(
            tmp_path, lambda p: mapping.write_map_csv(pixel_map, p),
            lambda p: former_write_map_csv(pixel_map, p))


def test_map_json_writes_former_bytes(tmp_path):
    for pixel_map in edge_maps(np.random.default_rng(912)):
        assert_same_bytes(
            tmp_path,
            lambda p: write_json(p, mapping.map_to_json_dict(pixel_map)),
            lambda p: former_write_map_json(pixel_map, p))


def test_stats_json_writes_former_bytes(tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):  # std of 1e308
        stats = [mapping.stats(pixel_map)
                 for pixel_map in edge_maps(np.random.default_rng(910))
                 if np.isfinite(pixel_map.values).any()]
    assert any(math.isinf(s.std) for s in stats)
    stats.append(mapping.MapStats(-0.0, 5e-324, -1e308, 1e308, 3, 0))
    stats.append(mapping.MapStats(np.nan, np.float64(2.5), np.float64(-0.0),
                                  np.float64(1e-310), 1, 2, 1, 0, 1))
    for map_stats in stats:
        assert_same_bytes(
            tmp_path,
            lambda p: write_json(p, dataclasses.asdict(map_stats)),
            lambda p: former_write_stats_json(map_stats, p))


def fits(rng):
    """Fits of each model, with and without a sigma column, and results
    that hold edge values and numpy scalars."""
    truths = {"rabi": ([1.0, 2.5e-6, 1.7e6, 0.4, 0.5], 4e-6),
              "t1": ([1.0, 1e-3, 0.3], 5e-3),
              "t2": ([1.0, 21.5e-6, 1.5], 80e-6)}
    for model, (params, span) in truths.items():
        tau = np.linspace(0.0, span, 120)
        clean = pulse_fit.model_eval(model, tau, np.array(params))
        for sigma in (None, np.exp(rng.uniform(-5, -3, tau.size))):
            noisy = clean + 0.02 * rng.normal(size=tau.size)
            yield pulse_fit.fit(model, TimeSeries(tau, noisy, sigma))
    yield from fit_rows(pulse_fit.fit_many("t2", [Traces(
        np.linspace(1e-7, 80e-6, 40),
        pulse_fit.model_eval("t2", np.linspace(1e-7, 80e-6, 40),
                             np.array([1.0, 21.5e-6, 1.5]))
        + 0.01 * rng.normal(size=(5, 40)), np.full((5, 40), 0.01))]))
    cov = np.outer(EDGE[:5], EDGE[5:10])
    cov[0, 1] = np.inf
    cov[2, 2] = np.nan
    yield FitResult("rabi", EDGE[[0, 2, 4, 10, 11]], cov, np.float64(5e-324),
                    np.bool_(False), np.int64(200))
    yield FitResult("t1", np.array([np.nan, 1e308, -0.0]),
                    np.full((3, 3), -0.0), np.nan, False, 0)


def test_fit_json_writes_former_bytes(tmp_path):
    for result in fits(np.random.default_rng(911)):
        assert_same_bytes(
            tmp_path, lambda p: write_json(p, dataclasses.asdict(result)),
            lambda p: former_write_fit_json(result, p))
