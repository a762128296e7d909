"""The golden-section search that evaluates several steps per core call,
against the former search that evaluated one point per call.

The oracle below is the former `designer._golden_max`, kept verbatim and
renamed `old_golden_max`: `fun` takes one point and returns its value.
"""

import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

import lrcfm
from lrcfm import designer, nv_rates
from lrcfm.cli import main

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# ---------------------------------------------------------------- oracle


def old_golden_max(fun, lo: float, hi: float,
                   rtol: float) -> tuple[float, float, int]:
    """(argmax, max, number of evaluations) of fun on [lo, hi]."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    evaluations = 2
    while (b - a) > rtol * b:
        evaluations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
    x = c if fc >= fd else d
    return float(x), float(max(fc, fd)), evaluations

# ----------------------------------------------------------------- tests


def random_contexts(base, n=8, seed=606):
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


def bracket(spec):
    """The grid neighbours of the grid argmax, as optimal_rayleigh takes
    them."""
    rows = designer.sweep(spec)
    signal = np.array([r.detected_signal for r in rows])
    i = int(np.argmax(signal))
    return spec.grid[max(i - 1, 0)], spec.grid[min(i + 1, len(rows) - 1)]


def assert_same_search(spec):
    ctx = spec.context
    lo, hi = bracket(spec)
    want = old_golden_max(
        lambda zr: designer.evaluate_at_rayleigh(zr, ctx).detected_signal,
        lo, hi, rtol=1e-4)
    got = designer._golden_max(
        lambda zr: designer._at_rayleigh(zr, ctx).detected_signal,
        lo, hi, rtol=1e-4)
    assert got == want  # argmax, maximum and count, bitwise
    result = designer.optimal_rayleigh(spec)
    assert (result.rayleigh_length, result.detected_signal,
            result.golden_evaluations) == want
    return want


def test_search_matches_oracle_on_shipped_config(reference_context):
    spec = designer.SweepSpec("rayleigh_length", designer.default_grid(),
                              reference_context)
    assert assert_same_search(spec)[2] == 17


def test_search_matches_oracle_on_random_contexts(reference_context):
    rng = np.random.default_rng(707)
    for context in random_contexts(reference_context):
        grid = designer.default_grid(rng.uniform(0.5e-6, 2e-6),
                                     rng.uniform(5e-3, 20e-3),
                                     int(rng.integers(40, 300)))
        assert_same_search(designer.SweepSpec("rayleigh_length", grid,
                                              context))


@pytest.mark.parametrize("f", [
    lambda x: np.zeros_like(x),                    # every comparison ties
    lambda x: np.floor(x * 7.0),                   # steps: ties on a plateau
    lambda x: np.round(-(x - 0.37) ** 2, 3),       # rounded peak
    lambda x: -np.abs(x - 0.6180339887498949),     # peak at a golden point
    lambda x: np.where(x < 0.5, x, np.nan),        # NaN compares false
    lambda x: np.sin(25.0 * x),                    # several maxima
], ids=["constant", "steps", "rounded", "golden-point", "nan", "multimodal"])
def test_search_matches_oracle_with_ties(f):
    for lo, hi, rtol in ((0.0 + 1e-3, 1.0, 1e-4), (0.2, 0.9, 1e-6),
                         (0.3, 0.31, 1e-2), (0.1, 0.7, 1e-9)):
        want = old_golden_max(lambda x: float(f(np.array([x]))[0]), lo, hi,
                              rtol)
        calls = []

        def batched(x):
            calls.append(len(x))
            return f(x)

        got = designer._golden_max(batched, lo, hi, rtol)
        assert got == want or (got[0] == want[0] and got[2] == want[2]
                               and math.isnan(got[1]) and math.isnan(want[1]))
        steps = want[2] - 2
        assert calls[0] == 2
        assert len(calls) == 1 + -(-steps // designer._LOOKAHEAD)


def test_optimal_rayleigh_core_calls(reference_context, monkeypatch):
    sizes = []
    evaluate = designer._evaluate

    def counting(focal, *args):
        sizes.append(np.size(focal))
        return evaluate(focal, *args)

    monkeypatch.setattr(designer, "_evaluate", counting)
    spec = designer.SweepSpec("rayleigh_length", designer.default_grid(),
                              reference_context)
    result = designer.optimal_rayleigh(spec)
    assert sizes[0] == 200 and len(sizes) <= 6
    assert result.golden_evaluations == 17 <= sum(sizes[1:])


def test_condition_numbers_only_where_reported(reference_context,
                                               monkeypatch, tmp_path):
    cond = np.linalg.cond
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    rates, pump = reference_context.rates, reference_context.pump
    density = np.geomspace(1e4, 1e12, 50)
    nv_rates.steady_states(rates, pump, density)
    assert calls == []
    conditions = nv_rates.condition_numbers(rates, pump, density)
    assert calls == [(50, 5, 5)]
    for k in (0, 17, 49):
        one = nv_rates.steady_state(rates, pump, density[k])
        assert one.condition_number == pytest.approx(conditions[k],
                                                     rel=1e-12)
    calls.clear()
    config = lrcfm.data_path("example_config.txt")
    with contextlib.redirect_stdout(io.StringIO()):
        for variable in ("detection-proportion", "rayleigh", "waist"):
            assert main(["--out", str(tmp_path), "sweep", "--config",
                         str(config), "--variable", variable]) == 0
        assert calls == []
        assert main(["--out", str(tmp_path), "design",
                     "--config", str(config)]) == 0
    assert calls == [(200, 5, 5)]  # the design grid, for the report
