import numpy as np
import pytest

from lrcfm.config import load_rate_file
from lrcfm.nv_rates import (NvRateSet, PumpModel, SteadyState,
                            condition_numbers, cw_fluorescence, polarization,
                            steady_state)

from conftest import ode_steady_state, random_rate_set

SYMMETRIC = NvRateSet(k31=60e6, k32=5e6, k35=10e6,
                      k41=5e6, k42=60e6, k45=10e6,
                      k51=1e6, k52=1e6)

PUMP = PumpModel(coupling=8.3e-3)


def test_rate_set_validation():
    with pytest.raises(ValueError):
        NvRateSet(-1, 0, 1, 0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        NvRateSet(0, 0, 0, 0, 1, 1, 1, 1)  # level 3 cannot decay
    with pytest.raises(ValueError):
        NvRateSet(1, 0, 1, 0, 1, 1, 0, 0)  # singlet cannot decay


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["k31", "k35", "k52"])
def test_rate_set_refuses_non_finite_rates(key, value):
    rates = dict(k31=60e6, k32=5e6, k35=10e6, k41=5e6, k42=60e6, k45=10e6,
                 k51=1e6, k52=1e6)
    with pytest.raises(ValueError, match=f"{key} must be non-negative and "
                                         "finite"):
        NvRateSet(**{**rates, key: value})


@pytest.mark.parametrize("coupling", [np.nan, np.inf, 0.0, -8.3e-3])
def test_pump_refuses_a_coupling_that_is_not_positive_and_finite(coupling):
    with pytest.raises(ValueError, match="positive and finite"):
        PumpModel(coupling=coupling)


def test_steady_state_rejects_zero_pump():
    with pytest.raises(ValueError, match="degenerate"):
        steady_state(SYMMETRIC, PUMP, 0.0)


def test_symmetric_rates_give_equal_branches():
    for s in (1e5, 1e7, 1e9):
        ss = steady_state(SYMMETRIC, PUMP, s)
        assert ss.rho11 == pytest.approx(ss.rho22, abs=1e-12)
        assert ss.rho33 == pytest.approx(ss.rho44, abs=1e-12)
        assert polarization(ss) == pytest.approx(0.0, abs=1e-12)


def test_absorbing_branch_empties():
    # no inflow into level 2: k32 = k42 = k52 = 0
    rates = NvRateSet(k31=60e6, k32=0, k35=0,
                      k41=0, k42=0, k45=50e6,
                      k51=2e6, k52=0)
    ss = steady_state(rates, PUMP, 1e8)
    assert ss.rho22 == pytest.approx(0.0, abs=1e-12)
    assert ss.rho44 == pytest.approx(0.0, abs=1e-12)


def test_steady_state_matches_ode_oracle(example_rates):
    rates, pump = example_rates
    rng = np.random.default_rng(2024)
    for _ in range(20):
        s = 10 ** rng.uniform(5, 10)
        ss = steady_state(rates, pump, s)
        oracle = ode_steady_state(rates, pump.pump_rate(s))
        np.testing.assert_allclose(ss.populations(), oracle, atol=1e-9)


def test_steady_state_oracle_randomized_rate_sets():
    rng = np.random.default_rng(11)
    pump = PumpModel(coupling=1.0)
    for _ in range(100):
        rates = random_rate_set(rng)
        gamma = 10 ** rng.uniform(2, 9)
        ss = steady_state(rates, pump, gamma)
        pops = ss.populations()
        assert np.all(pops >= -1e-12)
        assert np.sum(pops) == pytest.approx(1.0, abs=1e-12)
        oracle = ode_steady_state(rates, gamma)
        np.testing.assert_allclose(pops, oracle, atol=1e-9)


def test_rate_scaling_invariance():
    rng = np.random.default_rng(5)
    pump = PumpModel(coupling=1.0)
    for _ in range(20):
        rates = random_rate_set(rng)
        gamma = 10 ** rng.uniform(3, 8)
        c = 10 ** rng.uniform(-3, 3)
        scaled = NvRateSet(**{k: c * getattr(rates, k)
                              for k in ("k31", "k32", "k35", "k41", "k42",
                                        "k45", "k51", "k52")})
        a = steady_state(rates, pump, gamma).populations()
        b = steady_state(scaled, pump, c * gamma).populations()
        np.testing.assert_allclose(a, b, atol=1e-11)


def test_polarization_grid_non_decreasing(example_rates):
    # spin-selective rates (k45 > k35, k51 > k52); checked on a pump grid
    rates, pump = example_rates
    gammas = np.geomspace(1e2, 1e9, 40)
    p = [polarization(steady_state(rates, pump, g / pump.coupling))
         for g in gammas]
    assert np.all(np.diff(p) >= -1e-9)


def test_cw_fluorescence_zero_excited():
    ss = SteadyState(0.5, 0.5, 0.0, 0.0, 0.0)
    assert cw_fluorescence(ss, SYMMETRIC) == 0.0


def test_cw_fluorescence_unit_branching():
    rates = NvRateSet(k31=60e6, k32=5e6, k35=0,
                      k41=5e6, k42=60e6, k45=0,
                      k51=1e6, k52=1e6)
    ss = SteadyState(0.3, 0.3, 0.15, 0.25, 0.0)
    assert cw_fluorescence(ss, rates) == pytest.approx(0.4, rel=1e-12)


def test_cw_fluorescence_saturates(example_rates):
    rates, pump = example_rates
    # locate a saturating power density: response to doubling is sublinear
    s = 1e10
    i1 = cw_fluorescence(steady_state(rates, pump, s), rates)
    i2 = cw_fluorescence(steady_state(rates, pump, 2 * s), rates)
    assert i2 > i1
    assert i2 < 2 * i1


def test_polarization_extremes():
    assert polarization(SteadyState(0.5, 0.5, 0, 0, 0)) == 0.0
    assert polarization(SteadyState(0.8, 0.0, 0.1, 0.05, 0.05)) == 1.0
    with pytest.raises(ValueError):
        polarization(SteadyState(0.0, 0.0, 0.5, 0.3, 0.2))


def test_condition_number_reported(example_rates):
    rates, pump = example_rates
    ss = steady_state(rates, pump, 1e8)
    assert ss.condition_number is not None
    assert ss.condition_number > 1.0
    assert ss.condition_number == condition_numbers(rates, pump, 1e8)


def test_load_rate_file_errors(tmp_path):
    bad = tmp_path / "rates.txt"
    bad.write_text("k31 = 65.9\n")
    with pytest.raises(ValueError, match="missing required keys: k32, k35"):
        load_rate_file(bad)
