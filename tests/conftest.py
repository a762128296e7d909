import mpmath
import numpy as np
import pytest

import lrcfm
from lrcfm import designer
from lrcfm.nv_rates import NvRateSet
from lrcfm.pulse_fit import FitResult


@pytest.fixture(scope="session")
def example_rates():
    return lrcfm.load_rate_file(lrcfm.data_path("nv_rates_example.txt"))


@pytest.fixture(scope="session")
def reference_context(example_rates):
    """532 nm, 0.9 mm incident beam, 10 mW, 500 um sample, 1-inch lens."""
    rates, pump = example_rates
    return designer.SweepContext(
        wavelength=532e-9,
        laser_power=10e-3,
        incident_beam_diameter=0.9e-3,
        sample_thickness=500e-6,
        lens_radius=12.7e-3,
        rates=rates,
        pump=pump,
    )


def ode_steady_state(rates: NvRateSet, gamma: float) -> np.ndarray:
    """Independent oracle: integrate the population ODE to long times.

    Builds the generator directly from the level scheme (not via the
    package's rate_matrix) and evaluates the exact solution
    rho(t) = V exp(diag(lam) t) V^-1 rho0 in high precision at a horizon
    long past the slowest relaxation mode (which can be much slower than
    any bare rate: the ground-spin imbalance relaxes at roughly gamma
    times an ISC branching difference).
    """
    k31, k32, k35 = rates.k31, rates.k32, rates.k35
    k41, k42, k45 = rates.k41, rates.k42, rates.k45
    k51, k52 = rates.k51, rates.k52
    a = mpmath.zeros(5, 5)
    # pumping 1->3 and 2->4
    a[0, 0] -= gamma
    a[2, 0] += gamma
    a[1, 1] -= gamma
    a[3, 1] += gamma
    for i, j, k in [(3, 1, k31), (3, 2, k32), (3, 5, k35),
                    (4, 1, k41), (4, 2, k42), (4, 5, k45),
                    (5, 1, k51), (5, 2, k52)]:
        a[i - 1, i - 1] -= k
        a[j - 1, i - 1] += k
    with mpmath.workdps(40):
        lam, vectors = mpmath.eig(a)
        rho0 = mpmath.matrix([mpmath.mpf("0.5"), mpmath.mpf("0.5"),
                              0, 0, 0])
        coeffs = mpmath.lu_solve(vectors, rho0)
        biggest = max(abs(v) for v in lam)
        decay = [-mpmath.re(v) for v in lam if abs(v) > 1e-9 * biggest]
        horizon = 200.0 / min(decay)
        rho = vectors * mpmath.diag([mpmath.exp(v * horizon) for v in lam]) \
            * coeffs
        return np.array([float(mpmath.re(v)) for v in rho])


def random_rate_set(rng: np.random.Generator) -> NvRateSet:
    """A random but physically shaped rate set (MHz-scale decay, slower
    singlet, spin-selective ISC)."""
    scale = 10 ** rng.uniform(6, 8)
    return NvRateSet(
        k31=scale * rng.uniform(0.3, 1.5),
        k32=scale * rng.uniform(0.0, 0.1),
        k35=scale * rng.uniform(0.02, 0.3),
        k41=scale * rng.uniform(0.0, 0.1),
        k42=scale * rng.uniform(0.3, 1.5),
        k45=scale * rng.uniform(0.2, 1.2),
        k51=scale * rng.uniform(0.005, 0.05),
        k52=scale * rng.uniform(0.005, 0.05),
    )


def fit_rows(batch: FitResult) -> list:
    """The rows of a `fit_many` batch as lone FitResults, as `fit` returns
    them, with None for a constant (unidentifiable) row."""
    return [None if n == 0 else FitResult(batch.model, p, c, r, ok, n)
            for p, c, r, ok, n in zip(
                batch.params, batch.covariance, batch.residual_rms.tolist(),
                batch.converged.tolist(), batch.iterations.tolist())]
