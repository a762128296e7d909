"""Monte Carlo calibration of the covariance that the fitter reports.

For each case, N traces of one true curve with seeded Gaussian noise are
fitted as one stack through `fit_many`. The empirical standard deviation
of each fitted parameter over the N draws, divided by the median of the
reported standard errors sqrt(diag(covariance)), must be 1 within TOL.

TOL is taken from the sampling spread: the standard deviation of N
normal draws has a relative standard error of 1/sqrt(2 (N - 1)), 0.022
for N = 1000, and TOL is four of them (0.089).

The ratio assumes a near-normal estimate. Where a parameter's estimates
are skewed (the rabi decay time a2 that is long against the window),
the reported error varies with the estimate, and the median understates
the spread (the ratio reads ~1.3 there); the test checks the standard
deviation of the z-scores (estimate - truth) / reported error instead,
and checks that those estimates are indeed skewed.
"""

import numpy as np
import pytest

from lrcfm import pulse_fit
from lrcfm.traces import Traces

N = 1000
TOL = 4.0 / np.sqrt(2.0 * (N - 1))
SKEWED = 1.0  # sample skewness above which an estimate counts as skewed

RABI_TAU = np.linspace(0.0, 4e-6, 120)
T2_TAU = np.linspace(0.0, 80e-6, 121)[1:]
CASES = {
    # name: (model, true parameters, tau, noise sigma, z-scored indices)
    "rabi-0.02": ("rabi", [1.0, 3e-6, 2e6, 0.3, 0.5], RABI_TAU, 0.02, ()),
    "rabi-0.1": ("rabi", [1.0, 3e-6, 2e6, 0.3, 0.5], RABI_TAU, 0.1, ()),
    "rabi-long-a2": ("rabi", [1.0, 4e-6, 5e6, 0.3, 0.5],
                     np.linspace(0.0, 1e-6, 120), 0.1, (1,)),
    "t1-0.02": ("t1", [1.0, 1e-3, 0.3], np.linspace(0.0, 5e-3, 120), 0.02,
                ()),
    "t1-0.1": ("t1", [1.0, 1e-3, 0.3], np.linspace(0.0, 5e-3, 120), 0.1, ()),
    "t2-0.02": ("t2", [1.0, 20e-6, 1.5], T2_TAU, 0.02, ()),
    "t2-0.1": ("t2", [1.0, 20e-6, 1.5], T2_TAU, 0.1, ()),
}


def skewness(x):
    d = x - x.mean(axis=0)
    return (d ** 3).mean(axis=0) / d.std(axis=0) ** 3


@pytest.mark.parametrize("case", sorted(CASES))
def test_reported_errors_match_the_spread(case):
    model, truth, tau, noise, zscored = CASES[case]
    truth = np.array(truth)
    rng = np.random.default_rng([2718, sorted(CASES).index(case)])
    signal = pulse_fit.model_eval(model, tau, truth) \
        + rng.normal(0.0, noise, (N, len(tau)))
    batch = pulse_fit.fit_many(model, [Traces(tau, signal)])
    assert (batch.iterations > 0).all() and batch.converged.all()
    estimates = batch.params
    errors = np.sqrt(np.diagonal(batch.covariance, axis1=1, axis2=2))
    ratio = estimates.std(axis=0, ddof=1) / np.median(errors, axis=0)
    z = ((estimates - truth) / errors).std(axis=0, ddof=1)
    skew = np.abs(skewness(estimates))
    for j in range(len(truth)):
        if j in zscored:
            assert skew[j] > SKEWED, (j, skew[j])
            assert abs(z[j] - 1.0) <= TOL, (j, z[j])
        else:
            assert skew[j] <= SKEWED, (j, skew[j])
            assert abs(ratio[j] - 1.0) <= TOL, (j, ratio[j])
