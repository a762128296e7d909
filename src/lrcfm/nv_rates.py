"""Five-level NV-center rate-equation model.

Levels: 1 = ground m_s=0, 2 = ground m_s=+-1, 3 = excited m_s=0,
4 = excited m_s=+-1, 5 = metastable singlet. Optical pumping drives
1->3 and 2->4 at the same rate Gamma = kappa * power_density
(spin-conserving excitation).

The steady state solves the linear system d(rho)/dt = 0 with the
normalization sum(rho) = 1:

    d rho11/dt = -G rho11 + k31 rho33 + k41 rho44 + k51 rho55
    d rho22/dt = -G rho22 + k32 rho33 + k42 rho44 + k52 rho55
    d rho33/dt =  G rho11 - (k31 + k32 + k35) rho33
    d rho44/dt =  G rho22 - (k41 + k42 + k45) rho44
    d rho55/dt =  k35 rho33 + k45 rho44 - (k51 + k52) rho55

`steady_states` solves a whole array of power densities as one stack of
5x5 systems and returns a SteadyState of arrays; `steady_state` is the
same solve at one power density, with the condition number of its
system. `cw_fluorescence` and `polarization` work elementwise on either.
`condition_numbers` gives the condition numbers of a whole stack (one
batched SVD, several times the cost of the solve), for a caller that
reports them. The rate file is read by `config.load_rate_file`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

RATE_KEYS = ("k31", "k32", "k35", "k41", "k42", "k45", "k51", "k52")


@dataclass(frozen=True)
class NvRateSet:
    """Transition rates k_ij in Hz (from level i to level j)."""

    k31: float
    k32: float
    k35: float
    k41: float
    k42: float
    k45: float
    k51: float
    k52: float

    def __post_init__(self):
        for key in RATE_KEYS:
            if not 0 <= getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be non-negative and finite")
        if self.k31 + self.k32 + self.k35 <= 0:
            raise ValueError("level 3 must have a decay channel")
        if self.k41 + self.k42 + self.k45 <= 0:
            raise ValueError("level 4 must have a decay channel")
        if self.k51 + self.k52 <= 0:
            raise ValueError("the singlet must have a decay channel")

    @property
    def excited0_decay(self) -> float:
        return self.k31 + self.k32 + self.k35

    @property
    def excited1_decay(self) -> float:
        return self.k41 + self.k42 + self.k45

    @property
    def singlet_decay(self) -> float:
        return self.k51 + self.k52


@dataclass(frozen=True)
class PumpModel:
    """Linear optical pump: Gamma = coupling * power_density, applied
    equally to both ground spin branches."""

    coupling: float  # Hz per (W/m^2)

    def __post_init__(self):
        if not 0 < self.coupling < np.inf:
            raise ValueError("pump coupling must be positive and finite")

    def pump_rate(self, power_density: float) -> float:
        return self.coupling * power_density


@dataclass(frozen=True)
class SteadyState:
    """Steady-state populations rho_ii; sums to 1. From `steady_states`
    each field is an array with one entry per power density, and the
    condition number is None; `steady_state` gives its system's."""

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho55: float
    condition_number: float | None = None

    def populations(self) -> np.ndarray:
        return np.array([self.rho11, self.rho22, self.rho33,
                         self.rho44, self.rho55])


def rate_matrix(rates: NvRateSet, gamma) -> np.ndarray:
    """Generator A of the population ODE d(rho)/dt = A rho. For an array
    of pump rates, a stack of generators of shape gamma.shape + (5, 5)."""
    r = rates
    gamma = np.asarray(gamma, dtype=float)
    a = np.empty(gamma.shape + (5, 5))
    a[...] = [
        [0.0, 0.0, r.k31, r.k41, r.k51],
        [0.0, 0.0, r.k32, r.k42, r.k52],
        [0.0, 0.0, -r.excited0_decay, 0.0, 0.0],
        [0.0, 0.0, 0.0, -r.excited1_decay, 0.0],
        [0.0, 0.0, r.k35, r.k45, -r.singlet_decay],
    ]
    a[..., 0, 0] = a[..., 1, 1] = -gamma
    a[..., 2, 0] = a[..., 3, 1] = gamma
    return a


def _systems(rates: NvRateSet, pump: PumpModel, power_density):
    """(stack of normalized 5x5 systems, pump rates) for an array of power
    densities: each rate matrix with its first (redundant) row replaced by
    the normalization constraint."""
    power_density = np.asarray(power_density, dtype=float)
    if (power_density <= 0).any():
        raise ValueError(
            "degenerate steady state: power_density must be strictly "
            "positive (with no pumping the ground-state split is "
            "undetermined)")
    gamma = pump.pump_rate(power_density)
    a = rate_matrix(rates, gamma)
    a[..., 0, :] = 1.0  # normalization row replaces one redundant balance row
    return a, gamma


def steady_states(rates: NvRateSet, pump: PumpModel,
                  power_density) -> SteadyState:
    """Unique steady states of the pumped five-level system for an array
    of power densities, returned as one SteadyState whose fields are
    arrays of the same shape (scalars for a scalar power density).

    The whole stack of normalized 5x5 systems goes through one batched
    solve. If a system is singular (an exactly zero LU pivot: slogdet
    sign 0), the first one in C order is named in an ArithmeticError.
    """
    a, gamma = _systems(rates, pump, power_density)
    b = np.zeros(a.shape[:-1] + (1,))
    b[..., 0, 0] = 1.0
    try:
        rho = np.linalg.solve(a, b)
        # one step of iterative refinement; the system is badly
        # conditioned when the pump is far slower than the decay rates
        rho += np.linalg.solve(a, b - a @ rho)
    except np.linalg.LinAlgError as exc:
        # name the first singular system: its LU has a zero pivot, sign 0
        with np.errstate(invalid="ignore"):
            singular = np.flatnonzero(np.linalg.slogdet(a)[0] == 0)
        if not singular.size:
            raise
        i = singular[0]
        raise ArithmeticError(
            "singular steady-state system "
            f"(cond={np.linalg.cond(a.reshape(-1, 5, 5)[i]):.3e}, "
            f"gamma={np.ravel(gamma)[i]:.3e} Hz)") from exc
    return SteadyState(*(rho[..., k, 0] for k in range(5)))


def condition_numbers(rates: NvRateSet, pump: PumpModel, power_density):
    """Condition numbers of the systems `steady_states` solves, one per
    power density, from one batched SVD."""
    return np.linalg.cond(_systems(rates, pump, power_density)[0])


def steady_state(rates: NvRateSet, pump: PumpModel,
                 power_density: float) -> SteadyState:
    """Unique steady state of the pumped five-level system at one power
    density, `steady_states` at a scalar power density, with the
    condition number of its system."""
    return replace(steady_states(rates, pump, power_density),
                   condition_number=float(condition_numbers(
                       rates, pump, power_density)))


def cw_fluorescence(ss: SteadyState, rates: NvRateSet) -> float:
    """Radiative-emission rate per center from the excited-state
    populations, weighted by the radiative branching ratio of each
    spin branch."""
    d3 = rates.excited0_decay
    d4 = rates.excited1_decay
    return ((rates.k31 + rates.k32) / d3 * ss.rho33
            + (rates.k41 + rates.k42) / d4 * ss.rho44)


def polarization(ss: SteadyState) -> float:
    """Normalized ground-state population imbalance
    (rho11 - rho22) / (rho11 + rho22), in [-1, 1]."""
    total = ss.rho11 + ss.rho22
    if np.less_equal(total, 0).any():
        raise ValueError("polarization undefined: empty ground manifold")
    return (ss.rho11 - ss.rho22) / total
