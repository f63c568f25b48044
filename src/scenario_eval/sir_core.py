"""Deterministic SIR integration and final epidemic size.

The model is a closed SIR system with pre-simulation vaccination and a
power-law heterogeneity exponent on the infected compartment:

    ds/dt = -beta * s * h(i)
    di/dt =  beta * s * h(i) - gamma * i
    dr/dt =  gamma * i

with s, i, r population fractions (s + i + r = 1), gamma = 1/infectious_period,
beta = r0 * gamma, and

    h(i) = (i * population) ** alpha / population

i.e. the exponent acts on the infected count over a reference population, so
alpha = 1 recovers the classic frequency-dependent SIR exactly and alpha < 1
dampens transmission (heterogeneity makes outbreaks smaller). h(0) = 0 by
definition for every alpha > 0.

Initial state: s(0) = 1 - v, i(0) = i0, r(0) = v - i0 (vaccinated individuals
start recovered). Integration is classic fixed-step RK4, chosen over an
adaptive scheme for bitwise reproducibility; accuracy is guarded by the
step-refinement check in the test suite.

The final epidemic size is reported relative to the initially susceptible
(post-vaccination) population: (s(0) - s(end)) / s(0).

A grid of more than MAX_STEPS = 1,000,000 steps (horizon / step) is rejected
with ParameterDomainError, so no horizon or step can make a solve run
effectively forever; the default grid has 2,192 steps. A step too coarse for
RK4 to stay stable shows as a final size outside [0, 1] (by more than
FINAL_SIZE_TOL = 1e-9) and raises NumericalInstabilityError.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalInstabilityError, ParameterDomainError

DEFAULT_INFECTIOUS_PERIOD = 10.0   # days
DEFAULT_I0 = 0.001                 # initial infected fraction
DEFAULT_POPULATION = 1000.0        # reference count scale for the heterogeneity term
DEFAULT_HORIZON = 548.0            # days, one and a half years
DEFAULT_STEP = 0.25                # days
MAX_STEPS = 1_000_000              # largest accepted horizon / step
FINAL_SIZE_TOL = 1e-9              # accepted excursion of a final size outside [0, 1]


@dataclass(frozen=True)
class SirParams:
    """One SIR parameterization.

    Attributes:
        r0: Basic reproduction number, >= 0 (0 means no transmission).
        alpha: Heterogeneity exponent on the infected count, > 0.
        v: Vaccination coverage fraction, in [0, 1).
        infectious_period: Mean infectious period in days, > 0. The recovery
            rate is its reciprocal and beta = r0 / infectious_period.
        i0: Initial infected fraction, in (0, 1 - v).
        population: Reference population for the heterogeneity term, >= 1.
    """

    r0: float
    alpha: float
    v: float
    infectious_period: float = DEFAULT_INFECTIOUS_PERIOD
    i0: float = DEFAULT_I0
    population: float = DEFAULT_POPULATION

    def __post_init__(self):
        _validate_batch(np.array([self.r0]), np.array([self.alpha]),
                        np.array([self.v]), self.i0, self.infectious_period,
                        self.population)


@dataclass(frozen=True)
class SirTrajectory:
    """Integrated trajectory on a fixed time grid (fractions of N = 1)."""

    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray

    @property
    def final_size(self) -> float:
        """Relative final size (s(0) - s(end)) / s(0)."""
        s0 = float(self.s[0])
        return (s0 - float(self.s[-1])) / s0


def _validate_grid(horizon: float, step: float) -> int:
    if not 0 < horizon < np.inf:
        raise ParameterDomainError(f"horizon must be finite and > 0, got {horizon}")
    if not 0 < step <= horizon:
        raise ParameterDomainError(
            f"step must lie in (0, horizon] = (0, {horizon}], got {step}")
    n_steps = horizon / step
    if not n_steps <= MAX_STEPS:
        raise ParameterDomainError(
            f"horizon / step must be <= {MAX_STEPS} steps, got {horizon} / {step}")
    return int(round(n_steps))


def _derivatives(s, i, beta, gamma, alpha, population):
    # h(i) on the count scale; the maximum() guards stray negative i from
    # round-off before the fractional power.
    counts = np.maximum(i, 0.0) * population
    infection = beta * s * np.power(counts, alpha) / population
    recovery = gamma * i
    return -infection, infection - recovery, recovery


def _rk4(s, i, r, beta, gamma, alpha, population, step, n_steps, record=False):
    """Advance the batch state by n_steps of RK4; optionally record each step.

    Overflow is not trapped here; callers detect non-finite end states and
    raise NumericalInstabilityError.
    """
    if record:
        hist = np.empty((n_steps + 1, 3) + s.shape)
        hist[0] = (s, i, r)
    half = 0.5 * step
    sixth = step / 6.0
    for k in range(n_steps):
        ds1, di1, dr1 = _derivatives(s, i, beta, gamma, alpha, population)
        ds2, di2, dr2 = _derivatives(s + half * ds1, i + half * di1,
                                     beta, gamma, alpha, population)
        ds3, di3, dr3 = _derivatives(s + half * ds2, i + half * di2,
                                     beta, gamma, alpha, population)
        ds4, di4, dr4 = _derivatives(s + step * ds3, i + step * di3,
                                     beta, gamma, alpha, population)
        s = s + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
        i = i + sixth * (di1 + 2.0 * di2 + 2.0 * di3 + di4)
        r = r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
        if record:
            hist[k + 1] = (s, i, r)
    if record:
        return hist
    return s, i, r


def simulate(params: SirParams, horizon: float = DEFAULT_HORIZON,
             step: float = DEFAULT_STEP) -> SirTrajectory:
    """Integrate one parameter set and return the full trajectory.

    Raises:
        ParameterDomainError: Invalid parameters or grid.
        NumericalInstabilityError: Non-finite state produced during integration.
    """
    n_steps = _validate_grid(horizon, step)
    beta = params.r0 / params.infectious_period
    gamma = 1.0 / params.infectious_period
    s0 = np.float64(1.0 - params.v)
    i0 = np.float64(params.i0)
    r0_state = np.float64(params.v - params.i0)
    with np.errstate(over="ignore", invalid="ignore"):
        hist = _rk4(s0, i0, r0_state, beta, gamma, params.alpha,
                    params.population, step, n_steps, record=True)
    if not np.all(np.isfinite(hist)):
        raise NumericalInstabilityError(
            f"non-finite state while integrating {params}")
    times = np.arange(n_steps + 1) * step
    return SirTrajectory(times=times, s=hist[:, 0], i=hist[:, 1], r=hist[:, 2])


def final_size(params: SirParams, horizon: float = DEFAULT_HORIZON,
               step: float = DEFAULT_STEP) -> float:
    """Relative final epidemic size (s(0) - s(end)) / s(0), in [0, 1]."""
    out = final_size_batch(
        np.array([params.r0]), np.array([params.alpha]), np.array([params.v]),
        i0=params.i0, infectious_period=params.infectious_period,
        population=params.population, horizon=horizon, step=step)
    return float(out[0])


def final_size_batch(r0: np.ndarray, alpha: np.ndarray, v: np.ndarray, *,
                     i0: float = DEFAULT_I0,
                     infectious_period: float = DEFAULT_INFECTIOUS_PERIOD,
                     population: float = DEFAULT_POPULATION,
                     horizon: float = DEFAULT_HORIZON,
                     step: float = DEFAULT_STEP) -> np.ndarray:
    """Vectorized relative final size for aligned parameter arrays; every
    element is integrated independently."""
    r0 = np.asarray(r0, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not (r0.shape == alpha.shape == v.shape and r0.ndim == 1):
        raise ParameterDomainError("r0, alpha and v must be 1-d arrays of equal length")
    _validate_batch(r0, alpha, v, i0, infectious_period, population)
    n_steps = _validate_grid(horizon, step)
    beta = r0 / infectious_period
    gamma = 1.0 / infectious_period
    s0 = 1.0 - v
    with np.errstate(over="ignore", invalid="ignore"):
        s_end, i_end, r_end = _rk4(s0, np.full_like(s0, i0), v - i0, beta, gamma,
                                   alpha, population, step, n_steps)
    finite = np.isfinite(s_end) & np.isfinite(i_end) & np.isfinite(r_end)
    if not finite.all():
        raise NumericalInstabilityError(
            f"non-finite state at batch indices {np.flatnonzero(~finite).tolist()}")
    sizes = (s0 - s_end) / s0
    outside = np.flatnonzero((sizes < -FINAL_SIZE_TOL) | (sizes > 1 + FINAL_SIZE_TOL))
    if outside.size:
        raise NumericalInstabilityError(
            f"final sizes outside [0, 1] at batch indices {outside.tolist()} "
            f"(step {step} is too large for a stable RK4 solve)")
    return sizes


def _validate_batch(r0, alpha, v, i0, infectious_period, population):
    """Domain checks shared by SirParams and final_size_batch; NaN and inf
    fail every check."""
    if not np.all((r0 >= 0) & (r0 < np.inf)):
        raise ParameterDomainError("r0 values must be finite and >= 0")
    if not np.all((alpha > 0) & (alpha < np.inf)):
        raise ParameterDomainError("alpha values must be finite and > 0")
    if not np.all((v >= 0) & (v < 1)):
        raise ParameterDomainError("v values must lie in [0, 1)")
    if not 0 < infectious_period < np.inf:
        raise ParameterDomainError(
            f"infectious_period must be finite and > 0, got {infectious_period}")
    if not (i0 > 0 and np.all(i0 < 1 - v)):
        raise ParameterDomainError(f"i0 must lie in (0, 1 - v) for every v, got {i0}")
    if not 1 <= population < np.inf:
        raise ParameterDomainError(
            f"population must be finite and >= 1, got {population}")
