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
alpha = 1 is the classic frequency-dependent SIR mathematically (in floating
point, equal to it up to the rounding of (i * population) / population) and
alpha < 1 dampens transmission (heterogeneity makes outbreaks smaller).
h(0) = 0 by definition for every alpha > 0.

Initial state: s(0) = 1 - v, i(0) = i0, r(0) = v - i0 (vaccinated individuals
start recovered). Integration is classic fixed-step RK4, chosen over an
adaptive scheme for bitwise reproducibility. The default step of 2 days
keeps the time-step error of a final size at most 1.1e-7 against a step of
0.0625 on the benchmark's 24,600 solves (6.8e-9 at the earlier default of
1 day, 4.2e-10 at 0.5), five orders of magnitude below the up to 0.10 that
the finite horizon leaves out (see below) and the model errors of about
0.05 this package measures; the test suite checks the step against a
quarter of it. Drawn alphas up to about 1.4 stay accurate at the default
step (within 1e-4 of a step of 0.125 for r0 2 to 3.5 and v 0.3 to 0.5;
within 3.5e-6 for alpha 0.9 to 1.1). From about 1.41 the solve turns
stiff: a final size leaves [0, 1]; or it stays inside and the infected
fraction ends below 0; or s, which no step of a stable solve raises, ends
above the lowest value it reached. All three raise (see below). Only the end
is checked, so an s that rises and falls back below its earlier low passes:
at a step of 1.0, r0 2.9, alpha 1.57, v 0.5 rises by 0.080 in one step and
ends at its lowest value, accepted, with a final size (0.9999998) that
happens to be right. A sweep of 10,480 solves (r0 2 to
3.5 by 0.1, alpha 0.9 to 2.2 by 0.01, v 0.3 to 0.5 by 0.05) at the default
step against a step of 0.125 accepts 4,985 solves, each within 1.1e-4, so
none off by more than 1e-3. The rising-s check alone rejects 33 of the
others, all at alpha 1.42 and above; one of them (r0 2.9, alpha 1.57, v 0.5)
ends at 0.485 with i > 0 where the finer step gives 1.0. At a step of 1.0
the same sweep accepts 5,704 solves, each within 2.1e-6; the rising-s check
alone rejects 28, all at alpha 1.53 and above.

The grid takes the fewest steps of at most ``step`` that reach the horizon:
ceil(horizon / step) steps of horizon / ceil(horizon / step) each. A step
that divides the horizon, to within rounding of the ratio (relative
GRID_TOL), is used as given.

One in-place kernel, ``_rk4``, does every solve. ``final_size_batch`` runs
it over blocks of BLOCK solves and advances (s, i) only: r feeds neither s
nor i, and the final size reads only s, so integrating r would change no
result; it also keeps each solve's lowest s. ``simulate`` passes the r row
too, to return the full trajectory. Within a block the stage arrays are
allocated once and every step writes into them, so a block's working set
stays in cache: BLOCK = 16,384 is the largest power of two whose 13 float64
arrays fit a 2 MiB per-core L2.
Each step costs 47 ufunc calls whatever the block's length, so a batch is
best solved in as few blocks as fit: the 12,300-solve share of a
24,600-solve batch on two CPUs is one. Each value is rounded as in the
textbook RK4 formulas, so results do not depend on the block size or on
whether r is integrated.

The final epidemic size is reported relative to the initially susceptible
(post-vaccination) population: (s(0) - s(end)) / s(0), the attack fraction
by the horizon (day 548 by default), not a converged size: with alpha < 1
the per-capita growth rate beta * s * (population * i) ** (alpha - 1) - gamma
is unbounded as i -> 0, so infection never dies out and near-threshold
epidemics are still running at the horizon. No convergence stop is applied.

A grid of more than MAX_STEPS = 1,000,000 steps (horizon / step) is rejected
with ParameterDomainError, so no horizon or step can make a solve run
effectively forever; the default grid has 274 steps. A step too coarse for
RK4 to stay stable shows as a final size outside [0, 1] (by more than
FINAL_SIZE_TOL = 1e-9), an infected fraction below 0 at the end or an s
that ends above its lowest value, and raises NumericalInstabilityError.

``final_size_batch`` uses every CPU this process may run on: it splits its
solves into contiguous ranges, one per CPU but none shorter than MIN_SHARE,
and solves all but the last range in forked worker processes (``fanout``),
each range still in BLOCKs; the finite, [0, 1], i >= 0 and rising-s checks
run once on the merged end states, so the indices they report are global.
It solves serially, without forking, on one CPU, where ``os.fork`` does not
exist, when the calling process has more than one live thread, and for
fewer than 2 * MIN_SHARE solves, where a fork costs more than the split
saves.
Results do not depend on the split.
``simulate`` never forks. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fanout
from .errors import NumericalInstabilityError, ParameterDomainError, listed

DEFAULT_INFECTIOUS_PERIOD = 10.0   # days
DEFAULT_I0 = 0.001                 # initial infected fraction
DEFAULT_POPULATION = 1000.0        # reference count scale for the heterogeneity term
DEFAULT_HORIZON = 548.0            # days, one and a half years
DEFAULT_STEP = 2.0                 # days; time-step error <= 1.1e-7 (see module doc)
MAX_STEPS = 1_000_000              # largest accepted horizon / step
GRID_TOL = 1e-12                   # horizon / step this close to an integer (relative) is one
FINAL_SIZE_TOL = 1e-9              # accepted excursion of a final size outside [0, 1]
# Solves per kernel call: the largest power of two whose 13 float64 arrays
# (y, slope, total and stage of two rows each, power, neg_recovery, beta,
# alpha, s_low) fit a 2 MiB per-core L2 cache, so a block stays in it through
# all its steps: 13 x 16,384 x 8 B = 1.6 MiB. Medians of 15 on the 548-step
# grid of the earlier 1-day default step, before s_low, 2-vCPU Xeon VM, at
# BLOCK 8,192 / 12,288 / 16,384 / 24,576:
# one process, 24,576 solves: 29.9 / 31.6 / 28.4 / 36.8 us per solve
# (24,576 spills the L2); 24,600 solves fanned over both CPUs, shares of
# 12,300: 20.4 / 21.2 / 17.5 / 17.9 (BENCH_day_step.json).
BLOCK = 1 << (((2 << 20) // (13 * 8)).bit_length() - 1)
# Fewest solves in each range of a split batch. Two processes on a 2-vCPU
# machine break even between 512 and 825 solves on the 1-day step's grid
# (medians of 15, serial against fanned: 2 solves 31 against 53 ms, 512:
# 47 against 50, 825: 58 against 53, 1,650: 75 against 66, 4,096: 134
# against 102; BENCH_day_step.json), as per-step ufunc overhead, which a
# split does not halve, dominates smaller batches.
MIN_SHARE = 256


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
        """Attack fraction (s(0) - s(end)) / s(0) by the horizon, not converged."""
        s0 = float(self.s[0])
        return (s0 - float(self.s[-1])) / s0


def _grid(horizon: float, step: float) -> tuple[int, float]:
    """Number and length of the steps from 0 to ``horizon``: the fewest
    steps of at most ``step`` that end at the horizon."""
    if not 0 < horizon < np.inf:
        raise ParameterDomainError(f"horizon must be finite and > 0, got {horizon}")
    if not 0 < step <= horizon:
        raise ParameterDomainError(
            f"step must lie in (0, horizon] = (0, {horizon}], got {step}")
    ratio = horizon / step
    if not ratio <= MAX_STEPS:
        raise ParameterDomainError(
            f"horizon / step must be <= {MAX_STEPS} steps, got {horizon} / {step}")
    n_steps = round(ratio)
    if abs(ratio - n_steps) <= GRID_TOL * n_steps:
        return n_steps, step
    n_steps = math.ceil(ratio)
    return n_steps, horizon / n_steps


def _rk4(y, beta, alpha, gamma, population, step, n_steps, s_low=None):
    """Advance y = (s, i) or (s, i, r), shape (k, n), by n_steps of RK4 in place.

    r feeds neither s nor i, so its row is integrated only when present.
    ``s_low``, if given, holds each solve's lowest s so far and is lowered
    in place after every step. The stage arrays are allocated once per call
    and every ufunc writes into them. Each value is rounded exactly as in the
    textbook form s + dt * ds, ds = -beta * s * h(i),
    di = beta * s * h(i) - gamma * i, dr = gamma * i: negation is exact, so ds
    is taken as (-beta) * s * h(i) and di as (-gamma * i) - ds. Overflow is
    not trapped here; callers detect non-finite end states and raise
    NumericalInstabilityError.
    """
    half = 0.5 * step
    sixth = step / 6.0
    neg_beta = -beta
    neg_gamma = -gamma
    slope = np.empty_like(y)         # (ds, di[, dr]) of the current stage
    total = np.empty_like(y)         # ds1 + 2 ds2 + 2 ds3 + ds4, per row
    stage = np.empty_like(y)         # stage state (s, i), then scratch
    power = np.empty_like(y[0])      # h(i) before the division by population
    neg_recovery = np.empty_like(y[0])
    ds, di = slope[0], slope[1]
    dr = slope[2] if len(y) == 3 else None
    y_si, slope_si, stage_si = y[:2], slope[:2], stage[:2]
    # Per stage: the (s, i) it reads, and the step to the next stage's state.
    stages = ((y[0], y[1], half), (stage[0], stage[1], half),
              (stage[0], stage[1], step), (stage[0], stage[1], None))
    for _ in range(n_steps):
        for k, (s, i, dt) in enumerate(stages):
            # h(i) on the count scale; the maximum() guards stray negative i
            # from round-off before the fractional power.
            np.maximum(i, 0.0, out=power)
            np.multiply(power, population, out=power)
            np.power(power, alpha, out=power)
            np.multiply(neg_beta, s, out=ds)
            np.multiply(ds, power, out=ds)
            np.divide(ds, population, out=ds)
            np.multiply(neg_gamma, i, out=neg_recovery)
            np.subtract(neg_recovery, ds, out=di)
            if dr is not None:
                np.negative(neg_recovery, out=dr)
            if k == 0:
                np.copyto(total, slope)
            elif k < 3:
                np.multiply(slope, 2.0, out=stage)
                np.add(total, stage, out=total)
            else:
                np.add(total, slope, out=total)
                break
            # The next stage's state y + dt * slope; r feeds no stage.
            np.multiply(slope_si, dt, out=stage_si)
            np.add(y_si, stage_si, out=stage_si)
        np.multiply(total, sixth, out=total)
        np.add(y, total, out=y)
        if s_low is not None:
            np.minimum(s_low, y[0], out=s_low)


def simulate(params: SirParams, horizon: float = DEFAULT_HORIZON,
             step: float = DEFAULT_STEP) -> SirTrajectory:
    """Integrate one parameter set and return the full trajectory.

    The solve is the batch kernel's on a batch of one, stepped once per grid
    point, so ``simulate(p).final_size == final_size(p)`` bit for bit.

    Raises:
        ParameterDomainError: Invalid parameters or grid.
        NumericalInstabilityError: Non-finite state produced during integration.
    """
    n_steps, step = _grid(horizon, step)
    with np.errstate(over="ignore"):   # an infinite beta fails as a non-finite state
        beta = np.array([params.r0]) / params.infectious_period
    alpha = np.array([params.alpha])
    gamma = 1.0 / params.infectious_period
    hist = np.empty((n_steps + 1, 3))
    y = np.array([[1.0 - params.v], [params.i0], [params.v - params.i0]])
    hist[0] = y[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            _rk4(y, beta, alpha, gamma, params.population, step, 1)
            hist[k + 1] = y[:, 0]
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
    """Vectorized relative final size by ``horizon`` (not converged) for
    aligned parameter arrays; every element is integrated independently."""
    r0 = np.asarray(r0, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not (r0.shape == alpha.shape == v.shape and r0.ndim == 1):
        raise ParameterDomainError("r0, alpha and v must be 1-d arrays of equal length")
    _validate_batch(r0, alpha, v, i0, infectious_period, population)
    n_steps, step = _grid(horizon, step)
    with np.errstate(over="ignore"):   # an infinite beta fails as a non-finite state
        beta = r0 / infectious_period
    gamma = 1.0 / infectious_period
    s0 = 1.0 - v
    n = len(s0)

    def split(parts):
        parts = max(1, min(parts, n // MIN_SHARE))
        return [slice(k * n // parts, (k + 1) * n // parts) for k in range(parts)]

    def solve(share):
        """End states (s, i) and lowest s of the solves in the index slice
        ``share``."""
        share_s0, share_beta, share_alpha = s0[share], beta[share], alpha[share]
        end = np.empty((3, len(share_s0)))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(share_s0), BLOCK):
                block = slice(start, start + BLOCK)
                y = np.stack([share_s0[block], np.full_like(share_s0[block], i0)])
                end[2, block] = share_s0[block]
                _rk4(y, share_beta[block], share_alpha[block], gamma, population,
                     step, n_steps, end[2, block])
                end[:2, block] = y
        return end

    s_end, i_end, s_low = np.concatenate(fanout.fan_out(solve, split), axis=1)
    bad = np.flatnonzero(~(np.isfinite(s_end) & np.isfinite(i_end))).tolist()
    if bad:
        raise NumericalInstabilityError(
            f"non-finite state at batch indices {listed(bad)}", tuple(bad))
    sizes = (s0 - s_end) / s0
    # A stiff solve can swing i below 0, where h(i) stops transmission, and
    # end inside [0, 1] far from the true size; it then ends with i < 0, or
    # its s, which no RK4 step of a stable solve raises, ends above its low.
    bad = np.flatnonzero((sizes < -FINAL_SIZE_TOL) | (sizes > 1 + FINAL_SIZE_TOL)
                         | (i_end < 0) | (s_end > s_low)).tolist()
    if bad:
        raise NumericalInstabilityError(
            f"final sizes outside [0, 1], negative infected or rising susceptible "
            f"fractions at batch indices {listed(bad)} "
            f"(step {step} is too large for a stable RK4 solve)",
            tuple(bad))
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
