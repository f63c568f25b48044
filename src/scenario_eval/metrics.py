"""Error decomposition and accuracy metrics.

The deviation between a projection and the realized observation splits into
two signed components along the counterfactual observation:

    observed deviation  = projected - realized_obs
    calibration error   = projected - counterfactual_obs
    scenario spec error = counterfactual_obs - realized_obs

so observed = calibration + scenario_spec identically, while the two
components can cancel. The total error |calibration| + |scenario_spec|
therefore summarizes cases where a projection "gets the right answer for
the wrong reason".

Estimated error distributions are scored against true errors by the absolute
difference of means and by a two-sample Kolmogorov-Smirnov test at the
asymptotic critical value D* = c(alpha) * sqrt((n + m) / (n * m)) with
c(alpha) = sqrt(-ln(alpha / 2) / 2) (c(0.05) = 1.358), for 0 < alpha < 1.
The KS statistic D is evaluated only at, and just below, the jump points of
the smaller sample: O(k log N) after sorting for sample sizes k <= N, and
bit-identical to the maximum over every pooled point (see ``ks_two_sample``).
A sample that is already in ascending order is not sorted again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError


@dataclass(frozen=True)
class Decomposition:
    observed_deviation: float
    calibration_error: float
    scenario_spec_error: float
    total_error: float


def decompose(projected, counterfactual_obs, realized_obs) -> Decomposition:
    """Split observed deviations into their calibration and scenario parts,
    elementwise: floats give Python floats, and arrays of one shape give
    arrays whose every element has the bits of the scalar call on it."""
    values = (projected, counterfactual_obs, realized_obs)
    if not all(np.isfinite(v).all() for v in values):
        raise ParameterDomainError(f"decompose requires finite inputs, got {values}")
    calibration = projected - counterfactual_obs
    scenario_spec = counterfactual_obs - realized_obs
    return Decomposition(
        observed_deviation=projected - realized_obs,
        calibration_error=calibration,
        scenario_spec_error=scenario_spec,
        total_error=abs(calibration) + abs(scenario_spec),
    )


def mae_of_means(estimated_samples, true_errors) -> float:
    """|mean(estimated samples) - mean(true errors)|.

    ``true_errors`` may be a vector (distribution comparison) or a scalar
    (a single location's true error); so may ``estimated_samples``, e.g. a
    distribution's precomputed ``summary.mean``.
    """
    est = np.asarray(getattr(estimated_samples, "samples", estimated_samples),
                     dtype=np.float64)
    true = np.atleast_1d(np.asarray(true_errors, dtype=np.float64))
    if est.size == 0 or true.size == 0:
        raise ParameterDomainError("mae_of_means requires non-empty inputs")
    return float(abs(est.mean() - true.mean()))


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    m: int
    alpha: float
    critical_value: float
    significant: bool


def ks_critical_value(n: int, m: int, alpha: float = 0.05) -> float:
    """Asymptotic two-sample KS critical value; requires 0 < alpha < 1."""
    if not 0 < alpha < 1:
        raise ParameterDomainError(f"alpha must lie in (0, 1), got {alpha}")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def ks_two_sample(a, b, alpha: float = 0.05) -> KsResult:
    """Two-sample KS test on 1-d samples of at least 5 finite points each.

    With ``small`` the smaller sorted sample (k points) and ``big`` the
    larger (N points), D is the largest |F_big - F_small| at each point of
    ``small`` and just below it, 2k values from O(k log N) searches. Each is
    the gap at some pooled point (or 0), from the same integer counts and
    sizes. Between two jumps of ``small`` its CDF is constant while
    ``F_big`` rises, and i/N - j/k stays monotone in i after rounding, so
    the largest gap there sits at one end: the result is bit-identical to
    the maximum over every pooled point. ``significant`` is True when D
    exceeds the asymptotic critical value at ``alpha``, which must lie in
    (0, 1). A sample already in ascending order, which one O(n) pass
    checks, is used as it is: D depends only on the sorted values.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ParameterDomainError(
            f"ks_two_sample requires 1-d samples, got shapes {a.shape}, {b.shape}")
    if a.size < 5 or b.size < 5:
        raise ParameterDomainError(
            f"ks_two_sample requires n, m >= 5, got {a.size}, {b.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterDomainError("ks_two_sample requires finite samples")
    critical = ks_critical_value(a.size, b.size, alpha)
    a, b = (x if (x[:-1] <= x[1:]).all() else np.sort(x) for x in (a, b))
    small, big = (a, b) if a.size <= b.size else (b, a)
    # side="left" gives both CDFs just below each point of small.
    gaps = (np.abs(np.searchsorted(big, small, side) / big.size
                   - np.searchsorted(small, small, side) / small.size)
            for side in ("left", "right"))
    statistic = float(max(gap.max() for gap in gaps))
    return KsResult(statistic=statistic, n=int(a.size), m=int(b.size),
                    alpha=alpha, critical_value=critical,
                    significant=statistic > critical)
