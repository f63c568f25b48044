"""Three strategies for estimating projection error in counterfactual worlds.

All three target the same quantity: the distribution, across locations, of
the error a model's scenario projection would show against what would have
been observed had the scenario held.

1. ``evaluate_plausible``: treat the scenario closest to the realized
   coverage as "plausible" for each location and compare its projection
   directly to the realized observation. No fitting; contaminated by any
   remaining scenario deviation.

2. ``infer_error_distribution``: compute each model's realized-scenario
   error from its honest reprojection, regress that error on the realized
   coverage (optionally plus a linear true-R0 covariate), and sample the
   fitted predictive distribution at each scenario coverage.

3. ``infer_observations``: fit a single model-independent regression of the
   realized observations on coverage (optionally plus linear true-R0),
   sample inferred observations at each scenario coverage, and subtract the
   sampled observations from each model's projections.

Strategies 2 and 3 share one predictive draw (``_draw``) in location-ordered
chunks, the first ``n_samples % n_locations`` locations one sample longer,
and one builder (``_distributions``) that pools each sample vector across
locations and, with the covariate, keeps per-location distributions as row
views of it, which is therefore read-only. Sampling uses keyed
substreams: strategy 2 keys include the model, strategy 3 deliberately does
not, so a single set of inferred observations is shared by all models.
Both build their distributions one model at a time (``_by_model``). By
default every model's are collected into the result; a ``consume`` callback
is handed each model's instead, with the sorted copy of each pooled vector,
as soon as they are built, so a caller that scores and drops them holds one
model's samples at a time (``harness.evaluate`` does). Every array either
hands out is fresh, unless the caller lends ``sample_buffers``: the samples
and sorts then go to those, and the next model overwrites them.

Every distribution carries a ``DistributionSummary`` (mean and five
quantiles). ``summarize_rows`` computes the summaries of a block of
equal-length sample vectors with one ``np.sort`` and one ``mean`` pass along
the rows: one block per pooled vector, per run of equal chunk lengths of a
(model, scenario)'s per-location vectors, and per scenario across models for
strategy 1. The quantiles index the two order statistics around each of
numpy's linear-method positions in the sorted rows and interpolate them as
``np.quantile`` does; a row with a non-finite value, or one that picks a
zero order statistic, whose sign sort and partition may place differently,
goes through ``np.quantile`` itself. Either way the summaries have the same
bits as one ``np.quantile`` and one ``mean`` call per vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import spline_fit
from .errors import ParameterDomainError
from .spline_fit import FittedSpline, SplineSpec
from .streams import KIND_ERROR_SAMPLING, KIND_OBS_SAMPLING, substream
from .world_gen import ModelEnsemble, TrueWorld

POOLED = -1                  # location_id of across-location table rows
APPROACH_PLAUSIBLE = 1
APPROACH_ERROR_REGRESSION = 2
APPROACH_OBSERVATION_MODEL = 3

VARIANT_PLAUSIBLE = "plausible"
VARIANT_COVARIATE = "covariate"
VARIANT_NO_COVARIATE = "no_covariate"

# The (approach, variant) pairs every run evaluates, in table row order.
VARIANTS = (
    (APPROACH_PLAUSIBLE, VARIANT_PLAUSIBLE),
    (APPROACH_ERROR_REGRESSION, VARIANT_NO_COVARIATE),
    (APPROACH_ERROR_REGRESSION, VARIANT_COVARIATE),
    (APPROACH_OBSERVATION_MODEL, VARIANT_NO_COVARIATE),
    (APPROACH_OBSERVATION_MODEL, VARIANT_COVARIATE),
)


QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class DistributionSummary(NamedTuple):
    """Mean and quantile summary of a sample vector; ``mean`` and the
    quantiles equal, bit for bit, ``samples.mean()`` and
    ``np.quantile(samples, QUANTILES)``, though the quantiles come from a
    sort (see ``summarize_rows``). An immutable named tuple: a run
    builds one per distribution, at about a third of a frozen dataclass's
    cost."""

    mean: float
    median: float
    q05: float
    q25: float
    q75: float
    q95: float
    n_samples: int


def _linear_positions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's linear-method arithmetic for QUANTILES of n sorted values:
    the order statistics below and above each position, and the weight of
    the one above. Positions at or past the last value pick it twice."""
    virtual = (n - 1) * np.asarray(QUANTILES)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1
    return below.astype(np.intp), above.astype(np.intp), virtual - below


def summarize_rows(rows: np.ndarray,
                   ordered: np.ndarray | None = None) -> list[DistributionSummary]:
    """One summary per row of a 2-D block of equal-length sample vectors,
    from a single sort and a single mean pass along the rows; ``ordered``,
    when the caller has sorted the rows already, is that sorted block.

    The quantiles interpolate the order statistics of the sorted copy with
    ``np.quantile``'s linear rule, ``a + (b - a) * gamma`` or, for gamma
    >= 0.5, ``b - (b - a) * (1 - gamma)``, so they keep its bits. Sort and
    partition agree on every order statistic but the sign of a zero, and
    numpy returns NaN for a row with a NaN, so a row that picks a zero or
    holds a non-finite value is summarised by ``np.quantile`` itself. The
    block is made C-contiguous first: numpy then sums each row pairwise,
    as it sums a single vector, so the means keep its bits."""
    rows = np.ascontiguousarray(rows)
    n = rows.shape[1]
    if n == 0:
        raise ParameterDomainError("ErrorDistribution requires samples")
    if ordered is None:
        ordered = np.sort(rows, axis=1)
    below, above, gamma = _linear_positions(n)
    a, b = ordered[:, below], ordered[:, above]
    step = b - a
    quantiles = np.where(gamma >= 0.5, b - step * (1 - gamma), a + step * gamma)
    odd = ((a == 0) | (b == 0)).any(axis=1) | ~np.isfinite(ordered[:, [0, -1]]).all(axis=1)
    if odd.any():
        quantiles[odd] = np.quantile(rows[odd], QUANTILES, axis=1).T
    q05, q25, median, q75, q95 = quantiles.T.tolist()
    means = rows.mean(axis=1).tolist()
    return list(map(DistributionSummary, means, median, q05, q25, q75, q95, repeat(n)))


class ErrorDistribution(NamedTuple):
    """Estimated error distribution on the final-size scale; the result dict
    key names its (model, scenario) and, per location, its location.
    ``summary`` comes from the block pass of ``summarize_rows`` that covered
    these samples. An immutable named tuple, like its summary."""

    samples: np.ndarray
    summary: DistributionSummary

    @classmethod
    def make(cls, samples: np.ndarray, summary: DistributionSummary) -> "ErrorDistribution":
        return cls(samples, summary)


@dataclass(frozen=True)
class PlausibleSelection:
    """Per-location plausible scenario: index of the nearest scenario value
    (ties break to the lower scenario) and its absolute deviation from the
    realized value. Locations whose deviation exceeds the plausibility
    threshold get chosen_index -1."""

    chosen_index: np.ndarray   # (L,) int, -1 when no scenario is plausible
    deviation: np.ndarray      # (L,) |x* - x_chosen| (nearest regardless of threshold)


@dataclass(frozen=True)
class PlausibleScenarioResult:
    selection: PlausibleSelection
    point_errors: np.ndarray   # (M, L), NaN where no plausible scenario
    pooled: dict               # (m, j) -> ErrorDistribution | None (flagged empty)


@dataclass(frozen=True)
class InferredErrorResult:
    include_covariate: bool
    realized_errors: np.ndarray          # (M, L)
    fits: tuple[FittedSpline, ...]       # one per model
    pooled: dict                         # (m, j) -> ErrorDistribution
    per_location: dict                   # (m, j, l) -> ErrorDistribution (covariate only)


@dataclass(frozen=True)
class InferredObservationResult:
    include_covariate: bool
    observation_fit: FittedSpline
    pooled: dict                         # (m, j) -> ErrorDistribution
    per_location: dict                   # (m, j, l) -> ErrorDistribution (covariate only)


def select_plausible(world: TrueWorld, threshold: float | None = None) -> PlausibleSelection:
    """Nearest modeled scenario per location (argmin of |x* - x_j|).

    Ties break to the lower scenario. Distances within a relative 1e-9 are
    treated as tied so that decimal midpoints (e.g. 0.40 between 0.30 and
    0.50) resolve the same way they would in exact arithmetic.
    """
    if threshold is not None and not threshold >= 0:
        raise ParameterDomainError(
            f"plausibility threshold must be None or >= 0, got {threshold}")
    distance = np.abs(world.x_realized[:, None] - world.scenario_values[None, :])
    nearly_minimal = np.isclose(distance, distance.min(axis=1, keepdims=True),
                                rtol=1e-9, atol=1e-12)
    chosen = np.argmax(nearly_minimal, axis=1)   # first tied minimum
    deviation = distance[np.arange(world.n_locations), chosen]
    if threshold is not None:
        chosen = np.where(deviation <= threshold, chosen, -1)
    return PlausibleSelection(chosen_index=chosen, deviation=deviation)


def evaluate_plausible(world: TrueWorld, ensemble: ModelEnsemble,
                       threshold: float | None = None) -> PlausibleScenarioResult:
    """Strategy 1: projection at the plausible scenario minus the realized
    observation. The scenario-j distribution pools only locations whose
    plausible scenario is j; a scenario no location finds plausible yields
    None rather than an error."""
    selection = select_plausible(world, threshold)
    M, L = ensemble.n_models, world.n_locations
    point_errors = np.full((M, L), np.nan)
    usable = selection.chosen_index >= 0
    idx = np.where(usable, selection.chosen_index, 0)
    picked = np.take_along_axis(ensemble.projections, idx[None, :, None], axis=2)[:, :, 0]
    point_errors[:, usable] = (picked - world.y_observed[None, :])[:, usable]

    pooled = {}
    for j in range(world.n_scenarios):
        members = np.flatnonzero(selection.chosen_index == j)
        if members.size == 0:
            pooled.update({(m, j): None for m in range(M)})
            continue
        block = point_errors[:, members]
        for m, summary in enumerate(summarize_rows(block)):
            pooled[(m, j)] = ErrorDistribution.make(block[m], summary)
    return PlausibleScenarioResult(selection=selection, point_errors=point_errors,
                                   pooled=pooled)


def _sample_counts(n_samples: int, n_locations: int) -> np.ndarray:
    """Split a sample budget across locations, remainder to the first ones."""
    counts = np.full(n_locations, n_samples // n_locations)
    counts[: n_samples % n_locations] += 1
    return counts


def _check_budget(n_samples: int, n_locations: int, include_covariate: bool) -> None:
    """The covariate variant keeps a distribution per location, so it needs
    a sample for each."""
    if n_samples < 1:
        raise ParameterDomainError(f"n_samples must be >= 1, got {n_samples}")
    if include_covariate and n_samples < n_locations:
        raise ParameterDomainError(
            f"the covariate variant needs n_samples >= n_locations ({n_locations}) "
            f"for one sample per location, got {n_samples}")


def _runs(counts: np.ndarray):
    """For each run of equal chunk lengths in ``counts`` (non-increasing):
    its locations and the slice of the location-ordered samples they cover."""
    start = 0
    for length in np.unique(counts)[::-1]:
        locations = np.flatnonzero(counts == length)
        yield locations, slice(start, start + locations.size * length)
        start += locations.size * length


def _by_location(op, values: np.ndarray, samples: np.ndarray, counts: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """``op(values[l], s)`` into ``out`` for every sample ``s`` in location
    ``l``'s chunk of ``samples`` (chunk lengths ``counts``), broadcast over
    each run of equal lengths, with no repeated copy of ``values``."""
    for locations, span in _runs(counts):
        shape = (locations.size, -1)
        op(values[locations, None], samples[span].reshape(shape),
           out=out[span].reshape(shape))
    return out


def _draw(fitted: FittedSpline, x_j: float, covariate: np.ndarray | None,
          counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Predictive samples at scenario coverage ``x_j`` in location-ordered
    chunks of lengths ``counts``: one location-generic draw without the
    covariate, a per-location mean and sd with it, applied in place as
    ``mean + sd * z``, the bits of ``rng.normal(means, sds)``."""
    if covariate is None:
        return spline_fit.sample_predictive(fitted, x_j, None, counts.sum(), rng)
    means, sds = spline_fit.predict_many(fitted, np.full(covariate.size, x_j), covariate)
    z = rng.normal(0.0, 1.0, counts.sum())
    _by_location(np.multiply, sds, z, counts, z)
    return _by_location(np.add, means, z, counts, z)


def _distributions(m: int, j: int, samples: np.ndarray, counts: np.ndarray,
                   pooled: dict, per_location: dict | None,
                   scratch: np.ndarray) -> np.ndarray:
    """Add (m, j)'s pooled distribution and, unless ``per_location`` is None,
    its per-location ones over read-only row views of chunk lengths
    ``counts``, one summary block per run of equal lengths. The sorts go to
    ``scratch``: the pooled one, returned, to row 0, the per-location to 1."""
    samples.flags.writeable = False
    ordered = scratch[0]
    ordered[...] = samples
    ordered.sort()
    (summary,) = summarize_rows(samples[None, :], ordered[None, :])
    pooled[(m, j)] = ErrorDistribution.make(samples, summary)
    if per_location is None:
        return ordered
    for locations, span in _runs(counts):
        rows = samples[span].reshape(locations.size, -1)
        rows_ordered = scratch[1, span].reshape(rows.shape)
        rows_ordered[...] = rows
        rows_ordered.sort()
        for l, row, summary in zip(locations.tolist(), rows,
                                   summarize_rows(rows, rows_ordered)):
            per_location[(m, j, l)] = ErrorDistribution.make(row, summary)
    return ordered


def sample_buffers(n_scenarios: int, n_samples: int) -> list:
    """Arrays to lend ``infer_error_distribution`` and ``infer_observations``
    so that they draw and sort into the same memory for every model and
    call, instead of freeing the arrays after each model and faulting the
    heap in again: one (3, n_samples) array per scenario, the kept samples
    in row 0 and their sorts in rows 1 and 2."""
    return [np.empty((3, n_samples)) for _ in range(n_scenarios)]


def _by_model(result, n_models: int, n_scenarios: int, samples_of,
              counts: np.ndarray, consume, buffers):
    """Build the distributions of the samples ``samples_of(m, j, out)``
    writes to ``out``, in (m, j) order, one model at a time, into
    ``result``'s empty ``pooled`` and ``per_location`` dicts (the latter only
    with the covariate); returns ``result``.

    With ``consume``, each model's go to ``consume(part, ordered)`` instead:
    ``part`` is ``result`` holding that model's distributions only, and
    ``ordered`` maps each of its (m, j) to the sorted pooled samples.
    ``out`` and the sorts' scratch rows are the scenario's ``buffers`` when
    lent (``sample_buffers``), else fresh arrays, as the result or
    ``consume`` may keep the samples and sorts."""
    n = counts.sum()
    for m in range(n_models):
        part = replace(result, pooled={}, per_location={})
        located = part.per_location if result.include_covariate else None
        ordered = {}
        for j in range(n_scenarios):
            kept, scratch = ((buffers[j][0], buffers[j][1:]) if buffers is not None
                             else (np.empty(n), np.empty((2, n))))
            samples_of(m, j, kept)
            ordered[(m, j)] = _distributions(m, j, kept, counts, part.pooled,
                                             located, scratch)
        if consume is None:
            result.pooled.update(part.pooled)
            result.per_location.update(part.per_location)
        else:
            consume(part, ordered)
        del ordered   # else the sorted copies live on while the next model is built
    return result


def infer_error_distribution(world: TrueWorld, ensemble: ModelEnsemble,
                             include_covariate: bool, n_samples: int = 10_000,
                             seed: int = 0, spec: SplineSpec = SplineSpec(),
                             consume=None, buffers=None) -> InferredErrorResult:
    """Strategy 2: regress realized-scenario errors on realized coverage.

    Fits one regression per model of e_m(x*) = reprojection - observation on
    the realized coverage (plus linear true R0 when ``include_covariate``),
    then samples the predictive distribution at each scenario coverage. With
    the covariate the prediction is made per location and the ``n_samples``
    budget is split equally across locations before pooling; without it, a
    single location-generic predictive distribution is sampled. Each model's
    distributions go to ``consume`` when it is given (see ``_by_model``).
    With lent ``buffers`` (``sample_buffers(S, n_samples)``) the samples
    and sorted copies handed to ``consume``, read-only as they are, are
    overwritten by the next model, so the caller must copy what it keeps
    before ``consume`` returns.
    """
    M, L, S = ensemble.n_models, world.n_locations, world.n_scenarios
    _check_budget(n_samples, L, include_covariate)
    realized_errors = ensemble.reprojection - world.y_observed[None, :]
    covariate = world.r0_true if include_covariate else None
    variant_key = 1 if include_covariate else 0

    fits = tuple(
        spline_fit.fit(world.x_realized, realized_errors[m], covariate, spec)
        for m in range(M))

    counts = _sample_counts(n_samples, L)

    def samples_of(m, j, out):   # copied to out so that the fresh draw is freed at once
        rng = substream(seed, KIND_ERROR_SAMPLING, variant_key, m, j)
        out[...] = _draw(fits[m], float(world.scenario_values[j]), covariate, counts, rng)

    result = InferredErrorResult(include_covariate=include_covariate,
                                 realized_errors=realized_errors, fits=fits,
                                 pooled={}, per_location={})
    return _by_model(result, M, S, samples_of, counts, consume, buffers)


def infer_observations(world: TrueWorld, ensemble: ModelEnsemble,
                       include_covariate: bool, n_samples: int = 10_000,
                       seed: int = 0, spec: SplineSpec = SplineSpec(),
                       consume=None, buffers=None) -> InferredObservationResult:
    """Strategy 3: estimate what would have been observed at each scenario.

    Fits one regression of the realized observations on realized coverage
    (plus linear true R0 when ``include_covariate``), shared by every model.
    Observation samples are drawn once per (scenario, location) from streams
    that do not involve the model, and each model's error samples are its
    projections minus those shared samples, pooled across locations. Each
    model's distributions go to ``consume`` when it is given (see
    ``_by_model``). With lent ``buffers`` (``sample_buffers(S, n_samples)``)
    the samples and sorted copies handed to ``consume``, read-only as they
    are, are overwritten by the next model, so the caller must copy what it
    keeps before ``consume`` returns.
    """
    M, L, S = ensemble.n_models, world.n_locations, world.n_scenarios
    _check_budget(n_samples, L, include_covariate)
    covariate = world.r0_true if include_covariate else None
    variant_key = 1 if include_covariate else 0
    observation_fit = spline_fit.fit(world.x_realized, world.y_observed,
                                     covariate, spec)

    counts = _sample_counts(n_samples, L)
    observations = []                    # per scenario, location-ordered chunks
    for j in range(S):
        rng = substream(seed, KIND_OBS_SAMPLING, variant_key, j)
        observations.append(_draw(observation_fit, float(world.scenario_values[j]),
                                  covariate, counts, rng))

    def samples_of(m, j, out):
        _by_location(np.subtract, ensemble.projections[m, :, j], observations[j],
                     counts, out)

    result = InferredObservationResult(include_covariate=include_covariate,
                                       observation_fit=observation_fit,
                                       pooled={}, per_location={})
    return _by_model(result, M, S, samples_of, counts, consume, buffers)


def implied_observations(result: InferredErrorResult, ensemble: ModelEnsemble,
                         world: TrueWorld, model_id: int,
                         scenario_index: int) -> np.ndarray:
    """Observations implied by a strategy-2 error estimate: projection minus
    sampled error, pooled across locations. Because strategy 2 fits each
    model independently, different models can imply different observation
    distributions; this makes that visible."""
    samples = result.pooled[(model_id, scenario_index)].samples
    counts = _sample_counts(samples.size, world.n_locations)
    return _by_location(np.subtract, ensemble.projections[model_id, :, scenario_index],
                        samples, counts, np.empty_like(samples))
