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

Estimated distributions are pooled across locations; with the covariate the
per-location distributions are also kept. Sampling uses keyed substreams:
strategy 2 keys include the model, strategy 3 deliberately does not, so a
single set of inferred observations is shared by all models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spline_fit
from .errors import ParameterDomainError
from .spline_fit import FittedSpline, SplineSpec
from .streams import KIND_ERROR_SAMPLING, KIND_OBS_SAMPLING, substream
from .world_gen import ModelEnsemble, TrueWorld

POOLED = -1                  # scope marker for across-location distributions
APPROACH_PLAUSIBLE = 1
APPROACH_ERROR_REGRESSION = 2
APPROACH_OBSERVATION_MODEL = 3

VARIANT_PLAUSIBLE = "plausible"
VARIANT_COVARIATE = "covariate"
VARIANT_NO_COVARIATE = "no_covariate"


@dataclass(frozen=True)
class DistributionSummary:
    """Quantile summary of a sample vector; recomputable from the samples."""

    median: float
    q05: float
    q25: float
    q75: float
    q95: float
    n_samples: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "DistributionSummary":
        q05, q25, median, q75, q95 = np.quantile(samples, (0.05, 0.25, 0.5, 0.75, 0.95))
        return cls(median=float(median), q05=float(q05), q25=float(q25),
                   q75=float(q75), q95=float(q95), n_samples=int(samples.size))


@dataclass(frozen=True)
class ErrorDistribution:
    """Estimated error distribution for one (model, scenario), on the
    final-size scale. ``scope`` is a location id, or POOLED for the
    across-location distribution."""

    model_id: int
    scenario_index: int
    scope: int
    samples: np.ndarray
    summary: DistributionSummary

    @classmethod
    def make(cls, model_id: int, scenario_index: int, scope: int,
             samples: np.ndarray) -> "ErrorDistribution":
        if samples.size == 0:
            raise ParameterDomainError("ErrorDistribution requires samples")
        return cls(model_id=model_id, scenario_index=scenario_index, scope=scope,
                   samples=samples, summary=DistributionSummary.from_samples(samples))


@dataclass(frozen=True)
class PlausibleSelection:
    """Per-location plausible scenario: index of the nearest scenario value
    (ties break to the lower scenario), its absolute deviation from the
    realized value, and the optional deviation threshold. Locations whose
    deviation exceeds the threshold get chosen_index -1."""

    chosen_index: np.ndarray   # (L,) int, -1 when no scenario is plausible
    deviation: np.ndarray      # (L,) |x* - x_chosen| (nearest regardless of threshold)
    threshold: float | None


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
    observation_samples: dict            # (j, l) -> samples shared by all models
    pooled: dict                         # (m, j) -> ErrorDistribution
    per_location: dict                   # (m, j, l) -> ErrorDistribution (covariate only)


def select_plausible(world: TrueWorld, threshold: float | None = None) -> PlausibleSelection:
    """Nearest modeled scenario per location (argmin of |x* - x_j|).

    Ties break to the lower scenario. Distances within a relative 1e-9 are
    treated as tied so that decimal midpoints (e.g. 0.40 between 0.30 and
    0.50) resolve the same way they would in exact arithmetic.
    """
    distance = np.abs(world.x_realized[:, None] - world.scenario_values[None, :])
    nearly_minimal = np.isclose(distance, distance.min(axis=1, keepdims=True),
                                rtol=1e-9, atol=1e-12)
    chosen = np.argmax(nearly_minimal, axis=1)   # first tied minimum
    deviation = distance[np.arange(world.n_locations), chosen]
    if threshold is not None:
        chosen = np.where(deviation <= threshold, chosen, -1)
    return PlausibleSelection(chosen_index=chosen, deviation=deviation,
                              threshold=threshold)


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
    for m in range(M):
        for j in range(world.n_scenarios):
            members = np.flatnonzero(selection.chosen_index == j)
            if members.size == 0:
                pooled[(m, j)] = None
            else:
                pooled[(m, j)] = ErrorDistribution.make(
                    m, j, POOLED, point_errors[m, members].copy())
    return PlausibleScenarioResult(selection=selection, point_errors=point_errors,
                                   pooled=pooled)


def _sample_counts(n_samples: int, n_locations: int) -> np.ndarray:
    """Split a sample budget across locations, remainder to the first ones."""
    counts = np.full(n_locations, n_samples // n_locations)
    counts[: n_samples % n_locations] += 1
    return counts


def infer_error_distribution(world: TrueWorld, ensemble: ModelEnsemble,
                             include_covariate: bool, n_samples: int = 10_000,
                             seed: int = 0,
                             spec: SplineSpec = SplineSpec()) -> InferredErrorResult:
    """Strategy 2: regress realized-scenario errors on realized coverage.

    Fits one regression per model of e_m(x*) = reprojection - observation on
    the realized coverage (plus linear true R0 when ``include_covariate``),
    then samples the predictive distribution at each scenario coverage. With
    the covariate the prediction is made per location and the ``n_samples``
    budget is split equally across locations before pooling; without it, a
    single location-generic predictive distribution is sampled.
    """
    if n_samples < 1:
        raise ParameterDomainError(f"n_samples must be >= 1, got {n_samples}")
    M, L, S = ensemble.n_models, world.n_locations, world.n_scenarios
    realized_errors = ensemble.reprojection - world.y_observed[None, :]
    covariate = world.r0_true if include_covariate else None
    variant_key = 1 if include_covariate else 0

    fits = tuple(
        spline_fit.fit(world.x_realized, realized_errors[m], covariate, spec)
        for m in range(M))

    pooled: dict = {}
    per_location: dict = {}
    counts = _sample_counts(n_samples, L)
    for m in range(M):
        for j in range(S):
            x_j = float(world.scenario_values[j])
            rng = substream(seed, KIND_ERROR_SAMPLING, variant_key, m, j)
            if include_covariate:
                means, sds = spline_fit.predict_many(
                    fits[m], np.full(L, x_j), world.r0_true)
                chunks = [rng.normal(means[l], sds[l], counts[l]) for l in range(L)]
                for l in range(L):
                    per_location[(m, j, l)] = ErrorDistribution.make(m, j, l, chunks[l])
                samples = np.concatenate(chunks)
            else:
                samples = spline_fit.sample_predictive(fits[m], x_j, None,
                                                       n_samples, rng)
            pooled[(m, j)] = ErrorDistribution.make(m, j, POOLED, samples)
    return InferredErrorResult(include_covariate=include_covariate,
                               realized_errors=realized_errors, fits=fits,
                               pooled=pooled, per_location=per_location)


def infer_observations(world: TrueWorld, ensemble: ModelEnsemble,
                       include_covariate: bool, n_samples: int = 10_000,
                       seed: int = 0,
                       spec: SplineSpec = SplineSpec()) -> InferredObservationResult:
    """Strategy 3: estimate what would have been observed at each scenario.

    Fits one regression of the realized observations on realized coverage
    (plus linear true R0 when ``include_covariate``), shared by every model.
    Observation samples are drawn once per (scenario, location) from streams
    that do not involve the model, and each model's error samples are its
    projections minus those shared samples, pooled across locations.
    """
    if n_samples < 1:
        raise ParameterDomainError(f"n_samples must be >= 1, got {n_samples}")
    M, L, S = ensemble.n_models, world.n_locations, world.n_scenarios
    covariate = world.r0_true if include_covariate else None
    variant_key = 1 if include_covariate else 0
    observation_fit = spline_fit.fit(world.x_realized, world.y_observed,
                                     covariate, spec)

    counts = _sample_counts(n_samples, L)
    observation_samples: dict = {}
    for j in range(S):
        x_j = float(world.scenario_values[j])
        rng = substream(seed, KIND_OBS_SAMPLING, variant_key, j)
        if include_covariate:
            means, sds = spline_fit.predict_many(
                observation_fit, np.full(L, x_j), world.r0_true)
        else:
            mean, sd = spline_fit.predict(observation_fit, x_j)
            means, sds = np.full(L, mean), np.full(L, sd)
        for l in range(L):
            observation_samples[(j, l)] = rng.normal(means[l], sds[l], counts[l])

    pooled: dict = {}
    per_location: dict = {}
    for m in range(M):
        for j in range(S):
            chunks = []
            for l in range(L):
                err = ensemble.projections[m, l, j] - observation_samples[(j, l)]
                chunks.append(err)
                if include_covariate:
                    per_location[(m, j, l)] = ErrorDistribution.make(m, j, l, err)
            pooled[(m, j)] = ErrorDistribution.make(m, j, POOLED,
                                                    np.concatenate(chunks))
    return InferredObservationResult(include_covariate=include_covariate,
                                     observation_fit=observation_fit,
                                     observation_samples=observation_samples,
                                     pooled=pooled, per_location=per_location)


def implied_observations(result: InferredErrorResult, ensemble: ModelEnsemble,
                         world: TrueWorld, model_id: int,
                         scenario_index: int) -> np.ndarray:
    """Observations implied by a strategy-2 error estimate: projection minus
    sampled error, pooled across locations. Because strategy 2 fits each
    model independently, different models can imply different observation
    distributions; this makes that visible."""
    samples = result.pooled[(model_id, scenario_index)].samples
    counts = _sample_counts(samples.size, world.n_locations)
    return np.repeat(ensemble.projections[model_id, :, scenario_index], counts) - samples
