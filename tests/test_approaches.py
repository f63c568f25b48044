import contextlib
import dataclasses
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_eval import approaches, harness, sir_core, spline_fit, world_gen
from scenario_eval.approaches import (
    evaluate_plausible,
    implied_observations,
    infer_error_distribution,
    infer_observations,
    select_plausible,
)
from scenario_eval.errors import ParameterDomainError
from scenario_eval.spline_fit import predict_many, sample_predictive
from scenario_eval.streams import KIND_ERROR_SAMPLING, KIND_OBS_SAMPLING, substream
from scenario_eval.world_gen import ExperimentConfig, generate, true_errors

from conftest import examples
from test_harness import CollectingWriter

SIR_KW = dict(horizon=300.0, step=0.5)


def build_world(x_realized, r0_true, alpha_true, scenario_values=(0.3, 0.5)):
    """Assemble a TrueWorld directly from chosen parameters."""
    x = np.asarray(x_realized, float)
    r0 = np.asarray(r0_true, float)
    alpha = np.asarray(alpha_true, float)
    scen = np.asarray(scenario_values, float)
    L, S = len(x), len(scen)
    y_cf = np.empty((L, S))
    for j, xj in enumerate(scen):
        y_cf[:, j] = sir_core.final_size_batch(r0, alpha, np.full(L, xj), **SIR_KW)
    y_obs = sir_core.final_size_batch(r0, alpha, x, **SIR_KW)
    return world_gen.TrueWorld(scenario_values=scen, r0_true=r0, alpha_true=alpha,
                               x_realized=x, y_observed=y_obs,
                               y_counterfactual=y_cf)


def perfect_ensemble(world, n_models=2):
    """Models that match the truth exactly."""
    L, S = world.n_locations, world.n_scenarios
    return world_gen.ModelEnsemble(
        global_bias=np.zeros(n_models),
        alpha_center=np.full(n_models, world.alpha_true.mean()),
        local_bias=np.zeros((n_models, L)),
        alpha_model=np.broadcast_to(world.alpha_true, (n_models, L)).copy(),
        r0_model=np.broadcast_to(world.r0_true, (n_models, L)).copy(),
        projections=np.broadcast_to(world.y_counterfactual, (n_models, L, S)).copy(),
        reprojection=np.broadcast_to(world.y_observed, (n_models, L)).copy(),
    )


@pytest.fixture(scope="module")
def medium_world():
    config = ExperimentConfig(n_locations=16, n_models=3, seed=5,
                              horizon=300.0, step=0.5)
    return generate(config)


class TestSelection:
    def test_nearest_scenario(self):
        world = build_world([0.31, 0.49], [2.5, 2.5], [1.0, 1.0])
        sel = select_plausible(world)
        assert sel.chosen_index.tolist() == [0, 1]
        assert sel.deviation == pytest.approx([0.01, 0.01])

    def test_tie_breaks_to_lower_scenario(self):
        world = build_world([0.40], [2.5], [1.0])
        sel = select_plausible(world)
        assert sel.chosen_index.tolist() == [0]

    def test_threshold_filters(self):
        world = build_world([0.31, 0.40], [2.5, 2.5], [1.0, 1.0])
        sel = select_plausible(world, threshold=0.05)
        assert sel.chosen_index.tolist() == [0, -1]

    def test_argmin_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.3, 0.5, 20)
        world = build_world(x, np.full(20, 2.5), np.ones(20))
        base = select_plausible(world).chosen_index
        # Any strictly increasing map of the whole axis preserves the argmin
        # ordering only if distances keep their order; monotone affine maps do.
        stretched = dataclasses.replace(
            world, x_realized=3.0 * world.x_realized + 1.0,
            scenario_values=3.0 * world.scenario_values + 1.0)
        assert np.array_equal(select_plausible(stretched).chosen_index, base)


class TestPlausibleStrategy:
    def test_contamination_with_perfect_model(self):
        # A perfect model evaluated at the plausible scenario still shows the
        # gap between the counterfactual at 0.3 and the observation at 0.35.
        world = build_world([0.35] * 3, [2.4, 2.5, 2.6], [1.0, 1.0, 1.0])
        ensemble = perfect_ensemble(world)
        result = evaluate_plausible(world, ensemble)
        expected = world.y_counterfactual[:, 0] - world.y_observed
        assert result.point_errors[0] == pytest.approx(expected, abs=1e-14)
        assert np.all(np.abs(result.point_errors[0]) > 1e-3)

    def test_empty_scenario_flagged_none(self):
        world = build_world([0.31, 0.33, 0.35], [2.5, 2.5, 2.5], [1.0, 1.0, 1.0])
        ensemble = perfect_ensemble(world)
        result = evaluate_plausible(world, ensemble)
        assert result.pooled[(0, 1)] is None
        assert result.pooled[(0, 0)] is not None

    def test_matches_true_error_when_scenario_realized(self, medium_world):
        # If every realized coverage IS the low scenario value, strategy 1 is
        # exact for that scenario.
        world, ensemble = medium_world
        forced = dataclasses.replace(
            world,
            x_realized=np.full(world.n_locations, world.scenario_values[0]),
            y_observed=world.y_counterfactual[:, 0].copy())
        reproj = ensemble.projections[:, :, 0].copy()
        forced_ens = dataclasses.replace(ensemble, reprojection=reproj)
        result = evaluate_plausible(forced, forced_ens)
        errs = true_errors(forced, forced_ens)
        assert result.point_errors == pytest.approx(errs[:, :, 0], abs=1e-14)


class TestErrorRegressionStrategy:
    def test_realized_errors_definition(self, medium_world):
        # Without the covariate each model's samples are one predictive draw
        # from a fit of its realized errors, reprojection - observation.
        world, ensemble = medium_world
        result = infer_error_distribution(world, ensemble, False, 500, seed=1)
        for m in range(ensemble.n_models):
            fitted = spline_fit.fit(world.x_realized,
                                    ensemble.reprojection[m] - world.y_observed)
            for j, x_j in enumerate(world.scenario_values):
                rng = substream(1, KIND_ERROR_SAMPLING, 0, m, j)
                drawn = sample_predictive(fitted, x_j, None, 500, rng)
                assert drawn.tobytes() == result.pooled[(m, j)].samples.tobytes()

    def test_perfect_models_estimate_zero(self, medium_world):
        world, _ = medium_world
        ensemble = perfect_ensemble(world, n_models=2)
        for with_cov in (False, True):
            result = infer_error_distribution(world, ensemble, with_cov,
                                              2_000, seed=3)
            for dist in result.pooled.values():
                assert abs(dist.samples.mean()) < 1e-6

    def test_reproducible(self, medium_world):
        world, ensemble = medium_world
        a = infer_error_distribution(world, ensemble, True, 800, seed=11)
        b = infer_error_distribution(world, ensemble, True, 800, seed=11)
        for key in a.pooled:
            assert np.array_equal(a.pooled[key].samples, b.pooled[key].samples)

    def test_identical_models_same_stream_key_same_distribution(self, medium_world):
        # Distributions are functions of (fit, stream key) only: two models
        # with identical parameters produce identical samples when the
        # sampler is driven by the same key.
        world, _ = medium_world
        ensemble = perfect_ensemble(world, n_models=2)
        result = infer_error_distribution(world, ensemble, True, 1_000, seed=7)
        fits = [spline_fit.fit(world.x_realized,
                               ensemble.reprojection[m] - world.y_observed, world.r0_true)
                for m in range(2)]
        m0, s0 = predict_many(fits[0], np.full(world.n_locations, 0.3), world.r0_true)
        m1, s1 = predict_many(fits[1], np.full(world.n_locations, 0.3), world.r0_true)
        assert np.array_equal(m0, m1) and np.array_equal(s0, s1)
        # Model 1's samples are model 0's fit drawn with model 1's key.
        counts = approaches._sample_counts(1_000, world.n_locations)
        drawn = approaches._draw(fits[0], fits[0].rows([0.3], world.r0_true), counts,
                                 substream(7, KIND_ERROR_SAMPLING, 1, 1, 0))
        assert drawn.tobytes() == result.pooled[(1, 0)].samples.tobytes()

    def test_sample_budget_split(self, medium_world):
        world, ensemble = medium_world
        result = infer_error_distribution(world, ensemble, True, 1_000, seed=1)
        L = world.n_locations
        for (m, j), dist in result.pooled.items():
            assert dist.samples.size == 1_000
            per_loc = [result.per_location[(m, j, l)].samples for l in range(L)]
            assert sum(p.size for p in per_loc) == 1_000
            assert np.array_equal(np.concatenate(per_loc), dist.samples)

    def test_no_covariate_has_no_per_location(self, medium_world):
        world, ensemble = medium_world
        result = infer_error_distribution(world, ensemble, False, 500, seed=1)
        assert result.per_location == {}

    def test_estimates_in_sane_band_on_default_world(self, default_world):
        # With the full 50-location design the regression recovers each
        # model's mean error at the low scenario to well under the spread of
        # the true error distribution (measured max 0.043 at the default seed).
        world, ensemble = default_world
        errs = true_errors(world, ensemble)
        result = infer_error_distribution(world, ensemble, True, 10_000,
                                          seed=world_gen.ExperimentConfig().seed)
        for (m, j), dist in result.pooled.items():
            assert abs(dist.samples.mean() - errs[m, :, j].mean()) < 0.08


class TestObservationStrategy:
    def test_model_invariance_of_mean_offset(self, medium_world):
        world, ensemble = medium_world
        errs = true_errors(world, ensemble)
        for with_cov in (False, True):
            result = infer_observations(world, ensemble, with_cov, 2_000, seed=9)
            offsets = [result.pooled[(m, j)].samples.mean() - errs[m, :, j].mean()
                       for m in range(ensemble.n_models)
                       for j in range(world.n_scenarios)]
            offsets = np.array(offsets).reshape(ensemble.n_models,
                                                world.n_scenarios)
            spread = np.abs(offsets - offsets[0]).max()
            assert spread <= 1e-10

    def test_observation_samples_shared_across_models(self, medium_world):
        world, ensemble = medium_world
        result = infer_observations(world, ensemble, True, 1_000, seed=9)
        m0 = result.pooled[(0, 0)]
        m1 = result.pooled[(1, 0)]
        # err = proj - obs, so obs implied by each model must coincide.
        L = world.n_locations
        counts = np.diff(np.concatenate([[0], np.cumsum(
            approaches._sample_counts(1_000, L))]))
        start = 0
        for l in range(L):
            sl = slice(start, start + int(counts[l]))
            obs0 = ensemble.projections[0, l, 0] - m0.samples[sl]
            obs1 = ensemble.projections[1, l, 0] - m1.samples[sl]
            assert obs0 == pytest.approx(obs1, abs=1e-14)
            start += int(counts[l])

    def test_in_sample_coverage(self, medium_world):
        # The fit strategy 3 draws its observations from.
        world, _ = medium_world
        observation_fit = spline_fit.fit(world.x_realized, world.y_observed,
                                         world.r0_true)
        means, sds = predict_many(observation_fit, world.x_realized, world.r0_true)
        covered = np.abs(means - world.y_observed) <= 2.0 * sds
        assert covered.mean() >= 0.9


class TestDegenerateConvergence:
    def test_tight_cluster_recovers_true_means(self):
        # Realized coverages packed against the low scenario: regression
        # estimates at that scenario are interpolation and must land within
        # the predictive spread of the true mean error.
        rng = np.random.default_rng(14)
        L = 20
        x = 0.30 + rng.uniform(0, 0.02, L)
        world = build_world(x, rng.uniform(2, 3, L),
                            rng.normal(0.975, 0.01, L))
        config_like = perfect_ensemble(world, n_models=1)
        biased = dataclasses.replace(
            config_like,
            projections=config_like.projections + 0.03,
            reprojection=config_like.reprojection + 0.03)
        errs = true_errors(world, biased)
        for strategy in (infer_error_distribution, infer_observations):
            result = strategy(world, biased, True, 2_000, seed=6)
            dist = result.pooled[(0, 0)]
            width = max(dist.samples.std(), 1e-3)
            assert abs(dist.samples.mean() - errs[0, :, 0].mean()) <= 3.0 * width


def assert_summary_recomputed(dist):
    """The block summary equals, byte for byte, the per-vector numpy calls."""
    s = dist.summary
    expected = np.array([dist.samples.mean(),
                         *np.quantile(dist.samples, approaches.QUANTILES)])
    got = np.array([s.mean, s.q05, s.q25, s.median, s.q75, s.q95])
    assert got.tobytes() == expected.tobytes()
    assert s.n_samples == dist.samples.size


# Repeated values that stress the sort-and-index quantiles: both zeros,
# which sort and partition may order differently, non-finite values, which
# make numpy return NaN or inf, huge magnitudes and any other float.
_repeated = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 2.5]),
    st.floats(width=64))


@st.composite
def _sample_block(draw):
    """A (1-6, 1-300) block of normal draws at some scale, a drawn share of
    them replaced by a few values repeated at random places (ties)."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 300)))
    repeated = np.array(draw(st.lists(_repeated, min_size=1, max_size=6)))
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = scale * rng.normal(size=shape)
    replaced = rng.random(shape) < share
    block[replaced] = rng.choice(repeated, replaced.sum())
    return block


@settings(max_examples=examples(200), deadline=1000)
@given(block=_sample_block())
def test_summarize_rows_matches_numpy_bitwise(block):
    # Contiguous and a column-sliced view; each row's summary against the
    # per-vector numpy calls, byte for byte.
    for rows in (block, block[:, ::2]):
        with np.errstate(all="ignore"):
            summaries = approaches.summarize_rows(rows)
            expected = [np.array([row.mean(), *np.quantile(row, approaches.QUANTILES)])
                        for row in rows]
        assert len(summaries) == rows.shape[0]
        for s, want in zip(summaries, expected):
            got = np.array([s.mean, s.q05, s.q25, s.median, s.q75, s.q95])
            assert got.tobytes() == want.tobytes()
            assert s.n_samples == rows.shape[1]


@pytest.mark.parametrize("include_covariate,collinear",
                         [(False, False), (True, False), (True, True)])
def test_shared_design_matches_per_model_fits_bitwise(medium_world, include_covariate,
                                                      collinear):
    # Strategy 2 builds one design per variant and one fit per model on it;
    # every figure must keep the bits of a separate fit per model. A
    # constant true R0 makes the covariate collinear with the intercept.
    world, ensemble = medium_world
    if collinear:
        world = dataclasses.replace(world, r0_true=np.full(world.n_locations, 2.5))
    L, n_samples, seed = world.n_locations, 40, 3
    covariate = world.r0_true if include_covariate else None
    result = infer_error_distribution(world, ensemble, include_covariate, n_samples, seed)
    shared = spline_fit.design(world.x_realized, covariate)
    counts = approaches._sample_counts(n_samples, L)
    for m in range(ensemble.n_models):
        y = ensemble.reprojection[m] - world.y_observed
        alone = spline_fit.fit(world.x_realized, y, covariate)
        together = spline_fit.fit_design(shared, y)
        for field in ("coefficients", "knots", "xtx_pinv"):
            assert getattr(together, field).tobytes() == getattr(alone, field).tobytes()
        assert (together.residual_sd, together.rank) == (alone.residual_sd, alone.rank)
        assert together.covariate_collinear == alone.covariate_collinear
        assert together.covariate_collinear == (include_covariate and collinear)
        for j, x_j in enumerate(world.scenario_values.tolist()):
            means, sds = together.predict_rows(*shared.rows([x_j], covariate))
            rng = substream(seed, KIND_ERROR_SAMPLING, int(include_covariate), m, j)
            if covariate is None:
                want_means, want_sds = predict_many(alone, [x_j])
                drawn = sample_predictive(alone, x_j, None, n_samples, rng)
            else:
                want_means, want_sds = predict_many(alone, np.full(L, x_j), covariate)
                drawn = np.concatenate([rng.normal(want_means[l], want_sds[l], counts[l])
                                        for l in range(L)])
            assert means.tobytes() == want_means.tobytes()
            assert sds.tobytes() == want_sds.tobytes()
            assert drawn.tobytes() == result.pooled[(m, j)].samples.tobytes()


def random_world(n_locations, seed):
    rng = np.random.default_rng(seed)
    return build_world(rng.uniform(0.25, 0.55, n_locations),
                       rng.uniform(1.5, 3.0, n_locations),
                       rng.uniform(0.9, 1.0, n_locations))


class TestDistributionContainers:
    def test_summary_recomputable(self, medium_world):
        world, ensemble = medium_world
        result = infer_error_distribution(world, ensemble, True, 700, seed=8)
        for dist in result.pooled.values():
            assert_summary_recomputed(dist)
        for dist in result.per_location.values():
            assert_summary_recomputed(dist)

    def test_empty_samples_rejected(self):
        with pytest.raises(ParameterDomainError):
            approaches.summarize_rows(np.empty((1, 0)))

    @pytest.mark.parametrize("n_locations,n_samples", [
        (9, 10), (9, 17), (10, 31), (11, 12), (13, 64)])
    @pytest.mark.parametrize("strategy", [infer_error_distribution,
                                          infer_observations])
    def test_uneven_split_block_summaries(self, strategy, n_locations, n_samples):
        # Chunks of two lengths: the first n_samples % n_locations locations
        # get one sample more, and each length is summarised as one block.
        world = random_world(n_locations, seed=n_samples)
        ensemble = perfect_ensemble(world, n_models=2)
        ensemble = dataclasses.replace(ensemble,
                                       projections=ensemble.projections + 0.01)
        counts = approaches._sample_counts(n_samples, n_locations)
        for with_cov in (False, True):
            result = strategy(world, ensemble, with_cov, n_samples, seed=4)
            for (m, j), dist in result.pooled.items():
                assert_summary_recomputed(dist)
                assert not dist.samples.flags.writeable
                with pytest.raises(ValueError):
                    dist.samples[0] = 0.0
                if not with_cov:
                    continue
                per_loc = [result.per_location[(m, j, l)]
                           for l in range(n_locations)]
                for dist_l in per_loc:
                    assert_summary_recomputed(dist_l)
                assert [d.samples.size for d in per_loc] == counts.tolist()
                joined = np.concatenate([d.samples for d in per_loc])
                assert joined.tobytes() == dist.samples.tobytes()
            if not with_cov:
                assert result.per_location == {}

    @pytest.mark.parametrize("strategy", [infer_error_distribution,
                                          infer_observations])
    def test_per_location_keys_come_sorted(self, strategy):
        # The table rows follow per_location's insertion order, so the
        # strategies must insert in sorted (m, j, l) order, also when the
        # first n_samples % n_locations locations get a longer chunk.
        world = random_world(11, seed=6)
        ensemble = perfect_ensemble(world, n_models=3)
        ensemble = dataclasses.replace(ensemble,
                                       projections=ensemble.projections + 0.01)
        result = strategy(world, ensemble, True, 40, seed=3)   # 40 % 11 == 7
        keys = list(result.per_location)
        assert keys == sorted(keys) and len(keys) == 3 * 2 * 11

    def test_table_rows_come_sorted(self):
        # Per variant and model, approach_estimates.csv holds the pooled
        # rows in j order, then the per-location rows in (j, l) order, the
        # order of location_mae.csv's rows. Strategy 1's per-location rows
        # are in (m, l) order, j each location's plausible scenario, in
        # a1_deviation.csv too.
        config = ExperimentConfig(n_locations=11, n_models=3, seed=6,
                                  horizon=300.0, step=0.5)
        writer = CollectingWriter()
        harness.evaluate(harness.RunSettings(experiment=config, n_samples=40), writer)
        tables = writer.tables
        chosen = select_plausible(generate(config)[0]).chosen_index.tolist()
        assert sorted(set(chosen)) == [0, 1]
        plausible = [(m, j, l) for m in range(3) for l, j in enumerate(chosen)]
        assert [(m, j, l) for m, l, j, *_ in tables["a1_deviation.csv"]] == plausible
        for ids in approaches.VARIANTS:
            estimates = [row[2:5] for row in tables["approach_estimates.csv"]
                         if row[:2] == ids]
            located = [(m, j, l) for m in range(3) for j in range(2) for l in range(11)]
            if ids[1] == approaches.VARIANT_NO_COVARIATE:
                located = []
            elif ids[0] == approaches.APPROACH_PLAUSIBLE:
                located = plausible
            assert estimates == [key for m in range(3) for key in
                                 [(m, j, approaches.POOLED) for j in range(2)]
                                 + [key for key in located if key[0] == m]]
            assert [row[2:5] for row in tables["location_mae.csv"]
                    if row[:2] == ids] == located

    def test_block_draws_match_per_location_draws(self):
        # Reference: one rng.normal call per location, in location order, as
        # the samplers drew before the block draw, from a fit of model 0's
        # realized errors (reprojection - observation) for strategy 2 and of
        # the observations for strategy 3.
        world = random_world(11, seed=2)
        ensemble = perfect_ensemble(world)
        counts = approaches._sample_counts(30, 11)
        errors = infer_error_distribution(world, ensemble, True, 30, seed=5)
        observed = infer_observations(world, ensemble, True, 30, seed=5)
        error_fit = spline_fit.fit(world.x_realized,
                                   ensemble.reprojection[0] - world.y_observed, world.r0_true)
        observation_fit = spline_fit.fit(world.x_realized, world.y_observed, world.r0_true)
        for j, x_j in enumerate(world.scenario_values):
            fit_rng = [(error_fit, substream(5, KIND_ERROR_SAMPLING, 1, 0, j)),
                       (observation_fit, substream(5, KIND_OBS_SAMPLING, 1, j))]
            drawn = []
            for fitted, rng in fit_rng:
                means, sds = predict_many(fitted, np.full(11, x_j), world.r0_true)
                drawn.append(np.concatenate([rng.normal(means[l], sds[l], counts[l])
                                             for l in range(11)]))
            assert drawn[0].tobytes() == errors.pooled[(0, j)].samples.tobytes()
            implied = np.repeat(ensemble.projections[0, :, j], counts) - drawn[1]
            assert implied.tobytes() == observed.pooled[(0, j)].samples.tobytes()

    @pytest.mark.parametrize("strategy", [infer_error_distribution,
                                          infer_observations])
    def test_covariate_needs_a_sample_per_location(self, strategy):
        world = random_world(10, seed=3)
        ensemble = perfect_ensemble(world)
        with pytest.raises(ParameterDomainError, match="n_locations"):
            strategy(world, ensemble, True, 9, seed=1)
        result = strategy(world, ensemble, False, 9, seed=1)
        assert result.pooled[(0, 0)].samples.size == 9

    def test_plausible_summaries_recomputable(self, default_world):
        # Strategy 1's block, point_errors[:, members], is not C-contiguous.
        world, ensemble = default_world
        result = evaluate_plausible(world, ensemble)
        for dist in result.pooled.values():
            if dist is not None:
                assert_summary_recomputed(dist)

    @pytest.mark.parametrize("threshold", [float("nan"), -1.0])
    def test_bad_plausibility_threshold_rejected(self, medium_world, threshold):
        world, _ = medium_world
        with pytest.raises(ParameterDomainError):
            select_plausible(world, threshold)

    def test_implied_observations_roundtrip(self, medium_world):
        world, ensemble = medium_world
        result = infer_error_distribution(world, ensemble, True, 1_000, seed=10)
        implied = implied_observations(result, ensemble, world, 0, 0)
        # First location's chunk: proj - err samples of that chunk.
        first = result.per_location[(0, 0, 0)].samples
        expected = ensemble.projections[0, 0, 0] - first
        assert implied[:first.size] == pytest.approx(expected, abs=1e-14)
        # Every chunk, with the bits of subtracting a repeated projection.
        samples = result.pooled[(0, 0)].samples
        counts = approaches._sample_counts(samples.size, world.n_locations)
        repeated = np.repeat(ensemble.projections[0, :, 0], counts) - samples
        assert implied.tobytes() == repeated.tobytes()


@pytest.mark.parametrize("infer", [infer_error_distribution, infer_observations])
@pytest.mark.parametrize("include_covariate", [False, True])
def test_consume_gets_each_model_in_the_same_arrays(medium_world, infer,
                                                    include_covariate):
    # consume runs once per (m, j), in (m, j) order. The part it is handed
    # holds exactly the collected result's distributions of that pair, and
    # ordered[j] that pair's sorted pooled vector; the result returned
    # holds none. Every pair is drawn into one sample array and sorted into
    # one buffer, so what consume keeps past its return reads the last pair's.
    world, ensemble = medium_world
    M, S = ensemble.n_models, world.n_scenarios
    collected = infer(world, ensemble, include_covariate, 500, seed=4)
    arrays = []

    def consume(part, ordered):
        m, j = divmod(len(arrays), S)
        assert type(part) is type(collected) is approaches.InferredResult
        assert list(part.pooled) == [(m, j)] and list(ordered) == [j]
        for kept, theirs in ((part.pooled, collected.pooled),
                             (part.per_location, collected.per_location)):
            assert list(kept) == [key for key in theirs if key[:2] == (m, j)]
            assert all(np.array_equal(dist.samples, theirs[key].samples)
                       and dist.summary == theirs[key].summary
                       for key, dist in kept.items())
        samples = part.pooled[(m, j)].samples
        assert all(np.shares_memory(dist.samples, samples)
                   for dist in part.per_location.values())
        assert np.array_equal(ordered[j], np.sort(samples))
        arrays.append((samples, ordered[j]))

    consumed = infer(world, ensemble, include_covariate, 500, seed=4, consume=consume)
    assert consumed.pooled == {} and consumed.per_location == {}
    assert len(arrays) == M * S
    samples, ordered = arrays[0]
    assert all(np.shares_memory(theirs, samples) and np.shares_memory(sorted_, ordered)
               for theirs, sorted_ in arrays)
    assert not np.shares_memory(samples, ordered)
    last = collected.pooled[(M - 1, S - 1)].samples
    assert np.array_equal(samples, last) and np.array_equal(ordered, np.sort(last))


@pytest.mark.parametrize("infer", [infer_error_distribution, infer_observations])
@pytest.mark.parametrize("include_covariate", [False, True])
def test_collected_models_keep_their_own_samples(medium_world, infer, include_covariate):
    # Without consume every model is drawn into fresh arrays: no two pooled
    # vectors share memory, and each re-summarizes to its own summary.
    world, ensemble = medium_world
    pooled = list(infer(world, ensemble, include_covariate, 500, seed=4).pooled.values())
    assert len(pooled) == ensemble.n_models * world.n_scenarios
    for k, dist in enumerate(pooled):
        assert_summary_recomputed(dist)
        assert not any(np.shares_memory(dist.samples, other.samples)
                       for other in pooled[k + 1:])


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs():
    # The Python blocks of README "Library use" run in order, as a reader
    # would paste them, and print what they say; the consume example keeps
    # copies that outlive the models drawn after them.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    blocks = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)
    assert len(blocks) == 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    world, ensemble = namespace["world"], namespace["ensemble"]
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("DistributionSummary(mean=")
    assert lines[1].endswith(" 200")
    assert [line.split()[:2] for line in lines[2:]] == [
        [str(m), str(j)] for m in range(ensemble.n_models) for j in range(world.n_scenarios)]
    collected = infer_observations(world, ensemble, False, 10_000, seed=7)
    assert namespace["largest"].keys() == collected.pooled.keys()
    for key, dist in collected.pooled.items():
        assert np.array_equal(namespace["largest"][key], np.sort(dist.samples)[-10:])


class TestNamedTupleRecords:
    @pytest.fixture(scope="class")
    def dist(self):
        world = random_world(11, seed=2)
        result = infer_observations(world, perfect_ensemble(world), True, 10_000, seed=7)
        return result.pooled[(0, 0)]

    def test_fields_by_name_and_position(self, dist):
        s = dist.summary
        assert approaches.DistributionSummary._fields == harness.ESTIMATE_HEADER[5:] == (
            "mean", "median", "q25", "q75", "q05", "q95", "n_samples")
        assert approaches.ErrorDistribution._fields == ("samples", "summary")
        assert (s.mean, s.median, s.q25, s.q75, s.q05, s.q95, s.n_samples) == tuple(s)
        assert dist.samples is dist[0] and dist.summary is dist[1]
        assert s.n_samples == dist.samples.size == 10_000
        assert_summary_recomputed(dist)

    def test_fields_cannot_be_assigned(self, dist):
        with pytest.raises(AttributeError):
            dist.summary.mean = 0.0
        with pytest.raises(AttributeError):
            dist.samples = np.zeros(3)

    def test_repr_is_the_one_readme_shows(self, dist):
        example = re.search(r"# (DistributionSummary\(.*?\))\n",
                            README.read_text(encoding="utf-8"), re.S).group(1)
        example = re.sub(r"\n#\s+", " ", example)
        pattern = re.escape(example).replace(re.escape("..."), r"-?\d[\d.e+-]*")
        assert re.fullmatch(pattern, repr(dist.summary))
        assert repr(dist) == (f"ErrorDistribution(samples={dist.samples!r}, "
                              f"summary={dist.summary!r})")

    def test_make_builds_the_same_record(self, dist):
        made = approaches.ErrorDistribution.make(dist.samples, dist.summary)
        assert made == dist and type(made) is approaches.ErrorDistribution
