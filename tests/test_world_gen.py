
import numpy as np
import pytest

from scenario_eval import world_gen
from scenario_eval.errors import ConfigError, StructuralError
from scenario_eval.world_gen import ExperimentConfig, generate, true_errors

from conftest import time_limit


def small_config(**overrides):
    base = dict(n_locations=8, n_models=3, horizon=200.0, step=0.5)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n_locations=1),
        dict(n_models=0),
        dict(scenario_values=(0.5, 0.3)),
        dict(scenario_values=(0.3, 0.3)),
        dict(scenario_values=(0.3, 1.2)),
        dict(r0_true_range=(3.0, 2.0)),
        dict(alpha_true_sd=-0.1),
        dict(seed=-1),
        dict(r0_true_range=(-1.0, -0.5), global_bias_sd=0.0, local_bias_sd=0.0),
        dict(x_realized_range=(0.3, float("inf"))),
        dict(r0_true_range=(2.0, float("inf"))),
        dict(alpha_center_range=(0.95, float("inf"))),
        dict(alpha_center_range=(-1e308, 1e308)),
        dict(alpha_true_sd=float("nan")),
        dict(alpha_true_mean=float("nan")),
        dict(global_bias_sd=float("nan")),
        dict(horizon=float("inf")),
        dict(x_realized_range=(0.3, 1.0)),
        dict(x_realized_range=(-0.1, 0.5)),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**kwargs)
        assert next(iter(kwargs)) in str(info.value)

    @pytest.mark.parametrize("kwargs", [
        dict(n_locations=50.0),
        dict(n_models=True),
        dict(seed="38"),
        dict(alpha_true_mean="0.975"),
        dict(step=True),
        dict(horizon=None),
        dict(scenario_values=0.3),
        dict(scenario_values=(0.3, "0.5")),
        dict(r0_true_range=(2.0, False)),
    ])
    def test_rejects_a_value_of_another_type(self, kwargs):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**kwargs)
        assert str(info.value).startswith(f"{next(iter(kwargs))}: must be ")

    def test_stores_each_number_as_its_field_type(self):
        config = ExperimentConfig(n_locations=np.int64(20), seed=np.uint8(7), horizon=548,
                                  r0_true_range=(2, np.int32(3)),
                                  scenario_values=np.array([0.3, 0.5]))
        assert config == ExperimentConfig(n_locations=20, seed=7)
        assert [type(getattr(config, name)) for name in ("n_locations", "seed", "horizon")] \
            == [int, int, float]
        assert {type(x) for x in config.r0_true_range + config.scenario_values} == {float}

    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.n_locations == 50
        assert config.n_models == 10
        assert config.scenario_values == (0.30, 0.50)


class TestDeterminism:
    def test_identical_runs(self):
        config = small_config(seed=123)
        world_a, ensemble_a = generate(config)
        world_b, ensemble_b = generate(config)
        for name in ("r0_true", "alpha_true", "x_realized", "y_observed",
                     "y_counterfactual"):
            assert np.array_equal(getattr(world_a, name), getattr(world_b, name))
        for name in ("global_bias", "alpha_center", "local_bias", "alpha_model",
                     "r0_model", "projections", "reprojection"):
            assert np.array_equal(getattr(ensemble_a, name), getattr(ensemble_b, name))

    def test_stream_independence_in_model_count(self):
        # Dropping later models must not disturb earlier models' draws.
        _, few = generate(small_config(seed=4, n_models=2))
        _, many = generate(small_config(seed=4, n_models=5))
        assert np.array_equal(few.global_bias, many.global_bias[:2])
        assert np.array_equal(few.local_bias, many.local_bias[:2])
        assert np.array_equal(few.projections, many.projections[:2])

    def test_location_draws_unaffected_by_models(self):
        world_a, _ = generate(small_config(seed=4, n_models=1))
        world_b, _ = generate(small_config(seed=4, n_models=5))
        assert np.array_equal(world_a.x_realized, world_b.x_realized)
        assert np.array_equal(world_a.r0_true, world_b.r0_true)


class TestDistributions:
    def test_draw_ranges(self):
        world, ensemble = generate(small_config(seed=77, n_locations=40))
        assert np.all((world.x_realized >= 0.3) & (world.x_realized <= 0.5))
        assert np.all((world.r0_true >= 2.0) & (world.r0_true <= 3.0))
        assert np.all(ensemble.r0_model > 0)
        assert np.all((world.y_counterfactual >= 0) & (world.y_counterfactual <= 1))
        assert np.all((world.y_observed >= 0) & (world.y_observed <= 1))
        assert ensemble.redraw_count >= 0

    def test_default_config_sample_means(self, default_world):
        world, _ = default_world
        assert 2.3 <= world.r0_true.mean() <= 2.7
        assert 0.37 <= world.x_realized.mean() <= 0.43

    def test_redraws_are_capped(self):
        # R0* in [0, 0.1] with a large negative global bias and no local
        # bias spread: no redraw can make R0 positive.
        config = small_config(seed=1, r0_true_range=(0.0, 0.1),
                              global_bias_sd=5.0, local_bias_sd=0.0)
        with time_limit(10), pytest.raises(ConfigError) as info:
            generate(config)
        assert "model 0, location 0" in str(info.value)
        assert "local_bias_sd" in str(info.value)


class TestPerfectModels:
    def test_projections_equal_counterfactuals_exactly(self):
        config = small_config(seed=31, perfect_models=True)
        world, ensemble = generate(config)
        assert np.array_equal(ensemble.projections,
                              np.broadcast_to(world.y_counterfactual,
                                              ensemble.projections.shape))
        assert np.array_equal(ensemble.reprojection,
                              np.broadcast_to(world.y_observed,
                                              ensemble.reprojection.shape))

    def test_draw_no_bias(self):
        # Imperfect models with this global bias sd give up after the local
        # bias redraws; perfect models would discard every bias they drew.
        with pytest.raises(ConfigError, match="redraws"):
            generate(small_config(seed=31, global_bias_sd=100.0))
        world, ensemble = generate(small_config(seed=31, perfect_models=True,
                                                global_bias_sd=100.0))
        assert ensemble.redraw_count == 0
        assert np.array_equal(ensemble.r0_model,
                              np.broadcast_to(world.r0_true, ensemble.r0_model.shape))
        assert np.array_equal(ensemble.projections,
                              np.broadcast_to(world.y_counterfactual,
                                              ensemble.projections.shape))

    def test_true_world_matches_imperfect_run(self):
        world_a, _ = generate(small_config(seed=31, perfect_models=True))
        world_b, _ = generate(small_config(seed=31, perfect_models=False))
        assert np.array_equal(world_a.y_observed, world_b.y_observed)


class TestTrueErrors:
    def test_definitional(self):
        world, ensemble = generate(small_config(seed=2))
        errs = true_errors(world, ensemble)
        m, l, j = 1, 3, 1
        assert errs[m, l, j] == (ensemble.projections[m, l, j]
                                 - world.y_counterfactual[l, j])

    def test_perfect_models_zero_error(self):
        world, ensemble = generate(small_config(seed=2, perfect_models=True))
        assert np.all(true_errors(world, ensemble) == 0.0)

    def test_default_seed_mean_is_small(self, default_world):
        world, ensemble = default_world
        errs = true_errors(world, ensemble)
        assert -0.2 <= errs.mean() <= 0.2

    def test_structural_mismatch(self):
        world, ensemble = generate(small_config(seed=2))
        other_world, _ = generate(small_config(seed=2, n_locations=9))
        with pytest.raises(StructuralError):
            true_errors(other_world, ensemble)

