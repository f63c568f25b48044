"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance is fixed here, not configurable.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from scenario_eval import harness, metrics
from scenario_eval.approaches import (
    evaluate_plausible,
    infer_error_distribution,
    infer_observations,
)
from scenario_eval.sir_core import SirParams, final_size, final_size_batch, simulate
from scenario_eval.spline_fit import fit, predict
from scenario_eval.world_gen import ExperimentConfig, generate, true_errors

from conftest import final_size_fixed_point

DEFAULT_SEED = ExperimentConfig().seed


def _pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


@pytest.fixture(scope="module")
def default_run():
    world, ensemble = generate(ExperimentConfig())
    errs = true_errors(world, ensemble)
    return world, ensemble, errs


@pytest.fixture(scope="module")
def default_estimates(default_run):
    world, ensemble, _ = default_run
    out = {}
    out[("a2", True)] = infer_error_distribution(world, ensemble, True,
                                                 10_000, seed=DEFAULT_SEED)
    out[("a2", False)] = infer_error_distribution(world, ensemble, False,
                                                  10_000, seed=DEFAULT_SEED)
    out[("a3", True)] = infer_observations(world, ensemble, True,
                                           10_000, seed=DEFAULT_SEED)
    out[("a3", False)] = infer_observations(world, ensemble, False,
                                            10_000, seed=DEFAULT_SEED)
    out["a1"] = evaluate_plausible(world, ensemble)
    return out


def test_criterion_1_sir_final_size_oracle():
    """Classic final size: integrator vs the implicit-equation fixed point."""
    start = time.monotonic()
    r0s = np.linspace(2.0, 3.0, 5)
    vs = np.linspace(0.3, 0.5, 5)
    rr, vv = [a.ravel() for a in np.meshgrid(r0s, vs, indexing="ij")]
    # The fixed point is the infinite-horizon limit; near criticality
    # (r0 = 2, v = 0.5) the final size needs a few multiples of the default
    # horizon to converge, so the comparison runs the solver to 2000 days.
    sizes = final_size_batch(rr, np.ones(rr.size), vv, horizon=2000.0)
    worst = 0.0
    for k in range(rr.size):
        oracle = final_size_fixed_point(rr[k], vv[k])
        worst = max(worst, abs(sizes[k] - oracle))
        assert sizes[k] == pytest.approx(oracle, abs=1e-3)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _pass(1, f"5x5 grid vs fixed-point oracle, worst |diff| {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_2_sir_invariants():
    """Conservation on 200 random draws plus strict monotonicity grid."""
    rng = np.random.default_rng(2024)
    r0 = rng.uniform(1.5, 3.5, 200)
    alpha = rng.uniform(0.9, 1.05, 200)
    v = rng.uniform(0.25, 0.55, 200)
    sizes = final_size_batch(r0, alpha, v)
    assert np.all((sizes >= 0.0) & (sizes <= 1.0))
    for k in range(0, 200, 8):   # trajectory-level checks on a subsample
        traj = simulate(SirParams(r0=r0[k], alpha=alpha[k], v=v[k]))
        assert np.max(np.abs(traj.s + traj.i + traj.r - 1.0)) <= 1e-6
        assert np.all(np.diff(traj.s) <= 0.0)
        assert np.all(np.diff(traj.r) >= 0.0)

    grid_r0 = np.linspace(2.0, 3.0, 5)
    grid_v = np.linspace(0.3, 0.5, 5)
    grid_a = np.linspace(0.95, 1.0, 5)
    rr, vv, aa = np.meshgrid(grid_r0, grid_v, grid_a, indexing="ij")
    grid = final_size_batch(rr.ravel(), aa.ravel(), vv.ravel()).reshape(5, 5, 5)
    supercritical = rr * (1.0 - vv) > 1.2
    checks = 0
    for i in range(5):
        for j in range(5):
            for k in range(5):
                if not supercritical[i, j, k]:
                    continue
                if i + 1 < 5:
                    assert grid[i + 1, j, k] > grid[i, j, k]
                    checks += 1
                if j + 1 < 5 and supercritical[i, j + 1, k]:
                    assert grid[i, j + 1, k] < grid[i, j, k]
                    checks += 1
                if k + 1 < 5:
                    assert grid[i, j, k + 1] > grid[i, j, k]
                    checks += 1
    params = SirParams(r0=2.5, alpha=0.975, v=0.4)
    assert abs(final_size(params, step=0.25) - final_size(params, step=0.125)) <= 1e-4
    _pass(2, f"conservation on 200 draws, {checks} strict monotonicity "
             "comparisons, step refinement <= 1e-4")


def test_criterion_3_decomposition_identity(default_run):
    """observed = calibration + scenario-spec to 1e-12 everywhere."""
    world, ensemble, _ = default_run
    worst = 0.0
    for m in range(ensemble.n_models):
        for l in range(world.n_locations):
            for j in range(world.n_scenarios):
                d = metrics.decompose(float(ensemble.projections[m, l, j]),
                                      float(world.y_counterfactual[l, j]),
                                      float(world.y_observed[l]))
                gap = abs(d.observed_deviation
                          - (d.calibration_error + d.scenario_spec_error))
                worst = max(worst, gap)
                assert gap <= 1e-12
                assert d.total_error >= abs(d.observed_deviation) - 1e-15
    _pass(3, f"identity holds for every (model, location, scenario), "
             f"worst gap {worst:.1e}")


def test_criterion_4_perfect_model_world():
    """Perfect models: zero true error, regression strategies centered on
    zero, plausible-scenario strategy still contaminated."""
    start = time.monotonic()
    config = ExperimentConfig(perfect_models=True)
    world, ensemble = generate(config)
    errs = true_errors(world, ensemble)
    assert np.all(errs == 0.0)

    for with_cov in (False, True):
        result = infer_error_distribution(world, ensemble, with_cov, 10_000,
                                          seed=DEFAULT_SEED)
        worst = max(abs(d.samples.mean()) for d in result.pooled.values())
        assert worst < 0.005

    result = infer_observations(world, ensemble, True, 10_000, seed=DEFAULT_SEED)
    worst_a3 = max(abs(d.samples.mean()) for d in result.pooled.values())
    assert worst_a3 < 0.005

    plausible = evaluate_plausible(world, ensemble)
    deviated = plausible.selection.deviation > 0.02
    assert deviated.any()
    smallest = np.abs(plausible.point_errors[:, deviated]).min()
    assert smallest > 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _pass(4, f"regression strategies |mean| < 0.005 (A3+cov worst "
             f"{worst_a3:.4f}), plausible-scenario errors >= {smallest:.3f} "
             f"for {int(deviated.sum())} deviated locations, {elapsed:.1f}s")


def test_criterion_5_deviation_correlation(default_run, default_estimates):
    """|estimate - truth| grows with scenario deviation for strategy 1."""
    spearmanr = pytest.importorskip("scipy.stats").spearmanr
    world, ensemble, errs = default_run
    result = default_estimates["a1"]
    chosen = result.selection.chosen_index
    true_at_plausible = np.take_along_axis(
        errs, chosen[None, :, None], axis=2)[:, :, 0]
    abs_diff = np.abs(result.point_errors - true_at_plausible)
    deviations = np.tile(result.selection.deviation, ensemble.n_models)
    rho = spearmanr(deviations, abs_diff.ravel()).statistic
    assert rho > 0.5
    _pass(5, f"Spearman rho {rho:.3f} > 0.5 pooled over models")


def test_criterion_6_approach_ranking():
    """Averaged over 5 seeds: regression strategies beat plausible-scenario
    matching on MAE of means; covariates shrink strategy-3 variance."""
    mae = {key: {0: [], 1: []} for key in ("a1", "a2cov", "a3cov")}
    variance = {"a3cov": [], "a3nocov": []}
    for seed in range(DEFAULT_SEED, DEFAULT_SEED + 5):
        config = ExperimentConfig(seed=seed)
        world, ensemble = generate(config)
        errs = true_errors(world, ensemble)
        M = ensemble.n_models
        a1 = evaluate_plausible(world, ensemble)
        a2 = infer_error_distribution(world, ensemble, True, 10_000, seed=seed)
        a3c = infer_observations(world, ensemble, True, 10_000, seed=seed)
        a3n = infer_observations(world, ensemble, False, 10_000, seed=seed)
        for j in range(world.n_scenarios):
            truth = {m: errs[m, :, j] for m in range(M)}
            mae["a1"][j].extend(
                metrics.mae_of_means(a1.pooled[(m, j)], truth[m])
                for m in range(M) if a1.pooled[(m, j)] is not None)
            mae["a2cov"][j].extend(
                metrics.mae_of_means(a2.pooled[(m, j)], truth[m]) for m in range(M))
            mae["a3cov"][j].extend(
                metrics.mae_of_means(a3c.pooled[(m, j)], truth[m]) for m in range(M))
        variance["a3cov"].append(
            np.mean([d.samples.var() for d in a3c.pooled.values()]))
        variance["a3nocov"].append(
            np.mean([d.samples.var() for d in a3n.pooled.values()]))

    for j in (0, 1):
        a1_mean = np.mean(mae["a1"][j])
        assert np.mean(mae["a2cov"][j]) < a1_mean
        assert np.mean(mae["a3cov"][j]) < a1_mean
    assert all(n > c for n, c in zip(variance["a3nocov"], variance["a3cov"]))
    _pass(6, "A2+cov and A3+cov beat A1 on mean MAE in both scenarios over "
             f"5 seeds (A1 {np.mean(mae['a1'][0] + mae['a1'][1]):.3f} vs "
             f"A2 {np.mean(mae['a2cov'][0] + mae['a2cov'][1]):.3f}, "
             f"A3 {np.mean(mae['a3cov'][0] + mae['a3cov'][1]):.3f}); "
             "A3 variance larger without covariates every seed")


def test_criterion_7_ks_pass_rates(default_run, default_estimates):
    """KS non-significance rates with covariates on the default seed."""
    start = time.monotonic()
    world, ensemble, errs = default_run
    rates = {}
    for name in ("a2", "a3"):
        result = default_estimates[(name, True)]
        passes = sum(
            not metrics.ks_two_sample(result.pooled[(m, j)].samples,
                                      errs[m, :, j]).significant
            for m in range(ensemble.n_models)
            for j in range(world.n_scenarios))
        total = ensemble.n_models * world.n_scenarios
        rates[name] = (passes, total)
        assert passes / total >= 0.4
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _pass(7, f"non-significant KS: A2+cov {rates['a2'][0]}/{rates['a2'][1]}, "
             f"A3+cov {rates['a3'][0]}/{rates['a3'][1]} (>= 40%)")


def test_criterion_8_observation_strategy_model_invariance(default_run,
                                                           default_estimates):
    """Strategy 3: (estimated mean - true mean) identical across models."""
    world, ensemble, errs = default_run
    worst = 0.0
    for with_cov in (False, True):
        result = default_estimates[("a3", with_cov)]
        for j in range(world.n_scenarios):
            offsets = np.array([
                result.pooled[(m, j)].samples.mean() - errs[m, :, j].mean()
                for m in range(ensemble.n_models)])
            spread = np.abs(offsets - offsets[0]).max()
            worst = max(worst, spread)
            assert spread <= 1e-10
    _pass(8, f"max cross-model offset spread {worst:.1e} <= 1e-10")


def test_criterion_9_spline_oracles():
    """Constant/linear exactness, quadratic recovery, permutation invariance."""
    x = np.linspace(0.3, 0.5, 50)
    constant = fit(x, np.full(50, 2.5))
    linear = fit(x, 3.0 * x - 1.0)
    for point in (0.3, 0.4, 0.5):
        assert predict(constant, point)[0] == pytest.approx(2.5, abs=1e-8)
        assert predict(linear, point)[0] == pytest.approx(3.0 * point - 1.0, abs=1e-8)
    quadratic = fit(x, x ** 2)
    assert predict(quadratic, 0.4)[0] == pytest.approx(0.16, abs=1e-4)

    rng = np.random.default_rng(99)
    xs = rng.uniform(0.3, 0.5, 50)
    ys = np.sin(8 * xs) + rng.normal(0, 0.05, 50)
    perm = rng.permutation(50)
    fitted = fit(xs, ys)
    refit = fit(xs[perm], ys[perm])
    assert np.max(np.abs(fitted.coefficients - refit.coefficients)) <= 1e-10
    _pass(9, "constant/linear exact to 1e-8, quadratic to 1e-4, "
             "permutation invariant to 1e-10")


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Identical config => byte-identical data CSVs."""
    config_text = (
        "[experiment]\nn_locations = 50\nn_models = 4\nseed = 38\n\n"
        "[approaches]\nn_samples = 2000\n"
    )
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")

    def digests(out_dir):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out_dir).glob("*.csv"))}

    harness.run(config, tmp_path / "a")
    harness.run(config, tmp_path / "b")
    first = digests(tmp_path / "a")
    assert first == digests(tmp_path / "b")
    assert len(first) == len(harness.DATA_FILES)
    _pass(10, f"{len(first)} data files byte-identical across reruns")
