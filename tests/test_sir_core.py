import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_eval import sir_core
from scenario_eval.errors import NumericalInstabilityError, ParameterDomainError
from scenario_eval.sir_core import SirParams, final_size, final_size_batch, simulate

from conftest import (assert_no_child_processes, examples, final_size_fixed_point,
                      time_limit, use_cpus)


def _reference_derivatives(s, i, beta, gamma, alpha, population):
    counts = np.maximum(i, 0.0) * population
    infection = beta * s * np.power(counts, alpha) / population
    recovery = gamma * i
    return -infection, infection - recovery, recovery


def _reference_rk4(s, i, r, beta, gamma, alpha, population, step, n_steps):
    """The textbook 3-state RK4, one new array per operation: the reference
    the in-place kernel must match bit for bit."""
    half = 0.5 * step
    sixth = step / 6.0
    for _ in range(n_steps):
        ds1, di1, dr1 = _reference_derivatives(s, i, beta, gamma, alpha, population)
        ds2, di2, dr2 = _reference_derivatives(s + half * ds1, i + half * di1,
                                               beta, gamma, alpha, population)
        ds3, di3, dr3 = _reference_derivatives(s + half * ds2, i + half * di2,
                                               beta, gamma, alpha, population)
        ds4, di4, dr4 = _reference_derivatives(s + step * ds3, i + step * di3,
                                               beta, gamma, alpha, population)
        s = s + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
        i = i + sixth * (di1 + 2.0 * di2 + 2.0 * di3 + di4)
        r = r + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
    return s, i, r


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestParamValidation:
    def test_accepts_valid(self):
        SirParams(r0=2.5, alpha=0.975, v=0.3)

    @pytest.mark.parametrize("kwargs", [
        dict(r0=-0.1, alpha=1.0, v=0.3),
        dict(r0=2.5, alpha=0.0, v=0.3),
        dict(r0=2.5, alpha=-1.0, v=0.3),
        dict(r0=2.5, alpha=1.0, v=1.0),
        dict(r0=2.5, alpha=1.0, v=-0.2),
        dict(r0=2.5, alpha=1.0, v=0.3, infectious_period=0.0),
        dict(r0=2.5, alpha=1.0, v=0.3, i0=0.0),
        dict(r0=2.5, alpha=1.0, v=0.999, i0=0.01),
        dict(r0=float("nan"), alpha=1.0, v=0.3),
        dict(r0=2.5, alpha=1.0, v=float("nan")),
        dict(r0=2.5, alpha=1.0, v=0.3, infectious_period=float("nan")),
        dict(r0=2.5, alpha=1.0, v=0.3, infectious_period=float("inf")),
        dict(r0=2.5, alpha=1.0, v=0.3, i0=float("nan")),
        dict(r0=2.5, alpha=1.0, v=0.3, i0=float("inf")),
        dict(r0=2.5, alpha=1.0, v=0.3, population=float("nan")),
        dict(r0=2.5, alpha=1.0, v=0.3, population=float("inf")),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterDomainError):
            SirParams(**kwargs)

    def test_grid_validation(self):
        params = SirParams(r0=2.0, alpha=1.0, v=0.3)
        nan, inf = float("nan"), float("inf")
        for horizon, step in [(0.0, 0.25), (10.0, -1.0), (inf, 0.25),
                              (nan, 0.25), (10.0, nan), (10.0, inf), (10.0, 20.0),
                              (548.0, 1e-300), (1e12, 0.25)]:
            with pytest.raises(ParameterDomainError):
                simulate(params, horizon=horizon, step=step)
            with pytest.raises(ParameterDomainError):
                final_size(params, horizon=horizon, step=step)


class TestGrid:
    @pytest.mark.parametrize("horizon, step, n_steps", [
        (10.0, 6.0, 2), (10.0, 4.0, 3), (100.0, 0.3, 334), (548.0, 0.7, 783)])
    def test_steps_end_at_the_horizon(self, horizon, step, n_steps):
        # No step divides its horizon: round(horizon / step) steps of
        # ``step`` would end at 12, 8, 99.9 and 548.1.
        params = SirParams(r0=2.5, alpha=0.975, v=0.3)
        traj = simulate(params, horizon=horizon, step=step)
        assert len(traj.times) == n_steps + 1
        assert traj.times[-1] == pytest.approx(horizon, rel=1e-12)
        assert np.max(np.diff(traj.times)) <= step
        assert final_size(params, horizon=horizon, step=step) == traj.final_size

    @pytest.mark.parametrize("horizon, step, n_steps", [
        (548.0, 1.0, 548), (548.0, 0.5, 1096), (1.1, 0.1, 11), (0.7, 0.1, 7)])
    def test_dividing_step_is_taken_as_given(self, horizon, step, n_steps):
        # 1.1 / 0.1 and 0.7 / 0.1 are 11.000000000000002 and
        # 6.999999999999999 in floating point: within rounding of an integer.
        traj = simulate(SirParams(r0=2.5, alpha=0.975, v=0.3), horizon=horizon, step=step)
        assert _bits(traj.times) == _bits(np.arange(n_steps + 1) * step)


@settings(max_examples=examples(200), deadline=None)
@given(horizon=st.floats(allow_nan=True, allow_infinity=True),
       step=st.floats(allow_nan=True, allow_infinity=True))
def test_any_grid_returns_or_is_rejected(horizon, step):
    # A small cap keeps every accepted grid cheap; the property is that the
    # cap, not the float values, bounds the work. A huge accepted step may
    # overflow RK4, which is the documented numerical failure.
    with pytest.MonkeyPatch.context() as mp, time_limit(10):
        mp.setattr(sir_core, "MAX_STEPS", 2000)
        try:
            sizes = final_size_batch(np.array([2.0, 2.5]), np.array([1.0, 0.95]),
                                     np.array([0.3, 0.4]), horizon=horizon, step=step)
        except (ParameterDomainError, NumericalInstabilityError):
            return
    assert sizes.shape == (2,)
    assert 0 < horizon / step <= 2000


class TestNoTransmission:
    def test_r0_zero_keeps_s_constant(self):
        traj = simulate(SirParams(r0=0.0, alpha=1.0, v=0.4))
        assert np.allclose(traj.s, traj.s[0], atol=1e-15)
        assert traj.i[-1] < 1e-20
        assert final_size(SirParams(r0=0.0, alpha=1.0, v=0.4)) == 0.0

    def test_r0_zero_any_coverage(self):
        for v in (0.0, 0.3, 0.9):
            assert final_size(SirParams(r0=0.0, alpha=0.9, v=v)) == 0.0


class TestFinalSizeOracle:
    def test_matches_fixed_point_at_default_horizon(self):
        # Clearly supercritical case converges well inside the default horizon.
        got = final_size(SirParams(r0=2.5, alpha=1.0, v=0.3))
        expected = final_size_fixed_point(2.5, 0.3)
        assert got == pytest.approx(expected, abs=1e-3)

    def test_default_world_within_step_error_budget(self, default_world):
        # Every solve of the default world (truth and models, at each
        # scenario and the realized coverage; alpha 0.92-1.03) at the shipped
        # step against a quarter of it. Measured 1.01e-7 at the 2-day step
        # (6.1e-9 at 1 day); the bound sits far below the model errors of
        # about 0.05 that the package measures.
        world, ensemble = default_world
        grid = (ensemble.n_models + 1, world.n_locations, world.n_scenarios + 1)
        r0 = np.vstack([world.r0_true, ensemble.r0_model])[:, :, None]
        alpha = np.vstack([world.alpha_true, ensemble.alpha_model])[:, :, None]
        v = np.column_stack([np.broadcast_to(world.scenario_values,
                                             (world.n_locations, world.n_scenarios)),
                             world.x_realized])
        r0, alpha, v = (np.broadcast_to(a, grid).ravel() for a in (r0, alpha, v))
        assert len(r0) == 1650
        coarse = final_size_batch(r0, alpha, v, step=sir_core.DEFAULT_STEP)
        fine = final_size_batch(r0, alpha, v, step=sir_core.DEFAULT_STEP / 4)
        assert np.max(np.abs(coarse - fine)) <= 2e-7

    def test_subcritical_minor_outbreak(self):
        # R_eff = 2.0 * 0.4 = 0.8 < 1: branching bound i0/(1 - R_eff) = 0.005
        # on the infected fraction keeps the relative size well under 0.05.
        params = SirParams(r0=2.0, alpha=1.0, v=0.6)
        size = final_size(params)
        assert 0.0 < size < 0.05
        new_infections = size * (1.0 - 0.6)
        assert new_infections < params.i0 / (1.0 - 0.8)


class TestFinalSizeBehavior:
    def test_monotone_in_coverage(self):
        high = final_size(SirParams(r0=3.0, alpha=1.0, v=0.5))
        low = final_size(SirParams(r0=3.0, alpha=1.0, v=0.3))
        assert high < low

    def test_heterogeneity_damps_outbreaks(self):
        # alpha below 1 reduces transmission on the count scale.
        damped = final_size(SirParams(r0=2.5, alpha=0.95, v=0.3))
        classic = final_size(SirParams(r0=2.5, alpha=1.0, v=0.3))
        assert damped < classic

    @pytest.mark.parametrize("alpha", [1.0, 0.975])
    def test_final_size_equals_trajectory_extract(self, alpha):
        params = SirParams(r0=2.5, alpha=alpha, v=0.3)
        assert final_size(params) == simulate(params).final_size

    def test_classic_alpha_ignores_population(self):
        # At alpha = 1, h(i) = (population * i) / population is i up to
        # rounding, so the population moves a final size by ulps only: the
        # reference with alpha 1 and population 1 computes h(i) = i exactly.
        n_steps = int(round(sir_core.DEFAULT_HORIZON / sir_core.DEFAULT_STEP))
        s_end, _, _ = _reference_rk4(np.array([0.7]), np.array([sir_core.DEFAULT_I0]),
                                     np.array([0.3 - sir_core.DEFAULT_I0]), 0.25, 0.1,
                                     1.0, 1.0, sir_core.DEFAULT_STEP, n_steps)
        classic = float((0.7 - s_end[0]) / 0.7)
        for population in (1.0, 1e6):
            got = final_size(SirParams(r0=2.5, alpha=1.0, v=0.3, population=population))
            assert abs(got - classic) <= 16 * np.spacing(classic)


def _random_draws(n, rng):
    r0 = rng.uniform(1.5, 3.5, n)
    alpha = rng.uniform(0.9, 1.05, n)
    v = rng.uniform(0.25, 0.55, n)
    return r0, alpha, v


class TestInvariants:
    def test_conservation_and_monotone_compartments(self):
        rng = np.random.default_rng(7)
        r0, alpha, v = _random_draws(25, rng)
        for k in range(25):
            traj = simulate(SirParams(r0=r0[k], alpha=alpha[k], v=v[k]))
            assert np.max(np.abs(traj.s + traj.i + traj.r - 1.0)) <= 1e-6
            assert np.all(np.diff(traj.s) <= 0)
            assert np.all(np.diff(traj.r) >= 0)

    def test_bounds_on_random_draws(self):
        rng = np.random.default_rng(11)
        r0, alpha, v = _random_draws(200, rng)
        sizes = final_size_batch(r0, alpha, v)
        assert np.all(sizes >= 0.0) and np.all(sizes <= 1.0)

    def test_monotonicity_grid(self):
        # Strict monotonicity in r0 (up), v (down), alpha (up), restricted to
        # the clearly supercritical part of the grid.
        r0s = np.linspace(2.0, 3.0, 5)
        vs = np.linspace(0.3, 0.5, 5)
        alphas = np.linspace(0.95, 1.0, 5)
        rr, vv, aa = np.meshgrid(r0s, vs, alphas, indexing="ij")
        sizes = final_size_batch(rr.ravel(), aa.ravel(), vv.ravel()).reshape(5, 5, 5)
        supercritical = rr * (1.0 - vv) > 1.2
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    if not supercritical[i, j, k]:
                        continue
                    if i + 1 < 5:
                        assert sizes[i + 1, j, k] > sizes[i, j, k]
                    if j + 1 < 5 and supercritical[i, j + 1, k]:
                        assert sizes[i, j + 1, k] < sizes[i, j, k]
                    if k + 1 < 5:
                        assert sizes[i, j, k + 1] > sizes[i, j, k]

    def test_step_refinement_at_default(self):
        params = SirParams(r0=2.5, alpha=0.975, v=0.4)
        step = sir_core.DEFAULT_STEP
        assert abs(final_size(params, step=step)
                   - final_size(params, step=step / 2)) <= 1e-4


class TestBatch:
    def test_batch_matches_scalar_bitwise(self):
        r0 = np.array([2.0, 2.5, 3.0])
        alpha = np.array([0.95, 0.975, 1.0])
        v = np.array([0.3, 0.4, 0.5])
        batch = final_size_batch(r0, alpha, v)
        for k in range(3):
            assert batch[k] == final_size(SirParams(r0=r0[k], alpha=alpha[k], v=v[k]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterDomainError):
            final_size_batch(np.array([2.0, 2.5]), np.array([1.0]), np.array([0.3]))

    def test_batch_domain_validation(self):
        nan, inf = float("nan"), float("inf")
        cases = [(-1.0, 0.3, {}), (2.0, nan, {})] + [
            (2.0, 0.3, {name: bad})
            for name in ("infectious_period", "i0", "population")
            for bad in (nan, inf)]
        for r0, v, kwargs in cases:
            with pytest.raises(ParameterDomainError):
                final_size_batch(np.array([2.0, r0]), np.array([1.0, 1.0]),
                                 np.array([0.4, v]), **kwargs)


class TestInstability:
    def test_stiffness_bound_at_default_step(self):
        # Measured at r0 2-3 and v 0.3-0.5, against an eighth of the default
        # 2-day step: alpha 1.1 within 2.0e-6, 1.3 within 3.9e-5, 1.4 within
        # 7.1e-5; alpha 1.45 and above raises.
        r0, v = (a.ravel() for a in np.meshgrid([2.0, 2.5, 3.0], [0.3, 0.4, 0.5]))
        alpha = np.full(len(r0), 1.4)
        coarse = final_size_batch(r0, alpha, v)
        fine = final_size_batch(r0, alpha, v, step=sir_core.DEFAULT_STEP / 8)
        assert np.max(np.abs(coarse - fine)) <= 1e-4
        with pytest.raises(NumericalInstabilityError, match="outside"):
            final_size_batch(r0, np.full(len(r0), 1.6), v)

    def test_stiff_solve_inside_unit_interval_raises(self):
        # At a 1-day step this solve ends at 0.004 where an eighth of the
        # step gives 1.0: i swings below 0, the h(i) guard stops transmission
        # and the final size stays inside [0, 1]. It ends with i < 0.
        params = SirParams(r0=3.5, alpha=1.52, v=0.3)
        assert final_size(params, step=1.0 / 8) == pytest.approx(1.0)
        traj = simulate(params, step=1.0)
        assert 0 <= traj.final_size <= 1 and traj.i[-1] < 0
        with pytest.raises(NumericalInstabilityError,
                           match="outside.*step 1.0 is too large"):
            final_size(params, step=1.0)

    def test_stiff_solve_whose_susceptible_fraction_rises_raises(self):
        # At the default step this solve ends at 0.485 where an eighth of the
        # step gives 1.0, with i > 0 and inside [0, 1]: s falls to 0.033 by
        # day 26, then the stiff steps raise it to 0.257, which the true s,
        # never rising, cannot do.
        params = SirParams(r0=2.9, alpha=1.57, v=0.5)
        assert final_size(params, step=sir_core.DEFAULT_STEP / 8) == pytest.approx(1.0)
        traj = simulate(params)
        assert 0 <= traj.final_size <= 1 and traj.i[-1] >= 0
        assert traj.s[-1] > np.min(traj.s)
        with pytest.raises(NumericalInstabilityError,
                           match=f"rising.*step {sir_core.DEFAULT_STEP} is too large"):
            final_size(params)

    def test_blowup_raises(self):
        # An absurd transmission rate with a strongly superlinear infection
        # term overflows the fixed-step integrator.
        with pytest.raises(NumericalInstabilityError):
            final_size(SirParams(r0=1e8, alpha=5.0, v=0.3), horizon=50.0, step=0.5)

    def test_overflowing_transmission_rate_raises(self):
        # r0 / infectious_period overflows to an infinite beta: a non-finite
        # state, not an overflow warning.
        params = SirParams(r0=1e308, alpha=1.0, v=0.3, infectious_period=1e-300)
        with pytest.raises(NumericalInstabilityError, match="non-finite"):
            final_size(params)
        with pytest.raises(NumericalInstabilityError, match="non-finite"):
            simulate(params)

    @pytest.mark.parametrize("horizon,step,message", [
        (548.0, 274.0, "outside"), (548.0, 20.0, "outside"),
        (1.4e64, 1.4e64, "non-finite")])
    def test_unstable_step_raises_without_warnings(self, horizon, step, message):
        # Step 274 gave final sizes of -5.6e5 and 1.2e22 and step 20 gave
        # 1.0037 for r0 = 6, with no error; 1.4e64 overflows RK4 and leaked
        # numpy RuntimeWarnings on its way to the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalInstabilityError, match=message):
                final_size_batch(np.array([0.5, 1.0, 2.0, 3.0, 6.0]), np.ones(5),
                                 np.full(5, 0.3), horizon=horizon, step=step)

    @pytest.mark.parametrize("horizon,step", [(548.0, 274.0), (1.4e64, 1.4e64)])
    def test_failing_indices_are_capped(self, horizon, step):
        n = 10_000
        with pytest.raises(NumericalInstabilityError) as info:
            final_size_batch(np.full(n, 6.0), np.ones(n), np.full(n, 0.3),
                             horizon=horizon, step=step)
        message = str(info.value)
        assert "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] (first 10 of 10000)" in message
        assert len(message) < 200


# A short grid keeps the reference cheap; every step runs the same operations.
REF_GRID = dict(horizon=100.0, step=0.5)
REF_STEPS = 200


def _around_blocks(*ends):
    """Batch sizes k * b + d for each (k, d) of ``ends`` and b the block
    size and half of it: the same sizes end inside a block and across one,
    and results must not depend on the block size."""
    return sorted({k * b + d for b in (sir_core.BLOCK // 2, sir_core.BLOCK) for k, d in ends})


class TestKernelMatchesReference:
    @pytest.mark.parametrize("n", [1] + _around_blocks((1, -1), (1, 0), (1, 1), (2, 5)))
    def test_batch_bitwise(self, n):
        rng = np.random.default_rng(n)
        r0, alpha, v = _random_draws(n, rng)
        r0[::7] = 0.0
        alpha[1::5] = 1.0
        v[2::6] = 0.0
        s0 = 1.0 - v
        s_end, _, _ = _reference_rk4(s0, np.full(n, sir_core.DEFAULT_I0),
                                     v - sir_core.DEFAULT_I0,
                                     r0 / sir_core.DEFAULT_INFECTIOUS_PERIOD,
                                     1.0 / sir_core.DEFAULT_INFECTIOUS_PERIOD, alpha,
                                     sir_core.DEFAULT_POPULATION, REF_GRID["step"],
                                     REF_STEPS)
        expected = (s0 - s_end) / s0
        assert _bits(final_size_batch(r0, alpha, v, **REF_GRID)) == _bits(expected)

    @pytest.mark.parametrize("r0, alpha, v", [(2.5, 0.975, 0.3), (3.0, 1.0, 0.0),
                                              (0.0, 0.95, 0.4), (2.2, 1.04, 0.45)])
    def test_simulate_histories_bitwise(self, r0, alpha, v):
        params = SirParams(r0=r0, alpha=alpha, v=v)
        beta = params.r0 / params.infectious_period
        gamma = 1.0 / params.infectious_period
        hist = np.empty((REF_STEPS + 1, 3))
        hist[0] = (1.0 - v, params.i0, v - params.i0)
        for k in range(REF_STEPS):
            hist[k + 1] = _reference_rk4(*hist[k], beta, gamma, alpha,
                                         params.population, REF_GRID["step"], 1)
        traj = simulate(params, **REF_GRID)
        for got, expected in zip((traj.s, traj.i, traj.r), hist.T):
            assert _bits(got) == _bits(expected)


class TestBlockBoundaryErrors:
    @pytest.mark.parametrize("r0, alpha, message", [
        (2.5, 1.954, "outside"),      # stiff at step 0.5: finite, outside [0, 1]
        (1e8, 5.0, "non-finite")])    # overflows the state
    def test_second_block_failure_has_its_global_index(self, r0, alpha, message):
        n = sir_core.BLOCK + 10
        bad = sir_core.BLOCK + 3
        r0s, alphas = np.full(n, 2.5), np.ones(n)
        r0s[bad], alphas[bad] = r0, alpha
        with pytest.raises(NumericalInstabilityError, match=message) as info:
            final_size_batch(r0s, alphas, np.full(n, 0.3), **REF_GRID)
        assert info.value.indices == (bad,)
        assert f"batch indices [{bad}]" in str(info.value)


class TestFanOut:
    @pytest.mark.parametrize("n", [1, 2, 3] + _around_blocks((1, -1), (1, 1), (2, 3)))
    def test_split_solve_equals_serial(self, monkeypatch, n):
        # Ranges of a single solve, so that tiny batches still really fork.
        monkeypatch.setattr(sir_core, "MIN_SHARE", 1)
        r0, alpha, v = _random_draws(n, np.random.default_rng(n))
        use_cpus(monkeypatch, 1)
        serial = final_size_batch(r0, alpha, v, **REF_GRID)
        for cpus in (2, 3):
            use_cpus(monkeypatch, cpus)
            assert np.array_equal(final_size_batch(r0, alpha, v, **REF_GRID), serial)

    def test_no_range_is_shorter_than_min_share(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        forks, real_fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        rng = np.random.default_rng(0)
        for shares in (1, 2, 3):
            for n in (shares * sir_core.MIN_SHARE, (shares + 1) * sir_core.MIN_SHARE - 1):
                forks.clear()
                final_size_batch(*_random_draws(n, rng), **REF_GRID)
                assert len(forks) == shares - 1
        assert_no_child_processes()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failures_keep_their_global_indices(self, monkeypatch, cpus):
        # Overflowing solves on both sides of every split point and last.
        n = 2 * sir_core.BLOCK + 3
        bad = sorted({n * k // cpus + side for k in range(1, cpus) for side in (-1, 0)}
                     | {n - 1})
        r0s, alphas = np.full(n, 2.5), np.ones(n)
        r0s[bad], alphas[bad] = 1e8, 5.0
        use_cpus(monkeypatch, cpus)
        with pytest.raises(NumericalInstabilityError, match="non-finite") as info:
            final_size_batch(r0s, alphas, np.full(n, 0.3), **REF_GRID)
        assert info.value.indices == tuple(bad)
