import numpy as np
import pytest

from scenario_eval import spline_fit
from scenario_eval.errors import (InsufficientDataError, NumericalInstabilityError,
                                  ParameterDomainError, SingularFitError)
from scenario_eval.spline_fit import (
    SplineSpec,
    fit,
    predict,
    predict_many,
    sample_predictive,
)


@pytest.fixture
def x_grid():
    return np.linspace(0.3, 0.5, 50)


class TestExactReproduction:
    def test_constant(self, x_grid):
        fitted = fit(x_grid, np.full(50, 3.7))
        for x in (0.3, 0.37, 0.5):
            mean, sd = predict(fitted, x)
            assert mean == pytest.approx(3.7, abs=1e-10)
            assert sd == pytest.approx(0.0, abs=1e-10)
        assert fitted.residual_sd <= 1e-10

    def test_linear(self, x_grid):
        fitted = fit(x_grid, 2.0 * x_grid + 1.0)
        for x in (0.3, 0.41, 0.5):
            mean, _ = predict(fitted, x)
            assert mean == pytest.approx(2.0 * x + 1.0, abs=1e-8)

    def test_quadratic_recovery(self, x_grid):
        fitted = fit(x_grid, x_grid ** 2)
        mean, _ = predict(fitted, 0.4)
        assert mean == pytest.approx(0.16, abs=1e-4)


class TestInvariances:
    def test_row_permutation(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 0.5, 60)
        y = np.sin(10 * x) + rng.normal(0, 0.1, 60)
        cov = rng.uniform(2, 3, 60)
        fitted = fit(x, y, cov)
        perm = rng.permutation(60)
        refit = fit(x[perm], y[perm], cov[perm])
        assert np.allclose(fitted.coefficients, refit.coefficients, atol=1e-10)
        assert fitted.residual_sd == pytest.approx(refit.residual_sd, abs=1e-10)

    def test_zero_covariate_equals_no_covariate(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.3, 0.5, 50)
        y = x ** 2 + rng.normal(0, 0.05, 50)
        plain = fit(x, y)
        with_zero = fit(x, y, np.zeros(50))
        assert with_zero.covariate_collinear
        for xx in (0.32, 0.4, 0.48):
            m0, s0 = predict(plain, xx)
            m1, s1 = predict(with_zero, xx, 0.0)
            assert m1 == pytest.approx(m0, abs=1e-10)
            assert s1 == pytest.approx(s0, abs=1e-10)

    def test_predictive_sd_at_least_residual_sd(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.3, 0.5, 50)
        y = x + rng.normal(0, 0.1, 50)
        fitted = fit(x, y)
        _, sds = predict_many(fitted, np.linspace(0.28, 0.52, 40))
        assert np.all(sds >= fitted.residual_sd)


class TestPrediction:
    def test_interpolation_tracks_local_mean(self):
        # Duplicated x with two y values: prediction lies between them.
        x = np.concatenate([np.linspace(0.3, 0.5, 48), [0.4, 0.4]])
        y = np.concatenate([np.linspace(0.3, 0.5, 48) * 0.0, [0.1, -0.1]])
        fitted = fit(x, y)
        mean, sd = predict(fitted, 0.4)
        assert abs(mean) <= sd + 0.1

    def test_extrapolation_increases_sd(self):
        rng = np.random.default_rng(12)
        x = np.linspace(0.31, 0.49, 50)
        y = np.sin(10 * x) + rng.normal(0, 0.05, 50)
        fitted = fit(x, y)
        _, sd_out = predict(fitted, 0.30)
        _, sd_in = predict(fitted, 0.40)
        assert sd_out > sd_in
        assert fitted.extrapolates(0.30)
        assert not fitted.extrapolates(0.40)

    def test_covariate_required_when_fit_with_one(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.3, 0.5, 30)
        fitted = fit(x, x * 2, rng.uniform(2, 3, 30))
        with pytest.raises(InsufficientDataError):
            predict(fitted, 0.4)


class TestSampling:
    def _noisy_fit(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0.3, 0.5, 50)
        y = x + rng.normal(0, 0.1, 50)
        return fit(x, y)

    def test_lln_bound(self):
        fitted = self._noisy_fit()
        mean, sd = predict(fitted, 0.4)
        samples = sample_predictive(fitted, 0.4, None, 10_000,
                                    np.random.default_rng(77))
        assert abs(samples.mean() - mean) <= 4.0 * sd / np.sqrt(10_000)

    def test_zero_sd_degenerate(self):
        # An identically-zero response fits with exactly zero residual sd,
        # so every predictive sample collapses onto the mean.
        fitted = fit(np.linspace(0.3, 0.5, 50), np.zeros(50))
        assert fitted.residual_sd == 0.0
        samples = sample_predictive(fitted, 0.4, None, 100,
                                    np.random.default_rng(1))
        assert np.all(samples == samples[0])
        assert samples[0] == pytest.approx(0.0, abs=1e-12)

    def test_same_stream_same_samples(self):
        fitted = self._noisy_fit()
        a = sample_predictive(fitted, 0.35, None, 500, np.random.default_rng(42))
        b = sample_predictive(fitted, 0.35, None, 500, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestErrorPaths:
    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit(np.linspace(0, 1, 6), np.zeros(6))

    def test_constant_x(self):
        with pytest.raises(InsufficientDataError):
            fit(np.full(20, 0.4), np.zeros(20))

    def test_tied_knots(self):
        # Nearly all mass at two x values collapses the quantile knots.
        x = np.concatenate([np.full(30, 0.3), np.full(30, 0.5)])
        with pytest.raises(SingularFitError) as info:
            fit(x, np.zeros(60))
        assert info.value.columns

    def test_covariate_too_large_to_fit(self, x_grid):
        # Its cross-products overflow: pinv raised LinAlgError, a raw
        # traceback from the CLI, after an overflow warning.
        with pytest.raises(NumericalInstabilityError):
            fit(x_grid, x_grid, covariate=np.full(x_grid.size, 1e300))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_or_covariate_named(self, x_grid, bad):
        # Named as the cause: such a value would otherwise pass the knot
        # checks and fail as an overflow of the design's cross-products.
        broken = x_grid.copy()
        broken[7] = bad
        with pytest.raises(ParameterDomainError, match="^x values must be finite"):
            fit(broken, np.zeros(x_grid.size))
        with pytest.raises(ParameterDomainError, match="^covariate values must be finite"):
            spline_fit.design(x_grid, broken)

    def test_mismatched_lengths(self):
        with pytest.raises(InsufficientDataError):
            fit(np.linspace(0, 1, 20), np.zeros(19))

    def test_failing_indices_are_capped(self, x_grid):
        fitted = fit(x_grid, x_grid ** 2)
        with pytest.raises(NumericalInstabilityError) as info:
            predict_many(fitted, np.full(10_000, 1e300))
        message = str(info.value)
        assert "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] (first 10 of 10000)" in message
        assert len(message) < 200

    def test_basis_dim_floor(self):
        with pytest.raises(InsufficientDataError):
            SplineSpec(basis_dim=3)


class TestKnots:
    @staticmethod
    def samples(n, rng):
        """Uniform values, heavily tied values and values with exact zeros
        of both signs (a zero order statistic takes np.quantile's path)."""
        tied = rng.integers(0, 4, n) * 0.1
        zeros = rng.uniform(-0.5, 0.5, n)
        zeros[rng.integers(0, n, max(1, n // 3))] = 0.0
        zeros[rng.integers(0, n, max(1, n // 5))] = -0.0
        return rng.uniform(0.3, 0.5, n), tied, zeros

    @pytest.mark.parametrize("basis_dim", [4, 5, 6, 7, 8])
    def test_sorted_knots_match_numpy_quantile_bitwise(self, basis_dim):
        # design() takes its knots from a sort; they must keep the bits of
        # np.quantile's linear method at every n a fit accepts.
        rng = np.random.default_rng(basis_dim)
        probabilities = np.linspace(0.0, 1.0, basis_dim + 1)
        sizes = [*range(basis_dim + 2, 80), 97, 128, 255, 256, 511, 999, 1000]
        for n in sizes:
            for x in self.samples(n, rng):
                knots = spline_fit.linear_quantiles(x[None, :], probabilities)[0]
                assert knots.tobytes() == np.quantile(x, probabilities).tobytes(), (n, x)
            # The knots design() keeps are these.
            x = self.samples(n, rng)[0]
            shared = spline_fit.design(x, spec=SplineSpec(basis_dim))
            assert shared.knots.tobytes() == np.quantile(x, probabilities).tobytes()
