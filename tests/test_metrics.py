import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scenario_eval import metrics
from scenario_eval.errors import ParameterDomainError
from scenario_eval.metrics import decompose, ks_two_sample, mae_of_means


class TestDecompose:
    def test_all_zero_components(self):
        d = decompose(0.5, 0.5, 0.5)
        assert d.observed_deviation == 0.0
        assert d.calibration_error == 0.0
        assert d.scenario_spec_error == 0.0
        assert d.total_error == 0.0

    def test_additive_case(self):
        d = decompose(0.6, 0.5, 0.45)
        assert d.calibration_error == pytest.approx(0.1, abs=1e-15)
        assert d.scenario_spec_error == pytest.approx(0.05, abs=1e-15)
        assert d.observed_deviation == pytest.approx(0.15, abs=1e-15)
        assert d.total_error == pytest.approx(0.15, abs=1e-15)

    def test_opposing_errors_right_answer_wrong_reason(self):
        d = decompose(0.52, 0.60, 0.50)
        assert d.calibration_error == pytest.approx(-0.08, abs=1e-15)
        assert d.scenario_spec_error == pytest.approx(0.10, abs=1e-15)
        assert d.observed_deviation == pytest.approx(0.02, abs=1e-15)
        assert d.total_error == pytest.approx(0.18, abs=1e-15)
        assert d.total_error > abs(d.observed_deviation)

    def test_identity_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            p, c, r = rng.uniform(0, 1, 3)
            d = decompose(p, c, r)
            assert abs(d.observed_deviation
                       - (d.calibration_error + d.scenario_spec_error)) <= 1e-12
            assert d.total_error >= abs(d.observed_deviation) - 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterDomainError):
            decompose(float("nan"), 0.5, 0.5)
        with pytest.raises(ParameterDomainError):
            decompose(0.5, float("inf"), 0.5)


class TestMaeOfMeans:
    def test_identical_distributions(self):
        values = np.array([0.1, -0.2, 0.05])
        assert mae_of_means(values, values) == 0.0

    def test_arithmetic(self):
        assert mae_of_means(np.array([0.02]), np.array([-0.01])) \
            == pytest.approx(0.03, abs=1e-15)

    def test_scalar_true_error(self):
        assert mae_of_means(np.array([1.0, 3.0]), 1.5) == pytest.approx(0.5)

    def test_order_and_duplication_invariance(self):
        rng = np.random.default_rng(3)
        est = rng.normal(size=50)
        true = rng.normal(size=20)
        base = mae_of_means(est, true)
        assert mae_of_means(est[::-1], true[::-1]) == pytest.approx(base, abs=1e-14)
        assert mae_of_means(np.tile(est, 2), np.tile(true, 3)) \
            == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterDomainError):
            mae_of_means(np.array([]), np.array([1.0]))
        with pytest.raises(ParameterDomainError):
            mae_of_means(np.array([1.0]), np.array([]))


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.linspace(0, 1, 100)
        result = ks_two_sample(a, a.copy())
        assert result.statistic == 0.0
        assert not result.significant

    def test_disjoint_supports(self):
        result = ks_two_sample(np.array([0., 0.2, 0.5, 0.8, 1.0]),
                               np.array([2., 2.2, 2.5, 2.8, 3.0]))
        assert result.statistic == 1.0
        assert result.significant

    def test_half_shifted_uniform(self):
        # Evenly spaced points standing in for U(0,1) and U(0.5,1.5): the
        # exact sup-distance between those CDFs is 0.5.
        a = (np.arange(1000) + 0.5) / 1000.0
        b = a + 0.5
        result = ks_two_sample(a, b)
        assert result.statistic == pytest.approx(0.5, abs=0.03)

    def test_symmetry_and_monotone_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 1, 80)
        b = rng.normal(0.4, 1.3, 60)
        d_ab = ks_two_sample(a, b).statistic
        d_ba = ks_two_sample(b, a).statistic
        assert d_ab == d_ba
        transform = np.exp  # strictly increasing
        d_t = ks_two_sample(transform(a), transform(b)).statistic
        assert d_t == pytest.approx(d_ab, abs=1e-14)

    def test_critical_value_formula(self):
        result = ks_two_sample(np.linspace(0, 1, 50), np.linspace(0, 1, 10_000))
        expected = 1.358 * np.sqrt((50 + 10_000) / (50 * 10_000))
        assert result.critical_value == pytest.approx(expected, rel=1e-3)
        assert result.significant == (result.statistic > result.critical_value)

    def test_small_samples_rejected(self):
        with pytest.raises(ParameterDomainError):
            ks_two_sample(np.array([1.0, 2.0]), np.linspace(0, 1, 10))

    def test_non_1d_samples_and_bad_alpha_rejected(self):
        ok = np.linspace(0, 1, 10)
        for bad in (np.ones((2, 5)), np.ones((5, 2)), np.float64(1.0)):
            with pytest.raises(ParameterDomainError):
                ks_two_sample(bad, ok)
            with pytest.raises(ParameterDomainError):
                ks_two_sample(ok, bad)
        for alpha in (float("nan"), 0.0, 1.0, 2.5, -0.1, float("inf")):
            with pytest.raises(ParameterDomainError):
                ks_two_sample(ok, ok + 0.5, alpha=alpha)
            with pytest.raises(ParameterDomainError):
                metrics.ks_critical_value(10, 10, alpha)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.normal(0, 1, rng.integers(5, 200))
            b = rng.normal(rng.uniform(-1, 1), 1, rng.integers(5, 200))
            ours = ks_two_sample(a, b).statistic
            theirs = scipy_stats.ks_2samp(a, b).statistic
            assert ours == pytest.approx(theirs, abs=1e-12)


def _pooled_ks_statistic(a, b):
    """Reference D: both empirical CDFs at every pooled point."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_tied = st.integers(-3, 3).map(float)  # heavy ties within and across samples


@st.composite
def _sample_pair(draw):
    elements = draw(st.sampled_from([_finite, _tied]))
    sizes = st.integers(5, 300)
    return (draw(hnp.arrays(np.float64, draw(sizes), elements=elements)),
            draw(hnp.arrays(np.float64, draw(sizes), elements=elements)))


@settings(max_examples=150, deadline=1000)
@given(pair=_sample_pair(), seed=st.integers(0, 2**32 - 1))
def test_ks_matches_pooled_reference_bitwise(pair, seed):
    a, b = pair
    # Also normal draws, which hypothesis's float strategy rarely produces.
    rng = np.random.default_rng(seed)
    normal = (rng.normal(0.0, 1.0, a.size), rng.normal(0.3, 1.5, b.size))
    for x, y in (pair, normal):
        expected = np.float64(_pooled_ks_statistic(x, y)).tobytes()
        assert np.float64(ks_two_sample(x, y).statistic).tobytes() == expected
        assert np.float64(ks_two_sample(y, x).statistic).tobytes() == expected
