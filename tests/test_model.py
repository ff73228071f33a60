import math

import numpy as np
import pytest
from scipy import stats

from crbplan import (
    Axis,
    CorrelationOutOfRange,
    MultivariateModel,
    NonPositiveVariance,
    ObservationModel,
    SingularCovariance,
    replication_rng,
    sample_joint,
    sample_marginal,
    validate,
)

N_BIG = 10**6


def test_validate_accepts_valid_tuple():
    m = validate((0, 0, 1, 1, 0.5))
    assert isinstance(m, ObservationModel)
    assert m.rho == 0.5


def test_validate_rejects_negative_variance():
    with pytest.raises(NonPositiveVariance):
        validate((0, 0, -1, 1, 0))
    with pytest.raises(NonPositiveVariance):
        validate((0, 0, 1, 0.0, 0))


def test_validate_rejects_unit_correlation():
    with pytest.raises(CorrelationOutOfRange):
        validate((0, 0, 1, 1, 1.0))
    with pytest.raises(CorrelationOutOfRange):
        validate((0, 0, 1, 1, -1.0))
    # the open-interval guard itself is still allowed
    validate((0, 0, 1, 1, 1.0 - 1e-9))


def test_validate_is_idempotent():
    m = validate({"mu_x": 1, "mu_y": 2, "var_x": 3, "var_y": 4, "rho": 0.1})
    assert validate(m) is m


def test_validate_reports_missing_keys():
    with pytest.raises(ValueError, match="rho"):
        validate({"mu_x": 0, "mu_y": 0, "var_x": 1, "var_y": 1})


def test_validate_rejects_nonfinite():
    with pytest.raises(ValueError):
        validate((math.nan, 0, 1, 1, 0))
    with pytest.raises(CorrelationOutOfRange):
        validate((0, 0, 1, 1, math.nan))


def test_derived_covariance():
    m = validate((0, 0, 4, 9, 0.5))
    assert m.sigma_x == 2.0
    assert m.sigma_y == 3.0
    assert m.cov_xy == pytest.approx(3.0)
    cov = m.covariance_matrix()
    # positive definite by construction
    np.linalg.cholesky(cov)
    # the square roots are computed once and kept out of equality and hashing
    m = validate((0, 0, 2, 3, 0.5))
    assert (m.sigma_x, m.sigma_y) == (math.sqrt(2.0), math.sqrt(3.0))
    fresh = validate((0, 0, 2, 3, 0.5))
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


def test_sample_joint_independent_at_zero_rho():
    m = validate((0, 0, 1, 1, 0.0))
    x, y = sample_joint(m, np.random.default_rng(1), size=N_BIG)
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 0.005


def test_sample_joint_reproduces_correlation():
    m = validate((0, 0, 1, 1, 0.8))
    x, y = sample_joint(m, np.random.default_rng(2), size=N_BIG)
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r - 0.8) < 0.005


def test_sample_joint_means():
    m = validate((3, -2, 1, 1, 0.3))
    x, y = sample_joint(m, np.random.default_rng(3), size=N_BIG)
    assert abs(x.mean() - 3.0) < 0.01
    assert abs(y.mean() + 2.0) < 0.01


@pytest.mark.parametrize("params", [(0, 0, 1, 1, 0.6), (2, -1, 4, 0.25, -0.7)])
def test_sample_joint_covariance_within_three_se(params):
    m = validate(params)
    x, y = sample_joint(m, np.random.default_rng(4), size=N_BIG)
    emp_cov = np.cov(x, y)
    true_cov = m.covariance_matrix()
    # Gaussian sampling variances of second-moment estimates
    se_xx = math.sqrt(2.0 * m.var_x**2 / N_BIG)
    se_yy = math.sqrt(2.0 * m.var_y**2 / N_BIG)
    se_xy = math.sqrt((m.var_x * m.var_y + m.cov_xy**2) / N_BIG)
    assert abs(emp_cov[0, 0] - true_cov[0, 0]) < 3 * se_xx
    assert abs(emp_cov[1, 1] - true_cov[1, 1]) < 3 * se_yy
    assert abs(emp_cov[0, 1] - true_cov[0, 1]) < 3 * se_xy


def test_sample_joint_scalar_mode():
    m = validate((0, 0, 1, 1, 0.5))
    pair = sample_joint(m, np.random.default_rng(5))
    assert isinstance(pair[0], float) and isinstance(pair[1], float)


def test_joint_marginal_distributions_agree():
    # x-coordinate of joint draws vs stand-alone marginal draws, two-sample KS
    m = validate((1, 2, 2, 3, 0.6))
    x_joint, _ = sample_joint(m, np.random.default_rng(6), size=10**4)
    x_marg = sample_marginal(m, Axis.X, np.random.default_rng(7), size=10**4)
    assert stats.ks_2samp(x_joint, x_marg).pvalue >= 0.001


def test_sample_marginal_moments():
    m = validate((5, 0, 4, 1, 0.2))
    y = sample_marginal(m, Axis.Y, np.random.default_rng(8), size=N_BIG)
    assert abs(y.mean()) < 0.01
    x = sample_marginal(m, Axis.X, np.random.default_rng(9), size=N_BIG)
    assert abs(x.var(ddof=1) - 4.0) < 0.05


def test_sampling_is_deterministic_given_seed():
    m = validate((0, 0, 1, 1, 0.4))
    a = sample_joint(m, np.random.default_rng(10), size=100)
    b = sample_joint(m, np.random.default_rng(10), size=100)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = sample_marginal(m, Axis.Y, np.random.default_rng(11), size=100)
    d = sample_marginal(m, Axis.Y, np.random.default_rng(11), size=100)
    np.testing.assert_array_equal(c, d)


def test_multivariate_model_requires_symmetry():
    with pytest.raises(SingularCovariance):
        MultivariateModel([0, 0], [[1, 0.5], [0.2, 1]])


def test_multivariate_model_requires_positive_definite():
    with pytest.raises(SingularCovariance):
        MultivariateModel([0, 0], [[1, 1], [1, 1]])


def test_multivariate_sampling_moments():
    cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
    m = MultivariateModel([1.0, -1.0, 0.5], cov)
    draws = m.sample(200_000, np.random.default_rng(12))
    np.testing.assert_allclose(draws.mean(axis=0), m.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)


def test_replication_rng_streams():
    a = replication_rng(99, 0).standard_normal(5)
    b = replication_rng(99, 0).standard_normal(5)
    c = replication_rng(99, 1).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-12

