import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from crbplan import (
    Axis,
    CorrelationOutOfRange,
    MultivariateModel,
    NonPositiveVariance,
    Observation,
    ObservationKind,
    ObservationModel,
    SingularCovariance,
    replication_rng,
    sample_joint,
    sample_marginal,
    validate,
)
from crbplan.model import _SEED_BLOCK, _replication_rngs

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


def test_observation_kind_field_consistency():
    Observation(ObservationKind.MARGINAL_X, x=1.0, y=None, slot=0)
    Observation(ObservationKind.JOINT, x=1.0, y=2.0, slot=3)
    Observation(ObservationKind.IDLE, x=None, y=None, slot=1)
    with pytest.raises(ValueError):
        Observation(ObservationKind.MARGINAL_X, x=None, y=1.0, slot=0)
    with pytest.raises(ValueError):
        Observation(ObservationKind.JOINT, x=1.0, y=None, slot=0)
    with pytest.raises(ValueError):
        Observation(ObservationKind.IDLE, x=0.0, y=None, slot=0)


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


# --- block seeding of replication streams ---

_MASTER_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**96]),
    st.integers(0, 2**200),
)
# window starts near 0, around the two-word boundary 2**32 and far past it
_STARTS = st.one_of(
    st.integers(0, 2**12),
    st.integers(2**32 - 16, 2**32 + 4),
    st.integers(0, 2**70),
)


def _assert_same_streams(rngs, master, start):
    for rep, rng in enumerate(rngs, start):
        reference = replication_rng(master, rep)
        assert rng.bit_generator.state == reference.bit_generator.state, rep
        assert rng.standard_normal(3).tobytes() == reference.standard_normal(3).tobytes()


@settings(max_examples=80, deadline=None)
@given(master=_MASTER_SEEDS, start=_STARTS, length=st.integers(0, 24))
def test_block_seeding_equals_replication_rng(master, start, length):
    rngs = list(_replication_rngs(master, start, start + length))
    assert len(rngs) == length
    _assert_same_streams(rngs, master, start)


@settings(max_examples=40, deadline=None)
@given(
    master=_MASTER_SEEDS,
    start=st.sampled_from([0, 2**32 - 20]),
    cuts=st.lists(st.integers(0, 40), max_size=5),
)
def test_block_seeding_is_independent_of_the_split(master, start, cuts):
    bounds = sorted({0, 40, *cuts})
    pieces = [
        rng.bit_generator.state
        for lo, hi in zip(bounds, bounds[1:])
        for rng in _replication_rngs(master, start + lo, start + hi)
    ]
    whole = [rng.bit_generator.state for rng in _replication_rngs(master, start, start + 40)]
    assert pieces == whole


def test_block_seeding_across_seed_blocks():
    # more than two vectorized passes, each starting where the last ended
    stop = 2 * _SEED_BLOCK + 5
    _assert_same_streams(list(_replication_rngs(2**64 + 7, 0, stop)), 2**64 + 7, 0)


def test_block_seeding_rejects_negative_seed_like_seed_sequence():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        next(_replication_rngs(-1, 0, 1))
