import math

import numpy as np
import pytest

from crbplan import (
    DegeneratePolicy,
    EstimatorKind,
    InvalidPolicy,
    SamplingPolicy,
    Target,
    crb_t1,
    delta1,
    delta2,
    sample_joint,
    sample_mean_x,
    sample_mean_y,
    validate,
    var_delta1,
)
from crbplan.estimators import ESTIMATORS, analytic_variance


def model(rho=0.5, mu_x=0.0, mu_y=0.0, var_x=1.0, var_y=1.0):
    return validate((mu_x, mu_y, var_x, var_y, rho))


def strata(marginal_x=(), marginal_y=(), joint=()):
    """The estimators' statistics ``(counts, sums)`` of lists of values and
    of (x, y) pairs: the slot counts ``(n_x, n_y, n_xy, idle)``, no slot
    idle, and the sums of the strata ``(marginal_x, marginal_y, joint_x,
    joint_y)``."""
    joint = np.array(joint, dtype=float).reshape(-1, 2)
    values = (np.array(marginal_x, dtype=float), np.array(marginal_y, dtype=float),
              joint[:, 0], joint[:, 1])
    counts = np.array([values[0].size, values[1].size, joint.shape[0], 0])
    return counts, np.array([v.sum() for v in values])


def data_from_means(ybar1, xbar, ybar, n1=4, n2=4):
    """Degenerate strata whose group means are the given values."""
    return strata(marginal_y=[ybar1] * n1, joint=[(xbar, ybar)] * n2)


def estimate(formula, data, m):
    """The formula's estimate, once it says the strata allow one."""
    value, usable = formula(*data, m)
    assert usable
    return value


def test_each_estimator_has_one_copy():
    # the table's formulas are the public estimators themselves
    public = {(EstimatorKind.DELTA1, Target.MU_Y): delta1,
              (EstimatorKind.DELTA2, Target.MU_Y): delta2,
              (EstimatorKind.SAMPLE_MEAN, Target.MU_X): sample_mean_x,
              (EstimatorKind.SAMPLE_MEAN, Target.MU_Y): sample_mean_y}
    assert set(public) == set(ESTIMATORS)
    for key, function in public.items():
        assert ESTIMATORS[key][0] is function, key


# --- delta1 ---


def test_delta1_zero_rho_averages_groups():
    est = estimate(delta1, data_from_means(ybar1=2.0, xbar=0.3, ybar=4.0), model(rho=0.0))
    assert est == pytest.approx(3.0)


def test_delta1_consistency_at_group_means():
    # all group means at the true means must return the true mean
    est = estimate(delta1, data_from_means(ybar1=1.0, xbar=0.0, ybar=1.0), model(rho=0.5))
    assert est == pytest.approx(1.0)


def test_delta1_requires_both_strata():
    assert not delta1(*strata(marginal_y=[1.0, 2.0]), model())[1]
    assert not delta1(*strata(joint=[(1.0, 2.0)]), model())[1]


def test_delta1_matches_uncentered_form_when_mu_x_zero():
    rng = np.random.default_rng(0)
    m = model(rho=0.7, mu_x=0.0, mu_y=0.4)
    marginal_y, joint = rng.normal(size=9), rng.normal(size=(7, 2))
    data = strata(marginal_y=marginal_y, joint=joint)
    slope = m.rho * m.sigma_y / m.sigma_x
    ybar1 = marginal_y.mean()
    xbar, ybar = joint[:, 0].mean(), joint[:, 1].mean()
    literal = ((1 - m.rho**2) * ybar1 + ybar - slope * xbar) / (2 - m.rho**2)
    assert estimate(delta1, data, m) == literal


def test_delta1_centering_removes_mu_x_shift():
    # shifting all x data and mu_x together must not change the estimate
    rng = np.random.default_rng(1)
    marginal_y = rng.normal(size=11)
    joint = rng.normal(size=(13, 2))
    base = estimate(delta1, strata(marginal_y=marginal_y, joint=joint), model(rho=0.6, mu_x=0.0))
    shifted_joint = joint + np.array([5.0, 0.0])
    shifted = estimate(
        delta1, strata(marginal_y=marginal_y, joint=shifted_joint), model(rho=0.6, mu_x=5.0)
    )
    assert shifted == pytest.approx(base, rel=1e-12)


# --- var_delta1 ---


def test_var_delta1_equals_crb_at_half_half():
    m = model(rho=0.5)
    policy = SamplingPolicy(0, 0.5, 0.5)
    assert var_delta1(policy, m) == pytest.approx(6 / 7, rel=1e-12)
    assert var_delta1(policy, m) == pytest.approx(crb_t1(policy, m), rel=1e-12)


def test_var_delta1_zero_rho_pools_strata():
    assert var_delta1(SamplingPolicy(0, 0.5, 0.5), model(rho=0.0)) == pytest.approx(1.0)


def test_var_delta1_crb_attainment_over_rho_grid():
    policy = SamplingPolicy(0, 0.5, 0.5)
    for rho in np.arange(0.0, 0.95, 0.1):
        m = model(rho=float(rho))
        assert var_delta1(policy, m) == pytest.approx(crb_t1(policy, m), rel=1e-12)


def test_var_delta1_degenerate_policy():
    with pytest.raises(DegeneratePolicy):
        var_delta1(SamplingPolicy(0, 0.5, 0.0), model())
    with pytest.raises(DegeneratePolicy):
        var_delta1(SamplingPolicy(0, 0.0, 0.5), model())


def test_var_delta1_never_below_crb():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p_y = float(rng.uniform(0.05, 0.9))
        p_xy = float(rng.uniform(0.05, 1.0 - p_y))
        policy = SamplingPolicy(0, p_y, p_xy)
        m = model(rho=float(rng.uniform(-0.9, 0.9)))
        per_slot = var_delta1(policy, m) / (p_y + p_xy)
        assert per_slot >= crb_t1(policy, m) - 1e-12


# --- the estimator table ---


@pytest.mark.parametrize("key", list(ESTIMATORS), ids=lambda key: "-".join(k.value for k in key))
def test_table_row_reads_one_rule_at_counts_and_at_policies(key):
    # the formula returns its row's mask; at a policy proportional to a
    # replication's counts the same mask decides whether the estimator has
    # an analytic variance, and v, of degree -1 in the counts, is that
    # variance per slot times the replication's slots
    formula, needs, v = ESTIMATORS[key]
    m = model(rho=0.6, var_x=2.0, var_y=0.5)
    counts = np.random.default_rng(47).integers(0, 3, size=(3, 300))
    _, mask = formula(counts, np.zeros((4, 300)), m)
    assert np.array_equal(mask, needs(*counts))
    checked = 0
    for n, usable in zip(counts.T.tolist(), mask.tolist()):
        if sum(n) == 0:
            continue
        variance = analytic_variance(*key, SamplingPolicy(*(c / sum(n) for c in n)), m)
        assert (variance is None) is not usable, n
        if usable:
            assert variance == pytest.approx(sum(n) * v(n, m), rel=1e-12), n
            checked += 1
    assert checked > 100
    # a component at -0.0 counts as 0, and one below 0 makes no policy
    assert analytic_variance(*key, SamplingPolicy(-0.0, -0.0, -0.0), m) is None
    with pytest.raises(InvalidPolicy, match="^p_x must be finite and >= 0, got -1e-13$"):
        SamplingPolicy(-1e-13, -1e-13, -1e-13)


# --- delta2 ---


def test_delta2_zero_rho_is_joint_mean():
    est = estimate(delta2, strata(joint=[(0.5, 1.0), (1.5, 3.0)]), model(rho=0.0))
    assert est == pytest.approx(2.0)


def test_delta2_worked_value():
    est = estimate(delta2, data_from_means(ybar1=0.0, xbar=0.4, ybar=1.2),
                   model(rho=0.5, mu_x=0.5))
    assert est == pytest.approx(1.25)


def test_delta2_requires_joint():
    assert not delta2(*strata(marginal_y=[1.0]), model())[1]


def test_delta2_variance_shrinks_by_correlation():
    # per-pair variance (1 - rho^2) var_y, checked over many replications
    m = model(rho=0.9)
    n, reps = 100, 10**4
    rng = np.random.default_rng(3)
    x, y = sample_joint(m, rng, size=(reps * n))
    x = x.reshape(reps, n)
    y = y.reshape(reps, n)
    slope = m.rho * m.sigma_y / m.sigma_x
    estimates = y.mean(axis=1) - slope * (x.mean(axis=1) - m.mu_x)
    scaled = estimates.var(ddof=1) * n
    assert scaled == pytest.approx((1 - 0.81) * m.var_y, rel=0.05)


# --- sample means ---


def test_sample_means_joint_only():
    data = strata(joint=[(1, 2), (3, 4)])
    assert estimate(sample_mean_x, data, model()) == pytest.approx(2.0)
    assert estimate(sample_mean_y, data, model()) == pytest.approx(3.0)


def test_sample_means_pool_marginals():
    data = strata(marginal_x=[5.0], marginal_y=[0.0], joint=[(1.0, 0.0)])
    assert estimate(sample_mean_x, data, model()) == pytest.approx(3.0)


def test_sample_means_missing_coordinate():
    data = strata(marginal_x=[1.0])
    assert estimate(sample_mean_x, data, model()) == 1.0
    assert not sample_mean_y(*data, model())[1]
    assert not sample_mean_x(*strata(marginal_y=[1.0]), model())[1]


# --- unbiasedness (moderate size; the full grid runs in acceptance) ---


@pytest.mark.parametrize("mu_x,rho", [(0.0, 0.5), (5.0, 0.9)])
def test_estimators_unbiased(mu_x, rho):
    m = model(rho=rho, mu_x=mu_x, mu_y=1.5)
    reps, n1, n2 = 3000, 40, 40
    rng = np.random.default_rng(4)
    values = {"delta1": [], "delta2": [], "mean": []}
    for _ in range(reps):
        my = m.mu_y + m.sigma_y * rng.standard_normal(n1)
        jx, jy = sample_joint(m, rng, size=n2)
        data = strata(marginal_y=my, joint=np.stack([jx, jy], axis=1))
        values["delta1"].append(estimate(delta1, data, m))
        values["delta2"].append(estimate(delta2, data, m))
        values["mean"].append(estimate(sample_mean_y, data, m))
    for name, vals in values.items():
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - m.mu_y) <= 3 * se, name
