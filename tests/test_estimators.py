import math

import numpy as np
import pytest

from crbplan import (
    DegeneratePolicy,
    MissingStratum,
    SamplingPolicy,
    crb_t1,
    delta1,
    delta2,
    sample_joint,
    sample_mean_x,
    sample_mean_y,
    validate,
    var_delta1,
)


def model(rho=0.5, mu_x=0.0, mu_y=0.0, var_x=1.0, var_y=1.0):
    return validate((mu_x, mu_y, var_x, var_y, rho))


def strata(marginal_x=(), marginal_y=(), joint=()):
    """The estimators' stratum arrays ``(marginal_x, marginal_y, joint_x,
    joint_y)`` from lists of values and of (x, y) pairs."""
    joint = np.array(joint, dtype=float).reshape(-1, 2)
    return (np.array(marginal_x, dtype=float), np.array(marginal_y, dtype=float),
            joint[:, 0].copy(), joint[:, 1].copy())


def data_from_means(ybar1, xbar, ybar, n1=4, n2=4):
    """Degenerate strata whose group means are exactly the given values."""
    return strata(marginal_y=[ybar1] * n1, joint=[(xbar, ybar)] * n2)


# --- delta1 ---


def test_delta1_zero_rho_averages_groups():
    est = delta1(*data_from_means(ybar1=2.0, xbar=0.3, ybar=4.0), model(rho=0.0))
    assert est == pytest.approx(3.0)


def test_delta1_consistency_at_group_means():
    # all group means at the true means must return the true mean
    est = delta1(*data_from_means(ybar1=1.0, xbar=0.0, ybar=1.0), model(rho=0.5))
    assert est == pytest.approx(1.0)


def test_delta1_requires_both_strata():
    with pytest.raises(MissingStratum):
        delta1(*strata(marginal_y=[1.0, 2.0]), model())
    with pytest.raises(MissingStratum):
        delta1(*strata(joint=[(1.0, 2.0)]), model())


def test_delta1_matches_uncentered_form_when_mu_x_zero():
    rng = np.random.default_rng(0)
    m = model(rho=0.7, mu_x=0.0, mu_y=0.4)
    data = strata(marginal_y=rng.normal(size=9), joint=rng.normal(size=(7, 2)))
    slope = m.rho * m.sigma_y / m.sigma_x
    ybar1 = data[1].mean()
    xbar, ybar = data[2].mean(), data[3].mean()
    literal = ((1 - m.rho**2) * ybar1 + ybar - slope * xbar) / (2 - m.rho**2)
    assert delta1(*data, m) == literal


def test_delta1_centering_removes_mu_x_shift():
    # shifting all x data and mu_x together must not change the estimate
    rng = np.random.default_rng(1)
    marginal_y = rng.normal(size=11)
    joint = rng.normal(size=(13, 2))
    base = delta1(*strata(marginal_y=marginal_y, joint=joint), model(rho=0.6, mu_x=0.0))
    shifted_joint = joint + np.array([5.0, 0.0])
    shifted = delta1(
        *strata(marginal_y=marginal_y, joint=shifted_joint), model(rho=0.6, mu_x=5.0)
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


# --- delta2 ---


def test_delta2_zero_rho_is_joint_mean():
    est = delta2(*strata(joint=[(0.5, 1.0), (1.5, 3.0)]), model(rho=0.0))
    assert est == pytest.approx(2.0)


def test_delta2_worked_value():
    est = delta2(*data_from_means(ybar1=0.0, xbar=0.4, ybar=1.2), model(rho=0.5, mu_x=0.5))
    assert est == pytest.approx(1.25)


def test_delta2_requires_joint():
    with pytest.raises(MissingStratum):
        delta2(*strata(marginal_y=[1.0]), model())


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
    assert sample_mean_x(*data, model()) == pytest.approx(2.0)
    assert sample_mean_y(*data, model()) == pytest.approx(3.0)


def test_sample_means_pool_marginals():
    data = strata(marginal_x=[5.0], marginal_y=[0.0], joint=[(1.0, 0.0)])
    assert sample_mean_x(*data, model()) == pytest.approx(3.0)


def test_sample_means_missing_coordinate():
    data = strata(marginal_x=[1.0])
    assert sample_mean_x(*data, model()) == 1.0
    with pytest.raises(MissingStratum, match="^no observations contain a Y value$"):
        sample_mean_y(*data, model())
    with pytest.raises(MissingStratum, match="^no observations contain an X value$"):
        sample_mean_x(*strata(marginal_y=[1.0]), model())


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
        data = (np.empty(0), my, jx, jy)
        values["delta1"].append(delta1(*data, m))
        values["delta2"].append(delta2(*data, m))
        values["mean"].append(sample_mean_y(*data, m))
    for name, vals in values.items():
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - m.mu_y) <= 3 * se, name
