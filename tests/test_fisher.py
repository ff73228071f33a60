import math

import numpy as np
import pytest

from crbplan import (
    BoundOverflow,
    DegeneratePolicy,
    InvalidPolicy,
    SamplingPolicy,
    SingularMatrix,
    Target,
    Task,
    crb,
    crb_t1,
    crb_t3,
    empirical_fim_with_stderr,
    fim,
    validate,
)
from crbplan.fisher import crb_array
from crbplan.simulator import _kind_probabilities


def model(rho=0.5, var_x=1.0, var_y=1.0, mu_x=0.0, mu_y=0.0):
    return validate((mu_x, mu_y, var_x, var_y, rho))


def random_cases(seed, n=50):
    """Seeded grid of valid (policy, model) pairs for property checks."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        raw = rng.random(3)
        raw *= rng.random() / max(raw.sum(), 1e-12)
        policy = SamplingPolicy(*raw)
        m = model(
            rho=float(rng.uniform(-0.95, 0.95)),
            var_x=float(rng.uniform(0.2, 5.0)),
            var_y=float(rng.uniform(0.2, 5.0)),
        )
        yield policy, m


# --- policy type ---


def test_policy_bounds_enforced():
    SamplingPolicy(0.2, 0.3, 0.5)
    with pytest.raises(InvalidPolicy):
        SamplingPolicy(-0.1, 0.5, 0.2)
    with pytest.raises(InvalidPolicy):
        SamplingPolicy(0.5, 0.5, 0.5)


def test_policy_clamped_snaps_solver_noise():
    p = SamplingPolicy.clamped(-1e-12, 0.5, 0.5 + 1e-12)
    assert p.p_x == 0.0
    assert p.p_x + p.p_y + p.p_xy <= 1.0
    with pytest.raises(InvalidPolicy):
        SamplingPolicy.clamped(-0.1, 0.5, 0.5)


def test_policy_idle_probability():
    # the engine's idle share is what the policy's components leave
    assert _kind_probabilities(SamplingPolicy(0.1, 0.2, 0.3))[3] == pytest.approx(0.4)


# --- t1 information / crb_t1 ---


def test_info_t1_marginal_only():
    # marginal-only information is 1/var_y for any correlation
    assert fim(Task.T1, SamplingPolicy(0, 1, 0), model(rho=0.7))[0, 0] == pytest.approx(1.0)


def test_info_t1_worked_value():
    f = fim(Task.T1, SamplingPolicy(0, 0.5, 0.5), model(rho=0.5))
    assert f[0, 0] == pytest.approx(7 / 6, rel=1e-12)
    assert f[0, 1] == f[1, 0] == f[1, 1] == 0.0  # the oracle's t1 layout


def test_info_t1_joint_only_scaled_variance():
    value = fim(Task.T1, SamplingPolicy(0, 0, 1), model(rho=0.9, var_y=2.0))[0, 0]
    assert value == pytest.approx(1.0 / ((1 - 0.81) * 2.0), rel=1e-12)


def test_info_t1_ignores_p_x():
    m = model(rho=0.5)
    a = fim(Task.T1, SamplingPolicy(0.0, 0.3, 0.3), m)[0, 0]
    b = fim(Task.T1, SamplingPolicy(0.4, 0.3, 0.3), m)[0, 0]
    assert a == b


def test_crb_t1_worked_value():
    value = crb_t1(SamplingPolicy(0, 0.5, 0.5), model(rho=0.5))
    assert value == pytest.approx(6 / 7, rel=1e-12)


def test_crb_t1_marginal_only_is_variance():
    assert crb_t1(SamplingPolicy(0, 1, 0), model(rho=0.3, var_y=2.5)) == pytest.approx(2.5)


def test_crb_t1_degenerate():
    with pytest.raises(DegeneratePolicy):
        crb_t1(SamplingPolicy(0.5, 0, 0), model())


def test_info_crb_product_is_one():
    for policy, m in random_cases(seed=21):
        if policy.p_y <= 0 and policy.p_xy <= 0:
            continue
        assert fim(Task.T1, policy, m)[0, 0] * crb_t1(policy, m) == pytest.approx(1.0, rel=1e-12)


def test_info_t1_monotone_in_policy():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m = model(rho=float(rng.uniform(-0.9, 0.9)))
        p_y, p_xy = rng.random(2) * 0.4
        bump = float(rng.uniform(0.0, 0.2))
        base = fim(Task.T1, SamplingPolicy(0, p_y, p_xy), m)[0, 0]
        assert fim(Task.T1, SamplingPolicy(0, p_y + bump, p_xy), m)[0, 0] >= base
        more_joint = fim(Task.T1, SamplingPolicy(0, p_y, p_xy + bump), m)[0, 0]
        assert more_joint >= base
        if bump > 0:
            assert more_joint > base  # joint slots always add information


# --- t2 information ---


def test_fim_t2_identity_case():
    f = fim(Task.T2, SamplingPolicy(0, 0, 1), model(rho=0.0))
    np.testing.assert_allclose(f, np.eye(2), rtol=1e-12)


def test_fim_t2_worked_value():
    f = fim(Task.T2, SamplingPolicy(0, 0, 1), model(rho=0.5))
    np.testing.assert_allclose(
        f, np.diag([4 / 3, 20 / 9]), rtol=1e-12
    )


def test_fim_t2_singular_without_joint():
    f = fim(Task.T2, SamplingPolicy(0, 1, 0), model(rho=0.4, var_y=2.0))
    assert f[0, 0] == pytest.approx(0.5)
    assert f[1, 1] == 0.0
    assert abs(np.linalg.det(f)) <= 1e-14


# --- t3 information ---


def test_fim_t3_identity_case():
    f = fim(Task.T3, SamplingPolicy(0, 0, 1), model(rho=0.0))
    np.testing.assert_allclose(f, np.eye(2), rtol=1e-12)


def test_fim_t3_worked_value():
    f = fim(Task.T3, SamplingPolicy(0, 0, 1), model(rho=0.5))
    np.testing.assert_allclose(
        f, np.array([[4 / 3, -2 / 3], [-2 / 3, 4 / 3]]), rtol=1e-12
    )


def test_fim_t3_no_cross_term_without_joint():
    f = fim(Task.T3, SamplingPolicy(0.5, 0.5, 0), model(rho=0.8, var_x=2.0, var_y=4.0))
    np.testing.assert_allclose(f, np.diag([0.25, 0.125]), rtol=1e-12)


def test_fim_t3_cross_term_iff_rho_and_joint():
    for policy, m in random_cases(seed=23):
        f = fim(Task.T3, policy, m)
        if m.rho * policy.p_xy == 0.0:
            assert f[0, 1] == 0.0
        else:
            assert f[0, 1] != 0.0


def test_fims_are_symmetric_psd():
    for policy, m in random_cases(seed=24):
        for f in (fim(Task.T2, policy, m), fim(Task.T3, policy, m)):
            assert f[0, 1] == f[1, 0]  # both entries are one computed value
            eigenvalues = np.linalg.eigvalsh(f)
            assert eigenvalues.min() >= -1e-10


# --- crb_t3 ---


@pytest.mark.parametrize(
    "target, want", [(Target.MU_X, 1.3368984), (Target.MU_Y, 2.94117647e-311)]
)
def test_crb_t3_at_a_subnormal_variance(target, want):
    # standardized entries, the variance applied last: no overflow in the
    # information, and the mu_x bound does not depend on var_y
    m = model(rho=0.5, var_y=2.2e-311)
    value = crb_t3(SamplingPolicy(0.3, 0.3, 0.4), m, target)
    assert value == pytest.approx(want, rel=1e-7)
    unit = crb_t3(SamplingPolicy(0.3, 0.3, 0.4), model(rho=0.5), target)
    assert value == (unit if target is Target.MU_X else 2.2e-311 * unit)


@pytest.mark.parametrize("task", [Task.T1, Task.T3])
def test_overflowing_bound_raises_through_crb(task):
    # the standardized bound 1/p = 1e10 is finite; var 1e300 times it is not
    m = model(rho=0.0, var_x=1e300, var_y=1e300)
    policy = SamplingPolicy(0.0, 1e-10, 0.0)
    with pytest.raises(BoundOverflow, match="^bound overflows: variance 1e\\+300 times"):
        crb(task, Target.MU_Y, policy, m)
    # no information at all is still no bound, not an overflow
    assert crb(task, Target.MU_Y, SamplingPolicy(1e-10, 0.0, 0.0), m) == math.inf
    assert crb(task, Target.MU_Y, policy, model(rho=0.0, var_y=1e290)) == pytest.approx(1e300)
    # a subnormal policy: the information is positive, its inverse overflows
    with pytest.raises(BoundOverflow, match="^bound overflows: the information is positive"):
        crb(task, Target.MU_Y, SamplingPolicy(0.0, 1e-310, 0.0), model(rho=0.0))
    # ... also where (1 - rho^2) p_y underflows to 0, which once read as no information
    with pytest.raises(BoundOverflow, match="^bound overflows: the information is positive"):
        crb(task, Target.MU_Y, SamplingPolicy(0.0, 5e-324, 0.0), model(rho=0.75))


@pytest.mark.parametrize("task", list(Task))
def test_crb_array_equals_scalar_crb_bit_for_bit(task):
    # every target, arrays of correlations and variances, and rows without
    # information about one mean or both
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(4), size=300)[:, :3]
    p[::5, 2] = 0.0
    p[::7, 1] = 0.0
    p[::15, 0] = 0.0
    rho = rng.uniform(-0.99, 0.99, size=len(p))
    var_x, var_y = rng.uniform(0.1, 10.0, size=(2, len(p)))
    for target in Target:
        got = crb_array(task, target, *p.T, rho, var_x, var_y).tolist()
        want = [
            crb(task, target, SamplingPolicy(*row), model(*values))
            for row, values in zip(p.tolist(), zip(rho, var_x, var_y))
        ]
        assert got == want
        assert math.inf in want


def test_crb_array_raises_at_the_first_overflowing_row():
    # row 2 overflows only times the variance, row 3 already standardized:
    # the first such row gives crb's message
    p_y = np.array([0.0, 0.5, 1e-10, 5e-324, 0.5])
    zero = np.zeros_like(p_y)
    with pytest.raises(BoundOverflow, match="^bound overflows: variance 1e\\+300 times"):
        crb_array(Task.T1, Target.MU_Y, zero, p_y, zero, 0.75, 1.0, 1e300)
    with pytest.raises(BoundOverflow, match="^bound overflows: the information is positive"):
        crb_array(Task.T1, Target.MU_Y, zero, p_y, zero, 0.75)
    assert crb_array(Task.T1, Target.MU_Y, zero[:3], p_y[:3], zero[:3], 0.0).tolist() == [
        math.inf, 2.0, 1e10
    ]


@pytest.mark.parametrize("p_y, var_y", [(1e-310, 1e-5), (3e-320, 1e-12), (1e-310, 1e-300), (0.3, 2.0)])
def test_crb_t1_applies_a_small_variance_before_overflow(p_y, var_y):
    # 1 / information overflows at a subnormal policy, var_y times it need
    # not; the scalar and the array form agree bit for bit
    value = crb_t1(SamplingPolicy(0.0, p_y, 0.0), model(rho=0.5, var_y=var_y))
    assert value == pytest.approx(var_y / p_y, rel=1e-5)
    zero = np.zeros(1)
    assert crb_array(Task.T1, Target.MU_Y, zero, np.array([p_y]), zero, 0.5, 1.0, var_y) == value


def test_crb_t3_worked_value():
    value = crb_t3(SamplingPolicy(0, 0, 1), model(rho=0.5), Target.MU_X)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_crb_t3_marginal_only_x():
    # no joint samples: the means decouple and the X bound is var_x alone
    value = crb_t3(SamplingPolicy(1, 0, 0), model(rho=0.5, var_x=3.0), Target.MU_X)
    assert value == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(SingularMatrix):
        crb_t3(SamplingPolicy(1, 0, 0), model(rho=0.5), Target.MU_Y)


def test_crb_t3_singular_policy():
    with pytest.raises(SingularMatrix):
        crb_t3(SamplingPolicy(0, 1, 0), model(rho=0.5), Target.MU_X)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e7, 1e12])
def test_crb_t3_is_the_inverse_entry_at_any_variance_scale(scale):
    # a regular matrix whose determinant, 1/(var_x var_y) times a standardized
    # one, is far below round-off for O(1) entries
    m = model(rho=0.8, var_x=scale, var_y=scale)
    policy = SamplingPolicy(0.3, 0.3, 0.3)
    inverse = np.linalg.inv(fim(Task.T3, policy, m))
    assert crb_t3(policy, m, Target.MU_X) == pytest.approx(inverse[0, 0], rel=1e-12)
    assert crb_t3(policy, m, Target.MU_Y) / scale == pytest.approx(85 / 63, rel=1e-12)


def test_crb_t3_inverse_diagonal_bound():
    # [I^-1]_11 >= 1/I_11, equality iff the cross term vanishes
    for policy, m in random_cases(seed=26):
        f = fim(Task.T3, policy, m)
        if abs(np.linalg.det(f)) <= 1e-14:
            continue
        bound = crb_t3(policy, m, Target.MU_X)
        assert bound >= 1.0 / f[0, 0] - 1e-12
        if f[0, 1] == 0.0:
            assert bound == pytest.approx(1.0 / f[0, 0], rel=1e-12)
        else:
            assert bound > 1.0 / f[0, 0]


def test_crb_is_the_task_bound_or_inf():
    # the one "bound, or inf" evaluator: equal to crb_t1/crb_t3 where they
    # return, inf exactly where they raise
    for policy, m in random_cases(seed=27):
        x_only = SamplingPolicy(policy.p_x, 0.0, 0.0)
        for p in (policy, x_only, SamplingPolicy(0.0, policy.p_y, 0.0)):
            for task in Task:
                for target in Target:
                    try:
                        want = crb_t3(p, m, target) if task is Task.T3 else crb_t1(p, m)
                    except (DegeneratePolicy, SingularMatrix):
                        want = math.inf
                    assert crb(task, target, p, m) == want
    assert crb(Task.T1, Target.MU_Y, SamplingPolicy(0.4, 0, 0), model()) == math.inf
    assert crb(Task.T3, Target.MU_X, SamplingPolicy(0, 0.4, 0), model()) == math.inf
    assert crb(Task.T3, Target.MU_Y, SamplingPolicy(0, 0.4, 0), model()) == 2.5


# --- empirical oracle ---


def test_empirical_fim_requires_enough_samples():
    with pytest.raises(ValueError):
        empirical_fim_with_stderr(model(), SamplingPolicy(0, 0, 1), Task.T1, 100,
                                  np.random.default_rng(0))


def test_empirical_fim_t1_matches_closed_form():
    m = model(rho=0.5)
    policy = SamplingPolicy(0, 0.5, 0.5)
    got, se = empirical_fim_with_stderr(m, policy, Task.T1, 10**5, np.random.default_rng(30))
    assert abs(got[0, 0] - fim(Task.T1, policy, m)[0, 0]) <= 3 * se[0, 0]
    assert got[0, 1] == got[1, 0] == got[1, 1] == 0.0


def test_empirical_fim_t2_matches_closed_form():
    m = model(rho=0.5)
    policy = SamplingPolicy(0, 0, 1)
    got, se = empirical_fim_with_stderr(m, policy, Task.T2, 10**5, np.random.default_rng(31))
    expected = fim(Task.T2, policy, m)
    assert abs(got[0, 0] - expected[0, 0]) <= 3 * se[0, 0]
    assert abs(got[1, 1] - expected[1, 1]) <= 3 * se[1, 1]
    assert abs(got[0, 1]) <= 0.02


def test_empirical_fim_t3_identity():
    m = model(rho=0.0)
    got, _ = empirical_fim_with_stderr(m, SamplingPolicy(0, 0, 1), Task.T3, 10**5,
                                       np.random.default_rng(32))
    np.testing.assert_allclose(got, np.eye(2), atol=0.02)


def test_empirical_fim_mixture_includes_idle():
    # information scales with the sampling probabilities, idle slots score 0
    m = model(rho=0.6)
    policy = SamplingPolicy(0.1, 0.2, 0.3)  # 40% idle
    got, se = empirical_fim_with_stderr(m, policy, Task.T1, 10**5, np.random.default_rng(33))
    assert abs(got[0, 0] - fim(Task.T1, policy, m)[0, 0]) <= 3 * se[0, 0]


def test_empirical_fim_deterministic_given_seed():
    m = model(rho=0.3)
    policy = SamplingPolicy(0, 0.4, 0.4)
    a = empirical_fim_with_stderr(m, policy, Task.T3, 10**4, np.random.default_rng(34))
    b = empirical_fim_with_stderr(m, policy, Task.T3, 10**4, np.random.default_rng(34))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
