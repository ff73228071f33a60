"""Mean estimators for data pooled from marginal and joint observations.

With the correlation and the X mean known, a joint observation can be
regression-adjusted: subtracting ``slope * (xbar - mu_x)`` with
``slope = rho * sigma_y / sigma_x`` removes the part of the Y noise explained
by X.  ``delta2`` applies that adjustment to joint data alone (the minimum
variance unbiased choice there); ``delta1`` additionally blends in the mean
of stand-alone Y observations with a fixed correlation-dependent weight.

Every estimator is a formula on the stratum arrays that
:func:`crbplan.simulator.collect_replication` returns and takes
``(marginal_x, marginal_y, joint_x, joint_y, model)``.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DegeneratePolicy, MissingStratum
from .fisher import SamplingPolicy
from .model import Axis, ObservationModel


class EstimatorKind(Enum):
    DELTA1 = "delta1"
    DELTA2 = "delta2"
    SAMPLE_MEAN = "sample_mean"


def _mean(values: np.ndarray) -> float:
    # numpy's own mean is this sum over this count, bit for bit, at half the
    # call overhead.
    return float(values.sum()) / values.shape[0]


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"estimate must be finite, got {value}")
    return value


def _slope(model: ObservationModel) -> float:
    return model.rho * model.sigma_y / model.sigma_x


def delta1(marginal_x, marginal_y, joint_x, joint_y, model: ObservationModel) -> float:
    """Blend marginal-Y and regression-adjusted joint means.

    Returns ``((1 - rho^2) ybar1 + ybar - slope (xbar - mu_x)) / (2 - rho^2)``
    where ybar1 is the stand-alone Y mean and (xbar, ybar) the joint means.
    The joint term is centered at the known mu_x so the estimator stays
    unbiased for any X mean; with mu_x = 0 the expression reduces to the
    plain ``ybar - slope xbar`` adjustment.

    Raises:
        MissingStratum: either observation group is empty.
    """
    if marginal_y.shape[0] == 0:
        raise MissingStratum("delta1 needs stand-alone Y observations")
    if joint_x.shape[0] == 0:
        raise MissingStratum("delta1 needs joint observations")
    rho2 = model.rho * model.rho
    ybar1 = _mean(marginal_y)
    xbar, ybar = _mean(joint_x), _mean(joint_y)
    value = ((1.0 - rho2) * ybar1 + ybar - _slope(model) * (xbar - model.mu_x)) / (
        2.0 - rho2
    )
    return _finite(value)


def var_delta1(policy: SamplingPolicy, model: ObservationModel) -> float:
    """Analytic per-sample variance of ``delta1`` under a sampling policy.

    ``(1-rho^2) var_y / (2-rho^2)^2 * ((1-rho^2)/p_y + 1/p_xy) * (p_y + p_xy)``;
    normalized per Y-bearing (marginal-Y or joint) slot: divided by
    ``p_y + p_xy`` it is the per-slot variance, which the simulator reports.

    Raises:
        DegeneratePolicy: p_y = 0 or p_xy = 0 (an estimator stratum would be
            empty almost surely).
    """
    if policy.p_y <= 0.0 or policy.p_xy <= 0.0:
        raise DegeneratePolicy("delta1 requires p_y > 0 and p_xy > 0")
    rho2 = model.rho * model.rho
    shrink = 1.0 - rho2
    lead = shrink * model.var_y / (2.0 - rho2) ** 2
    return lead * (shrink / policy.p_y + 1.0 / policy.p_xy) * (policy.p_y + policy.p_xy)


def delta2(marginal_x, marginal_y, joint_x, joint_y, model: ObservationModel) -> float:
    """Regression-adjusted joint mean ``ybar - slope (xbar - mu_x)``.

    The minimum-variance unbiased estimator of the Y mean from joint data
    alone, with per-pair variance ``(1 - rho^2) var_y``.

    Raises:
        MissingStratum: no joint observations.
    """
    if joint_x.shape[0] == 0:
        raise MissingStratum("no joint observations")
    return _finite(_mean(joint_y) - _slope(model) * (_mean(joint_x) - model.mu_x))


def _pooled_mean(marginal, joint_column, axis: Axis) -> float:
    """Mean of every value of one coordinate, stand-alone and joint.

    Raises:
        MissingStratum: no value of that coordinate was observed.
    """
    value = math.nan
    if marginal.shape[0] + joint_column.shape[0] > 0:
        value = _mean(np.concatenate((marginal, joint_column)))
    if math.isnan(value):
        article = "an" if axis is Axis.X else "a"
        raise MissingStratum(f"no observations contain {article} {axis.name} value")
    return _finite(value)


def sample_mean_x(marginal_x, marginal_y, joint_x, joint_y, model: ObservationModel) -> float:
    """Mean of every X value seen (stand-alone and joint); ``model`` is not
    read.  With :func:`sample_mean_y`, the maximum likelihood estimator when
    both means are unknown and the covariance structure is known."""
    return _pooled_mean(marginal_x, joint_x, Axis.X)


def sample_mean_y(marginal_x, marginal_y, joint_x, joint_y, model: ObservationModel) -> float:
    """Mean of every Y value seen (stand-alone and joint); see :func:`sample_mean_x`."""
    return _pooled_mean(marginal_y, joint_y, Axis.Y)
