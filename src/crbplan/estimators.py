"""Mean estimators for data pooled from marginal and joint observations.

With the correlation and the X mean known, a joint observation can be
regression-adjusted: subtracting ``slope * (xbar - mu_x)`` with
``slope = rho * sigma_y / sigma_x`` removes the part of the Y noise explained
by X.  ``delta2`` applies that adjustment to joint data alone (the minimum
variance unbiased choice there); ``delta1`` additionally blends in the mean
of stand-alone Y observations with a fixed correlation-dependent weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegeneratePolicy, MissingStratum
from .fisher import SamplingPolicy
from .model import Axis, MultivariateModel, ObservationModel


class EstimatorKind(Enum):
    DELTA1 = "delta1"
    DELTA2 = "delta2"
    SAMPLE_MEAN = "sample_mean"


class CollectedData:
    """One replication's observations, grouped by kind.

    ``marginal_x`` and ``marginal_y`` are 1-D arrays of stand-alone
    observations; ``joint`` is an (n, 2) array of paired (x, y) draws.
    Immutable once assembled.
    """

    def __init__(self, marginal_x=(), marginal_y=(), joint=()) -> None:
        self.marginal_x = np.atleast_1d(np.array(marginal_x, dtype=float, copy=True))
        self.marginal_y = np.atleast_1d(np.array(marginal_y, dtype=float, copy=True))
        joint = np.array(joint, dtype=float, copy=True)
        if joint.size == 0:
            joint = joint.reshape(0, 2)
        if joint.ndim != 2 or joint.shape[1] != 2:
            raise ValueError("joint observations must be (n, 2) pairs")
        self.joint = joint
        for arr in (self.marginal_x, self.marginal_y, self.joint):
            arr.flags.writeable = False

    @property
    def n_marginal_x(self) -> int:
        return self.marginal_x.shape[0]

    @property
    def n_marginal_y(self) -> int:
        return self.marginal_y.shape[0]

    @property
    def n_joint(self) -> int:
        return self.joint.shape[0]

    def joint_means(self) -> tuple[float, float]:
        return _joint_means(self.joint[:, 0], self.joint[:, 1])


def _mean(values: np.ndarray) -> float:
    # numpy's own mean is this sum over this count, bit for bit, at half the
    # call overhead.
    return float(values.sum()) / values.shape[0]


def _joint_means(joint_x: np.ndarray, joint_y: np.ndarray) -> tuple[float, float]:
    if joint_x.shape[0] == 0:
        raise MissingStratum("no joint observations")
    return _mean(joint_x), _mean(joint_y)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"estimate must be finite, got {value}")
    return value


@dataclass(frozen=True)
class Estimate:
    """An estimator's value plus how many observations of each kind fed it."""

    value: float
    estimator: EstimatorKind
    n_marginal_x: int
    n_marginal_y: int
    n_joint: int

    def __post_init__(self) -> None:
        _finite(self.value)


def _slope(model: ObservationModel) -> float:
    return model.rho * model.sigma_y / model.sigma_x


def _estimate(value: float, kind: EstimatorKind, data: CollectedData) -> Estimate:
    return Estimate(value, kind, data.n_marginal_x, data.n_marginal_y, data.n_joint)


def delta1_value(marginal_y, joint_x, joint_y, model: ObservationModel) -> float:
    """:func:`delta1` from bare stratum arrays (the one copy of its formula)."""
    if marginal_y.shape[0] == 0:
        raise MissingStratum("delta1 needs stand-alone Y observations")
    if joint_x.shape[0] == 0:
        raise MissingStratum("delta1 needs joint observations")
    rho2 = model.rho * model.rho
    ybar1 = _mean(marginal_y)
    xbar, ybar = _joint_means(joint_x, joint_y)
    value = ((1.0 - rho2) * ybar1 + ybar - _slope(model) * (xbar - model.mu_x)) / (
        2.0 - rho2
    )
    return _finite(value)


def delta1(data: CollectedData, model: ObservationModel) -> Estimate:
    """Blend marginal-Y and regression-adjusted joint means.

    Returns ``((1 - rho^2) ybar1 + ybar - slope (xbar - mu_x)) / (2 - rho^2)``
    where ybar1 is the stand-alone Y mean and (xbar, ybar) the joint means.
    The joint term is centered at the known mu_x so the estimator stays
    unbiased for any X mean; with mu_x = 0 the expression reduces to the
    plain ``ybar - slope xbar`` adjustment.

    Raises:
        MissingStratum: either observation group is empty.
    """
    value = delta1_value(data.marginal_y, data.joint[:, 0], data.joint[:, 1], model)
    return _estimate(value, EstimatorKind.DELTA1, data)


def var_delta1(policy: SamplingPolicy, model: ObservationModel) -> float:
    """Analytic per-sample variance of ``delta1`` under a sampling policy.

    ``(1-rho^2) var_y / (2-rho^2)^2 * ((1-rho^2)/p_y + 1/p_xy) * (p_y + p_xy)``;
    normalized per non-idle sample, so it coincides with the per-slot bound
    whenever p_y + p_xy = 1.

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


def delta2_value(joint_x, joint_y, model: ObservationModel) -> float:
    """:func:`delta2` from bare joint columns (the one copy of its formula)."""
    xbar, ybar = _joint_means(joint_x, joint_y)
    return _finite(ybar - _slope(model) * (xbar - model.mu_x))


def delta2(data: CollectedData, model: ObservationModel) -> Estimate:
    """Regression-adjusted joint mean ``ybar - slope (xbar - mu_x)``.

    The minimum-variance unbiased estimator of the Y mean from joint data
    alone, with per-pair variance ``(1 - rho^2) var_y``.

    Raises:
        MissingStratum: no joint observations.
    """
    value = delta2_value(data.joint[:, 0], data.joint[:, 1], model)
    return _estimate(value, EstimatorKind.DELTA2, data)


def pooled_mean(marginal, joint_column, axis: Axis) -> float:
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


def sample_mean_x(data: CollectedData) -> Estimate:
    """Mean of every X value seen (stand-alone and joint)."""
    value = pooled_mean(data.marginal_x, data.joint[:, 0], Axis.X)
    return _estimate(value, EstimatorKind.SAMPLE_MEAN, data)


def sample_mean_y(data: CollectedData) -> Estimate:
    """Mean of every Y value seen (stand-alone and joint)."""
    value = pooled_mean(data.marginal_y, data.joint[:, 1], Axis.Y)
    return _estimate(value, EstimatorKind.SAMPLE_MEAN, data)


def sample_mean_estimates(data: CollectedData) -> tuple[Estimate, Estimate]:
    """Sample means of both coordinates, pooling marginal and joint values.

    These are the maximum likelihood estimators when both means are unknown
    and the covariance structure is known.

    Raises:
        MissingStratum: a coordinate has no observations at all.
    """
    return sample_mean_x(data), sample_mean_y(data)


def mle_gradient_check(data, model: MultivariateModel) -> float:
    """Norm of the Gaussian log-likelihood gradient in the mean vector.

    For samples x_1..x_n and candidate mean m, the gradient is
    ``Sigma^{-1} sum_i (x_i - m)``; its norm vanishes exactly when m is the
    sample mean, for any dimension and any valid covariance.

    Args:
        data: (n, k) array of k-variate samples.
        model: carries the candidate mean and the (SPD-validated) covariance.

    Returns:
        The Euclidean norm of the gradient; at the sample mean this is zero
        up to round-off (<= 1e-8 * n in practice).
    """
    samples = np.asarray(data, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != model.dim:
        raise ValueError(f"data must be (n, {model.dim})")
    if samples.shape[0] == 0:
        raise ValueError("need at least one sample")
    residual_sum = (samples - model.mean).sum(axis=0)
    gradient = np.linalg.solve(model.covariance, residual_sum)
    return float(np.linalg.norm(gradient))
