"""Mean estimators for data pooled from marginal and joint observations.

With the correlation and the X mean known, a joint observation can be
regression-adjusted: subtracting ``slope * (xbar - mu_x)`` with
``slope = rho * sigma_y / sigma_x`` removes the part of the Y noise explained
by X.  ``delta2`` applies that adjustment to joint data alone (the minimum
variance unbiased choice there); ``delta1`` additionally blends in the mean
of stand-alone Y observations with a fixed correlation-dependent weight.

Every estimator is one formula on a replication's statistics: the slot
counts ``(n_x, n_y, n_xy)`` of the marginal-X, marginal-Y and joint kinds
and the sums of the strata ``(marginal_x, marginal_y, joint_x, joint_y)``,
each row a number or an array over replications.  The ``*_of_sums``
formulas return the estimates and a mask of the replications whose strata
allow one.  :func:`crbplan.simulator.run` calls them once per block of
replications, all drawn together from the block's stream: the counts in
one multinomial draw, and each stratum sum from one standard normal scaled
by the square root of the stratum's count.  The public estimators take one
replication's stratum arrays, as
:func:`crbplan.simulator.collect_replication` returns them (values whose
stratum sums are those a chunk of one replication draws), and
``(marginal_x, marginal_y, joint_x, joint_y, model)``; they compute the same
statistics and call the same formula.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DegeneratePolicy, MissingStratum
from .fisher import SamplingPolicy
from .model import ObservationModel


class EstimatorKind(Enum):
    DELTA1 = "delta1"
    DELTA2 = "delta2"
    SAMPLE_MEAN = "sample_mean"


def _means(counts, sums):
    """Each stratum's mean, ``sum / count``, both joint columns over the
    joint count; 0 where the stratum is empty, which the formula's mask
    excludes."""
    n_x, n_y, n_xy = np.maximum(counts[:3], 1)
    return sums[0] / n_x, sums[1] / n_y, sums[2] / n_xy, sums[3] / n_xy


def _slope(model: ObservationModel) -> float:
    return model.rho * model.sigma_y / model.sigma_x


def _finite(values):
    """``values`` as they are, once every one is finite."""
    if not np.isfinite(values).all():
        bad = values.flat[np.flatnonzero(~np.isfinite(values))[0]]
        raise ValueError(f"estimate must be finite, got {bad}")
    return values


def _one(formula, strata, model: ObservationModel, missing: str) -> float:
    """``formula`` at one replication's stratum arrays."""
    counts = [stratum.shape[0] for stratum in strata[:3]]
    value, usable = formula(counts, [stratum.sum() for stratum in strata], model)
    if not usable:
        raise MissingStratum(missing)
    return float(_finite(value))


def delta1_of_sums(counts, sums, model: ObservationModel):
    """``((1 - rho^2) ybar1 + ybar - slope (xbar - mu_x)) / (2 - rho^2)``
    where ybar1 is the stand-alone Y mean and (xbar, ybar) the joint means;
    usable where both groups are observed."""
    _, ybar1, xbar, ybar = _means(counts, sums)
    rho2 = model.rho * model.rho
    value = ((1.0 - rho2) * ybar1 + ybar - _slope(model) * (xbar - model.mu_x)) / (2.0 - rho2)
    return value, (counts[1] > 0) & (counts[2] > 0)


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
    return _one(delta1_of_sums, (marginal_x, marginal_y, joint_x, joint_y), model,
                "delta1 needs stand-alone Y and joint observations")


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


def delta2_of_sums(counts, sums, model: ObservationModel):
    """``ybar - slope (xbar - mu_x)`` of the joint means; usable where joint
    pairs are observed."""
    _, _, xbar, ybar = _means(counts, sums)
    return ybar - _slope(model) * (xbar - model.mu_x), counts[2] > 0


def delta2(marginal_x, marginal_y, joint_x, joint_y, model: ObservationModel) -> float:
    """Regression-adjusted joint mean ``ybar - slope (xbar - mu_x)``.

    The minimum-variance unbiased estimator of the Y mean from joint data
    alone, with per-pair variance ``(1 - rho^2) var_y``.

    Raises:
        MissingStratum: no joint observations.
    """
    return _one(delta2_of_sums, (marginal_x, marginal_y, joint_x, joint_y), model,
                "no joint observations")


def _pooled(counts, sums, kind: int, column: int):
    """Mean of every value of one coordinate: its stand-alone stratum
    (``kind``) and its joint column; usable where either is observed."""
    seen = counts[kind] + counts[2]
    return (sums[kind] + sums[column]) / np.maximum(seen, 1), seen > 0


def sample_mean_x_of_sums(counts, sums, model: ObservationModel):
    """Mean of every X value seen; ``model`` is not read."""
    return _pooled(counts, sums, 0, 2)


def sample_mean_y_of_sums(counts, sums, model: ObservationModel):
    """Mean of every Y value seen; ``model`` is not read."""
    return _pooled(counts, sums, 1, 3)


def sample_mean_x(marginal_x, marginal_y, joint_x, joint_y, model: ObservationModel) -> float:
    """Mean of every X value seen (stand-alone and joint); ``model`` is not
    read.  With :func:`sample_mean_y`, the maximum likelihood estimator when
    both means are unknown and the covariance structure is known.

    Raises:
        MissingStratum: no X value was observed.
    """
    return _one(sample_mean_x_of_sums, (marginal_x, marginal_y, joint_x, joint_y), model,
                "no observations contain an X value")


def sample_mean_y(marginal_x, marginal_y, joint_x, joint_y, model: ObservationModel) -> float:
    """Mean of every Y value seen (stand-alone and joint); see :func:`sample_mean_x`."""
    return _one(sample_mean_y_of_sums, (marginal_x, marginal_y, joint_x, joint_y), model,
                "no observations contain a Y value")
