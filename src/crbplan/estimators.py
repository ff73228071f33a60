"""Mean estimators for data pooled from marginal and joint observations.

With the correlation and the X mean known, a joint observation can be
regression-adjusted: subtracting ``slope * (xbar - mu_x)`` with
``slope = rho * sigma_y / sigma_x`` removes the part of the Y noise explained
by X.  ``delta2`` applies that adjustment to joint data alone (the minimum
variance unbiased choice there); ``delta1`` additionally blends in the mean
of stand-alone Y observations with a fixed correlation-dependent weight.

Every estimator is one formula on a replication's statistics, sufficient
with the covariance known: the slot counts ``(n_x, n_y, n_xy)`` of the
marginal-X, marginal-Y and joint kinds and the sums of the strata
``(marginal_x, marginal_y, joint_x, joint_y)``, each row a number or an
array over replications, as :func:`crbplan.simulator.collect_replication`
returns them for one replication.  Each returns ``(estimate, usable)``,
the estimates and a mask of the replications whose strata allow one;
:data:`ESTIMATORS` pairs each with its variance given the counts.
:func:`crbplan.simulator.run` calls them once per block of replications,
all drawn together from the block's stream: the counts in one multinomial
draw, and each stratum sum from one standard normal scaled by the square
root of the stratum's count.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DegeneratePolicy
from .fisher import SamplingPolicy, Target
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


# Masks of the strata each estimator needs: plain operators, so counts and probabilities alike.
def _y_and_joint_seen(n_x, n_y, n_xy):
    return (n_y > 0) & (n_xy > 0)


def _joint_seen(n_x, n_y, n_xy):
    return n_xy > 0


def _x_seen(n_x, n_y, n_xy):
    return n_x + n_xy > 0


def _y_seen(n_x, n_y, n_xy):
    return n_y + n_xy > 0


def delta1(counts, sums, model: ObservationModel):
    """Blend the stand-alone Y mean ybar1 with the regression-adjusted joint
    means (xbar, ybar): ``((1 - rho^2) ybar1 + ybar - slope (xbar - mu_x)) /
    (2 - rho^2)``, usable where both groups are observed.  Centering at the
    known mu_x keeps it unbiased for any X mean; at mu_x = 0 it is the plain
    ``ybar - slope xbar`` adjustment."""
    _, ybar1, xbar, ybar = _means(counts, sums)
    rho2 = model.rho * model.rho
    value = ((1.0 - rho2) * ybar1 + ybar - _slope(model) * (xbar - model.mu_x)) / (2.0 - rho2)
    return value, _y_and_joint_seen(*counts[:3])


def var_delta1(policy: SamplingPolicy, model: ObservationModel) -> float:
    """Analytic per-sample variance of ``delta1``, normalized per Y-bearing
    (marginal-Y or joint) slot: :func:`analytic_variance` times ``p_y + p_xy``.

    Raises:
        DegeneratePolicy: p_y = 0 or p_xy = 0 (a stratum is empty almost surely).
    """
    variance = analytic_variance(EstimatorKind.DELTA1, Target.MU_Y, policy, model)
    if variance is None:
        raise DegeneratePolicy("delta1 requires p_y > 0 and p_xy > 0")
    return variance * (policy.p_y + policy.p_xy)


def delta2(counts, sums, model: ObservationModel):
    """Regression-adjusted joint mean ``ybar - slope (xbar - mu_x)``, usable
    where joint pairs are observed: the minimum-variance unbiased estimator
    of the Y mean from joint data alone, per-pair variance ``(1 - rho^2) var_y``."""
    _, _, xbar, ybar = _means(counts, sums)
    return ybar - _slope(model) * (xbar - model.mu_x), _joint_seen(*counts[:3])


def _pooled(counts, sums, kind: int, column: int):
    """Mean of every value of one coordinate: its stand-alone stratum
    (``kind``) and its joint column."""
    return (sums[kind] + sums[column]) / np.maximum(counts[kind] + counts[2], 1)


def sample_mean_x(counts, sums, model: ObservationModel):
    """Mean of every X value seen (stand-alone and joint); ``model`` is not
    read.  With :func:`sample_mean_y`, the maximum likelihood estimator when
    both means are unknown and the covariance structure is known."""
    return _pooled(counts, sums, 0, 2), _x_seen(*counts[:3])


def sample_mean_y(counts, sums, model: ObservationModel):
    """Mean of every Y value seen (stand-alone and joint); see :func:`sample_mean_x`."""
    return _pooled(counts, sums, 1, 3), _y_seen(*counts[:3])


def _delta1_variance(counts, model: ObservationModel):
    """``(1 - rho^2) var_y ((1 - rho^2) / n_y + 1 / n_xy) / (2 - rho^2)^2``."""
    rho2 = model.rho * model.rho
    shrink = 1.0 - rho2
    return shrink * model.var_y / (2.0 - rho2) ** 2 * (shrink / counts[1] + 1.0 / counts[2])


#: Each estimator's facts, once, by ``(kind, target)``: its formula on counts
#: and sums, the mask of the strata it needs (the formula returns it) and ``v``,
#: its variance given the counts ``(n_x, n_y, n_xy)``; ``v`` has degree -1, so
#: at a policy's probabilities it is the variance per slot as the slots grow.
ESTIMATORS = {
    (EstimatorKind.DELTA1, Target.MU_Y): (delta1, _y_and_joint_seen, _delta1_variance),
    (EstimatorKind.DELTA2, Target.MU_Y): (
        delta2, _joint_seen, lambda n, model: (1.0 - model.rho**2) * model.var_y / n[2]
    ),
    (EstimatorKind.SAMPLE_MEAN, Target.MU_X): (
        sample_mean_x, _x_seen, lambda n, model: model.var_x / (n[0] + n[2])
    ),
    (EstimatorKind.SAMPLE_MEAN, Target.MU_Y): (
        sample_mean_y, _y_seen, lambda n, model: model.var_y / (n[1] + n[2])
    ),
}


def analytic_variance(kind: EstimatorKind, target: Target, policy: SamplingPolicy,
                      model: ObservationModel) -> float | None:
    """The estimator's analytic variance per slot, ``v`` at the policy's
    probabilities; None where its mask fails at the policy's components."""
    return _variance_at(ESTIMATORS[kind, target], policy, model)


def _variance_at(entry, policy: SamplingPolicy, model: ObservationModel) -> float | None:
    """:func:`analytic_variance` of one :data:`ESTIMATORS` entry."""
    _, needs, variance = entry
    return variance(policy.as_tuple(), model) if needs(*policy.as_tuple()) else None
