"""Fisher information, Cramer-Rao bounds, and a Monte Carlo score oracle.

Closed forms cover the three estimation tasks:

* t1 -- one unknown mean (Y), correlation known: scalar information
  ``p_y / var_y + p_xy / ((1 - rho^2) var_y)``.  Marginal X slots carry no
  information about the Y mean.
* t2 -- one unknown mean (Y) plus unknown correlation: diagonal 2x2 matrix;
  the correlation entry is ``p_xy (1 + rho^2) / (1 - rho^2)^2``.
* t3 -- both means unknown, everything else known: full symmetric 2x2 matrix
  with cross term ``-rho p_xy / ((1 - rho^2) sigma_x sigma_y)``.

Bounds are computed in standardized units, ``I = V^-1/2 J(rho, p) V^-1/2``
with ``V = diag(var_x, var_y)``, and multiplied by the target's variance
last, so they stay right at any variance whose bound is representable.

``empirical_fim`` estimates the same matrices from simulated data using
central finite differences of the exact log-density, so it never shares code
with the closed forms it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BoundOverflow, DegeneratePolicy, InvalidPolicy, SingularMatrix
from .model import ObservationModel, sample_joint

_POLICY_TOL = 1e-12
_CLAMP_TOL = 1e-9


class Task(Enum):
    """Estimation task: which model parameters are unknown."""

    T1 = "t1"  # mean of Y unknown; correlation known
    T2 = "t2"  # mean of Y and correlation unknown
    T3 = "t3"  # both means unknown


class Target(Enum):
    """Which unknown mean a bound or planner is evaluated for."""

    MU_X = "mu_x"
    MU_Y = "mu_y"


@dataclass(frozen=True)
class SamplingPolicy:
    """Per-slot probabilities of marginal-X, marginal-Y, and joint sampling.

    Each component lies in [0, 1] and p_x + p_y + p_xy <= 1; the remainder is
    the probability of an idle slot.
    """

    p_x: float = 0.0
    p_y: float = 0.0
    p_xy: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_x", "p_y", "p_xy"):
            v = getattr(self, name)
            if not (-_POLICY_TOL <= v <= 1.0 + _POLICY_TOL):
                raise InvalidPolicy(f"{name} must lie in [0, 1], got {v}")
        if self.p_x + self.p_y + self.p_xy > 1.0 + _POLICY_TOL:
            raise InvalidPolicy(
                f"p_x + p_y + p_xy must be <= 1, got {self.p_x + self.p_y + self.p_xy}"
            )

    @classmethod
    def clamped(cls, p_x: float, p_y: float, p_xy: float):
        """Snap solver output within 1e-9 of the bounds onto them.

        Violations beyond 1e-9 still raise: this is for cleaning up
        floating-point residue from optimizers, not for repairing bad input.
        """
        values = []
        for v in map(float, (p_x, p_y, p_xy)):
            if not -_CLAMP_TOL <= v <= 1.0 + _CLAMP_TOL:
                raise InvalidPolicy(f"component {v} outside [0, 1] by more than {_CLAMP_TOL}")
            values.append(min(1.0, max(0.0, v)))
        total = sum(values)
        if total > 1.0:
            if total > 1.0 + _CLAMP_TOL:
                raise InvalidPolicy(f"components sum to {total} > 1 by more than {_CLAMP_TOL}")
            values = [v / total for v in values]
        return cls(*values)

    @property
    def p_idle(self) -> float:
        return max(0.0, 1.0 - (self.p_x + self.p_y + self.p_xy))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_x, self.p_y, self.p_xy)


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 real matrix, used for information matrices and their inverses."""

    a11: float
    a12: float
    a21: float
    a22: float

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, d1: float, d2: float) -> "Matrix2":
        return cls(d1, 0.0, 0.0, d2)

    @classmethod
    def from_array(cls, a) -> "Matrix2":
        a = np.asarray(a, dtype=float)
        return cls(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=float)


def info_t1(policy: SamplingPolicy, model: ObservationModel) -> float:
    """Per-slot Fisher information about the Y mean (task t1).

    Marginal-Y slots contribute 1/var_y each, joint slots contribute
    1/((1 - rho^2) var_y), and marginal-X slots contribute nothing.
    """
    shrink = 1.0 - model.rho * model.rho
    return policy.p_y / model.var_y + policy.p_xy / (shrink * model.var_y)


def crb_t1(policy: SamplingPolicy, model: ObservationModel) -> float:
    """Per-slot Cramer-Rao bound on unbiased estimators of the Y mean.

    Equals ``var_y (1 - rho^2) / ((1 - rho^2) p_y + p_xy)``, the reciprocal
    of :func:`info_t1`, with the variance applied last.

    Raises:
        DegeneratePolicy: p_y = p_xy = 0, or so near it that the information
            about the Y mean underflows to 0.
        BoundOverflow: the information is positive but the bound, standardized
            or times var_y, is not representable.
    """
    shrink = 1.0 - model.rho * model.rho
    information = shrink * policy.p_y + policy.p_xy
    if not information > 0.0:
        raise DegeneratePolicy("p_y = p_xy = 0 yields no information about mu_y")
    standardized = shrink / information
    return _representable(model.var_y * standardized, model.var_y, standardized)


def _representable(bound: float, var: float, standardized: float) -> float:
    """``bound``, ``var`` applied to ``standardized`` at positive information;
    raises :class:`BoundOverflow` where that bound is not representable."""
    if bound == math.inf:
        raise BoundOverflow(
            f"bound overflows: variance {var:g} times standardized bound {standardized:g}"
            if standardized < math.inf
            else "bound overflows: the information is positive but too small to invert"
        )
    return bound


def fim_t2(policy: SamplingPolicy, model: ObservationModel) -> Matrix2:
    """Information matrix for (mu_y, rho) when both are unknown (task t2).

    Diagonal: the mean entry matches :func:`info_t1`; the correlation entry
    is fed only by joint slots, at (1 + rho^2) / (1 - rho^2)^2 per joint
    sample.  Without joint samples the correlation is unidentifiable and the
    matrix is singular.
    """
    rho2 = model.rho * model.rho
    shrink = 1.0 - rho2
    return Matrix2.diagonal(
        info_t1(policy, model), policy.p_xy * (1.0 + rho2) / (shrink * shrink)
    )


def fim_t3_entries(p_x, p_y, p_xy, rho: float):
    """The standardized (unit-variance) t3 information ``(i11, i22, cross)``.

    Joint slots couple the two means through the correlation; marginal slots
    feed only their own diagonal entry.  Plain operators only, so the same
    expressions serve floats and numpy arrays, bit for bit.
    """
    shrink = 1.0 - rho * rho
    joint = p_xy / shrink
    return p_x + joint, p_y + joint, -rho * p_xy / shrink


def fim_t3(policy: SamplingPolicy, model: ObservationModel) -> Matrix2:
    """Information matrix for (mu_x, mu_y) when both means are unknown (t3):
    the standardized entries divided by the variances."""
    i11, i22, cross = fim_t3_entries(policy.p_x, policy.p_y, policy.p_xy, model.rho)
    cross /= model.sigma_x * model.sigma_y
    return Matrix2(i11 / model.var_x, cross, cross, i22 / model.var_y)


def invert_2x2(m: Matrix2) -> Matrix2:
    """Invert via the adjugate; raises SingularMatrix when ``|det| <= 1e-14
    (|a11 a22| + |a12 a21|)``, a determinant lost to cancellation."""
    d = m.det
    if abs(d) <= 1e-14 * (abs(m.a11 * m.a22) + abs(m.a12 * m.a21)):
        raise SingularMatrix(f"determinant {d} is round-off of its terms")
    return Matrix2(m.a22 / d, -m.a12 / d, -m.a21 / d, m.a11 / d)


def crb_t3(policy: SamplingPolicy, model: ObservationModel, target: Target) -> float:
    """Per-slot bound on the requested mean when both means are unknown.

    The target's entry of the inverse of :func:`fim_t3`: its variance over
    the Schur complement ``J_own - J_cross^2 / J_other`` of the standardized
    matrix, which does not underflow for tiny policies as the determinant
    does.  Without joint slots the means decouple: ``var / J_own``.

    Raises:
        SingularMatrix: no information about the target mean at all (e.g.
            p_x = p_xy = 0 with target MU_X).
        BoundOverflow: ``schur`` is positive but ``1 / schur`` or the
            variance over it is not representable.
    """
    i11, i22, cross = fim_t3_entries(policy.p_x, policy.p_y, policy.p_xy, model.rho)
    on_x = target is Target.MU_X
    own, other, var = (i11, i22, model.var_x) if on_x else (i22, i11, model.var_y)
    schur = own - cross * (cross / other) if other > 0.0 else own
    if not schur > 0.0:
        raise SingularMatrix(f"no slot type observes the {target.value} coordinate")
    return _representable(var / schur, var, 1.0 / schur)


def crb(task: Task, target: Target, policy: SamplingPolicy, model: ObservationModel) -> float:
    """The task's per-slot bound on ``target`` at ``policy``; inf where none exists.

    Tasks t1 and t2 bound the Y mean (:func:`crb_t1`, ``target`` unused) and
    t3 the target mean (:func:`crb_t3`); where those raise because the policy
    carries no information about the mean, this returns ``math.inf``.  A
    :class:`BoundOverflow` passes through: that bound exists but is not
    representable.
    """
    try:
        if task is Task.T3:
            return crb_t3(policy, model, target)
        return crb_t1(policy, model)
    except (DegeneratePolicy, SingularMatrix):
        return math.inf


# ---------------------------------------------------------------------------
# Monte Carlo score oracle
# ---------------------------------------------------------------------------

_FD_STEP = 1e-5


def _normal_logpdf(v, mu, var):
    return -0.5 * (math.log(2.0 * math.pi * var) + (v - mu) ** 2 / var)


def _bivariate_logpdf(x, y, mu_x, mu_y, var_x, var_y, rho):
    shrink = 1.0 - rho * rho
    u = (x - mu_x) / math.sqrt(var_x)
    w = (y - mu_y) / math.sqrt(var_y)
    quad = (u * u - 2.0 * rho * u * w + w * w) / shrink
    norm = math.log(2.0 * math.pi) + 0.5 * math.log(var_x * var_y * shrink)
    return -norm - 0.5 * quad


def _theta_to_params(task: Task, model: ObservationModel, theta):
    """Map the task's unknown-parameter vector onto the five model params."""
    mu_x, mu_y, rho = model.mu_x, model.mu_y, model.rho
    if task is Task.T1:
        mu_y = theta[0]
    elif task is Task.T2:
        mu_y, rho = theta[0], theta[1]
    else:
        mu_x, mu_y = theta[0], theta[1]
    return mu_x, mu_y, rho


def empirical_fim_with_stderr(
    model: ObservationModel,
    policy: SamplingPolicy,
    task: Task,
    n: int,
    rng: np.random.Generator,
) -> tuple[Matrix2, Matrix2]:
    """Monte Carlo information matrix plus entrywise standard errors.

    Simulates ``n`` slots from the policy mixture (idle slots score zero),
    differentiates the exact per-slot log-density in the task's unknown
    parameters by central finite differences (step 1e-5), and averages the
    outer product of the score.  Entirely independent of the closed-form
    expressions, which makes it usable as their validation oracle.

    For t1 the information is scalar and returned in the (1,1) entry with
    zeros elsewhere.

    Raises:
        ValueError: n < 10^4 (too noisy to be a useful oracle), or a t2 call
            whose correlation sits too close to +-1 for the finite-difference
            perturbation to stay inside the open interval.
    """
    if n < 10_000:
        raise ValueError(f"oracle needs n >= 1e4 slots, got {n}")
    if task is Task.T2 and abs(model.rho) >= 1.0 - 2.0 * _FD_STEP:
        raise ValueError("t2 oracle requires |rho| < 1 - 2e-5 to perturb rho")

    u = rng.random(n)
    edge_x = policy.p_x
    edge_y = policy.p_x + policy.p_y
    edge_j = policy.p_x + policy.p_y + policy.p_xy
    is_x = u < edge_x
    is_y = (u >= edge_x) & (u < edge_y)
    is_j = (u >= edge_y) & (u < edge_j)

    x = np.zeros(n)
    y = np.zeros(n)
    n_x, n_y, n_j = int(is_x.sum()), int(is_y.sum()), int(is_j.sum())
    x[is_x] = model.mu_x + model.sigma_x * rng.standard_normal(n_x)
    y[is_y] = model.mu_y + model.sigma_y * rng.standard_normal(n_y)
    jx, jy = sample_joint(model, rng, size=n_j)
    x[is_j], y[is_j] = jx, jy

    def total_logpdf(theta):
        mu_x, mu_y, rho = _theta_to_params(task, model, theta)
        out = np.zeros(n)
        out[is_x] = _normal_logpdf(x[is_x], mu_x, model.var_x)
        out[is_y] = _normal_logpdf(y[is_y], mu_y, model.var_y)
        out[is_j] = _bivariate_logpdf(
            x[is_j], y[is_j], mu_x, mu_y, model.var_x, model.var_y, rho
        )
        return out

    theta0 = {Task.T1: [model.mu_y], Task.T2: [model.mu_y, model.rho],
              Task.T3: [model.mu_x, model.mu_y]}[task]
    dim = len(theta0)

    scores = np.zeros((dim, n))
    for j in range(dim):
        hi = list(theta0)
        lo = list(theta0)
        hi[j] += _FD_STEP
        lo[j] -= _FD_STEP
        scores[j] = (total_logpdf(hi) - total_logpdf(lo)) / (2.0 * _FD_STEP)

    mean = np.zeros((2, 2))
    stderr = np.zeros((2, 2))
    for i in range(dim):
        for j in range(dim):
            prod = scores[i] * scores[j]
            mean[i, j] = prod.mean()
            stderr[i, j] = prod.std(ddof=1) / math.sqrt(n)
    return Matrix2.from_array(mean), Matrix2.from_array(stderr)


def empirical_fim(
    model: ObservationModel,
    policy: SamplingPolicy,
    task: Task,
    n: int,
    rng: np.random.Generator,
) -> Matrix2:
    """Monte Carlo estimate of the task's information matrix.

    See :func:`empirical_fim_with_stderr` for the construction; this variant
    drops the standard errors.
    """
    fim, _ = empirical_fim_with_stderr(model, policy, task, n, rng)
    return fim
