"""Fisher information, Cramer-Rao bounds, and a Monte Carlo score oracle.

Closed forms, one 2x2 array per task from :func:`fim`:

* t1 -- one unknown mean (Y), correlation known: scalar information
  ``p_y / var_y + p_xy / ((1 - rho^2) var_y)`` in entry (0, 0).  Marginal X
  slots carry no information about the Y mean.
* t2 -- one unknown mean (Y) plus unknown correlation: diagonal 2x2 matrix;
  the correlation entry is ``p_xy (1 + rho^2) / (1 - rho^2)^2``.
* t3 -- both means unknown, everything else known: full symmetric 2x2 matrix
  with cross term ``-rho p_xy / ((1 - rho^2) sigma_x sigma_y)``.

Bounds are computed in standardized units, ``I = V^-1/2 J(rho, p) V^-1/2``
with ``V = diag(var_x, var_y)``, and multiplied by the target's variance
last, so they stay right at any variance whose bound is representable.

``empirical_fim_with_stderr`` estimates the same matrices from simulated
data using central finite differences of the exact log-density, so it never
shares code with the closed forms it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BoundOverflow, DegeneratePolicy, InvalidPolicy, SingularMatrix
from .model import ObservationModel, sample_joint

_POLICY_TOL = 1e-12


class Task(Enum):
    """Estimation task: which model parameters are unknown."""

    T1 = "t1"  # mean of Y unknown; correlation known
    T2 = "t2"  # mean of Y and correlation unknown
    T3 = "t3"  # both means unknown


class Target(Enum):
    """Which unknown mean a bound or planner is evaluated for."""

    MU_X = "mu_x"
    MU_Y = "mu_y"


def _in_unit(v):
    """A policy component's range check; plain operators, so floats and
    numpy arrays alike (nan fails)."""
    return (-_POLICY_TOL <= v) & (v <= 1.0 + _POLICY_TOL)


def policy_mask(p_x, p_y, p_xy):
    """:class:`SamplingPolicy`'s checks over arrays of components."""
    return _in_unit(p_x) & _in_unit(p_y) & _in_unit(p_xy) & (p_x + p_y + p_xy <= 1.0 + _POLICY_TOL)


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
            if not _in_unit(v):
                raise InvalidPolicy(f"{name} must lie in [0, 1], got {v}")
        if self.p_x + self.p_y + self.p_xy > 1.0 + _POLICY_TOL:
            raise InvalidPolicy(
                f"p_x + p_y + p_xy must be <= 1, got {self.p_x + self.p_y + self.p_xy}"
            )

    @classmethod
    def clamped(cls, p_x: float, p_y: float, p_xy: float):
        """Snap solver output onto [0, 1] and the simplex: clip each
        component, then rescale a sum above 1.

        The slack is the simplex row's under the one feasibility rule
        (:func:`crbplan.strategy._limit`), ``1e-9 (1 + sum |p|)``, so every
        point the planners' feasibility test admits snaps.  Input off by more
        still raises: this cleans up floating-point residue from optimizers,
        it does not repair bad input.
        """
        given = (float(p_x), float(p_y), float(p_xy))
        slack = 1e-9 * (1.0 + (abs(given[0]) + abs(given[1]) + abs(given[2])))
        values = []
        for v in given:
            if not -slack <= v <= 1.0 + slack:
                raise InvalidPolicy(f"component {v} outside [0, 1] by more than {slack:g}")
            values.append(min(1.0, max(0.0, v)))
        total = sum(values)
        if total > 1.0:
            if total > 1.0 + slack:
                raise InvalidPolicy(f"components sum to {total} > 1 by more than {slack:g}")
            values = [v / total for v in values]
        return cls(*values)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_x, self.p_y, self.p_xy)


def fim_t3_entries(p_x, p_y, p_xy, rho: float):
    """The standardized (unit-variance) t3 information ``(i11, i22, cross)``.

    Joint slots couple the two means through the correlation; marginal slots
    feed only their own diagonal entry.  Plain operators only, so the same
    expressions serve floats and numpy arrays, bit for bit.
    """
    shrink = 1.0 - rho * rho
    joint = p_xy / shrink
    return p_x + joint, p_y + joint, -rho * p_xy / shrink


def fim(task: Task, policy: SamplingPolicy, model: ObservationModel) -> np.ndarray:
    """The task's per-slot Fisher information matrix, 2x2, in natural units.

    * t1 -- the Y mean alone, in entry (0, 0), every other entry 0 (the
      score oracle's layout): marginal-Y slots contribute 1/var_y each, joint
      slots 1/((1 - rho^2) var_y), marginal-X slots nothing.
    * t2 -- (mu_y, rho): diagonal, the mean entry t1's and the correlation
      entry fed only by joint slots, at (1 + rho^2) / (1 - rho^2)^2 each.
      Without joint slots the correlation is unidentifiable and the matrix
      singular.
    * t3 -- (mu_x, mu_y): :func:`fim_t3_entries` divided by the variances.
    """
    rho2 = model.rho * model.rho
    shrink = 1.0 - rho2
    if task is Task.T3:
        i11, i22, cross = fim_t3_entries(policy.p_x, policy.p_y, policy.p_xy, model.rho)
        cross /= model.sigma_x * model.sigma_y
        return np.array([[i11 / model.var_x, cross], [cross, i22 / model.var_y]])
    mean = policy.p_y / model.var_y + policy.p_xy / (shrink * model.var_y)
    rho_entry = policy.p_xy * (1.0 + rho2) / (shrink * shrink) if task is Task.T2 else 0.0
    return np.array([[mean, 0.0], [0.0, rho_entry]])


def crb_t1(policy: SamplingPolicy, model: ObservationModel) -> float:
    """Per-slot Cramer-Rao bound on unbiased estimators of the Y mean.

    Equals ``var_y (1 - rho^2) / ((1 - rho^2) p_y + p_xy)``, the reciprocal
    of :func:`fim`'s t1 entry, with the variance applied last.

    Raises:
        DegeneratePolicy: p_y = p_xy = 0: no information about the Y mean.
        BoundOverflow: the information is positive but the bound, standardized
            or times var_y, is not representable (also where a subnormal
            policy's information underflows to 0).
    """
    shrink = 1.0 - model.rho * model.rho
    information = shrink * policy.p_y + policy.p_xy
    if not information > 0.0 and not _t1_informative(policy.p_y, policy.p_xy, information):
        raise DegeneratePolicy("p_y = p_xy = 0 yields no information about mu_y")
    standardized = shrink / information if information > 0.0 else math.inf
    bound = model.var_y * standardized
    if standardized == math.inf and information > 0.0:  # the variance may bring it back
        bound = (model.var_y * shrink) / information
    return _representable(bound, model.var_y, standardized)


def _t1_informative(p_y, p_xy, information):
    """Whether the t1 information is positive: computed so, or nonnegative
    components of which one is positive (the product underflows for
    subnormal ones).  Plain operators: floats and numpy arrays alike."""
    return (information > 0.0) | ((p_y >= 0.0) & (p_xy >= 0.0) & (p_y + p_xy > 0.0))


TOO_SMALL = "bound overflows: the information is positive but too small to invert"


def _representable(bound: float, var: float, standardized: float) -> float:
    """``bound``, ``var`` applied to ``standardized`` at positive information;
    raises :class:`BoundOverflow` where that bound is not representable."""
    if bound == math.inf:
        raise BoundOverflow(
            f"bound overflows: variance {var:g} times standardized bound {standardized:g}"
            if standardized < math.inf
            else TOO_SMALL
        )
    return bound


def crb_t3(policy: SamplingPolicy, model: ObservationModel, target: Target) -> float:
    """Per-slot bound on the requested mean when both means are unknown.

    The target's entry of the inverse of :func:`fim`: its variance over
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


def _t3_schur(p_x, p_y, p_xy, rho, on_x: bool):
    """The Schur complement of :func:`crb_t3` over arrays, for the target
    mu_x if ``on_x`` and mu_y otherwise, and the standardized bound
    ``1 / schur``, inf where ``schur`` is not positive: :func:`crb_t3` at
    unit variances, bit for bit."""
    i11, i22, cross = fim_t3_entries(p_x, p_y, p_xy, rho)
    own, other = (i11, i22) if on_x else (i22, i11)
    with np.errstate(all="ignore"):  # 1/tiny is inf, as Python's float division gives
        schur = np.where(other > 0.0, own - cross * (cross / other), own)
        return schur, np.where(schur > 0.0, 1.0 / schur, math.inf)


def crb_array(task: Task, target: Target, p_x, p_y, p_xy, rho, var_x=1.0, var_y=1.0):
    """:func:`crb` over arrays of policies, bit for bit: ``rho`` and the
    variances may be arrays too, and a row without information reads inf.

    Raises:
        BoundOverflow: at the first row whose information is positive but
            whose bound is not representable, with :func:`crb`'s message.
    """
    var = var_x if task is Task.T3 and target is Target.MU_X else var_y
    with np.errstate(all="ignore"):  # 1/tiny is inf, as Python's float division gives
        if task is Task.T3:
            schur, standardized = _t3_schur(p_x, p_y, p_xy, rho, target is Target.MU_X)
            informative, bound = schur > 0.0, var / schur
        else:
            shrink = 1.0 - rho * rho
            information = shrink * p_y + p_xy
            informative = _t1_informative(p_y, p_xy, information)
            standardized = np.where(information > 0.0, shrink / information, math.inf)
            late = (standardized == math.inf) & (information > 0.0)  # as crb_t1
            bound = np.where(late, (var * shrink) / information, var * standardized)
    over = informative & (bound == math.inf)
    if over.any():
        i = int(np.argmax(over))
        _representable(math.inf, float(np.broadcast_to(var, over.shape)[i]), float(standardized[i]))
    return np.where(informative, bound, math.inf)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo information matrix plus entrywise standard errors.

    Simulates ``n`` slots from the policy mixture (idle slots score zero),
    differentiates the exact per-slot log-density in the task's unknown
    parameters by central finite differences (step 1e-5), and averages the
    outer product of the score.  Entirely independent of the closed-form
    expressions, which makes it usable as their validation oracle.

    For t1 the information is scalar and returned in entry (0, 0) with
    zeros elsewhere, as :func:`fim` does.

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

    prod = scores[:, None] * scores[None]
    mean, stderr = np.zeros((2, 2, 2))
    mean[:dim, :dim] = prod.mean(axis=-1)
    stderr[:dim, :dim] = prod.std(axis=-1, ddof=1) / math.sqrt(n)
    return mean, stderr
