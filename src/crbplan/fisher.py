"""Fisher information, Cramer-Rao bounds, and a Monte Carlo score oracle.

One function, :func:`information`, is the standardized information about
the target mean for every task: the target's own entry ``p_target + p_xy /
(1 - rho^2)`` where the other mean is known (t1, and t2, whose matrix is
diagonal), its Schur complement where it is not (t3).  :func:`crb`,
:func:`crb_array`, :func:`fim`'s mean entries and the planners' rankings
all read it.  A bound is the target's variance over it, applied last, so it
stays right at any variance where it is representable.

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

class Task(Enum):
    """Estimation task: which model parameters are unknown."""

    T1 = "t1"  # mean of Y unknown; correlation known
    T2 = "t2"  # mean of Y and correlation unknown
    T3 = "t3"  # both means unknown


class Target(Enum):
    """Which unknown mean a bound or planner is evaluated for."""

    MU_X = "mu_x"
    MU_Y = "mu_y"


def _limit(bound, abs_load):
    """The one feasibility rule: a row ``c.p <= b`` holds at ``p`` when
    ``c.p <= b + 1e-9 (|b| + |c|.|p|)``, a componentwise backward-error test
    (Oettli and Prager): moving each coefficient and the bound by 1e-9 of
    itself makes the row hold.  A zero or tiny bound then admits rounding of
    the load only, at every scale of alpha.  Plain operators: floats and
    numpy arrays alike."""
    return bound + 1e-9 * (abs(bound) + abs_load)


def policy_mask(p_x, p_y, p_xy):
    """Whether ``(p_x, p_y, p_xy)`` is a policy: no nan or inf, and the three
    nonnegativity rows and the simplex row that open every constraint
    system hold under :func:`_limit`, that is every component ``>= 0``
    (``-0.0`` too) and ``p_x + p_y + p_xy <= 1 + 1e-9 (1 + p_x + p_y +
    p_xy)``.  Plain operators: floats and numpy arrays alike."""
    total = p_x + p_y + p_xy
    signs = (p_x >= 0.0) & (p_y >= 0.0) & (p_xy >= 0.0)  # false at nan
    return signs & (total <= _limit(1.0, total)) & (total < math.inf)


@dataclass(frozen=True)
class SamplingPolicy:
    """Per-slot probabilities of marginal-X, marginal-Y, and joint sampling.

    A policy is what :func:`policy_mask` admits; what its sum leaves of 1 is
    the probability of an idle slot.
    """

    p_x: float = 0.0
    p_y: float = 0.0
    p_xy: float = 0.0

    def __post_init__(self) -> None:
        if not policy_mask(self.p_x, self.p_y, self.p_xy):
            p = self.as_tuple()
            for name, v in zip(("p_x", "p_y", "p_xy"), p):
                if not 0.0 <= v < math.inf:
                    raise InvalidPolicy(f"{name} must be finite and >= 0, got {v}")
            raise InvalidPolicy(f"p_x + p_y + p_xy must be <= 1, got {p[0] + p[1] + p[2]}")

    @classmethod
    def clamped(cls, p_x: float, p_y: float, p_xy: float):
        """Snap solver output onto [0, 1] and the simplex: clip each
        component, then rescale a sum above 1.

        The slack is the simplex row's under the one feasibility rule
        (:func:`_limit`), ``1e-9 (1 + sum |p|)``, so every
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


def information(p_x, p_y, p_xy, rho, on_x: bool, known: bool):
    """The standardized (unit-variance) information about the target mean,
    mu_x if ``on_x`` and mu_y otherwise, with ``joint = p_xy / (1 - rho^2)``:
    ``p_target + joint`` if the other mean is ``known``, else the Schur
    complement ``p_target + joint (p_other + p_xy) / (p_other + joint)``.  On
    a policy's terms, all >= 0, it neither cancels as ``|rho|`` nears 1 nor
    underflows where the result does not; at ``p_xy = 0`` the divisor gains
    1.  Plain operators: floats and numpy arrays agree bit for bit."""
    joint = p_xy / (1.0 - rho * rho)
    own = p_x if on_x else p_y
    if known:
        return own + joint
    other = p_y if on_x else p_x
    return own + joint * ((other + p_xy) / (other + joint + (p_xy == 0.0)))


def fim(task: Task, policy: SamplingPolicy, model: ObservationModel) -> np.ndarray:
    """The task's per-slot Fisher information matrix, 2x2, in natural units:
    each mean's entry is its :func:`information` with the other mean known,
    over its variance.

    * t1 -- the Y mean alone, in entry (0, 0), every other entry 0 (the
      score oracle's layout).
    * t2 -- (mu_y, rho): diagonal, the correlation entry fed only by joint
      slots, at (1 + rho^2) / (1 - rho^2)^2 each: singular without them.
    * t3 -- (mu_x, mu_y), cross term ``-rho p_xy / ((1 - rho^2) sigma_x sigma_y)``.
    """
    p, rho = policy.as_tuple(), model.rho
    shrink = 1.0 - rho * rho
    mean_y = information(*p, rho, False, True) / model.var_y
    if task is Task.T3:
        cross = -rho * policy.p_xy / shrink / (model.sigma_x * model.sigma_y)
        return np.array([[information(*p, rho, True, True) / model.var_x, cross], [cross, mean_y]])
    rho_entry = policy.p_xy * (1.0 + rho * rho) / (shrink * shrink) if task is Task.T2 else 0.0
    return np.array([[mean_y, 0.0], [0.0, rho_entry]])


TOO_SMALL = "bound overflows: the information is positive but too small to invert"


def _overflow(var: float, info: float) -> BoundOverflow:
    """The error of a bound ``var / info`` that is not representable at
    positive information."""
    standardized = 1.0 / info
    return BoundOverflow(
        f"bound overflows: variance {var:g} times standardized bound {standardized:g}"
        if standardized < math.inf
        else TOO_SMALL
    )


def crb(task: Task, target: Target, policy: SamplingPolicy, model: ObservationModel) -> float:
    """The task's per-slot bound on ``target`` at ``policy``, the variance
    over its :func:`information`; inf where there is none.  Tasks t1 and t2
    bound the Y mean (``target`` unused).  A :class:`BoundOverflow` passes
    through: that bound exists but is not representable.
    """
    t3 = task is Task.T3
    on_x = t3 and target is Target.MU_X
    info = information(policy.p_x, policy.p_y, policy.p_xy, model.rho, on_x, not t3)
    if not info > 0.0:
        return math.inf
    var = model.var_x if on_x else model.var_y
    bound = var / info
    if bound == math.inf:
        raise _overflow(var, info)
    return bound


def crb_t1(policy: SamplingPolicy, model: ObservationModel) -> float:
    """:func:`crb` in t1: ``var_y / (p_y + p_xy / (1 - rho^2))``.

    Raises:
        DegeneratePolicy: p_y = p_xy = 0: no information about the Y mean.
        BoundOverflow: as :func:`crb`.
    """
    bound = crb(Task.T1, Target.MU_Y, policy, model)
    if bound == math.inf:
        raise DegeneratePolicy("p_y = p_xy = 0 yields no information about mu_y")
    return bound


def crb_t3(policy: SamplingPolicy, model: ObservationModel, target: Target) -> float:
    """:func:`crb` in t3: the target's entry of the inverse of :func:`fim`.

    Raises:
        SingularMatrix: no information about the target mean (e.g. p_x =
            p_xy = 0 with target MU_X).
        BoundOverflow: as :func:`crb`.
    """
    bound = crb(Task.T3, target, policy, model)
    if bound == math.inf:
        raise SingularMatrix(f"no slot type observes the {target.value} coordinate")
    return bound


def crb_array(task: Task, target: Target, p_x, p_y, p_xy, rho, var_x=1.0, var_y=1.0):
    """:func:`crb` over arrays of policies, bit for bit: ``rho`` and the
    variances may be arrays too, and a row without information reads inf.

    Raises:
        BoundOverflow: at the first row whose information is positive but
            whose bound is not representable, with :func:`crb`'s message.
    """
    t3 = task is Task.T3
    on_x = t3 and target is Target.MU_X
    info = information(p_x, p_y, p_xy, rho, on_x, not t3)
    var = var_x if on_x else var_y
    with np.errstate(all="ignore"):  # var/tiny is inf, as Python's float division gives
        bound = var / info
    informative = info > 0.0
    over = informative & (bound == math.inf)
    if over.any():
        i = int(np.argmax(over))
        raise _overflow(*(float(np.broadcast_to(v, over.shape).flat[i]) for v in (var, info)))
    return np.where(informative, bound, math.inf)


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
