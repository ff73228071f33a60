"""Bivariate Gaussian observation models.

Two sensors observe coordinates of a bivariate Gaussian: one sensor sees X,
the other sees Y.  A slot can produce a marginal observation (one coordinate),
a joint observation (both coordinates, drawn from the correlated pair), or
nothing (idle).  Model values are validated once, are immutable afterwards,
and are safe to share across threads; all randomness flows through an
explicit ``numpy.random.Generator`` so every draw is replayable from a seed.
:func:`replication_rng` defines the stream of each block of
:data:`REPLICATION_BLOCK` replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import CorrelationOutOfRange, NonPositiveVariance

# Every downstream formula divides by (1 - rho^2): fail fast at validation
# instead of propagating infinities.
RHO_LIMIT = 1.0 - 1e-9


class Axis(Enum):
    """Which coordinate a marginal observation measures."""

    X = "x"
    Y = "y"


class ObservationKind(Enum):
    """A slot's kind, in the one order of policies, costs and kind codes."""

    MARGINAL_X = "marginal_x"
    MARGINAL_Y = "marginal_y"
    JOINT = "joint"
    IDLE = "idle"


@dataclass(frozen=True)
class ObservationModel:
    """The five parameters of the bivariate Gaussian being sampled.

    Attributes:
        mu_x, mu_y: means of X and Y.
        var_x, var_y: variances of X and Y (strictly positive).
        rho: Pearson correlation, restricted to |rho| <= 1 - 1e-9.
    """

    mu_x: float
    mu_y: float
    var_x: float
    var_y: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("mu_x", "mu_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.var_x) and self.var_x > 0.0):
            raise NonPositiveVariance(f"var_x must be > 0, got {self.var_x}")
        if not (math.isfinite(self.var_y) and self.var_y > 0.0):
            raise NonPositiveVariance(f"var_y must be > 0, got {self.var_y}")
        if not (math.isfinite(self.rho) and abs(self.rho) <= RHO_LIMIT):
            raise CorrelationOutOfRange(
                f"|rho| must be <= {RHO_LIMIT!r}, got {self.rho}"
            )

    # once per model, outside the fields that equality and hashing read
    @cached_property
    def sigma_x(self) -> float:
        return math.sqrt(self.var_x)

    @cached_property
    def sigma_y(self) -> float:
        return math.sqrt(self.var_y)

    @cached_property
    def strata_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (4, 1) columns of the strata's means and deviations."""
        loc = np.array([[self.mu_x], [self.mu_y], [self.mu_x], [self.mu_y]])
        scale = np.array([[self.sigma_x], [self.sigma_y], [self.sigma_x], [self.sigma_y]])
        loc.flags.writeable = scale.flags.writeable = False
        return loc, scale


_MODEL_KEYS = ("mu_x", "mu_y", "var_x", "var_y", "rho")


def validate(params) -> ObservationModel:
    """Build a validated model from a raw five-parameter record.

    Accepts an existing :class:`ObservationModel` (returned unchanged, which
    makes validation idempotent), a mapping with keys exactly
    ``mu_x, mu_y, var_x, var_y, rho``, or a five-element sequence in that
    order.  Never clamps: out-of-range values raise.

    Raises:
        NonPositiveVariance: var_x or var_y is not strictly positive.
        CorrelationOutOfRange: |rho| > 1 - 1e-9.
    """
    if isinstance(params, ObservationModel):
        return params
    if isinstance(params, Mapping):
        missing = [k for k in _MODEL_KEYS if k not in params]
        if missing:
            raise ValueError(f"model config missing keys: {missing}")
        return ObservationModel(*(float(params[k]) for k in _MODEL_KEYS))
    values = tuple(params)
    if len(values) != 5:
        raise ValueError(f"expected 5 model parameters, got {len(values)}")
    return ObservationModel(*(float(v) for v in values))


def sample_joint(model: ObservationModel, rng: np.random.Generator, size=None):
    """Draw correlated (x, y) pairs.

    Uses the conditional (Cholesky) construction
    ``x = mu_x + sigma_x * z1`` and
    ``y = mu_y + sigma_y * (rho * z1 + sqrt(1 - rho^2) * z2)``
    with independent standard normals z1, z2, so draws are exact and
    branch-free.  Deterministic given the generator state.

    Args:
        size: ``None`` for a scalar pair, otherwise the number of pairs.

    Returns:
        ``(x, y)`` floats when size is None, else two length-``size`` arrays.
    """
    z1 = rng.standard_normal(size)
    z2 = rng.standard_normal(size)
    x, y = joint_from_normals(model, z1, z2)
    if size is None:
        return float(x), float(y)
    return x, y


def joint_from_normals(model: ObservationModel, z1, z2):
    """The (x, y) pairs that :func:`sample_joint` makes of normals z1, z2."""
    tail = math.sqrt(1.0 - model.rho * model.rho)
    x = model.mu_x + model.sigma_x * z1
    y = model.mu_y + model.sigma_y * (model.rho * z1 + tail * z2)
    return x, y


def sample_marginal(
    model: ObservationModel, axis: Axis, rng: np.random.Generator, size=None
):
    """Draw from the marginal N(mu_axis, var_axis); deterministic given seed."""
    value = marginal_from_normals(model, axis, rng.standard_normal(size))
    return float(value) if size is None else value


def marginal_from_normals(model: ObservationModel, axis: Axis, z):
    """The values that :func:`sample_marginal` makes of standard normals z."""
    if axis is Axis.X:
        return model.mu_x + model.sigma_x * z
    return model.mu_y + model.sigma_y * z


# Replications per stream: block b, replications [1024 b, 1024 (b + 1)), is
# drawn together from stream b (crbplan.simulator).
REPLICATION_BLOCK = 1024


def replication_rng(master_seed: int, block: int) -> np.random.Generator:
    """Generator for one block of :data:`REPLICATION_BLOCK` replications.

    Derived from (master seed, block index), so every block owns an
    independent stream and any split of whole blocks over workers reproduces
    the exact same draws.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, block)))
    )


GENERATOR_NAME = "pcg64"
