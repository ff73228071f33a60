"""Bivariate (and small-k multivariate) Gaussian observation models.

Two sensors observe coordinates of a bivariate Gaussian: one sensor sees X,
the other sees Y.  A slot can produce a marginal observation (one coordinate),
a joint observation (both coordinates, drawn from the correlated pair), or
nothing (idle).  Model values are validated once, are immutable afterwards,
and are safe to share across threads; all randomness flows through an
explicit ``numpy.random.Generator`` so every draw is replayable from a seed.
:func:`replication_rng` defines each replication's stream; ``run`` seeds
its streams in one vectorized pass (``_replication_rngs``), equal to
:func:`replication_rng`'s bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import CorrelationOutOfRange, NonPositiveVariance, SingularCovariance

# Every downstream formula divides by (1 - rho^2): fail fast at validation
# instead of propagating infinities.
RHO_LIMIT = 1.0 - 1e-9


class Axis(Enum):
    """Which coordinate a marginal observation measures."""

    X = "x"
    Y = "y"


class ObservationKind(Enum):
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

    @property
    def sigma_x(self) -> float:
        return math.sqrt(self.var_x)

    @property
    def sigma_y(self) -> float:
        return math.sqrt(self.var_y)

    @property
    def cov_xy(self) -> float:
        """Covariance implied by the correlation: rho * sigma_x * sigma_y."""
        return self.rho * self.sigma_x * self.sigma_y

    def covariance_matrix(self) -> np.ndarray:
        return np.array(
            [[self.var_x, self.cov_xy], [self.cov_xy, self.var_y]], dtype=float
        )


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


@dataclass(frozen=True)
class Observation:
    """One slot's outcome: which coordinates were measured and their values."""

    kind: ObservationKind
    x: float | None
    y: float | None
    slot: int

    def __post_init__(self) -> None:
        has_x, has_y = self.x is not None, self.y is not None
        expected = {
            ObservationKind.MARGINAL_X: (True, False),
            ObservationKind.MARGINAL_Y: (False, True),
            ObservationKind.JOINT: (True, True),
            ObservationKind.IDLE: (False, False),
        }[self.kind]
        if (has_x, has_y) != expected:
            raise ValueError(
                f"{self.kind.value} observation must have x/y presence {expected}"
            )
        if self.slot < 0:
            raise ValueError("slot index must be nonnegative")


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


class MultivariateModel:
    """A k-variate Gaussian given by mean vector and SPD covariance.

    The covariance must be symmetric to 1e-12 and positive definite
    (checked via Cholesky success at construction).
    """

    def __init__(self, mean, covariance) -> None:
        mean = np.array(mean, dtype=float, copy=True)
        covariance = np.array(covariance, dtype=float, copy=True)
        if mean.ndim != 1:
            raise ValueError("mean must be a 1-D vector")
        k = mean.shape[0]
        if covariance.shape != (k, k):
            raise ValueError(f"covariance must be {k}x{k}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(covariance)):
            raise ValueError("mean and covariance must be finite")
        if np.max(np.abs(covariance - covariance.T)) > 1e-12:
            raise SingularCovariance("covariance is not symmetric to 1e-12")
        try:
            chol = np.linalg.cholesky(covariance)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance(
                "covariance is not positive definite"
            ) from exc
        self.mean = mean
        self.mean.flags.writeable = False
        self.covariance = covariance
        self.covariance.flags.writeable = False
        self._chol = chol

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cholesky_factor(self) -> np.ndarray:
        return self._chol

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` vectors as mean + L z with L the Cholesky factor."""
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T


def replication_rng(master_seed: int, replication: int) -> np.random.Generator:
    """Generator for one simulation replication.

    Derived from (master seed, replication index) so concurrent replications
    own independent streams and any partitioning of replications across
    workers reproduces the exact same draws.  This is the reference
    definition; ``_replication_rngs`` seeds many of these streams at once.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, replication)))
    )


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): hashmix
# multiplies by the A sequence while mixing entropy into the pool and by the
# B sequence while generating output words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_WORD = 0xFFFFFFFF
_SEED_BLOCK = 1024  # replications seeded per vectorized pass


def _int_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads it: little-endian uint32 words, ``[0]`` for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _WORD]
    while n := n >> 32:
        words.append(n & _WORD)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, calls: int):
    """The xor and multiply constants of ``calls`` successive hashmix calls,
    as read-only uint32 columns: call i xors with constant i and multiplies
    by constant i + 1.  They depend only on the entropy length."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _WORD)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts[:-1], consts[1:]


def _hashmix(values, xor, mult):
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _pcg64_seed_words(master: list[int], start: int, stop: int) -> np.ndarray:
    """Row r - start is ``SeedSequence((master_seed, r)).generate_state(4,
    np.uint64)`` for each r in [start, stop), ``master`` the seed's words.

    [start, stop) lies between two multiples of 2**32, so its indices share
    their high words and every entropy tuple has the same length.  Each
    SeedSequence round then runs once over a (4, n) pool of uint32 arrays.
    """
    words = master + [start & _WORD] + (_int_words(start >> 32) if start >> 32 else [])
    entropy = np.zeros((max(len(words), 4), stop - start), np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(master)] += np.arange(stop - start, dtype=np.uint32)
    extra = len(words) - 4

    # mix_entropy: hash the first words into the 4-word pool, mix every pool
    # word into every other, then mix each remaining word into every pool word.
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(extra, 0))
    pool = _hashmix(entropy[:4], xor[:4], mult[:4])
    call = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _hashmix(pool[src], xor[call : call + 3], mult[call : call + 3])
        pool[dst] = _mix(pool[dst], mixed)
        call += 3
    for src in range(4, 4 + extra):
        mixed = _hashmix(entropy[src], xor[call : call + 4], mult[call : call + 4])
        pool = _mix(pool, mixed)
        call += 4

    # generate_state(4, np.uint64): eight uint32 words cycled from the pool,
    # paired little-endian into uint64s.
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 8)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mult).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | out[1::2] << np.uint64(32)).T)


class _SeedWords:
    """A seed sequence whose PCG64 seed words are already computed.

    :func:`_replication_rngs` registers it as numpy's ``ISeedSequence`` on
    use: importing ``numpy.random`` with this module would cost every
    import about 25 ms and 6 MB, which planning never needs.
    """

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words  # PCG64 asks for exactly these: 4 uint64 words


def _replication_rngs(master_seed: int, start: int, stop: int):
    """Yield ``replication_rng(master_seed, r)`` for r in [start, stop).

    The streams equal :func:`replication_rng`'s bit for bit, and any split
    of the replications into windows gives the same streams.  SeedSequence's
    words are computed for up to ``_SEED_BLOCK`` replications in one
    vectorized pass, so a stream costs one ``PCG64`` instead of a
    ``SeedSequence`` and a ``PCG64``.  A negative seed raises SeedSequence's
    ``ValueError`` before the first stream.
    """
    master = _int_words(master_seed)
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    while start < stop:
        # a block ends at the next multiple of 2**32, where indices gain a word
        end = min(stop, start + _SEED_BLOCK, ((start >> 32) + 1) << 32)
        for words in _pcg64_seed_words(master, start, end):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))
        start = end


GENERATOR_NAME = "pcg64"
