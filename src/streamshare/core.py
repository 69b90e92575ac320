"""Instances and payment vectors.

An instance is a dense nonnegative matrix of streaming weights (one row per
user, one column per artist) together with the subscription share ``alpha``
that the platform pays out per user. A payment vector assigns each artist a
nonnegative amount; every division rule in this package emits payments summing
to ``alpha * n_users``.

All user and artist indices are 0-based.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# |sum(payments) - alpha * n| must stay below this for every rule.
BUDGET_TOL = 1e-9
# Emitted payments within this of zero are clamped to exactly zero.
CLAMP_TOL = 1e-12


class InstanceError(ValueError):
    """A weight matrix or alpha that violates the input contract."""


class ZeroRowError(InstanceError):
    """Some user streams nothing at all."""

    def __init__(self, user: int):
        self.user = user
        super().__init__(f"user {user} has an all-zero row")


class NegativeWeightError(InstanceError):
    """Some streaming weight is negative."""

    def __init__(self, user: int, artist: int):
        self.user = user
        self.artist = artist
        super().__init__(f"negative weight at user {user}, artist {artist}")


class BadAlphaError(InstanceError):
    """alpha outside (0, 1]."""


class DimensionError(InstanceError):
    """Empty or non-2D weight data, or mismatched shapes."""


@dataclass(frozen=True)
class Instance:
    """A streaming scenario: weights[i, j] is user i's engagement with artist j.

    The weight array is copied and frozen on construction, except a frozen
    float64 matrix that owns its memory: freezing it hands it over, and it
    is kept as it is, so :func:`with_alpha` and every other instance built
    on an instance's weights share them. Use
    :func:`add_user` / :func:`replace_user` to derive modified instances.
    Construction only coerces shape and dtype. Call :func:`validate` to check
    the full input contract.
    """

    weights: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        w = self.weights
        if not (
            type(w) is np.ndarray
            and not w.flags.writeable
            and w.flags.owndata
            and w.dtype == np.float64
        ):
            w = np.array(w, dtype=float)
            w.setflags(write=False)
        if w.ndim != 2:
            raise DimensionError(f"weights must be 2-D, got ndim={w.ndim}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def n_users(self) -> int:
        return self.weights.shape[0]

    @property
    def n_artists(self) -> int:
        return self.weights.shape[1]

    @property
    def budget(self) -> float:
        """Total amount the platform divides: alpha per subscribed user."""
        return self.alpha * self.n_users

    def user_totals(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def artist_totals(self) -> np.ndarray:
        return self.weights.sum(axis=0)


def validate(instance: Instance) -> None:
    """Raise the first violated input invariant, or return quietly.

    Checked in order: dimensions, finiteness, alpha, negative weights, zero rows.
    The matrix is read twice, for its row sums and its minimum: a NaN or
    infinite weight makes its row's sum NaN or infinite, so the weights
    themselves are tested only when some row sum is (a finite row may also
    overflow).
    """
    w = instance.weights
    if w.shape[0] == 0 or w.shape[1] == 0:
        raise DimensionError(f"weights must be nonempty, got shape {w.shape}")
    row_sums = w.sum(axis=1)
    if not np.isfinite(row_sums).all() and not np.isfinite(w).all():
        raise InstanceError("weights must be finite")
    if not 0.0 < instance.alpha <= 1.0:
        raise BadAlphaError(f"alpha must be in (0, 1], got {instance.alpha}")
    if w.min() < 0:
        i, j = np.argwhere(w < 0)[0]
        raise NegativeWeightError(int(i), int(j))
    if row_sums.min() == 0:
        raise ZeroRowError(int(np.flatnonzero(row_sums == 0)[0]))


def finalize_payments(payments: np.ndarray) -> np.ndarray:
    """Clamp float dust (|v| < 1e-12) to exactly zero on an emitted vector."""
    p = np.array(payments, dtype=float)
    p[np.abs(p) < CLAMP_TOL] = 0.0
    return p


def whole(value, error: type, what: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int in [low, high) (no upper end when ``high`` is
    None); one outside it, or one ``operator.index`` refuses (a float, a
    string), raises ``error``."""
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or out < low or (high is not None and out >= high):
        span = f"be >= {low}" if high is None else f"lie in [{low}, {high - 1}]"
        raise error(f"{what} must {span} and be whole, got {value!r}")
    return out


def index_set(indices, error: type, what: str, size: int) -> list[int]:
    """The distinct ``indices``, sorted; one that :func:`whole` refuses for
    [0, size) raises ``error`` naming ``what``."""
    return sorted({whole(i, error, what, 0, size) for i in indices})


def first_max(values: np.ndarray) -> int:
    """The index a running strict ``>`` scan keeps (as ``max`` does): the
    earliest maximum, where NaN never wins unless it comes first."""
    if np.isnan(values[0]):
        return 0
    return int(np.argmax(np.where(np.isnan(values), -np.inf, values)))


def subset_payment(payments: np.ndarray, artists) -> float:
    """Total payment received by a set of artists."""
    p = np.asarray(payments, dtype=float)
    return float(p[index_set(artists, DimensionError, "artist index", p.shape[0])].sum())


def add_user(instance: Instance, profile) -> Instance:
    """Return a new instance with one extra user row appended."""
    row = np.asarray(profile, dtype=float).reshape(-1)
    if row.shape[0] != instance.n_artists:
        raise DimensionError(
            f"profile has {row.shape[0]} entries, instance has {instance.n_artists} artists"
        )
    return Instance(np.vstack([instance.weights, row[None, :]]), instance.alpha)


def replace_user(instance: Instance, user: int, profile) -> Instance:
    """Return a new instance with one user's row replaced."""
    user = whole(user, DimensionError, "user index", 0, instance.n_users)
    row = np.asarray(profile, dtype=float).reshape(-1)
    if row.shape[0] != instance.n_artists:
        raise DimensionError(
            f"profile has {row.shape[0]} entries, instance has {instance.n_artists} artists"
        )
    w = instance.weights.copy()
    w[user] = row
    return Instance(w, instance.alpha)


def with_alpha(instance: Instance, alpha: float) -> Instance:
    """Same weights, different subscription share."""
    return Instance(instance.weights, alpha)
