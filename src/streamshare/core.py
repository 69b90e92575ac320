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


class _Facts:
    """The record of what one weight matrix determines: see :class:`Instance`."""

    user_totals = artist_totals = nonzero = None
    valid = False


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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

    Each instance holds one record of what its weights determine: the
    totals, the nonzero view (:meth:`nonzero`) and :func:`validate`'s pass
    of the weights, each found on first use and then kept, read-only; no
    lock is taken on the small instances validated by the thousand.
    :func:`with_alpha` gives its instance the same record, so a fact found
    on either serves both; :func:`add_user` and :func:`replace_user`, whose
    weights differ, start a fresh one.
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
            w = _frozen(np.array(w, dtype=float))
        if w.ndim != 2:
            raise DimensionError(f"weights must be 2-D, got ndim={w.ndim}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "_facts", _Facts())

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
        """``weights.sum(axis=1)``, summed once; every call returns that read-only array."""
        facts = self._facts
        if facts.user_totals is None:
            facts.user_totals = _frozen(self.weights.sum(axis=1))
        return facts.user_totals

    def artist_totals(self) -> np.ndarray:
        """``weights.sum(axis=0)``, summed once; every call returns that read-only array."""
        facts = self._facts
        if facts.artist_totals is None:
            facts.artist_totals = _frozen(self.weights.sum(axis=0))
        return facts.artist_totals

    def nonzero(self) -> tuple:
        """``np.nonzero(weights)``: the rows and columns of the nonzero weights,
        in row-major order, as read-only arrays, found by one flat scan of the
        matrix on the first call; every call returns that same tuple."""
        facts = self._facts
        if facts.nonzero is None:
            at = np.flatnonzero(self.weights.ravel() != 0)  # faster than np.nonzero
            facts.nonzero = tuple(map(_frozen, np.divmod(at, self.n_artists)))
        return facts.nonzero


def validate(instance: Instance) -> None:
    """Raise the first violated input invariant, or return quietly.

    Checked in order: dimensions, finiteness, alpha, negative weights, zero rows.
    The matrix is read twice, for its row sums (:meth:`Instance.user_totals`,
    kept for later callers) and its minimum: a NaN or infinite weight makes
    its row's sum NaN or infinite, so the weights themselves are tested only
    when some row sum is (a finite row may also overflow). A pass of the
    weights is kept in the instance's record, shared with :func:`with_alpha`,
    so a later call on either checks alpha alone. A failure records nothing
    and raises every time.
    """
    facts, w = instance._facts, instance.weights
    if not facts.valid:
        if w.shape[0] == 0 or w.shape[1] == 0:
            raise DimensionError(f"weights must be nonempty, got shape {w.shape}")
        row_sums = instance.user_totals()
        if not np.isfinite(row_sums).all() and not np.isfinite(w).all():
            raise InstanceError("weights must be finite")
    if not 0.0 < instance.alpha <= 1.0:
        raise BadAlphaError(f"alpha must be in (0, 1], got {instance.alpha}")
    if not facts.valid:
        if w.min() < 0:
            i, j = np.argwhere(w < 0)[0]
            raise NegativeWeightError(int(i), int(j))
        if row_sums.min() == 0:
            raise ZeroRowError(int(np.flatnonzero(row_sums == 0)[0]))
        facts.valid = True


def finalize_payments(payments: np.ndarray) -> np.ndarray:
    """Clamp float dust (|v| < 1e-12) to exactly zero on an emitted vector."""
    p = np.array(payments, dtype=float)
    p[np.abs(p) < CLAMP_TOL] = 0.0
    return p


def whole(value, error: type, what: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int in [low, high) (no upper end when ``high`` is
    None); one outside it, a bool, or one ``operator.index`` refuses (a
    float, a string), raises ``error``."""
    try:
        out = None if isinstance(value, bool) else operator.index(value)
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


def _profile_row(instance: Instance, profile) -> np.ndarray:
    """``profile`` as one row of ``instance``'s weights; a row of another
    length raises :class:`DimensionError`."""
    row = np.asarray(profile, dtype=float).reshape(-1)
    if row.shape[0] != instance.n_artists:
        raise DimensionError(
            f"profile has {row.shape[0]} entries, instance has {instance.n_artists} artists"
        )
    return row


def add_user(instance: Instance, profile) -> Instance:
    """Return a new instance with one extra user row appended."""
    return Instance(np.vstack([instance.weights, _profile_row(instance, profile)]), instance.alpha)


def replace_user(instance: Instance, user: int, profile) -> Instance:
    """Return a new instance with one user's row replaced."""
    user = whole(user, DimensionError, "user index", 0, instance.n_users)
    row = _profile_row(instance, profile)
    w = instance.weights.copy()
    w[user] = row
    return Instance(w, instance.alpha)


def with_alpha(instance: Instance, alpha: float) -> Instance:
    """Same weights, different subscription share. The new instance shares
    the weights and their record with ``instance``: a total, the nonzero
    view or a pass of :func:`validate` found on either serves both, so
    validating the new instance checks only its alpha."""
    out = Instance(instance.weights, alpha)
    object.__setattr__(out, "_facts", instance._facts)
    return out
