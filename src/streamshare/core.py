"""Instances and payment vectors.

An instance is a nonnegative matrix of streaming weights (one row per user,
one column per artist), held dense or as its nonzeros, together with the
subscription share ``alpha`` that the platform pays out per user. A payment
vector assigns each artist a nonnegative amount; every division rule in this
package emits payments summing to ``alpha * n_users``.

All user and artist indices are 0-based.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError

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

    weights = values = user_totals = artist_totals = nonzero = None
    valid = False


@np.errstate(over="ignore", invalid="ignore")  # half the cost of the with-block form
def _row_sums(w: np.ndarray) -> np.ndarray:
    """A row that overflows, or holds inf and -inf, sums to inf or NaN without a warning."""
    return w.sum(axis=1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _held(a, dtype) -> np.ndarray:
    """``a`` itself when it is a frozen array of ``dtype`` that owns its
    memory (freezing it hands it over), else a frozen copy of it."""
    if type(a) is np.ndarray and not a.flags.writeable and a.flags.owndata and a.dtype == dtype:
        return a
    return _frozen(np.array(a, dtype=dtype))


def _row_major(n: int, m: int, rows, cols, values) -> bool:
    """Whether the arrays are the nonzeros of an (n, m) matrix, as
    :meth:`Instance.from_nonzeros` takes them."""
    if not (rows.ndim == 1 and rows.shape == cols.shape == values.shape):
        return False
    key = rows * m + cols
    return bool(
        (values != 0).all() and (cols >= 0).all() and (cols < m).all()
        and (key[1:] > key[:-1]).all() and (key.size == 0 or 0 <= key[0] and key[-1] < n * m)
    )


# user_totals of an instance built from its nonzeros scatters them into a
# reused buffer of about this many cells (one row if it is wider), a block
# of rows at a time, and sums the block as numpy sums the dense rows.
_BLOCK_CELLS = 1 << 16


@np.errstate(over="ignore", invalid="ignore")  # as _row_sums
def _block_row_sums(shape: tuple, rows, cols, values) -> np.ndarray:
    """``weights.sum(axis=1)`` of the (n, m) matrix with ``values`` at
    (rows, cols), in row-major order, and zeros elsewhere: the same numpy
    sum of each row's m cells, so the same bits, without the whole matrix."""
    n, m = shape
    step = max(1, _BLOCK_CELLS // m)
    block, out = np.zeros((min(step, n), m)), np.empty(n)
    cells, at = block.reshape(-1), rows * m + cols
    ends = np.searchsorted(rows, np.arange(0, n + step, step))  # each block's entries
    for start, lo, hi in zip(range(0, n, step), ends, ends[1:]):
        block_at = at[lo:hi] - start * m
        cells[block_at] = values[lo:hi]
        block[: n - start].sum(axis=1, out=out[start : start + step])
        cells[block_at] = 0.0
    return out


class Instance:
    """A streaming scenario: weights[i, j] is user i's engagement with artist j.

    An instance is built from a dense matrix, ``Instance(weights, alpha)``,
    or from its nonzeros, :meth:`from_nonzeros`. The dense matrix is copied
    and frozen on construction, except a frozen float64 matrix that owns
    its memory: freezing it hands it over, and it is kept as it is, so
    :func:`with_alpha` and every other instance built on an instance's
    weights share them. An instance built from its nonzeros holds their
    arrays and no matrix: :attr:`weights` scatters them into one on the
    first read. Its totals, :func:`validate` and the main rules of
    :mod:`streamshare.rules` work from the arrays, to the same bits as
    from the matrix. Use :func:`add_user` / :func:`replace_user` to derive
    modified instances. Construction only coerces shape and dtype. Call
    :func:`validate` to check the full input contract.

    Each instance holds one record of what its weights determine: the
    dense matrix, the totals, the nonzero view (:meth:`nonzero`) and
    :func:`validate`'s pass of the weights, each found on first use and
    then kept, read-only; no lock is taken on the small instances
    validated by the thousand. :func:`with_alpha` gives its instance the
    same record, so a fact found on either serves both; :func:`add_user`
    and :func:`replace_user`, whose weights differ, start a fresh one.
    Instances are immutable: their attributes cannot be assigned.
    """

    def __init__(self, weights, alpha: float = 1.0):
        w = _held(weights, np.float64)
        if w.ndim != 2:
            raise DimensionError(f"weights must be 2-D, got ndim={w.ndim}")
        facts = _Facts()
        facts.shape, facts.weights = w.shape, w
        self._hold(facts, alpha)

    @classmethod
    def from_nonzeros(cls, shape, rows, cols, values, alpha: float = 1.0) -> Instance:
        """The (n, m) instance whose weight at (rows[k], cols[k]) is values[k]
        and zero elsewhere. The positions are distinct, in range and in
        row-major order, and no value is zero, so that :meth:`nonzero` is
        (rows, cols); the arrays are held as the dense constructor holds
        its matrix (a frozen one that owns its memory is kept as it is)."""
        n, m = (whole(k, DimensionError, "shape") for k in shape)
        rows, cols, values = _held(rows, np.intp), _held(cols, np.intp), _held(values, np.float64)
        if not _row_major(n, m, rows, cols, values):
            raise DimensionError(
                f"nonzeros must be 1-D arrays of nonzero values at distinct positions of "
                f"a {n} x {m} matrix, in row-major order"
            )
        facts = _Facts()
        facts.shape, facts.nonzero, facts.values = (n, m), (rows, cols), values
        out = cls.__new__(cls)
        out._hold(facts, alpha)
        return out

    def _hold(self, facts: _Facts, alpha: float) -> None:
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "_facts", facts)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return f"Instance(weights={self.weights!r}, alpha={self.alpha!r})"

    @property
    def weights(self) -> np.ndarray:
        """The dense (n, m) matrix, read-only. One built from the nonzeros
        is made on the first read and kept in the record."""
        facts = self._facts
        if facts.weights is None:
            w = np.zeros(facts.shape)
            w[facts.nonzero] = facts.values
            facts.weights = _frozen(w)
        return facts.weights

    @property
    def n_users(self) -> int:
        return self._facts.shape[0]

    @property
    def n_artists(self) -> int:
        return self._facts.shape[1]

    @property
    def budget(self) -> float:
        """Total amount the platform divides: alpha per subscribed user."""
        return self.alpha * self.n_users

    def user_totals(self) -> np.ndarray:
        """``weights.sum(axis=1)``, summed once; every call returns that
        read-only array. Built from the nonzeros, each block of rows is
        scattered into a reused buffer and summed there, so no dense matrix
        is made and each row is added in numpy's pairwise order."""
        facts = self._facts
        if facts.user_totals is None:
            if facts.values is None:
                facts.user_totals = _frozen(_row_sums(self.weights))
            else:
                facts.user_totals = _frozen(_block_row_sums(facts.shape, *facts.nonzero, facts.values))
        return facts.user_totals

    def artist_totals(self) -> np.ndarray:
        """``weights.sum(axis=0)``, summed once; every call returns that
        read-only array. Built from the nonzeros, by :meth:`column_sums`."""
        facts = self._facts
        if facts.artist_totals is None:
            if facts.values is None:
                facts.artist_totals = _frozen(self.weights.sum(axis=0))
            else:
                facts.artist_totals = _frozen(self.column_sums(facts.values))
        return facts.artist_totals

    def column_sums(self, terms: np.ndarray) -> np.ndarray:
        """The column sums of the matrix holding ``terms`` at :meth:`nonzero`
        and zeros elsewhere, to the bits numpy sums that dense matrix over
        axis 0: row after row, where an added +0.0 changes nothing, so by
        ``np.bincount``; but pairwise when m == 1, the one column being
        contiguous, so that column is scattered whole and summed."""
        (n, m), (rows, cols) = self._facts.shape, self.nonzero()
        if m > 1:
            return np.bincount(cols, terms, m)
        column = np.zeros(n)
        column[rows] = terms
        return column.sum(keepdims=True)

    def nonzero(self) -> tuple:
        """``np.nonzero(weights)``: the rows and columns of the nonzero weights,
        in row-major order, as read-only arrays: those given to
        :meth:`from_nonzeros`, else found by one flat scan of the matrix on
        the first call; every call returns that same tuple."""
        facts = self._facts
        if facts.nonzero is None:
            at = np.flatnonzero(self.weights.ravel() != 0)  # faster than np.nonzero
            facts.nonzero = tuple(map(_frozen, np.divmod(at, self.n_artists)))
        return facts.nonzero

    def nonzero_values(self) -> np.ndarray | None:
        """The weights at :meth:`nonzero` of an instance built by
        :meth:`from_nonzeros`, read-only; None for one built from a dense
        matrix."""
        return self._facts.values


def validate(instance: Instance) -> None:
    """Raise the first violated input invariant, or return quietly.

    Checked in order: dimensions, finiteness, alpha, negative weights, zero rows.
    A dense matrix is read twice, for its row sums (:meth:`Instance.user_totals`,
    kept for later callers) and its minimum: a NaN or infinite weight makes
    its row's sum NaN or infinite, so the weights themselves are tested only
    when some row sum is (a finite row may also overflow). An instance built
    from its nonzeros is checked on their arrays, with the same errors: the
    first negative value in row-major order, the first row with no nonzero.
    A pass of the weights is kept in the instance's record, shared with
    :func:`with_alpha`, so a later call on either checks alpha alone. A
    failure records nothing and raises every time.
    """
    facts = instance._facts
    w, values = facts.weights, facts.values
    if not facts.valid:
        if 0 in facts.shape:
            raise DimensionError(f"weights must be nonempty, got shape {facts.shape}")
        if values is None:
            row_sums = instance.user_totals()
            finite = np.isfinite(row_sums).all() or np.isfinite(w).all()
        else:
            finite = np.isfinite(values).all()
        if not finite:
            raise InstanceError("weights must be finite")
    if not 0.0 < instance.alpha <= 1.0:
        raise BadAlphaError(f"alpha must be in (0, 1], got {instance.alpha}")
    if not facts.valid:
        if values is None:
            if w.min() < 0:
                i, j = np.argwhere(w < 0)[0]
                raise NegativeWeightError(int(i), int(j))
            empty = row_sums == 0
        else:
            rows, cols = facts.nonzero
            negative = np.flatnonzero(values < 0)
            if negative.size:
                raise NegativeWeightError(int(rows[negative[0]]), int(cols[negative[0]]))
            empty = np.bincount(rows, minlength=facts.shape[0]) == 0
        if empty.any():
            raise ZeroRowError(int(np.flatnonzero(empty)[0]))
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
    validating the new instance checks only its alpha. No dense matrix is
    made: one built from the nonzeros stays so."""
    out = Instance.__new__(Instance)
    out._hold(instance._facts, alpha)
    return out
