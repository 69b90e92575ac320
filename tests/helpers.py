"""Shared builders for the test suite."""

import numpy as np
from hypothesis import strategies as st

from streamshare import Instance


def make(rows, alpha=1.0):
    return Instance(np.asarray(rows, dtype=float), alpha)


def row_shares(inst):
    """The instance's weights with every user's row scaled to sum to 1."""
    return inst.weights / inst.weights.sum(axis=1, keepdims=True)


@st.composite
def instances(draw, max_users=6, max_artists=5, positive=False, alpha=None):
    """Random valid instance. With positive=True every weight is > 0 so the
    min/geo aggregates cannot degenerate. Draws below 1e-6 are snapped to an
    honest zero: weights model stream counts or listening minutes, and
    subnormal floats only exercise reciprocal overflow, not rule logic."""
    n = draw(st.integers(1, max_users))
    m = draw(st.integers(2, max_artists))
    lo = 0.05 if positive else 0.0
    flat = draw(
        st.lists(
            st.floats(lo, 40.0, allow_nan=False, allow_infinity=False),
            min_size=n * m,
            max_size=n * m,
        )
    )
    w = np.asarray(flat, dtype=float).reshape(n, m)
    w[w < 1e-6] = 0.0
    for i in range(n):
        if w[i].sum() <= 0:
            w[i, draw(st.integers(0, m - 1))] = draw(st.floats(0.5, 10.0))
    a = draw(st.floats(0.05, 1.0)) if alpha is None else alpha
    return Instance(w, a)


def random_dense(rng, max_users=20, max_artists=8, alpha=1.0):
    """Strictly positive random instance, every rule defined: criterion 1's
    draw of 1 to 20 users over 1 to 8 artists."""
    n = int(rng.integers(1, max_users + 1))
    m = int(rng.integers(1, max_artists + 1))
    w = rng.exponential(1.0, size=(n, m)) + 1e-3
    return Instance(w, alpha)


def psp_enumerate(instance, artist_set):
    """Second oracle for ``psp_exact``: score every count combination over
    the user groups of ``_removal_groups``. Ties prefer fewer removed users,
    then the lowest flat index, whose first digit counts the first group."""
    from streamshare.pspdetect import (
        PspResult,
        _clean_artist_set,
        _removal_groups,
        _removal_profit,
    )

    u = _clean_artist_set(instance, artist_set)
    values, counts, members, s, tau = _removal_groups(instance, u)
    radices = counts + 1
    n_combos = int(np.prod(radices))
    idx = np.arange(n_combos, dtype=np.int64)
    digits = (idx[:, None] // (n_combos // np.cumprod(radices))) % radices
    r = digits.sum(axis=1)
    _, profit_of = _removal_profit(instance, float(s.sum()), float(tau.sum()))
    profit = profit_of(r, digits @ values[:, 0], digits @ values[:, 1])
    top = float(profit.max())
    if top <= 0.0:
        return PspResult(u, (), 0.0)
    ties = np.flatnonzero(profit == top)
    pick = ties[np.argmin(r[ties])]
    removed = [int(i) for ms, take in zip(members, digits[pick]) for i in ms[:take]]
    return PspResult(u, tuple(sorted(removed)), top)


def market_bisect(norm):
    """Second oracle for ``market_solution``: bisect for the phantom scale t
    where the 2n+1 per-artist medians (n user values plus phantoms
    min(k*t, 1), k = 0..n) sum to 1. The sum is 0 at t=0, at least 1 at t=1,
    and nondecreasing in t."""
    from streamshare.portioning import MarketSolution

    n, m = norm.shape
    ks = np.arange(n + 1, dtype=float)

    def medians(t: float) -> np.ndarray:
        phantoms = np.minimum(ks * t, 1.0)
        stacked = np.vstack([norm, np.broadcast_to(phantoms[:, None], (n + 1, m))])
        return np.median(stacked, axis=0)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if medians(mid).sum() >= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15:
            break
    med = medians(hi)
    return MarketSolution(hi, med, float(abs(med.sum() - 1.0)))
