"""Portioning rules: divide revenue by aggregating normalized user profiles.

Every rule here first row-normalizes the instance (each user's weights become
a distribution over artists), produces a point on the artist simplex, and
scales it by the budget ``alpha * n``.

* ``avg`` / ``max`` / ``min`` / ``med`` / ``geo``: coordinatewise aggregate of
  the normalized columns, then renormalize.
* ``util``: the share vector minimizing total L1 disagreement with the user
  profiles, tie-broken toward maximum entropy.
* ``egal``: minimizes the largest per-user L1 disagreement, then refines by
  repeatedly freezing the users pinned at the optimum and re-minimizing over
  the rest.
* ``indmkt``: per-artist medians after padding each artist's value list with
  the phantom bids ``min(k*t, 1)``, where t solves "medians sum to 1" in
  closed form on the piecewise-linear median sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class PortioningId(str, Enum):
    AVG = "avg"
    MAX = "max"
    MIN = "min"
    MED = "med"
    GEO = "geo"
    UTIL = "util"
    EGAL = "egal"
    INDEPENDENT_MARKETS = "indmkt"


class DegenerateAggregateError(ValueError):
    """Coordinatewise aggregate is zero everywhere; shares undefined."""


class SolverFailure(RuntimeError):
    """An optimization stage did not converge."""


def stack_shares(rule: PortioningId, w: np.ndarray) -> np.ndarray:
    """Simplex points (..., m) of every matrix of a (..., n, m) weight stack,
    users on axis -2. ``egal`` and ``indmkt`` solve one matrix at a time;
    every other rule is one kernel over the stack. Any degenerate matrix
    raises."""
    norm = w / w.sum(axis=-1, keepdims=True)
    if rule in _COORDINATEWISE:
        share = _COORDINATEWISE[rule](norm)
        if np.any(share.sum(axis=-1) <= 0.0):
            raise DegenerateAggregateError(f"{rule.value} aggregate is zero on every artist")
    elif rule is PortioningId.UTIL:
        share = _util_share(norm)
    else:  # one egal solve, or one phantom scale, per matrix
        solve = (_egal_share if rule is PortioningId.EGAL
                 else lambda x: market_solution(x).shares)
        shares = [solve(x) for x in norm.reshape((-1,) + w.shape[-2:])]
        share = np.reshape(shares, w.shape[:-2] + w.shape[-1:])
    return share / share.sum(axis=-1, keepdims=True)


def _geo(norm: np.ndarray) -> np.ndarray:
    # geometric mean per column; a zero gives log -inf, and exp(-inf) is 0
    with np.errstate(divide="ignore"):
        return np.exp(np.log(norm).mean(axis=-2))


_COORDINATEWISE = {
    PortioningId.AVG: lambda norm: norm.mean(axis=-2),
    PortioningId.MAX: lambda norm: norm.max(axis=-2),
    PortioningId.MIN: lambda norm: norm.min(axis=-2),
    PortioningId.MED: lambda norm: np.median(norm, axis=-2),
    PortioningId.GEO: _geo,
}


# --------------------------------------------------------------------------
# util: exact minimizer of total L1 disutility, max-entropy tie-break


def _util_share(norm: np.ndarray) -> np.ndarray:
    """Total disutility sum_i ||p - w_i||_1 on the simplex is, up to a
    constant, a separable convex function of p; for each artist the minimizer
    set at integer dual level is the interval between consecutive order
    statistics of that artist's column. The optimal face is the box for the
    level whose interval sums bracket 1, and the max-entropy point on it clips
    a single constant into each interval, for every matrix of a stack."""
    n = norm.shape[-2]
    stats = _sorted_columns(norm)
    feasible = stats[..., :n, :].sum(axis=-1) >= 1.0 - 1e-9
    level = np.where(feasible, np.arange(n), 0).max(axis=-1)  # the last feasible, or 0
    face = np.take_along_axis(stats, level[..., None, None] + np.array([[1], [0]]), axis=-2)
    p = _clip_to_sum(face[..., 0, :], face[..., 1, :], 1.0)
    total = p.sum(axis=-1, keepdims=True)
    off = ~((0.9 < total) & (total < 1.1))  # the face always brackets 1; a bug trap
    if off.any():
        raise SolverFailure(f"util face sum {total[off][0]} out of range")
    return p / total


def _sorted_columns(norm: np.ndarray) -> np.ndarray:
    """Row r holds the (r+1)-th largest value of each column, and one zero
    sentinel row follows: (..., n+1, m) for a (..., n, m) stack."""
    n = norm.shape[-2]
    stats = np.zeros(norm.shape[:-2] + (n + 1, norm.shape[-1]))
    body = stats[..., :n, :]
    np.negative(norm, out=body)
    body.sort(axis=-2)
    np.negative(body, out=body)
    return stats


def _clip_to_sum(lo: np.ndarray, hi: np.ndarray, target: float) -> np.ndarray:
    """Solve sum_j clip(theta, lo_j, hi_j) = target exactly by a knot sweep,
    per row of (..., m) bounds. A repeated knot never changes theta, so the
    knots need only be sorted."""
    knots = np.sort(np.concatenate([lo, hi], axis=-1), axis=-1)
    vals = np.clip(knots[..., :, None], lo[..., None, :], hi[..., None, :]).sum(axis=-1)
    i = (vals < target).sum(axis=-1, keepdims=True)  # searchsorted: vals ascend
    below, above = np.maximum(i - 1, 0), np.minimum(i, knots.shape[-1] - 1)
    k0, k1 = np.take_along_axis(knots, below, -1), np.take_along_axis(knots, above, -1)
    v0, v1 = np.take_along_axis(vals, below, -1), np.take_along_axis(vals, above, -1)
    span = v1 - v0  # 0 off either end, where theta is that end's knot
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(span > 0, k0 + (k1 - k0) * (target - v0) / span, k1)
    return np.clip(theta, lo, hi)


# --------------------------------------------------------------------------
# egal: minimax L1 disutility with iterative freezing
#
# When p and every user row live on the simplex, the disutility splits as
# ||p - w_i||_1 = 2 - 2 * sum_j min(p_j, w_ij), so minimizing the largest
# disutility is the same as maximizing the smallest "overlap"
# O_i(p) = sum_j min(p_j, w_ij), a concave piecewise-linear maximin. Each
# stage solves that maximin by cutting planes: at a candidate p the pattern
# g_j = [p_j < w_ij] gives the supporting piece O_i(p') <= g.p' + const, and
# a simplex master over these cuts proposes the next p. Eliminating
# p_m = 1 - sum(q) keeps the origin basis feasible, so no phase-1 is needed;
# re-solves after new cuts start from the previous basis via dual pivots.
#
# The master is kept in dictionary form (Chvatal, Linear Programming, 1983).
# Every basic column is a unit vector, so the tableau stores only the m
# nonbasic columns and the right-hand side: (rows + 1) x (m + 1) with the
# objective row last, beside a ``nonbasic`` array of variable ids. A pivot
# swaps the entering and leaving variables in place, and every choice goes by
# variable id (q, then t, then the row slacks in row order), never by stored
# column: Bland's smallest eligible variable on primal entry, the first
# minimal ratio in variable order on dual entry. Each entry is computed as a
# full tableau would compute it; only the sign of a zero can differ (a
# basic column's zeros are not stored, and a zero coefficient is subtracted
# rather than skipped). No pivot choice reads that sign, and np.clip turns
# -0.0 into 0.0 before p leaves a stage, so the payments are the same bits.


def _pivot(tab, basis, nonbasic, row, col):
    """Swap basis[row] out for nonbasic[col]; the leaving variable's column
    takes the entering one's slot, 1/piv in the pivot row and -f_i/piv in
    row i, as a full tableau would compute it."""
    piv = tab[row, col]
    top = tab[row] / piv
    top[col] = 1.0 / piv
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab[:, col] = 0.0
    tab[row] = top
    tab -= factors[:, None] * top
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _primal_steps(tab, basis, nonbasic, max_pivots=5000):
    """Drive the objective row to optimality; Bland's rule on entry, smallest
    basis index on ratio ties, so cycling cannot occur."""
    tol = 1e-11
    n_rows = tab.shape[0] - 1
    for pivots in range(max_pivots):
        eligible = (tab[-1, :-1] > tol).nonzero()[0]
        if eligible.size == 0:
            return
        enter = int(eligible[nonbasic[eligible].argmin()])
        col = tab[:n_rows, enter]
        pos = col > tol
        if not pos.any():
            raise SolverFailure(f"stage master unbounded after {pivots} primal pivots")
        ratios = np.divide(tab[:n_rows, -1], col, out=np.full(n_rows, np.inf), where=pos)
        best = float(ratios.min())
        ties = (ratios <= best + 1e-15).nonzero()[0]
        leave = int(ties[basis[ties].argmin()])
        _pivot(tab, basis, nonbasic, leave, enter)
    raise SolverFailure(f"stage master hit the primal pivot limit of {max_pivots}")


def _dual_steps(tab, basis, nonbasic, max_pivots=5000):
    """Restore a nonnegative right-hand side after cuts arrive, keeping the
    objective row dual-feasible. Returns the number of pivots made."""
    tol = 1e-11
    n_rows = tab.shape[0] - 1
    for pivots in range(max_pivots):
        rhs = tab[:n_rows, -1]
        leave = int(rhs.argmin())
        if rhs[leave] >= -tol:
            return pivots
        row = tab[leave, :-1]
        neg = (row < -tol).nonzero()[0]
        if neg.size == 0:
            raise SolverFailure(f"stage master infeasible after {pivots} dual pivots")
        ratios = -tab[-1, neg] / -row[neg]
        ties = neg[ratios == ratios.min()]
        enter = int(ties[nonbasic[ties].argmin()])
        _pivot(tab, basis, nonbasic, leave, enter)
    raise SolverFailure(f"stage master hit the dual pivot limit of {max_pivots}")


class _StageMaster:
    """Simplex master of one maximin stage in dictionary form. Variable ids:
    q is 0..m-2 (the first m-1 simplex coordinates), t is m-1 (the overlap
    level being raised) and row r's slack is m + r. ``tab`` holds the m
    nonbasic columns, in the order of ``nonbasic``, and the right-hand side;
    row r is the constraint whose basic variable is ``basis[r]``."""

    def __init__(self, m: int):
        self.m = m
        self.tab = np.zeros((2, m + 1))
        self.tab[0, : m - 1] = 1.0  # sum(q) <= 1 keeps p_m nonnegative
        self.tab[0, -1] = 1.0
        self.tab[1, m - 1] = 1.0  # maximize t
        self.basis = np.array([m])
        self.nonbasic = np.arange(m)
        self.owner = [-1]  # user index per cut row; -1 for structural rows

    @property
    def n_rows(self) -> int:
        return self.basis.size

    def add_cuts(self, coefs, rhs, owner):
        """Append the rows coefs . (q, t) <= rhs, one per cut, expressed in
        the current basis. A new row's coefficient on a basic q or t is its
        own, since subtracting other basic rows leaves it as it is, so the
        whole block is eliminated at once, basic row by basic row in
        ascending order, as a row-at-a-time elimination would."""
        m, k = self.m, len(rhs)
        padded = np.zeros((k, m + 1))  # column m stands for every slack
        padded[:, :m] = coefs
        rows = np.empty((k, m + 1))
        rows[:, :m] = padded.take(np.minimum(self.nonbasic, m), axis=1)
        rows[:, m] = rhs
        basic = (self.basis < m).nonzero()[0]
        by_row = coefs.take(self.basis[basic], axis=1)
        for coef, row in zip(by_row.T, self.tab[basic]):
            rows -= coef[:, None] * row
        start = m + self.n_rows
        self.tab = np.concatenate([self.tab[:-1], rows, self.tab[-1:]])
        self.basis = np.concatenate([self.basis, np.arange(start, start + k)])
        self.owner += owner.tolist()

    def solve(self):
        dual = _dual_steps(self.tab, self.basis, self.nonbasic)
        try:
            _primal_steps(self.tab, self.basis, self.nonbasic)
        except SolverFailure as exc:
            raise SolverFailure(f"{exc}, after {dual} dual pivots") from exc
        x = np.zeros(self.m)
        rows = (self.basis < self.m).nonzero()[0]
        x[self.basis[rows]] = self.tab[rows, -1]
        p = x.copy()
        p[-1] = 1.0 - x[:-1].sum()
        return p, float(x[-1])

    def user_duals(self, n: int) -> np.ndarray:
        """Dual price carried by each user's cuts at the final basis: a
        nonbasic slack's negated objective entry, 0 for a basic one. A user
        with positive total price is pinned at the optimum in every optimal
        solution, which is exactly when freezing them is safe."""
        duals = np.zeros(n)
        obj = self.tab[-1].tolist()
        for var, col in sorted(zip(self.nonbasic.tolist(), range(self.m))):
            who = self.owner[var - self.m] if var > self.m else -1
            if who >= 0:
                duals[who] += max(0.0, -obj[col])
        return duals


def _minimax_stage(norm, caps, active, p_seed):
    """Maximize the smallest overlap of active users, subject to frozen users
    keeping theirs above the floor implied by their recorded cap. Returns the
    share vector, the stage disutility level, and the per-user dual prices."""
    n, m = norm.shape
    master = _StageMaster(m)
    floors = 1.0 - caps / 2.0
    # user i's cut at p reads t*[i active] - a.q <= const - [i frozen]*floor_i,
    # with a = g[:m-1] - g[m-1] and const = O_i(p) - g.p + g[m-1]
    shift, owner = np.where(active, 0.0, floors), np.where(active, np.arange(n), -1)
    seen = set()

    def add_cuts(users, p):
        """Cut every listed user at p, in user order, unless that user's cut
        with the same pattern is already in. Returns whether any was new."""
        w = norm[users]
        grads = (p < w).astype(float)
        patterns = grads.view(f"V{grads.itemsize * m}").ravel().tolist()  # row bytes
        fresh = []
        for k, key in enumerate(zip(users.tolist(), patterns)):
            if key not in seen:
                seen.add(key)
                fresh.append(k)
        if not fresh:
            return False
        if len(fresh) < len(users):
            users, w, grads = users[fresh], w[fresh], grads[fresh]
        const = np.minimum(p, w).sum(axis=1) - np.array([g @ p for g in grads]) + grads[:, m - 1]
        coefs = -(grads - grads[:, m - 1 :])  # -a, then t's coefficient
        coefs[:, m - 1] = active[users]
        master.add_cuts(coefs, const - shift[users], owner[users])
        return True

    add_cuts(np.arange(n), p_seed)
    for _ in range(500):
        try:
            p, t_hat = master.solve()
        except SolverFailure as exc:
            raise SolverFailure(f"{exc}; {master.n_rows - 1} cuts") from exc
        p = np.clip(p, 0.0, None)
        overlaps = np.minimum(p[None, :], norm).sum(axis=1)
        worst = float(overlaps[active].min())
        bad_floor = (~active) & (overlaps < floors - 1e-10)
        if t_hat - worst <= 1e-10 and not bad_floor.any():
            return p, 2.0 * (1.0 - worst), master.user_duals(n)
        users = np.flatnonzero((active & (overlaps < t_hat - 1e-10)) | bad_floor)
        if not add_cuts(users, p):
            raise SolverFailure(f"stage made no progress; {master.n_rows - 1} cuts")
    raise SolverFailure(f"stage hit the cut iteration limit; {master.n_rows - 1} cuts")


def _egal_share(norm: np.ndarray) -> np.ndarray:
    n, m = norm.shape
    if n == 1 or np.all(norm == norm[0]):
        return norm[0].copy()
    caps = np.full(n, -1.0)  # -1 marks users whose disutility is still free
    p = np.full(m, 1.0 / m)
    for stage in range(2 * n):
        active = caps < 0
        if not active.any():
            break
        try:
            p, z, duals = _minimax_stage(norm, caps, active, p)
            # only active users' cuts carry t, whose column is dual feasible, so their
            # prices sum to about 1: with under 1e8 cuts one exceeds 1e-9, or the basis is wrong
            hit = active & (duals > 1e-9)
            if not hit.any():
                raise SolverFailure("no active user is priced")
        except SolverFailure as exc:
            frozen = n - int(active.sum())
            raise SolverFailure(
                f"egal on {n}x{m} failed at stage {stage} with {frozen} frozen users: {exc}"
            ) from exc
        # tiny slack keeps the stage optimum feasible for the next rung
        caps[hit] = z + 1e-12
        if z <= 1e-12:
            break
    p = np.clip(p, 0.0, None)
    return p / p.sum()


# --------------------------------------------------------------------------
# independent markets: phantom-padded per-artist medians


@dataclass(frozen=True)
class MarketSolution:
    """Phantom scale solved in closed form, per-artist medians there, and
    |sum - 1|."""

    t_star: float
    medians: np.ndarray
    residual: float

    @property
    def shares(self) -> np.ndarray:
        return self.medians / self.medians.sum()


def market_solution(norm: np.ndarray) -> MarketSolution:
    """Smallest phantom scale t where the 2n+1 per-artist medians (n user
    values plus phantoms min(k*t, 1), k = 0..n) sum to at least 1.

    With an artist's values sorted down as caps c_1 >= ... >= c_n, its median
    is max_k min(c_k, k*t): it rises with slope z (its nonzero count) from 0,
    goes flat at c_k when k*t reaches c_k and climbs again with slope k-1 from
    t = c_k/(k-1). So the median sum F(t) is continuous, piecewise linear and
    nondecreasing, and its breakpoints come from the nonzero caps alone. One
    sort of those breakpoints and a running sum of their slope changes bracket
    F = 1. The medians themselves, summed at the bracket's ends, move it when
    the running sum's round-off left it a piece off, and the linear piece
    gives t. If round-off keeps F below 1 everywhere, t is 1.
    """
    caps = _sorted_columns(norm)
    depth = int((caps > 0.0).sum(axis=0).max())  # rows below are all zero
    top = caps[:depth]
    nonzero = top > 0.0
    ks = np.arange(1, depth + 1, dtype=float)[:, None]
    cols = np.arange(caps.shape[1])

    def medians(t: float) -> np.ndarray:
        below = (ks * t < top).sum(axis=0)  # phantoms under their cap
        return np.maximum(np.minimum(below * t, 1.0), caps[below, cols])

    c = top[nonzero]
    k = np.repeat(np.arange(1, depth + 1), nonzero.sum(axis=1))
    climbs = k > 1
    times = np.concatenate([c / k, c[climbs] / (k[climbs] - 1)])
    turns = np.concatenate([-k, k[climbs] - 1])
    order = np.argsort(times)
    times = times[order]
    # slope[i]: slope of F on the piece that ends at times[i]
    slope = np.cumsum(np.concatenate([[c.size], turns[order][:-1]]))
    reached = np.cumsum(slope * np.diff(times, prepend=0.0))

    i = int(np.searchsorted(reached, 1.0))
    while i > 0 and medians(times[i - 1]).sum() >= 1.0:
        i -= 1
    while i < times.size and medians(times[i]).sum() < 1.0:
        i += 1
    if i == times.size:
        t = 1.0
    else:
        lo = float(times[i - 1]) if i else 0.0
        gap = 1.0 - float(medians(lo).sum())
        # a flat piece brackets 1 only when a median rounds low at its start
        t = min(lo + gap / float(slope[i]), float(times[i])) if slope[i] else lo
    med = medians(t)
    return MarketSolution(t, med, float(abs(med.sum() - 1.0)))
