"""Suspicious-coalition profit search under the platform-wide proportional rule.

Given an artist set U, the profit of a removal set V of users is what U is
paid on the full instance, minus what U would have been paid without V,
minus one subscription fee per removed user. Three layers live here:

* exact maximization over removal sets (``psp_exact``): the profit depends
  on a user only through two numbers, so identical users form count
  groups, and for each removal count a parametric (Dinkelbach) solve over
  the groups finds the best set, with no cap on the removal sets;
* a greedy hill-climb lower bound (``psp_greedy``);
* a hard-instance generator that embeds a small-set bipartite vertex
  expansion question into a payment instance (``ssbve_reduction``), with
  a brute-force answer (``ssbve_brute``) for cross-checking.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import Instance, first_max, index_set, subset_payment, validate, whole
from .portioning import SolverFailure
from .rules import global_prop

# Cap on candidate artist sets enumerated by the exact coalition search.
CANDIDATE_CAP = 1 << 17

# Array cells per block of the exact solve and of every `_streams` gather; bounds their memory.
_SOLVE_CELLS = 1 << 20

THRESHOLD_SLACK = 1e-9


class TooLargeError(ValueError):
    """The exact coalition search would exceed its candidate cap."""


class ParameterError(ValueError):
    """A search or reduction parameter is out of its documented range."""


@dataclass(frozen=True)
class PspResult:
    """Best removal set found for one artist set, with its profit."""

    artist_set: tuple
    user_set: tuple
    profit: float


@dataclass(frozen=True)
class BipartiteGraph:
    left_count: int
    right_count: int
    edges: tuple = field(default=())

    def __post_init__(self):
        left = whole(self.left_count, ParameterError, "left_count", 1)
        right = whole(self.right_count, ParameterError, "right_count", 1)
        seen = set()
        for e in self.edges:
            u = whole(e[0], ParameterError, f"left end of edge {e}", 0, left)
            v = whole(e[1], ParameterError, f"right end of edge {e}", 0, right)
            if (u, v) in seen:
                raise ParameterError(f"duplicate edge {e}")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    def left_degrees(self) -> np.ndarray:
        deg = np.zeros(self.left_count, dtype=int)
        for u, _ in self.edges:
            deg[u] += 1
        return deg

    def neighborhood(self, left_subset) -> frozenset:
        s = set(left_subset)
        return frozenset(v for u, v in self.edges if u in s)


@dataclass(frozen=True)
class SsbveReduction:
    """Payment instance encoding one expansion question, plus its parameters."""

    instance: Instance
    k: int
    threshold: float
    d: int
    eps: float
    t: int


def _clean_artist_set(instance: Instance, artist_set) -> tuple:
    idx = index_set(artist_set, ParameterError, "artist index", instance.n_artists)
    if not idx:
        raise ParameterError("artist set must be nonempty")
    return tuple(idx)


def psp_value(instance: Instance, artist_set, user_set) -> float:
    """Literal profit of one (artist set, removal set) pair.

    Re-derives both payments through the public rule evaluation, so it can
    serve as an independent oracle for the fast enumeration below.
    """
    u = _clean_artist_set(instance, artist_set)
    v = index_set(user_set, ParameterError, "user index", instance.n_users)
    paid = subset_payment(global_prop(instance), u)
    keep = np.setdiff1d(np.arange(instance.n_users), v)
    if keep.size == 0:
        counterfactual = 0.0
    else:
        sub = Instance(instance.weights[keep], instance.alpha)
        counterfactual = subset_payment(global_prop(sub), u)
    return paid - counterfactual - len(v)


def _removal_groups(instance: Instance, artist_set):
    """Collapse users into (streams-into-U, total) groups, ascending, with
    ascending members. Users at the minimum total are dropped: removing one
    changes the target payment by at most alpha, never covering its unit
    cost when alpha <= 1, so no optimal removal set needs them."""
    s = next(_streams(instance, [artist_set]))[0]
    tau = instance.user_totals()
    kept = np.flatnonzero(tau > tau.min())
    if kept.size == 0:
        return np.empty((0, 2)), np.empty(0, dtype=int), [], s, tau
    order = kept[np.lexsort((tau[kept], s[kept]))]
    ss, tt = s[order], tau[order]
    starts = np.flatnonzero(np.concatenate(([True], (ss[1:] != ss[:-1]) | (tt[1:] != tt[:-1]))))
    ends = np.append(starts[1:], order.size)
    members = [order[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    return np.column_stack((ss[starts], tt[starts])), ends - starts, members, s, tau


def _streams(instance: Instance, sets):
    """The per-user streams of equal-size artist sets, one (sets, users)
    array per block of at most ``_SOLVE_CELLS`` gathered cells (users x sets
    x set size), or of one set when it is wider. Each set's columns add as
    ``w[:, list(u)].sum(axis=1)`` adds them."""
    step = max(1, _SOLVE_CELLS // (instance.n_users * len(sets[0])))
    for i in range(0, len(sets), step):
        yield np.ascontiguousarray(instance.weights[:, np.array(sets[i : i + step])].sum(axis=2).T)


def _removal_profit(instance: Instance, a_u, total: float):
    """The payment P = alpha n a_u / total of an artist set with ``a_u`` of
    all ``total`` streams, and the profit of removing r users with v_u of its
    streams and v_t of all. ``du`` and ``dt`` subtract one more user's pair
    after those sums, as the greedy step does, without re-rounding them."""
    n, alpha = instance.n_users, instance.alpha
    paid = alpha * n * a_u / total

    def profit(r, v_u, v_t, du=0.0, dt=0.0):
        return paid - alpha * (n - r) * (a_u - v_u - du) / (total - v_t - dt) - r

    return paid, profit


def _best_takes(r, counts, values, a_u, total):
    """Users to take from each group, for each removal count in ``r``, that
    leave the least ratio (a_u - v_u) / (total - v_t). Dinkelbach's method:
    at ratio lam the best r-set holds the r users with the largest
    s - lam * tau, and that set's ratio is the next lam. The key is scaled
    by the ratio's denominator, so exact data keeps exact ties, which go to
    the earlier group. It stops when no ratio falls: the takes repeat, or a ratio is NaN."""
    s_g, t_g, have_g = values[:, 0], values[:, 1], counts.astype(float)
    rows, want = np.arange(r.size)[:, None], r[:, None]
    num, den = np.full(r.size, a_u), np.full(r.size, total)  # removing nobody
    best = np.full(r.size, np.inf)
    while True:
        # weights past about 1e154 overflow the key; the ratios below are what the search checks
        with np.errstate(over="ignore", invalid="ignore"):
            key = t_g * num[:, None] - s_g * den[:, None]
        order = np.argsort(key, axis=1, kind="stable")
        have = have_g[order]
        take = np.empty_like(have)
        take[rows, order] = np.minimum(np.maximum(want - have.cumsum(axis=1) + have, 0.0), have)
        num, den = a_u - take @ s_g, total - take @ t_g
        ratio = num / den
        if not (ratio < best).any():
            return take
        best = np.minimum(best, ratio)


def psp_exact(instance: Instance, artist_set) -> PspResult:
    """Maximum removal-set profit for one artist set, by a parametric solve.

    For each removal count r the best set leaves the least ratio
    (a_U - v_U) / (T - v_T), found exactly by ``_best_takes``. Removing r
    users costs r and wins back at most the set's payment, which bounds r;
    no cap on the removal sets. Ties prefer fewer removed users, then the
    group of least (streams, total), then the lowest-indexed users."""
    validate(instance)
    u = _clean_artist_set(instance, artist_set)
    values, counts, members, s, tau = _removal_groups(instance, u)
    a_u, total = float(s.sum()), float(tau.sum())
    paid, profit_of = _removal_profit(instance, a_u, total)
    r_max = min(int(counts.sum()), int(paid) + 1)  # one more r than P absorbs rounding
    if r_max == 0:
        return PspResult(u, (), 0.0)
    r = np.arange(1, r_max + 1)
    step = max(1, _SOLVE_CELLS // counts.size)
    with np.errstate(divide="ignore", invalid="ignore"):  # a NaN profit is refused below
        take = np.concatenate([_best_takes(r[i : i + step], counts, values, a_u, total)
                               for i in range(0, r_max, step)])
        profit = profit_of(r, take @ values[:, 0], take @ values[:, 1])
    pick = int(np.argmax(profit))
    _finite(instance, [u], profit[pick])  # argmax picks a NaN if there is one
    if profit[pick] <= 0.0:
        return PspResult(u, (), 0.0)
    removed = [int(i) for ms, t in zip(members, take[pick]) for i in ms[: int(t)]]
    return PspResult(u, tuple(sorted(removed)), float(profit[pick]))


def _climb(instance: Instance, s: np.ndarray) -> tuple:
    """``psp_greedy``'s hill-climb for equal-size artist sets at once, from
    their (sets, users) streams ``s``, on a validated instance. Each pass
    removes, from every set whose last removal raised its profit, the first
    user whose removal raises it most. Returns the removed users as a (sets,
    users) mask and each set's profit, floored at 0."""
    tau = instance.user_totals()
    a_u, total = s.sum(axis=1)[:, None], float(tau.sum())  # rows add as 1-D sums do
    removed, live = np.zeros(s.shape, dtype=bool), np.arange(len(s))
    v_u, v_t, profit = np.zeros((3, len(s), 1))  # per set, as columns
    for r in range(1, instance.n_users):
        with np.errstate(divide="ignore", invalid="ignore"):
            _, profit_of = _removal_profit(instance, a_u[live], total)
            cand = profit_of(r, v_u[live], v_t[live], s[live], tau)
        cand[removed[live]] = -np.inf
        pick = np.argmax(cand, axis=1)
        top = cand[np.arange(live.size), pick]
        up = ~(top <= profit[live, 0])  # a set stops when no removal raises it; NaN does not
        live, pick, top = live[up], pick[up], top[up]
        if live.size == 0:
            break
        removed[live, pick] = True
        v_u[live, 0] += s[live, pick]
        v_t[live, 0] += tau[pick]
        profit[live, 0] = top
    return removed, np.maximum(profit[:, 0], 0.0)


def _finite(instance: Instance, sets, profit: np.ndarray) -> None:
    """Refuse a NaN profit of ``sets``: a removal left a total of 0 or inf - inf."""
    nan = np.isnan(profit)
    if nan.any():
        raise SolverFailure(f"psp on {instance.n_users}x{instance.n_artists} has a NaN "
                            f"profit for artist set {tuple(sets[int(nan.argmax())])}")


def _result(artist_set, removed, profit) -> PspResult:
    """One climbed set's mask row and profit as a ``PspResult``."""
    return PspResult(tuple(artist_set), tuple(np.flatnonzero(removed).tolist()), float(profit))


def psp_greedy(instance: Instance, artist_set) -> PspResult:
    """Hill-climb lower bound: repeatedly remove the single user whose
    removal most increases the profit, until no removal improves it."""
    validate(instance)
    u = _clean_artist_set(instance, artist_set)
    removed, profit = _climb(instance, next(_streams(instance, [u])))
    _finite(instance, [u], profit)
    return _result(u, removed[0], profit[0])


def _exchangeable(w: np.ndarray, x: int, y: int, users=None) -> bool:
    """True when swapping columns x and y extends to a relabeling of users
    that leaves the weight matrix unchanged, so the two artists play
    identical roles in every coalition. ``users``, when given, are the
    users whose x and y entries differ, the only ones the swap changes."""
    rows = w[w[:, x] != w[:, y]] if users is None else w[users]
    swapped = rows.copy()
    swapped[:, [x, y]] = rows[:, [y, x]]
    return Counter(r.tobytes() for r in rows) == Counter(r.tobytes() for r in swapped)


def _ranges(lo: np.ndarray, size: np.ndarray):
    """The ranges [lo[q], lo[q] + size[q]) back to back: each index with its q."""
    q = np.arange(size.size).repeat(size)
    return q, np.arange(q.size) + (lo - size.cumsum() + size).repeat(size)


def _signature_buckets(instance: Instance):
    """The nonzeros column by column, each column's sorted by (weight, user
    total), as their users and weights with each column's first entry and
    count; and the columns grouped by count and the sums of their weights,
    user totals and products, each added in that order, with the number of
    each one's bucket, ascending within a bucket. Interchangeable artists
    always share a bucket, since relabeling users permutes the pairs and
    the sorted pairs add to the same bits; ``_joins`` splits the rest (its
    columns' counts agree)."""
    i, j = instance.nonzero()
    v, tau = instance.weights[i, j], instance.user_totals()[i]
    o = np.lexsort((tau, v, j))
    i, j, v, tau = i[o], j[o], v[o], tau[o]
    m = instance.n_artists
    count = np.bincount(j, minlength=m)
    # an overflowed sum (weights above about 1e154) only groups columns, which _joins re-checks
    with np.errstate(over="ignore", invalid="ignore"):
        key = np.column_stack([count] + [np.bincount(j, x, m) for x in (v, tau, v * tau)])
    o = np.lexsort(key.T[::-1])  # stable, so each bucket stays ascending
    key = key[o]
    bucket = np.concatenate(([0], (key[1:] != key[:-1]).any(axis=1).cumsum()))
    return (i, v, count.cumsum() - count, count), o, bucket


def _joins(instance: Instance, entries, j: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """Whether each column j[q] is interchangeable with rep[q], a column of
    the same bucket, read off their nonzeros. It is not when their sorted
    (weight, user total) pairs differ, as a relabeling of users keeps them.
    Otherwise no differing user means identical columns, two a swapped pair
    (the equal pairs make the swap map each one's entries to the other's)
    when the two rows differ nowhere else, and more go to ``_exchangeable``."""
    w, tau = instance.weights, instance.user_totals()
    users, weights, first, count = entries
    # the k-th entry of j[q] beside the k-th of rep[q] (equal counts)
    start = first[j]
    q, at = _ranges(start, count[j])
    rep_at = at + (first[rep] - start)[q]
    own, reps = users[at], users[rep_at]
    # a user differs where j's entry is not rep's weight, or where rep has an
    # entry and j none
    j_side = w[own, rep[q]] != weights[at]
    rep_side = w[reps, j[q]] == 0
    diff_q = np.concatenate((q[j_side], q[rep_side]))
    n_diff = np.bincount(diff_q, minlength=j.size)
    joined = n_diff == 0
    if diff_q.size == 0:
        return joined
    apart = np.bincount(q, (weights[at] != weights[rep_at]) | (tau[own] != tau[reps]), j.size) > 0
    o = diff_q.argsort(kind="stable")  # each column's differing users together
    found = np.concatenate((own[j_side], reps[rep_side]))[o]
    end = n_diff.cumsum()
    pair = ((n_diff == 2) & ~apart).nonzero()[0]
    if pair.size:
        joined[pair] = _row_differences(instance, found[end[pair] - 2], found[end[pair] - 1]) == 2
    for k in ((n_diff > 2) & ~apart).nonzero()[0].tolist():
        joined[k] = _exchangeable(w, int(rep[k]), int(j[k]), found[end[k] - n_diff[k] : end[k]])
    return joined


def _row_differences(instance: Instance, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The number of columns where rows a[q] and b[q] differ, from the
    nonzeros of row a: its count, plus b's, less the columns it shares with
    b and those of them where the two weights are equal."""
    w, (rows, cols) = instance.weights, instance.nonzero()
    ab = np.concatenate((a, b))
    lo = rows.searchsorted(ab)
    size = rows.searchsorted(ab, "right") - lo
    q, at = _ranges(lo[: a.size], size[: a.size])
    c = cols[at]
    other = w[b[q], c]
    shared = np.bincount(q, other != 0, a.size) + np.bincount(q, other == w[a[q], c], a.size)
    return size[: a.size] + size[a.size :] - shared


def _artist_orbits(instance: Instance) -> list:
    """Partition artists into interchangeability classes. Every round takes
    the lowest column left in each signature bucket as its representative
    and tests the bucket's other columns against it at once, over their
    nonzeros (``_joins``). Interchangeability is an equivalence, so peeling
    off each representative's class and repeating gives the partition; its
    work grows with the nonzeros of the columns a round tests."""
    entries, rest, bucket = _signature_buckets(instance)
    rep_of = np.arange(instance.n_artists)
    lead = np.concatenate(([True], bucket[1:] != bucket[:-1]))
    while not lead.all():
        tested = ~lead
        j, rep = rest[tested], rest[lead][lead.cumsum()[tested] - 1]
        joined = _joins(instance, entries, j, rep)
        rep_of[j[joined]] = rep[joined]
        tested[tested] = ~joined
        rest, bucket = rest[tested], bucket[tested]
        lead = np.concatenate(([True], bucket[1:] != bucket[:-1]))
    # each class ascending, and the classes by first member, the representative
    members = rep_of.argsort(kind="stable")
    rep_of = rep_of[members]
    ends = [0, *((rep_of[1:] != rep_of[:-1]).nonzero()[0] + 1).tolist(), rep_of.size]
    members = members.tolist()
    return [members[x:y] for x, y in zip(ends[:-1], ends[1:])]


def find_suspicious(instance: Instance, k: int, mode: str = "exact"):
    """Best artist coalition of size at most k and its removal-set profit.

    Exact mode enumerates coalitions up to interchangeability of artists
    (smallest first, ties keep the lexicographically first coalition) and
    bounds every one at once by ``_profit_bounds``. It solves them with
    psp_exact in descending bound order, a stable sort, and stops at the
    first whose bound lies below the best profit found or at zero: no later
    coalition can then win or tie, so the answer is the loop's over all of
    them (the first coalition with nothing removed when none profits).
    Greedy mode grows the coalition one artist at a time: ``_climb`` scores
    every extension of a step, a block of sets per call, the first best
    becomes the next prefix, and the best prefix is reported.
    """
    validate(instance)
    k = whole(k, ParameterError, "k", 0, instance.n_artists + 1)
    if mode not in ("exact", "greedy"):
        raise ParameterError(f"unknown mode {mode!r}")
    if k == 0:
        return (), PspResult((), (), 0.0)

    if mode == "greedy":
        chosen, best = [], PspResult((), (), 0.0)
        for _ in range(k):
            sets = [tuple(sorted(chosen + [a])) for a in range(instance.n_artists) if a not in chosen]
            climbs = zip(*(_climb(instance, s) for s in _streams(instance, sets)))
            removed, profit = map(np.concatenate, climbs)
            _finite(instance, sets, profit)
            i = first_max(profit)  # the first best
            step = _result(sets[i], removed[i], profit[i])
            chosen = list(step.artist_set)
            best = max(best, step, key=lambda res: res.profit)  # ties keep the shorter prefix
        return best.artist_set, best

    coalitions = _coalitions(_artist_orbits(instance), k)
    candidates = list(itertools.islice(coalitions, CANDIDATE_CAP + 1))
    if len(candidates) > CANDIDATE_CAP:
        raise TooLargeError(f"more than {CANDIDATE_CAP} candidate coalitions")
    candidates.sort(key=lambda u: (len(u), u))
    bound = _profit_bounds(instance, candidates)
    best_i, best = 0, PspResult(candidates[0], (), 0.0)
    for i in np.argsort(-bound, kind="stable").tolist():
        if bound[i] <= 0.0 or bound[i] < best.profit:  # no later set can win or tie
            break
        res = psp_exact(instance, candidates[i])
        if res.profit > best.profit or (res.profit == best.profit and i < best_i):
            best_i, best = i, res
    return candidates[best_i], best


def _profit_bounds(instance: Instance, candidates) -> np.ndarray:
    """Upper bound on ``psp_exact``'s profit for each artist set. Removing
    r users from a set U leaves U paid at least alpha (n - r)(a_U - top_r) / T,
    where top_r sums the r largest per-user streams into U: the profit
    ``_removal_profit`` gives for v_U = top_r and v_T = 0. So the profit is at
    most the largest of those over 1 <= r <= P + 1, P the set's payment;
    THRESHOLD_SLACK (1 + P) more covers rounding."""
    n, total = instance.n_users, float(instance.user_totals().sum())
    bounds = []
    for _, group in itertools.groupby(candidates, key=len):
        for s in _streams(instance, list(group)):
            paid, profit_of = _removal_profit(instance, s.sum(axis=1)[:, None], total)
            r = np.arange(1, min(n, int(paid.max()) + 1) + 1)
            top = np.sort(np.partition(s, n - r.size, axis=1)[:, n - r.size :], axis=1)
            profit = profit_of(r, top[:, ::-1].cumsum(axis=1), 0.0)
            bounds.append(np.maximum(profit.max(axis=1) + THRESHOLD_SLACK * (1 + paid[:, 0]), 0.0))
    return np.concatenate(bounds)


def _coalitions(orbits, k):
    """Every coalition of 1 to k artists that takes a prefix of each orbit,
    as an ascending tuple, grown orbit by orbit on an explicit stack, so the
    recursion limit does not bound the orbit count."""
    stack = [((), 0)]
    while stack:
        members, start = stack.pop()
        for i in range(start, len(orbits)):
            for c in range(1, min(len(orbits[i]), k - len(members)) + 1):
                u = tuple(sorted(members + tuple(orbits[i][:c])))
                yield u
                if len(u) < k:
                    stack.append((u, i + 1))


def ssbve_reduction(
    graph: BipartiteGraph, ell: int, delta: int, alpha: float = 1.0
) -> SsbveReduction:
    """Embed one expansion question into a payment instance.

    Emits t dummy users each streaming alpha*d to a private artist, one user
    per left vertex streaming 1 per incident edge plus a filler column that
    tops every such row up to d + 1, where d is the maximum left degree.
    The coalition budget is delta + 1 and the profit threshold (ell - 1)/d.
    """
    ell = whole(ell, ParameterError, "ell", 1, graph.left_count + 1)
    delta = whole(delta, ParameterError, "delta", 0, graph.right_count + 1)
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    deg = graph.left_degrees()
    d = int(deg.max())
    if d == 0:
        raise ParameterError("graph has no edges, so the maximum degree is 0")
    nu = graph.left_count
    eps = 0.5 / (d * nu * (d * (delta + 1) + 1))
    t = math.ceil((d + 1) * nu / (alpha * d * eps))

    w = np.zeros((t + nu, t + graph.right_count + 1))
    w[np.arange(t), np.arange(t)] = alpha * d
    for u_vertex, v_vertex in graph.edges:
        w[t + u_vertex, t + v_vertex] = 1.0
    w[t:, -1] = d + 1 - deg
    return SsbveReduction(
        instance=Instance(w, alpha),
        k=delta + 1,
        threshold=(ell - 1) / d,
        d=d,
        eps=eps,
        t=t,
    )


def ssbve_brute(graph: BipartiteGraph, ell: int, delta: int) -> bool:
    """Direct answer to the expansion question by trying every left subset."""
    vertices = range(graph.left_count)
    for size in range(ell, graph.left_count + 1):
        for s in itertools.combinations(vertices, size):
            if len(graph.neighborhood(s)) <= delta:
                return True
    return False


def exceeds_threshold(profit: float, threshold: float) -> bool:
    """Threshold test with a small upward slack.

    A reduction instance whose embedded answer is yes lands at least
    1/(2d) above the threshold, while a no instance sits at or below it,
    so any slack well inside (0, 1/(2d)) separates the two exactly.
    """
    return profit >= threshold + THRESHOLD_SLACK
