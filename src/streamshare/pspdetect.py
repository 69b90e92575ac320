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

from .core import Instance, subset_payment, validate
from .rules import global_prop

# Cap on candidate artist sets enumerated by the exact coalition search.
CANDIDATE_CAP = 1 << 17

# Array cells per block of the exact solve and of the greedy climb; bounds their memory.
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
        if self.left_count < 1 or self.right_count < 1:
            raise ParameterError("both vertex sides must be nonempty")
        seen = set()
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < self.left_count and 0 <= v < self.right_count):
                raise ParameterError(f"edge {e} out of range")
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
    idx = sorted(set(int(a) for a in artist_set))
    if not idx:
        raise ParameterError("artist set must be nonempty")
    if idx[0] < 0 or idx[-1] >= instance.n_artists:
        raise ParameterError(
            f"artist index out of range for {instance.n_artists} artists"
        )
    return tuple(idx)


def psp_value(instance: Instance, artist_set, user_set) -> float:
    """Literal profit of one (artist set, removal set) pair.

    Re-derives both payments through the public rule evaluation, so it can
    serve as an independent oracle for the fast enumeration below.
    """
    u = _clean_artist_set(instance, artist_set)
    v = sorted(set(int(i) for i in user_set))
    if v and (v[0] < 0 or v[-1] >= instance.n_users):
        raise ParameterError(f"user index out of range for {instance.n_users} users")
    paid = subset_payment(global_prop(instance), u)
    keep = np.setdiff1d(np.arange(instance.n_users), np.asarray(v, dtype=int))
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
    w = instance.weights
    s = w[:, list(artist_set)].sum(axis=1)
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


def _removal_profit(instance: Instance, a_u: float, total: float):
    """Profit of removing r users with v_u of the artist set's ``a_u`` streams
    and v_t of all ``total`` streams. ``du`` and ``dt`` subtract one more
    user's pair after those sums, as the greedy step does, without
    re-rounding them."""
    n = instance.n_users
    alpha = instance.alpha
    base = alpha * n * a_u / total

    def profit(r, v_u, v_t, du=0.0, dt=0.0):
        return base - alpha * (n - r) * (a_u - v_u - du) / (total - v_t - dt) - r

    return profit


def _best_takes(r, counts, values, a_u, total):
    """Users to take from each group, for each removal count in ``r``, that
    leave the least ratio (a_u - v_u) / (total - v_t). Dinkelbach's method:
    at ratio lam the best r-set holds the r users with the largest
    s - lam * tau, and that set's ratio is the next lam. The key is scaled
    by the ratio's denominator, so exact data keeps exact ties, which go to
    the earlier group. It stops when no ratio falls (the takes repeat)."""
    s_g, t_g, have_g = values[:, 0], values[:, 1], counts.astype(float)
    rows, want = np.arange(r.size)[:, None], r[:, None]
    num, den = np.full(r.size, a_u), np.full(r.size, total)  # removing nobody
    best = np.full(r.size, np.inf)
    while True:
        order = np.argsort(t_g * num[:, None] - s_g * den[:, None], axis=1, kind="stable")
        have = have_g[order]
        take = np.empty_like(have)
        take[rows, order] = np.minimum(np.maximum(want - have.cumsum(axis=1) + have, 0.0), have)
        num, den = a_u - take @ s_g, total - take @ t_g
        ratio = num / den
        if (ratio >= best).all():
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
    # one more r than the payment bound absorbs rounding
    r_max = min(int(counts.sum()), int(instance.alpha * instance.n_users * a_u / total) + 1)
    if r_max == 0:
        return PspResult(u, (), 0.0)
    r = np.arange(1, r_max + 1)
    step = max(1, _SOLVE_CELLS // counts.size)
    take = np.concatenate([_best_takes(r[i : i + step], counts, values, a_u, total)
                           for i in range(0, r_max, step)])
    profit = _removal_profit(instance, a_u, total)(r, take @ values[:, 0], take @ values[:, 1])
    pick = int(np.argmax(profit))
    if profit[pick] <= 0.0:
        return PspResult(u, (), 0.0)
    removed = [int(i) for ms, t in zip(members, take[pick]) for i in ms[: int(t)]]
    return PspResult(u, tuple(sorted(removed)), float(profit[pick]))


def _climb(instance: Instance, artist_sets) -> list:
    """``psp_greedy``'s hill-climb for all artist sets at once, on a validated
    instance. Each pass removes, from every set whose last removal raised its
    profit, the first user whose removal raises it most."""
    tau = instance.user_totals()
    s = np.stack([instance.weights[:, list(u)].sum(axis=1) for u in artist_sets])
    a_u, total = s.sum(axis=1)[:, None], float(tau.sum())  # rows add as 1-D sums do
    removed, live = np.zeros(s.shape, dtype=bool), np.arange(len(artist_sets))
    v_u, v_t, profit = np.zeros((3, len(artist_sets), 1))  # per set, as columns
    for r in range(1, instance.n_users):
        with np.errstate(divide="ignore", invalid="ignore"):
            profit_of = _removal_profit(instance, a_u[live], total)
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
    return [PspResult(u, tuple(np.flatnonzero(out).tolist()), max(float(p), 0.0))
            for u, out, p in zip(artist_sets, removed, profit[:, 0])]


def psp_greedy(instance: Instance, artist_set) -> PspResult:
    """Hill-climb lower bound: repeatedly remove the single user whose
    removal most increases the profit, until no removal improves it."""
    validate(instance)
    return _climb(instance, [_clean_artist_set(instance, artist_set)])[0]


def _exchangeable(w: np.ndarray, x: int, y: int) -> bool:
    """True when swapping columns x and y extends to a relabeling of users
    that leaves the weight matrix unchanged, so the two artists play
    identical roles in every coalition."""
    rows = w[w[:, x] != w[:, y]]  # the users the swap changes
    swapped = rows.copy()
    swapped[:, [x, y]] = rows[:, [y, x]]
    return Counter(r.tobytes() for r in rows) == Counter(r.tobytes() for r in swapped)


def _signature_buckets(w: np.ndarray, tau: np.ndarray) -> list:
    """Columns grouped by the sorted (weight, user total) pairs of their
    nonzero entries, each group ascending. Interchangeable artists always
    share a group, since relabeling users permutes those pairs."""
    i, j = np.nonzero(w)
    o = np.lexsort((tau[i], w[i, j], j))
    i, j = i[o], j[o]
    pos = np.arange(j.size) - np.searchsorted(j, j)  # rank within the column
    # one row per column: its pairs in order, zero-padded (weights are nonzero)
    sig = np.zeros((w.shape[1], 2 * int(pos.max(initial=-1)) + 2))
    sig[j, 2 * pos], sig[j, 2 * pos + 1] = w[i, j], tau[i]
    o = np.lexsort(sig.T[::-1])  # stable, so each bucket stays ascending
    return np.split(o, np.flatnonzero((sig[o[1:]] != sig[o[:-1]]).any(axis=1)) + 1)


def _artist_orbits(instance: Instance) -> list:
    """Partition artists into interchangeability classes. Within a signature
    bucket the lowest column is compared with all others at once: no
    differing user means identical columns, two a swapped pair of users,
    and more go to ``_exchangeable``. Interchangeability is an equivalence,
    so peeling off that column's class and repeating gives the partition."""
    w = instance.weights
    orbits = []
    for rest in _signature_buckets(w, instance.user_totals()):
        while rest.size > 1:
            rep, others = rest[0], rest[1:]
            diff = w[:, others] != w[:, [rep]]
            n_diff = diff.sum(axis=0)
            joined = n_diff == 0
            pairs = np.flatnonzero(n_diff == 2)
            if pairs.size:  # a swap maps user a to b: they differ only there
                a, b = np.nonzero(diff[:, pairs].T)[1].reshape(-1, 2).T
                j = others[pairs]
                cross = (w[a, rep] == w[b, j]) & (w[a, j] == w[b, rep])
                joined[pairs] = cross & ((w[a] != w[b]).sum(axis=1) == 2)
            for q in np.flatnonzero(n_diff > 2):
                joined[q] = _exchangeable(w, rep, others[q])
            orbits.append([int(rep)] + others[joined].tolist())
            rest = others[~joined]
        if rest.size:
            orbits.append([int(rest[0])])
    return sorted(orbits)  # by first member, as the classes are disjoint


def find_suspicious(instance: Instance, k: int, mode: str = "exact"):
    """Best artist coalition of size at most k and its removal-set profit.

    Exact mode enumerates coalitions up to interchangeability of artists
    (smallest first, ties keep the lexicographically first coalition) and
    solves each with psp_exact. Greedy mode grows the coalition one artist
    at a time by best ``_climb`` profit and reports the best prefix.
    """
    validate(instance)
    if k < 0 or k > instance.n_artists:
        raise ParameterError(f"k must lie in [0, {instance.n_artists}], got {k}")
    if mode not in ("exact", "greedy"):
        raise ParameterError(f"unknown mode {mode!r}")
    if k == 0:
        return (), PspResult((), (), 0.0)

    if mode == "greedy":
        chosen, best = [], PspResult((), (), 0.0)
        block = max(1, _SOLVE_CELLS // instance.n_users)  # sets per climb
        for _ in range(k):
            sets = [tuple(sorted(chosen + [a])) for a in range(instance.n_artists) if a not in chosen]
            results = [res for i in range(0, len(sets), block)
                       for res in _climb(instance, sets[i : i + block])]
            step = max(results, key=lambda res: res.profit)  # the first best extension
            chosen = list(step.artist_set)
            best = max(best, step, key=lambda res: res.profit)  # ties keep the shorter prefix
        return best.artist_set, best

    orbits = _artist_orbits(instance)
    candidates, sizes = [], [len(o) for o in orbits]
    for total in range(1, k + 1):
        for combo in _count_vectors(sizes, total):
            candidates.append(tuple(sorted(j for o, c in zip(orbits, combo) for j in o[:c])))
            if len(candidates) > CANDIDATE_CAP:
                raise TooLargeError(f"more than {CANDIDATE_CAP} candidate coalitions")
    candidates.sort(key=lambda u: (len(u), u))
    best_u, best = (), None
    for u in candidates:
        res = psp_exact(instance, u)
        if best is None or res.profit > best.profit:
            best_u, best = u, res
    return best_u, best


def _count_vectors(sizes, total):
    """All ways to take `total` items from orbits with the given sizes, most
    from the first orbits first. A depth-first walk on an explicit stack, so
    the recursion limit does not bound the orbit count."""
    room = list(itertools.accumulate(reversed(sizes), initial=0))[::-1]  # orbits i.. hold
    stack = [((), total)]
    while stack:
        prefix, left = stack.pop()
        if left == 0:
            yield prefix + (0,) * (len(sizes) - len(prefix))
        elif left <= room[len(prefix)]:  # the later orbits can still hold the rest
            i = len(prefix)
            stack.extend((prefix + (c,), left - c) for c in range(min(sizes[i], left) + 1))


def ssbve_reduction(
    graph: BipartiteGraph, ell: int, delta: int, alpha: float = 1.0
) -> SsbveReduction:
    """Embed one expansion question into a payment instance.

    Emits t dummy users each streaming alpha*d to a private artist, one user
    per left vertex streaming 1 per incident edge plus a filler column that
    tops every such row up to d + 1, where d is the maximum left degree.
    The coalition budget is delta + 1 and the profit threshold (ell - 1)/d.
    """
    if not 1 <= ell <= graph.left_count:
        raise ParameterError(f"ell must lie in [1, {graph.left_count}], got {ell}")
    if not 0 <= delta <= graph.right_count:
        raise ParameterError(
            f"delta must lie in [0, {graph.right_count}], got {delta}"
        )
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
