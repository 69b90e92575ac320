"""Suspicious-coalition profit search under the platform-wide proportional rule.

Given an artist set U, the profit of a removal set V of users is what U is
paid on the full instance, minus what U would have been paid without V,
minus one subscription fee per removed user. Three layers live here:

* exact maximization over removal sets (``psp_exact``), feasible because
  the profit depends on a user only through two numbers, so identical
  users collapse into count groups;
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

# Cap on enumerated removal sets per exact call. With all-distinct user rows
# this is the classic 2^n wall at n = 22; duplicate rows compress far below it.
COMBO_CAP = 1 << 22

# Cap on candidate artist sets enumerated by the exact coalition search.
CANDIDATE_CAP = 1 << 17

# Removal combinations scored per vectorized step of the exact enumeration.
_CHUNK = 1 << 18

THRESHOLD_SLACK = 1e-9


class TooLargeError(ValueError):
    """Exact enumeration would exceed its work cap."""


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
    """Collapse users into (streams-into-U, total) groups, dropping users at
    the minimum total. Removing a minimum-total user changes the target
    payment by at most alpha, never covering its unit cost when alpha <= 1,
    so such users are never needed in an optimal removal set."""
    w = instance.weights
    s = w[:, list(artist_set)].sum(axis=1)
    tau = instance.user_totals()
    keep = tau > tau.min()
    pairs = np.stack([s[keep], tau[keep]], axis=1)
    if pairs.shape[0] == 0:
        return np.empty((0, 2)), np.empty(0, dtype=int), [], s, tau
    values, inverse, counts = np.unique(
        pairs, axis=0, return_inverse=True, return_counts=True
    )
    kept_idx = np.flatnonzero(keep)
    members = [kept_idx[inverse == g] for g in range(values.shape[0])]
    return values, counts, members, s, tau


def _removal_profit(instance: Instance, s: np.ndarray, tau: np.ndarray):
    """Profit of a removal set from the per-user streams into the artist set
    (``s``) and the user totals (``tau``): a function of the removed count r
    and the removed streams v_u into the set and v_t in total. ``du`` and
    ``dt`` subtract one more user's pair after those sums, as the greedy
    step does, without re-rounding them."""
    n = instance.n_users
    alpha = instance.alpha
    a_u = float(s.sum())
    total = float(tau.sum())
    base = alpha * n * a_u / total

    def profit(r, v_u, v_t, du=0.0, dt=0.0):
        return base - alpha * (n - r) * (a_u - v_u - du) / (total - v_t - dt) - r

    return profit


def psp_exact(instance: Instance, artist_set) -> PspResult:
    """Maximum removal-set profit for one artist set, by grouped enumeration.

    Enumerates every count combination over the user groups (product of
    group sizes plus one), vectorized in chunks. Raises TooLargeError when
    that product exceeds COMBO_CAP. Ties prefer fewer removed users, then
    the lowest-indexed ones.
    """
    validate(instance)
    u = _clean_artist_set(instance, artist_set)
    values, counts, members, s, tau = _removal_groups(instance, u)
    radices = counts + 1
    n_combos = math.prod(radices.tolist())
    if n_combos > COMBO_CAP:
        raise TooLargeError(
            f"{len(counts)} user groups give more than {COMBO_CAP} removal combinations"
        )
    if n_combos == 1:
        return PspResult(u, (), 0.0)
    strides = n_combos // np.cumprod(radices)
    profit_of = _removal_profit(instance, s, tau)

    # (-profit, removed count, flat index); only a positive profit beats it
    best_key = (0.0, 0, -1)
    best_digits = None
    for start in range(0, n_combos, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n_combos), dtype=np.int64)
        digits = (idx[:, None] // strides) % radices
        r = digits.sum(axis=1)
        profit = profit_of(r, digits @ values[:, 0], digits @ values[:, 1])
        top = float(profit.max())
        ties = np.flatnonzero(profit == top)
        pick = ties[np.argmin(r[ties])]
        key = (-top, int(r[pick]), start + int(pick))
        if key < best_key:
            best_key, best_digits = key, digits[pick]

    if best_digits is None:
        return PspResult(u, (), 0.0)
    removed = []
    for g, take in enumerate(best_digits):
        removed.extend(int(i) for i in members[g][: int(take)])
    return PspResult(u, tuple(sorted(removed)), -best_key[0])


def psp_greedy(instance: Instance, artist_set) -> PspResult:
    """Hill-climb lower bound: repeatedly remove the single user whose
    removal most increases the profit, until no removal improves it."""
    validate(instance)
    u = _clean_artist_set(instance, artist_set)
    s = instance.weights[:, list(u)].sum(axis=1)
    tau = instance.user_totals()
    profit_of = _removal_profit(instance, s, tau)
    n = instance.n_users

    removed_mask = np.zeros(n, dtype=bool)
    r = 0
    v_u = 0.0
    v_t = 0.0
    profit = 0.0
    while r < n - 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            cand_profit = profit_of(r + 1, v_u, v_t, s, tau)
        cand_profit[removed_mask] = -np.inf
        pick = int(np.argmax(cand_profit))
        if cand_profit[pick] <= profit:
            break
        removed_mask[pick] = True
        r += 1
        v_u += float(s[pick])
        v_t += float(tau[pick])
        profit = float(cand_profit[pick])
    users = tuple(int(i) for i in np.flatnonzero(removed_mask))
    return PspResult(u, users, max(profit, 0.0))


def _column_signature(w: np.ndarray, tau: np.ndarray, j: int) -> tuple:
    nz = np.flatnonzero(w[:, j])
    pairs = sorted((float(w[i, j]), float(tau[i])) for i in nz)
    return tuple(pairs)


def _exchangeable(w: np.ndarray, x: int, y: int) -> bool:
    """True when swapping columns x and y extends to a relabeling of users
    that leaves the weight matrix unchanged, so the two artists play
    identical roles in every coalition."""
    diff = np.flatnonzero(w[:, x] != w[:, y])
    if diff.size == 0:
        return True
    perm = np.arange(w.shape[1])
    perm[x], perm[y] = y, x
    # two differing users that are each other's image under the swap
    if diff.size == 2 and np.array_equal(w[diff[0], perm], w[diff[1]]):
        return True
    swapped = Counter()
    original = Counter()
    for i in diff:
        original[w[i].tobytes()] += 1
        swapped[w[i][perm].tobytes()] += 1
    return swapped == original


def _artist_orbits(instance: Instance) -> list:
    """Partition artists into interchangeability classes. Only artists whose
    column value/total multisets match are ever compared, so generic
    instances fall straight through to singleton orbits."""
    w = instance.weights
    tau = instance.user_totals()
    buckets = {}
    for j in range(instance.n_artists):
        buckets.setdefault(_column_signature(w, tau, j), []).append(j)
    orbits = []
    for _, js in sorted(buckets.items(), key=lambda kv: kv[1][0]):
        reps = []  # [representative, members] pairs within this bucket
        for j in js:
            for entry in reps:
                if _exchangeable(w, entry[0], j):
                    entry[1].append(j)
                    break
            else:
                reps.append((j, [j]))
        orbits.extend(members for _, members in reps)
    orbits.sort(key=lambda ms: ms[0])
    return orbits


def find_suspicious(instance: Instance, k: int, mode: str = "exact"):
    """Best artist coalition of size at most k and its removal-set profit.

    Exact mode enumerates coalitions up to interchangeability of artists
    (smallest first, ties keep the lexicographically first coalition) and
    solves each with psp_exact. Greedy mode grows the coalition one artist
    at a time by best psp_greedy profit and reports the best prefix.
    """
    validate(instance)
    if k < 0 or k > instance.n_artists:
        raise ParameterError(f"k must lie in [0, {instance.n_artists}], got {k}")
    if mode not in ("exact", "greedy"):
        raise ParameterError(f"unknown mode {mode!r}")
    if k == 0:
        return (), PspResult((), (), 0.0)

    if mode == "greedy":
        chosen = []
        best = PspResult((), (), 0.0)
        remaining = list(range(instance.n_artists))
        for _ in range(k):
            step_best = None
            for a in remaining:
                res = psp_greedy(instance, chosen + [a])
                if step_best is None or res.profit > step_best.profit:
                    step_best = res
                    step_artist = a
            chosen.append(step_artist)
            remaining.remove(step_artist)
            if step_best.profit > best.profit:
                best = step_best
        return best.artist_set, best

    orbits = _artist_orbits(instance)
    candidates = []
    sizes = [len(o) for o in orbits]
    for total in range(1, k + 1):
        for combo in _count_vectors(sizes, total):
            u = []
            for o, c in zip(orbits, combo):
                u.extend(o[:c])
            candidates.append(tuple(sorted(u)))
            if len(candidates) > CANDIDATE_CAP:
                raise TooLargeError(
                    f"more than {CANDIDATE_CAP} candidate coalitions"
                )
    candidates.sort(key=lambda u: (len(u), u))
    best = None
    best_u = ()
    for u in candidates:
        res = psp_exact(instance, u)
        if best is None or res.profit > best.profit:
            best = res
            best_u = u
    return best_u, best


def _count_vectors(sizes, total):
    """All ways to take `total` items from orbits with the given sizes."""
    if not sizes:
        if total == 0:
            yield ()
        return
    first = sizes[0]
    for c in range(min(first, total), -1, -1):
        for rest in _count_vectors(sizes[1:], total - c):
            yield (c,) + rest


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
