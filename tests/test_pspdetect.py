"""Coalition profit search: oracles, exact solve, greedy, orbits, reduction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import instances, make, psp_enumerate
from streamshare import (
    BipartiteGraph,
    ParameterError,
    TooLargeError,
    exceeds_threshold,
    find_suspicious,
    psp_exact,
    psp_greedy,
    psp_value,
    pspdetect,
    ssbve_brute,
    ssbve_reduction,
)
from streamshare.axioms import random_instance
from streamshare.pspdetect import (
    THRESHOLD_SLACK,
    PspResult,
    _artist_orbits,
    _count_vectors,
    _exchangeable,
    _removal_groups,
    _removal_profit,
)

RNG = np.random.default_rng(31)


def _stated_example():
    # five users streaming artist 0 once, one whale streaming artist 1 five times
    return make([[1, 0]] * 5 + [[0, 5]])


def _brute_best(inst, artist_set):
    """Reference maximum over every removal set, via the literal oracle."""
    best = 0.0
    best_v = ()
    n = inst.n_users
    for r in range(n):  # all proper subsets
        for v in itertools.combinations(range(n), r):
            p = psp_value(inst, artist_set, v)
            if p > best + 1e-12:
                best, best_v = p, v
    return best, best_v


# ---------------------------------------------------------------------------
# the literal oracle


def test_psp_value_stated_example():
    inst = _stated_example()
    assert psp_value(inst, (1,), ()) == 0.0
    assert abs(psp_value(inst, (1,), (5,)) - 2.0) < 1e-12
    # removing the whale's own audience costs more than it shifts
    assert psp_value(inst, (0,), (5,)) < 0


def test_psp_value_counterfactual_of_empty_platform():
    inst = make([[2, 1]])
    got = psp_value(inst, (0,), (0,))
    # paid 2/3 of budget 1, counterfactual 0, one removal
    assert abs(got - (2 / 3 - 0.0 - 1.0)) < 1e-12


def test_psp_value_guards():
    inst = _stated_example()
    with pytest.raises(ParameterError):
        psp_value(inst, (), (0,))
    with pytest.raises(ParameterError):
        psp_value(inst, (9,), ())
    with pytest.raises(ParameterError):
        psp_value(inst, (0,), (17,))
    assert psp_value(inst, (1, 1), (5, 5)) == psp_value(inst, (1,), (5,))


# ---------------------------------------------------------------------------
# exact solve against brute force and the grouped enumeration


def test_psp_exact_stated_example():
    res = psp_exact(_stated_example(), (1,))
    assert res.user_set == (5,)
    assert abs(res.profit - 2.0) < 1e-12


def test_psp_exact_empty_when_nothing_profits():
    res = psp_exact(make([[1, 1], [1, 1]]), (0,))
    assert res.user_set == ()
    assert res.profit == 0.0


@given(instances(max_users=7, max_artists=4, positive=True))
@settings(max_examples=40, deadline=None)
def test_psp_exact_matches_brute_force(inst):
    artist_set = (0,)
    res = psp_exact(inst, artist_set)
    best, _ = _brute_best(inst, artist_set)
    assert abs(res.profit - best) < 1e-9, f"exact {res.profit} vs brute {best}"
    assert abs(psp_value(inst, artist_set, res.user_set) - res.profit) < 1e-9


def test_psp_exact_random_integer_instances():
    for trial in range(60):
        rng = np.random.default_rng([71, trial])
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 5))
        w = rng.integers(0, 5, size=(n, m)).astype(float)
        w[w.sum(axis=1) == 0, 0] = 1.0
        inst = make(w, float(rng.choice([0.3, 0.7, 1.0])))
        u = tuple(sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)))
        res = psp_exact(inst, u)
        best, _ = _brute_best(inst, u)
        assert abs(res.profit - best) < 1e-9, f"trial {trial}: {res.profit} vs {best}"


def test_psp_exact_prefers_fewer_removals():
    # two identical freeloader users contribute nothing to artist 0; removing
    # either one (not both) gives the same profit, so the result must be one
    inst = make([[1, 0]] * 4 + [[0, 6], [0, 6]])
    res = psp_exact(inst, (0,))
    best, _ = _brute_best(inst, (0,))
    assert abs(res.profit - best) < 1e-9
    if best > 0:
        for v in itertools.combinations(range(6), len(res.user_set) - 1):
            assert psp_value(inst, (0,), v) < best - 1e-12


def _two_artist_draw(t):
    rng = np.random.default_rng([97, t])
    n = int(rng.integers(4, 12))
    w = rng.integers(0, 4, size=(n, 2)).astype(float)
    w[w.sum(axis=1) == 0, 1] = 1.0
    return make(w)


def test_psp_exact_matches_enumeration_on_tied_draws():
    """Two-artist draws with duplicate users and positive profit, some with
    more than one optimal removal set: the parametric solve returns exactly
    what scoring every group count combination returns."""
    checked = tied = 0
    for t in range(600):
        inst = _two_artist_draw(t)
        _, counts, members, _, _ = _removal_groups(inst, (0,))
        expected = psp_enumerate(inst, (0,))
        if counts.max(initial=0) < 2 or expected.profit <= 0.0:
            continue
        assert psp_exact(inst, (0,)) == expected, f"draw {t}"
        checked += 1
        optima = 0
        for combo in itertools.product(*(range(int(c) + 1) for c in counts)):
            v = [i for ms, c in zip(members, combo) for i in ms[:c]]
            optima += abs(psp_value(inst, (0,), v) - expected.profit) < 1e-12
        tied += optima > 1
    assert checked == 84 and tied == 9, (checked, tied)


def test_psp_exact_matches_enumeration_on_random_instances():
    for trial in range(300):
        rng = np.random.default_rng([73, trial])
        n, m = int(rng.integers(2, 12)), int(rng.integers(2, 5))
        w = rng.integers(0, 5, size=(n, m)).astype(float)
        if trial % 2:
            w = rng.exponential(1.0, size=(n, m)) * (w > 1)
        w[w.sum(axis=1) == 0, 0] = 1.0
        inst = make(w, float(rng.choice([0.3, 0.7, 1.0])))
        u = tuple(sorted(rng.choice(m, size=int(rng.integers(1, m)), replace=False)))
        assert psp_exact(inst, u) == psp_enumerate(inst, u), f"trial {trial}"


def test_min_total_users_are_never_removed():
    values, counts, members, s, tau = _removal_groups(_stated_example(), (1,))
    pruned = set(range(6)) - {i for ms in members for i in ms}
    assert pruned == {0, 1, 2, 3, 4}, "all five minimum-total users drop out"


def test_psp_exact_is_invariant_to_the_solve_block(monkeypatch):
    """Blocks of 1 and 3 removal counts per solve step give what one block
    gives."""
    insts = [_two_artist_draw(t) for t in range(40)] + [_distinct_totals(24, True)]
    expected = [psp_exact(inst, (0,)) for inst in insts]
    assert sum(e.profit > 0 for e in expected) >= 10
    for cells in (1, 3 * 23):
        monkeypatch.setattr(pspdetect, "_SOLVE_CELLS", cells)
        assert [psp_exact(inst, (0,)) for inst in insts] == expected, cells


def _distinct_totals(n, flip_every_third=False):
    # n users with pairwise distinct totals: one is pruned as the minimum and
    # n - 1 singleton groups remain, so the enumeration has 2^(n-1) sets
    w = np.array([[i + 1.0, 1.0] for i in range(n)])
    if flip_every_third:
        w[::3] = w[::3, ::-1]
    return make(w)


def test_psp_exact_has_no_combination_cap():
    # 2^23 removal sets, beyond what the enumeration could score
    for flip in (False, True):
        inst = _distinct_totals(24, flip)
        for u in ((0,), (1,)):
            res = psp_exact(inst, u)
            assert abs(psp_value(inst, u, res.user_set) - res.profit) < 1e-12
            assert res.profit >= psp_greedy(inst, u).profit
    assert psp_exact(_distinct_totals(24, True), (0,)).profit > 1.8


def test_psp_exact_matches_enumeration_on_sixteen_users():
    for flip in (False, True):
        inst = _distinct_totals(16, flip)
        for u in ((0,), (1,)):
            assert psp_exact(inst, u) == psp_enumerate(inst, u)


@given(instances(max_users=8, max_artists=4, positive=True))
@settings(max_examples=40, deadline=None)
def test_psp_greedy_never_beats_exact(inst):
    u = (0, 1)
    lo = psp_greedy(inst, u)
    hi = psp_exact(inst, u)
    assert lo.profit <= hi.profit + 1e-12
    assert abs(psp_value(inst, u, lo.user_set) - lo.profit) < 1e-9


# ---------------------------------------------------------------------------
# artist interchangeability


def test_exchangeable_identical_columns():
    w = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert _exchangeable(w, 0, 1)


def test_exchangeable_swapped_pair_of_users():
    # users 0 and 1 mirror each other, so swapping the columns relabels them
    w = np.array([[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]])
    assert _exchangeable(w, 0, 1)


def test_not_exchangeable_when_totals_differ():
    w = np.array([[3.0, 1.0, 9.0], [1.0, 3.0, 0.0], [2.0, 2.0, 1.0]])
    # same column multiset for 0 and 1, but swapping users 0 and 1 breaks
    # column 2, and no other relabeling exists
    assert not _exchangeable(w, 0, 1)


def test_orbits_on_symmetric_instance():
    inst = make([[1, 1, 5], [1, 1, 5]])
    orbits = _artist_orbits(inst)
    assert orbits == [[0, 1], [2]]


def test_orbits_fall_to_singletons_on_generic_weights():
    inst = make([[1, 2, 3], [4, 5, 6]])
    assert _artist_orbits(inst) == [[0], [1], [2]]


def _pairwise_orbits(inst):
    """Reference partition: each artist joins the first class whose first
    member it is exchangeable with."""
    classes = []
    for j in range(inst.n_artists):
        for members in classes:
            if _exchangeable(inst.weights, members[0], j):
                members.append(j)
                break
        else:
            classes.append([j])
    return classes


def _planted(rng, kind):
    """Small integer instance where column 3 copies column 1 except for one
    planted relation; the users it touches share one total, so both columns
    keep one signature and reach the vectorized orbit step."""
    n, m = int(rng.integers(6, 10)), int(rng.integers(5, 8))
    w = rng.integers(0, 3, size=(n, m)).astype(float)
    w[:, 3] = w[:, 1]
    swap = [0, 3, 2, 1, *range(4, m)]
    a, b, c, d = rng.choice(n, size=4, replace=False)
    if kind == "swap":  # users a and b mirror each other
        w[a, [1, 3]] = [1.0, 2.0]
        w[b] = w[a, swap]
    elif kind == "not-swap":  # users a and b differ, but not by the swap
        w[b] = w[a]
        w[a, :4] = [1.0, 1.0, 2.0, 2.0]
        w[b, :4] = [2.0, 2.0, 1.0, 1.0]
    elif kind == "three-cycle":  # users a, b, c cycle between the columns
        w[[a, b, c]] = 0.0
        w[[a, b, c], 0] = [3.0, 1.0, 2.0]
        w[[a, b, c], 1] = [1.0, 2.0, 3.0]
        w[[a, b, c], 3] = [2.0, 3.0, 1.0]
    elif kind == "two-swaps":  # two mirrored pairs of users
        w[a, [1, 3]] = [1.0, 0.0]
        w[c, [1, 3]] = [2.0, 0.0]
        w[b], w[d] = w[a, swap], w[c, swap]
    w[w.sum(axis=1) == 0, 0] = 1.0
    return make(w)


@pytest.mark.parametrize("kind", ["duplicate", "swap", "not-swap", "three-cycle", "two-swaps"])
def test_orbits_match_pairwise_reference(kind):
    joined = 0
    for t in range(60):
        inst = _planted(np.random.default_rng([41, t]), kind)
        orbits = _artist_orbits(inst)
        assert orbits == _pairwise_orbits(inst), f"draw {t}"
        joined += any(1 in o and 3 in o for o in orbits)
    # planted symmetries join columns 1 and 3; the two decoys never do
    assert joined == (0 if kind in ("not-swap", "three-cycle") else 60)


def test_orbits_match_pairwise_reference_on_reductions():
    for n_left, n_right in ((1, 2), (2, 2), (2, 3), (3, 2)):
        cells = list(itertools.product(range(n_left), range(n_right)))
        for bits in range(1, 1 << len(cells), 3):
            edges = tuple(cells[i] for i in range(len(cells)) if bits >> i & 1)
            graph = BipartiteGraph(n_left, n_right, edges)
            inst = ssbve_reduction(graph, 1, n_right // 2).instance
            assert _artist_orbits(inst) == _pairwise_orbits(inst), (n_left, n_right, bits)


def test_count_vectors_order_matches_a_sorted_product():
    for sizes in ([], [2], [1, 0, 3], [2, 2, 1, 3], [3, 1, 2]):
        for total in range(sum(sizes) + 2):
            want = sorted(
                (c for c in itertools.product(*(range(s + 1) for s in sizes))
                 if sum(c) == total),
                reverse=True,
            )
            assert list(_count_vectors(sizes, total)) == want, (sizes, total)


def test_count_vectors_is_not_bounded_by_recursion():
    got = list(_count_vectors([1] * 1200, 1))
    assert len(got) == 1200
    assert got[0] == (1,) + (0,) * 1199 and got[-1] == (0,) * 1199 + (1,)


# ---------------------------------------------------------------------------
# coalition search


def test_find_suspicious_stated_example():
    inst = _stated_example()
    for mode in ("exact", "greedy"):
        u, res = find_suspicious(inst, 1, mode)
        assert u == (1,)
        assert res.user_set == (5,)
        assert abs(res.profit - 2.0) < 1e-12


def test_find_suspicious_k_zero_and_guards():
    inst = _stated_example()
    assert find_suspicious(inst, 0) == ((), psp_exact(inst, (0,)).__class__((), (), 0.0))
    with pytest.raises(ParameterError):
        find_suspicious(inst, -1)
    with pytest.raises(ParameterError):
        find_suspicious(inst, 3)
    with pytest.raises(ParameterError):
        find_suspicious(inst, 1, mode="other")


def test_find_suspicious_greedy_le_exact():
    for trial in range(25):
        rng = np.random.default_rng([83, trial])
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        w = rng.integers(0, 6, size=(n, m)).astype(float)
        w[w.sum(axis=1) == 0, 0] = 1.0
        inst = make(w)
        k = int(rng.integers(1, m + 1))
        _, greedy = find_suspicious(inst, k, "greedy")
        _, exact = find_suspicious(inst, k, "exact")
        assert greedy.profit <= exact.profit + 1e-12


def _greedy_by_calls(inst, k):
    """The greedy coalition search as one psp_greedy call per remaining
    artist and step: first best extension, best prefix on a strict gain."""
    chosen, best, remaining = [], PspResult((), (), 0.0), list(range(inst.n_artists))
    for _ in range(k):
        step_best = None
        for a in remaining:
            res = psp_greedy(inst, chosen + [a])
            if step_best is None or res.profit > step_best.profit:
                step_best, step_artist = res, a
        chosen.append(step_artist)
        remaining.remove(step_artist)
        if step_best.profit > best.profit:
            best = step_best
    return best.artist_set, best


def _climb_one_set(inst, u):
    """psp_greedy's hill-climb for one artist set, one user per step."""
    s = inst.weights[:, list(u)].sum(axis=1)
    tau = inst.user_totals()
    profit_of = _removal_profit(inst, float(s.sum()), float(tau.sum()))
    removed, v_u, v_t, profit = np.zeros(inst.n_users, dtype=bool), 0.0, 0.0, 0.0
    for r in range(1, inst.n_users):
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = profit_of(r, v_u, v_t, s, tau)
        cand[removed] = -np.inf
        pick = int(np.argmax(cand))
        if cand[pick] <= profit:
            break
        removed[pick] = True
        v_u, v_t, profit = v_u + float(s[pick]), v_t + float(tau[pick]), float(cand[pick])
    return PspResult(tuple(u), tuple(np.flatnonzero(removed).tolist()), max(profit, 0.0))


@pytest.mark.parametrize("cells", [None, 1, 40])  # 1: one candidate set per climb
def test_greedy_search_equals_a_loop_of_psp_greedy_calls(cells, monkeypatch):
    if cells is not None:
        monkeypatch.setattr(pspdetect, "_SOLVE_CELLS", cells)
    profitable = 0
    for t in range(300):
        rng = np.random.default_rng([89, t])
        # alpha = 1 on every other draw, where removals profit more often
        inst = random_instance(rng, (1, 14), (1, 12), alpha=1.0 if t % 2 else None)
        k = int(rng.integers(1, inst.n_artists + 1))
        u = tuple(sorted(rng.choice(inst.n_artists, size=int(rng.integers(1, k + 1)),
                                    replace=False).tolist()))
        found = find_suspicious(inst, k, "greedy")
        assert found == _greedy_by_calls(inst, k), t
        assert psp_greedy(inst, u) == _climb_one_set(inst, u), t
        profitable += found[1].profit > 0
    assert profitable >= 60  # the draws reach the hill-climb's removal steps


def test_greedy_search_validates_once(monkeypatch):
    calls = []
    monkeypatch.setattr(pspdetect, "validate", lambda inst: calls.append(inst))
    monkeypatch.setattr(pspdetect, "psp_greedy", None)  # no per-candidate call
    inst = random_instance(np.random.default_rng(5), n_users=(40, 40), n_artists=(9, 9))
    for k in (1, 3, 9):
        calls.clear()
        find_suspicious(inst, k, "greedy")
        assert calls == [inst]


def test_find_suspicious_exact_is_a_true_maximum_over_coalitions():
    inst = make([[2, 0, 1], [0, 3, 1], [1, 1, 4], [5, 0, 0]])
    k = 2
    _, res = find_suspicious(inst, k, "exact")
    best = 0.0
    for size in (1, 2):
        for u in itertools.combinations(range(3), size):
            best = max(best, psp_exact(inst, u).profit)
    assert abs(res.profit - best) < 1e-9


def test_find_suspicious_candidate_cap():
    # forty pairwise distinct columns leave no interchangeability to exploit;
    # coalitions of size up to 10 blow past the candidate cap
    w = np.arange(1, 41, dtype=float)[None, :] + np.zeros((2, 40))
    w[1] = np.arange(1, 41, dtype=float) ** 2
    with pytest.raises(TooLargeError):
        find_suspicious(make(w), 10, "exact")


# ---------------------------------------------------------------------------
# the hardness reduction


def _path_graph():
    return BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 1)))


def test_bipartite_graph_guards():
    with pytest.raises(ParameterError):
        BipartiteGraph(0, 2, ())
    with pytest.raises(ParameterError):
        BipartiteGraph(2, 2, ((0, 5),))
    with pytest.raises(ParameterError):
        BipartiteGraph(2, 2, ((0, 0), (0, 0)))
    g = _path_graph()
    assert list(g.left_degrees()) == [2, 1]
    assert g.neighborhood((1,)) == frozenset({1})
    assert g.neighborhood((0, 1)) == frozenset({0, 1})


def test_reduction_structure_on_the_path():
    red = ssbve_reduction(_path_graph(), ell=2, delta=1)
    inst = red.instance
    assert (red.d, red.k, red.t) == (2, 2, 120)
    assert abs(red.eps - 0.025) < 1e-15
    assert abs(red.threshold - 0.5) < 1e-15
    assert inst.n_users == red.t + 2
    assert inst.n_artists == red.t + 3
    # dummies stream alpha*d to their own artist, edge rows total d + 1
    assert np.allclose(np.diag(inst.weights[: red.t, : red.t]), 2.0)
    assert np.allclose(inst.weights[red.t :].sum(axis=1), 3.0)
    assert inst.weights[red.t, red.t] == 1.0 and inst.weights[red.t, red.t + 1] == 1.0
    assert inst.weights[red.t + 1, red.t + 1] == 1.0
    assert inst.weights[red.t, -1] == 1.0 and inst.weights[red.t + 1, -1] == 2.0


def test_reduction_guards():
    g = _path_graph()
    with pytest.raises(ParameterError):
        ssbve_reduction(g, ell=0, delta=1)
    with pytest.raises(ParameterError):
        ssbve_reduction(g, ell=3, delta=1)
    with pytest.raises(ParameterError):
        ssbve_reduction(g, ell=1, delta=3)
    with pytest.raises(ParameterError):
        ssbve_reduction(g, ell=1, delta=1, alpha=0.0)
    with pytest.raises(ParameterError):
        ssbve_reduction(BipartiteGraph(1, 1, ()), ell=1, delta=0)


def test_brute_expansion_answers():
    path = _path_graph()
    assert ssbve_brute(path, ell=1, delta=1) is True  # S={1} has N={1}
    assert ssbve_brute(path, ell=2, delta=1) is False
    assert ssbve_brute(path, ell=2, delta=2) is True
    k22 = BipartiteGraph(2, 2, tuple((u, v) for u in range(2) for v in range(2)))
    assert ssbve_brute(k22, ell=1, delta=1) is False
    assert ssbve_brute(k22, ell=1, delta=2) is True


@pytest.mark.parametrize(
    "graph",
    [
        _path_graph(),
        BipartiteGraph(2, 2, tuple((u, v) for u in range(2) for v in range(2))),
        BipartiteGraph(3, 2, ((0, 0), (1, 0), (2, 1))),
    ],
    ids=["path", "k22", "fork"],
)
def test_reduction_equivalence_small(graph):
    """Exact search clears the profit threshold exactly on the yes instances."""
    d = int(graph.left_degrees().max())
    for delta in range(graph.right_count + 1):
        red = ssbve_reduction(graph, ell=1, delta=delta)
        _, res = find_suspicious(red.instance, red.k, "exact")
        for ell in range(1, graph.left_count + 1):
            expected = ssbve_brute(graph, ell, delta)
            got = exceeds_threshold(res.profit, (ell - 1) / d)
            assert got == expected, f"ell={ell} delta={delta}: {res.profit}"


def test_exceeds_threshold_boundary():
    assert not exceeds_threshold(0.5, 0.5)
    assert not exceeds_threshold(0.5 + 0.5 * THRESHOLD_SLACK, 0.5)
    assert exceeds_threshold(0.5 + 2.0 * THRESHOLD_SLACK, 0.5)
