"""Coalition profit search: oracle, exact enumeration, greedy, reduction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import instances, make
from streamshare import (
    BipartiteGraph,
    ParameterError,
    TooLargeError,
    exceeds_threshold,
    find_suspicious,
    psp_exact,
    psp_greedy,
    psp_value,
    ssbve_brute,
    ssbve_reduction,
)
from streamshare.pspdetect import (
    THRESHOLD_SLACK,
    _artist_orbits,
    _exchangeable,
    _removal_groups,
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
# exact enumeration against brute force


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


def test_psp_exact_is_chunk_invariant(monkeypatch):
    """Chunks of 1, 3 and 7 combinations put tied optima in different chunks;
    the cross-chunk tie-break must pick what one default chunk picks."""
    import streamshare.pspdetect as pspdetect

    checked = tied = 0
    for t in range(600):
        inst = _two_artist_draw(t)
        _, counts, members, _, _ = _removal_groups(inst, (0,))
        expected = psp_exact(inst, (0,))
        if counts.max(initial=0) < 2 or expected.profit <= 0.0:
            continue
        for size in (1, 3, 7):
            monkeypatch.setattr(pspdetect, "_CHUNK", size)
            assert psp_exact(inst, (0,)) == expected, f"draw {t}, chunk {size}"
        monkeypatch.undo()
        checked += 1
        optima = 0
        for combo in itertools.product(*(range(int(c) + 1) for c in counts)):
            v = [i for ms, c in zip(members, combo) for i in ms[:c]]
            optima += abs(psp_value(inst, (0,), v) - expected.profit) < 1e-12
        tied += optima > 1
    assert checked >= 50 and tied >= 3, (checked, tied)


def test_min_total_users_are_never_removed():
    values, counts, members, s, tau = _removal_groups(_stated_example(), (1,))
    pruned = set(range(6)) - {i for ms in members for i in ms}
    assert pruned == {0, 1, 2, 3, 4}, "all five minimum-total users drop out"


def test_psp_exact_combo_cap():
    # 24 users with pairwise distinct totals: one is pruned as the minimum,
    # 23 singleton groups remain, and 2^23 exceeds the enumeration cap
    w = np.array([[i + 1.0, 1.0] for i in range(24)])
    with pytest.raises(TooLargeError):
        psp_exact(make(w), (0,))


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
