"""Coalition profit search: oracles, exact solve, greedy, orbits, reduction."""

import itertools
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instances, make, psp_enumerate
from streamshare import (
    BipartiteGraph,
    ParameterError,
    TooLargeError,
    core,
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
from streamshare.experiments import SynthConfig, gen_synthetic
from streamshare.ingest import default_ids, load_document, save_document
from streamshare.pspdetect import (
    THRESHOLD_SLACK,
    PspResult,
    _artist_orbits,
    _coalitions,
    _exchangeable,
    _profit_bounds,
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


@pytest.mark.parametrize("rows, orbits", [
    ([[1, 2, 4], [3, 3, 1], [2, 1, 4]], [[0, 1], [2]]),
    # the same pair of users, but they differ in two more columns
    ([[1, 2, 4, 0], [3, 3, 1, 0], [2, 1, 3, 1]], [[0], [1], [2], [3]]),
])
def test_orbits_read_a_swap_in_the_first_and_last_users(rows, orbits):
    """Columns 0 and 1 differ only in the first and the last user, who share
    a total: the pair step reads them from either end of the users."""
    inst = make(rows)
    assert _artist_orbits(inst) == orbits == _pairwise_orbits(inst)


def test_orbits_match_pairwise_reference_on_reductions():
    for n_left, n_right in ((1, 2), (2, 2), (2, 3), (3, 2)):
        cells = list(itertools.product(range(n_left), range(n_right)))
        for bits in range(1, 1 << len(cells), 3):
            edges = tuple(cells[i] for i in range(len(cells)) if bits >> i & 1)
            graph = BipartiteGraph(n_left, n_right, edges)
            inst = ssbve_reduction(graph, 1, n_right // 2).instance
            assert all(np.array_equal(a, b) for a, b in zip(inst.nonzero(), np.nonzero(inst.weights)))
            assert _artist_orbits(inst) == _pairwise_orbits(inst), (n_left, n_right, bits)


@st.composite
def _symmetric_weights(draw):
    """A small matrix of weights 0, 1 and 2, half the time stacked on a copy
    of itself with its columns permuted: the permutation then relabels the
    users, and a transposition in it joins two columns while a longer cycle
    only makes its columns look alike."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    w = np.array(draw(st.lists(st.integers(0, 2), min_size=n * m, max_size=n * m)), dtype=float)
    w = w.reshape(n, m)
    w[w.sum(axis=1) == 0, 0] = 1.0
    if draw(st.booleans()):
        w = np.vstack((w, w[:, draw(st.permutations(range(m)))]))
    return w


@given(_symmetric_weights(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_orbits_match_pairwise_reference_on_loaded_documents(w, as_text):
    """A document in save_document's layout is read by the bytes path, one
    in json.dump's default spacing by the text path. Either way the view
    the loaded instance finds is np.nonzero of the weights and the orbits
    are the pairwise reference's."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        if as_text:
            users, artists = default_ids(make(w))
            doc = {"version": 1, "alpha": 1.0, "user_ids": list(users),
                   "artist_ids": list(artists), "weights": w.tolist()}
            with open(path, "w") as fh:
                json.dump(doc, fh)
        else:
            save_document(path, make(w))
        inst = load_document(path).instance
    assert all(np.array_equal(a, b) for a, b in zip(inst.nonzero(), np.nonzero(inst.weights)))
    assert _artist_orbits(inst) == _pairwise_orbits(inst)


def _coarse_buckets(keep):
    """``_signature_buckets`` with its key cut to the first ``keep`` of
    (count, sum of weights), so columns alike only in those share a bucket."""
    real = pspdetect._signature_buckets

    def buckets(instance):
        entries, _, _ = real(instance)
        _, v, _, count = entries
        m = instance.n_artists
        key = np.column_stack((count, np.bincount(np.repeat(np.arange(m), count), v, m)))[:, :keep]
        o = np.lexsort(key.T[::-1])
        key = key[o]
        return entries, o, np.concatenate(([0], (key[1:] != key[:-1]).any(axis=1).cumsum()))

    return buckets


@pytest.mark.parametrize("keep", [None, 1, 2])
def test_orbits_with_a_widely_streamed_artist(monkeypatch, keep):
    """The planted draws with one more artist whom every user streams. With
    the bucket key cut to the count, or the count and weight sum, columns
    alike only in those share a bucket, and the joins must still split them
    as the pairwise reference does."""
    if keep is not None:
        monkeypatch.setattr(pspdetect, "_signature_buckets", _coarse_buckets(keep))
    for kind in ("duplicate", "swap", "not-swap", "three-cycle", "two-swaps"):
        for t in range(20):
            w = _planted(np.random.default_rng([53, t]), kind).weights
            inst = make(np.hstack((w, np.ones((w.shape[0], 1)))))
            assert _artist_orbits(inst) == _pairwise_orbits(inst), (keep, kind, t)


def test_orbits_split_columns_that_share_a_bucket_key():
    """Columns 0, 1 and 2 each hold two entries whose weights, user totals
    and products sum to 4, 8 and 16, so they share one bucket; only 0 and 2
    are interchangeable (users 0 and 1 swap), and the joins split off 1."""
    inst = make([[1, 0, 3, 0], [3, 0, 1, 0], [0, 2, 0, 1], [0, 2, 0, 3]])
    _, columns, bucket = pspdetect._signature_buckets(inst)
    shared = bucket[np.isin(columns, [0, 1, 2])]
    assert (shared == shared[0]).all() and bucket[columns == 3][0] != shared[0]
    assert _artist_orbits(inst) == [[0, 2], [1], [3]] == _pairwise_orbits(inst)


def test_orbits_reject_unequal_sorted_pairs_without_the_dense_test(monkeypatch):
    """Columns 0 and 1 share their count and the sums 4, 10 and 20 of their
    weights, user totals and products, so they share a bucket, yet they
    differ in all four users. Their sorted (weight, user total) pairs,
    (1, 5), (3, 5) against (2, 4), (2, 6), already tell them apart."""
    inst = make([[1, 0, 4], [3, 0, 2], [0, 2, 2], [0, 2, 4]])
    _, columns, bucket = pspdetect._signature_buckets(inst)
    assert bucket[columns == 0][0] == bucket[columns == 1][0]
    calls = []
    monkeypatch.setattr(pspdetect, "_exchangeable", lambda *args: calls.append(args))
    assert _artist_orbits(inst) == [[0], [1], [2]] == _pairwise_orbits(inst)
    assert calls == []


def test_orbits_join_columns_whose_sums_depend_on_the_order():
    """Columns 0 and 1 are interchangeable (users 0 and 2 swap), but in row
    order column 0's weights sum to 1e16 and column 1's to 1e16 + 2: the key
    adds each column in sorted order, so they share a bucket and join."""
    inst = make([[1e16, 1], [1, 1], [1, 1e16]])
    assert _artist_orbits(inst) == [[0, 1]] == _pairwise_orbits(inst)


@pytest.mark.parametrize("n_users, n_artists, seeds", [(1000, 100, [1]), (2400, 240, [1, 2, 3, 4])],
                         ids=["1000x100", "2400x240"])
def test_gen_catalog_orbits_need_no_dense_test(monkeypatch, n_users, n_artists, seeds):
    """On these gen catalogs some columns agree in their leading sorted
    (weight, user total) pairs and differ further on; the whole-column sums
    tell them apart, so no bucket holds columns the joins must hand to the
    dense pairwise test."""
    calls = []
    monkeypatch.setattr(pspdetect, "_exchangeable", lambda *args: calls.append(args))
    for seed in seeds:
        _artist_orbits(gen_synthetic(SynthConfig(n_users, n_artists, seed=seed)))
    assert calls == []


def test_bucket_keys_follow_the_nonzeros():
    """On 2000 users by 1000 artists where every user streams artist 0, a
    key padded to the longest column would take 32 MB; the grouping's peak
    stays within a few hundred bytes per nonzero, and the one planted pair
    of equal columns is the only orbit joined."""
    rng = np.random.default_rng(59)
    w = rng.exponential(size=(2000, 1000)) * (rng.random((2000, 1000)) < 0.005)
    w[:, 0], w[:, 2] = 1.0, w[:, 1]
    inst = make(w)
    inst.nonzero(), inst.user_totals()  # the scan reads the dense matrix
    nnz = inst.nonzero()[0].size
    tracemalloc.start()
    try:
        pspdetect._signature_buckets(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * nnz < 2000 * 1000 * 16
    assert _artist_orbits(inst) == [[0], [1, 2], *([j] for j in range(3, 1000))]


def _product_coalitions(orbits, k):
    """Every coalition of 1 to k artists that takes a nonempty prefix of each
    of up to k orbits, in (size, lexicographic) order: the orbits it touches,
    then a product over how many of each it takes."""
    return sorted(
        (tuple(sorted(j for o, c in zip(touched, combo) for j in o[:c]))
         for r in range(1, k + 1) for touched in itertools.combinations(orbits, r)
         for combo in itertools.product(*(range(1, len(o) + 1) for o in touched))
         if sum(combo) <= k),
        key=lambda u: (len(u), u),
    )


def test_coalitions_match_a_product_of_orbit_prefixes():
    for orbits in ([], [[0]], [[1, 0]], [[0, 2], [1]], [[0, 3], [1], [2, 5, 4]],
                   [[0, 4, 5], [1, 2], [3]], [[0], [1], [2], [3], [4], [5]]):
        for k in range(sum(map(len, orbits)) + 2):
            got = list(_coalitions(orbits, k))
            assert all(list(u) == sorted(u) for u in got), (orbits, k)
            assert sorted(got) == sorted(_product_coalitions(orbits, k)), (orbits, k)


def test_coalitions_over_1200_singleton_orbits():
    singles = [[j] for j in range(1200)]
    assert sorted(_coalitions(singles, 1)) == [(j,) for j in range(1200)]
    assert sum(1 for _ in _coalitions(singles, 2)) == 1200 + 1200 * 1199 // 2


# ---------------------------------------------------------------------------
# coalition search


def test_find_suspicious_stated_example():
    inst = _stated_example()
    for mode in ("exact", "greedy"):
        u, res = find_suspicious(inst, 1, mode)
        assert u == (1,)
        assert res.user_set == (5,)
        assert abs(res.profit - 2.0) < 1e-12


@pytest.mark.parametrize("bad", [0.9, 2.9, np.float64(0.0), "0"])
def test_artist_and_user_indices_must_be_whole(bad):
    inst = _stated_example()
    with pytest.raises(ParameterError, match="whole"):
        psp_exact(inst, [bad])
    with pytest.raises(ParameterError, match="whole"):
        psp_value(inst, [bad], ())
    with pytest.raises(ParameterError, match="whole"):
        psp_value(inst, (0,), [bad])
    for mode in ("exact", "greedy"):
        with pytest.raises(ParameterError, match="whole"):
            find_suspicious(inst, bad, mode)
    # int() would have kept the edge at vertex 0 (2 for 2.9)
    with pytest.raises(ParameterError, match="whole"):
        BipartiteGraph(3, 3, ((bad, 1),))
    with pytest.raises(ParameterError, match="whole"):
        BipartiteGraph(3, 3, ((1, bad),))
    with pytest.raises(ParameterError, match="whole"):
        BipartiteGraph(bad, 3, ())
    with pytest.raises(ParameterError, match="whole"):
        ssbve_reduction(_path_graph(), ell=bad, delta=1)
    with pytest.raises(ParameterError, match="whole"):
        ssbve_reduction(_path_graph(), ell=1, delta=bad)
    assert psp_value(inst, [np.int64(0)], [np.int64(5)]) == psp_value(inst, (0,), (5,))


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


def _greedy_by_calls(inst, k, score=psp_greedy):
    """The greedy coalition search as one ``score`` call (psp_greedy by
    default) per remaining artist and step: first best extension, best
    prefix on a strict gain."""
    chosen, best, remaining = [], PspResult((), (), 0.0), list(range(inst.n_artists))
    for _ in range(k):
        step_best = None
        for a in remaining:
            res = score(inst, tuple(sorted(chosen + [a])))
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
    _, profit_of = _removal_profit(inst, float(s.sum()), float(tau.sum()))
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


@pytest.mark.parametrize("cells", [None, 450])  # 450: three sets per climb
def test_greedy_search_equals_one_set_climbs_on_fractional_catalogs(cells, monkeypatch):
    """150 x 20 catalogs of exponential weights, about 35% zeros, with a
    lognormal scale per user so that removals profit: fractional sums, so
    a changed summation order would show in the bits."""
    if cells is not None:
        monkeypatch.setattr(pspdetect, "_SOLVE_CELLS", cells)
    removals = 0
    for seed in range(3):
        rng = np.random.default_rng([97, seed])
        scale = rng.lognormal(sigma=1.5, size=(150, 1))
        w = rng.exponential(scale, size=(150, 20)) * (rng.random((150, 20)) >= 0.35)
        w[w.sum(axis=1) == 0, 0] = 1.0
        inst = make(w)
        for k in range(1, 5):
            found = find_suspicious(inst, k, "greedy")
            assert found == _greedy_by_calls(inst, k, _climb_one_set), (seed, k)
            removals += len(found[1].user_set) >= 2
    assert removals >= 6  # the climbs take several removal steps


def test_greedy_climbs_hold_at_most_the_block_budget(monkeypatch):
    """At 600 cells and 100 users, a greedy step over sets of size t climbs
    600 // (100 t) sets at a time: 6 at size 1, one at 4 to 6, and one set,
    wider than the budget, from size 7 on. The answers do not depend on the
    blocks."""
    inst = gen_synthetic(SynthConfig(100, 12, seed=2))
    expected = [find_suspicious(inst, k, "greedy") for k in (3, 8)]
    monkeypatch.setattr(pspdetect, "_SOLVE_CELLS", 600)
    climb, shapes = pspdetect._climb, []
    monkeypatch.setattr(pspdetect, "_climb",
                        lambda instance, s: shapes.append(s.shape) or climb(instance, s))
    for k, want in zip((3, 8), expected):
        shapes.clear()
        assert find_suspicious(inst, k, "greedy") == want
        for size in range(1, k + 1):
            left = inst.n_artists - size + 1  # the step's sets, one per artist not chosen
            while left > 0:
                sets, users = shapes.pop(0)
                assert users == inst.n_users, (k, size)
                assert sets == 1 or users * sets * size <= 600, (k, size)
                left -= sets
            assert left == 0
        assert shapes == []


def test_greedy_search_validates_once(monkeypatch):
    calls = []
    monkeypatch.setattr(pspdetect, "validate", lambda inst: calls.append(inst))
    monkeypatch.setattr(pspdetect, "psp_greedy", None)  # no per-candidate call
    inst = random_instance(np.random.default_rng(5), n_users=(40, 40), n_artists=(9, 9))
    for k in (1, 3, 9):
        calls.clear()
        find_suspicious(inst, k, "greedy")
        assert calls == [inst]


def test_exact_search_and_later_calls_sum_the_rows_once(monkeypatch):
    """The search and direct psp_exact calls after it validate the instance
    and read its user totals each time, from one row sum: the first
    validate's, kept in the instance's record."""
    fills, validated = [], []

    class Facts(core._Facts):
        def __setattr__(self, name, value):
            fills.append(name)
            super().__setattr__(name, value)

    validate = core.validate
    monkeypatch.setattr(core, "_Facts", Facts)
    monkeypatch.setattr(pspdetect, "validate", lambda inst: validated.append(inst) or validate(inst))
    red = ssbve_reduction(BipartiteGraph(2, 2, ((0, 0), (1, 0))), 2, 1)
    inst = red.instance
    coalition, best = find_suspicious(inst, red.k, "exact")
    assert best.profit > 0
    for u in (coalition, (0,), (inst.n_artists - 2, inst.n_artists - 1)):
        psp_exact(inst, u)
    assert fills.count("user_totals") == 1
    assert len(validated) >= 5 and set(map(id, validated)) == {id(inst)}


def _exact_candidates(inst, k):
    """The exact search's coalitions, in (size, lexicographic) order."""
    return _product_coalitions(_artist_orbits(inst), k)


def _exact_by_calls(inst, k):
    """The exact coalition search as one psp_exact call per candidate, in
    order: the first best profit wins, the first candidate when none profits."""
    best = None
    for u in _exact_candidates(inst, k):
        res = psp_exact(inst, u)
        if best is None or res.profit > best.profit:
            best = res
    return best.artist_set, best


def _integer_draw(rng, n_users=(2, 9), n_artists=(2, 6), alpha=1.0):
    """Small-count weights: many equal streams, so many tied profits."""
    n = int(rng.integers(n_users[0], n_users[1] + 1))
    m = int(rng.integers(n_artists[0], n_artists[1] + 1))
    w = rng.integers(0, 3, size=(n, m)).astype(float)
    w[w.sum(axis=1) == 0, 0] = 1.0
    return make(w, alpha)


def _bound_cases():
    for t in range(120):
        rng = np.random.default_rng([97, t])
        inst = random_instance(rng, (1, 10), (1, 6), alpha=1.0 if t % 2 else None)
        yield inst, int(rng.integers(1, inst.n_artists + 1))
    for t in range(60):
        inst = _integer_draw(np.random.default_rng([101, t]))
        yield inst, inst.n_artists
    cells = list(itertools.product(range(2), range(3)))
    for bits in range(1, 1 << len(cells), 5):
        graph = BipartiteGraph(2, 3, tuple(cells[i] for i in range(len(cells)) if bits >> i & 1))
        red = ssbve_reduction(graph, 1, bits % 3)
        yield red.instance, red.k


def test_profit_bounds_lie_above_the_exact_profit():
    profitable = 0
    for t, (inst, k) in enumerate(_bound_cases()):
        candidates = _exact_candidates(inst, k)
        bound = _profit_bounds(inst, candidates)
        profit = np.array([psp_exact(inst, u).profit for u in candidates])
        assert (bound >= profit).all(), t
        profitable += (profit > 0).any()
    assert profitable >= 60


@pytest.mark.parametrize("cells", [None, 1, 40])  # 1: one candidate set per bound block
def test_exact_search_equals_a_loop_of_psp_exact_calls(cells, monkeypatch):
    draws = []
    for t in range(330):
        rng = np.random.default_rng([103, t])
        if t % 3 == 2:
            inst = _integer_draw(rng, alpha=float(rng.choice([0.5, 1.0])))
        else:  # alpha = 1 on every other draw, where removals profit more often
            inst = random_instance(rng, (1, 12), (1, 7), alpha=1.0 if t % 2 else None)
        draws.append((inst, int(rng.integers(1, inst.n_artists + 1))))
    expected = [_exact_by_calls(inst, k) for inst, k in draws]
    if cells is not None:
        monkeypatch.setattr(pspdetect, "_SOLVE_CELLS", cells)
    for t, (inst, k) in enumerate(draws):
        assert find_suspicious(inst, k, "exact") == expected[t], t
    profitable = sum(res.profit > 0 for _, res in expected)
    assert 60 <= profitable <= len(draws) - 60  # both kinds of answer are common


def test_exact_search_keeps_the_first_of_tied_coalitions():
    # users 5 and 6 mirror each other across artists 1 and 2, and both columns
    # hold 8 streams, so (0, 1) and (0, 2) tie; (0, 2) has the larger bound
    # and is solved first, yet (0, 1) comes first in (size, lexicographic) order
    inst = make([[1, 2, 1], [1, 1, 0], [1, 1, 0], [2, 1, 2],
                 [0, 0, 2], [2, 2, 0], [2, 0, 2], [2, 1, 1]])
    first, later = psp_exact(inst, (0, 1)), psp_exact(inst, (0, 2))
    assert first.profit == later.profit > 0
    bound = _profit_bounds(inst, [(0, 1), (0, 2)])
    assert bound[0] < bound[1]
    assert find_suspicious(inst, 3, "exact") == ((0, 1), first) == _exact_by_calls(inst, 3)


def test_exact_search_solves_only_candidates_that_can_win(monkeypatch):
    inst = gen_synthetic(SynthConfig(300, 30, (1, 10), 1.0, 0))
    expected = _exact_by_calls(inst, 2)
    solved = []

    def counted(instance, artist_set):
        solved.append(artist_set)
        return psp_exact(instance, artist_set)

    monkeypatch.setattr(pspdetect, "psp_exact", counted)
    assert find_suspicious(inst, 2, "exact") == expected
    assert 0 < len(solved) <= len(_exact_candidates(inst, 2)) // 10
    solved.clear()  # removing either user of a column costs more than it wins back
    assert find_suspicious(make([[1, 0], [0, 1], [1, 1]], 0.5), 1, "exact") == (
        (0,), PspResult((0,), (), 0.0))
    assert solved == []


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
