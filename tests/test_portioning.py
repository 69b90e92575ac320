"""Portioning rules: coordinatewise aggregates, the two LP-backed rules, and
the phantom-median market mechanism."""

import functools
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import instances, make, market_bisect, random_dense, row_shares
from streamshare import (
    BUDGET_TOL,
    Instance,
    DegenerateAggregateError,
    PORTIONING_RULES,
    PortioningId,
    SynthConfig,
    evaluate,
    gen_synthetic,
    market_solution,
    user_prop,
)
from streamshare import portioning
from streamshare.axioms import random_instance
from streamshare.portioning import SolverFailure, stack_shares
from streamshare.rules import batch_payments

RNG = np.random.default_rng(23)


# ---------------------------------------------------------------------------
# coordinatewise rules


@given(instances())
@settings(max_examples=100, deadline=None)
def test_avg_equals_user_prop(inst):
    got = evaluate(PortioningId.AVG, inst)
    assert np.allclose(got, user_prop(inst), atol=1e-12)


def test_max_worked_example():
    inst = make([[3, 1], [0, 1]])
    # column maxima of shares (0.75, 1), renormalized, times budget 2
    assert np.allclose(evaluate("max", inst), [6 / 7, 8 / 7], atol=1e-12)


def test_min_worked_example():
    inst = make([[3, 1], [0, 1]])
    assert np.allclose(evaluate("min", inst), [0, 2], atol=1e-12)


def test_geo_zeroes_any_column_with_a_zero():
    inst = make([[3, 1], [0, 1]])
    assert np.allclose(evaluate("geo", inst), [0, 2], atol=1e-12)


def test_med_worked_example():
    inst = make([[1, 0], [0, 1], [0, 1]])
    assert np.allclose(evaluate("med", inst), [0, 3], atol=1e-12)


@given(instances(max_users=4))
@settings(max_examples=60, deadline=None)
def test_med_even_rows_average_the_middle_pair(inst):
    """Median of an even count follows the numpy convention."""
    if inst.n_users % 2 == 1:
        inst = make(np.vstack([inst.weights, inst.weights[-1]]), inst.alpha)
    agg = np.median(row_shares(inst), axis=0)
    expected = agg / agg.sum() * inst.budget
    assert np.allclose(evaluate("med", inst), expected, atol=1e-9)


@pytest.mark.parametrize("rule", ["min", "geo"])
def test_degenerate_aggregate_raises(rule):
    inst = make([[1, 0], [0, 1]])
    with pytest.raises(DegenerateAggregateError):
        evaluate(rule, inst)


@pytest.mark.parametrize("config", [
    SynthConfig(200, 12, (1, 4), 1.0, 0),  # sparse: min and geo degenerate
    SynthConfig(120, 6, (6, 6), 20.0, 1),  # dense: every aggregate defined
])
def test_batch_payments_on_catalog_rows_equal_evaluate(config):
    """A (K, n, m) stack of gen catalog rows scores, for every rule, exactly
    as evaluate on each matrix; where evaluate raises, so does the whole
    stack, with the same error."""
    w = gen_synthetic(config).weights
    stack = w[np.random.default_rng(config.seed).integers(w.shape[0], size=(5, 40))]
    raised = set()
    for rule in PORTIONING_RULES:
        try:
            want = np.array([evaluate(rule, Instance(x, 0.6)) for x in stack])
        except (DegenerateAggregateError, SolverFailure) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                batch_payments(rule, stack, 0.6)
            raised.add(rule.value)
            continue
        assert np.array_equal(batch_payments(rule, stack, 0.6), want), rule
    assert raised >= ({"min", "geo"} if config.artist_count_range[0] == 1 else set())
    assert raised <= {"min", "med", "geo", "egal"}


@pytest.mark.parametrize("rule", PORTIONING_RULES)
def test_single_artist_gets_everything(rule):
    inst = make([[2.0], [5.0]], alpha=0.7)
    assert np.allclose(evaluate(rule, inst), [1.4], atol=1e-12)


@pytest.mark.parametrize("rule", PORTIONING_RULES)
@given(inst=instances(positive=True))
@settings(max_examples=40, deadline=None)
def test_budget_balance_and_nonneg(rule, inst):
    p = evaluate(rule, inst)
    assert abs(p.sum() - inst.budget) <= BUDGET_TOL, f"{rule} sum {p.sum()}"
    assert np.all(p >= 0)


@pytest.mark.parametrize("rule", PORTIONING_RULES)
@given(inst=instances(positive=True, max_users=4))
@settings(max_examples=25, deadline=None)
def test_identical_users_fix_the_outcome(rule, inst):
    """Every aggregation of n copies of one profile returns that profile."""
    row = inst.weights[:1]
    clones = make(np.repeat(row, 3, axis=0), inst.alpha)
    expected = row[0] / row[0].sum() * clones.budget
    assert np.allclose(evaluate(rule, clones), expected, atol=1e-9)


# ---------------------------------------------------------------------------
# util: L1 welfare optimum with max-entropy tie-break


def test_util_takes_the_majority_side():
    inst = make([[1, 0], [1, 0], [0, 1]])
    assert np.allclose(evaluate("util", inst), [3, 0], atol=1e-9)


def test_util_symmetric_tie_goes_to_center():
    inst = make([[1, 0], [0, 1]])
    assert np.allclose(evaluate("util", inst), [1, 1], atol=1e-9)


def _total_disutility(share, shares):
    return np.abs(shares - share[None, :]).sum()


@given(instances(positive=True, max_users=5, max_artists=4))
@settings(max_examples=40, deadline=None)
def test_util_beats_random_simplex_points(inst):
    shares = row_shares(inst)
    p = stack_shares(PortioningId.UTIL, inst.weights)
    best = _total_disutility(p, shares)
    samples = RNG.dirichlet(np.ones(inst.n_artists), size=400)
    sampled = np.abs(shares[None, :, :] - samples[:, None, :]).sum(axis=(1, 2))
    assert best <= sampled.min() + 1e-9, f"util {best} vs sampled {sampled.min()}"


# ---------------------------------------------------------------------------
# egal: minimax disutility


def test_egal_balances_two_opposed_users():
    inst = make([[1, 0], [0, 1]])
    assert np.allclose(evaluate("egal", inst), [1, 1], atol=1e-9)


def test_egal_protects_the_minority():
    inst = make([[1, 0], [1, 0], [0, 1]])
    # util hands the whole pot to the majority; egal must not
    assert np.allclose(evaluate("egal", inst), [1.5, 1.5], atol=1e-7)


@given(instances(positive=True, max_users=5, max_artists=4))
@settings(max_examples=25, deadline=None)
def test_egal_minimax_beats_random_simplex_points(inst):
    shares = row_shares(inst)
    p = stack_shares(PortioningId.EGAL, inst.weights)
    worst = np.abs(shares - p[None, :]).sum(axis=1).max()
    samples = RNG.dirichlet(np.ones(inst.n_artists), size=400)
    sampled = np.abs(shares[None, :, :] - samples[:, None, :]).sum(axis=2).max(axis=1)
    assert worst <= sampled.min() + 1e-7, f"egal {worst} vs sampled {sampled.min()}"


def _scipy_stage(norm, caps, active):
    """Reference LP for one minimax stage, solved with scipy. Variables are
    the share vector p, per-entry deviations e, and the level z. The
    constraint matrix is sparse, so catalog-sized stages fit in memory."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, m = norm.shape
    cols = m + n * m + 1
    share = sparse.kron(np.ones((n, 1)), sparse.identity(m))  # p_j in row (i, j)
    dev = sparse.identity(n * m)
    row_sums = sparse.kron(sparse.identity(n), np.ones((1, m)))
    level = sparse.csr_matrix(-active.astype(float)[:, None])
    a_ub = sparse.bmat(
        [[share, -dev, None], [-share, -dev, None], [None, row_sums, level]],
        format="csr",
    )
    b_ub = np.concatenate([norm.ravel(), -norm.ravel(), np.where(active, 0.0, caps)])
    a_eq = np.zeros((1, cols))
    a_eq[0, :m] = 1.0
    c = np.zeros(cols)
    c[-1] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
        bounds=[(0.0, None)] * (cols - 1) + [(0.0, 2.0)], method="highs",
    )
    assert res.success, res.message
    return float(res.x[-1])


@given(instances(positive=True, max_users=5, max_artists=4))
@settings(max_examples=40, deadline=None)
def test_minimax_stage_level_matches_scipy(inst):
    from streamshare.portioning import _minimax_stage

    norm = row_shares(inst)
    n, m = norm.shape
    caps = np.full(n, -1.0)
    active = np.ones(n, dtype=bool)
    p, z, _ = _minimax_stage(norm, caps, active, np.full(m, 1.0 / m))
    assert abs(p.sum() - 1.0) <= 1e-9 and p.min() >= -1e-12
    expected = _scipy_stage(norm, caps, active)
    assert abs(z - expected) <= 1e-8, f"stage level {z} vs scipy {expected}"


@given(instances(positive=True, max_users=5, max_artists=4))
@settings(max_examples=25, deadline=None)
def test_frozen_stage_level_matches_scipy(inst):
    """Second ladder rung: freeze the users pinned at the first optimum and
    cross-check the re-minimized level against the reference LP."""
    from streamshare.portioning import _minimax_stage

    norm = row_shares(inst)
    n, m = norm.shape
    caps = np.full(n, -1.0)
    active = np.ones(n, dtype=bool)
    p, z, duals = _minimax_stage(norm, caps, active, np.full(m, 1.0 / m))
    hit = duals > 1e-9
    if hit.all() or not hit.any():
        return
    caps[hit] = z + 1e-9
    active = ~hit
    _, z2, _ = _minimax_stage(norm, caps, active, p)
    expected = _scipy_stage(norm, caps, active)
    assert abs(z2 - expected) <= 1e-8, f"frozen level {z2} vs scipy {expected}"


@pytest.mark.parametrize(
    "n, m, seed", [(50, 20, s) for s in range(5)] + [(100, 30, s) for s in range(4)]
)
def test_minimax_stage_level_matches_scipy_on_catalogs(n, m, seed):
    """First egal stage on generated catalogs against HiGHS."""
    from streamshare.portioning import _minimax_stage

    norm = row_shares(gen_synthetic(SynthConfig(n, m, (1, 10), 1.0, seed)))
    caps = np.full(n, -1.0)
    active = np.ones(n, dtype=bool)
    _, z, _ = _minimax_stage(norm, caps, active, np.full(m, 1.0 / m))
    expected = _scipy_stage(norm, caps, active)
    assert abs(z - expected) <= 1e-9, f"stage level {z} vs scipy {expected}"


EGAL_PROBE = [[3, 1, 0], [0, 2, 1], [1, 0, 4], [1, 1, 1]]


def test_egal_failure_names_shape_stage_and_solver_work(monkeypatch):
    # a pivot cap of one makes the first stage's first solve fail; the
    # message must say where, not only what
    capped = functools.partial(portioning._primal_steps, max_pivots=1)
    monkeypatch.setattr(portioning, "_primal_steps", capped)
    with pytest.raises(SolverFailure) as err:
        evaluate("egal", make(EGAL_PROBE))
    assert str(err.value) == (
        "egal on 4x3 failed at stage 0 with 0 frozen users: stage master hit "
        "the primal pivot limit of 1, after 0 dual pivots; 4 cuts"
    )


def test_egal_failure_counts_the_users_frozen_before_it(monkeypatch):
    primal, stage = portioning._primal_steps, portioning._minimax_stage
    stages = []

    def cap_from_the_second_stage(norm, caps, active, p_seed):
        stages.append(int((~active).sum()))
        if len(stages) == 2:
            capped = functools.partial(primal, max_pivots=1)
            monkeypatch.setattr(portioning, "_primal_steps", capped)
        return stage(norm, caps, active, p_seed)

    monkeypatch.setattr(portioning, "_minimax_stage", cap_from_the_second_stage)
    with pytest.raises(SolverFailure) as err:
        evaluate("egal", make(EGAL_PROBE))
    assert stages[1] > 0
    assert str(err.value).startswith(
        f"egal on 4x3 failed at stage 1 with {stages[1]} frozen users: "
        "stage master hit the primal pivot limit of 1, after "
    ), str(err.value)
    assert re.search(r"after \d+ dual pivots; \d+ cuts$", str(err.value)), str(err.value)


def test_egal_freezes_only_priced_users(monkeypatch):
    # a stage whose active users carry no dual price has a wrong basis, and
    # it fails rather than freeze users its optimum did not price
    monkeypatch.setattr(portioning._StageMaster, "user_duals", lambda self, n: np.zeros(n))
    with pytest.raises(SolverFailure) as err:
        evaluate("egal", make(EGAL_PROBE))
    assert str(err.value) == (
        "egal on 4x3 failed at stage 0 with 0 frozen users: no active user is priced"
    )


# ---------------------------------------------------------------------------
# egal's stage master: golden outcomes and dictionary-form invariants

# the 13-catalog egal corpus of perfbench's catalog workload
EGAL_CORPUS = (
    [(50, 20, s) for s in range(5)] + [(100, 30, s) for s in range(4)]
    + [(200, 50, s) for s in range(4)]
)
# recorded with the full-tableau master that the dictionary form replaced
EGAL_GOLDEN = Path(__file__).with_name("egal_golden.json")


def _egal_golden_instances(group):
    """Named instances of one golden group: the corpus, the first 200 of
    criterion 1's draws, or 100 small draws with zero weights."""
    if group == "corpus":
        return {f"{n}x{m}s{s}": gen_synthetic(SynthConfig(n, m, (1, 10), 1.0, s))
                for n, m, s in EGAL_CORPUS}
    if group == "criterion1":
        rng = np.random.default_rng(11)
        return {f"c{t}": random_dense(rng, alpha=(0.3, 0.7, 1.0)[t % 3]) for t in range(200)}
    rng = np.random.default_rng(16)
    return {f"s{t}": random_instance(rng) for t in range(100)}


def _egal_outcome(inst):
    """The sha256 of egal's payments as int64 bits, or the SolverFailure text."""
    try:
        pay = evaluate("egal", inst)
    except SolverFailure as exc:
        return str(exc)
    return hashlib.sha256(np.ascontiguousarray(pay).view(np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("group", ["corpus", "criterion1", "small"])
def test_egal_outcomes_match_the_golden_record(group):
    want = json.loads(EGAL_GOLDEN.read_text())[group]
    got = {name: _egal_outcome(inst) for name, inst in _egal_golden_instances(group).items()}
    assert got.keys() == want.keys()
    wrong = [f"{name}: {got[name]!r} != {want[name]!r}" for name in want if got[name] != want[name]]
    assert not wrong, f"{len(wrong)} of {len(want)} differ:\n" + "\n".join(wrong[:10])


@pytest.mark.parametrize("seed", [1, 3])
def test_stage_master_invariants_after_every_solve(monkeypatch, seed):
    solve = portioning._StageMaster.solve
    solves = []

    def checked_solve(master):
        out = solve(master)
        m, rows = master.m, master.n_rows
        ids = sorted(master.basis.tolist() + master.nonbasic.tolist())
        assert master.nonbasic.size == m and ids == list(range(m + rows))
        assert master.tab.shape == (rows + 1, m + 1)
        assert (master.tab[-1, :-1] <= 1e-11).all()  # no variable left to enter
        solves.append(rows)
        return out

    monkeypatch.setattr(portioning._StageMaster, "solve", checked_solve)
    pay = evaluate("egal", gen_synthetic(SynthConfig(50, 20, (1, 10), 1.0, seed)))
    assert abs(pay.sum() - 50.0) <= BUDGET_TOL and len(solves) > 10


def test_primal_entry_is_the_smallest_eligible_variable_id():
    # ids 5 and 3 are eligible; 5 is stored first, Bland's rule takes 3
    tab = np.array([[1.0, 1.0, 1.0, 4.0], [1.0, 2.0, 1.0, 6.0], [1.0, 0.0, 1.0, 0.0]])
    basis, nonbasic = np.array([0, 2]), np.array([5, 1, 3])
    portioning._primal_steps(tab, basis, nonbasic)
    assert basis.tolist() == [3, 2] and nonbasic.tolist() == [5, 1, 0]
    assert tab[-1, :-1].tolist() == [0.0, -1.0, -1.0] and tab[:-1, -1].tolist() == [4.0, 2.0]


def test_dual_entry_is_the_first_minimal_ratio_in_variable_order():
    # ids 6 and 2 tie on the ratio; 6 is stored first, the smaller id enters
    tab = np.array([[-1.0, -1.0, -2.0], [-3.0, -3.0, 0.0]])
    basis, nonbasic = np.array([4]), np.array([6, 2])
    assert portioning._dual_steps(tab, basis, nonbasic) == 1
    assert basis.tolist() == [2] and nonbasic.tolist() == [6, 4]


def test_dictionary_pivot_matches_a_full_tableau_pivot():
    rng = np.random.default_rng(5)
    basis, nonbasic = np.array([7, 0, 5, 9, 2, 8]), np.array([3, 6, 1, 4])
    rows, m = basis.size, nonbasic.size
    tab = rng.standard_normal((rows + 1, m + 1))
    full = np.zeros((rows + 1, rows + m + 1))
    full[:, nonbasic], full[:, -1] = tab[:, :m], tab[:, -1]
    full[np.arange(rows), basis] = 1.0
    row, col = 2, 1
    enter, leave = nonbasic[col], basis[row]
    full[row] /= full[row, enter]
    factors = full[:, enter].copy()
    factors[row] = 0.0
    full -= np.outer(factors, full[row])
    full[:, enter] = 0.0
    full[row, enter] = 1.0
    portioning._pivot(tab, basis, nonbasic, row, col)
    assert basis[row] == enter and nonbasic[col] == leave
    assert np.array_equal(tab[:, :m], full[:, nonbasic]) and np.array_equal(tab[:, -1], full[:, -1])
    assert np.array_equal(full[:, basis], np.eye(rows + 1, rows))


# ---------------------------------------------------------------------------
# independent markets


def test_market_single_user_puts_all_on_their_artist():
    sol = market_solution(np.array([[1.0, 0.0]]))
    assert abs(sol.t_star - 1.0) < 1e-9
    assert np.allclose(sol.shares, [1, 0], atol=1e-9)


def test_market_two_agreeing_users():
    sol = market_solution(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert abs(sol.t_star - 0.5) < 1e-9, f"t* {sol.t_star}"
    assert np.allclose(sol.medians, [1, 0], atol=1e-9)


@given(instances(max_users=7, max_artists=5))
@settings(max_examples=80, deadline=None)
def test_market_medians_sum_to_one(inst):
    sol = market_solution(row_shares(inst))
    assert sol.residual <= 1e-9, f"residual {sol.residual} at t*={sol.t_star}"
    assert 0.0 <= sol.t_star <= 1.0
    assert np.all(sol.medians >= 0)


@given(instances(max_users=7, max_artists=5))
@settings(max_examples=40, deadline=None)
def test_market_median_sum_is_monotone_below_t_star(inst):
    norm = row_shares(inst)
    sol = market_solution(norm)
    n = inst.n_users
    ks = np.arange(n + 1, dtype=float)
    for t in (0.25 * sol.t_star, 0.7 * sol.t_star):
        phantoms = np.minimum(ks * t, 1.0)
        stacked = np.vstack([norm, np.broadcast_to(phantoms[:, None], (n + 1, inst.n_artists))])
        assert np.median(stacked, axis=0).sum() <= 1.0 + 1e-12


def _assert_matches_bisection(norm):
    sol, ref = market_solution(norm), market_bisect(norm)
    assert abs(sol.t_star - ref.t_star) <= 1e-12, f"t* {sol.t_star} vs {ref.t_star}"
    assert np.abs(sol.medians - ref.medians).max() <= 1e-9
    assert sol.residual <= 1e-9


def test_market_matches_bisection_on_random_draws():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        _assert_matches_bisection(row_shares(random_instance(rng)))


@pytest.mark.parametrize("n, m", [(300, 30), (800, 80)])
def test_market_matches_bisection_on_catalogs(n, m):
    _assert_matches_bisection(row_shares(gen_synthetic(SynthConfig(n, m, (1, 10), 1.0, 4))))


def test_market_matches_bisection_on_a_dense_matrix():
    _assert_matches_bisection(row_shares(Instance(RNG.exponential(1.0, size=(200, 20)), 1.0)))


@pytest.mark.parametrize(
    "rows",
    [
        [[3.0, 1.0, 0.0, 2.0]],  # one user: F is flat at the row sum from t = max
        [[1.0, 2.0, 3.0]] * 5,  # identical users: F plateaus at 1
        [[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [0.0, 0.0, 5.0]],  # an all-zero column
        [[1.0, 0.0], [1.0, 0.0]],  # F reaches exactly 1 and stays there
        [[1.0, 1.0], [1.0, 1.0]],
        # 7 * (10/22 / 7) rounds below 10/22: F is a hair under 1 where its
        # last plateau starts, on a piece of slope zero
        [[10.0, 6.0, 6.0]] * 7,
    ],
    ids=["single-user", "identical-users", "zero-column", "plateau", "plateau-half",
         "plateau-rounded"],
)
def test_market_matches_bisection_on_edge_shapes(rows):
    _assert_matches_bisection(row_shares(make(rows)))
