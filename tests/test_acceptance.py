"""Release gate: ten end-to-end checks with pinned tolerances and budgets.

Each test prints one `[acceptance]` summary line (visible with `pytest -s`
or in captured output) and then asserts, so the -v listing doubles as the
pass/fail report.
"""

import itertools
import time

import numpy as np

from helpers import random_dense, row_shares
from streamshare import (
    ALL_RULES,
    AxiomId,
    BipartiteGraph,
    DESK_K,
    DESK_SEEDS,
    Instance,
    PortioningId,
    RuleId,
    SUITE_GRID,
    desk_config,
    envy_bound_demo,
    evaluate,
    exceeds_threshold,
    find_suspicious,
    fixtures,
    market_solution,
    max_envy,
    psp_exact,
    psp_greedy,
    psp_value,
    run_suite,
    ssbve_brute,
    ssbve_reduction,
    sweep_seeds,
    verify_fixture,
)
from streamshare.axioms import random_instance
from streamshare.fixtures import approval_majority, minority_floor

PORTIONING_NAMES = ("avg", "max", "min", "med", "geo", "util", "egal", "indmkt")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_budget_balance():
    rng = np.random.default_rng(11)
    alphas = (0.3, 0.7, 1.0)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        inst = random_dense(rng, alpha=alphas[trial % 3])
        budget = inst.alpha * inst.n_users
        for rule in ALL_RULES:
            err = abs(float(evaluate(rule, inst).sum()) - budget)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, ok, f"worst |sum - alpha*n| = {worst:.2e} across 12 rules x 1000 instances, {elapsed:.1f}s")
    assert worst <= 1e-9, f"budget imbalance {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_criterion_02_randomized_suites_find_nothing():
    assert len(SUITE_GRID) == 20
    start = time.perf_counter()
    bad = []
    worst = -np.inf
    for axiom, rule in SUITE_GRID:
        result = run_suite(axiom, rule, trials=10_000, seed=0)
        worst = max(worst, result.max_margin)
        if not result.passed:
            bad.append((axiom.value, rule, result.max_margin))
    elapsed = time.perf_counter() - start
    ok = not bad and worst <= 1e-7 and elapsed < 300.0
    _report(2, ok, f"20 cells x 10,000 trials, worst margin {worst:.2e}, {elapsed:.0f}s")
    assert not bad, f"cells with witnesses: {bad}"
    assert worst <= 1e-7, f"worst margin {worst}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget is 300s"


def test_criterion_03_named_witnesses_certify():
    fx = fixtures()
    problems = []

    def close(label, got, want, tol=1e-9):
        if abs(got - want) > tol:
            problems.append(f"{label}: {got} != {want}")

    fraud = verify_fixture(fx["globalprop-fraud"])
    close("globalprop-fraud margin", fraud.margin, 2.0)
    bribe = verify_fixture(fx["globalprop-bribery"])
    close("globalprop-bribery margin", bribe.margin, 1.5)

    sybil = fx["usereq-sybil"]
    close("usereq-sybil gain", verify_fixture(sybil).gain, sybil.base.alpha / 6.0)

    pd_up = fx["userprop-pigoudalton"]
    a = pd_up.base.alpha
    pd_report = verify_fixture(pd_up)
    close("userprop transfer before", pd_report.before, 2.0 * a / 3.0)
    close("userprop transfer after", pd_report.after, 3.0 * a / 5.0)
    if not pd_report.violation:
        problems.append("userprop-pigoudalton did not certify")
    if not verify_fixture(fx["scaledup-pigoudalton"]).violation:
        problems.append("scaledup-pigoudalton did not certify")

    for rule in ("userprop", "usereq", "scaledup"):
        found = run_suite(AxiomId.STRONG_SYBIL_PROOF, rule, trials=200, seed=0)
        if found.witness is None:
            problems.append(f"strong-sybil search found nothing for {rule}")

    for rule in PORTIONING_NAMES[1:]:  # the seven beyond avg
        for axiom in ("fraud", "bribery", "sybil"):
            name = f"{rule}-{axiom}"
            report = verify_fixture(fx[name])
            if not report.violation:
                problems.append(f"{name} did not certify (margin {report.margin})")

    ok = not problems
    _report(3, ok, f"{len(problems)} fixture failures" if problems else "all named witnesses certify")
    assert not problems, problems


def _conforming(rng) -> Instance:
    """Random instance whose heaviest user stays under the mean/alpha cap."""
    inst = random_instance(rng, n_users=(2, 8), n_artists=(2, 5))
    s = inst.weights.sum(axis=1)
    mean = float(s.mean())
    top = float(s.max())
    if top > mean:
        lam = min(1.0, 0.95 * mean * (1.0 / inst.alpha - 1.0) / (top - mean))
        target = (1.0 - lam) * mean + lam * s
        inst = Instance(inst.weights * (target / s)[:, None], inst.alpha)
    return inst


def test_criterion_04_equivalences():
    rng = np.random.default_rng(23)
    worst_up = worst_gp = worst_avg = 0.0
    for _ in range(1000):
        inst = random_instance(rng, alpha=1.0)
        diff = evaluate(RuleId.SCALED_USER_PROP, inst) - evaluate(RuleId.USER_PROP, inst)
        worst_up = max(worst_up, float(np.abs(diff).max()))
    for _ in range(1000):
        inst = _conforming(rng)
        diff = evaluate(RuleId.SCALED_USER_PROP, inst) - evaluate(RuleId.GLOBAL_PROP, inst)
        worst_gp = max(worst_gp, float(np.abs(diff).max()))
    for _ in range(1000):
        inst = random_instance(rng)
        diff = evaluate(PortioningId.AVG, inst) - evaluate(RuleId.USER_PROP, inst)
        worst_avg = max(worst_avg, float(np.abs(diff).max()))
    ok = max(worst_up, worst_gp, worst_avg) <= 1e-12
    _report(4, ok, f"scaled=userprop@1 {worst_up:.1e}, scaled=globalprop {worst_gp:.1e}, avg=userprop {worst_avg:.1e}")
    assert worst_up <= 1e-12, f"alpha=1 collapse off by {worst_up}"
    assert worst_gp <= 1e-12, f"light-tail collapse off by {worst_gp}"
    assert worst_avg <= 1e-12, f"avg portioning off by {worst_avg}"


def _mf_gen(rng):
    return random_instance(
        rng, n_users=(21, 80), n_artists=(2, 2), alpha=float(rng.uniform(0.25, 1.0))
    )


def _am_gen(rng):
    return random_instance(
        rng, n_users=(2, 40), n_artists=(2, 2), alpha=float(rng.uniform(0.05, 0.74))
    )


def test_criterion_05_one_sided_rules():
    fx = fixtures()
    fraud = verify_fixture(fx["minority-floor-fraud"])
    assert abs(fraud.gain - 2.0) <= 1e-9 and fraud.bound == 1.0, fraud
    assert fraud.violation
    quiet = run_suite(
        AxiomId.BRIBERY_PROOF, minority_floor, trials=10_000, seed=0, instance_gen=_mf_gen
    )

    bribe = verify_fixture(fx["approval-majority-bribery"])
    assert fx["approval-majority-bribery"].base.alpha == 0.5
    assert abs(bribe.gain - 10.0 / 8.0) <= 1e-9, bribe
    assert bribe.violation
    quiet2 = run_suite(
        AxiomId.FRAUD_PROOF, approval_majority(), trials=10_000, seed=0, instance_gen=_am_gen
    )

    ok = quiet.witness is None and quiet2.witness is None
    _report(
        5,
        ok,
        f"floor rule: fraud gain {fraud.gain:.3g}, bribery margin <= {quiet.max_margin:.2e}; "
        f"majority rule: bribery gain {bribe.gain:.3g}, fraud margin <= {quiet2.max_margin:.2e}",
    )
    assert quiet.witness is None, "bribery broke the floor rule"
    assert quiet2.witness is None, "fraud broke the majority rule"


def _brute_psp(inst, artist_set):
    best = 0.0
    for r in range(inst.n_users):
        for removal in itertools.combinations(range(inst.n_users), r):
            best = max(best, psp_value(inst, artist_set, removal))
    return best


def test_criterion_06_suspicious_profit_search():
    rng = np.random.default_rng(5)
    worst = 0.0
    greedy_ok = True
    for _ in range(500):
        inst = random_instance(rng, n_users=(2, 7), n_artists=(2, 4))
        size = int(rng.integers(1, inst.n_artists))
        u = tuple(sorted(rng.choice(inst.n_artists, size=size, replace=False).tolist()))
        exact = psp_exact(inst, u)
        worst = max(worst, abs(exact.profit - _brute_psp(inst, u)))
        if psp_greedy(inst, u).profit > exact.profit + 1e-9:
            greedy_ok = False

    pumped = fixtures()["globalprop-fraud"]
    artists, result = find_suspicious(pumped.manipulated, 1, "exact")
    flagged = tuple(artists) == tuple(pumped.target_set)
    profit_ok = abs(result.profit - 2.0) <= 1e-9

    ok = worst <= 1e-9 and greedy_ok and flagged and profit_ok
    _report(6, ok, f"exact vs brute force off by {worst:.2e} on 500 instances; "
                   f"fraud artist flagged={flagged} profit {result.profit:.6g}")
    assert worst <= 1e-9, f"exact search disagrees with enumeration by {worst}"
    assert greedy_ok, "greedy beat exact somewhere"
    assert flagged, f"expected {pumped.target_set}, got {artists}"
    assert profit_ok, f"profit {result.profit}"


def test_criterion_07_reduction_equivalence():
    start = time.perf_counter()
    checked = 0
    for n_left, n_right in itertools.product((1, 2, 3), repeat=2):
        cells = list(itertools.product(range(n_left), range(n_right)))
        for bits in range(1, 1 << len(cells)):
            edges = tuple(cells[i] for i in range(len(cells)) if bits >> i & 1)
            graph = BipartiteGraph(n_left, n_right, edges)
            for delta in range(0, n_right + 1):
                red = ssbve_reduction(graph, 1, delta, 1.0)
                _, res = find_suspicious(red.instance, red.k, "exact")
                for ell in range(1, n_left + 1):
                    want = ssbve_brute(graph, ell, delta)
                    got = exceeds_threshold(res.profit, (ell - 1) / red.d)
                    assert got == want, (n_left, n_right, bits, ell, delta, res.profit)
                    checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report(7, ok, f"{checked} (graph, ell, delta) cells agree with brute force, {elapsed:.0f}s")
    assert checked > 6000
    assert elapsed < 120.0, f"took {elapsed:.0f}s, budget is 120s"


def _sampled_graphs(rng, side, max_degree, count):
    """``count`` bipartite graphs on side x side vertices, each left vertex
    joined to 0 to ``max_degree`` right vertices drawn without repeats, and
    at least one edge in all."""
    graphs = []
    while len(graphs) < count:
        degrees = rng.integers(0, max_degree + 1, size=side)
        edges = tuple((u, int(v)) for u in range(side)
                      for v in rng.choice(side, size=int(degrees[u]), replace=False))
        if edges:
            graphs.append(BipartiteGraph(side, side, edges))
    return graphs


def test_criterion_07_sampled_4x4_and_5x5_graphs():
    """Criterion 7's equivalence past 3x3 graphs, on a seeded sample: twelve
    4x4 graphs of any degree and twelve 5x5 graphs of maximum left degree 3,
    at every ell and delta. The degree cap keeps every reduction under
    4,000 users (a dense matrix of at most 116 MB); a 5x5 graph of degree 5
    at delta 5 reduces to 9,305 users, 690 MB."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    checked = 0
    for side, max_degree in ((4, 4), (5, 3)):
        for graph in _sampled_graphs(rng, side, max_degree, 12):
            for delta in range(side + 1):
                red = ssbve_reduction(graph, 1, delta, 1.0)
                _, res = find_suspicious(red.instance, red.k, "exact")
                for ell in range(1, side + 1):
                    want = ssbve_brute(graph, ell, delta)
                    got = exceeds_threshold(res.profit, (ell - 1) / red.d)
                    assert got == want, (graph.edges, ell, delta, res.profit)
                    checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(7, ok, f"{checked} sampled 4x4 and 5x5 (graph, ell, delta) cells agree with "
                   f"brute force, {elapsed:.0f}s")
    assert checked == 600
    assert elapsed < 60.0, f"took {elapsed:.0f}s, budget is 60s"


def test_criterion_08_market_medians():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        inst = random_instance(rng)
        worst = max(worst, market_solution(row_shares(inst)).residual)
    fraud = fixtures()["indmkt-fraud"]
    sol = market_solution(row_shares(fraud.manipulated))
    expected_t = 1.0 / (2.0 * fraud.base.n_users)
    sybil = fixtures()["indmkt-sybil"]
    after = verify_fixture(sybil).after
    expected_pay = sybil.base.n_users * sybil.base.alpha / 2.0

    ok = worst <= 1e-9 and abs(sol.t_star - expected_t) <= 1e-9 and abs(after - expected_pay) <= 1e-9
    _report(8, ok, f"worst |sum medians - 1| = {worst:.2e}; fixture t* {sol.t_star:.6g}, "
                   f"sybil family take {after:.6g}")
    assert worst <= 1e-9, f"median residual {worst}"
    assert abs(sol.t_star - expected_t) <= 1e-9, f"t* {sol.t_star} vs {expected_t}"
    assert abs(after - expected_pay) <= 1e-9, f"payoff {after} vs {expected_pay}"


def test_criterion_09_envy():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        inst = random_instance(rng)
        worst = max(worst, abs(max_envy(RuleId.GLOBAL_PROP, inst) - 1.0))
    demo_ok = all(envy_bound_demo(k).max_envy > k for k in (1, 10, 100))
    ok = worst <= 1e-9 and demo_ok
    _report(9, ok, f"pro-rata envy within {worst:.2e} of 1; unbounded family clears 1, 10, 100")
    assert worst <= 1e-9, f"pro-rata envy error {worst}"
    assert demo_ok, "demo family failed to exceed its target"


def test_criterion_10_desk_scale_distribution():
    start = time.perf_counter()
    rows = sweep_seeds(
        desk_config(), ["userprop", "usereq", "scaledup"], [0.3, 0.5],
        k=DESK_K, n_seeds=DESK_SEEDS,
    )
    by = {(r.rule, r.alpha, r.seed): r for r in rows}
    seeds = sorted({r.seed for r in rows})
    assert len(seeds) == DESK_SEEDS

    fractions = []
    agree = True
    for alpha in (0.3, 0.5):
        hits = 0
        up_bottom, up_top, sc_bottom, sc_top = [], [], [], []
        for seed in seeds:
            up = by[("userprop", alpha, seed)]
            sc = by[("scaledup", alpha, seed)]
            eq = by[("usereq", alpha, seed)]
            if sc.bottom_mean >= up.bottom_mean - 1e-12 and sc.top_mean <= up.top_mean + 1e-12:
                hits += 1
            up_bottom.append(up.bottom_mean)
            up_top.append(up.top_mean)
            sc_bottom.append(sc.bottom_mean)
            sc_top.append(sc.top_mean)
            if (abs(up.top_mean - eq.top_mean) > 0.10 * up.top_mean
                    or abs(up.bottom_mean - eq.bottom_mean) > 0.10 * up.bottom_mean):
                agree = False
        fractions.append(hits / len(seeds))
        assert np.median(sc_bottom) >= np.median(up_bottom) - 1e-12
        assert np.median(sc_top) <= np.median(up_top) + 1e-12

    elapsed = time.perf_counter() - start
    ok = min(fractions) >= 0.8 and agree and elapsed < 60.0
    _report(10, ok, f"scaling compresses the spread in {fractions} of seeds per alpha; "
                    f"userprop/usereq within 10%: {agree}; {elapsed:.1f}s")
    assert min(fractions) >= 0.8, f"held in only {fractions} of seeds"
    assert agree, "userprop and usereq diverged by more than 10%"
    assert elapsed < 60.0, f"took {elapsed:.0f}s, budget is 60s"
