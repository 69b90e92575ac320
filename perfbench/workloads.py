"""The three benchmark workloads.

Each workload is closed-loop with one caller: the benchmark process drives
``streamshare.cli.main(argv)`` in-process, with stdout captured, and starts
the next call when the previous one returns. The seed only shapes the
generated documents and the argv; the program sees nothing else.

A workload has

* ``write_files()`` and ``setup_calls()``: the plain input files and the CLI
  calls (``gen``, ``reduce-ssbve``) that make its input documents in
  ``self.dir``, and ``warmup_calls()``, one call per command kind, so that
  first-call costs land in set-up and not in the measured calls;
* ``prepare()``: the oracle's expectations, computed outside any timing;
* ``pass_calls(p)``: the calls of measured pass ``p``. Passes repeat until
  the run's time is up and the main call kind has enough samples, and only
  whole passes run, so every run measures the same mix of calls.

Input shapes are fixed; the seed draws the content within each shape, so
runs with different seeds do comparable work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

MAIN_RULES = ("globalprop", "userprop", "usereq", "scaledup")
PORTIONING_NO_EGAL = ("avg", "max", "min", "med", "geo", "util", "indmkt")

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Call:
    kind: str
    argv: list
    # check(code, stdout, stderr) -> None when right, else a reason
    check: Callable = field(repr=False)
    units: int = 1  # trials in one ``check`` call, else 1


def numeric_failure(code, err):
    return code == 3 and err.startswith("numeric failure:")


class Workload:
    name = ""
    main_kinds = ()
    side_kinds = ()
    min_main_samples = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.dir = None

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup_calls(self):
        """argv lists that build the input documents, in order."""
        return []

    def write_files(self):
        """Plain input files (configs, graphs) the set-up calls read."""

    def warmup_calls(self):
        return []

    def prepare(self):
        pass

    def pass_calls(self, p):
        raise NotImplementedError

    def rng(self, *salt):
        return np.random.default_rng([self.seed, *salt])

    def shuffled(self, calls, p):
        order = self.rng(7919, p).permutation(len(calls))
        return [calls[i] for i in order]

    def classify(self, call, code, out, err):
        """OK, FAILED (a documented numeric failure the oracle does not
        accept) or WRONG (an unexpected exit or a wrong output)."""
        if code is None:
            return WRONG, err
        reason = call.check(code, out, err)
        if reason is None:
            return OK, None
        if call.kind == "egal" and numeric_failure(code, err):
            return FAILED, err.strip()
        return WRONG, reason


# ---------------------------------------------------------------------------
# audit: randomized manipulation suites


# The twenty axiom/rule cells of the randomized evidence grid, as CLI axiom
# aliases; fraud and bribery are searches, the rest verify one pair per trial.
AUDIT_CELLS = (
    ("fraud", "FraudProof", "userprop"),
    ("fraud", "FraudProof", "usereq"),
    ("fraud", "FraudProof", "scaledup"),
    ("bribery", "BriberyProof", "userprop"),
    ("bribery", "BriberyProof", "usereq"),
    ("bribery", "BriberyProof", "scaledup"),
    ("sybil", "SybilProof", "userprop"),
    ("sybil", "SybilProof", "scaledup"),
    ("sybil", "SybilProof", "globalprop"),
    ("strong-sybil", "StrongSybilProof", "globalprop"),
    ("nfr", "NoFreeRidership", "globalprop"),
    ("nfr", "NoFreeRidership", "userprop"),
    ("nfr", "NoFreeRidership", "usereq"),
    ("nfr", "NoFreeRidership", "scaledup"),
    ("engagement-monotone", "EngagementMonotone", "globalprop"),
    ("engagement-monotone", "EngagementMonotone", "userprop"),
    ("engagement-monotone", "EngagementMonotone", "usereq"),
    ("engagement-monotone", "EngagementMonotone", "scaledup"),
    ("pigou-dalton", "PigouDalton", "globalprop"),
    ("pigou-dalton", "PigouDalton", "usereq"),
)
SEARCH_AXIOMS = ("fraud", "bribery")
# trials per ``check`` call: search trials cost 5-11 ms, verify trials
# 0.1-0.4 ms, so both kinds of call last tens of milliseconds
SEARCH_TRIALS = 10
VERIFY_TRIALS = 100


class Audit(Workload):
    name = "audit"
    main_kinds = ("search",)
    side_kinds = ("verify",)

    def __init__(self, seed, cells=AUDIT_CELLS, search_trials=SEARCH_TRIALS,
                 verify_trials=VERIFY_TRIALS):
        super().__init__(seed)
        self.cells = cells
        self.search_trials = search_trials
        self.verify_trials = verify_trials

    def _call(self, cell, trials, suite_seed):
        alias, axiom, rule = cell
        kind = "search" if alias in SEARCH_AXIOMS else "verify"
        argv = ["check", "--axiom", alias, "--rule", rule,
                "--random-trials", str(trials), "--seed", str(suite_seed)]
        return Call(
            kind, argv,
            lambda code, out, err: oracles.check_suite(code, out, axiom, rule, trials),
            units=trials,
        )

    def warmup_calls(self):
        return [self._call(cell, 1, 0) for cell in self.cells]

    def pass_calls(self, p):
        seeds = self.rng(p).integers(0, 2**31, size=len(self.cells))
        calls = []
        for cell, s in zip(self.cells, seeds):
            trials = self.search_trials if cell[0] in SEARCH_AXIOMS else self.verify_trials
            calls.append(self._call(cell, trials, int(s)))
        return self.shuffled(calls, p)


# ---------------------------------------------------------------------------
# catalog: payments on synthetic catalogs


# (users, artists, alpha): sparse catalogs, each user follows 1 to 10 artists.
# Call times cluster by catalog; with an odd number of catalogs the median
# call falls inside the middle catalog's cluster, not on the edge between
# two clusters, where it would jump between them from run to run.
CATALOG_SHAPES = (
    (800, 80, 0.5), (1200, 120, 0.6), (1600, 160, 0.7), (2000, 200, 0.9), (2400, 240, 1.0)
)
# The pinned egal corpus: gen catalogs (users, artists, seed) on which the
# stage solver fails 10 times out of 13 at the parent of this benchmark.
# It does not follow the workload seed, so its failure share is a fixed
# baseline.
EGAL_CORPUS = tuple(
    [(50, 20, s) for s in range(5)]
    + [(100, 30, s) for s in range(4)]
    + [(200, 50, s) for s in range(4)]
)
# sweeps per pass; like the egal corpus they run inside every pass, spread
# among the other calls, so that each run times them in several states of
# a machine whose speed drifts
SWEEPS = 2
PPS_K = 10


class Catalog(Workload):
    name = "catalog"
    main_kinds = ("divide", "pps")
    side_kinds = ("egal",)
    # three passes of 75 main calls: the p90 call sits among the calls of
    # the largest catalog, whose times scatter widely from call to call, and
    # the median egal call, on one catalog of the corpus, rests on three calls
    min_main_samples = 200

    def __init__(self, seed, shapes=CATALOG_SHAPES, egal_corpus=EGAL_CORPUS,
                 sweeps=SWEEPS, sweep_users=1000, sweep_artists=100, sweep_seeds=20):
        super().__init__(seed)
        self.shapes = shapes
        self.egal_corpus = egal_corpus
        self.sweeps = sweeps
        self.sweep_shape = (sweep_users, sweep_artists, sweep_seeds)
        self.gen_seeds = [int(s) for s in self.rng(1).integers(0, 2**31, size=len(shapes))]
        self.expect = {}

    def catalog(self, i):
        return self.path(f"catalog{i}.json")

    def egal_doc(self, n, m, s):
        return self.path(f"egal_{n}x{m}_s{s}.json")

    def write_files(self):
        users, artists, _ = self.sweep_shape
        for j in range(self.sweeps):
            with open(self.path(f"desk{j}.cfg"), "w") as fh:
                fh.write(
                    f"users={users}\nartists={artists}\nrange=1,10\nlambda=1.0\n"
                    f"seed={self.seed * 1000 + j}\n"
                )

    def setup_calls(self):
        calls = []
        for i, ((n, m, alpha), s) in enumerate(zip(self.shapes, self.gen_seeds)):
            calls.append(["gen", "--users", str(n), "--artists", str(m), "--seed", str(s),
                          "--alpha", str(alpha), "--out", self.catalog(i)])
        for n, m, s in self.egal_corpus:
            calls.append(["gen", "--users", str(n), "--artists", str(m), "--seed", str(s),
                          "--out", self.egal_doc(n, m, s)])
        return calls

    def warmup_calls(self):
        doc = self.egal_doc(*self.egal_corpus[0])
        return [
            Call("warmup", ["divide", "--rule", "globalprop", "--instance", doc],
                 lambda code, out, err: None if code == 0 else f"exit {code}"),
            Call("warmup", ["pps", "--rule", "globalprop", "--instance", doc, "--k", "1"],
                 lambda code, out, err: None if code == 0 else f"exit {code}"),
        ]

    def prepare(self):
        for i in range(len(self.shapes)):
            w, alpha, ids = oracles.load_weights(self.catalog(i))
            pay = {r: oracles.closed_form_payments(r, w, alpha) for r in MAIN_RULES}
            self.expect[i] = dict(w=w, alpha=alpha, ids=ids, pay=pay,
                                  market=oracles.market_medians(w))
        for key in self.egal_corpus:
            w, alpha, ids = oracles.load_weights(self.egal_doc(*key))
            self.expect[key] = dict(w=w, alpha=alpha, ids=ids)

    def _divide(self, i, rule):
        e = self.expect[i]

        def check(code, out, err):
            return oracles.check_divide(
                rule, code, out, e["w"], e["alpha"], e["ids"],
                expected=e["pay"].get(rule),
                market=e["market"] if rule == "indmkt" else None,
            )

        return Call("divide", ["divide", "--rule", rule, "--instance", self.catalog(i)], check)

    def _pps(self, i, rule):
        e = self.expect[i]

        def check(code, out, err):
            return oracles.check_pps(code, out, PPS_K, e["w"], e["pay"][rule],
                                     e["pay"]["globalprop"])

        argv = ["pps", "--rule", rule, "--instance", self.catalog(i), "--k", str(PPS_K)]
        return Call("pps", argv, check)

    def _egal(self, key):
        e = self.expect[key]

        def check(code, out, err):
            return oracles.check_divide("egal", code, out, e["w"], e["alpha"], e["ids"])

        return Call("egal", ["divide", "--rule", "egal", "--instance", self.egal_doc(*key)], check)

    def _sweep(self, j):
        users, artists, seeds = self.sweep_shape
        rows = self.path(f"rows{j}.csv")
        agg = self.path(f"agg{j}.csv")

        def check(code, out, err):
            return _check_sweep(code, out, rows, agg, seeds)

        argv = ["sweep", "--config", self.path(f"desk{j}.cfg"), "--alphas", "0.3,0.5",
                "--k", str(PPS_K), "--seeds", str(seeds), "--out", rows, "--agg-out", agg]
        return Call("sweep", argv, check)

    def pass_calls(self, p):
        calls = []
        for i in range(len(self.shapes)):
            calls += [self._divide(i, r) for r in MAIN_RULES + PORTIONING_NO_EGAL]
            calls += [self._pps(i, r) for r in MAIN_RULES]
        calls += [self._egal(key) for key in self.egal_corpus]
        calls += [self._sweep(j) for j in range(self.sweeps)]
        return self.shuffled(calls, p)


def _check_sweep(code, out, rows_path, agg_path, seeds):
    """Row counts for three rules x two alphas, and the invariants every
    row obeys: top-k mean >= bottom-k mean, envy >= 1, and the seed-level
    rows of the alpha-free rules repeat across alphas."""
    if code != 0:
        return f"exit code {code}"
    with open(rows_path) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    with open(agg_path) as fh:
        aggs = [line.strip().split(",") for line in fh][1:]
    if len(rows) != 3 * 2 * seeds or len(aggs) != 6:
        return f"{len(rows)} rows and {len(aggs)} aggregates"
    by_key = {}
    for rule, alpha, seed, k, top, bottom, envy, _ in rows:
        top, bottom, envy = float(top), float(bottom), float(envy)
        if not (top >= bottom and envy >= 1.0):
            return f"row {rule} {alpha} {seed} breaks top >= bottom or envy >= 1"
        by_key.setdefault((rule, seed), set()).add((top, bottom, envy))
    for (rule, _), values in by_key.items():
        if rule != "scaledup" and len(values) != 1:
            return f"{rule} rows change with alpha"
    return None


# ---------------------------------------------------------------------------
# detect: fake-engagement coalition search


def _strata(max_users=400):
    """Every (left, right, max left degree, delta) shape of a bipartite
    graph with at most 3 x 3 vertices whose reduction has at most
    ``max_users`` users. Larger reductions (418 to 939 users, 3.3 MB to
    7 MB of JSON each) would triple the set-up time."""
    out = []
    for left in (1, 2, 3):
        for right in (1, 2, 3):
            for d in range(1, right + 1):
                for delta in range(right + 1):
                    eps = 0.5 / (d * left * (d * (delta + 1) + 1))
                    users = int(np.ceil((d + 1) * left / (d * eps))) + left
                    if users <= max_users:
                        out.append((left, right, d, delta))
    return tuple(out)


DETECT_STRATA = _strata()
# (users, artists) of the gen catalogs searched greedily for k = 3. Greedy
# call times cluster by catalog; an odd number of catalogs puts the median
# inside the middle cluster, not on the edge between two.
GREEDY_SHAPES = ((300, 30), (450, 45), (600, 60), (800, 80), (1000, 100))
GREEDY_K = 3


def random_graph(rng, left, right, d):
    """Bipartite edges with maximum left degree exactly ``d``."""
    degrees = rng.integers(0, d + 1, size=left)
    degrees[rng.integers(left)] = d
    edges = []
    for u, deg in enumerate(degrees):
        for v in sorted(rng.choice(right, size=int(deg), replace=False)):
            edges.append((u, int(v)))
    return edges


class Detect(Workload):
    name = "detect"
    main_kinds = ("exact",)
    side_kinds = ("greedy",)

    def __init__(self, seed, strata=DETECT_STRATA, greedy_shapes=GREEDY_SHAPES):
        super().__init__(seed)
        self.strata = strata
        self.greedy_shapes = greedy_shapes
        rng = self.rng(2)
        self.graphs = []
        for left, right, d, delta in strata:
            edges = random_graph(rng, left, right, d)
            ell = int(rng.integers(1, left + 1))
            self.graphs.append((left, right, edges, ell, delta))
        self.gen_seeds = [int(s) for s in self.rng(3).integers(0, 2**31, size=len(greedy_shapes))]
        self.expect = {}

    def reduction(self, g):
        return self.path(f"reduction{g}.json")

    def greedy_doc(self, i):
        return self.path(f"greedy{i}.json")

    def write_files(self):
        for g, (left, right, edges, _, _) in enumerate(self.graphs):
            with open(self.path(f"graph{g}.txt"), "w") as fh:
                fh.write(f"{left} {right}\n")
                fh.writelines(f"{u} {v}\n" for u, v in edges)

    def setup_calls(self):
        calls = []
        for g, (_, _, _, ell, delta) in enumerate(self.graphs):
            calls.append(["reduce-ssbve", "--graph", self.path(f"graph{g}.txt"), "--ell", str(ell),
                          "--delta", str(delta), "--out", self.reduction(g)])
        for i, ((n, m), s) in enumerate(zip(self.greedy_shapes, self.gen_seeds)):
            calls.append(["gen", "--users", str(n), "--artists", str(m), "--seed", str(s),
                          "--out", self.greedy_doc(i)])
        return calls

    def warmup_calls(self):
        small = min(range(len(self.graphs)), key=lambda g: self.strata[g])
        ok = lambda code, out, err: None if code == 0 else f"exit {code}"  # noqa: E731
        return [
            Call("warmup", ["psp", "--instance", self.reduction(small), "--k", "1"], ok),
            Call("warmup", ["psp", "--instance", self.greedy_doc(0), "--k", "1",
                            "--mode", "greedy"], ok),
        ]

    def prepare(self):
        from streamshare.pspdetect import BipartiteGraph, ssbve_brute

        for g, (left, right, edges, ell, delta) in enumerate(self.graphs):
            w, alpha, _ = oracles.load_weights(self.reduction(g))
            d = max(sum(1 for u, _ in edges if u == x) for x in range(left))
            verdict = ssbve_brute(BipartiteGraph(left, right, tuple(edges)), ell, delta)
            self.expect[("exact", g)] = dict(w=w, alpha=alpha, k=delta + 1, verdict=verdict,
                                             threshold=(ell - 1) / d)
        for i in range(len(self.greedy_shapes)):
            w, alpha, _ = oracles.load_weights(self.greedy_doc(i))
            self.expect[("greedy", i)] = dict(w=w, alpha=alpha, k=GREEDY_K)

    def _exact(self, g):
        e = self.expect[("exact", g)]

        def check(code, out, err):
            return oracles.check_psp(code, out, "exact", e["k"], e["w"], e["alpha"],
                                     verdict=e["verdict"], threshold=e["threshold"])

        argv = ["psp", "--instance", self.reduction(g), "--k", str(e["k"]), "--mode", "exact"]
        return Call("exact", argv, check)

    def _greedy(self, i):
        e = self.expect[("greedy", i)]

        def check(code, out, err):
            return oracles.check_psp(code, out, "greedy", e["k"], e["w"], e["alpha"])

        argv = ["psp", "--instance", self.greedy_doc(i), "--k", str(e["k"]), "--mode", "greedy"]
        return Call("greedy", argv, check)

    def pass_calls(self, p):
        calls = [self._exact(g) for g in range(len(self.graphs))]
        calls += [self._greedy(i) for i in range(len(self.greedy_shapes))]
        return self.shuffled(calls, p)


WORKLOADS = {w.name: w for w in (Audit, Catalog, Detect)}
