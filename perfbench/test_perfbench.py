"""Self-tests of the benchmark: its oracles catch wrong outputs, failures
land in the right workload's failure share, tracing changes no output and
the traced self times account for the traced wall time.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from streamshare import cli, evaluate, portioning, pspdetect, rules  # noqa: E402
from streamshare.axioms import SUITE_GRID  # noqa: E402
from streamshare.core import Instance  # noqa: E402
from streamshare.pspdetect import PspResult  # noqa: E402


def tiny(name, seed=3):
    """A small instance of each workload that runs in about a second."""
    if name == "audit":
        w = workloads.Audit(seed, search_trials=2, verify_trials=5)
    elif name == "catalog":
        w = workloads.Catalog(
            seed,
            shapes=((90, 12, 0.6), (120, 15, 1.0)),
            egal_corpus=((50, 20, 0), (50, 20, 1)),
            sweeps=1,
            sweep_users=60,
            sweep_artists=12,
            sweep_seeds=2,
        )
    else:
        strata = tuple(s for s in workloads.DETECT_STRATA if s[0] * s[1] <= 4)
        w = workloads.Detect(seed, strata=strata, greedy_shapes=((60, 8),))
    w.min_main_samples = 1
    return w


def run_tiny(workload, tmp_path, tracer=None):
    caller = run.Caller(cli.main, tracer)
    if tracer is not None:
        tracer.install()
    try:
        setup_s, records, passes = run.execute(
            workload, caller, str(tmp_path / workload.name), seconds=0, repeats=1
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    return caller, records


def outcomes(records, outcome):
    return [r for r in records if r[3] == outcome]


def test_audit_cells_are_the_suite_grid():
    assert [(a, r) for _, a, r in workloads.AUDIT_CELLS] == [
        (axiom.value, rule) for axiom, rule in SUITE_GRID
    ]


def test_closed_forms_match_the_rules():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.exponential(1.0, size=(7, 4)) * (rng.random((7, 4)) < 0.6)
        w[:, 0] += 0.1
        alpha = float(rng.uniform(0.1, 1.0))
        for rule in workloads.MAIN_RULES:
            want = evaluate(rule, Instance(w, alpha))
            np.testing.assert_allclose(
                oracles.closed_form_payments(rule, w, alpha), want, rtol=1e-12, atol=1e-12
            )


def test_market_oracle_matches_stacked_medians():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, m = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        w = rng.exponential(1.0, size=(n, m))
        t, med = oracles.market_medians(w)
        norm = w / w.sum(axis=1, keepdims=True)
        phantoms = np.minimum(np.arange(n + 1) * t, 1.0)
        stacked = np.vstack([norm, np.repeat(phantoms[:, None], m, axis=1)])
        np.testing.assert_allclose(med, np.median(stacked, axis=0), atol=1e-15)
        assert abs(med.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(
            med / med.sum(), portioning.market_solution(norm).shares, atol=1e-9
        )


@pytest.mark.parametrize("name", ["audit", "catalog", "detect"])
def test_tiny_workloads_are_correct(name, tmp_path):
    _, records = run_tiny(tiny(name), tmp_path)
    assert not outcomes(records, "wrong")
    failed = outcomes(records, "failed")
    # the only tolerated failure is the known egal solver defect
    assert all(r[0] == "egal" for r in failed)


def test_wrong_payment_vector_counts_in_catalog(tmp_path, monkeypatch):
    impl = dict(rules._MAIN_IMPL)
    # a permuted vector keeps the budget, so only the closed form catches it
    impl[rules.RuleId.USER_PROP] = lambda inst: rules.user_prop(inst)[::-1].copy()
    monkeypatch.setattr(rules, "_MAIN_IMPL", impl)
    w = tiny("catalog")
    _, records = run_tiny(w, tmp_path)
    wrong = outcomes(records, "wrong")
    assert wrong and all("userprop" in r[5] for r in wrong)
    _, named = run.end_to_end(w, records, [(0.0, 1.0, 1.0)], [(0.0, 1.0, 1.0)])
    not_ok = outcomes(records, "wrong") + outcomes(records, "failed")
    assert named["catalog.failed_frac"] == len(not_ok) / len(records)
    assert named["catalog.failed_frac"] > 0


def test_injected_solver_failure_counts_in_catalog(tmp_path, monkeypatch):
    def broken(norm):
        raise portioning.SolverFailure("injected")

    monkeypatch.setattr(portioning, "_egal_share", broken)
    w = tiny("catalog")
    _, records = run_tiny(w, tmp_path)
    egal = [r for r in records if r[0] == "egal"]
    assert egal and all(r[3] == "failed" for r in egal)
    assert not outcomes(records, "wrong")
    _, named = run.end_to_end(w, records, [(0.0, 1.0, 1.0)], [(0.0, 1.0, 1.0)])
    assert named["catalog.egal_failed_frac"] == 1.0
    assert named["catalog.failed_frac"] == len(egal) / len(records)


def test_wrong_psp_verdict_counts_in_detect(tmp_path, monkeypatch):
    # every coalition reports no profitable removal: right on "no"
    # instances, a wrong verdict on "yes" instances
    monkeypatch.setattr(
        pspdetect, "psp_exact", lambda inst, u: PspResult(tuple(sorted(u)), (), 0.0)
    )
    w = tiny("detect")
    _, records = run_tiny(w, tmp_path)
    yes_calls = [
        r for r in records
        if r[0] == "exact"
        and w.expect[("exact", int(re.search(r"reduction(\d+)", r[5][2]).group(1)))]["verdict"]
    ]
    wrong = outcomes(records, "wrong")
    assert yes_calls
    assert wrong == yes_calls
    assert all("brute-force" in r[4] for r in wrong)
    _, named = run.end_to_end(w, records, [(0.0, 1.0, 1.0)], [(0.0, 1.0, 1.0)])
    assert named["detect.failed_frac"] == len(wrong) / len(records)


def test_wrong_suite_margin_counts_in_audit():
    call = workloads.Audit(0)._call(workloads.AUDIT_CELLS[0], 4, 0)
    line = "axiom=FraudProof rule=userprop trials=4 max_margin=0.5 passed=True\n"
    assert workloads.Audit(0).classify(call, 0, line, "")[0] == "wrong"
    ok = line.replace("0.5", "1e-12")
    assert workloads.Audit(0).classify(call, 0, ok, "")[0] == "ok"


def _strip_runtime(out):
    return re.sub(r"runtime_ms=\S+", "", out)


@pytest.mark.parametrize("name", ["audit", "catalog", "detect"])
def test_tracing_changes_no_output(name, tmp_path):
    outputs = []
    for tracer in (None, spans.Tracer()):
        w = tiny(name)
        seen = []
        caller = run.Caller(cli.main, tracer)
        invoke = caller.invoke

        def capture(argv, invoke=invoke, seen=seen, w=w):
            code, out, err, elapsed = invoke(argv)
            seen.append(
                [x.replace(w.dir, "") for x in argv + [str(code), _strip_runtime(out), err]]
            )
            return code, out, err, elapsed

        caller.invoke = capture
        if tracer is not None:
            tracer.install()
        try:
            run.execute(w, caller, str(tmp_path / f"{name}{tracer is None}"), 0, repeats=1)
        finally:
            if tracer is not None:
                tracer.uninstall()
        outputs.append(seen)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["audit", "catalog", "detect"])
def test_self_times_account_for_traced_wall_time(name, tmp_path):
    tracer = spans.Tracer()
    caller, records = run_tiny(tiny(name), tmp_path, tracer)
    assert tracer.accounted_s() == pytest.approx(caller.call_s, rel=0.01)
    metrics = spans.layer_metrics(tracer)
    reported = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    assert reported == pytest.approx(caller.call_s, rel=0.01)
    assert metrics["cli.calls"][0] == tracer.calls["cli"] > 0


def test_tracer_restores_every_binding():
    before = (cli.load_document, cli.evaluate, pspdetect.validate, dict(portioning._COORDINATEWISE))
    tracer = spans.Tracer()
    tracer.install()
    assert cli.evaluate is not before[1]
    tracer.uninstall()
    after = (cli.load_document, cli.evaluate, pspdetect.validate, dict(portioning._COORDINATEWISE))
    assert before == after


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_skips_layers_the_program_no_longer_has(monkeypatch):
    from streamshare import axioms

    monkeypatch.delattr(axioms, "_TRIALS")
    monkeypatch.delattr(portioning, "_util_share")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["portioning.util", "axioms.search", "axioms.verify"]
