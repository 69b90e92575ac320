"""End-to-end exercises of the command-line surface, in process unless a
test needs a real pipe."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from helpers import make
import streamshare
from streamshare import experiments, fixtures, save_document
from streamshare.cli import _AXIOM_ALIASES, build_parser, main


def _doc(tmp_path, rows, alpha=1.0, name="inst.json"):
    path = tmp_path / name
    save_document(path, make(rows, alpha=alpha))
    return str(path)


def test_divide_equal_thirds(tmp_path, capsys):
    path = _doc(tmp_path, [[80, 19, 1]])
    assert main(["divide", "--rule", "usereq", "--instance", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "artist_id,payment"
    values = [line.split(",")[1] for line in out[1:]]
    assert values == ["0.333333333333"] * 3


def test_divide_alpha_flag_beats_env(tmp_path, capsys, monkeypatch):
    path = _doc(tmp_path, [[1, 1]])
    monkeypatch.setenv("STREAMSHARE_ALPHA", "0.25")
    assert main(["divide", "--rule", "globalprop", "--instance", path]) == 0
    total = sum(float(l.split(",")[1]) for l in capsys.readouterr().out.splitlines()[1:])
    assert abs(total - 0.25) < 1e-12

    assert main(["divide", "--rule", "globalprop", "--instance", path, "--alpha", "0.5"]) == 0
    total = sum(float(l.split(",")[1]) for l in capsys.readouterr().out.splitlines()[1:])
    assert abs(total - 0.5) < 1e-12


def test_divide_bad_env_alpha(tmp_path, capsys, monkeypatch):
    path = _doc(tmp_path, [[1, 1]])
    monkeypatch.setenv("STREAMSHARE_ALPHA", "most")
    assert main(["divide", "--rule", "globalprop", "--instance", path]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["divide", "--rule", "globalprop", "--alpha", "1.5"],
        ["divide", "--rule", "globalprop", "--alpha", "0"],
        ["pps", "--rule", "userprop", "--k", "1", "--alpha", "-2"],
    ],
)
def test_alpha_flag_outside_unit_interval(argv, tmp_path, capsys):
    path = _doc(tmp_path, [[1, 1], [2, 0]])
    assert main(argv + ["--instance", path]) == 1
    assert "alpha must be in (0, 1]" in capsys.readouterr().err


def test_env_alpha_outside_unit_interval(tmp_path, capsys, monkeypatch):
    path = _doc(tmp_path, [[1, 1]])
    monkeypatch.setenv("STREAMSHARE_ALPHA", "-1")
    assert main(["divide", "--rule", "globalprop", "--instance", path]) == 1
    assert "alpha must be in (0, 1]" in capsys.readouterr().err


def test_pps_report(tmp_path, capsys):
    path = _doc(tmp_path, [[3, 1], [0, 1]])
    assert main(["pps", "--rule", "userprop", "--instance", path, "--k", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "artist_id,pps,relative_to_globalprop"
    assert lines[1] == "a0,0.25,0.625"
    assert lines[2] == "a1,0.625,1.5625"
    assert lines[3] == "# max_envy=2.5"
    assert lines[4] == "# top1_mean=1.5625"
    assert lines[5] == "# bottom1_mean=0.625"


@pytest.mark.parametrize("k", ["0", "3", "1000"])
def test_pps_rejects_k_before_printing(k, tmp_path, capsys):
    path = _doc(tmp_path, [[3, 1], [0, 1]])
    assert main(["pps", "--rule", "scaledup", "--instance", path, "--k", k]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: k must lie in [1, 2]")


def test_pps_masks_streamless_column(tmp_path, capsys):
    path = _doc(tmp_path, [[2, 0]])
    assert main(["pps", "--rule", "userprop", "--instance", path, "--k", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "a1,,", "no pay-per-stream without streams"
    assert lines[3] == "# max_envy=1"


def test_check_fixtures_witness_exit(tmp_path, capsys):
    code = main(["check", "--axiom", "fraud", "--rule", "globalprop", "--fixtures"])
    assert code == 2
    out = capsys.readouterr().out
    assert "fixture=globalprop-fraud" in out
    assert "margin=2" in out and "violation=True" in out


@pytest.mark.parametrize(
    "axiom", ["anonymity", "neutrality", "click-fraud", "user-addition-monotone"]
)
def test_check_random_trials_refuses_axioms_without_suite(axiom, capsys):
    code = main(["check", "--axiom", axiom, "--rule", "userprop", "--random-trials", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: axiom '{axiom}' has no randomized suite; --random-trials takes bribery, "
        "engagement-monotone, fraud, nfr, no-free-ridership, pigou-dalton, strong-sybil, "
        "sybil\n"
    )


# stdout and exit code of ``check --fixtures`` for every (axiom, rule) pair
# the fixture library covers under a CLI rule name
CHECK_FIXTURES_GOLDEN = [
    ("bribery", "egal", 2, [
        "fixture=egal-bribery gain=1.25 bound=1 margin=0.249999999997 violation=True",
    ]),
    ("bribery", "geo", 2, [
        "fixture=geo-bribery gain=1.5 bound=1 margin=0.5 violation=True",
    ]),
    ("bribery", "globalprop", 2, [
        "fixture=globalprop-bribery gain=2.5 bound=1 margin=1.5 violation=True",
    ]),
    ("bribery", "indmkt", 2, [
        "fixture=indmkt-bribery gain=2.77777777778 bound=1 margin=1.77777777778 violation=True",
    ]),
    ("bribery", "max", 2, [
        "fixture=max-bribery gain=1.16666666667 bound=1 margin=0.166666666667 violation=True",
    ]),
    ("bribery", "med", 2, [
        "fixture=med-bribery gain=3 bound=1 margin=2 violation=True",
    ]),
    ("bribery", "min", 2, [
        "fixture=min-bribery gain=1.5 bound=1 margin=0.5 violation=True",
    ]),
    ("bribery", "util", 2, [
        "fixture=util-bribery gain=5 bound=1 margin=4 violation=True",
    ]),
    ("fraud", "egal", 2, [
        "fixture=egal-fraud gain=1.75 bound=1 margin=0.749999999997 violation=True",
    ]),
    ("fraud", "geo", 2, [
        "fixture=geo-fraud gain=2 bound=1 margin=1 violation=True",
    ]),
    ("fraud", "globalprop", 2, [
        "fixture=globalprop-fraud gain=3 bound=1 margin=2 violation=True",
    ]),
    ("fraud", "indmkt", 2, [
        "fixture=indmkt-fraud gain=2.5 bound=1 margin=1.5 violation=True",
    ]),
    ("fraud", "max", 2, [
        "fixture=max-fraud gain=1.83333333333 bound=1 margin=0.833333333333 violation=True",
    ]),
    ("fraud", "med", 2, [
        "fixture=med-fraud gain=2 bound=1 margin=1 violation=True",
    ]),
    ("fraud", "min", 2, [
        "fixture=min-fraud gain=2 bound=1 margin=1 violation=True",
    ]),
    ("fraud", "util", 2, [
        "fixture=util-fraud gain=3 bound=1 margin=2 violation=True",
    ]),
    ("pigou-dalton", "scaledup", 2, [
        "fixture=scaledup-pigoudalton gain=0.0555555555556 bound=0 margin=0.0555555555556 violation=True",
    ]),
    ("pigou-dalton", "userprop", 2, [
        "fixture=userprop-pigoudalton gain=0.0666666666667 bound=0 margin=0.0666666666667 violation=True",
    ]),
    ("strong-sybil", "userprop", 2, [
        "fixture=userprop-strongsybil gain=0.2 bound=0 margin=0.2 violation=True",
    ]),
    ("sybil", "egal", 2, [
        "fixture=egal-sybil gain=0.499999999995 bound=0 margin=0.499999999995 violation=True",
    ]),
    ("sybil", "geo", 2, [
        "fixture=geo-sybil gain=1.17157287525 bound=0 margin=1.17157287525 violation=True",
    ]),
    ("sybil", "indmkt", 2, [
        "fixture=indmkt-sybil gain=1.5 bound=0 margin=1.5 violation=True",
    ]),
    ("sybil", "max", 2, [
        "fixture=max-sybil gain=0.5 bound=0 margin=0.5 violation=True",
    ]),
    ("sybil", "med", 2, [
        "fixture=med-sybil gain=1.5 bound=0 margin=1.5 violation=True",
    ]),
    ("sybil", "min", 2, [
        "fixture=min-sybil gain=1 bound=0 margin=1 violation=True",
    ]),
    ("sybil", "usereq", 2, [
        "fixture=usereq-sybil gain=0.166666666667 bound=0 margin=0.166666666667 violation=True",
    ]),
    ("sybil", "util", 2, [
        "fixture=util-sybil gain=1 bound=0 margin=1 violation=True",
    ]),
    ("user-addition-monotone", "globalprop", 2, [
        "fixture=globalprop-uam gain=2 bound=0 margin=2 violation=True",
    ]),
]


@pytest.mark.parametrize(
    "axiom, rule, code, lines", CHECK_FIXTURES_GOLDEN,
    ids=[f"{a}-{r}" for a, r, _, _ in CHECK_FIXTURES_GOLDEN],
)
def test_check_fixtures_golden(axiom, rule, code, lines, capsys):
    assert main(["check", "--axiom", axiom, "--rule", rule, "--fixtures"]) == code
    assert capsys.readouterr().out.splitlines() == lines


def test_check_fixtures_golden_covers_every_named_rule_fixture():
    golden = {(_AXIOM_ALIASES[a], r) for a, r, _, _ in CHECK_FIXTURES_GOLDEN}
    named = {(f.axiom, f.rule) for f in fixtures().values() if isinstance(f.rule, str)}
    assert golden == named and len(golden) == 28


def test_check_random_trials_pass(capsys):
    code = main([
        "check", "--axiom", "fraud", "--rule", "userprop",
        "--random-trials", "60", "--seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "passed=True" in out and "trials=60" in out


def test_check_random_trials_witness(capsys):
    code = main([
        "check", "--axiom", "fraud", "--rule", "globalprop",
        "--random-trials", "500", "--seed", "0",
    ])
    assert code == 2
    assert capsys.readouterr().out.startswith("axiom=FraudProof rule=globalprop")


@pytest.mark.parametrize("rule, line", [
    ("scaledup", "axiom=StrongSybilProof rule=scaledup gain=1.05465606332 bound=0 "
                 "margin=1.05465606332 target={0} source=seed:0/trial:110"),
    ("usereq", "axiom=StrongSybilProof rule=usereq gain=1.08055741939 bound=0 "
               "margin=1.08055741939 target={1} source=seed:0/trial:76"),
])
def test_strong_sybil_suite_finds_scaledup_and_usereq_violations(rule, line, capsys):
    """The randomized StrongSybilProof suite at seed 0 refutes the axiom for
    scaledup and usereq, as for userprop; globalprop passes."""
    argv = ["check", "--axiom", "strong-sybil", "--rule", rule, "--random-trials", "300", "--seed", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_random_trials_below_one_is_a_usage_error(trials, capsys):
    code = main([
        "check", "--axiom", "fraud", "--rule", "userprop", "--random-trials", trials,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "trials" in captured.err


def test_check_unknown_axiom(capsys):
    assert main(["check", "--axiom", "fairness", "--rule", "userprop", "--fixtures"]) == 1
    assert "unknown axiom" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["divide", "pps", "check", "sweep"])
def test_unknown_rule_is_named_without_quotes(command, tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("users = 40\nartists = 6\n")
    argv = {
        "divide": ["divide", "--rule", "foo", "--instance", _doc(tmp_path, [[1, 2]])],
        "pps": ["pps", "--rule", "foo", "--instance", _doc(tmp_path, [[1, 2]]), "--k", "1"],
        "check": ["check", "--axiom", "fraud", "--rule", "foo", "--fixtures"],
        "sweep": ["sweep", "--config", str(config), "--alphas", "0.5", "--k", "1",
                  "--seeds", "1", "--out", str(tmp_path / "rows.csv"), "--rules", "userprop,foo"],
    }[command]
    assert main(argv) == 1
    names = [rule.value for rule in streamshare.ALL_RULES]
    assert capsys.readouterr().err == f"error: unknown rule 'foo'; choose from {names}\n"


def test_check_no_matching_fixture(capsys):
    assert main(["check", "--axiom", "fraud", "--rule", "usereq", "--fixtures"]) == 1
    assert "no fixtures" in capsys.readouterr().err


def test_check_modes_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--axiom", "fraud", "--rule", "userprop",
              "--fixtures", "--random-trials", "5"])
    assert exc.value.code == 1


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["divide", "--rule", "userprop"])  # missing --instance
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_calls_in_one_process_match_a_fresh_parser(tmp_path, capsys):
    """The parser is built once per process; a run of calls, usage errors
    and help included, prints and exits as if each call built its own."""
    path = _doc(tmp_path, [[1, 0]] * 5 + [[0, 5]])
    calls = [
        ["divide", "--rule", "usereq", "--instance", path],
        ["divide", "--rule", "userprop"],  # missing --instance
        ["psp", "--instance", path, "--k", "1"],
        ["--help"],
        ["check", "--axiom", "fraud", "--rule", "globalprop", "--fixtures"],
        ["psp", "--help"],
        ["pps", "--rule", "userprop", "--instance", path, "--k", "1"],
        ["psp", "--instance", path, "--k", "1", "--mode", "other"],
        ["gen", "--users", "6", "--artists", "3", "--out", str(tmp_path / "g.json")],
        ["check", "--axiom", "fraud", "--rule", "userprop", "--random-trials", "3"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, re.sub(r"runtime_ms=\S+", "", out), err

    in_a_row = [run(argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert in_a_row == fresh
    assert [code for code, _, _ in in_a_row] == [0, 1, 0, 0, 2, 0, 0, 1, 0, 0]


def test_numeric_failure_exit(tmp_path, capsys):
    path = _doc(tmp_path, [[1, 0], [0, 1]])
    assert main(["divide", "--rule", "min", "--instance", path]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_divide_weight_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "version": 1, "alpha": 1.0, "user_ids": ["u0"], "artist_ids": ["a0", "a1"],
        "weights": [[int("9" * 400), 1]],
    }))
    assert main(["divide", "--rule", "globalprop", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_missing_file(capsys):
    assert main(["divide", "--rule", "userprop", "--instance", "/nope.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["divide", "--rule", "userprop", "--instance", "{dir}"],
        ["gen", "--users", "5", "--artists", "3", "--out", "{dir}"],
    ],
)
def test_directory_in_place_of_a_file_is_a_usage_error(argv, tmp_path, capsys):
    # IsADirectoryError is an OSError but not a FileNotFoundError
    assert main([a.format(dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:"), err
    assert "Traceback" not in err


def test_closed_stdout_exits_quietly_with_the_sigpipe_status(tmp_path):
    # 8000 payment lines overfill a 64 KiB pipe buffer, so the writer meets the closed pipe
    path = _doc(tmp_path, np.arange(1.0, 8001.0)[None, :])
    script = "import sys; from streamshare.cli import main; sys.exit(main())"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(streamshare.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "divide", "--rule", "userprop", "--instance", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"artist_id,payment\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_psp_example(tmp_path, capsys):
    rows = [[1, 0]] * 5 + [[0, 5]]
    path = _doc(tmp_path, rows)
    assert main(["psp", "--instance", path, "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "mode=exact" in out
    assert "artists=a1" in out and "users=u5" in out
    assert "profit=2 " in out


def test_psp_empty_answer(tmp_path, capsys):
    path = _doc(tmp_path, [[1, 1], [1, 1]])
    assert main(["psp", "--instance", path, "--k", "1", "--mode", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "artists=- users=- profit=0" in out


@pytest.mark.parametrize(
    "rows, mode",
    [
        ([[1e17, 0.0], [1.0, 1.0]], "exact"),
        ([[3e16, 1.0], [1.0, 1.0], [2.0, 0.0]], "exact"),
        ([[1e17, 0.0], [1.0, 1.0]], "greedy"),
        ([[1e300, 1e300], [1.0, 0.0]], "exact"),
    ],
)
def test_psp_refuses_a_total_that_absorbs_a_user(tmp_path, rows, mode):
    """Removing the big user leaves a total that rounds to 0, or weights
    past about 1e154 overflow the search's products, so a profit is NaN:
    psp exits with a numeric failure, neither looping on the NaN ratio nor
    dropping it as profit 0, and stderr starts with it, no numpy warning
    printed before."""
    path = _doc(tmp_path, rows)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(streamshare.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "streamshare.cli", "psp", "--instance", path, "--k", "1",
         "--mode", mode],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3, proc.stdout
    assert proc.stderr.startswith("numeric failure: psp on "), proc.stderr
    assert "NaN profit for artist set (0,)" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_gen_then_divide_round_trip(tmp_path, capsys):
    out = str(tmp_path / "gen.json")
    code = main(["gen", "--users", "30", "--artists", "6", "--seed", "7",
                 "--out", out, "--alpha", "0.6"])
    assert code == 0
    assert f"wrote 30 users x 6 artists (alpha=0.6) to {out}" in capsys.readouterr().out

    assert main(["divide", "--rule", "scaledup", "--instance", out]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    total = sum(float(l.split(",")[1]) for l in lines)
    assert abs(total - 0.6 * 30) < 1e-9


def test_gen_alpha_outside_unit_interval_writes_nothing(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = main(["gen", "--users", "5", "--artists", "3", "--out", str(out),
                 "--alpha", "1.5"])
    assert code == 1
    assert "alpha must be in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_gen_bad_follow_range(tmp_path, capsys):
    code = main(["gen", "--users", "5", "--artists", "3", "--out",
                 str(tmp_path / "x.json"), "--follow-min", "4"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "gen", "sweep"])
def test_a_negative_seed_is_a_usage_error_naming_the_seed(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    config = tmp_path / "sweep.cfg"
    config.write_text("users=10\nartists=4\nseed=-2\n")
    argv = {
        "check": ["check", "--axiom", "fraud", "--rule", "scaledup",
                  "--random-trials", "3", "--seed", "-1"],
        "gen": ["gen", "--users", "5", "--artists", "3", "--seed", "-1", "--out", str(out)],
        "sweep": ["sweep", "--config", str(config), "--alphas", "0.5", "--k", "1",
                  "--seeds", "1", "--out", str(out)],
    }[command]
    assert main(argv) == 1
    seed = "-2" if command == "sweep" else "-1"
    assert capsys.readouterr().err == f"error: seed must be >= 0 and be whole, got {seed}\n"
    assert not out.exists()


def test_sweep_round_trip(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("users = 40\nartists = 6\nrange = 1,3\nseed = 5\n# comment\n")
    rows_out = tmp_path / "rows.csv"
    aggs_out = tmp_path / "aggs.csv"
    code = main(["sweep", "--config", str(config), "--alphas", "0.3,0.7",
                 "--k", "2", "--seeds", "3", "--out", str(rows_out),
                 "--agg-out", str(aggs_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote 18 rows" in out and "wrote 6 aggregate rows" in out
    lines = rows_out.read_text().splitlines()
    assert len(lines) == 19
    assert lines[0].startswith("rule,alpha,seed,")
    assert len(aggs_out.read_text().splitlines()) == 7


def test_sweep_agg_out_draws_each_seed_once(tmp_path, capsys, monkeypatch):
    drawn = []
    real = experiments.gen_synthetic
    monkeypatch.setattr(
        experiments, "gen_synthetic", lambda config: drawn.append(config.seed) or real(config)
    )
    config = tmp_path / "sweep.cfg"
    config.write_text("users = 40\nartists = 6\nrange = 1,3\nseed = 5\n")
    code = main(["sweep", "--config", str(config), "--alphas", "0.3,0.7",
                 "--k", "2", "--seeds", "3", "--out", str(tmp_path / "rows.csv"),
                 "--agg-out", str(tmp_path / "aggs.csv")])
    assert code == 0
    assert drawn == [5, 6, 7]


@pytest.mark.filterwarnings("error")
def test_sweep_with_inf_envy_on_every_seed_is_quiet(tmp_path, capsys):
    # util pays some artist 0 on each seed, so its envy and the IQR are inf and nan
    config = tmp_path / "sweep.cfg"
    config.write_text("users=60\nartists=12\nrange=1,4\nseed=3\n")
    aggs_out = tmp_path / "aggs.csv"
    code = main(["sweep", "--config", str(config), "--rules", "util", "--alphas", "0.5",
                 "--k", "3", "--seeds", "3", "--out", str(tmp_path / "rows.csv"),
                 "--agg-out", str(aggs_out)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert aggs_out.read_text() == (
        "rule,alpha,k,n_seeds,top_median,top_iqr,bottom_median,bottom_iqr,envy_median,envy_iqr\n"
        "util,0.5,3,3,2.40341880342,0.185260518349,0,0,inf,nan\n"
    )


def test_sweep_rejects_alphas_before_drawing(tmp_path, capsys, monkeypatch):
    drawn = []
    real = experiments.gen_synthetic
    monkeypatch.setattr(
        experiments, "gen_synthetic", lambda config: drawn.append(config.seed) or real(config)
    )
    config = tmp_path / "sweep.cfg"
    config.write_text("users = 40\nartists = 6\nrange = 1,3\nseed = 5\n")
    code = main(["sweep", "--config", str(config), "--alphas", "1.5",
                 "--k", "2", "--seeds", "3", "--out", str(tmp_path / "rows.csv")])
    assert code == 1
    assert "alphas must lie in (0, 1]" in capsys.readouterr().err
    assert drawn == []


def test_sweep_rejects_rules_before_drawing(tmp_path, capsys, monkeypatch):
    drawn = []
    real = experiments.gen_synthetic
    monkeypatch.setattr(
        experiments, "gen_synthetic", lambda config: drawn.append(config.seed) or real(config)
    )
    config = tmp_path / "sweep.cfg"
    config.write_text("users = 40\nartists = 6\nrange = 1,3\nseed = 5\n")
    code = main(["sweep", "--config", str(config), "--alphas", "0.5", "--rules", "foo",
                 "--k", "2", "--seeds", "3", "--out", str(tmp_path / "rows.csv")])
    assert code == 1
    assert "unknown rule 'foo'" in capsys.readouterr().err
    assert drawn == []


def test_sweep_range_defaults_to_gen_follow_range(tmp_path, capsys, monkeypatch):
    # like gen's --follow-min/--follow-max: 1 to min(10, artists)
    drawn = []
    real = experiments.gen_synthetic
    monkeypatch.setattr(
        experiments, "gen_synthetic", lambda config: drawn.append(config) or real(config)
    )
    for artists, high in ((5, 5), (12, 10)):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"users = 100\nartists = {artists}\n")
        code = main(["sweep", "--config", str(config), "--alphas", "0.5", "--k", "1",
                     "--seeds", "1", "--out", str(tmp_path / "rows.csv")])
        assert code == 0, capsys.readouterr().err
        assert drawn.pop().artist_count_range == (1, high)


def test_sweep_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("users=5\nartists=3\nfanout=2\n")
    code = main(["sweep", "--config", str(config), "--alphas", "0.5",
                 "--k", "1", "--seeds", "1", "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert "unknown sweep config keys" in capsys.readouterr().err


def test_reduce_ssbve_then_psp(tmp_path, capsys):
    graph = tmp_path / "path.graph"
    graph.write_text("# 2x2 path\n2 2\n0 0\n0 1\n1 1\n")
    out = tmp_path / "hard.json"
    code = main(["reduce-ssbve", "--graph", str(graph), "--ell", "2",
                 "--delta", "1", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out
    assert "k=2 threshold=0.5 d=2 eps=0.025 t=120" in line

    doc = json.loads(out.read_text())
    assert len(doc["user_ids"]) == 122

    assert main(["psp", "--instance", str(out), "--k", "2", "--mode", "greedy"]) == 0
    assert "profit=" in capsys.readouterr().out


def test_reduce_ssbve_bad_graph(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_text("2 2\n0 0 9\n")
    code = main(["reduce-ssbve", "--graph", str(graph), "--ell", "1",
                 "--delta", "1", "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "edge line" in capsys.readouterr().err


@pytest.mark.parametrize("lines, line_no, message", [
    ("users=abc\nartists=5\n", 1, "users must be an integer, got 'abc'"),
    ("users=10\nartists=5\nlambda=x\n", 3, "lambda must be a number, got 'x'"),
    ("users=10\nartists=5\nrange=12\n", 3, "range must be two integers 'lo,hi', got '12'"),
    ("users=5\nartists=3\n# again\nusers=7\n", 4, "users is set twice, on lines 1 and 4"),
], ids=["users", "lambda", "range", "repeated"])
def test_sweep_config_names_a_value_that_does_not_parse(tmp_path, capsys, lines, line_no, message):
    config = tmp_path / "sweep.cfg"
    config.write_text(lines)
    code = main(["sweep", "--config", str(config), "--alphas", "0.5", "--k", "1",
                 "--seeds", "1", "--out", str(tmp_path / "rows.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {config}:{line_no}: {message}\n"
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("2 x\n0 0\n", "first line must be 'LEFT RIGHT', two integers, got '2 x'"),
    ("2 2\n0 0\n0 a\n", "edge line must be 'u v', two integers, got '0 a'"),
], ids=["header", "edge"])
def test_reduce_ssbve_names_a_graph_line_that_does_not_parse(tmp_path, capsys, text, message):
    graph = tmp_path / "bad.graph"
    graph.write_text(text)
    code = main(["reduce-ssbve", "--graph", str(graph), "--ell", "1",
                 "--delta", "1", "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {graph}: {message}\n"
