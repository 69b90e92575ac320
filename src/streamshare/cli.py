"""Command-line surface tying the library together.

Exit codes are a stable contract for CI:
0 success / no violation, 1 usage or input error, 2 a violation witness
was found, 3 a numeric solver failed, 141 (128 + SIGPIPE) the reader of
stdout closed it early; nothing is printed on stderr then.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .axioms import (
    SUITE_AXIOMS,
    AxiomId,
    run_suite,
    witness_line,
)
from .core import BadAlphaError, with_alpha
from .experiments import (
    SynthConfig,
    gen_synthetic,
    replicate,
    sweep_seeds,
    write_aggregates_csv,
    write_rows_csv,
)
from .fixtures import fixtures, verify_fixture
from .ingest import load_document, save_document
from .metrics import DegenerateEnvyError, pps, topk_bottomk_means
from .portioning import DegenerateAggregateError, SolverFailure
from .pspdetect import BipartiteGraph, find_suspicious, ssbve_reduction
from .rules import coerce_rule, evaluate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WITNESS = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141

ALPHA_ENV = "STREAMSHARE_ALPHA"

_AXIOM_ALIASES = {
    "fraud": AxiomId.FRAUD_PROOF,
    "bribery": AxiomId.BRIBERY_PROOF,
    "sybil": AxiomId.SYBIL_PROOF,
    "strong-sybil": AxiomId.STRONG_SYBIL_PROOF,
    "no-free-ridership": AxiomId.NO_FREE_RIDERSHIP,
    "nfr": AxiomId.NO_FREE_RIDERSHIP,
    "engagement-monotone": AxiomId.ENGAGEMENT_MONOTONE,
    "pigou-dalton": AxiomId.PIGOU_DALTON,
    "user-addition-monotone": AxiomId.USER_ADDITION_MONOTONE,
    "click-fraud": AxiomId.CLICK_FRAUD_PROOF,
    "anonymity": AxiomId.ANONYMITY,
    "neutrality": AxiomId.NEUTRALITY,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the documented code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_alpha(flag_value, document_alpha: float) -> float:
    """The payout share: ``--alpha``, else ``STREAMSHARE_ALPHA``, else the
    document's own, checked to lie in (0, 1]."""
    alpha = document_alpha
    env = os.environ.get(ALPHA_ENV)
    if flag_value is not None:
        alpha = float(flag_value)
    elif env is not None:
        try:
            alpha = float(env)
        except ValueError:
            raise ValueError(f"{ALPHA_ENV} is not a number: {env!r}")
    if not 0.0 < alpha <= 1.0:
        raise BadAlphaError(f"alpha must be in (0, 1], got {alpha}")
    return alpha


def _load_with_alpha(path, flag_alpha):
    loaded = load_document(path)
    alpha = _resolve_alpha(flag_alpha, loaded.instance.alpha)
    return with_alpha(loaded.instance, alpha), loaded.user_ids, loaded.artist_ids


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _cmd_divide(args) -> int:
    rule = coerce_rule(args.rule)
    instance, _, artist_ids = _load_with_alpha(args.instance, args.alpha)
    payments = evaluate(rule, instance)
    print("artist_id,payment")
    for aid, p in zip(artist_ids, payments):
        print(f"{aid},{_fmt(p)}")
    return EXIT_OK


def _cmd_pps(args) -> int:
    rule = coerce_rule(args.rule)
    instance, _, artist_ids = _load_with_alpha(args.instance, args.alpha)
    vec = pps(rule, instance)
    baseline = pps("globalprop", instance)
    me = vec.max_envy()  # before any output, so a bad --k prints nothing
    top, bottom = topk_bottomk_means(vec.defined_values / baseline.defined_values, args.k)
    print("artist_id,pps,relative_to_globalprop")
    for j, aid in enumerate(artist_ids):
        if vec.defined_mask[j]:
            rel = vec.values[j] / baseline.values[j]
            print(f"{aid},{_fmt(vec.values[j])},{_fmt(rel)}")
        else:
            print(f"{aid},,")
    print(f"# max_envy={_fmt(me)}")
    print(f"# top{args.k}_mean={_fmt(top)}")
    print(f"# bottom{args.k}_mean={_fmt(bottom)}")
    return EXIT_OK


def _cmd_check(args) -> int:
    axiom = _AXIOM_ALIASES.get(args.axiom)
    if axiom is None:
        raise ValueError(
            f"unknown axiom {args.axiom!r}; choose from {sorted(_AXIOM_ALIASES)}"
        )
    rule = coerce_rule(args.rule)
    if args.fixtures:
        matched = 0
        violated = False
        for name, fx in fixtures().items():
            if fx.axiom is not axiom or fx.rule != rule:
                continue
            matched += 1
            report = verify_fixture(fx)
            print(
                f"fixture={name} gain={_fmt(report.gain)} bound={_fmt(report.bound)} "
                f"margin={_fmt(report.margin)} violation={report.violation}"
            )
            violated |= report.violation
        if matched == 0:
            raise ValueError(
                f"no fixtures for axiom {axiom.value} and rule {rule.value}"
            )
        return EXIT_WITNESS if violated else EXIT_OK

    if axiom not in SUITE_AXIOMS:
        with_suite = sorted(a for a, ax in _AXIOM_ALIASES.items() if ax in SUITE_AXIOMS)
        raise ValueError(
            f"axiom {args.axiom!r} has no randomized suite; "
            f"--random-trials takes {', '.join(with_suite)}"
        )
    result = run_suite(axiom, rule, trials=args.random_trials, seed=args.seed)
    if result.witness is not None:
        print(witness_line(result.witness))
        return EXIT_WITNESS
    print(
        f"axiom={axiom.value} rule={rule.value} trials={result.trials} "
        f"max_margin={_fmt(result.max_margin)} passed=True"
    )
    return EXIT_OK


def _cmd_psp(args) -> int:
    instance, user_ids, artist_ids = _load_with_alpha(args.instance, args.alpha)
    start = time.perf_counter()
    artist_set, result = find_suspicious(instance, args.k, args.mode)
    ms = (time.perf_counter() - start) * 1e3
    artists = ",".join(artist_ids[j] for j in artist_set) or "-"
    users = ",".join(user_ids[i] for i in result.user_set) or "-"
    print(
        f"mode={args.mode} artists={artists} users={users} "
        f"profit={_fmt(result.profit)} runtime_ms={_fmt(ms)}"
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    alpha = _resolve_alpha(args.alpha, 1.0)
    high = args.follow_max if args.follow_max is not None else min(10, args.artists)
    config = SynthConfig(
        n_users=args.users,
        n_artists=args.artists,
        artist_count_range=(args.follow_min, high),
        stream_lambda=args.stream_lambda,
        seed=args.seed,
    )
    instance = with_alpha(gen_synthetic(config), alpha)
    save_document(args.out, instance)
    print(
        f"wrote {instance.n_users} users x {instance.n_artists} artists "
        f"(alpha={_fmt(alpha)}) to {args.out}"
    )
    return EXIT_OK


def _parse_sweep_config(path) -> SynthConfig:
    keys = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in keys:
                raise ValueError(f"{path}:{line_no}: {key} is set twice, "
                                 f"on lines {keys[key][0]} and {line_no}")
            keys[key] = (line_no, value)
    # each key's SynthConfig field, parser and what the parser takes
    fields = {
        "users": ("n_users", int, "an integer"),
        "artists": ("n_artists", int, "an integer"),
        "range": ("artist_count_range", lambda text: _int_pair(text, ","), "two integers 'lo,hi'"),
        "lambda": ("stream_lambda", float, "a number"),
        "seed": ("seed", int, "an integer"),
    }
    unknown = set(keys) - set(fields)
    if unknown:
        raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
    for key in ("users", "artists"):
        if key not in keys:
            raise ValueError(f"sweep config missing {key!r}")

    def read(key, parse, what):
        line_no, value = keys[key]
        try:
            return parse(value)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: {key} must be {what}, got {value!r}") from None

    # a key left out takes SynthConfig's default (range: gen's 1 to min(10, artists))
    return SynthConfig(**{field: read(key, parse, what)
                          for key, (field, parse, what) in fields.items() if key in keys})


def _int_pair(text: str, sep=None) -> tuple:
    """The two integers of ``text``, split at ``sep`` (whitespace when
    None); a ValueError for any other text."""
    lo, hi = map(int, text.split(sep))
    return lo, hi


def _cmd_sweep(args) -> int:
    config = _parse_sweep_config(args.config)
    alphas = [float(a) for a in args.alphas.split(",")]
    rules = args.rules.split(",")
    rows = sweep_seeds(config, rules, alphas, args.k, args.seeds)
    write_rows_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    if args.agg_out:
        aggregates = replicate(rows)
        write_aggregates_csv(args.agg_out, aggregates)
        print(f"wrote {len(aggregates)} aggregate rows to {args.agg_out}")
    return EXIT_OK


def _read_graph(path) -> BipartiteGraph:
    with open(path) as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.strip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    try:
        left, right = _int_pair(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be 'LEFT RIGHT', two integers, "
                         f"got {lines[0]!r}") from None
    edges = []
    for text in lines[1:]:
        try:
            edges.append(_int_pair(text))
        except ValueError:
            raise ValueError(f"{path}: edge line must be 'u v', two integers, got {text!r}") from None
    return BipartiteGraph(left, right, tuple(edges))


def _cmd_reduce_ssbve(args) -> int:
    graph = _read_graph(args.graph)
    reduction = ssbve_reduction(graph, args.ell, args.delta, args.alpha)
    save_document(args.out, reduction.instance)
    print(
        f"k={reduction.k} threshold={_fmt(reduction.threshold)} d={reduction.d} "
        f"eps={_fmt(reduction.eps)} t={reduction.t} "
        f"users={reduction.instance.n_users} artists={reduction.instance.n_artists} "
        f"out={args.out}"
    )
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="streamshare",
        description="Divide subscription revenue among artists and probe the rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divide", help="compute one rule's payments for an instance")
    p.add_argument("--rule", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_divide)

    p = sub.add_parser("pps", help="pay-per-stream report with envy and top/bottom-k")
    p.add_argument("--rule", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_pps)

    p = sub.add_parser("check", help="verify an axiom on fixtures or random trials")
    p.add_argument("--axiom", required=True)
    p.add_argument("--rule", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixtures", action="store_true")
    mode.add_argument("--random-trials", type=int, metavar="T")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("psp", help="search for the most suspicious artist coalition")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_psp)

    p = sub.add_parser("gen", help="generate a synthetic instance document")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--artists", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--follow-min", type=int, default=1)
    p.add_argument("--follow-max", type=int, default=None)
    p.add_argument("--stream-lambda", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", help="replicated alpha sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rules", default="userprop,usereq,scaledup")
    p.add_argument("--agg-out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "reduce-ssbve", help="emit a hard search instance from a bipartite graph"
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce_ssbve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # send the unflushed rest to devnull, so the exit flush stays quiet
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
        return EXIT_PIPE
    except (SolverFailure, DegenerateAggregateError, DegenerateEnvyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # every typed input error of the package is a ValueError; OSError covers
    # a missing file, a directory where a file belongs and a denied write
    except (OSError, KeyError, ValueError, OverflowError) as exc:
        # a KeyError's str() quotes its message; print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
