"""streamshare benchmark: one closed-loop run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {audit,catalog,detect} --seed N \
        --seconds S --trace {0,1}

The run sets the workload up five times and reports the median set-up
time, then drives ``streamshare.cli.main`` in-process for at least ``S``
seconds of whole passes, checking every output against the oracles in
``oracles.py``. Reported times are scaled to a reference machine speed by
``SpeedProbe``; the report line also carries them unscaled. With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the program's
layers are wrapped by ``spans.Tracer`` and it carries the per-layer metrics.
The line before it is a report with the machine, the per-workload metrics
and, for a traced run after an untraced one with the same seed, the tracing
overhead. Both are also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
# a run stops adding passes after this long even if the main call kind has
# too few samples, so a much slower program still ends within its limit
MAX_MEASURE_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not set up or run; no result is printed."""


class Caller:
    """Calls the CLI in-process with stdout and stderr captured."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.call_s = 0.0
        self.last_start = 0.0

    def invoke(self, argv):
        self.probe.sample()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = self.last_start = time.perf_counter()
            try:
                if self.tracer is not None:
                    code = self.tracer.run("cli", self.main, (argv,), {})
                else:
                    code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a wrong output, not a benchmark error
                code = None
                traceback.print_exc(file=err)
            elapsed = time.perf_counter() - start
        self.call_s += elapsed
        return code, out.getvalue(), err.getvalue(), elapsed


def run_setup(workload, caller, base, repeats=SETUP_REPEATS):
    """Build the inputs ``repeats`` times in fresh directories; the last
    build is kept for the measured phase. Returns one (start, end, seconds)
    interval per build, with the speed probe's own time taken out."""
    reps = []
    for r in range(repeats):
        workload.dir = os.path.join(base, f"setup{r}")
        os.makedirs(workload.dir)
        probe_s = caller.probe.spent
        start = time.perf_counter()
        workload.write_files()
        for argv in workload.setup_calls():
            code, _, err, _ = caller.invoke(argv)
            if code != 0:
                raise BenchError(f"set-up call {argv} exited {code}: {err.strip()}")
        for call in workload.warmup_calls():
            code, out, err, _ = caller.invoke(call.argv)
            if code is None or call.check(code, out, err) is not None:
                raise BenchError(f"warm-up call {call.argv} failed: {err.strip()}")
        end = time.perf_counter()
        reps.append((start, end, end - start - (caller.probe.spent - probe_s)))
        if r < repeats - 1:
            shutil.rmtree(workload.dir)
    return reps


class SpeedProbe:
    """Tracks how fast the machine runs while the benchmark does.

    On a shared 2-core Xeon VM a process runs up to a third slower for
    stretches of seconds to minutes, from load outside its container.
    Between CLI calls, at most every ``EVERY_S``, the probe times a fixed
    computation (JSON decoding, small numpy kernels and an interpreted
    loop, the kinds of work the program does). ``factor(t0, t1)`` is the
    median probe time within ``WINDOW_S`` of an interval over the probe's
    reference time, and the reported times are raw times divided by it:
    seconds at the reference speed. The program never runs this code, so a
    change to the program moves a scaled time as it moves the raw one.
    """

    EVERY_S = 0.05
    WINDOW_S = 1.0
    REFERENCE_S = 0.66e-3

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._doc = json.dumps(rng.random((40, 40)).round(4).tolist())
        self._vec = rng.random(4000)
        self.times, self.samples = [], []
        self.spent = 0.0

    def _reference(self):
        # a collection here would time the program's garbage, not the machine
        gc.disable()
        try:
            start = time.perf_counter()
            json.loads(self._doc)
            np.median(self._vec)
            np.sort(self._vec).cumsum()
            total = 0
            for i in range(2000):
                total += i * i
            return time.perf_counter() - start
        finally:
            gc.enable()

    def sample(self):
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= self.EVERY_S:
            self.samples.append(self._reference())
            self.times.append(time.perf_counter())
            self.spent += self.times[-1] - now

    def scaled(self, t0, t1, seconds):
        return seconds / self.factor(t0, t1)

    def factor(self, t0, t1):
        lo = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        window = self.samples[lo:hi] or self.samples
        return statistics.median(window) / self.REFERENCE_S


def measure(workload, caller, seconds):
    """Run whole passes until ``seconds`` have passed and the main kind has
    its samples. Returns the call records and one (start, end, seconds)
    interval per pass, probe time taken out."""
    records, passes = [], []

    def record(call):
        code, out, err, elapsed = caller.invoke(call.argv)
        outcome, reason = workload.classify(call, code, out, err)
        records.append(
            (call.kind, elapsed, call.units, outcome, reason, call.argv, caller.last_start)
        )

    start = time.perf_counter()
    p = 0
    while True:
        probe_s = caller.probe.spent
        t0 = time.perf_counter()
        for call in workload.pass_calls(p):
            record(call)
        t1 = time.perf_counter()
        passes.append((t0, t1, t1 - t0 - (caller.probe.spent - probe_s)))
        p += 1
        elapsed = t1 - start
        main_n = sum(1 for r in records if r[0] in workload.main_kinds)
        if elapsed >= MAX_MEASURE_S or (
            elapsed >= seconds and main_n >= workload.min_main_samples
        ):
            return records, passes


def execute(workload, caller, work_root, seconds, repeats=SETUP_REPEATS):
    """Set up, prepare the oracles and measure; returns the set-up
    intervals, the call records and the pass intervals."""
    setup = run_setup(workload, caller, work_root, repeats)
    workload.prepare()
    records, passes = measure(workload, caller, seconds)
    return setup, records, passes


def failed_frac(records):
    return sum(1 for r in records if r[3] != "ok") / len(records)


def p90(values):
    return float(np.percentile(values, 90))


def unscaled(t0, t1, seconds):
    return seconds


def end_to_end(workload, records, passes, setup, scale=unscaled):
    """The BENCHMARK.json end-to-end metrics and the per-workload metrics
    under their workload-prefixed names. ``scale(t0, t1, seconds)`` maps
    each measured interval to the seconds that are reported."""

    def seconds(r):
        return scale(r[6], r[6] + r[1], r[1])

    def unit_ms(kinds):
        return [1e3 * seconds(r) / r[2] for r in records if r[0] in kinds]

    main = unit_ms(workload.main_kinds)
    side = unit_ms(workload.side_kinds)
    name = workload.name
    setup_s = statistics.median(scale(*rep) for rep in setup)
    if name == "catalog":
        batch = statistics.median(seconds(r) for r in records if r[0] == "sweep")
    else:
        batch = statistics.median(scale(*p) for p in passes)
    gated = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "main_ms_p50": (statistics.median(main), "ms"),
        "main_ms_p90": (p90(main), "ms"),
        "side_ms_p50": (statistics.median(side), "ms"),
        "batch_s": (batch, "s"),
    }
    named = {"setup_s": setup_s, "peak_rss_mb": gated["peak_rss_mb"][0]}
    if name == "audit":
        for kind in ("search", "verify"):
            rs = [r for r in records if r[0] == kind]
            named[f"audit.{kind}_trials_per_s"] = sum(r[2] for r in rs) / sum(map(seconds, rs))
        named["audit.pass_s"] = batch
    elif name == "catalog":
        egal = [r for r in records if r[0] == "egal"]
        named.update({
            "catalog.call_ms_p50": gated["main_ms_p50"][0],
            "catalog.call_ms_p90": gated["main_ms_p90"][0],
            "catalog.egal_ms_p50": gated["side_ms_p50"][0],
            "catalog.sweep_s": batch,
            "catalog.egal_failed_frac": sum(r[3] != "ok" for r in egal) / len(egal),
        })
    else:
        named.update({
            "detect.exact_ms_p50": gated["main_ms_p50"][0],
            "detect.exact_ms_p90": gated["main_ms_p90"][0],
            "detect.greedy_ms_p50": gated["side_ms_p50"][0],
            "detect.pass_s": batch,
        })
    named[f"{name}.failed_frac"] = failed_frac(records)
    named[f"{name}.main_samples"] = len(main)
    named[f"{name}.side_samples"] = len(side)
    return gated, named


# -- provenance ----------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    """Digest of the program's sources, which identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def machine(args):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- entry point -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "catalog", "detect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "streamshare")):
        raise BenchError(f"no program sources under {src}")
    sys.path.insert(0, src)
    from streamshare import cli

    return cli.main


def run(args, work_root):
    """One benchmark run; returns (result line dict, report dict)."""
    import workloads
    from spans import Tracer, layer_metrics

    main = import_program()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    caller = Caller(main, tracer)
    try:
        setup, records, passes = execute(workload, caller, work_root, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    gated, named = end_to_end(workload, records, passes, setup, caller.probe.scaled)
    raw, raw_named = end_to_end(workload, records, passes, setup)

    def shown(outcome):
        return [
            (" ".join(r[5]).replace(workload.dir + os.sep, ""), r[4])
            for r in records
            if r[3] == outcome
        ]

    wrong, failed = shown("wrong"), shown("failed")
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(wrong) + len(failed),
        "metrics": {},
    }
    probe = caller.probe
    report = {
        "machine": machine(args),
        "end_to_end": {k: v for k, (v, _) in gated.items()},
        "workload_metrics": named,
        "unscaled": {k: v for k, v in raw_named.items()},
        "speed_factor": {
            "median": statistics.median(probe.samples) / probe.REFERENCE_S,
            "min": min(probe.samples) / probe.REFERENCE_S,
            "max": max(probe.samples) / probe.REFERENCE_S,
            "samples": len(probe.samples),
        },
        "wrong": wrong[:10],
        "failed": failed[:10],
    }
    if tracer is None:
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}
    else:
        result["metrics"] = {
            k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer).items()
        }
        report["trace_accounted_frac"] = tracer.accounted_s() / caller.call_s
        report["untraced_layers"] = tracer.missing
    return result, report


def _results_path(args, trace):
    return os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{trace}.json")


def add_overhead(args, report):
    """Traced minus untraced numbers, when an untraced run of the same
    workload and seed left its report."""
    try:
        with open(_results_path(args, 0)) as fh:
            plain = json.load(fh)["report"]
    except (OSError, ValueError, KeyError):
        return
    report["trace_overhead"] = {
        k: report["end_to_end"][k] - plain["end_to_end"][k] for k in report["end_to_end"]
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    work_root = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    try:
        result, report = run(args, work_root)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if args.trace:
        add_overhead(args, report)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(_results_path(args, args.trace), "w") as fh:
        json.dump({"result": result, "report": report}, fh, indent=1)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
