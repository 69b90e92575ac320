"""Span and count recorders for the traced benchmark run.

The program is not changed: while a ``Tracer`` is installed, every binding of
a layer's public function in every ``streamshare`` module (and the dispatch
tables that hold private kernels) is swapped for a wrapper that records one
span per call, and the original is put back on ``uninstall``.

Spans are aggregated as they close rather than stored one by one: the audit
workload makes a few hundred thousand rule evaluations per run, and only the
per-layer totals are reported. For each layer the tracer keeps the call
count, the busy (inclusive) seconds and the self seconds, which is the busy
time minus the time of directly nested spans. A layer re-entered while it is
already open adds its calls and self time but not a second busy interval.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        # calls per (layer, binding module, enclosing search mode)
        self.site_calls = Counter()
        self.failures = Counter()
        self.bytes_read = Counter()
        self._stack = []  # open spans: [name, child seconds, context]
        self._open = Counter()
        self._restore = []
        self.missing = []  # layers the program no longer exposes

    # -- recording ---------------------------------------------------------

    def _context(self):
        return self._stack[-1][2] if self._stack else None

    def run(self, name, fn, args, kwargs, site=None, context=None, failure=None):
        ctx = context if context is not None else self._context()
        frame = [name, 0.0, ctx]
        self._stack.append(frame)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if failure is not None and isinstance(exc, failure):
                self.failures[name] += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._open[name] -= 1
            self.calls[name] += 1
            self.self_s[name] += elapsed - frame[1]
            if self._open[name] == 0:
                self.busy[name] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed
            self.site_calls[(name, site, ctx)] += 1

    def span(self, name, fn, site=None, context_of=None, failure=None, size_of=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``context_of(args, kwargs)`` may name a context that nested spans
        inherit; ``size_of(args, kwargs)`` adds bytes read to the layer.
        """

        def wrapper(*args, **kwargs):
            if size_of is not None:
                self.bytes_read[name] += size_of(args, kwargs)
            ctx = context_of(args, kwargs) if context_of is not None else None
            return self.run(name, fn, args, kwargs, site, ctx, failure)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counter(self, name, fn, site=None):
        """Wrap ``fn`` so each call only counts, without a span."""

        def wrapper(*args, **kwargs):
            self.site_calls[(name, site, self._context())] += 1
            self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_attr(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_item(self, table, key, new):
        self._restore.append((table, key, table[key]))
        table[key] = new

    def wrap_everywhere(self, original, make):
        """Patch every binding of ``original`` in the loaded streamshare
        modules with ``make(site)``."""
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (
                mod_name == "streamshare" or mod_name.startswith("streamshare.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(module, attr, make(mod_name))

    def install(self):
        """Wrap every layer. A layer whose function or table the program no
        longer has is listed in ``missing`` and reports zeros, so a later
        refactor of a private name cannot stop the traced run."""
        from streamshare import axioms, core, experiments, ingest, metrics
        from streamshare import portioning, pspdetect, rules

        def spans(name, module, attr, **kw):
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                return
            self.wrap_everywhere(
                original, lambda site: self.span(name, original, site=site, **kw)
            )

        spans("ingest.load_document", ingest, "load_document", size_of=_path_size)
        spans("ingest.save_document", ingest, "save_document")
        spans("experiments.gen_synthetic", experiments, "gen_synthetic")
        spans("core.validate", core, "validate")
        spans("rules.evaluate", rules, "evaluate")
        spans("rules.solve_gamma", rules, "solve_gamma")
        spans("portioning.market_solution", portioning, "market_solution")
        spans("portioning.util", portioning, "_util_share")
        spans("portioning.egal", portioning, "_egal_share", failure=portioning.SolverFailure)
        spans("axioms.candidate_profiles", axioms, "candidate_profiles")
        spans("metrics.pps", metrics, "pps")
        spans("pspdetect.find_suspicious", pspdetect, "find_suspicious", context_of=_search_mode)
        spans("pspdetect.psp_exact", pspdetect, "psp_exact")
        spans("pspdetect.psp_greedy", pspdetect, "psp_greedy")
        spans("pspdetect.ssbve_reduction", pspdetect, "ssbve_reduction")
        for attr in ("add_user", "replace_user"):
            original = getattr(core, attr, None)
            if original is None:
                self.missing.append(f"core.{attr}")
                continue
            self.wrap_everywhere(
                original,
                lambda site, fn=original: self.counter("core.instances", fn, site),
            )

        table = getattr(portioning, "_COORDINATEWISE", None)
        if table is None:
            self.missing.append("portioning.coordinatewise")
        for key, fn in list((table or {}).items()):
            self._patch_item(
                table, key, self.span("portioning.coordinatewise", fn, "streamshare.portioning")
            )
        trials = getattr(axioms, "_TRIALS", None)
        if trials is None:
            self.missing += ["axioms.search", "axioms.verify"]
        for key, fn in list((trials or {}).items()):
            search = getattr(key, "value", key) in ("FraudProof", "BriberyProof")
            name = "axioms.search" if search else "axioms.verify"
            self._patch_item(trials, key, self.span(name, fn, "streamshare.axioms"))

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- reporting ---------------------------------------------------------

    def site_total(self, name, site=None, context=None):
        return sum(
            n
            for (layer, s, ctx), n in self.site_calls.items()
            if layer == name
            and (site is None or s == site)
            and (context is None or ctx == context)
        )

    def accounted_s(self):
        """Sum of every layer's self time; equals the root spans' busy time."""
        return float(sum(self.self_s.values()))


def _path_size(args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


def _search_mode(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return f"search.{mode}"


LAYERS = (
    "cli",
    "ingest.load_document",
    "ingest.save_document",
    "experiments.gen_synthetic",
    "core.validate",
    "rules.evaluate",
    "rules.solve_gamma",
    "portioning.market_solution",
    "portioning.util",
    "portioning.coordinatewise",
    "portioning.egal",
    "axioms.candidate_profiles",
    "axioms.search",
    "axioms.verify",
    "metrics.pps",
    "pspdetect.find_suspicious",
    "pspdetect.psp_exact",
    "pspdetect.psp_greedy",
    "pspdetect.ssbve_reduction",
)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, keyed by the BENCHMARK.json
    names: ``<layer>.calls``, ``.s`` and ``.self_s`` for every layer plus
    the derived counts and ratios."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (float(tracer.calls[layer]), "count")
        out[f"{layer}.s"] = (float(tracer.busy[layer]), "s")
        out[f"{layer}.self_s"] = (float(tracer.self_s[layer]), "s")
    load_s = tracer.busy["ingest.load_document"]
    out["ingest.load_document.mb_per_s"] = (
        _ratio(tracer.bytes_read["ingest.load_document"] / 1e6, load_s),
        "MB/s",
    )
    out["core.instances_built"] = (float(tracer.calls["core.instances"]), "count")
    out["portioning.egal.failures"] = (float(tracer.failures["portioning.egal"]), "count")
    trials = tracer.calls["axioms.search"] + tracer.calls["axioms.verify"]
    out["axioms.evals_per_trial"] = (
        _ratio(tracer.site_total("rules.evaluate", site="streamshare.axioms"), trials),
        "ratio",
    )
    exact_searches = tracer.site_total(
        "pspdetect.find_suspicious", context="search.exact"
    )
    out["pspdetect.validate_per_search"] = (
        _ratio(
            tracer.site_total(
                "core.validate", site="streamshare.pspdetect", context="search.exact"
            ),
            exact_searches,
        ),
        "ratio",
    )
    out["pspdetect.psp_exact_per_search"] = (
        _ratio(tracer.calls["pspdetect.psp_exact"], exact_searches),
        "ratio",
    )
    return out
