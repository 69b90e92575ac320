"""Synthetic engagement generation and the revenue-share sweep harness.

The generator follows a simple listener model: each user picks how many
artists they follow uniformly from a range, picks that many distinct
artists uniformly, and streams each a Poisson-distributed number of times.
Sweeps compare rules by their top-k and bottom-k pay-per-stream relative
to the platform-proportional baseline, replicated over seeds.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import Instance, whole, with_alpha
from .metrics import DegenerateEnvyError, pps, topk_bottomk_means
from .rules import RuleId, coerce_rule

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int
    n_artists: int
    # each user follows lo to hi artists; by default gen's 1 to min(10, n_artists)
    artist_count_range: tuple | None = None
    stream_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        whole(self.n_users, ValueError, "n_users", 1)
        top = whole(self.n_artists, ValueError, "n_artists", 1) + 1
        if self.artist_count_range is None:
            object.__setattr__(self, "artist_count_range", (1, min(10, top - 1)))
        lo, hi = self.artist_count_range
        lo = whole(lo, ValueError, "artist_count_range's low end", 1, top)
        whole(hi, ValueError, "artist_count_range's high end", lo, top)
        if not self.stream_lambda > 0:
            raise ValueError("stream_lambda must be positive")
        whole(self.seed, ValueError, "seed", 0)


@dataclass(frozen=True)
class ExperimentRow:
    rule: str
    alpha: float
    seed: int
    k: int
    top_mean: float
    bottom_mean: float
    max_envy: float
    runtime_ms: float


@dataclass(frozen=True)
class AggregateRow:
    rule: str
    alpha: float
    k: int
    n_seeds: int
    top_median: float
    top_iqr: float
    bottom_median: float
    bottom_iqr: float
    envy_median: float
    envy_iqr: float


def desk_config(seed: int = 0) -> SynthConfig:
    """Default desk-scale setup: 1,000 users over 100 artists, each
    following 1 to 10 artists."""
    return SynthConfig(n_users=1000, n_artists=100, seed=seed)


DESK_SEEDS = 20
DESK_K = 10


def gen_synthetic(config: SynthConfig) -> Instance:
    """Draw one instance from the listener model, deterministically per seed.

    A drawn row can come out all zeros (the Poisson can yield 0 for every
    chosen artist); such rows are redrawn from scratch so every user in the
    result has positive total engagement.
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = config.artist_count_range
    w = np.zeros((config.n_users, config.n_artists))
    resamples = 0
    for i in range(config.n_users):
        while True:
            count = int(rng.integers(lo, hi + 1))
            chosen = rng.choice(config.n_artists, size=count, replace=False)
            streams = rng.poisson(config.stream_lambda, size=count)
            if streams.sum() > 0:
                w[i, chosen] = streams
                break
            resamples += 1
    if resamples:
        logger.debug("redrew %d all-zero rows for seed %d", resamples, config.seed)
    return Instance(w, 1.0)


def _measure(rule, instance: Instance, k: int, baselines: dict):
    """(top, bottom, envy, runtime_ms) of ``rule`` on ``instance``; the
    globalprop pay-per-stream it is divided by is taken from ``baselines``,
    keyed by alpha, or computed there once."""
    start = time.perf_counter()
    try:
        vec = pps(rule, instance)
        if instance.alpha not in baselines:
            baselines[instance.alpha] = pps(RuleId.GLOBAL_PROP, instance).defined_values
        top, bottom = topk_bottomk_means(vec.defined_values / baselines[instance.alpha], k)
        envy = vec.max_envy()
    except DegenerateEnvyError:
        top = bottom = envy = math.inf
    return top, bottom, envy, (time.perf_counter() - start) * 1e3


def _checked_alphas(alphas) -> list:
    alphas = [float(a) for a in alphas]
    if not alphas or any(not 0.0 < a <= 1.0 for a in alphas):
        raise ValueError(f"alphas must lie in (0, 1], one or more, got {alphas}")
    return alphas


def _checked_rules(rules) -> list:
    rules = [coerce_rule(rule) for rule in rules]
    for rule in filter(callable, rules):  # nothing says it is linear in alpha
        raise TypeError(f"alpha_sweep takes rule ids or names, got {rule!r}")
    return rules


def alpha_sweep(instance: Instance, rules, alphas, k: int, seed: int = 0):
    """One ExperimentRow per (rule, alpha).

    Every rule here pays each artist an amount linear in alpha, which
    cancels out of pay-per-stream ratios and envy, except the scaled
    user-proportional rule whose per-user caps move with alpha. So only
    that rule is measured at each distinct alpha; the others once. The
    globalprop baseline is computed once for each alpha measured at.
    """
    alphas = _checked_alphas(alphas)
    rows, baselines = [], {}
    for rule in _checked_rules(rules):
        measured = {}
        for a in alphas:
            at = a if rule is RuleId.SCALED_USER_PROP else alphas[0]
            if at not in measured:
                measured[at] = _measure(rule, with_alpha(instance, at), k, baselines)
            rows.append(ExperimentRow(rule.value, a, seed, k, *measured[at]))
    return rows


def sweep_seeds(config: SynthConfig, rules, alphas, k: int, n_seeds: int):
    """Run the sweep on n_seeds instances seeded config.seed, +1, +2, ..."""
    whole(n_seeds, ValueError, "n_seeds", 1)
    alphas = _checked_alphas(alphas)
    rules = _checked_rules(rules)
    rows = []
    for offset in range(n_seeds):
        cfg = dataclasses.replace(config, seed=config.seed + offset)
        rows.extend(alpha_sweep(gen_synthetic(cfg), rules, alphas, k, seed=cfg.seed))
    return rows


def replicate(rows):
    """Median and interquartile range per (rule, alpha) of sweep ``rows``,
    taken over their seeds."""
    groups = {}
    for row in rows:
        groups.setdefault((row.rule, row.alpha), []).append(row)
    aggregates = []
    for (rule, a), cell in sorted(groups.items()):
        stats = []
        for metric in ("top_mean", "bottom_mean", "max_envy"):
            values = np.array([getattr(r, metric) for r in cell])
            stats += [float(np.median(values)), _iqr(values)]
        aggregates.append(AggregateRow(rule, a, cell[0].k, len(cell), *stats))
    return aggregates


def _iqr(values: np.ndarray) -> float:
    # a rule that pays some artist 0 has inf envy; where inf meets inf the
    # IQR is nan, which the CSV writes as such, and numpy need not warn
    with np.errstate(invalid="ignore"):
        lo, hi = np.percentile(values, [25.0, 75.0])
        return float(hi - lo)


def _write_csv(path, rows, fields):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            record = []
            for name in fields:
                value = getattr(row, name)
                record.append(f"{value:.12g}" if isinstance(value, float) else value)
            writer.writerow(record)


def write_rows_csv(path, rows) -> None:
    _write_csv(path, rows, [f.name for f in dataclasses.fields(ExperimentRow)])


def write_aggregates_csv(path, aggregates) -> None:
    _write_csv(path, aggregates, [f.name for f in dataclasses.fields(AggregateRow)])
