"""Output oracles for the benchmark, written against the documented
definitions with plain numpy rather than through the program's kernels.

Every check returns ``None`` when the output is right and a short reason
when it is wrong. The CLI prints numbers with 12 significant digits, so
comparisons allow each printed value its half unit in the last printed
place (``print_slack``) on top of the stated tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np

BUDGET_TOL = 1e-9
MARKET_TOL = 1e-9
VALUE_RTOL = 1e-9
MARGIN_TOL = 1e-7


def print_slack(values) -> float:
    """Largest total rounding error of ``values`` printed as ``%.12g``."""
    v = np.abs(np.asarray(values, dtype=float).reshape(-1))
    v = v[v > 0]
    if v.size == 0:
        return 0.0
    return float((0.5 * 10.0 ** (np.floor(np.log10(v)) - 11)).sum())


def close(printed, expected, rtol=VALUE_RTOL) -> bool:
    printed = np.asarray(printed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if printed.shape != expected.shape:
        return False
    slack = 0.5 * 10.0 ** (np.floor(np.log10(np.maximum(np.abs(expected), 1e-300))) - 11)
    limit = rtol * np.maximum(np.abs(expected), 1.0) + slack
    return bool(np.all(np.abs(printed - expected) <= limit))


def load_weights(path):
    """Weights, alpha and artist ids of an instance document, read with the
    json module alone."""
    with open(path) as fh:
        doc = json.load(fh)
    return np.array(doc["weights"], dtype=float), float(doc["alpha"]), tuple(doc["artist_ids"])


# -- payments --------------------------------------------------------------


def _scaledup_gamma(totals, alpha):
    """Bisect sum_i min(gamma * S_i, 1) = alpha * n for the smallest such
    gamma; at alpha = 1 the rule's canonical gamma is 1 / min(S)."""
    n = totals.size
    if alpha >= 1.0:
        return 1.0 / totals.min()
    lo, hi = 0.0, 1.0 / totals.min()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.minimum(mid * totals, 1.0).sum() >= alpha * n:
            hi = mid
        else:
            lo = mid
    return hi


def closed_form_payments(rule, w, alpha):
    """Payments of the four main rules from their defining formulas."""
    n = w.shape[0]
    totals = w.sum(axis=1)
    if rule == "globalprop":
        col = w.sum(axis=0)
        return alpha * n * col / col.sum()
    if rule == "userprop":
        return alpha * (w / totals[:, None]).sum(axis=0)
    if rule == "usereq":
        engaged = (w > 0).astype(float)
        return alpha * (engaged / engaged.sum(axis=1, keepdims=True)).sum(axis=0)
    if rule == "scaledup":
        gamma = _scaledup_gamma(totals, alpha)
        influence = np.minimum(gamma * totals, 1.0)
        return (w * (influence / totals)[:, None]).sum(axis=0)
    raise KeyError(rule)


def aggregate_is_zero(rule, w) -> bool:
    """True when the coordinatewise min/med/geo aggregate of the
    row-normalized profiles is zero on every artist."""
    norm = w / w.sum(axis=1, keepdims=True)
    if rule == "min":
        return bool(np.all(norm.min(axis=0) == 0.0))
    if rule == "med":
        return bool(np.all(np.median(norm, axis=0) == 0.0))
    if rule == "geo":
        return bool(np.all((norm == 0.0).any(axis=0)))
    raise KeyError(rule)


def market_medians(w):
    """Independent-markets phantom scale and medians.

    Each artist's median of its n user values and the n + 1 phantoms
    min(k t, 1) is the (n + 1)-th smallest of the union, which for sorted
    values A is min over i of max(A_i, min((n - i) t, 1)) with A_0 = -inf.
    The sum of medians is continuous and nondecreasing in t, so bisection
    on it converges to the unique medians.
    """
    norm = w / w.sum(axis=1, keepdims=True)
    n, m = norm.shape
    ext = np.vstack([np.full((1, m), -np.inf), np.sort(norm, axis=0)])
    rank = (n - np.arange(n + 1, dtype=float))[:, None]

    def medians(t):
        return np.maximum(ext, np.minimum(rank * t, 1.0)).min(axis=0)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if medians(mid).sum() >= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16:
            break
    return hi, medians(hi)


# -- parsing ---------------------------------------------------------------


def parse_table(out, header):
    """Ids, a float matrix of the remaining columns (NaN where empty) and
    the trailing ``#`` lines of a CSV table printed by the CLI."""
    lines = out.strip().splitlines()
    if not lines or lines[0] != header:
        return None, None, lines
    ids, rows, rest = [], [], []
    for line in lines[1:]:
        if line.startswith("#"):
            rest.append(line)
            continue
        parts = line.split(",")
        ids.append(parts[0])
        rows.append([float(x) if x else math.nan for x in parts[1:]])
    return ids, np.array(rows, dtype=float), rest


def parse_fields(line):
    return dict(part.split("=", 1) for part in line.strip().split())


def index_list(text, prefix):
    return [] if text == "-" else [int(x[len(prefix):]) for x in text.split(",")]


# -- checks ----------------------------------------------------------------


def check_budget(values, w, alpha):
    if np.any(~np.isfinite(values)) or np.any(values < 0):
        return "negative or non-finite payment"
    budget = alpha * w.shape[0]
    gap = abs(float(values.sum()) - budget)
    if gap > BUDGET_TOL + print_slack(values):
        return f"payments sum off the budget by {gap:.3g}"
    return None


def check_divide(rule, code, out, w, alpha, artist_ids, expected=None, market=None):
    """One ``divide`` call: degenerate exits, budget balance, and the
    closed form or market medians where the oracle has them."""
    if rule in ("min", "med", "geo") and code == 3:
        if aggregate_is_zero(rule, w):
            return None
        return f"{rule} exited 3 although its aggregate is nonzero"
    if code != 0:
        return f"exit code {code}"
    ids, table, _ = parse_table(out, "artist_id,payment")
    if ids is None or tuple(ids) != tuple(artist_ids):
        return "malformed payment table"
    values = table[:, 0]
    reason = check_budget(values, w, alpha)
    if reason:
        return reason
    if expected is not None and not close(values, expected):
        return "payments differ from the closed form"
    if market is not None:
        _, med = market
        budget = alpha * w.shape[0]
        residual = abs(float(med.sum()) - 1.0)
        gap = float(np.abs(values / budget - med).sum())
        if residual > MARKET_TOL or gap > MARKET_TOL + print_slack(values) / budget:
            return f"indmkt median residual {residual:.3g}, share gap {gap:.3g}"
    return None


def check_pps(code, out, k, w, payments, baseline):
    """One ``pps --k`` call against payments from the closed form."""
    if code != 0:
        return f"exit code {code}"
    ids, table, rest = parse_table(out, "artist_id,pps,relative_to_globalprop")
    if ids is None or len(ids) != w.shape[1]:
        return "malformed pps table"
    streams = w.sum(axis=0)
    defined = streams > 0
    want = payments[defined] / streams[defined]
    rel = payments[defined] / baseline[defined]
    if (
        not np.array_equal(np.isnan(table).any(axis=1), ~defined)
        or not close(table[defined, 0], want)
        or not close(table[defined, 1], rel)
    ):
        return "pps or relative pps differs from payments / streams"
    envy = math.inf if want.min() == 0 else want.max() / want.min()
    rel = np.sort(rel)
    summary = dict(line[2:].split("=", 1) for line in rest)
    keys = ("max_envy", f"top{k}_mean", f"bottom{k}_mean")
    got = [float(summary.get(key, "nan")) for key in keys]
    if not close(got, [envy, rel[-k:].mean(), rel[:k].mean()]):
        return "envy or top/bottom-k summary differs"
    return None


def check_suite(code, out, axiom, rule, trials):
    if code != 0:
        return f"exit code {code}"
    fields = parse_fields(out)
    if (
        fields.get("axiom") != axiom
        or fields.get("rule") != rule
        or fields.get("trials") != str(trials)
        or fields.get("passed") != "True"
    ):
        return f"unexpected suite line {out.strip()!r}"
    if not float(fields["max_margin"]) <= MARGIN_TOL:
        return f"max_margin {fields['max_margin']} above {MARGIN_TOL}"
    return None


def removal_profit(w, alpha, artists, users):
    """Profit of removing ``users`` for artist set ``artists`` under the
    platform-wide proportional rule, minus one fee per removed user."""
    n = w.shape[0]
    s = w[:, artists].sum(axis=1)
    tau = w.sum(axis=1)
    paid = alpha * n * s.sum() / tau.sum()
    keep = np.ones(n, dtype=bool)
    keep[users] = False
    if not keep.any():
        return paid - len(users)
    after = alpha * keep.sum() * s[keep].sum() / tau[keep].sum()
    return paid - after - len(users)


def check_psp(code, out, mode, k, w, alpha, verdict=None, threshold=None):
    """One ``psp`` call: the reported pair's recomputed profit, and for
    reduction instances the brute-force answer against the threshold."""
    if code != 0:
        return f"exit code {code}"
    fields = parse_fields(out)
    if fields.get("mode") != mode:
        return f"unexpected psp line {out.strip()!r}"
    artists = index_list(fields["artists"], "a")
    users = index_list(fields["users"], "u")
    profit = float(fields["profit"])
    if len(artists) > k or profit < 0:
        return "coalition larger than k or negative profit"
    want = removal_profit(w, alpha, artists, users) if artists else 0.0
    if not close([profit], [want]):
        return f"reported profit {profit} but the pair yields {want}"
    if verdict is not None:
        from streamshare.pspdetect import exceeds_threshold

        if exceeds_threshold(profit, threshold) != verdict:
            return f"profit {profit} disagrees with the brute-force answer {verdict}"
    return None
