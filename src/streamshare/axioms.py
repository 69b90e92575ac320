"""Manipulation-resistance checkers for division rules.

Three layers:

* verifiers take explicit before/after instances, validate both, and
  return one :class:`GainReport`: the scored payment on both sides, the
  gain, and the axiom's allowed bound,
* randomized searchers build single-user manipulations out of point
  masses and random rows,
* trial suites drive the searchers over thousands of seeded random
  instances and keep the worst margin seen, so "no witness in 10,000
  trials" becomes an assertable statement.

Checkers refute or fail to refute; they never prove an axiom.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import core
from .core import Instance
from .rules import batch_payments, coerce_rule, evaluate

logger = logging.getLogger(__name__)

#: A manipulation must beat the axiom's bound by this much to count as a
#: violation; anything smaller is treated as float noise.
MARGIN_TOL = 1e-7

#: Tolerance for the structural premises a before/after pair must satisfy.
PREMISE_TOL = 1e-12

#: Random sparse rows :func:`candidate_profiles` draws per call.
_N_RANDOM = 64


class AxiomId(str, Enum):
    FRAUD_PROOF = "FraudProof"
    BRIBERY_PROOF = "BriberyProof"
    SYBIL_PROOF = "SybilProof"
    STRONG_SYBIL_PROOF = "StrongSybilProof"
    NO_FREE_RIDERSHIP = "NoFreeRidership"
    ANONYMITY = "Anonymity"
    NEUTRALITY = "Neutrality"
    ENGAGEMENT_MONOTONE = "EngagementMonotone"
    PIGOU_DALTON = "PigouDalton"
    USER_ADDITION_MONOTONE = "UserAdditionMonotone"
    CLICK_FRAUD_PROOF = "ClickFraudProof"


class AxiomCheckError(ValueError):
    """A verifier was handed inputs that do not form a valid check."""


class NotAnExtensionError(AxiomCheckError):
    """Fraud pairs must keep every original row bit-identical."""


class NoRowsChangedError(AxiomCheckError):
    """Bribery pairs must differ in at least one row."""


class PremiseError(AxiomCheckError):
    """The structural premises of the axiom do not hold for this pair."""


def rule_name(rule) -> str:
    """Printable name for a rule id or a callable evaluator."""
    if isinstance(rule, str):
        return str(getattr(rule, "value", rule))
    if callable(rule):
        return getattr(rule, "__name__", repr(rule))
    return str(rule)


@dataclass(frozen=True)
class GainReport:
    """Outcome of one check: the scored payment ``before`` and ``after`` the
    manipulation, the ``gain`` the verdict is judged on, and the axiom's
    ``bound``. Each verifier's docstring says what it scores."""

    axiom: AxiomId
    rule: str
    gain: float
    bound: float
    before: float
    after: float

    @property
    def margin(self) -> float:
        return self.gain - self.bound

    @property
    def violation(self) -> bool:
        return self.margin > MARGIN_TOL


@dataclass(frozen=True)
class ViolationWitness:
    """A concrete manipulation whose gain clears the axiom bound.

    Construction rejects margins at or below the noise floor so a witness
    object always denotes a genuine violation.
    """

    axiom: AxiomId
    rule: str
    base: Instance
    manipulated: Instance
    target_set: tuple
    gain: float
    bound: float
    source: str = ""

    @property
    def margin(self) -> float:
        return self.gain - self.bound

    def __post_init__(self):
        # written so that a NaN gain or bound fails the guard
        if not self.margin > MARGIN_TOL:
            raise ValueError(
                f"margin {self.margin:.3g} does not clear the noise floor {MARGIN_TOL}"
            )


def witness_line(witness: ViolationWitness) -> str:
    """Serialize a witness to the one-line report format."""
    target = ",".join(str(int(j)) for j in witness.target_set)
    return (
        f"axiom={witness.axiom.value} rule={witness.rule} "
        f"gain={witness.gain:.12g} bound={witness.bound:.12g} "
        f"margin={witness.margin:.12g} target={{{target}}} "
        f"source={witness.source or 'adhoc'}"
    )


# ---------------------------------------------------------------------------
# verifiers


def _worst_artist(axiom, rule, before, after, gain, bound: float) -> GainReport:
    """Report the artist with the largest ``gain`` entry."""
    k = int(np.argmax(gain))
    return GainReport(
        axiom, rule_name(rule), float(gain[k]), bound, float(before[k]), float(after[k])
    )


def _pair(base: Instance, manipulated: Instance, error, users=True, artists=True) -> None:
    """Validate ``base``, then raise ``error`` unless ``manipulated`` keeps
    its alpha and, where asked, its user and artist counts."""
    core.validate(base)
    if manipulated.alpha != base.alpha:
        raise error("alpha differs between the instances")
    if users and manipulated.n_users != base.n_users:
        raise error("the instances differ in their number of users")
    if artists and manipulated.n_artists != base.n_artists:
        raise error("the instances differ in their number of artists")


def _payments(rule, base: Instance, manipulated: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``manipulated`` and return the rule's payments on ``base``
    and on ``manipulated``. Called once every premise of the pair holds."""
    core.validate(manipulated)
    return evaluate(rule, base), evaluate(rule, manipulated)


def _subset_gain(axiom, rule, base, manipulated, tset, bound) -> GainReport:
    """Rise of the summed payment to the artists ``tset``, against ``bound``."""
    before, after = (core.subset_payment(p, tset) for p in _payments(rule, base, manipulated))
    return GainReport(axiom, rule_name(rule), after - before, float(bound), before, after)


def verify_fraud_pair(rule, base: Instance, manipulated: Instance, target_set) -> GainReport:
    """Gain of ``target_set`` when ``manipulated`` appends fake users to ``base``.

    ``manipulated`` must extend ``base``: same artists, same alpha, original
    rows bit-identical, at least one appended row, and be a valid instance.
    The allowed bound is the number of added users.
    """
    _pair(base, manipulated, NotAnExtensionError, users=False)
    added = manipulated.n_users - base.n_users
    if added < 1:
        raise NotAnExtensionError("manipulated instance adds no users")
    if not np.array_equal(manipulated.weights[: base.n_users], base.weights):
        raise NotAnExtensionError("an original row was edited")
    return _subset_gain(AxiomId.FRAUD_PROOF, rule, base, manipulated, target_set, added)


def _changed_rows(base: Instance, manipulated: Instance) -> np.ndarray:
    """Indices of the rewritten rows of a same-shape pair; the base is
    validated, the manipulated instance is left to :func:`_payments`."""
    _pair(base, manipulated, PremiseError)
    changed = np.flatnonzero(np.any(manipulated.weights != base.weights, axis=1))
    if changed.size == 0:
        raise NoRowsChangedError("instances are identical")
    return changed


def verify_bribery_pair(rule, base: Instance, manipulated: Instance, target_set) -> GainReport:
    """Gain of ``target_set`` when k existing rows are rewritten (bound k)."""
    changed = _changed_rows(base, manipulated)
    return _subset_gain(AxiomId.BRIBERY_PROOF, rule, base, manipulated, target_set, changed.size)


def verify_click_fraud(rule, base: Instance, manipulated: Instance) -> GainReport:
    """Largest per-artist payment swing caused by a single rewritten row
    (bound 1), reported on the artist that swung most."""
    changed = _changed_rows(base, manipulated)
    if changed.size > 1:
        raise PremiseError(f"{changed.size} rows changed; this is a single-user check")
    before, after = _payments(rule, base, manipulated)
    return _worst_artist(
        AxiomId.CLICK_FRAUD_PROOF, rule, before, after, np.abs(after - before), 1.0
    )


def _common_masks(base: Instance, manipulated: Instance, cstar):
    """Masks of the ``cstar`` columns in ``base`` and in ``manipulated``."""
    limit = min(base.n_artists, manipulated.n_artists)
    cstar = core.index_set(cstar, PremiseError, "cstar index", limit)
    keep = np.zeros(max(base.n_artists, manipulated.n_artists), dtype=bool)
    keep[cstar] = True
    return keep[: base.n_artists], keep[: manipulated.n_artists]


def _group_change(axiom, rule, base, manipulated, keep_b, keep_m) -> GainReport:
    """Absolute change of the payment to the artists outside ``cstar``."""
    before, after = _payments(rule, base, manipulated)
    before, after = float(before[~keep_b].sum()), float(after[~keep_m].sum())
    return GainReport(axiom, rule_name(rule), abs(after - before), 0.0, before, after)


def verify_sybil_pair(rule, base: Instance, manipulated: Instance, cstar) -> GainReport:
    """General sybil check for pairs sharing untouched artists at indices ``cstar``.

    Untouched artists must occupy the same column indices in both instances.
    Premises, checked per user within ``PREMISE_TOL``: weights on ``cstar``
    are unchanged and each user's mass over the remaining columns is
    preserved. Reported gain is the absolute change of the manipulated
    group's payment.
    """
    _pair(base, manipulated, PremiseError, artists=False)
    keep_b, keep_m = _common_masks(base, manipulated, cstar)
    if (np.abs(base.weights[:, keep_b] - manipulated.weights[:, keep_m]) > PREMISE_TOL).any():
        raise PremiseError("weights on untouched artists changed")
    mass_b = base.weights[:, ~keep_b].sum(axis=1)
    mass_m = manipulated.weights[:, ~keep_m].sum(axis=1)
    if (np.abs(mass_b - mass_m) > PREMISE_TOL).any():
        raise PremiseError("a user's mass on the manipulated artists changed")
    return _group_change(AxiomId.SYBIL_PROOF, rule, base, manipulated, keep_b, keep_m)


def verify_strong_sybil(rule, base: Instance, manipulated: Instance, cstar) -> GainReport:
    """Aggregate sybil check: only column totals and overall mass must match.

    Premises within ``PREMISE_TOL``: each ``cstar`` column keeps its total
    engagement, and the combined mass on the remaining columns is preserved.
    Individual users may redistribute arbitrarily.
    """
    _pair(base, manipulated, PremiseError, artists=False)
    keep_b, keep_m = _common_masks(base, manipulated, cstar)
    tot_b, tot_m = base.artist_totals(), manipulated.artist_totals()
    if np.any(np.abs(tot_b[keep_b] - tot_m[keep_m]) > PREMISE_TOL):
        raise PremiseError("an untouched artist's column total changed")
    if abs(tot_b[~keep_b].sum() - tot_m[~keep_m].sum()) > PREMISE_TOL:
        raise PremiseError("total mass on the manipulated artists changed")
    return _group_change(AxiomId.STRONG_SYBIL_PROOF, rule, base, manipulated, keep_b, keep_m)


def _one_artist_drop(axiom, rule, base, manipulated, artist: int) -> GainReport:
    before, after = (float(p[artist]) for p in _payments(rule, base, manipulated))
    return GainReport(axiom, rule_name(rule), before - after, 0.0, before, after)


def verify_engagement_monotone(
    rule, base: Instance, manipulated: Instance, jstar: int
) -> GainReport:
    """Drop of ``jstar``'s payment when engagement with ``jstar`` rises and
    with every other artist falls (bound 0)."""
    _pair(base, manipulated, PremiseError)
    jstar = core.whole(jstar, PremiseError, "jstar", 0, base.n_artists)
    w, w2 = base.weights, manipulated.weights
    if np.any(w[:, jstar] > w2[:, jstar] + PREMISE_TOL):
        raise PremiseError("engagement with the boosted artist decreased somewhere")
    others = np.arange(base.n_artists) != jstar
    if np.any(w2[:, others] > w[:, others] + PREMISE_TOL):
        raise PremiseError("engagement with another artist increased")
    return _one_artist_drop(AxiomId.ENGAGEMENT_MONOTONE, rule, base, manipulated, jstar)


def _pd_apply(instance: Instance, transfer) -> tuple[Instance, int]:
    donor, recipient, artist, delta = transfer
    n = instance.n_users
    donor = core.whole(donor, PremiseError, "transfer donor", 0, n)
    recipient = core.whole(recipient, PremiseError, "transfer recipient", 0, n)
    artist = core.whole(artist, PremiseError, "transfer artist", 0, instance.n_artists)
    delta = float(delta)
    if donor == recipient:
        raise PremiseError("transfer needs two distinct users")
    if delta <= 0:
        raise PremiseError("transfer must move positive weight")
    w = instance.weights
    if w[donor, artist] - delta <= 0:
        raise PremiseError("donor must keep positive engagement")
    w2 = w.copy()
    w2[donor, artist] -= delta
    w2[recipient, artist] += delta
    if w2[recipient, artist] > w2[donor, artist] + PREMISE_TOL:
        raise PremiseError("transfer may not push the recipient above the donor")
    return Instance(w2, instance.alpha), artist


def verify_pigou_dalton(rule, instance: Instance, transfer) -> GainReport:
    """Drop of an artist's payment under the equalizing transfer
    ``(donor, recipient, artist, delta)`` of its engagement (bound 0)."""
    core.validate(instance)
    manipulated, artist = _pd_apply(instance, transfer)
    return _one_artist_drop(AxiomId.PIGOU_DALTON, rule, instance, manipulated, artist)


def verify_user_addition_monotone(rule, instance: Instance, profile) -> GainReport:
    """Largest drop of any artist's payment when one valid user with
    ``profile`` joins (bound 0), reported on the worst-hit artist."""
    core.validate(instance)
    manipulated = core.add_user(instance, profile)
    before, after = _payments(rule, instance, manipulated)
    return _worst_artist(
        AxiomId.USER_ADDITION_MONOTONE, rule, before, after, before - after, 0.0
    )


def verify_no_free_ridership(rule, instance: Instance) -> GainReport:
    """Largest payment granted to an artist nobody engages with (bound 0).

    ``before`` is the 0 such an artist is owed, ``after`` what it gets.
    """
    core.validate(instance)
    payments = evaluate(rule, instance)
    dead = instance.artist_totals() == 0
    gain = float(payments[dead].max()) if dead.any() else 0.0
    return GainReport(AxiomId.NO_FREE_RIDERSHIP, rule_name(rule), gain, 0.0, 0.0, gain)


def _check_permutation(perm, size: int) -> np.ndarray:
    perm = [core.whole(i, PremiseError, "permutation entry", 0, size) for i in perm]
    if sorted(perm) != list(range(size)):
        raise PremiseError(f"not a permutation of range({size})")
    return np.array(perm, dtype=int)


def verify_anonymity(rule, instance: Instance, perm) -> GainReport:
    """Largest absolute change of a payment when user rows are shuffled
    (bound 0), reported on the artist that moved most."""
    core.validate(instance)
    perm = _check_permutation(perm, instance.n_users)
    before, after = _payments(rule, instance, Instance(instance.weights[perm], instance.alpha))
    return _worst_artist(AxiomId.ANONYMITY, rule, before, after, np.abs(after - before), 0.0)


def verify_neutrality(rule, instance: Instance, perm) -> GainReport:
    """Largest absolute difference between the payments of relabeled artists
    and the relabeled payments (bound 0), reported on the worst label."""
    core.validate(instance)
    perm = _check_permutation(perm, instance.n_artists)
    relabeled = Instance(instance.weights[:, perm], instance.alpha)
    before, after = _payments(rule, instance, relabeled)
    before = before[perm]
    return _worst_artist(AxiomId.NEUTRALITY, rule, before, after, np.abs(after - before), 0.0)


#: Every axiom tag dispatches to exactly one verifier. Each takes the rule
#: and the base instance first, then the manipulation.
VERIFIERS: dict[AxiomId, Callable] = {
    AxiomId.FRAUD_PROOF: verify_fraud_pair,
    AxiomId.BRIBERY_PROOF: verify_bribery_pair,
    AxiomId.SYBIL_PROOF: verify_sybil_pair,
    AxiomId.STRONG_SYBIL_PROOF: verify_strong_sybil,
    AxiomId.NO_FREE_RIDERSHIP: verify_no_free_ridership,
    AxiomId.ANONYMITY: verify_anonymity,
    AxiomId.NEUTRALITY: verify_neutrality,
    AxiomId.ENGAGEMENT_MONOTONE: verify_engagement_monotone,
    AxiomId.PIGOU_DALTON: verify_pigou_dalton,
    AxiomId.USER_ADDITION_MONOTONE: verify_user_addition_monotone,
    AxiomId.CLICK_FRAUD_PROOF: verify_click_fraud,
}


# ---------------------------------------------------------------------------
# randomized searches


def candidate_profiles(base: Instance, rng) -> np.ndarray:
    """Fake rows worth trying: point masses at several magnitudes plus
    ``_N_RANDOM`` random sparse rows. Magnitudes scale with the instance
    because the profitable manipulations, where they exist at all, need
    weight comparable to the whole platform.

    Each random row is a Dirichlet draw times a magnitude picked from the
    point-mass magnitudes times U(0.25, 4); each coordinate is kept with
    probability 0.7, and a row that would lose every coordinate keeps all.
    """
    n, m = base.n_users, base.n_artists
    maxw = float(base.weights.max())
    mags = np.array(sorted({1.0, float(n), float(n * n), float(n * max(maxw, 1.0))}))
    points = (mags[:, None, None] * np.eye(m)).reshape(-1, m)
    dirichlet = rng.dirichlet(np.ones(m), size=_N_RANDOM)
    picked = mags[rng.integers(mags.size, size=_N_RANDOM)]
    spread = rng.uniform(0.25, 4.0, size=_N_RANDOM)
    keep = rng.random((_N_RANDOM, m)) < 0.7
    keep |= ~keep.any(axis=1, keepdims=True)
    random_rows = dirichlet * picked[:, None] * spread[:, None]
    return np.vstack([points, np.where(keep, random_rows, 0.0)])


def _bribes(base: Instance, rows: np.ndarray, victims, budget=None):
    """(victims, rows) of the bribes to try, victim by victim, skipping rows
    equal to the victim's own row and stopping after ``budget`` bribes."""
    n = base.n_users
    victims = np.array([core.whole(v, core.DimensionError, "victim index", 0, n)
                        for v in victims], dtype=int)
    same = np.all(rows[None, :, :] == base.weights[victims][:, None, :], axis=2)
    vi, ri = np.nonzero(~same)
    return victims[vi][:budget], rows[ri][:budget]


def _candidates(base: Instance, rows: np.ndarray, victims=None) -> np.ndarray:
    """Weight stack (K, n', m) of ``base`` with each of the K candidate rows
    appended as a new user, or, given ``victims`` (K,), written over that
    user's row."""
    n, m = base.weights.shape
    if victims is None:
        w = np.empty((rows.shape[0], n + 1, m))
        w[:, :n] = base.weights
        w[:, n] = rows
    else:
        w = np.repeat(base.weights[None], rows.shape[0], axis=0)
        w[np.arange(rows.shape[0]), victims] = rows
    return w


def _score(rule, base: Instance, stack: np.ndarray):
    """Score the candidate stack of one manipulation (see :func:`_candidates`).

    A candidate's gain is its payment delta summed over its best artist
    subset. Subset gain is additive, so that subset is the positive
    coordinates; with none, the single least-bad artist stands in. The best
    candidate has the largest margin over the bound of one manipulated user;
    ties keep the earliest. Returns its gain, its manipulated instance, its
    target set and the (candidates, artists) deltas, or None when there is
    no candidate.
    """
    base_pay = evaluate(rule, base)
    if stack.shape[0] == 0:
        return None
    deltas = batch_payments(rule, stack, base.alpha) - base_pay
    pos = deltas > 0
    gains = np.where(pos, deltas, 0.0).sum(axis=1)
    none = ~pos.any(axis=1)
    gains[none] = deltas[none].max(axis=1)
    best = core.first_max(gains - 1.0)
    tset = np.flatnonzero(pos[best]) if pos[best].any() else [np.argmax(deltas[best])]
    manipulated = Instance(stack[best], base.alpha)
    return float(gains[best]), manipulated, tuple(int(j) for j in tset), deltas


def _search_rows(base: Instance, profiles, budget, seed) -> tuple[np.ndarray, int]:
    """A search's checked budget and candidate rows: ``profiles``, or the
    default ones drawn from ``base`` once it is validated."""
    budget = core.whole(budget, ValueError, "budget", 1)
    seed = core.whole(seed, ValueError, "seed", 0)
    core.validate(base)
    if profiles is None:
        profiles = candidate_profiles(base, np.random.default_rng(seed))
    rows, m = np.asarray(profiles, dtype=float), base.n_artists
    if rows.ndim != 2 or rows.shape[1] != m:
        raise core.DimensionError(f"profiles have shape {rows.shape}, instance has {m} artists")
    return rows, budget


def _search(axiom, rule, base, rows, victims, seed) -> Optional[ViolationWitness]:
    """Best witness over the candidate rows of a validated ``base``. Raises
    what :func:`core.validate` says of the first invalid candidate's instance."""
    stack = _candidates(base, rows, victims)
    valid = np.isfinite(rows).all(axis=1) & (rows >= 0).all(axis=1) & (rows > 0).any(axis=1)
    if not valid.all():
        core.validate(Instance(stack[int(np.argmin(valid))], base.alpha))
    rule = coerce_rule(rule)
    scored = _score(rule, base, stack)
    if scored is None or scored[0] - 1.0 <= MARGIN_TOL:
        return None
    gain, manipulated, tset, _ = scored
    return ViolationWitness(
        axiom, rule_name(rule), base, manipulated, tset, gain, 1.0, source=f"seed:{seed}"
    )


def search_fraud(
    rule,
    base: Instance,
    profiles=None,
    budget: int = 500,
    seed: int = 0,
) -> Optional[ViolationWitness]:
    """Search single-added-user fraud against ``base``.

    Tries each of the first ``budget`` candidate profiles as one fake
    account and scores the payment delta on its best artist subset.
    Returns the maximal-margin witness (ties keep the earliest candidate),
    or None when nothing clears the noise floor. An invalid ``base`` or
    candidate raises the :class:`core.InstanceError` of its instance.
    """
    rows, budget = _search_rows(base, profiles, budget, seed)
    return _search(AxiomId.FRAUD_PROOF, rule, base, rows[:budget], None, seed)


def search_bribery(
    rule,
    base: Instance,
    profiles=None,
    budget: int = 500,
    seed: int = 0,
    victims=None,
) -> Optional[ViolationWitness]:
    """Search single-rewritten-row bribery against ``base``.

    ``victims`` restricts which rows may be rewritten (default: all). Each
    victim meets every candidate in turn, up to ``budget`` bribes in all.
    Candidates identical to the victim's row are skipped since they change
    nothing, and do not count against the budget. Returns the
    maximal-margin witness (ties keep the earliest bribe) or None, and
    rejects invalid input as :func:`search_fraud` does.
    """
    rows, budget = _search_rows(base, profiles, budget, seed)
    if victims is None:
        victims = range(base.n_users)
    who, rows = _bribes(base, rows, victims, budget)
    return _search(AxiomId.BRIBERY_PROOF, rule, base, rows, who, seed)


def random_instance(rng, n_users=(1, 6), n_artists=(2, 5), alpha=None) -> Instance:
    """Small random instance with continuous weights and no dead users."""
    n = int(rng.integers(n_users[0], n_users[1] + 1))
    m = int(rng.integers(n_artists[0], n_artists[1] + 1))
    w = rng.exponential(1.0, size=(n, m))
    drop = rng.random((n, m)) < 0.35
    drop[np.arange(n), rng.integers(0, m, size=n)] = False
    w = np.where(drop, 0.0, w)
    a = float(rng.uniform(0.05, 1.0)) if alpha is None else float(alpha)
    return Instance(w, a)


# ---------------------------------------------------------------------------
# trial suites


@dataclass(frozen=True)
class SuiteResult:
    """Worst outcome over a batch of randomized trials for one axiom/rule."""

    axiom: AxiomId
    rule: str
    trials: int
    max_margin: float
    witness: Optional[ViolationWitness]
    clickfraud_margin: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.witness is None and self.max_margin <= MARGIN_TOL


def _fraud_trial(rule, inst, rng):
    rows = candidate_profiles(inst, rng)
    gain, manipulated, tset, _ = _score(rule, inst, _candidates(inst, rows))
    return (gain, 1.0, inst, manipulated, tset, None)


def _bribery_trial(rule, inst, rng):
    victim = int(rng.integers(inst.n_users))
    who, rows = _bribes(inst, candidate_profiles(inst, rng), [victim])
    scored = _score(rule, inst, _candidates(inst, rows, who))
    if scored is None:
        return None
    gain, manipulated, tset, deltas = scored
    swing = np.abs(deltas).max(axis=1)  # largest single-artist payment change
    swing = float(swing[~np.isnan(swing)].max(initial=-np.inf))
    return (gain, 1.0, inst, manipulated, tset, swing - 1.0)


def _sybil_trial(rule, inst, rng):
    j = int(rng.integers(inst.n_artists))
    r = int(rng.integers(2, 5))
    parts = inst.weights[:, j][:, None] * rng.dirichlet(np.ones(r), size=inst.n_users)
    # artist j keeps its column as sybil 0 and the other sybils are appended,
    # so every untouched artist keeps its index
    w = np.hstack([inst.weights, parts[:, 1:]])
    w[:, j] = parts[:, 0]
    manipulated = Instance(w, inst.alpha)
    cstar = [c for c in range(inst.n_artists) if c != j]
    report = verify_sybil_pair(rule, inst, manipulated, cstar)
    return (report.gain, report.bound, inst, manipulated, (j,), None)


def _strong_sybil_trial(rule, inst, rng):
    n, m = inst.n_users, inst.n_artists
    k = int(rng.integers(1, m))
    cstar = tuple(sorted(rng.choice(m, size=k, replace=False).tolist()))
    keep = np.isin(np.arange(m), cstar)
    w = inst.weights
    new_w = np.zeros_like(w)
    for j in np.flatnonzero(keep):
        total = w[:, j].sum()
        if total > 0:
            new_w[:, j] = total * rng.dirichlet(np.ones(n))
    comp = np.flatnonzero(~keep)
    mass = w[:, comp].sum()
    new_w[:, comp] = (mass * rng.dirichlet(np.ones(n * comp.size))).reshape(n, comp.size)
    manipulated = Instance(new_w, inst.alpha)
    report = verify_strong_sybil(rule, inst, manipulated, cstar)
    return (report.gain, report.bound, inst, manipulated, tuple(comp), None)


def _nfr_trial(rule, inst, rng):
    w = inst.weights.copy()
    n, m = w.shape
    j = int(rng.integers(m))
    alive_elsewhere = (np.delete(w, j, axis=1) > 0).any(axis=1)
    for i in np.flatnonzero(~alive_elsewhere):
        jj = int(rng.integers(m - 1))
        jj = jj if jj < j else jj + 1
        w[i, jj] = float(rng.exponential(1.0)) + 1e-3
    w[:, j] = 0.0
    planted = Instance(w, inst.alpha)
    report = verify_no_free_ridership(rule, planted)
    return (report.gain, report.bound, planted, planted, (j,), None)


def _em_trial(rule, inst, rng):
    n, m = inst.n_users, inst.n_artists
    jstar = int(rng.integers(m))
    w = inst.weights.copy()
    w[:, jstar] += rng.exponential(1.0, size=n) * (rng.random(n) < 0.7)
    others = np.arange(m) != jstar
    w[:, others] *= rng.uniform(0.2, 1.0, size=(n, int(others.sum())))
    manipulated = Instance(w, inst.alpha)
    report = verify_engagement_monotone(rule, inst, manipulated, jstar)
    return (report.gain, report.bound, inst, manipulated, (jstar,), None)


def _pd_trial(rule, inst, rng):
    if inst.n_users < 2:
        return None
    w = inst.weights
    for _ in range(20):
        j = int(rng.integers(inst.n_artists))
        donor, recipient = rng.choice(inst.n_users, size=2, replace=False)
        gap = w[donor, j] - w[recipient, j]
        if gap <= 0 or w[donor, j] <= 0:
            continue
        delta = 0.5 * gap * float(rng.uniform(0.2, 1.0))
        if delta <= 0:
            continue
        manipulated = _pd_apply(inst, (int(donor), int(recipient), j, delta))[0]
        report = _one_artist_drop(AxiomId.PIGOU_DALTON, rule, inst, manipulated, j)
        return (report.gain, report.bound, inst, manipulated, (j,), None)
    return None


#: Each trial returns None when it has nothing to score, else (gain, bound,
#: base, manipulated, target_set, swing_margin); only bribery has a swing.
_TRIALS = {
    AxiomId.FRAUD_PROOF: _fraud_trial,
    AxiomId.BRIBERY_PROOF: _bribery_trial,
    AxiomId.SYBIL_PROOF: _sybil_trial,
    AxiomId.STRONG_SYBIL_PROOF: _strong_sybil_trial,
    AxiomId.NO_FREE_RIDERSHIP: _nfr_trial,
    AxiomId.ENGAGEMENT_MONOTONE: _em_trial,
    AxiomId.PIGOU_DALTON: _pd_trial,
}

#: The axioms that have a randomized suite for :func:`run_suite`.
SUITE_AXIOMS = frozenset(_TRIALS)


def run_suite(
    axiom: AxiomId,
    rule,
    trials: int = 10_000,
    seed: int = 0,
    instance_gen=None,
) -> SuiteResult:
    """Drive one axiom's randomized trials for one rule.

    Every trial draws its own generator seeded with ``[seed, trial]``, builds
    a random instance (or a validated one from ``instance_gen``), applies
    the axiom's manipulation scheme, and records the margin over its bound. The
    worst margin is kept; ties keep the earliest trial. Bribery suites also
    track the largest single-artist payment swing, whose bound of one is the
    click-fraud condition.
    """
    trials = core.whole(trials, ValueError, "trials", 1)
    seed = core.whole(seed, ValueError, "seed", 0)
    try:
        trial_fn = _TRIALS[AxiomId(axiom)]
    except KeyError:
        raise KeyError(f"no randomized suite for axiom {axiom!r}") from None
    gen = instance_gen if instance_gen is not None else random_instance
    rule = coerce_rule(rule)
    max_margin = -np.inf
    witness = None
    cf_margin = None
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        inst = gen(rng)
        if instance_gen is not None:  # random_instance draws are valid by construction
            core.validate(inst)
        out = trial_fn(rule, inst, rng)
        if out is None:
            continue
        gain, bound, base, manipulated, tset, swing_margin = out
        margin = gain - bound
        if swing_margin is not None:
            cf_margin = swing_margin if cf_margin is None else max(cf_margin, swing_margin)
        if margin > max_margin:
            max_margin = margin
            if margin > MARGIN_TOL:
                witness = ViolationWitness(
                    AxiomId(axiom), rule_name(rule), base, manipulated, tset,
                    gain, bound, source=f"seed:{seed}/trial:{t}",
                )
                logger.info("violation witness: %s", witness_line(witness))
    return SuiteResult(AxiomId(axiom), rule_name(rule), trials, max_margin, witness, cf_margin)


#: The twenty axiom/rule batches the randomized evidence is expected to cover.
SUITE_GRID: tuple = (
    (AxiomId.FRAUD_PROOF, "userprop"),
    (AxiomId.FRAUD_PROOF, "usereq"),
    (AxiomId.FRAUD_PROOF, "scaledup"),
    (AxiomId.BRIBERY_PROOF, "userprop"),
    (AxiomId.BRIBERY_PROOF, "usereq"),
    (AxiomId.BRIBERY_PROOF, "scaledup"),
    (AxiomId.SYBIL_PROOF, "userprop"),
    (AxiomId.SYBIL_PROOF, "scaledup"),
    (AxiomId.SYBIL_PROOF, "globalprop"),
    (AxiomId.STRONG_SYBIL_PROOF, "globalprop"),
    (AxiomId.NO_FREE_RIDERSHIP, "globalprop"),
    (AxiomId.NO_FREE_RIDERSHIP, "userprop"),
    (AxiomId.NO_FREE_RIDERSHIP, "usereq"),
    (AxiomId.NO_FREE_RIDERSHIP, "scaledup"),
    (AxiomId.ENGAGEMENT_MONOTONE, "globalprop"),
    (AxiomId.ENGAGEMENT_MONOTONE, "userprop"),
    (AxiomId.ENGAGEMENT_MONOTONE, "usereq"),
    (AxiomId.ENGAGEMENT_MONOTONE, "scaledup"),
    (AxiomId.PIGOU_DALTON, "globalprop"),
    (AxiomId.PIGOU_DALTON, "usereq"),
)
