"""Manipulation-resistance checkers for division rules.

Three layers:

* verifiers take explicit before/after instances and return one
  :class:`GainReport`: the scored payment on both sides, the gain, and
  the axiom's allowed bound,
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
from .rules import RuleId, batch_payments, coerce_rule, evaluate

logger = logging.getLogger(__name__)

#: A manipulation must beat the axiom's bound by this much to count as a
#: violation; anything smaller is treated as float noise.
MARGIN_TOL = 1e-7

#: Tolerance for the structural premises a before/after pair must satisfy.
PREMISE_TOL = 1e-12


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


def _payments(rule, instance: Instance) -> np.ndarray:
    if callable(rule) and not isinstance(rule, str):
        return np.asarray(rule(instance), dtype=float)
    return evaluate(rule, instance)


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
    margin: float
    source: str = ""

    def __post_init__(self):
        # written so that a NaN margin, gain or bound fails both guards
        if not abs(self.margin - (self.gain - self.bound)) <= 1e-9:
            raise ValueError("margin must equal gain - bound")
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


def verify_fraud_pair(rule, base: Instance, manipulated: Instance, target_set) -> GainReport:
    """Gain of ``target_set`` when ``manipulated`` appends fake users to ``base``.

    ``manipulated`` must extend ``base``: same artists, same alpha, original
    rows bit-identical, at least one appended row, and be a valid instance.
    The allowed bound is the number of added users.
    """
    if manipulated.n_artists != base.n_artists:
        raise NotAnExtensionError("artist sets differ")
    if manipulated.alpha != base.alpha:
        raise NotAnExtensionError("alpha differs between the instances")
    added = manipulated.n_users - base.n_users
    if added < 1:
        raise NotAnExtensionError("manipulated instance adds no users")
    if not np.array_equal(manipulated.weights[: base.n_users], base.weights):
        raise NotAnExtensionError("an original row was edited")
    core.validate(manipulated)
    before = core.subset_payment(_payments(rule, base), target_set)
    after = core.subset_payment(_payments(rule, manipulated), target_set)
    return GainReport(
        AxiomId.FRAUD_PROOF, rule_name(rule), after - before, float(added), before, after
    )


def _changed_rows(base: Instance, manipulated: Instance) -> np.ndarray:
    """Indices of the rewritten rows of a valid same-shape pair."""
    if manipulated.n_users != base.n_users or manipulated.n_artists != base.n_artists:
        raise PremiseError("instances must share both dimensions")
    if manipulated.alpha != base.alpha:
        raise PremiseError("alpha differs between the instances")
    changed = np.flatnonzero(np.any(manipulated.weights != base.weights, axis=1))
    if changed.size == 0:
        raise NoRowsChangedError("instances are identical")
    core.validate(manipulated)
    return changed


def verify_bribery_pair(rule, base: Instance, manipulated: Instance, target_set) -> GainReport:
    """Gain of ``target_set`` when k existing rows are rewritten (bound k)."""
    changed = _changed_rows(base, manipulated)
    before = core.subset_payment(_payments(rule, base), target_set)
    after = core.subset_payment(_payments(rule, manipulated), target_set)
    return GainReport(
        AxiomId.BRIBERY_PROOF, rule_name(rule), after - before, float(changed.size),
        before, after,
    )


def verify_click_fraud(rule, base: Instance, manipulated: Instance) -> GainReport:
    """Largest per-artist payment swing caused by a single rewritten row
    (bound 1), reported on the artist that swung most."""
    changed = _changed_rows(base, manipulated)
    if changed.size > 1:
        raise PremiseError(f"{changed.size} rows changed; this is a single-user check")
    before, after = _payments(rule, base), _payments(rule, manipulated)
    return _worst_artist(
        AxiomId.CLICK_FRAUD_PROOF, rule, before, after, np.abs(after - before), 1.0
    )


def _common_masks(base: Instance, manipulated: Instance, cstar):
    """Masks of the ``cstar`` columns in ``base`` and in ``manipulated``."""
    cstar = np.asarray(cstar, dtype=int).reshape(-1)
    limit = min(base.n_artists, manipulated.n_artists)
    if cstar.size and not 0 <= cstar.min() <= cstar.max() < limit:
        raise PremiseError("cstar index out of range for one of the instances")
    keep = np.zeros(max(base.n_artists, manipulated.n_artists), dtype=bool)
    keep[cstar] = True
    return keep[: base.n_artists], keep[: manipulated.n_artists]


def _group_change(axiom, rule, base, manipulated, keep_b, keep_m) -> GainReport:
    """Absolute change of the payment to the artists outside ``cstar``."""
    before = float(_payments(rule, base)[~keep_b].sum())
    after = float(_payments(rule, manipulated)[~keep_m].sum())
    return GainReport(axiom, rule_name(rule), abs(after - before), 0.0, before, after)


def verify_sybil_pair(rule, base: Instance, manipulated: Instance, cstar) -> GainReport:
    """General sybil check for pairs sharing untouched artists at indices ``cstar``.

    Untouched artists must occupy the same column indices in both instances.
    Premises, checked per user within ``PREMISE_TOL``: weights on ``cstar``
    are unchanged and each user's mass over the remaining columns is
    preserved. Reported gain is the absolute change of the manipulated
    group's payment.
    """
    if manipulated.n_users != base.n_users:
        raise PremiseError("sybil pairs keep the user set fixed")
    if manipulated.alpha != base.alpha:
        raise PremiseError("alpha differs between the instances")
    keep_b, keep_m = _common_masks(base, manipulated, cstar)
    if (np.abs(base.weights[:, keep_b] - manipulated.weights[:, keep_m]) > PREMISE_TOL).any():
        raise PremiseError("weights on untouched artists changed")
    mass_b = base.weights[:, ~keep_b].sum(axis=1)
    mass_m = manipulated.weights[:, ~keep_m].sum(axis=1)
    if (np.abs(mass_b - mass_m) > PREMISE_TOL).any():
        raise PremiseError("a user's mass on the manipulated artists changed")
    core.validate_rows(manipulated)
    return _group_change(AxiomId.SYBIL_PROOF, rule, base, manipulated, keep_b, keep_m)


def verify_strong_sybil(rule, base: Instance, manipulated: Instance, cstar) -> GainReport:
    """Aggregate sybil check: only column totals and overall mass must match.

    Premises within ``PREMISE_TOL``: each ``cstar`` column keeps its total
    engagement, and the combined mass on the remaining columns is preserved.
    Individual users may redistribute arbitrarily.
    """
    if manipulated.n_users != base.n_users:
        raise PremiseError("strong sybil pairs keep the user set fixed")
    if manipulated.alpha != base.alpha:
        raise PremiseError("alpha differs between the instances")
    keep_b, keep_m = _common_masks(base, manipulated, cstar)
    tot_b = base.weights.sum(axis=0)
    tot_m = manipulated.weights.sum(axis=0)
    if np.any(np.abs(tot_b[keep_b] - tot_m[keep_m]) > PREMISE_TOL):
        raise PremiseError("an untouched artist's column total changed")
    if abs(tot_b[~keep_b].sum() - tot_m[~keep_m].sum()) > PREMISE_TOL:
        raise PremiseError("total mass on the manipulated artists changed")
    core.validate_rows(manipulated)
    return _group_change(AxiomId.STRONG_SYBIL_PROOF, rule, base, manipulated, keep_b, keep_m)


def _one_artist_drop(axiom, rule, base, manipulated, artist: int) -> GainReport:
    before = float(_payments(rule, base)[artist])
    after = float(_payments(rule, manipulated)[artist])
    return GainReport(axiom, rule_name(rule), before - after, 0.0, before, after)


def verify_engagement_monotone(
    rule, base: Instance, manipulated: Instance, jstar: int
) -> GainReport:
    """Drop of ``jstar``'s payment when engagement with ``jstar`` rises and
    with every other artist falls (bound 0)."""
    if manipulated.n_users != base.n_users or manipulated.n_artists != base.n_artists:
        raise PremiseError("instances must share both dimensions")
    if manipulated.alpha != base.alpha:
        raise PremiseError("alpha differs between the instances")
    if not 0 <= jstar < base.n_artists:
        raise PremiseError(f"artist {jstar} out of range")
    w, w2 = base.weights, manipulated.weights
    if np.any(w[:, jstar] > w2[:, jstar] + PREMISE_TOL):
        raise PremiseError("engagement with the boosted artist decreased somewhere")
    others = np.arange(base.n_artists) != jstar
    if np.any(w2[:, others] > w[:, others] + PREMISE_TOL):
        raise PremiseError("engagement with another artist increased")
    core.validate_rows(manipulated)
    return _one_artist_drop(AxiomId.ENGAGEMENT_MONOTONE, rule, base, manipulated, jstar)


def _pd_apply(instance: Instance, transfer) -> tuple[Instance, int]:
    donor, recipient, artist, delta = transfer
    donor, recipient, artist = int(donor), int(recipient), int(artist)
    delta = float(delta)
    n, m = instance.n_users, instance.n_artists
    if not (0 <= donor < n and 0 <= recipient < n and 0 <= artist < m):
        raise PremiseError("transfer indices out of range")
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
    manipulated, artist = _pd_apply(instance, transfer)
    return _one_artist_drop(AxiomId.PIGOU_DALTON, rule, instance, manipulated, artist)


def verify_user_addition_monotone(rule, instance: Instance, profile) -> GainReport:
    """Largest drop of any artist's payment when one valid user with
    ``profile`` joins (bound 0), reported on the worst-hit artist."""
    manipulated = core.add_user(instance, profile)
    core.validate(manipulated)
    before = _payments(rule, instance)
    after = _payments(rule, manipulated)
    return _worst_artist(
        AxiomId.USER_ADDITION_MONOTONE, rule, before, after, before - after, 0.0
    )


def verify_no_free_ridership(rule, instance: Instance) -> GainReport:
    """Largest payment granted to an artist nobody engages with (bound 0).

    ``before`` is the 0 such an artist is owed, ``after`` what it gets.
    """
    payments = _payments(rule, instance)
    dead = instance.artist_totals() == 0
    gain = float(payments[dead].max()) if dead.any() else 0.0
    return GainReport(AxiomId.NO_FREE_RIDERSHIP, rule_name(rule), gain, 0.0, 0.0, gain)


def _check_permutation(perm, size: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    if perm.shape != (size,) or not np.array_equal(np.sort(perm), np.arange(size)):
        raise PremiseError(f"not a permutation of range({size})")
    return perm


def verify_anonymity(rule, instance: Instance, perm) -> GainReport:
    """Largest absolute change of a payment when user rows are shuffled
    (bound 0), reported on the artist that moved most."""
    perm = _check_permutation(perm, instance.n_users)
    shuffled = Instance(instance.weights[perm], instance.alpha)
    before, after = _payments(rule, instance), _payments(rule, shuffled)
    return _worst_artist(AxiomId.ANONYMITY, rule, before, after, np.abs(after - before), 0.0)


def verify_neutrality(rule, instance: Instance, perm) -> GainReport:
    """Largest absolute difference between the payments of relabeled artists
    and the relabeled payments (bound 0), reported on the worst label."""
    perm = _check_permutation(perm, instance.n_artists)
    relabeled = Instance(instance.weights[:, perm], instance.alpha)
    before = _payments(rule, instance)[perm]
    after = _payments(rule, relabeled)
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


def candidate_profiles(base: Instance, rng, n_random: int = 64) -> np.ndarray:
    """Fake rows worth trying: point masses at several magnitudes plus
    random sparse rows. Magnitudes scale with the instance because the
    profitable manipulations, where they exist at all, need weight
    comparable to the whole platform.

    Each random row is a Dirichlet draw times a magnitude picked from the
    point-mass magnitudes times U(0.25, 4); each coordinate is kept with
    probability 0.7, and a row that would lose every coordinate keeps all.
    """
    n, m = base.n_users, base.n_artists
    maxw = float(base.weights.max())
    mags = np.array(sorted({1.0, float(n), float(n * n), float(n * max(maxw, 1.0))}))
    points = (mags[:, None, None] * np.eye(m)).reshape(-1, m)
    dirichlet = rng.dirichlet(np.ones(m), size=n_random)
    picked = mags[rng.integers(mags.size, size=n_random)]
    spread = rng.uniform(0.25, 4.0, size=n_random)
    keep = rng.random((n_random, m)) < 0.7
    keep |= ~keep.any(axis=1, keepdims=True)
    random_rows = dirichlet * picked[:, None] * spread[:, None]
    return np.vstack([points, np.where(keep, random_rows, 0.0)])


def _as_rows(profiles, m: int) -> np.ndarray:
    rows = np.asarray(profiles, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != m:
        raise core.DimensionError(f"profiles have shape {rows.shape}, instance has {m} artists")
    return rows


def _bribes(base: Instance, rows: np.ndarray, victims, budget=None):
    """(victims, rows) of the bribes to try, victim by victim, skipping rows
    equal to the victim's own row and stopping after ``budget`` bribes."""
    victims = np.asarray(list(victims), dtype=int).reshape(-1)
    if np.any((victims < 0) | (victims >= base.n_users)):
        raise core.DimensionError(f"victim index out of range for {base.n_users} users")
    same = np.all(rows[None, :, :] == base.weights[victims][:, None, :], axis=2)
    vi, ri = np.nonzero(~same)
    return victims[vi][:budget], rows[ri][:budget]


def _manipulate(base: Instance, row, victim=None) -> Instance:
    if victim is None:
        return core.add_user(base, row)
    return core.replace_user(base, int(victim), row)


def _candidate_payments(rule, base: Instance, rows: np.ndarray, victims=None) -> np.ndarray:
    """Payments (K, m) of ``base`` with each of the K candidate rows appended
    as a new user, or, given ``victims`` (K,), written over that user's row.

    Main rules score the whole stack in one kernel call; portioning rules and
    plain callables evaluate each manipulated instance in turn.
    """
    if isinstance(rule, RuleId):
        n, m = base.weights.shape
        if victims is None:
            w = np.empty((rows.shape[0], n + 1, m))
            w[:, :n] = base.weights
            w[:, n] = rows
        else:
            w = np.repeat(base.weights[None], rows.shape[0], axis=0)
            w[np.arange(rows.shape[0]), victims] = rows
        return batch_payments(rule, w, base.alpha)
    return np.array([
        _payments(rule, _manipulate(base, row, None if victims is None else victims[k]))
        for k, row in enumerate(rows)
    ]).reshape(rows.shape)


def _first_max(values: np.ndarray) -> int:
    """The index a running strict ``>`` scan keeps: the earliest maximum,
    where NaN never wins unless it comes first."""
    if np.isnan(values[0]):
        return 0
    return int(np.argmax(np.where(np.isnan(values), -np.inf, values)))


@dataclass(frozen=True)
class _Scores:
    """Every candidate of one manipulation, scored in one call.

    ``best`` is the candidate with the largest margin over the bound of one
    manipulated user; ties keep the earliest candidate.
    """

    rows: np.ndarray
    victims: Optional[np.ndarray]
    deltas: np.ndarray
    gains: np.ndarray
    best: int

    @property
    def gain(self) -> float:
        return float(self.gains[self.best])

    def winner(self, base: Instance) -> tuple[Instance, tuple]:
        """The best candidate's manipulated instance and target set."""
        k = self.best
        victim = None if self.victims is None else self.victims[k]
        return _manipulate(base, self.rows[k], victim), self.target_set(k)

    def target_set(self, k: int) -> tuple:
        """Candidate ``k``'s best artist subset, as :func:`_score` scores it."""
        pos = np.flatnonzero(self.deltas[k] > 0)
        if pos.size:
            return tuple(int(j) for j in pos)
        return (int(np.argmax(self.deltas[k])),)

    def swing(self) -> float:
        """Largest single-artist payment change over all candidates."""
        per_row = np.abs(self.deltas).max(axis=1)
        return float(per_row[~np.isnan(per_row)].max(initial=-np.inf))


def _score(rule, base: Instance, rows: np.ndarray, victims=None):
    """Score the candidate rows of one manipulation (``victims`` None:
    each row is one added user; else each row rewrites its victim's row).

    A candidate's gain is its payment delta summed over its best artist
    subset. Subset gain is additive, so that subset is the positive
    coordinates; with none, the single least-bad artist stands in.
    Returns None when there is no candidate.
    """
    base_pay = _payments(rule, base)
    if rows.shape[0] == 0:
        return None
    deltas = _candidate_payments(rule, base, rows, victims) - base_pay
    pos = deltas > 0
    gains = np.where(pos, deltas, 0.0).sum(axis=1)
    none = ~pos.any(axis=1)
    gains[none] = deltas[none].max(axis=1)
    return _Scores(rows, victims, deltas, gains, _first_max(gains - 1.0))


def _search(axiom, rule, base, rows, victims, seed) -> Optional[ViolationWitness]:
    """Best witness over the candidate rows of a validated ``base``. Raises
    what :func:`core.validate` says of the first invalid candidate's instance."""
    valid = np.isfinite(rows).all(axis=1) & (rows >= 0).all(axis=1) & (rows > 0).any(axis=1)
    if not valid.all():
        k = int(np.argmin(valid))
        core.validate(_manipulate(base, rows[k], None if victims is None else victims[k]))
    if not callable(rule):
        rule = coerce_rule(rule)
    scores = _score(rule, base, rows, victims)
    if scores is None or scores.gain - 1.0 <= MARGIN_TOL:
        return None
    manipulated, tset = scores.winner(base)
    return ViolationWitness(
        axiom, rule_name(rule), base, manipulated, tset,
        scores.gain, 1.0, scores.gain - 1.0, source=f"seed:{seed}",
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
    if budget < 1:
        raise ValueError("budget must be at least 1")
    core.validate(base)  # before the default candidates are drawn from it
    if profiles is None:
        profiles = candidate_profiles(base, np.random.default_rng(seed))
    rows = _as_rows(profiles, base.n_artists)[:budget]
    return _search(AxiomId.FRAUD_PROOF, rule, base, rows, None, seed)


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
    if budget < 1:
        raise ValueError("budget must be at least 1")
    core.validate(base)  # before the default candidates are drawn from it
    if profiles is None:
        profiles = candidate_profiles(base, np.random.default_rng(seed))
    if victims is None:
        victims = range(base.n_users)
    who, rows = _bribes(base, _as_rows(profiles, base.n_artists), victims, budget)
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
    scores = _score(rule, inst, candidate_profiles(inst, rng))
    manipulated, tset = scores.winner(inst)
    return (scores.gain - 1.0, scores.gain, 1.0, inst, manipulated, tset, None)


def _bribery_trial(rule, inst, rng):
    victim = int(rng.integers(inst.n_users))
    who, rows = _bribes(inst, candidate_profiles(inst, rng), [victim])
    scores = _score(rule, inst, rows, who)
    if scores is None:
        return None
    manipulated, tset = scores.winner(inst)
    return (
        scores.gain - 1.0, scores.gain, 1.0, inst, manipulated, tset, scores.swing() - 1.0,
    )


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
    return (report.margin, report.gain, 0.0, inst, manipulated, (j,), None)


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
    return (report.margin, report.gain, 0.0, inst, manipulated, tuple(comp), None)


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
    return (report.margin, report.gain, 0.0, planted, planted, (j,), None)


def _em_trial(rule, inst, rng):
    n, m = inst.n_users, inst.n_artists
    jstar = int(rng.integers(m))
    w = inst.weights.copy()
    w[:, jstar] += rng.exponential(1.0, size=n) * (rng.random(n) < 0.7)
    others = np.arange(m) != jstar
    w[:, others] *= rng.uniform(0.2, 1.0, size=(n, int(others.sum())))
    manipulated = Instance(w, inst.alpha)
    report = verify_engagement_monotone(rule, inst, manipulated, jstar)
    return (report.margin, report.gain, 0.0, inst, manipulated, (jstar,), None)


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
        transfer = (int(donor), int(recipient), j, delta)
        report = verify_pigou_dalton(rule, inst, transfer)
        manipulated, _ = _pd_apply(inst, transfer)
        return (report.margin, report.gain, 0.0, inst, manipulated, (j,), None)
    return None


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
    a random instance (or one from ``instance_gen``), applies the axiom's
    manipulation scheme, and records the margin over the axiom's bound. The
    worst margin is kept; ties keep the earliest trial. Bribery suites also
    track the largest single-artist payment swing, whose bound of one is the
    click-fraud condition.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    try:
        trial_fn = _TRIALS[AxiomId(axiom)]
    except KeyError:
        raise KeyError(f"no randomized suite for axiom {axiom!r}") from None
    gen = instance_gen if instance_gen is not None else random_instance
    if not callable(rule):
        rule = coerce_rule(rule)
    max_margin = -np.inf
    witness = None
    cf_margin = None
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        out = trial_fn(rule, gen(rng), rng)
        if out is None:
            continue
        margin, gain, bound, base, manipulated, tset, swing_margin = out
        if swing_margin is not None:
            cf_margin = swing_margin if cf_margin is None else max(cf_margin, swing_margin)
        if margin > max_margin:
            max_margin = margin
            if margin > MARGIN_TOL:
                witness = ViolationWitness(
                    AxiomId(axiom), rule_name(rule), base, manipulated, tset,
                    gain, bound, margin, source=f"seed:{seed}/trial:{t}",
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
