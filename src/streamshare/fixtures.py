"""Named manipulation fixtures and two handcrafted validation rules.

Every fixture pins one concrete manipulation, the exact payments on the
scored artist group before and after, and the verdict the verifier must
produce. They serve as oracles for the checker machinery in
:mod:`streamshare.axioms`: if a verifier ever disagrees with a fixture,
the verifier is wrong.

The two rules returned by :func:`pathological_rules` are deliberately
lopsided: one resists row rewrites but not planted accounts, the other
the reverse. They exist so the searchers have known-positive and
known-negative targets. Like the built-in rules they take a (..., n, 2)
weight stack and alpha and return (..., 2) payments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core
from .axioms import VERIFIERS, AxiomId, GainReport
from .core import BadAlphaError, Instance
from .rules import RuleId, batch_payments


class DomainError(ValueError):
    """The handcrafted rules are defined on two-artist instances only."""


@dataclass(frozen=True)
class Fixture:
    """One pinned manipulation with its expected outcome.

    The manipulation is given by the fields its axiom's verifier takes
    after the base instance, in field order: ``manipulated`` with
    ``target_set`` or ``cstar``, a ``transfer``, or a ``profile``.
    ``expected_before``/``expected_after`` are the scored payments on the
    two sides; ``expected_gain`` is what the verifier must report. The
    ``note`` explains the mechanics in plain words.
    """

    name: str
    axiom: AxiomId
    rule: object
    base: Instance
    manipulated: Optional[Instance] = None
    target_set: Optional[tuple] = None
    cstar: Optional[tuple] = None
    transfer: Optional[tuple] = None
    profile: Optional[tuple] = None
    expected_before: Optional[float] = None
    expected_after: Optional[float] = None
    expected_gain: Optional[float] = None
    bound: float = 0.0
    expect_violation: bool = True
    note: str = ""


def verify_fixture(fixture: Fixture) -> GainReport:
    """Run a fixture through its axiom's verifier and return the report."""
    manipulation = (
        fixture.manipulated, fixture.target_set, fixture.cstar,
        fixture.transfer, fixture.profile,
    )
    return VERIFIERS[fixture.axiom](
        fixture.rule, fixture.base, *(x for x in manipulation if x is not None)
    )


def fixtures() -> dict:
    """Named fixture library, keyed by ``<rule>-<axiom>`` style names."""
    fx = {}

    def put(f: Fixture):
        fx[f.name] = f

    # --- globalprop -------------------------------------------------------
    ones = Instance([[1.0, 0.0]] * 5, 1.0)
    put(Fixture(
        name="globalprop-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule="globalprop",
        base=ones,
        manipulated=Instance([[1.0, 0.0]] * 5 + [[0.0, 5.0]], 1.0),
        target_set=(1,),
        expected_before=0.0, expected_after=3.0, expected_gain=3.0, bound=1.0,
        note="one planted account matching the honest column total pulls half "
             "the enlarged pool to an artist nobody real listens to",
    ))
    put(Fixture(
        name="globalprop-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule="globalprop",
        base=ones,
        manipulated=core.replace_user(ones, 4, [1.0, 5.0]),
        target_set=(1,),
        expected_before=0.0, expected_after=2.5, expected_gain=2.5, bound=1.0,
        note="one rewritten row with five streams for the rival moves half "
             "the pool; column-total rules let a single user swing nα/2",
    ))
    put(Fixture(
        name="globalprop-uam",
        axiom=AxiomId.USER_ADDITION_MONOTONE,
        rule="globalprop",
        base=ones,
        profile=(0.0, 5.0),
        expected_before=5.0, expected_after=3.0, expected_gain=2.0,
        note="adding a heavy fan of the rival drops the incumbent from 5 to 3",
    ))

    # --- userprop / usereq / scaledup -------------------------------------
    put(Fixture(
        name="usereq-sybil",
        axiom=AxiomId.SYBIL_PROOF,
        rule="usereq",
        base=Instance([[1.0, 1.0]], 1.0),
        manipulated=Instance([[1.0, 0.5, 0.5]], 1.0),
        cstar=(0,),
        expected_before=0.5, expected_after=2.0 / 3.0, expected_gain=1.0 / 6.0,
        note="support-counting pays per distinct artist, so splitting into "
             "two identities grows the family share from 1/2 to 2/3",
    ))
    put(Fixture(
        name="userprop-strongsybil",
        axiom=AxiomId.STRONG_SYBIL_PROOF,
        rule="userprop",
        base=Instance([[1.0, 0.0], [0.0, 2.0]], 1.0),
        manipulated=Instance([[0.5, 2.0], [0.5, 0.0]], 1.0),
        cstar=(0,),
        expected_before=1.0, expected_after=0.8, expected_gain=0.2,
        note="column totals are preserved but moving the streams onto a "
             "diluted listener changes per-user shares",
    ))
    put(Fixture(
        name="userprop-pigoudalton",
        axiom=AxiomId.PIGOU_DALTON,
        rule="userprop",
        base=Instance([[1.0, 2.0], [9.0, 0.0]], 1.0),
        transfer=(0, 1, 1, 1.0),
        expected_before=2.0 / 3.0, expected_after=3.0 / 5.0,
        expected_gain=2.0 / 3.0 - 3.0 / 5.0,
        note="the stream moves to a user whose attention is already spread "
             "thin, so the artist's summed share drops from 2/3 to 3/5",
    ))
    put(Fixture(
        name="scaledup-pigoudalton",
        axiom=AxiomId.PIGOU_DALTON,
        rule="scaledup",
        base=Instance([[0.5, 0.0], [1.0, 0.0], [2.5, 2.0]], 0.5),
        transfer=(2, 0, 0, 0.5),
        expected_before=19.0 / 18.0, expected_after=1.0,
        expected_gain=19.0 / 18.0 - 1.0,
        note="the transfer shrinks the capped heavy user's total, reshaping "
             "the influence cap and costing the artist 1/18",
    ))

    # --- coordinatewise portioning: fraud ---------------------------------
    half7 = Instance([[0.5, 0.5]] * 7, 1.0)
    put(Fixture(
        name="max-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule="max",
        base=half7,
        manipulated=Instance([[0.5, 0.5]] * 7 + [[1.0, 0.0]], 1.0),
        target_set=(0,),
        expected_before=3.5, expected_after=16.0 / 3.0, expected_gain=11.0 / 6.0,
        bound=1.0,
        note="one all-in account raises the column maximum from 1/2 to 1 and "
             "with it the whole column's share",
    ))
    half2 = Instance([[0.5, 0.5]] * 2, 1.0)
    put(Fixture(
        name="min-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule="min",
        base=half2,
        manipulated=Instance([[0.5, 0.5]] * 2 + [[1.0, 0.0]], 1.0),
        target_set=(0,),
        expected_before=1.0, expected_after=3.0, expected_gain=2.0, bound=1.0,
        note="one account with zero streams for the rival zeroes the rival's "
             "column minimum and the whole pool flips",
    ))
    put(Fixture(
        name="geo-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule="geo",
        base=half2,
        manipulated=Instance([[0.5, 0.5]] * 2 + [[1.0, 0.0]], 1.0),
        target_set=(0,),
        expected_before=1.0, expected_after=3.0, expected_gain=2.0, bound=1.0,
        note="a single zero annihilates the geometric mean exactly like the "
             "minimum, flipping the pool",
    ))
    med3 = Instance([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], 1.0)
    put(Fixture(
        name="med-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule="med",
        base=med3,
        manipulated=Instance(
            [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]], 1.0
        ),
        target_set=(0,),
        expected_before=0.0, expected_after=2.0, expected_gain=2.0, bound=1.0,
        note="one planted voter turns a 1-of-3 column into a 2-of-4 tie and "
             "the median jumps from 0 to the midpoint",
    ))
    util5 = Instance([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 2, 1.0)
    put(Fixture(
        name="util-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule="util",
        base=util5,
        manipulated=Instance([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3, 1.0),
        target_set=(1,),
        expected_before=0.0, expected_after=3.0, expected_gain=3.0, bound=1.0,
        note="welfare maximization tips at the 3-3 tie; the even split hands "
             "the minority artist half of a six-user pool",
    ))
    half4 = Instance([[0.5, 0.5]] * 4, 1.0)
    put(Fixture(
        name="egal-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule="egal",
        base=half4,
        manipulated=Instance([[0.5, 0.5]] * 4 + [[1.0, 0.0]], 1.0),
        target_set=(0,),
        expected_before=2.0, expected_after=15.0 / 4.0, expected_gain=7.0 / 4.0,
        bound=1.0,
        note="the fairness objective drags the division toward the planted "
             "extremist, parking the split at (3/4, 1/4)",
    ))
    put(Fixture(
        name="indmkt-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule="indmkt",
        base=Instance([[1.0, 0.0, 0.0, 0.0, 0.0]] * 4, 1.0),
        manipulated=Instance(
            [[1.0, 0.0, 0.0, 0.0, 0.0]] * 4 + [[0.0, 0.25, 0.25, 0.25, 0.25]], 1.0
        ),
        target_set=(1, 2, 3, 4),
        expected_before=0.0, expected_after=2.5, expected_gain=2.5, bound=1.0,
        note="one account spread over four empty markets drags every phantom "
             "median up and takes half the pool",
    ))

    # --- coordinatewise portioning: bribery -------------------------------
    put(Fixture(
        name="max-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule="max",
        base=half7,
        manipulated=core.replace_user(half7, 6, [1.0, 0.0]),
        target_set=(0,),
        expected_before=3.5, expected_after=14.0 / 3.0, expected_gain=7.0 / 6.0,
        bound=1.0,
        note="rewriting a single row to all-in moves the column maximum and "
             "more than one unit of pool",
    ))
    half3 = Instance([[0.5, 0.5]] * 3, 1.0)
    put(Fixture(
        name="min-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule="min",
        base=half3,
        manipulated=core.replace_user(half3, 2, [1.0, 0.0]),
        target_set=(0,),
        expected_before=1.5, expected_after=3.0, expected_gain=1.5, bound=1.0,
        note="one rewritten row zeroes the rival's minimum and flips the pool",
    ))
    put(Fixture(
        name="geo-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule="geo",
        base=half3,
        manipulated=core.replace_user(half3, 2, [1.0, 0.0]),
        target_set=(0,),
        expected_before=1.5, expected_after=3.0, expected_gain=1.5, bound=1.0,
        note="same zero-annihilation as the minimum, via one rewritten row",
    ))
    put(Fixture(
        name="med-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule="med",
        base=med3,
        manipulated=core.replace_user(med3, 1, [1.0, 0.0]),
        target_set=(0,),
        expected_before=0.0, expected_after=3.0, expected_gain=3.0, bound=1.0,
        note="one flipped voter moves the median voter and the entire pool",
    ))
    put(Fixture(
        name="util-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule="util",
        base=util5,
        manipulated=core.replace_user(util5, 0, [0.0, 1.0]),
        target_set=(1,),
        expected_before=0.0, expected_after=5.0, expected_gain=5.0, bound=1.0,
        note="flipping one row flips the welfare-optimal corner from (1,0) "
             "to (0,1): the whole five-user pool changes hands",
    ))
    half5 = Instance([[0.5, 0.5]] * 5, 1.0)
    put(Fixture(
        name="egal-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule="egal",
        base=half5,
        manipulated=core.replace_user(half5, 4, [1.0, 0.0]),
        target_set=(0,),
        expected_before=2.5, expected_after=15.0 / 4.0, expected_gain=5.0 / 4.0,
        bound=1.0,
        note="one rewritten extremist drags the fairness point to (3/4, 1/4)",
    ))
    put(Fixture(
        name="indmkt-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule="indmkt",
        base=Instance([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]] * 5, 1.0),
        manipulated=core.replace_user(
            Instance([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]] * 5, 1.0),
            4,
            [0.0, 0.2, 0.2, 0.2, 0.2, 0.2],
        ),
        target_set=(1, 2, 3, 4, 5),
        expected_before=0.0, expected_after=25.0 / 9.0, expected_gain=25.0 / 9.0,
        bound=1.0,
        note="one row spread across five empty markets lifts five phantom "
             "medians at once",
    ))

    # --- coordinatewise portioning: sybil ---------------------------------
    put(Fixture(
        name="max-sybil",
        axiom=AxiomId.SYBIL_PROOF,
        rule="max",
        base=Instance([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], 1.0),
        manipulated=Instance([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 1.0),
        cstar=(0,),
        expected_before=1.5, expected_after=2.0, expected_gain=0.5,
        note="giving each fan their own sybil keeps every column maximum at "
             "one, so the family collects a share per identity",
    ))
    pair_base = Instance([[1 / 3, 0.0, 2 / 3], [1 / 3, 2 / 3, 0.0]], 1.0)
    put(Fixture(
        name="min-sybil",
        axiom=AxiomId.SYBIL_PROOF,
        rule="min",
        base=pair_base,
        manipulated=Instance([[1 / 3, 0.0, 2 / 3], [1 / 3, 1 / 3, 1 / 3]], 1.0),
        cstar=(0,),
        expected_before=0.0, expected_after=1.0, expected_gain=1.0,
        note="redistributing one user's mass removes the zero that pinned "
             "both family columns' minima",
    ))
    put(Fixture(
        name="geo-sybil",
        axiom=AxiomId.SYBIL_PROOF,
        rule="geo",
        base=pair_base,
        manipulated=Instance([[1 / 3, 0.0, 2 / 3], [1 / 3, 1 / 3, 1 / 3]], 1.0),
        cstar=(0,),
        expected_before=0.0, expected_after=4.0 - 2.0 * math.sqrt(2.0),
        expected_gain=4.0 - 2.0 * math.sqrt(2.0),
        note="clearing a single zero resurrects one family column's "
             "geometric mean",
    ))
    put(Fixture(
        name="med-sybil",
        axiom=AxiomId.SYBIL_PROOF,
        rule="med",
        base=Instance([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]], 1.0),
        manipulated=Instance([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]], 1.0),
        cstar=(1,),
        expected_before=1.5, expected_after=0.0, expected_gain=1.5,
        note="splitting column 0 into columns 0 and 2 scatters its "
             "supporters so each sybil's median collapses to zero; equality "
             "fails in the losing direction",
    ))
    put(Fixture(
        name="util-sybil",
        axiom=AxiomId.SYBIL_PROOF,
        rule="util",
        base=Instance(np.eye(3), 1.0),
        manipulated=Instance(
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], 1.0
        ),
        cstar=(0,),
        expected_before=2.0, expected_after=3.0, expected_gain=1.0,
        note="two users splitting attention across the family raise its "
             "marginal welfare above the loner's",
    ))
    put(Fixture(
        name="egal-sybil",
        axiom=AxiomId.SYBIL_PROOF,
        rule="egal",
        base=Instance(
            [[1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], 1.0
        ),
        manipulated=Instance(
            [[1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 1.0
        ),
        cstar=(0,),
        expected_before=2.5, expected_after=3.0, expected_gain=0.5,
        note="polarizing the family's fans forces the fairness point onto "
             "the family columns entirely",
    ))
    put(Fixture(
        name="indmkt-sybil",
        axiom=AxiomId.SYBIL_PROOF,
        rule="indmkt",
        base=Instance([[1.0, 0.0]] * 4 + [[0.0, 1.0]], 1.0),
        manipulated=Instance(
            [[1.0, 0.0, 0.0, 0.0, 0.0]] * 4 + [[0.0, 0.25, 0.25, 0.25, 0.25]], 1.0
        ),
        cstar=(0,),
        expected_before=1.0, expected_after=2.5, expected_gain=1.5,
        note="four sybil markets each collect a phantom median instead of one",
    ))

    # --- handcrafted two-artist rules --------------------------------------
    thin = Instance(np.tile([0.01, 0.99], (39, 1)), 1.0)
    put(Fixture(
        name="minority-floor-fraud",
        axiom=AxiomId.FRAUD_PROOF,
        rule=minority_floor,
        base=thin,
        manipulated=Instance(np.tile([0.01, 0.99], (40, 1)), 1.0),
        target_set=(0,),
        expected_before=2.0, expected_after=4.0, expected_gain=2.0, bound=1.0,
        note="the floor is a step function of the user count, so one added "
             "account jumps it by two",
    ))
    lean = Instance([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 2, 0.5)
    put(Fixture(
        name="approval-majority-bribery",
        axiom=AxiomId.BRIBERY_PROOF,
        rule=approval_majority(0.25),
        base=lean,
        manipulated=core.replace_user(lean, 2, [0.0, 1.0]),
        target_set=(1,),
        expected_before=5.0 / 8.0, expected_after=15.0 / 8.0,
        expected_gain=10.0 / 8.0, bound=1.0,
        note="one flipped row swings the approval majority and the whole "
             "(1+eps) bonus changes sides",
    ))

    return fx


# ---------------------------------------------------------------------------
# handcrafted rules


def _require_two_artists(weights: np.ndarray) -> None:
    if weights.shape[-1] != 2:
        raise DomainError(f"rule is defined for exactly 2 artists, got {weights.shape[-1]}")


def minority_floor(weights: np.ndarray, alpha: float) -> np.ndarray:
    """Per-user proportional payments with a floor for the trailing artist.

    When both artists clear the threshold ``2 * floor(budget / 20)`` the rule
    is plain per-user proportional. Otherwise the trailing artist receives
    the smaller of its approval count and the threshold, the leader the rest.
    A single rewritten row moves each side by at most one, but the threshold
    is a step function of the user count, so planted accounts can jump it.
    """
    _require_two_artists(weights)
    p = batch_payments(RuleId.USER_PROP, weights, alpha)
    budget = alpha * weights.shape[-2]
    beta = 2.0 * math.floor(budget / 20.0 + 1e-12)
    # the trailing artist, the first of two equal payments
    trailing = np.arange(2) == np.argmin(p, axis=-1)[..., None]
    approvals = (weights > 0).sum(axis=-2).astype(float)
    low = np.minimum((approvals * trailing).sum(axis=-1, keepdims=True), beta)
    floored = np.where(trailing, low, budget - low)
    return np.where(p.min(axis=-1, keepdims=True) >= beta - 1e-12, p, floored)


def approval_majority(eps: float = 0.25):
    """Build the approval-count rule with majority bonus ``eps``.

    Once the budget reaches ``2 * (1 + eps)`` the artist approved by more
    users is assigned ``(budget + 1 + eps) / 2`` and the other
    ``(budget - 1 - eps) / 2``; ties and small budgets split evenly. The
    assignment is then clamped so no artist exceeds its own approval count
    or leaves the other less than ``budget - approvals``. Adding one user
    moves every quantity by less than one, but a single rewritten row can
    swing the majority and with it the whole bonus.
    """

    def rule(weights: np.ndarray, alpha: float) -> np.ndarray:
        _require_two_artists(weights)
        if not 0.0 < eps < 1.0 - alpha:
            raise BadAlphaError(f"needs 0 < eps < 1 - alpha; got eps={eps}, alpha={alpha}")
        budget = alpha * weights.shape[-2]
        a = (weights > 0).sum(axis=-2).astype(float)
        other = a[..., ::-1]
        lead = np.where(a > other, (budget + 1.0 + eps) / 2.0, (budget - 1.0 - eps) / 2.0)
        even = (a == other) | (budget < 2.0 * (1.0 + eps) - 1e-12)
        psi = np.where(even, budget / 2.0, lead)
        return np.maximum(np.minimum(psi, a), budget - other)

    rule.__name__ = f"approval_majority(eps={eps:g})"
    return rule


def pathological_rules() -> dict:
    """The two handcrafted two-artist rules used to validate the checkers.

    ``minority-floor`` resists single-row rewrites but not planted accounts;
    ``approval-majority`` (built with eps=1/4) resists planted accounts but
    not rewrites.
    """
    return {
        "minority-floor": minority_floor,
        "approval-majority": approval_majority(0.25),
    }
