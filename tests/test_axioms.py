"""Verifiers, the fixture library, pathological rules, and the random suites."""

import hashlib
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instances, make
from streamshare import (
    MAIN_RULES,
    MARGIN_TOL,
    PORTIONING_RULES,
    SUITE_GRID,
    AxiomId,
    BadAlphaError,
    DimensionError,
    GainReport,
    InstanceError,
    NegativeWeightError,
    PortioningId,
    RuleId,
    ViolationWitness,
    ZeroRowError,
    add_user,
    axioms,
    evaluate,
    fixtures,
    pps,
    pathological_rules,
    replace_user,
    run_suite,
    search_bribery,
    search_fraud,
    user_prop,
    validate,
    verify_fixture,
    witness_line,
)
from streamshare.axioms import (
    SUITE_AXIOMS,
    VERIFIERS,
    _bribes,
    _candidates,
    _score,
    candidate_profiles,
    AxiomCheckError,
    NoRowsChangedError,
    NotAnExtensionError,
    PremiseError,
    random_instance,
    rule_name,
    verify_anonymity,
    verify_bribery_pair,
    verify_click_fraud,
    verify_engagement_monotone,
    verify_fraud_pair,
    verify_neutrality,
    verify_no_free_ridership,
    verify_pigou_dalton,
    verify_strong_sybil,
    verify_sybil_pair,
    verify_user_addition_monotone,
)
from streamshare.core import first_max
from streamshare.fixtures import DomainError

DEFAULT_TOL = 1e-9
KERNEL_RULES = MAIN_RULES + PORTIONING_RULES


# ---------------------------------------------------------------------------
# witness plumbing


def _any_instance():
    return make([[1.0, 1.0]])


def test_witness_rejects_noise_floor_margin():
    inst = _any_instance()
    with pytest.raises(ValueError):
        ViolationWitness(
            AxiomId.FRAUD_PROOF, "globalprop", inst, inst, (0,),
            gain=1.0 + 1e-9, bound=1.0,
        )


@pytest.mark.parametrize("gain, bound", [(np.nan, 1.0), (3.0, np.nan)])
def test_witness_rejects_nan(gain, bound):
    inst = _any_instance()
    with pytest.raises(ValueError):
        ViolationWitness(
            AxiomId.FRAUD_PROOF, "globalprop", inst, inst, (0,),
            gain=gain, bound=bound,
        )


def test_witness_line_format():
    inst = _any_instance()
    w = ViolationWitness(
        AxiomId.FRAUD_PROOF, "globalprop", inst, inst, (1, 0),
        gain=3.0, bound=1.0, source="seed:4/trial:7",
    )
    line = witness_line(w)
    assert line == (
        "axiom=FraudProof rule=globalprop gain=3 bound=1 margin=2 "
        "target={1,0} source=seed:4/trial:7"
    ), line


# ---------------------------------------------------------------------------
# pair verifiers and their premise guards


def test_fraud_pair_gain():
    base = make([[1, 0]] * 5)
    manipulated = add_user(base, [0, 5])
    report = verify_fraud_pair("globalprop", base, manipulated, (1,))
    assert abs(report.gain - 3.0) < 1e-12
    assert report.bound == 1.0
    assert report.violation


def test_fraud_pair_premises():
    base = make([[1, 0]] * 5)
    with pytest.raises(NotAnExtensionError):
        verify_fraud_pair("globalprop", base, base, (1,))  # nothing added
    edited = make([[2, 0]] + [[1, 0]] * 4 + [[0, 5]])
    with pytest.raises(NotAnExtensionError):
        verify_fraud_pair("globalprop", base, edited, (1,))
    other_alpha = make([[1, 0]] * 6, alpha=0.5)
    with pytest.raises(NotAnExtensionError):
        verify_fraud_pair("globalprop", base, other_alpha, (1,))
    wider = make([[1, 0, 0]] * 6)
    with pytest.raises(NotAnExtensionError):
        verify_fraud_pair("globalprop", base, wider, (1,))


def test_bribery_pair_counts_changed_rows():
    base = make([[1, 0]] * 5)
    bribed = make([[1, 5]] + [[1, 0]] * 4)
    report = verify_bribery_pair("globalprop", base, bribed, (1,))
    assert report.bound == 1.0
    with pytest.raises(NoRowsChangedError):
        verify_bribery_pair("globalprop", base, base, (1,))
    with pytest.raises(PremiseError):
        verify_bribery_pair("globalprop", base, make([[1, 0]] * 4), (1,))


def test_click_fraud_is_single_row_only():
    base = make([[1, 0]] * 5)
    two_changed = make([[1, 5], [1, 5]] + [[1, 0]] * 3)
    with pytest.raises(PremiseError):
        verify_click_fraud("globalprop", base, two_changed)
    bribed = make([[1, 5]] + [[1, 0]] * 4)
    report = verify_click_fraud("globalprop", base, bribed)
    # artist 1 goes from 0 to 5/6 of budget 5
    assert abs(report.gain - 2.5) < 1e-12
    assert report.violation


def test_sybil_split_gain_usereq():
    # artist 1 splits into itself and a new column 2, each taking half
    report = verify_sybil_pair("usereq", make([[1, 1]]), make([[1, 0.5, 0.5]]), (0,))
    assert abs(report.gain - 1 / 6) < 1e-12
    assert report.violation


@pytest.mark.parametrize("rule", ["globalprop", "userprop", "scaledup"])
@given(inst=instances(max_users=5), frac=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_sybil_split_invariance(rule, inst, frac):
    """The three stream-weighted rules cannot be moved by splitting."""
    col = inst.weights[:, 0]
    w = np.column_stack([inst.weights, col * (1 - frac)])
    w[:, 0] = col * frac
    cstar = range(1, inst.n_artists)
    report = verify_sybil_pair(rule, inst, make(w, inst.alpha), cstar)
    assert report.gain <= 1e-9, f"{rule} moved by {report.gain}"


def test_sybil_pair_premises():
    base = make([[1, 0, 2], [1, 2, 0]])
    with pytest.raises(PremiseError):  # user count changed
        verify_sybil_pair("globalprop", base, make([[1, 0, 2]]), (0,))
    touched = make([[2, 0, 2], [1, 2, 0]])
    with pytest.raises(PremiseError):  # cstar column edited
        verify_sybil_pair("globalprop", base, touched, (0,))
    lost_mass = make([[1, 0, 1], [1, 2, 0]])
    with pytest.raises(PremiseError):  # user 0's mass off cstar shrank
        verify_sybil_pair("globalprop", base, lost_mass, (0,))
    with pytest.raises(PremiseError):
        verify_sybil_pair("globalprop", base, base, (7,))


def test_sybil_pair_merge_is_free_for_globalprop():
    base = make([[1, 0, 2], [1, 2, 0]])
    merged = make([[1, 2, 0], [1, 2, 0]])  # user 0 merges artists 1 and 2
    report = verify_sybil_pair("globalprop", base, merged, (0,))
    assert report.gain <= 1e-12


def test_strong_sybil_premises_and_fixture_arithmetic():
    base = make([[1, 0], [0, 2]])
    manipulated = make([[0.5, 2], [0.5, 0]])
    report = verify_strong_sybil("userprop", base, manipulated, (0,))
    assert abs(report.gain - 0.2) < 1e-12, "group payment must move 1 -> 0.8"
    bad_total = make([[0.4, 2], [0.5, 0]])
    with pytest.raises(PremiseError):
        verify_strong_sybil("userprop", base, bad_total, (0,))
    bad_mass = make([[0.5, 2], [0.5, 1]])
    with pytest.raises(PremiseError):
        verify_strong_sybil("userprop", base, bad_mass, (0,))


def test_engagement_monotone_premises():
    base = make([[1, 1], [1, 1]])
    lowered = make([[0.5, 1], [1, 1]])
    with pytest.raises(PremiseError):
        verify_engagement_monotone("globalprop", base, lowered, 0)
    side_boost = make([[2, 2], [1, 1]])
    with pytest.raises(PremiseError):
        verify_engagement_monotone("globalprop", base, side_boost, 0)
    with pytest.raises(PremiseError):
        verify_engagement_monotone("globalprop", base, base, 9)


_PAIR_BASE = make([[2, 1], [1, 2]])

#: The six verifiers of a before/after pair of _PAIR_BASE: the trailing
#: arguments, the premise error class, the counts the pair must keep, a
#: manipulation meeting every premise, and one breaking the axiom's own.
_PAIR_VERIFIERS = {
    "fraud": (verify_fraud_pair, ((1,),), NotAnExtensionError, ("artists",),
              [[2, 1], [1, 2], [0, 3]], [[2, 1], [1, 1], [0, 3]]),
    "bribery": (verify_bribery_pair, ((1,),), PremiseError, ("users", "artists"),
                [[2, 1], [0, 3]], None),
    "click-fraud": (verify_click_fraud, (), PremiseError, ("users", "artists"),
                    [[2, 1], [0, 3]], [[1, 1], [0, 3]]),
    "sybil": (verify_sybil_pair, ((0,),), PremiseError, ("users",),
              [[2, 0.5, 0.5], [1, 2, 0]], [[1, 0.5, 0.5], [1, 2, 0]]),
    "strong-sybil": (verify_strong_sybil, ((0,),), PremiseError, ("users",),
                     [[1, 3], [2, 0]], [[1, 3], [1, 0]]),
    "engagement-monotone": (verify_engagement_monotone, (0,), PremiseError,
                            ("users", "artists"), [[3, 1], [1, 1]], [[1, 1], [1, 1]]),
}


def _poisoned(weights):
    """``weights`` with a negative last entry: an instance validate refuses."""
    w = np.array(weights, dtype=float)
    w[-1, -1] = -1.0
    return w


@pytest.mark.parametrize("invalid", [False, True], ids=["valid", "invalid"])
@pytest.mark.parametrize("name", sorted(_PAIR_VERIFIERS))
def test_pair_verifiers_check_the_shared_premises_first(name, invalid):
    """Every pair verifier validates the base, then raises its own premise
    class for a changed alpha or a changed kept count, before it validates
    the manipulated instance."""
    verifier, extra, error, kept, good, _ = _PAIR_VERIFIERS[name]
    verifier("userprop", _PAIR_BASE, make(good), *extra)  # every premise holds
    good = np.asarray(good, dtype=float)
    broken = {"alpha": make(good, alpha=0.5)}
    if "users" in kept:
        broken["users"] = make(np.vstack([good, good[-1:]]))
    if "artists" in kept:
        broken["artists"] = make(np.hstack([good, good[:, -1:]]))
    for what, manipulated in broken.items():
        if invalid:
            manipulated = make(_poisoned(manipulated.weights), manipulated.alpha)
        with pytest.raises(AxiomCheckError) as info:
            verifier("userprop", _PAIR_BASE, manipulated, *extra)
        assert type(info.value) is error, (what, info.value)
        with pytest.raises(NegativeWeightError):  # the base is validated first
            verifier("userprop", make(_poisoned(_PAIR_BASE.weights)), manipulated, *extra)


@pytest.mark.parametrize("name", sorted(n for n, v in _PAIR_VERIFIERS.items() if v[5]))
def test_pair_verifiers_check_their_own_premises_before_validation(name):
    """A pair breaking the axiom's own premise raises the premise class,
    also when its manipulated instance is invalid as well."""
    verifier, extra, error, _, _, own = _PAIR_VERIFIERS[name]
    for weights in (own, _poisoned(own)):
        with pytest.raises(AxiomCheckError) as info:
            verifier("userprop", _PAIR_BASE, make(weights), *extra)
        assert type(info.value) is error, info.value


@pytest.mark.parametrize("rule", MAIN_RULES)
@given(inst=instances(max_users=5))
@settings(max_examples=30, deadline=None)
def test_engagement_monotone_holds_for_main_rules(rule, inst):
    rng = np.random.default_rng(5)
    jstar = 0
    w = inst.weights.copy()
    w[:, jstar] += rng.exponential(1.0, size=inst.n_users)
    assert not verify_engagement_monotone(rule, inst, make(w, inst.alpha), jstar).violation


def test_pigou_dalton_premise_guards():
    inst = make([[4, 1], [1, 1]])
    with pytest.raises(PremiseError):
        verify_pigou_dalton("globalprop", inst, (0, 0, 0, 1.0))  # same user
    with pytest.raises(PremiseError):
        verify_pigou_dalton("globalprop", inst, (0, 1, 0, 0.0))  # nothing moved
    with pytest.raises(PremiseError):
        verify_pigou_dalton("globalprop", inst, (0, 1, 0, 4.0))  # donor emptied
    with pytest.raises(PremiseError):
        verify_pigou_dalton("globalprop", inst, (0, 1, 0, 2.5))  # overshoot
    with pytest.raises(PremiseError):
        verify_pigou_dalton("globalprop", inst, (0, 1, 5, 1.0))  # bad artist


def test_pigou_dalton_verdicts_on_the_known_split():
    # moving one unit of artist 1 from the engaged user to the other drops
    # the artist's userprop payment 2/3 -> 3/5; column totals are untouched
    # so globalprop cannot move
    inst = make([[1, 2], [9, 0]])
    transfer = (0, 1, 1, 1.0)
    assert not verify_pigou_dalton("globalprop", inst, transfer).violation
    assert verify_pigou_dalton("userprop", inst, transfer).violation


@pytest.mark.parametrize("rule", ["usereq", "userprop"])
def test_pigou_dalton_suite_builds_each_transfer_once(monkeypatch, rule):
    """Each trial that draws a transfer builds its manipulated instance in
    exactly one _pd_apply call, and scores it as verify_pigou_dalton does."""
    pd_apply, applied = axioms._pd_apply, []

    def counted_apply(instance, transfer):
        out = pd_apply(instance, transfer)
        applied.append((instance, transfer, out[0]))
        return out

    trial, trials = axioms._TRIALS[AxiomId.PIGOU_DALTON], []

    def recorded_trial(rule, inst, rng):
        trials.append(trial(rule, inst, rng))
        return trials[-1]

    monkeypatch.setattr(axioms, "_pd_apply", counted_apply)
    monkeypatch.setitem(axioms._TRIALS, AxiomId.PIGOU_DALTON, recorded_trial)
    result = run_suite(AxiomId.PIGOU_DALTON, rule, trials=100, seed=0)
    monkeypatch.undo()
    scored = [out for out in trials if out is not None]
    assert len(scored) > 50
    assert len(applied) == len(scored)
    for (inst, transfer, built), (gain, bound, base, manipulated, *_) in zip(applied, scored):
        assert base is inst and manipulated is built
        report = verify_pigou_dalton(rule, inst, transfer)
        assert (gain, bound) == (report.gain, report.bound)
    assert (result.witness is None) == (rule == "usereq")


@given(inst=instances(max_users=5))
@settings(max_examples=40, deadline=None)
def test_user_addition_monotone_for_userprop(inst):
    """Adding a user adds a nonnegative contribution on top of everyone
    else's, so user-local rules can only go up."""
    profile = np.ones(inst.n_artists)
    assert not verify_user_addition_monotone("userprop", inst, profile).violation
    assert not verify_user_addition_monotone("usereq", inst, profile).violation


def test_user_addition_monotone_fails_for_globalprop():
    inst = make([[1, 0]] * 5)
    assert verify_user_addition_monotone("globalprop", inst, (0, 5)).violation


@pytest.mark.parametrize("rule", MAIN_RULES)
def test_no_free_ridership_reports_dead_artists(rule):
    inst = make([[1, 0], [2, 0]])
    report = verify_no_free_ridership(rule, inst)
    assert report.gain == 0.0
    assert not report.violation


def test_anonymity_and_neutrality():
    inst = make([[3, 1], [0, 1], [2, 2]], alpha=0.6)
    assert not verify_anonymity("scaledup", inst, [2, 0, 1]).violation
    assert not verify_neutrality("scaledup", inst, [1, 0]).violation
    with pytest.raises(PremiseError):
        verify_anonymity("scaledup", inst, [0, 0, 1])
    with pytest.raises(PremiseError):
        verify_neutrality("scaledup", inst, [0, 1, 2])


def test_verifier_table_covers_every_axiom():
    assert set(VERIFIERS) == set(AxiomId)


def test_every_verifier_returns_a_gain_report():
    for verify in VERIFIERS.values():
        assert inspect.signature(verify).return_annotation in (GainReport, "GainReport")


def test_reports_carry_both_sides():
    base = make([[1, 1], [1, 1]])
    em = verify_engagement_monotone("globalprop", base, make([[2, 1], [1, 1]]), 0)
    assert (em.before, em.bound) == (1.0, 0.0) and em.after == pytest.approx(1.2)
    assert em.gain == em.before - em.after and not em.violation
    ones = make([[1, 0]] * 5)
    click = verify_click_fraud("globalprop", ones, replace_user(ones, 4, [1, 5]))
    assert (click.before, click.after, click.gain, click.bound) == (5.0, 2.5, 2.5, 1.0)

    def even(weights, alpha):
        n, m = weights.shape[-2:]
        return np.full(weights.shape[:-2] + (m,), alpha * n / m)

    nfr = verify_no_free_ridership(even, make([[1, 0], [2, 0]]))
    assert (nfr.before, nfr.after, nfr.gain) == (0.0, 1.0, 1.0) and nfr.violation


def test_anonymity_catches_a_small_absolute_leak():
    """A row swap that moves artist 0's payment by 1e-5 is a violation,
    however large the payment is relative to the leak."""

    def leaky(weights, alpha):
        p = evaluate("userprop", make(weights, alpha))
        return p + np.array([1e-5, -1e-5]) if weights[0, 0] == 0 else p

    report = verify_anonymity(leaky, make([[3, 1], [0, 1], [2, 2]]), [1, 0, 2])
    assert report.violation
    assert report.after - report.before == pytest.approx(1e-5, abs=1e-12)


def test_neutrality_catches_a_small_absolute_leak():
    def leaky(weights, alpha):
        p = evaluate("userprop", make(weights, alpha))
        return p + np.array([1e-5, -1e-5]) if weights[0, 0] < weights[0, 1] else p

    report = verify_neutrality(leaky, make([[3, 1], [0, 1], [2, 2]]), [1, 0])
    assert report.violation
    assert report.gain == pytest.approx(1e-5, abs=1e-12)


_INVALID = make([[3, 1], [0, 1], [2, 2]])


@pytest.mark.parametrize(
    "check, error",
    [
        (lambda: verify_fraud_pair("userprop", _INVALID, add_user(_INVALID, [0, 0]), (0,)),
         ZeroRowError),
        (lambda: verify_fraud_pair("globalprop", _INVALID, add_user(_INVALID, [-3, 0]), (1,)),
         NegativeWeightError),
        (lambda: verify_bribery_pair(
            "userprop", _INVALID, replace_user(_INVALID, 0, [0, 0]), (1,)), ZeroRowError),
        (lambda: verify_bribery_pair(
            "globalprop", _INVALID, replace_user(_INVALID, 0, [-3, 0]), (1,)),
         NegativeWeightError),
        (lambda: verify_click_fraud("userprop", _INVALID, replace_user(_INVALID, 0, [0, 0])),
         ZeroRowError),
        (lambda: verify_user_addition_monotone("userprop", _INVALID, [0, 0]), ZeroRowError),
        (lambda: verify_user_addition_monotone("globalprop", _INVALID, [-1, 0]),
         NegativeWeightError),
        (lambda: verify_strong_sybil(
            "userprop", make([[1, 0], [0, 2]]), make([[0, 0], [1, 2]]), (0,)), ZeroRowError),
        (lambda: verify_strong_sybil(
            "userprop", make([[1, 0], [0, 2]]), make([[1, 3], [0, -1]]), (0,)),
         NegativeWeightError),
        (lambda: verify_engagement_monotone(
            "userprop", make([[0, 1], [1, 1]]), make([[0, 0], [1, 1]]), 0), ZeroRowError),
        (lambda: verify_engagement_monotone(
            "userprop", make([[1, 1], [1, 1]]), make([[2, -1], [1, 1]]), 0),
         NegativeWeightError),
    ] + [
        (lambda rule=rule: verify_sybil_pair(
            rule, make([[1, 1], [1, 0]]), make([[1, 3, -2], [1, 0, 0]]), (0,)),
         NegativeWeightError)
        for rule in MAIN_RULES
    ],
    ids=["fraud-zero", "fraud-negative", "bribery-zero", "bribery-negative",
         "clickfraud-zero", "uam-zero", "uam-negative", "strongsybil-zero",
         "strongsybil-negative", "em-zero", "em-negative"]
    + [f"sybil-negative-{rule.value}" for rule in MAIN_RULES],
)
def test_invalid_manipulated_rows_raise(check, error):
    """An all-zero or negative manipulated row is an input error, not a
    verdict: unchecked it gives NaN gains or spurious violations."""
    with pytest.raises(error):
        check()


_ZERO_ROW = make([[1, 1], [0, 0]])
_NAN = make([[np.nan, 1], [1, 0]])
_INF = make([[np.inf, 1], [1, 1]])
_EMPTY = make(np.zeros((0, 2)))
_NAN_SYBIL = make([[1, 1, np.nan], [1, 2, 0]])
_INVALID_INPUTS = [
    (verify_fraud_pair, (_NAN, add_user(_NAN, [1, 1]), (0,)), _NAN),
    (verify_bribery_pair, (_ZERO_ROW, make([[1, 1], [0, 3]]), (1,)), _ZERO_ROW),
    (verify_click_fraud, (_ZERO_ROW, make([[1, 1], [0, 3]])), _ZERO_ROW),
    (verify_sybil_pair, (make([[1, 1], [1, 2]]), _NAN_SYBIL, (0,)), _NAN_SYBIL),
    (verify_strong_sybil, (_ZERO_ROW, make([[0.5, 0], [0.5, 1]]), (0,)), _ZERO_ROW),
    (verify_engagement_monotone, (_ZERO_ROW, make([[2, 1], [1, 0]]), 0), _ZERO_ROW),
    (verify_pigou_dalton, (_ZERO_ROW, (0, 1, 0, 0.25)), _ZERO_ROW),
    (verify_user_addition_monotone, (_EMPTY, [1, 1]), _EMPTY),
    (verify_no_free_ridership, (_INF,), _INF),
    (verify_anonymity, (_INF, [1, 0]), _INF),
    (verify_neutrality, (_INF, [1, 0]), _INF),
]


@pytest.mark.parametrize(
    "verify, args, bad", _INVALID_INPUTS, ids=[case[0].__name__ for case in _INVALID_INPUTS]
)
def test_every_verifier_validates_what_it_evaluates(verify, args, bad):
    """An invalid base or manipulated instance raises what core.validate
    says of it, before any premise check and instead of a NaN verdict."""
    with pytest.raises(InstanceError) as expected:
        validate(bad)
    with pytest.raises(InstanceError) as got:
        verify("userprop", *args)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# fixture library


ALL_FIXTURES = fixtures()


def test_fixture_census():
    assert len(ALL_FIXTURES) == 30
    by_axiom = {}
    for f in ALL_FIXTURES.values():
        by_axiom[f.axiom] = by_axiom.get(f.axiom, 0) + 1
    assert by_axiom[AxiomId.FRAUD_PROOF] == 9
    assert by_axiom[AxiomId.BRIBERY_PROOF] == 9
    assert by_axiom[AxiomId.SYBIL_PROOF] == 8
    assert by_axiom[AxiomId.STRONG_SYBIL_PROOF] == 1
    assert by_axiom[AxiomId.PIGOU_DALTON] == 2
    assert by_axiom[AxiomId.USER_ADDITION_MONOTONE] == 1


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_fixture_certifies(name):
    fixture = ALL_FIXTURES[name]
    tol = DEFAULT_TOL
    report = verify_fixture(fixture)
    assert report.violation is fixture.expect_violation, name
    assert abs(report.gain - fixture.expected_gain) <= tol, (
        f"{name}: gain {report.gain} expected {fixture.expected_gain}"
    )
    assert report.bound == fixture.bound
    if fixture.expected_before is not None:
        before, after = report.before, report.after
        assert abs(before - fixture.expected_before) <= tol, f"{name} before {before}"
        assert abs(after - fixture.expected_after) <= tol, f"{name} after {after}"


def test_fixture_bases_are_valid():
    for name, fixture in ALL_FIXTURES.items():
        validate(fixture.base)
        if fixture.manipulated is not None:
            validate(fixture.manipulated)


# ---------------------------------------------------------------------------
# pathological rules


def test_pathological_rules_require_two_artists():
    for rule in pathological_rules().values():
        with pytest.raises(DomainError):
            rule(make([[1, 1, 1]]).weights, 1.0)
        with pytest.raises(DomainError):
            rule(np.ones((4, 2, 3)), 0.5)


def test_minority_floor_is_userprop_on_small_platforms():
    rule = pathological_rules()["minority-floor"]
    inst = make([[3, 1], [0, 1]], alpha=0.9)  # budget 1.8, threshold 0
    assert np.allclose(rule(inst.weights, inst.alpha), user_prop(inst), atol=1e-12)


@given(inst=instances(max_users=60, max_artists=2))
@settings(max_examples=50, deadline=None)
def test_minority_floor_budget_balance(inst):
    if inst.n_artists != 2:
        return
    p = pathological_rules()["minority-floor"](inst.weights, inst.alpha)
    assert abs(p.sum() - inst.budget) < 1e-9


def test_approval_majority_eps_domain():
    rule = pathological_rules()["approval-majority"]
    with pytest.raises(BadAlphaError):
        rule(make([[1, 1]], alpha=0.9).weights, 0.9)  # needs eps < 1 - alpha


def test_approval_majority_majority_bonus():
    rule = pathological_rules()["approval-majority"]
    inst = make([[1, 0]] * 3 + [[0, 1]] * 2, alpha=0.5)  # budget 2.5
    p = rule(inst.weights, inst.alpha)
    assert abs(p[0] - 15 / 8) < 1e-12 and abs(p[1] - 5 / 8) < 1e-12, p
    assert abs(p.sum() - inst.budget) < 1e-12


def _minority_floor_one(inst):
    """minority_floor on one instance, written out branch by branch, with
    the branch it took."""
    p = user_prop(inst)
    beta = 2.0 * np.floor(inst.budget / 20.0 + 1e-12)
    if p.min() >= beta - 1e-12:
        return p, "userprop"
    j = int(np.argmin(p))
    low = min(float(np.count_nonzero(inst.weights[:, j] > 0)), beta)
    out = np.empty(2)
    out[j], out[1 - j] = low, inst.budget - low
    return out, "floor"


def _approval_majority_one(inst, eps=0.25):
    """approval_majority(eps) on one instance, written out branch by branch,
    with the branch it took."""
    budget = inst.budget
    a = (inst.weights > 0).sum(axis=0).astype(float)
    if budget < 2.0 * (1.0 + eps) - 1e-12 or a[0] == a[1]:
        psi, branch = np.array([budget / 2.0, budget / 2.0]), "even"
    else:
        lead = int(np.argmax(a))
        psi, branch = np.empty(2), "bonus"
        psi[lead] = (budget + 1.0 + eps) / 2.0
        psi[1 - lead] = (budget - 1.0 - eps) / 2.0
    return np.maximum(np.minimum(psi, a), budget - a[::-1]), branch


@pytest.mark.parametrize(
    "name, oracle, users, alphas",
    [
        # the floor threshold steps from 0 to 2 at budget 20 (0.5 x 40)
        ("minority-floor", _minority_floor_one, (1, 60), (0.3, 0.5, 1.0)),
        # the majority bonus starts at budget 2.5 (0.5 x 5) with eps = 1/4
        ("approval-majority", _approval_majority_one, (1, 12), (0.2, 0.5, 0.74)),
    ],
)
def test_fixture_rule_stacks_equal_a_per_matrix_loop(name, oracle, users, alphas):
    """A fixture rule on a (K, n, 2) stack equals the branch-by-branch rule
    on each matrix alone, bit for bit, on draws with tied approval counts,
    tied payments and budgets on both sides of the rule's threshold."""
    rule = pathological_rules()[name]
    rng = np.random.default_rng(41)
    branches = set()
    for n in range(users[0], users[1] + 1):
        for alpha in alphas:
            # integer weights tie often; artist 0 is thinned from almost
            # every row to none, so the minority floor binds
            w = rng.integers(0, 3, size=(24, n, 2)).astype(float)
            w[:, :, 0] *= rng.random((24, n)) < np.linspace(0.05, 1.0, 24)[:, None]
            w[:, :, 1] += w.sum(axis=2) == 0
            w[0] = rng.integers(1, 3, size=(n, 1))  # tied approvals and payments
            w[1, :, 0] = np.arange(n) % 2
            w[1, :, 1] = 1.0 - w[1, :, 0]  # approvals tie on even n
            stacked = rule(w, alpha)
            assert stacked.shape == (24, 2)
            for k in range(w.shape[0]):
                one, branch = oracle(make(w[k], alpha))
                assert np.array_equal(stacked[k], one), (name, n, alpha, k)
                assert np.array_equal(rule(w[k], alpha), one), (name, n, alpha, k)
                branches.add(branch)
    assert len(branches) == 2, branches


@pytest.mark.parametrize(
    "rule", [pathological_rules()["minority-floor"], pathological_rules()["approval-majority"]]
)
def test_callable_rules_are_accepted_wherever_rule_ids_are(rule):
    base = make([[1, 0]] * 3 + [[0, 1]] * 2, alpha=0.5)
    p = evaluate(rule, base)
    assert np.array_equal(p, rule(base.weights, base.alpha))
    streams = base.artist_totals()
    assert np.array_equal(pps(rule, base).values, p / streams)
    report = verify_fraud_pair(rule, base, add_user(base, [1, 0]), (0,))
    after = rule(add_user(base, [1, 0]).weights, base.alpha)
    assert (report.before, report.after) == (p[0], after[0])
    assert report.rule == rule_name(rule)


# ---------------------------------------------------------------------------
# randomized searches and suites


def test_search_fraud_finds_the_planted_violation():
    base = make([[1, 0]] * 5)
    witness = search_fraud("globalprop", base, budget=300, seed=0)
    assert witness is not None
    assert witness.margin >= 2.0 - 1e-9, witness.margin
    assert witness.source == "seed:0"


def test_search_fraud_comes_back_empty_for_userprop():
    base = make([[1, 0]] * 5)
    assert search_fraud("userprop", base, budget=300, seed=0) is None


def test_search_bribery_finds_the_planted_violation():
    base = make([[1, 0]] * 5)
    witness = search_bribery("globalprop", base, budget=300, seed=0)
    assert witness is not None
    assert witness.margin >= 1.5 - 1e-9, witness.margin


def test_search_bribery_comes_back_empty_for_scaledup():
    base = make([[1, 0]] * 5)
    assert search_bribery("scaledup", base, budget=300, seed=0) is None


def test_search_fraud_zero_row_candidate_raises_for_scaledup():
    base = make([[1, 2], [3, 1]], alpha=0.5)
    with pytest.raises(ZeroRowError) as err:
        search_fraud("scaledup", base, profiles=[[1.0, 0.0], [0.0, 0.0]])
    assert err.value.user == 2


SEARCHES = (search_fraud, search_bribery)


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("rule", ["userprop", "usereq"])
def test_search_rejects_a_base_with_a_zero_row(search, rule):
    # both rules divide by the zero row's total; unchecked, that made a NaN witness
    with pytest.raises(ZeroRowError) as err:
        search(rule, make([[0, 0], [1, 1]]), budget=50)
    assert err.value.user == 0


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize(
    "rows, alpha, error",
    [
        ([[1, np.nan], [1, 1]], 1.0, InstanceError),
        ([[1, np.inf], [1, 1]], 1.0, InstanceError),
        ([[1, 0], [1, -1]], 1.0, NegativeWeightError),
        ([[1, 0], [1, 1]], 3.0, BadAlphaError),
    ],
)
@pytest.mark.filterwarnings("error")  # the base is checked before any candidate is drawn
def test_search_rejects_an_invalid_base(search, rows, alpha, error):
    with pytest.raises(error):
        search("globalprop", make(rows, alpha), budget=50)


def test_search_fraud_negative_candidate_raises_what_the_verifier_raises():
    base = make([[1, 0], [1, 0], [0, 1]])
    with pytest.raises(NegativeWeightError) as err:
        search_fraud("userprop", base, profiles=[[6.0, -1.0]])
    assert (err.value.user, err.value.artist) == (3, 1)
    with pytest.raises(NegativeWeightError) as err:
        verify_fraud_pair("userprop", base, add_user(base, [6.0, -1.0]), (0,))
    assert (err.value.user, err.value.artist) == (3, 1)


@pytest.mark.parametrize("row", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0], [2.0, -1.0]])
def test_search_bribery_names_the_victim_of_an_invalid_candidate(row):
    base = make([[1, 0], [1, 0], [0, 1]])
    with pytest.raises(InstanceError) as searched:
        search_bribery("userprop", base, profiles=[[5.0, 5.0], row], victims=[1])
    with pytest.raises(InstanceError) as verified:
        verify_bribery_pair("userprop", base, replace_user(base, 1, row), (0,))
    assert type(searched.value) is type(verified.value)
    assert str(searched.value) == str(verified.value)


def test_batched_scores_equal_the_per_row_path():
    """Every rule scores a trial's candidates in one stack call. The per-row
    oracle below builds each manipulated instance with add_user or
    replace_user and evaluates it alone. Both must agree exactly, not
    approximately, and where the per-row path raises, the stack call raises
    the same error."""
    raised = 0
    for t in range(200):
        rng = np.random.default_rng([17, t])
        inst = random_instance(rng)
        rows = candidate_profiles(inst, rng)
        victims, bribe_rows = _bribes(inst, rows, [int(rng.integers(inst.n_users))])
        # the per-row oracle is slow for portioning rules: every third trial,
        # and for egal every twentieth
        for rule in KERNEL_RULES:
            if rule in PORTIONING_RULES and t % (20 if rule is PortioningId.EGAL else 3):
                continue
            for cand, who in ((rows, None), (bribe_rows, victims)):
                manipulated = [
                    add_user(inst, row) if who is None else replace_user(inst, int(who[k]), row)
                    for k, row in enumerate(cand)
                ]
                try:
                    base_pay = evaluate(rule, inst)
                    looped = np.array([evaluate(rule, m) for m in manipulated]) - base_pay
                except Exception as exc:
                    with pytest.raises(type(exc)) as info:
                        _score(rule, inst, _candidates(inst, cand, who))
                    assert str(info.value) == str(exc), (t, rule)
                    raised += 1
                    continue
                stack = _candidates(inst, cand, who)
                gain, winner, tset, deltas = _score(rule, inst, stack)
                assert np.array_equal(deltas, looped), (t, rule)
                gains = np.array([row[row > 0].sum() if (row > 0).any() else row.max()
                                  for row in looped])
                best = first_max(gains - 1.0)
                assert gain == gains[best], (t, rule)
                assert np.array_equal(winner.weights, manipulated[best].weights)
                assert winner.alpha == inst.alpha
                assert not np.shares_memory(winner.weights, stack)
                pos = np.flatnonzero(looped[best] > 0)
                assert tset == (tuple(pos) if pos.size else
                                (int(np.argmax(looped[best])),)), (t, rule)
    assert raised > 0  # min and geo degenerate on sparse draws


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("budget", [0, -2, 1.5, "5"])
def test_search_rejects_a_budget_that_is_not_a_whole_count(search, budget):
    with pytest.raises(ValueError, match="budget"):
        search("globalprop", make([[1, 0]] * 5), budget=budget)


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("seed", [-1, 1.5])
def test_search_rejects_a_seed_that_is_not_a_whole_count(search, seed):
    with pytest.raises(ValueError, match="seed"):
        search("globalprop", make([[1, 0]] * 5), seed=seed)


@pytest.mark.parametrize("seed", [-1, 1.5, False])
def test_run_suite_rejects_a_seed_that_is_not_a_whole_count(seed):
    with pytest.raises(ValueError, match="seed"):
        run_suite(AxiomId.FRAUD_PROOF, "userprop", trials=3, seed=seed)


def test_verifiers_reject_target_artists_that_are_not_whole():
    base = make([[1, 0, 0], [0, 1, 1]])
    # int() would have scored artist 2 here
    with pytest.raises(DimensionError, match="whole"):
        verify_fraud_pair("userprop", base, add_user(base, [0, 0, 5]), (2.9,))
    with pytest.raises(DimensionError, match="whole"):
        verify_bribery_pair("userprop", base, replace_user(base, 0, [0, 0, 5]), (2.0,))


_SQUARE = make([[1, 1, 0], [0, 1, 1], [1, 0, 1]])


@pytest.mark.parametrize("call, error", [
    # int() would have kept artist 0 untouched
    (lambda: verify_sybil_pair("userprop", _SQUARE, _SQUARE, (0.5,)), PremiseError),
    (lambda: verify_strong_sybil("userprop", _SQUARE, _SQUARE, (np.float64(1.0),)),
     PremiseError),
    (lambda: verify_engagement_monotone("userprop", _SQUARE, _SQUARE, 1.5), PremiseError),
    # int() would have moved weight from user 1
    (lambda: verify_pigou_dalton("userprop", _SQUARE, (1.7, 0, 0, 0.5)), PremiseError),
    (lambda: verify_pigou_dalton("userprop", _SQUARE, (0, "1", 0, 0.5)), PremiseError),
    (lambda: verify_pigou_dalton("userprop", _SQUARE, (0, 1, 0.0, 0.5)), PremiseError),
    # int() would have read the identity and reported a pass
    (lambda: verify_anonymity("userprop", _SQUARE, [0.5, 1.2, 2.9]), PremiseError),
    (lambda: verify_neutrality("userprop", _SQUARE, [2, 1, 0.0]), PremiseError),
    # int() would have bribed user 1
    (lambda: search_bribery("userprop", _SQUARE, victims=[1.5]), DimensionError),
], ids=["cstar", "strong-cstar", "jstar", "donor", "recipient", "artist",
        "user-permutation", "artist-permutation", "victims"])
def test_verifiers_and_searches_reject_indices_that_are_not_whole(call, error):
    with pytest.raises(error, match="whole"):
        call()


def test_search_keeps_the_earliest_of_tied_candidates():
    # by symmetry both fake users gain exactly 1.5 for their own artist
    base = make([[1, 0], [0, 1]])
    rows = [[0.0, 4.0], [4.0, 0.0]]
    assert search_fraud("globalprop", base, profiles=rows).target_set == (1,)
    assert search_fraud("globalprop", base, profiles=rows[::-1]).target_set == (0,)
    assert search_fraud("globalprop", base, profiles=[[1.0, 1.0]] + rows, budget=1) is None


def test_search_bribery_skips_unchanged_rows_outside_the_budget():
    base = make([[1, 0], [0, 1], [1, 1]])
    # the first bribe of victim 0 leaves its row as it is; it must neither
    # count against the budget nor end the search
    rows = [[1.0, 0.0], [0.0, 9.0]]
    witness = search_bribery("globalprop", base, profiles=rows, budget=1, victims=[0])
    assert witness is not None
    assert witness.manipulated.weights[0].tolist() == [0.0, 9.0]


def test_candidate_profiles_rows():
    base = make([[1, 0, 2], [0, 3, 1]])
    draws = [candidate_profiles(base, np.random.default_rng(s)) for s in range(8)]
    mags = [1.0, 2.0, 4.0, 6.0]
    points = [c * e for c in mags for e in np.eye(3)]
    for rows in draws:
        assert np.array_equal(rows[: len(points)], points)
    random_rows = np.vstack([rows[len(points):] for rows in draws])
    assert random_rows.shape == (512, 3)
    assert np.all(random_rows >= 0) and np.all(random_rows.sum(axis=1) > 0)
    assert np.all(random_rows.sum(axis=1) <= 4.0 * 6.0 + 1e-12)
    kept = (random_rows > 0).mean()
    assert 0.65 < kept < 0.8, kept


@pytest.mark.parametrize(
    "axiom, rule, max_margin, clickfraud_margin",
    [
        (AxiomId.FRAUD_PROOF, "userprop", -0.0014614251385393073, None),
        (AxiomId.FRAUD_PROOF, "usereq", -0.0014614251385394184, None),
        (AxiomId.FRAUD_PROOF, "scaledup", 4.440892098500626e-16, None),
        (AxiomId.BRIBERY_PROOF, "userprop", -0.002790575680923557, -0.00279057568092389),
        (AxiomId.BRIBERY_PROOF, "usereq", -0.0027905756809242233, -0.0027905756809242233),
        (AxiomId.BRIBERY_PROOF, "scaledup", 4.440892098500626e-16, 2.220446049250313e-16),
    ],
)
def test_search_suite_results_are_pinned(axiom, rule, max_margin, clickfraud_margin):
    result = run_suite(axiom, rule, trials=300, seed=5)
    assert abs(result.max_margin - max_margin) <= 1e-15
    if clickfraud_margin is None:
        assert result.clickfraud_margin is None
    else:
        assert abs(result.clickfraud_margin - clickfraud_margin) <= 1e-15
    assert result.witness is None


#: max_margin of the fourteen verify cells of SUITE_GRID over 200 trials,
#: seed 3. The margins are float dust, so a change to the bits of any
#: verifier's report shows here.
_VERIFY_PINS = {
    (AxiomId.SYBIL_PROOF, "userprop"): 4.440892098500626e-16,
    (AxiomId.SYBIL_PROOF, "scaledup"): 8.881784197001252e-16,
    (AxiomId.SYBIL_PROOF, "globalprop"): 8.881784197001252e-16,
    (AxiomId.STRONG_SYBIL_PROOF, "globalprop"): 1.3322676295501878e-15,
    (AxiomId.NO_FREE_RIDERSHIP, "globalprop"): 0.0,
    (AxiomId.NO_FREE_RIDERSHIP, "userprop"): 0.0,
    (AxiomId.NO_FREE_RIDERSHIP, "usereq"): 0.0,
    (AxiomId.NO_FREE_RIDERSHIP, "scaledup"): 0.0,
    (AxiomId.ENGAGEMENT_MONOTONE, "globalprop"): 0.0,
    (AxiomId.ENGAGEMENT_MONOTONE, "userprop"): 0.0,
    (AxiomId.ENGAGEMENT_MONOTONE, "usereq"): 0.0,
    (AxiomId.ENGAGEMENT_MONOTONE, "scaledup"): 0.0,
    (AxiomId.PIGOU_DALTON, "globalprop"): 2.220446049250313e-16,
    (AxiomId.PIGOU_DALTON, "usereq"): 0.0,
}


@pytest.mark.parametrize("axiom, rule", list(_VERIFY_PINS))
def test_verify_suite_results_are_pinned(axiom, rule):
    result = run_suite(axiom, rule, trials=200, seed=3)
    assert repr(result.max_margin) == repr(_VERIFY_PINS[axiom, rule])
    assert result.witness is None and result.clickfraud_margin is None


def test_verify_suite_pins_cover_the_verify_cells():
    searched = (AxiomId.FRAUD_PROOF, AxiomId.BRIBERY_PROOF)
    assert set(_VERIFY_PINS) == {(a, r) for a, r in SUITE_GRID if a not in searched}


def test_wide_search_witnesses_pass_their_verifiers():
    """Instances with 8 to 14 artists, wider than the suites draw: every
    witness the searches return is a violation its verifier confirms."""
    checked = 0
    for t in range(200):
        rng = np.random.default_rng([23, t])
        inst = random_instance(rng, n_users=(2, 6), n_artists=(8, 14))
        for rule in MAIN_RULES:
            for search, verify in ((search_fraud, verify_fraud_pair),
                                   (search_bribery, verify_bribery_pair)):
                witness = search(rule, inst, seed=t)
                if witness is None:
                    continue
                report = verify(rule, inst, witness.manipulated, witness.target_set)
                assert report.violation, (t, rule, search.__name__)
                assert abs(report.gain - witness.gain) <= 1e-12, (t, rule, search.__name__)
                checked += 1
    assert checked > 100, checked


def test_suite_grid_is_the_documented_twenty():
    assert len(SUITE_GRID) == 20
    assert (AxiomId.STRONG_SYBIL_PROOF, "globalprop") in SUITE_GRID
    assert (AxiomId.PIGOU_DALTON, "userprop") not in SUITE_GRID
    rules = {r for _, r in SUITE_GRID}
    assert rules == {"globalprop", "userprop", "usereq", "scaledup"}


def test_run_suite_passes_a_clean_cell():
    result = run_suite(AxiomId.FRAUD_PROOF, "userprop", trials=150, seed=0)
    assert result.passed
    assert result.witness is None
    assert result.max_margin <= MARGIN_TOL


def test_run_suite_finds_a_dirty_cell():
    result = run_suite(AxiomId.SYBIL_PROOF, "usereq", trials=400, seed=0)
    assert result.witness is not None
    assert not result.passed
    assert result.witness.source.startswith("seed:0/trial:")


@pytest.mark.parametrize(
    "rule, max_margin",
    [
        ("userprop", 8.881784197001252e-16),
        ("scaledup", 8.881784197001252e-16),
        ("globalprop", 8.881784197001252e-16),
        ("usereq", 1.836922084130527),
    ],
)
def test_sybil_suite_results_are_pinned(rule, max_margin):
    result = run_suite(AxiomId.SYBIL_PROOF, rule, trials=2000, seed=7)
    assert abs(result.max_margin - max_margin) <= 1e-15
    if rule == "usereq":
        assert abs(result.witness.margin - max_margin) <= 1e-15
        assert result.witness.target_set == (0,)
        assert result.witness.source == "seed:7/trial:1370"
    else:
        assert result.witness is None


#: The seven suites whose witness lines the CI smoke test pins, at its seed
#: and trial counts: the witness line, a sha256 of the manipulated weights
#: and, for bribery, the click-fraud margin.
_WITNESS_PINS = [
    (AxiomId.FRAUD_PROOF, "util", 40,
     "axiom=FraudProof rule=util gain=2.92556741831 bound=1 margin=1.92556741831 "
     "target={1} source=seed:3/trial:33",
     "fd38f1bff7415d98796f4e60c6d3df99cea673b66da1edec6675eaa90a55c072", None),
    (AxiomId.FRAUD_PROOF, "egal", 10,
     "axiom=FraudProof rule=egal gain=2.11547540376 bound=1 margin=1.11547540376 "
     "target={0,3,4} source=seed:3/trial:9",
     "0c5a61f046a32b3d8f5271149d1415ef674999361988f9eac2eace4312f8b08f", None),
    (AxiomId.BRIBERY_PROOF, "egal", 10,
     "axiom=BriberyProof rule=egal gain=1.62056131285 bound=1 margin=0.620561312846 "
     "target={2,4} source=seed:3/trial:9",
     "3733407dd71f02b83fff7ce58d24fbc1072dc6e56d72c3b490467745237b6cbf", 0.4919311932869168),
    (AxiomId.BRIBERY_PROOF, "globalprop", 50,
     "axiom=BriberyProof rule=globalprop gain=3.86774307657 bound=1 margin=2.86774307657 "
     "target={1} source=seed:3/trial:37",
     "6e503ea7c35384087e282264b7c3ec04b52a4a6195c6d72a45a0ac9ffb25da53", 2.867743076570185),
    (AxiomId.PIGOU_DALTON, "userprop", 50,
     "axiom=PigouDalton rule=userprop gain=0.0224696555881 bound=0 margin=0.0224696555881 "
     "target={0} source=seed:3/trial:3",
     "aa0693fbb7fec29763e08bd89b78761168020009626c0da3f23d32d18c704475", None),
    (AxiomId.STRONG_SYBIL_PROOF, "userprop", 50,
     "axiom=StrongSybilProof rule=userprop gain=1.2773872882 bound=0 margin=1.2773872882 "
     "target={1} source=seed:3/trial:2",
     "1bd6992ee15cac299fb0ac3ebeb5a25e344a4ee6dcccc5dc9c9851ffb812f66e", None),
    (AxiomId.SYBIL_PROOF, "usereq", 50,
     "axiom=SybilProof rule=usereq gain=1.17395158225 bound=0 margin=1.17395158225 "
     "target={3} source=seed:3/trial:21",
     "048c6fd2448a26623a90e2e363e36139bd3eba6137ef2b5c74154e24a07a7a1b", None),
]


@pytest.mark.parametrize("axiom, rule, trials, line, weights_sha256, clickfraud_margin",
                         _WITNESS_PINS, ids=[f"{a.value}-{r}" for a, r, *_ in _WITNESS_PINS])
def test_suite_witnesses_are_pinned(axiom, rule, trials, line, weights_sha256,
                                    clickfraud_margin):
    result = run_suite(axiom, rule, trials=trials, seed=3)
    assert witness_line(result.witness) == line
    digest = hashlib.sha256(result.witness.manipulated.weights.tobytes()).hexdigest()
    assert digest == weights_sha256
    assert result.clickfraud_margin == clickfraud_margin


def test_run_suite_strong_sybil_search_breaks_user_rules():
    for rule in ("userprop", "usereq", "scaledup"):
        result = run_suite(AxiomId.STRONG_SYBIL_PROOF, rule, trials=100, seed=0)
        assert result.witness is not None, rule


def test_run_suite_is_deterministic():
    a = run_suite(AxiomId.BRIBERY_PROOF, "usereq", trials=60, seed=3)
    b = run_suite(AxiomId.BRIBERY_PROOF, "usereq", trials=60, seed=3)
    assert a.max_margin == b.max_margin
    assert a.clickfraud_margin == b.clickfraud_margin


def test_run_suite_rejects_unknown_axiom():
    with pytest.raises(KeyError):
        run_suite(AxiomId.ANONYMITY, "userprop", trials=5)


@pytest.mark.parametrize("trials", [0, -3, 2.5, "3", True])
def test_run_suite_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials"):
        run_suite(AxiomId.FRAUD_PROOF, "userprop", trials=trials)


def test_run_suite_with_custom_generator():
    gen = lambda rng: make([[1, 0]] * 5)
    result = run_suite(AxiomId.FRAUD_PROOF, "globalprop", trials=30, seed=0, instance_gen=gen)
    assert result.witness is not None
    assert result.witness.margin >= 2.0 - 1e-9


@pytest.mark.parametrize("rows, error", [([[1, 0], [0, 0]], ZeroRowError),
                                         ([[1, -1], [0, 2]], NegativeWeightError)],
                         ids=["zero-row", "negative"])
@pytest.mark.parametrize("axiom", sorted(SUITE_AXIOMS), ids=lambda axiom: axiom.value)
def test_run_suite_validates_custom_instances(axiom, rows, error):
    """Every suite refuses an invalid base from ``instance_gen`` with
    validate's error, including the fraud and bribery trials, which would
    otherwise score it (passing with a margin of -inf, or crashing)."""
    with pytest.raises(error):
        run_suite(axiom, "userprop", trials=5, instance_gen=lambda rng: make(rows))


def test_random_instance_is_always_valid():
    from streamshare import validate

    for t in range(200):
        validate(random_instance(np.random.default_rng([9, t])))
