"""Verifiers, the fixture library, pathological rules, and the random suites."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instances, make
from streamshare import (
    MAIN_RULES,
    MARGIN_TOL,
    SUITE_GRID,
    AxiomId,
    BadAlphaError,
    GainReport,
    InstanceError,
    NegativeWeightError,
    RuleId,
    ViolationWitness,
    ZeroRowError,
    add_user,
    evaluate,
    fixtures,
    pathological_rules,
    replace_user,
    run_suite,
    search_bribery,
    search_fraud,
    user_prop,
    verify_fixture,
    witness_line,
)
from streamshare.axioms import (
    VERIFIERS,
    _bribes,
    _score,
    candidate_profiles,
    NoRowsChangedError,
    NotAnExtensionError,
    PremiseError,
    random_instance,
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
from streamshare.fixtures import DomainError

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# witness plumbing


def _any_instance():
    return make([[1.0, 1.0]])


def test_witness_rejects_inconsistent_margin():
    inst = _any_instance()
    with pytest.raises(ValueError):
        ViolationWitness(
            AxiomId.FRAUD_PROOF, "globalprop", inst, inst, (0,),
            gain=3.0, bound=1.0, margin=1.0,
        )


def test_witness_rejects_noise_floor_margin():
    inst = _any_instance()
    with pytest.raises(ValueError):
        ViolationWitness(
            AxiomId.FRAUD_PROOF, "globalprop", inst, inst, (0,),
            gain=1.0 + 1e-9, bound=1.0, margin=1e-9,
        )


@pytest.mark.parametrize(
    "gain, bound, margin",
    [(np.nan, 1.0, np.nan), (3.0, 1.0, np.nan), (np.nan, 1.0, 2.0), (3.0, np.nan, 2.0)],
)
def test_witness_rejects_nan(gain, bound, margin):
    inst = _any_instance()
    with pytest.raises(ValueError):
        ViolationWitness(
            AxiomId.FRAUD_PROOF, "globalprop", inst, inst, (0,),
            gain=gain, bound=bound, margin=margin,
        )


def test_witness_line_format():
    inst = _any_instance()
    w = ViolationWitness(
        AxiomId.FRAUD_PROOF, "globalprop", inst, inst, (1, 0),
        gain=3.0, bound=1.0, margin=2.0, source="seed:4/trial:7",
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

    def even(inst):
        return np.full(inst.n_artists, inst.budget / inst.n_artists)

    nfr = verify_no_free_ridership(even, make([[1, 0], [2, 0]]))
    assert (nfr.before, nfr.after, nfr.gain) == (0.0, 1.0, 1.0) and nfr.violation


def test_anonymity_catches_a_small_absolute_leak():
    """A row swap that moves artist 0's payment by 1e-5 is a violation,
    however large the payment is relative to the leak."""

    def leaky(inst):
        p = user_prop(inst)
        return p + np.array([1e-5, -1e-5]) if inst.weights[0, 0] == 0 else p

    report = verify_anonymity(leaky, make([[3, 1], [0, 1], [2, 2]]), [1, 0, 2])
    assert report.violation
    assert report.after - report.before == pytest.approx(1e-5, abs=1e-12)


def test_neutrality_catches_a_small_absolute_leak():
    def leaky(inst):
        p = user_prop(inst)
        return p + np.array([1e-5, -1e-5]) if inst.weights[0, 0] < inst.weights[0, 1] else p

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
    from streamshare import validate

    for name, fixture in ALL_FIXTURES.items():
        validate(fixture.base)
        if fixture.manipulated is not None:
            validate(fixture.manipulated)


# ---------------------------------------------------------------------------
# pathological rules


def test_pathological_rules_require_two_artists():
    for rule in pathological_rules().values():
        with pytest.raises(DomainError):
            rule(make([[1, 1, 1]]))


def test_minority_floor_is_userprop_on_small_platforms():
    rule = pathological_rules()["minority-floor"]
    inst = make([[3, 1], [0, 1]], alpha=0.9)  # budget 1.8, threshold 0
    assert np.allclose(rule(inst), user_prop(inst), atol=1e-12)


@given(inst=instances(max_users=60, max_artists=2))
@settings(max_examples=50, deadline=None)
def test_minority_floor_budget_balance(inst):
    if inst.n_artists != 2:
        return
    p = pathological_rules()["minority-floor"](inst)
    assert abs(p.sum() - inst.budget) < 1e-9


def test_approval_majority_eps_domain():
    rule = pathological_rules()["approval-majority"]
    with pytest.raises(BadAlphaError):
        rule(make([[1, 1]], alpha=0.9))  # needs eps < 1 - alpha


def test_approval_majority_majority_bonus():
    rule = pathological_rules()["approval-majority"]
    inst = make([[1, 0]] * 3 + [[0, 1]] * 2, alpha=0.5)  # budget 2.5
    p = rule(inst)
    assert abs(p[0] - 15 / 8) < 1e-12 and abs(p[1] - 5 / 8) < 1e-12, p
    assert abs(p.sum() - inst.budget) < 1e-12


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
    """The main rules score a trial's candidates in one kernel call; the same
    rule wrapped as a plain callable evaluates one manipulated instance per
    candidate. Both must agree exactly, not approximately."""
    for t in range(200):
        rng = np.random.default_rng([17, t])
        inst = random_instance(rng)
        rows = candidate_profiles(inst, rng)
        victims, bribe_rows = _bribes(inst, rows, [int(rng.integers(inst.n_users))])
        for rule in MAIN_RULES:
            per_row = lambda instance, rule=rule: evaluate(rule, instance)
            for cand, who in ((rows, None), (bribe_rows, victims)):
                batched = _score(rule, inst, cand, who)
                looped = _score(per_row, inst, cand, who)
                assert np.array_equal(batched.deltas, looped.deltas), (t, rule)
                assert np.array_equal(batched.gains, looped.gains), (t, rule)
                assert batched.best == looped.best, (t, rule)
                assert batched.swing() == looped.swing(), (t, rule)
                for k in range(cand.shape[0]):
                    assert batched.target_set(k) == looped.target_set(k), (t, rule, k)


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
    rows = candidate_profiles(base, np.random.default_rng(0), n_random=500)
    mags = [1.0, 2.0, 4.0, 6.0]
    points = [c * e for c in mags for e in np.eye(3)]
    assert np.array_equal(rows[: len(points)], points)
    random_rows = rows[len(points):]
    assert random_rows.shape == (500, 3)
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


@pytest.mark.parametrize("trials", [0, -3])
def test_run_suite_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials"):
        run_suite(AxiomId.FRAUD_PROOF, "userprop", trials=trials)


def test_run_suite_with_custom_generator():
    gen = lambda rng: make([[1, 0]] * 5)
    result = run_suite(AxiomId.FRAUD_PROOF, "globalprop", trials=30, seed=0, instance_gen=gen)
    assert result.witness is not None
    assert result.witness.margin >= 2.0 - 1e-9


def test_random_instance_is_always_valid():
    from streamshare import validate

    for t in range(200):
        validate(random_instance(np.random.default_rng([9, t])))
