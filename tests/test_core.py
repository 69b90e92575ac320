"""Input contract and payment-vector helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instances, make
from streamshare import (
    BadAlphaError,
    DimensionError,
    Instance,
    InstanceError,
    NegativeWeightError,
    ZeroRowError,
    add_user,
    finalize_payments,
    replace_user,
    subset_payment,
    validate,
    with_alpha,
)
from streamshare.core import whole


def test_instance_basic_shape():
    inst = make([[3, 1], [0, 1]], alpha=0.5)
    assert inst.n_users == 2
    assert inst.n_artists == 2
    assert inst.budget == 1.0
    assert np.allclose(inst.user_totals(), [4, 1])
    assert np.allclose(inst.artist_totals(), [3, 2])


def test_weights_are_frozen():
    inst = make([[1, 2]])
    with pytest.raises(ValueError):
        inst.weights[0, 0] = 5.0


def test_non_2d_rejected_at_construction():
    with pytest.raises(DimensionError):
        Instance(np.ones(3))
    with pytest.raises(DimensionError):
        Instance(np.ones((2, 2, 2)))


@pytest.mark.parametrize("alpha", [0.0, -0.3, 1.0 + 1e-9, 2.0])
def test_validate_rejects_bad_alpha(alpha):
    inst = make([[1.0, 1.0]], alpha=alpha)
    with pytest.raises(BadAlphaError):
        validate(inst)


def test_validate_rejects_negative_weight():
    inst = make([[1.0, -0.5], [1.0, 1.0]])
    with pytest.raises(NegativeWeightError) as err:
        validate(inst)
    assert err.value.user == 0 and err.value.artist == 1


def test_validate_rejects_zero_row():
    inst = make([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ZeroRowError) as err:
        validate(inst)
    assert err.value.user == 1


def test_validate_rejects_nonfinite():
    inst = make([[1.0, np.inf]])
    with pytest.raises(InstanceError):
        validate(inst)
    inst = make([[np.nan, 1.0]])
    with pytest.raises(InstanceError):
        validate(inst)


@pytest.mark.parametrize("rows", [
    [[np.nan, 1.0]], [[1.0, np.inf]], [[-np.inf, 1.0]], [[np.inf, -np.inf]],
    [[1e308, 1e308], [np.nan, 1.0]], [[1.0, 2.0], [1.0, -np.inf]],
], ids=["nan", "inf", "-inf", "inf and -inf", "overflow then nan", "-inf in the second row"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the row sums overflow or meet inf - inf
def test_validate_names_nonfinite_weights_before_the_rest(rows):
    """A non-finite weight is reported as such, ahead of a negative one or a
    bad alpha, also next to a finite row whose sum overflows."""
    with pytest.raises(InstanceError) as err:
        validate(make(rows, alpha=2.0))
    assert type(err.value) is InstanceError and str(err.value) == "weights must be finite"


@pytest.mark.parametrize("rows", [[[1e308, 1e308]], [[1.7976931348623157e308] * 3, [1.0, 0.0, 0.0]]])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_validate_accepts_finite_rows_whose_sum_overflows(rows):
    validate(make(rows))


def _frozen(w):
    w.setflags(write=False)
    return w


@pytest.mark.parametrize("weights", [
    np.ones((2, 3)),
    _frozen(np.ones((4, 3)))[1:3],
    _frozen(np.ones((2, 3), dtype=np.float32)),
    _frozen(np.ones((2, 3), dtype=">f8")),
], ids=["writable", "frozen view", "frozen float32", "frozen big-endian"])
def test_instance_copies_weights_it_cannot_own(weights):
    inst = Instance(weights)
    assert inst.weights is not weights and inst.weights.dtype == np.float64
    assert not inst.weights.flags.writeable and inst.weights.flags.owndata
    assert np.array_equal(inst.weights, np.ones((2, 3)))


def test_instance_copies_a_frozen_view_of_a_writable_base():
    base = np.ones((2, 2))
    view = _frozen(base[:])
    inst = Instance(view)
    base[0, 0] = 5.0
    assert inst.weights[0, 0] == 1.0


def test_instance_shares_a_frozen_matrix_it_can_own():
    weights = _frozen(np.ones((2, 3)))
    inst = Instance(weights, 0.5)
    assert inst.weights is weights
    out = with_alpha(inst, 0.2)
    assert out.weights is weights and not out.weights.flags.writeable
    with pytest.raises(ValueError):
        out.weights[0, 0] = 5.0


def test_validate_rejects_empty():
    with pytest.raises(DimensionError):
        validate(Instance(np.zeros((0, 3))))
    with pytest.raises(DimensionError):
        validate(Instance(np.zeros((3, 0))))


def test_validate_accepts_single_artist():
    validate(make([[2.0], [1.0]], alpha=1.0))


def test_finalize_clamps_dust():
    out = finalize_payments(np.array([1e-13, -1e-13, 0.5, 1e-11]))
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == 0.5
    assert out[3] == 1e-11, "values at or above the clamp threshold survive"


def test_subset_payment_dedups_and_sums():
    p = np.array([1.0, 2.0, 4.0])
    assert subset_payment(p, [2, 0, 2]) == 5.0
    assert subset_payment(p, []) == 0.0
    with pytest.raises(DimensionError):
        subset_payment(p, [3])
    with pytest.raises(DimensionError):
        subset_payment(p, [-1])


@pytest.mark.parametrize("bad", [0.9, 2.0, np.float64(1.0), "1", None, True])
def test_subset_payment_rejects_indices_that_are_not_whole(bad):
    p = np.array([1.0, 2.0, 4.0])
    with pytest.raises(DimensionError, match="whole"):
        subset_payment(p, [0, bad])
    assert subset_payment(p, [np.int64(2), 1]) == 6.0


def test_whole_names_the_range_it_checks():
    assert whole(np.int64(3), ValueError, "k", 1, 4) == 3
    with pytest.raises(DimensionError, match=r"^k must lie in \[1, 3\] and be whole, got 4$"):
        whole(4, DimensionError, "k", 1, 4)
    with pytest.raises(ValueError, match=r"^n must be >= 0 and be whole, got 2\.0$"):
        whole(2.0, ValueError, "n")
    for flag in (True, False, np.bool_(True)):  # as a float is, though operator.index takes a bool
        with pytest.raises(ValueError, match=rf"^n must be >= 0 and be whole, got {flag!r}$"):
            whole(flag, ValueError, "n")


def test_add_user():
    inst = make([[1, 2]], alpha=0.4)
    out = add_user(inst, [3, 4])
    assert out.n_users == 2
    assert np.allclose(out.weights[1], [3, 4])
    assert out.alpha == 0.4
    assert inst.n_users == 1, "original untouched"
    with pytest.raises(DimensionError):
        add_user(inst, [1, 2, 3])


def test_replace_user():
    inst = make([[1, 2], [3, 4]])
    out = replace_user(inst, 1, [9, 9])
    assert np.allclose(out.weights, [[1, 2], [9, 9]])
    assert np.allclose(inst.weights[1], [3, 4])
    with pytest.raises(DimensionError):
        replace_user(inst, 2, [0, 0])
    with pytest.raises(DimensionError, match="whole"):
        replace_user(inst, 1.5, [0, 0])
    with pytest.raises(DimensionError):
        replace_user(inst, 0, [1, 2, 3])


def test_with_alpha():
    inst = make([[1, 1]], alpha=0.9)
    out = with_alpha(inst, 0.2)
    assert out.alpha == 0.2
    assert out.weights is not None and np.allclose(out.weights, inst.weights)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_totals_are_the_sums_kept_read_only(inst):
    """Each total is bit-equal to the weights' sum, read-only, and the same
    array on every call, validated or not."""
    for totals, axis in ((inst.user_totals, 1), (inst.artist_totals, 0)):
        first = totals()
        assert first.tobytes() == inst.weights.sum(axis=axis).tobytes()
        assert not first.flags.writeable
        validate(inst)
        assert totals() is first
        with pytest.raises(ValueError):
            first[0] = 1.0


@given(instances())
@settings(max_examples=40, deadline=None)
def test_nonzero_view_is_np_nonzero_kept_read_only(inst):
    """The view found on first use is np.nonzero of the weights, row-major,
    read-only, and the same tuple on every call."""
    view = inst.nonzero()
    assert len(view) == 2
    for got, want in zip(view, np.nonzero(inst.weights)):
        assert np.array_equal(got, want) and not got.flags.writeable
    assert inst.nonzero() is view
    with pytest.raises(ValueError):
        view[0][...] = 0


def test_with_alpha_shares_what_the_weights_determine():
    """with_alpha hands on the totals and the nonzero view; an instance
    with another row, replaced or added, builds its own."""
    inst = make([[1.0, 0.0], [2.0, 3.0]], alpha=0.5)
    validate(inst)
    kept = (inst.user_totals(), inst.artist_totals(), inst.nonzero())
    out = with_alpha(inst, 0.25)
    validate(out)
    assert out.weights is inst.weights and out.alpha == 0.25
    assert all(a is b for a, b in zip((out.user_totals(), out.artist_totals(), out.nonzero()), kept))
    for other in (replace_user(inst, 0, [1.0, 0.0]), add_user(inst, [0.0, 1.0])):
        derived = (other.user_totals(), other.artist_totals(), other.nonzero())
        assert not any(a is b for a, b in zip(derived, kept))


@pytest.mark.parametrize("found_on", ["copy", "original"])
def test_a_fact_found_on_either_with_alpha_instance_serves_both(found_on):
    """An instance and its with_alpha copy share one record: a total, the
    nonzero view or a pass of validate first found on one is what the other
    reads, whichever of the two was made first."""
    inst = make([[1.0, 0.0], [2.0, 3.0]], alpha=0.5)
    out = with_alpha(inst, 0.25)
    first, other = (out, inst) if found_on == "copy" else (inst, out)
    validate(first)
    found = (first.user_totals(), first.artist_totals(), first.nonzero())
    assert all(a is b for a, b in zip((other.user_totals(), other.artist_totals(), other.nonzero()), found))
    assert other._facts.valid


@pytest.mark.parametrize("rows, alpha, error", [
    ([[1.0, -0.5], [1.0, 1.0]], 1.0, NegativeWeightError),
    ([[1.0, 1.0], [0.0, 0.0]], 1.0, ZeroRowError),
    ([[1.0, np.nan]], 1.0, InstanceError),
    ([[1.0, 1.0]], 1.5, BadAlphaError),
    (np.zeros((0, 2)), 1.0, DimensionError),
])
def test_validate_raises_on_every_call_of_an_invalid_instance(rows, alpha, error):
    inst = make(rows, alpha=alpha)
    for _ in range(3):
        with pytest.raises(error):
            validate(inst)


def test_a_passed_verdict_stays_with_its_instance():
    """A valid instance's derived instances carry no verdict of their own:
    one with a bad alpha, sharing the weights and the totals' values, still
    fails."""
    inst = make([[1.0, 2.0], [0.0, 3.0]], alpha=0.5)
    validate(inst)
    validate(inst)
    bad = with_alpha(inst, 1.5)
    assert bad.weights is inst.weights
    for _ in range(2):
        with pytest.raises(BadAlphaError):
            validate(bad)
    with pytest.raises(ZeroRowError):
        validate(replace_user(inst, 1, [0.0, 0.0]))
    validate(with_alpha(inst, 0.25))


@given(instances())
@settings(max_examples=80, deadline=None)
def test_random_instances_pass_validate(inst):
    validate(inst)


@given(instances(), st.lists(st.integers(0, 4), max_size=6))
@settings(max_examples=80, deadline=None)
def test_subset_payment_matches_manual_sum(inst, raw):
    idx = [a for a in raw if a < inst.n_artists]
    p = inst.artist_totals()
    expected = sum(p[a] for a in set(idx))
    got = subset_payment(p, idx)
    assert abs(got - expected) < 1e-12, f"{got} vs {expected} for {idx}"
