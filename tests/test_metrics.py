"""Pay-per-stream, maximum envy, and the unbounded-envy family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import instances, make
from streamshare import (
    DegenerateEnvyError,
    RuleId,
    envy_bound_demo,
    max_envy,
    pps,
    relative_pps,
    topk_bottomk_relative_pps,
    validate,
)


def _example():
    return make([[3, 1], [0, 1]])


def test_pps_worked_example():
    vec = pps("userprop", _example())
    assert np.allclose(vec.values, [0.25, 0.625], atol=1e-12)
    assert vec.defined_mask.all()
    base = pps("globalprop", _example())
    assert np.allclose(base.values, [0.4, 0.4], atol=1e-12)


def test_pps_masks_streamless_artists():
    vec = pps("userprop", make([[2, 0]]))
    assert vec.defined_mask.tolist() == [True, False]
    assert np.isnan(vec.values[1])
    assert vec.defined_values.tolist() == [0.5]


def test_relative_pps_worked_example():
    assert np.allclose(relative_pps("userprop", _example()), [0.625, 1.5625], atol=1e-12)


def test_globalprop_relative_is_flat_ones():
    inst = _example()
    assert np.allclose(relative_pps("globalprop", inst), [1, 1], atol=1e-12)


def test_max_envy_worked_example():
    assert abs(max_envy("userprop", _example()) - 2.5) < 1e-12
    assert abs(max_envy("globalprop", _example()) - 1.0) < 1e-12


def test_max_envy_infinite_when_someone_earns_nothing():
    # min-portioning pays artist 0 nothing despite three streams
    assert max_envy("min", _example()) == math.inf


@given(instances(positive=True))
@settings(max_examples=100, deadline=None)
def test_globalprop_envy_is_always_one(inst):
    assert abs(max_envy("globalprop", inst) - 1.0) <= 1e-9


def test_topk_bottomk_worked_example():
    top, bottom = topk_bottomk_relative_pps("userprop", _example(), 1)
    assert abs(top - 1.5625) < 1e-12
    assert abs(bottom - 0.625) < 1e-12
    top2, bottom2 = topk_bottomk_relative_pps("userprop", _example(), 2)
    assert abs(top2 - bottom2) < 1e-12, "k = all artists makes both sides the mean"


def test_topk_bottomk_k_range():
    with pytest.raises(ValueError):
        topk_bottomk_relative_pps("userprop", _example(), 0)
    with pytest.raises(ValueError):
        topk_bottomk_relative_pps("userprop", _example(), 3)
    with pytest.raises(ValueError, match="whole"):
        topk_bottomk_relative_pps("userprop", _example(), 1.5)
    # masked artists do not count toward the k range
    inst = make([[2, 0]])
    with pytest.raises(ValueError):
        topk_bottomk_relative_pps("userprop", inst, 2)


def test_degenerate_envy_error_is_a_value_error():
    assert issubclass(DegenerateEnvyError, ValueError)


@pytest.mark.parametrize("target", [1, 10, 100])
def test_envy_demo_matches_the_closed_form(target):
    report = envy_bound_demo(target)
    validate(report.instance)
    expected = 3.0 * (1.0 + 12.0 * target**2) / (4.0 + 4.0 * target)
    assert abs(report.max_envy - expected) < 1e-9, report.max_envy
    assert report.max_envy > target
    assert report.instance.n_users == 4
    assert abs(max_envy(RuleId.USER_PROP, report.instance) - report.max_envy) < 1e-12


def test_envy_demo_rejects_small_targets():
    with pytest.raises(ValueError):
        envy_bound_demo(0.5)
