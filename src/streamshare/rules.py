"""Payment rules that divide subscription revenue among artists.

Four main rules:

* ``globalprop``: every stream is worth the same; artist j receives
  ``alpha * n * colsum_j / total``.
* ``userprop``: each user's ``alpha`` is divided in proportion to their own
  streaming weights.
* ``usereq``: each user's ``alpha`` is divided equally among the artists they
  stream at all.
* ``scaledup``: user-proportional with per-user influence ``min(gamma * S_i, 1)``
  where ``S_i`` is the user's total weight and ``gamma`` solves
  ``sum_i min(gamma * S_i, 1) = alpha * n``. Caps the sway of heavy streamers
  while keeping light users fully counted.

The eight portioning rules (see :mod:`streamshare.portioning`) are also
addressable through :func:`evaluate` so callers can treat all twelve uniformly.

Every rule takes a stack of weight matrices of shape (..., n, m), users on
axis -2 and artists on axis -1, and returns payments of shape (..., m).
A plain Python callable follows the same contract, ``rule(weights, alpha)
-> payments``, and is accepted wherever a rule id is.
:func:`batch_payments` is the one place a rule, id or callable, becomes
payments of a dense matrix: it scores a whole stack in one call, and
:func:`evaluate` sends a single (n, m) matrix through it, so batched and
single-instance payments agree bit for bit. The one exception is a main
rule on an instance built from its nonzeros
(:meth:`~streamshare.core.Instance.from_nonzeros`, as a loaded document
is): it is paid from the nonzeros, to the same bits, and no dense matrix
is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    BadAlphaError,
    DimensionError,
    Instance,
    ZeroRowError,
    finalize_payments,
)
from .portioning import PortioningId, stack_shares


class RuleId(str, Enum):
    GLOBAL_PROP = "globalprop"
    USER_PROP = "userprop"
    USER_EQ = "usereq"
    SCALED_USER_PROP = "scaledup"


MAIN_RULES = tuple(RuleId)
PORTIONING_RULES = tuple(PortioningId)
ALL_RULES = MAIN_RULES + PORTIONING_RULES


def coerce_rule(name):
    """Map a rule name (string or id) to its enum member; a callable rule
    passes through unchanged."""
    if isinstance(name, (RuleId, PortioningId)) or callable(name):
        return name
    text = str(name).lower()
    for member in ALL_RULES:
        if member.value == text:
            return member
    raise KeyError(f"unknown rule {name!r}; choose from {[m.value for m in ALL_RULES]}")


def _global_prop(w: np.ndarray, alpha: float) -> np.ndarray:
    col = w.sum(axis=-2)
    # a single matrix keeps a scalar total, the cheaper broadcast
    total = col.sum(axis=-1, keepdims=col.ndim > 1)
    return col * (alpha * w.shape[-2] / total)


def _user_prop(w: np.ndarray, alpha: float) -> np.ndarray:
    shares = w / w.sum(axis=-1, keepdims=True)
    return alpha * shares.sum(axis=-2)


def _user_eq(w: np.ndarray, alpha: float) -> np.ndarray:
    engaged = w > 0
    counts = engaged.sum(axis=-1, keepdims=True)
    return alpha * (engaged / counts).sum(axis=-2)


def _gamma(s: np.ndarray, alpha: float) -> np.ndarray:
    """Influence cap parameter for each row of user totals ``s`` (..., n).

    ``sum_i min(gamma * S_i, 1)`` is piecewise linear and nondecreasing in
    gamma with breakpoints at ``1 / S_i``; the target ``alpha * n`` is solved
    in closed form on the segment that reaches it.
    """
    if np.any(s <= 0):
        raise ZeroRowError(int(np.argwhere(s <= 0)[0, -1]))
    if not 0.0 < alpha <= 1.0:
        raise BadAlphaError(f"alpha must be in (0, 1], got {alpha}")
    n = s.shape[-1]
    target = alpha * n
    if target >= n:
        return 1.0 / s.min(axis=-1)
    ascending = np.sort(s, axis=-1)
    order = ascending[..., ::-1]
    # suffix[k] = total weight of the users still uncapped once the k
    # heaviest are capped
    suffix = np.zeros(s.shape[:-1] + (n + 1,))
    suffix[..., :n] = np.cumsum(ascending, axis=-1)[..., ::-1]
    # at gamma = 1/order[k], users 0..k are capped: value = (k+1) + suffix[k+1]/order[k]
    at_break = np.arange(n) + suffix[..., 1:] / order + 1.0
    # the segment that reaches the target starts after the breakpoints below it
    k = (at_break < target).sum(axis=-1, keepdims=True)
    return ((target - k) / np.take_along_axis(suffix, k, axis=-1))[..., 0]


@dataclass(frozen=True)
class GammaSolution:
    """Solution of ``sum_i min(gamma * S_i, 1) = alpha * n``.

    ``capped_users`` holds the 0-based indices with ``gamma * S_i >= 1 - 1e-12``
    (an exact tie counts as capped). ``residual`` is the absolute defect of the
    defining equation at the returned gamma.
    """

    gamma: float
    capped_users: frozenset[int]
    residual: float


def solve_gamma(user_totals, alpha: float) -> GammaSolution:
    """Find the influence cap parameter by a breakpoint sweep.

    At ``alpha == 1`` every feasible gamma with all users capped works; the
    canonical representative ``1 / min(S)`` is returned.
    """
    s = np.asarray(user_totals, dtype=float).reshape(-1)
    if s.size == 0:
        raise DimensionError("need at least one user total")
    gamma = float(_gamma(s, alpha))
    capped = frozenset(int(i) for i in np.flatnonzero(gamma * s >= 1.0 - 1e-12))
    residual = float(abs(np.minimum(gamma * s, 1.0).sum() - alpha * s.size))
    return GammaSolution(gamma, capped, residual)


def _scaled_user_prop(w: np.ndarray, alpha: float) -> np.ndarray:
    totals = w.sum(axis=-1)
    influence = np.minimum(_gamma(totals, alpha)[..., None] * totals, 1.0)
    return (w * (influence / totals)[..., None]).sum(axis=-2)


_MAIN_KERNELS = {
    RuleId.GLOBAL_PROP: _global_prop,
    RuleId.USER_PROP: _user_prop,
    RuleId.USER_EQ: _user_eq,
    RuleId.SCALED_USER_PROP: _scaled_user_prop,
}


def batch_payments(rule, weights: np.ndarray, alpha: float) -> np.ndarray:
    """Payments of ``rule``, a rule id or a callable, on every matrix of a
    (..., n, m) weight stack.

    The matrices share ``alpha`` and their shape. Each vector a rule id
    emits is clamped as :func:`~streamshare.core.finalize_payments` does; a
    callable's payments are taken as it returns them. A matrix on which
    :func:`evaluate` raises makes the whole call raise alike.
    """
    if isinstance(rule, PortioningId):
        return finalize_payments(stack_shares(rule, weights) * (alpha * weights.shape[-2]))
    if isinstance(rule, RuleId):
        return finalize_payments(_MAIN_KERNELS[rule](weights, alpha))
    return np.asarray(rule(weights, alpha), dtype=float)


# The main rules on an instance built from its nonzeros (see
# Instance.from_nonzeros): each dense kernel's per-entry terms at the
# nonzeros, v, v / S_i, 1 / count_i and v * influence_i / S_i, summed by
# column as the dense kernel sums them, so the payments are the same bits.
def _nonzero_global_prop(instance: Instance) -> np.ndarray:
    col = instance.artist_totals()
    return col * (instance.alpha * instance.n_users / col.sum())


def _nonzero_user_prop(instance: Instance) -> np.ndarray:
    shares = instance.nonzero_values() / instance.user_totals()[instance.nonzero()[0]]
    return instance.alpha * instance.column_sums(shares)


def _nonzero_user_eq(instance: Instance) -> np.ndarray:
    rows = instance.nonzero()[0]
    counts = np.bincount(rows, minlength=instance.n_users)
    return instance.alpha * instance.column_sums(1.0 / counts[rows])


def _nonzero_scaled_user_prop(instance: Instance) -> np.ndarray:
    totals = instance.user_totals()
    influence = np.minimum(_gamma(totals, instance.alpha) * totals, 1.0)
    scale = (influence / totals)[instance.nonzero()[0]]
    return instance.column_sums(instance.nonzero_values() * scale)


_NONZERO_KERNELS = {
    RuleId.GLOBAL_PROP: _nonzero_global_prop,
    RuleId.USER_PROP: _nonzero_user_prop,
    RuleId.USER_EQ: _nonzero_user_eq,
    RuleId.SCALED_USER_PROP: _nonzero_scaled_user_prop,
}


def _main_payments(rule: RuleId, instance: Instance) -> np.ndarray:
    """A main rule's payments: from the nonzeros when the instance was
    built from them, else by the dense kernel through batch_payments."""
    if instance.nonzero_values() is None:
        return batch_payments(rule, instance.weights, instance.alpha)
    return finalize_payments(_NONZERO_KERNELS[rule](instance))


def global_prop(instance: Instance) -> np.ndarray:
    return _main_payments(RuleId.GLOBAL_PROP, instance)


def user_prop(instance: Instance) -> np.ndarray:
    return _main_payments(RuleId.USER_PROP, instance)


def user_eq(instance: Instance) -> np.ndarray:
    return _main_payments(RuleId.USER_EQ, instance)


def scaled_user_prop(instance: Instance) -> np.ndarray:
    return _main_payments(RuleId.SCALED_USER_PROP, instance)


def evaluate(rule, instance: Instance) -> np.ndarray:
    """Payments of any of the twelve rules, by id or name, or of a callable
    rule on one instance."""
    rule = coerce_rule(rule)
    if isinstance(rule, RuleId):
        return _MAIN_IMPL[rule](instance)
    return batch_payments(rule, instance.weights, instance.alpha)


_MAIN_IMPL = {
    RuleId.GLOBAL_PROP: global_prop,
    RuleId.USER_PROP: user_prop,
    RuleId.USER_EQ: user_eq,
    RuleId.SCALED_USER_PROP: scaled_user_prop,
}
