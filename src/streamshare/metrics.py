"""Pay-per-stream summaries: per-artist rates, envy ratios, and comparisons
against the platform-wide proportional baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, whole
from .rules import RuleId, evaluate


class DegenerateEnvyError(ValueError):
    """No artist has any streams, so no pay-per-stream value is defined."""


@dataclass(frozen=True)
class PpsVector:
    """Per-artist payment per interaction. Artists nobody streamed carry
    NaN and are excluded from every aggregate via the mask."""

    values: np.ndarray
    defined_mask: np.ndarray

    @property
    def defined_values(self) -> np.ndarray:
        return self.values[self.defined_mask]

    def max_envy(self) -> float:
        """Ratio of the highest to the lowest defined pay-per-stream.

        Returns math.inf when a streamed artist was paid exactly nothing, so
        batch sweeps keep running through that corner instead of aborting.
        """
        vals = self.defined_values
        if vals.size == 0:
            raise DegenerateEnvyError("no artist has positive streams")
        low = vals.min()
        if low == 0.0:
            return math.inf
        return float(vals.max() / low)


def pps(rule, instance: Instance) -> PpsVector:
    """Payment divided by column total, masked where the column total is 0."""
    streams = instance.artist_totals()
    payments = evaluate(rule, instance)
    defined = streams > 0
    values = np.full(instance.n_artists, np.nan)
    values[defined] = payments[defined] / streams[defined]
    return PpsVector(values=values, defined_mask=defined)


def max_envy(rule, instance: Instance) -> float:
    """:meth:`PpsVector.max_envy` of the rule's pay-per-stream."""
    return pps(rule, instance).max_envy()


def relative_pps(rule, instance: Instance) -> np.ndarray:
    """Per-artist pay-per-stream divided by the platform-proportional rate,
    over artists with positive streams."""
    baseline = pps(RuleId.GLOBAL_PROP, instance)
    return pps(rule, instance).defined_values / baseline.defined_values


def topk_bottomk_relative_pps(rule, instance: Instance, k: int):
    """Means of the k largest and k smallest relative pay-per-stream ratios."""
    return topk_bottomk_means(relative_pps(rule, instance), k)


def topk_bottomk_means(ratios: np.ndarray, k: int):
    """Means of the k largest and k smallest of ``ratios``."""
    ratios = np.sort(ratios)
    k = whole(k, ValueError, "k", 1, ratios.size + 1)
    return float(ratios[-k:].mean()), float(ratios[:k].mean())


@dataclass(frozen=True)
class EnvyDemoReport:
    """A two-artist family showing user-proportional envy growing past any
    target bound: three identical light listeners plus one heavy fan."""

    target: float
    instance: Instance
    max_envy: float


def envy_bound_demo(target: float) -> EnvyDemoReport:
    """Instantiate the family at the given bound and report its envy.

    Three users stream (1/(12 target), 1/3) and a fourth streams
    (3 target, 0). The user-proportional envy works out to
    3 (1 + 12 target^2) / (4 + 4 target), which exceeds the target
    for every target >= 1.
    """
    if target < 1:
        raise ValueError(f"target must be at least 1, got {target}")
    k = float(target)
    light = [1.0 / (12.0 * k), 1.0 / 3.0]
    w = np.array([light, light, light, [3.0 * k, 0.0]])
    instance = Instance(w, 1.0)
    return EnvyDemoReport(
        target=k,
        instance=instance,
        max_envy=max_envy(RuleId.USER_PROP, instance),
    )
