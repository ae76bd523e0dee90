"""Forward iteration of estimated chains and start-state difference curves.

Given per-age operators (first-order matrices or lifted pair-state
matrices), iterate an indicator start distribution through future ages and
measure how much extra probability mass a bad start leaves on a target
state set, year by year.  The difference decays to zero as the start
condition washes out; how slowly it decays is the persistency of a shock.

Both chain orders go through ``lifted.forward_distributions``, the one
checked and memoized forward pass of the package, so first-order curves
(k12/k13), pair-state curves (k14) and cost projections are stepped,
checked, pooled and remembered by the same code; only the starts depend
on the order.  A cell without support that carries mass is pooled over
its 5-year age bin; if the whole bin has no count for it,
UnsupportedCellError names it.
"""

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidInputError
from .estimate import _target_codes
from .lifted import SHOCK_STARTS, family_order, forward_distributions
from .states import N_STATES, HealthState


@dataclass
class ForecastDistribution:
    """Distribution over states (order 1) or pairs (order 2) per future age.

    Row 0 is the start indicator at start_age; row k the distribution k
    years later.  Every row sums to one.
    """

    start_age: int
    conditioning: tuple
    ages: list[int]
    distributions: np.ndarray
    order: int

    def target_mass(self, target) -> np.ndarray:
        """Mass on a set of states per future age (current coordinate for pairs)."""
        codes = _codes(target)
        cols = [c for c in range(self.distributions.shape[1]) if c % N_STATES in codes]
        return self.distributions[:, cols].sum(axis=1)


def _codes(target) -> list[int]:
    codes, missing = _target_codes(target)
    if missing:
        raise InvalidInputError("persistency targets are health states; attrition is not modelled")
    return sorted(codes)


def iterate_forward(
    model: Mapping[int, object],
    start_age: int,
    start_condition,
    horizon: int,
) -> ForecastDistribution:
    """Iterate age-specific operators from an indicator start distribution.

    start_condition is a single state for a first-order family or a
    (previous, current) pair for a lifted family.  An unsupported cell hit
    mid-iteration is replaced by the cell pooled over its enclosing 5-year
    age bin; a missing age raises HorizonError before any step.  The
    distributions are the memo's read-only array.
    """
    conditioning, distributions = forward_distributions(model, start_age, start_condition, horizon)
    return ForecastDistribution(
        start_age=start_age,
        conditioning=conditioning,
        ages=list(range(start_age, start_age + horizon + 1)),
        distributions=distributions,
        order=len(conditioning),
    )


@dataclass
class DifferenceCurve:
    """Extra target-set mass from a bad start versus a good start, per year."""

    start_age: int
    order: int
    target: tuple[str, ...]
    worse_start: tuple
    better_start: tuple
    years: list[int]
    worse_mass: np.ndarray
    better_mass: np.ndarray

    @property
    def differences(self) -> np.ndarray:
        return self.worse_mass - self.better_mass


def persistency_difference(
    model: Mapping[int, object],
    start_age: int,
    horizon: int,
    target,
    starts: tuple | None = None,
) -> DifferenceCurve:
    """Per-year difference in target mass between two start conditions.

    Defaults compare the worst start against the best: Q5 vs Q1 for a
    first-order family, and the paper's SHOCK_STARTS for a lifted family.
    """
    order = family_order(model)
    if starts is None:
        starts = (HealthState.Q5, HealthState.Q1) if order == 1 else SHOCK_STARTS
    worse, better = starts
    fc_worse = iterate_forward(model, start_age, worse, horizon)
    fc_better = iterate_forward(model, start_age, better, horizon)
    codes = _codes(target)
    return DifferenceCurve(
        start_age=start_age,
        order=order,
        target=tuple(HealthState(c + 1).name for c in codes),
        worse_start=fc_worse.conditioning,
        better_start=fc_better.conditioning,
        years=list(range(1, horizon + 1)),
        worse_mass=fc_worse.target_mass(target)[1:],
        better_mass=fc_better.target_mass(target)[1:],
    )
