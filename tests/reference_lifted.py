"""The order-2 pair-state stepper as it was before both chain orders shared one, kept as a test reference.

``reference_step_order2`` is the persistency module's order-2 stepper with
its own ``_operator`` and ``_pooled_column``, unchanged apart from their
names.  ``reference_project_cumulative`` is the lifted module's projection
(horizon checks first, then one cost-weighted sum per period) stepping
through ``reference_step_order2`` in pooling mode over the whole family,
the one unsupported-cell policy of every forward pass.  The differential
tests in test_lifted_differential.py hold the single stepper to them bit
for bit.
"""

from typing import Mapping

import numpy as np

from healthmarkov.errors import HorizonError, InvalidInputError, UnsupportedCellError
from healthmarkov.lifted import (
    MASS_EPS,
    LiftedMatrix,
    ProjectionResult,
    current_cost_weights,
    pair_label,
    start_vector,
)
from healthmarkov.states import N_STATES, CostVector, HealthState


# ---------------------------------------------------------------------------
# persistency.py


def reference_operator(model: Mapping[int, object], age: int):
    if age not in model:
        last = max(model) if model else None
        raise HorizonError(f"no operator estimated for age {age}; last valid age is {last}")
    return model[age]


def reference_bin_ages(age: int) -> range:
    lo = (age // 5) * 5
    return range(lo, lo + 5)


def reference_pooled_column(model: Mapping[int, LiftedMatrix], age: int, col: int) -> np.ndarray:
    """Lifted column pooled over the age's 5-year bin (needs stored counts)."""
    i, j = divmod(col, N_STATES)
    counts = np.zeros(N_STATES, dtype=np.int64)
    for a in reference_bin_ages(age):
        op = model.get(a)
        if op is not None and op.counts is not None:
            counts += op.counts[i, j]
    if counts.sum() == 0:
        raise UnsupportedCellError(
            f"pair column {pair_label((i + 1, j + 1))} unsupported at age {age} even pooled over its 5-year bin"
        )
    column = np.zeros(N_STATES * N_STATES)
    column[j * N_STATES : (j + 1) * N_STATES] = counts / counts.sum()
    return column


def reference_step_order2(model, age: int, v: np.ndarray, fallback: str | None) -> np.ndarray:
    op = reference_operator(model, age)
    if op.supported.all():
        return op.probs @ v
    active = v > MASS_EPS
    blocked = active & ~op.supported
    if not blocked.any():
        return op.probs @ v
    if fallback != "pool":
        names = ", ".join(
            pair_label((int(cidx) // N_STATES + 1, int(cidx) % N_STATES + 1))
            for cidx in np.where(blocked)[0]
        )
        raise UnsupportedCellError(f"mass reaches unsupported pair column(s) {names} at age {age}")
    probs = op.probs.copy()
    for col in np.where(blocked)[0]:
        probs[:, col] = reference_pooled_column(model, age, int(col))
    return probs @ v


# ---------------------------------------------------------------------------
# lifted.py


def reference_project_cumulative(
    family: Mapping[int, LiftedMatrix],
    costs: CostVector,
    start_age: int,
    start,
    horizon: int = 10,
) -> ProjectionResult:
    """Cumulative expected cost over ``horizon`` periods after the start pair.

    Uses the age-specific operators for start_age + 1 .. start_age + horizon
    in sequence; a missing age raises HorizonError before any arithmetic.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    for step in range(1, horizon + 1):
        reference_operator(family, start_age + step)
    weights = current_cost_weights(costs)
    v = start_vector(start)
    per_period = []
    for step in range(1, horizon + 1):
        v = reference_step_order2(family, start_age + step, v, "pool")
        per_period.append(float(weights @ v))
    start_pair = (HealthState(int(start[0])), HealthState(int(start[1])))
    return ProjectionResult(
        start_age=start_age,
        start_pair=start_pair,
        horizon=horizon,
        per_period=per_period,
        cumulative=float(sum(per_period)),
        q5_value=costs.q5,
    )
