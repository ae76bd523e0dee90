"""The order-2 pair-state stepper as it was before both chain orders shared one, and the
per-column lift and check, kept as test references.

``reference_step_order2`` is the persistency module's order-2 stepper with
its own ``_operator`` and ``_pooled_column``, unchanged apart from their
names.  ``reference_project_cumulative`` is the lifted module's projection
(horizon checks first, then one cost-weighted sum per period) stepping
through ``reference_step_order2`` in pooling mode over the whole family,
the one unsupported-cell policy of every forward pass.  They multiply
through BLAS (``@``), as the package did until it summed each step and
each cost weighting in a fixed order without BLAS, so their last bits
depend on OpenBLAS's CPU kernel and thread count.  The differential tests
in test_lifted_differential.py hold the single stepper to them within a
relative bound.

``reference_lift`` and ``reference_validate`` are ``lift`` and
``LiftedMatrix.validate`` as they were before the pair layout table: a
loop over the 25 columns, with the "summed" comparison formula that
``lift`` no longer has.  They are unchanged apart from their names
(``reference_validate`` takes the matrix as ``self``).  The differential
test holds the table-driven pair to them on the conditional formula:
same bytes, or the same error class and message.

``start_vector`` is a copy of the lifted module's start-pair indicator,
which the package no longer has; the references step from it.
"""

from typing import Mapping

import numpy as np

from healthmarkov.errors import HorizonError, InvalidInputError, UnsupportedCellError
from healthmarkov.estimate import TransitionTensor
from healthmarkov.lifted import (
    MASS_EPS,
    N_PAIRS,
    LiftedMatrix,
    ProjectionResult,
    current_cost_weights,
    pair_index,
    pair_label,
)
from healthmarkov.states import N_STATES, CostVector, HealthState


def start_vector(start) -> np.ndarray:
    """Indicator column vector for a start pair (previous, current)."""
    v = np.zeros(N_PAIRS)
    v[pair_index(*start)] = 1.0
    return v


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


# ---------------------------------------------------------------------------
# lifted.py, before the pair layout table


LIFT_FORMULAS = ("conditional", "summed")


def reference_validate(self, atol: float = 1e-12) -> None:
    """Check the structural-zero pattern and column normalization."""
    if self.probs.shape != (N_PAIRS, N_PAIRS):
        raise InvalidInputError(f"expected a {N_PAIRS}x{N_PAIRS} matrix")
    for col in range(N_PAIRS):
        j = col % N_STATES
        mask = np.ones(N_PAIRS, dtype=bool)
        mask[j * N_STATES : (j + 1) * N_STATES] = False
        if np.abs(self.probs[mask, col]).max(initial=0.0) > 0:
            raise InvalidInputError(f"column {col} leaks mass outside its reachable block")
        if self.supported[col]:
            s = self.probs[:, col].sum()
            if abs(s - 1.0) > atol:
                raise InvalidInputError(f"supported column {col} sums to {s!r}")


def reference_lift(tensor, age: int | None = None, formula: str = "conditional") -> LiftedMatrix:
    """Rewrite a pair-conditional tensor as a 25x25 single-step operator.

    ``tensor`` is a TransitionTensor or a raw (5, 5, 5) probability array
    p[i, j, j'].  With the default "conditional" formula the entry for
    (i, j) -> (j, j') is p[i, j, j'], the only reading under which a
    supported column is a probability distribution.  The "summed"
    comparison formula instead writes sum_i p[i, j, j'] (discarding the
    known previous state); its columns are not stochastic and it exists
    solely to quantify how much that alternative reading distorts
    projections.
    """
    if formula not in LIFT_FORMULAS:
        raise InvalidInputError(f"formula must be one of {LIFT_FORMULAS}, got {formula!r}")
    counts = None
    if isinstance(tensor, TransitionTensor):
        probs = tensor.probs
        supported_pairs = tensor.supported
        counts = tensor.counts
        if age is None:
            age = tensor.age
    else:
        probs = np.asarray(tensor, dtype=np.float64)
        if probs.shape != (N_STATES, N_STATES, N_STATES):
            raise InvalidInputError(f"expected a (5, 5, 5) tensor, got {probs.shape}")
        slice_sums = probs.sum(axis=2)
        supported_pairs = slice_sums > 0
        if ((np.abs(slice_sums - 1.0) > 1e-9) & supported_pairs).any():
            raise InvalidInputError("supported tensor slices must be normalized")

    if not supported_pairs.any():
        raise UnsupportedCellError("tensor has no supported (previous, current) pair")

    probs_mat = np.zeros((N_PAIRS, N_PAIRS))
    supported = np.zeros(N_PAIRS, dtype=bool)
    for i in range(N_STATES):
        for j in range(N_STATES):
            col = N_STATES * i + j
            if formula == "conditional":
                if not supported_pairs[i, j]:
                    continue
                slice_ = probs[i, j]
            else:
                slice_ = probs[:, j, :].sum(axis=0)
                if not supported_pairs[:, j].any():
                    continue
            rows = j * N_STATES + np.arange(N_STATES)
            probs_mat[rows, col] = slice_
            supported[col] = True
    return LiftedMatrix(probs=probs_mat, supported=supported, age=age, counts=counts)
