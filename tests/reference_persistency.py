"""The first-order stepper as it was before both chain orders shared one, kept as a test reference.

``reference_step_order1`` and ``reference_pooled_row`` are the persistency
module's ``_step_order1`` and ``_pooled_row``, unchanged apart from their
names and the lookups they make through reference_lifted.  The step is
a BLAS product (``v @ probs``), as the package's was until it summed each
step in a fixed order without BLAS.  The differential tests in
test_persistency_differential.py hold first-order ``iterate_forward`` and
``persistency_difference`` to them within a relative bound.
"""

from typing import Mapping

import numpy as np

from healthmarkov.errors import UnsupportedCellError
from healthmarkov.estimate import TransitionMatrix
from healthmarkov.lifted import MASS_EPS
from healthmarkov.states import N_STATES, HealthState

from reference_lifted import reference_bin_ages as _bin_ages
from reference_lifted import reference_operator as _operator


def reference_pooled_row(model: Mapping[int, TransitionMatrix], age: int, row: int) -> np.ndarray:
    """Row distribution pooled over the age's 5-year bin, for fallback use."""
    counts = np.zeros(N_STATES, dtype=np.int64)
    for a in _bin_ages(age):
        op = model.get(a)
        if op is not None:
            counts += op.counts[row]
    if counts.sum() == 0:
        raise UnsupportedCellError(
            f"state row {HealthState(row + 1).name} unsupported at age {age} even pooled over its 5-year bin"
        )
    return counts / counts.sum()


def reference_step_order1(model, age: int, v: np.ndarray, fallback: str | None) -> np.ndarray:
    op = _operator(model, age)
    if op.supported.all():
        return v @ op.probs
    active = v > MASS_EPS
    blocked = active & ~op.supported
    if not blocked.any():
        return v @ op.probs
    if fallback != "pool":
        names = ", ".join(HealthState(int(r) + 1).name for r in np.where(blocked)[0])
        raise UnsupportedCellError(f"mass reaches unsupported state row(s) {names} at age {age}")
    probs = op.probs.copy()
    for row in np.where(blocked)[0]:
        probs[row] = reference_pooled_row(model, age, int(row))
    return v @ probs
