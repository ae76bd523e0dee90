"""Pair-state form of the second-order chain.

A pair (previous state, current state) is one of 25 compound states,
indexed previous-major:

    index(i, j) = 5 * (i - 1) + (j - 1)     for 1-based states i, j

The lifted operator L puts p(j' | i, j) at L[index(j, j'), index(i, j)]
and zero elsewhere: a move out of (i, j) can only land on a pair whose
previous coordinate is j.  Distributions are column vectors over pairs and
one period is v -> L @ v, so supported columns sum to one and matrix
products compose periods.  The expected representative cost of the current
coordinate after k periods is then

    tile(costs, 5) @ (L_k ... L_1 @ e_start)

because tiling the 5-vector of per-state costs across the previous-major
layout weights each pair by the cost of its current coordinate.  The
equivalence of this algebra with exhaustive path enumeration is asserted
by the oracle tests rather than argued from notation.

One checked entry, ``forward_distributions``, advances every distribution
in the package, for difference curves and projections alike: pairs
through lifted matrices, and states through first-order
``TransitionMatrix`` operators read as ``probs.T``.  Its passes are
memoized by operator identity; operators are frozen and hold read-only
arrays, so a remembered pass cannot go stale.  A coordinate without
support that carries mass moves by its counts pooled over the 5-year age
bin (ages 20-24, 25-29, ...); UnsupportedCellError is raised only when
the whole bin has no count for it.
"""

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import HorizonError, InvalidInputError, UnsupportedCellError
from .estimate import TransitionMatrix, TransitionTensor, _bin_ages, _freeze
from .panel import _read_only
from .states import N_STATES, STATE_LABELS, CostVector, HealthState, _state_code

N_PAIRS = N_STATES * N_STATES

#: Probability mass below which an unsupported column is considered unused.
MASS_EPS = 1e-12

#: The paper's comparison of start pairs, (worse, better): a fresh arrival in
#: the top state against a continuous stay in the bottom state.
SHOCK_STARTS = ((HealthState.Q1, HealthState.Q5), (HealthState.Q1, HealthState.Q1))


def pair_index(previous, current) -> int:
    """Column/row index of the pair (previous, current), previous-major.

    Each coordinate is a HealthState, a 1-based int or a name ``"Q1"``..``"Q5"``.
    """
    return N_STATES * _state_code(previous) + _state_code(current)


def pair_from_index(idx: int) -> tuple[HealthState, HealthState]:
    return HealthState(idx // N_STATES + 1), HealthState(idx % N_STATES + 1)


def pair_label(pair) -> str:
    return f"({STATE_LABELS[_state_code(pair[0])]},{STATE_LABELS[_state_code(pair[1])]})"


#: HealthState by 0-based code.
_STATES = tuple(HealthState)

#: State coordinate (0-based) of each pair's current coordinate, by pair index.
_CURRENT_STATE = np.arange(N_PAIRS) % N_STATES

#: Where the lift puts p[i, j, j'] (0-based states, indexed [i, j, j']):
#: row 5j + j', column 5i + j.
_i, _j, _k = np.indices((N_STATES, N_STATES, N_STATES))
_PAIR_LAYOUT = (N_STATES * _j + _k, N_STATES * _i + _j)
del _i, _j, _k

#: The entries a move can reach: column (i, j) only lands on rows (j, .).
_REACHABLE = np.zeros((N_PAIRS, N_PAIRS), dtype=bool)
_REACHABLE[_PAIR_LAYOUT] = True


def current_cost_weights(costs: CostVector) -> np.ndarray:
    """25-vector weighting each pair by the representative cost of its current coordinate."""
    return costs.as_array()[_CURRENT_STATE]


@dataclass(frozen=True, eq=False)
class LiftedMatrix:
    """One age's 25x25 pair-state operator.

    ``supported`` flags the columns (start pairs) whose conditional slice
    had estimation support; ``counts`` keeps the underlying 5x5x5 counts
    when the matrix came from an estimate, enabling age-group pooling.

    Immutable: it holds read-only copies of the arrays it is given, and
    compares and hashes by identity, the key of the forward-pass memo.
    """

    probs: np.ndarray
    supported: np.ndarray
    age: int | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        _freeze(self, "probs", "supported", "counts")

    def validate(self, atol: float = 1e-12) -> None:
        """Check the structural-zero pattern and column normalization.

        The first failing column is named; within a column a leak is
        reported before a bad sum.
        """
        if self.probs.shape != (N_PAIRS, N_PAIRS):
            raise InvalidInputError(f"expected a {N_PAIRS}x{N_PAIRS} matrix")
        # max, not any: a NaN outside the block hides the column's leak
        leaks = np.abs(np.where(_REACHABLE, 0.0, self.probs)).max(axis=0, initial=0.0) > 0
        # one contiguous row per column sums like the column alone, to the last bit
        sums = np.ascontiguousarray(self.probs.T).sum(axis=1)
        bad = leaks | (np.asarray(self.supported, dtype=bool) & (np.abs(sums - 1.0) > atol))
        if bad.any():
            col = int(bad.argmax())
            if leaks[col]:
                raise InvalidInputError(f"column {col} leaks mass outside its reachable block")
            raise InvalidInputError(f"supported column {col} sums to {sums[col]!r}")


def lift(tensor, age: int | None = None) -> LiftedMatrix:
    """Rewrite a pair-conditional tensor as a 25x25 single-step operator.

    ``tensor`` is a TransitionTensor or a raw (5, 5, 5) probability array
    p[i, j, j'].  The entry for (i, j) -> (j, j') is p[i, j, j'], so every
    supported column is a probability distribution; an unsupported
    column is all zeros.
    """
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
    probs_mat[_PAIR_LAYOUT] = np.where(supported_pairs[..., None], probs, 0.0)
    return LiftedMatrix(probs=probs_mat, supported=supported_pairs.reshape(N_PAIRS), age=age, counts=counts)


def lift_family(tensors: Mapping[int, object]) -> dict[int, LiftedMatrix]:
    """Lift a per-age tensor family; skips nothing, ages keep their keys."""
    return {age: lift(t, age=age) for age, t in tensors.items()}


def _pooled(model: Mapping[int, object], age: int, c: int) -> np.ndarray:
    """Next-state distribution out of coordinate ``c``, pooled over the age's 5-year bin.

    ``c`` is state row c of first-order counts, or pair (i, j) = divmod(c, 5) of 5x5x5 counts.
    """
    kept = [op.counts for op in map(model.get, _bin_ages(age)) if op is not None and op.counts is not None]
    counts = np.zeros(N_STATES, dtype=np.int64)
    for bin_counts in kept:
        counts += bin_counts.reshape(-1, N_STATES)[c]
    if counts.sum() == 0:
        lifted = model[age].supported.size == N_PAIRS
        cell = f"pair column {pair_label(pair_from_index(c))}" if lifted else f"state row {_STATES[c].name}"
        why = "even pooled over its 5-year bin" if kept else "and no operator in its 5-year bin keeps counts to pool"
        raise UnsupportedCellError(f"{cell} unsupported at age {age} {why}")
    return counts / counts.sum()


def _step(model: Mapping[int, object], age: int, v: np.ndarray) -> np.ndarray:
    """Advance a state (first-order) or pair (lifted) distribution through the operator for ``age``.

    Column c of the column map, ``probs`` or a first-order ``probs.T``, is
    the next distribution out of coordinate c.  A coordinate without
    support that carries more than MASS_EPS of ``v`` moves by its counts
    pooled over the age's 5-year bin.  Each entry sums one row of
    ``column_map * v`` in numpy's fixed order, never through BLAS, whose
    kernels sum in an order that depends on the CPU and the thread count.
    """
    op = model[age]
    column_map = op.probs if isinstance(op, LiftedMatrix) else op.probs.T
    blocked = (v > MASS_EPS) & ~op.supported
    if blocked.any():
        column_map = column_map.copy()
        for c in np.where(blocked)[0]:
            # moves out of pair (i, j) land on pairs (j, .); out of a state, on any state
            lo = (N_STATES * int(c)) % v.size
            column_map[lo : lo + N_STATES, c] = _pooled(model, age, int(c))
    return np.add.reduce(column_map * v, axis=1)


@dataclass
class ProjectionResult:
    """Expected per-period and cumulative representative cost from one start pair."""

    start_age: int
    start_pair: tuple[HealthState, HealthState]
    horizon: int
    per_period: list[float]
    cumulative: float
    q5_value: float

    def to_dict(self) -> dict:
        return {
            "start_age": self.start_age,
            "start_pair": [s.name for s in self.start_pair],
            "q5_value": self.q5_value,
            "per_period": self.per_period,
            "cumulative": self.cumulative,
        }


#: Forward passes remembered across every caller.  At least the number of
#: (start age, start pair) keys of one Q5 sweep: f03 cycles through all of
#: them once per Q5 value, and a smaller LRU would never hit.  The memo
#: keeps the operators of its passes alive until they are evicted.
_FORWARD_PASSES = 512


@functools.lru_cache(maxsize=_FORWARD_PASSES)
def _forward_pass(window: tuple, start_age: int, horizon: int, col: int) -> np.ndarray:
    """Distributions from coordinate ``col`` at ``start_age`` through ``horizon`` steps.

    One read-only (horizon + 1, n) array: row 0 the indicator of ``col``,
    row k the distribution after step k.  ``window`` holds the operator of
    every age in the 5-year bins of ages start_age + 1 .. start_age +
    horizon, None for an absent age: all that the steps and their pooling
    read.  Memoized by operator identity, which cannot go stale, since
    operators are immutable.  A pass that raises is not remembered.
    """
    lo = _bin_ages(start_age + 1).start
    model = {age: op for age, op in enumerate(window, lo) if op is not None}
    v = np.zeros(model[start_age + 1].supported.size)
    v[col] = 1.0
    rows = [v]
    for age in range(start_age + 1, start_age + horizon + 1):
        v = _step(model, age, v)
        rows.append(v)
    return _read_only(np.array(rows))


def family_order(model: Mapping[int, object]) -> int:
    """Chain order of a family: 1 for ``TransitionMatrix`` operators, 2 for ``LiftedMatrix`` ones."""
    kinds = set(map(type, model.values()))
    if kinds <= {TransitionMatrix}:
        return 1
    if kinds <= {LiftedMatrix}:
        return 2
    raise InvalidInputError(f"mixed or unknown operator family: {sorted(k.__name__ for k in kinds)}")


def forward_distributions(
    model: Mapping[int, object],
    start_age: int,
    start,
    horizon: int,
    lifted_only: bool = False,
) -> tuple[tuple[HealthState, ...], np.ndarray]:
    """The start as HealthStates, and ``_forward_pass``'s distributions from it.

    The one way the package advances a distribution: a first-order family
    from one state, a lifted family from a (previous, current) pair.
    Checked in this order: horizon >= 1; one operator kind; an operator
    for every age start_age + 1 .. start_age + horizon (HorizonError for
    the first missing one); with ``lifted_only``, a lifted family; the start.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    order = family_order(model)
    lo = _bin_ages(start_age + 1).start
    window = tuple(map(model.get, range(lo, _bin_ages(start_age + horizon).stop)))
    if None in window[start_age + 1 - lo : start_age + horizon + 1 - lo]:
        age = next(age for age in range(start_age + 1, start_age + horizon + 1) if age not in model)
        raise HorizonError(f"no operator estimated for age {age}; last valid age is {max(model, default=None)}")
    if lifted_only and order == 1:
        raise InvalidInputError("a projection needs lifted pair-state operators, got a first-order family")
    try:
        parts = (start,) if order == 1 else tuple(start)
    except TypeError:  # a single state
        parts = (start,)
    codes = [_state_code(s) for s in parts]
    if len(codes) != order:
        raise InvalidInputError(f"a lifted family starts from a (previous, current) pair, got {start!r}")
    col = codes[0] if order == 1 else N_STATES * codes[0] + codes[1]
    return tuple(map(_STATES.__getitem__, codes)), _forward_pass(window, start_age, horizon, col)


def project_cumulative(
    family: Mapping[int, LiftedMatrix],
    costs: CostVector,
    start_age: int,
    start,
    horizon: int = 10,
) -> ProjectionResult:
    """Cumulative expected cost over ``horizon`` periods after the start pair.

    Uses the age-specific operators for start_age + 1 .. start_age + horizon
    in sequence, through ``forward_distributions``: its checks, and its
    pooling of an unsupported column that carries mass over its 5-year age
    bin of the whole family.  The pair distributions do not depend on
    ``costs``, so a sweep over cost vectors steps each (operators, start
    pair) once and only re-weights.
    """
    start_pair, distributions = forward_distributions(family, start_age, start, horizon, lifted_only=True)
    weights = current_cost_weights(costs)
    # one fixed-order sum per period: the bits of a reduce over that row alone
    per_period = np.add.reduce(weights * distributions[1:], axis=1).tolist()
    return ProjectionResult(
        start_age=start_age,
        start_pair=start_pair,
        horizon=horizon,
        per_period=per_period,
        cumulative=float(sum(per_period)),
        q5_value=costs.q5,
    )


def shock_cost_difference(
    family: Mapping[int, LiftedMatrix],
    costs: CostVector,
    start_age: int,
    horizon: int = 10,
) -> float:
    """Extra cumulative cost of the worse start of SHOCK_STARTS over the better one."""
    shocked, healthy = (project_cumulative(family, costs, start_age, start, horizon) for start in SHOCK_STARTS)
    return shocked.cumulative - healthy.cumulative
