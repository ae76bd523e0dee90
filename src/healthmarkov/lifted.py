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

One stepper, one bin pooler and one forward loop advance every
distribution in the package: pairs through lifted matrices, and states
through first-order ``TransitionMatrix`` operators read as ``probs.T``.
Both index ``supported`` by the coordinate of the distribution.  There is
one policy for a coordinate without support that carries mass, in every
projection and difference curve: it moves by its counts pooled over the
5-year age bin (ages 20-24, 25-29, ...), and UnsupportedCellError is
raised only when the whole bin has no count for it.
"""

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import HorizonError, InvalidInputError, UnsupportedCellError
from .estimate import TransitionTensor
from .states import N_STATES, STATE_LABELS, CostVector, HealthState, _state_code

N_PAIRS = N_STATES * N_STATES

#: Probability mass below which an unsupported column is considered unused.
MASS_EPS = 1e-12

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


@dataclass(eq=False)
class LiftedMatrix:
    """One age's 25x25 pair-state operator.

    ``supported`` flags the columns (start pairs) whose conditional slice
    had estimation support; ``counts`` keeps the underlying 5x5x5 counts
    when the matrix came from an estimate, enabling age-group pooling.

    An operator is not mutated after construction: ``project_cumulative``
    remembers forward passes by operator identity (operators compare and
    hash by identity), so an operator changed in place would keep
    yielding the distributions of its old values.
    """

    probs: np.ndarray
    supported: np.ndarray
    age: int | None = None
    counts: np.ndarray | None = None

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
    # a new array: the operator must not share its flags with the tensor
    supported = supported_pairs.astype(bool).reshape(N_PAIRS)
    return LiftedMatrix(probs=probs_mat, supported=supported, age=age, counts=counts)


def lift_family(tensors: Mapping[int, object]) -> dict[int, LiftedMatrix]:
    """Lift a per-age tensor family; skips nothing, ages keep their keys."""
    return {age: lift(t, age=age) for age, t in tensors.items()}


def _operator(model: Mapping[int, object], age: int):
    if age not in model:
        last = max(model) if model else None
        raise HorizonError(f"no operator estimated for age {age}; last valid age is {last}")
    return model[age]


def _bin_ages(age: int) -> range:
    lo = (age // 5) * 5
    return range(lo, lo + 5)


def _cell_kind(n: int) -> str:
    """What a coordinate of an n-vector is: a lifted pair column or a first-order state row."""
    return "pair column" if n == N_PAIRS else "state row"


def _cell_name(n: int, c: int) -> str:
    return pair_label(pair_from_index(c)) if n == N_PAIRS else HealthState(c + 1).name


def _pooled(model: Mapping[int, object], age: int, c: int) -> np.ndarray:
    """Next-state distribution out of coordinate ``c``, pooled over the age's 5-year bin.

    ``c`` is state row c of first-order counts, or pair (i, j) = divmod(c, 5) of 5x5x5 counts.
    """
    ops = [model.get(a) for a in _bin_ages(age)]
    kept = [op.counts for op in ops if op is not None and op.counts is not None]
    counts = np.zeros(N_STATES, dtype=np.int64)
    for bin_counts in kept:
        counts += bin_counts.reshape(-1, N_STATES)[c]
    if counts.sum() == 0:
        n = model[age].supported.size
        why = "even pooled over its 5-year bin" if kept else "and no operator in its 5-year bin keeps counts to pool"
        raise UnsupportedCellError(f"{_cell_kind(n)} {_cell_name(n, c)} unsupported at age {age} {why}")
    return counts / counts.sum()


def _columns(op, probs: np.ndarray) -> np.ndarray:
    """``probs`` of ``op`` as a column map: column c is the next distribution out of coordinate c."""
    return probs if isinstance(op, LiftedMatrix) else probs.T


def _advance(op, probs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The column map of ``probs`` applied to ``v``, summed in a fixed order.

    A lifted matrix sums each row of ``probs * v`` (numpy's pairwise sum
    along a contiguous row); a first-order matrix adds its scaled rows one
    after the other.  Neither calls BLAS, whose kernels sum in an order
    that depends on the CPU and the thread count.
    """
    if isinstance(op, LiftedMatrix):
        return np.add.reduce(probs * v, axis=1)
    return np.add.reduce(probs * v[:, None], axis=0)


def _step(model: Mapping[int, object], age: int, v: np.ndarray) -> np.ndarray:
    """Advance a state (first-order) or pair (lifted) distribution through the operator for ``age``.

    A coordinate without support that carries more than MASS_EPS of ``v``
    moves by the distribution pooled over the age's 5-year bin; if the
    whole bin has no count for it, UnsupportedCellError names it.
    """
    op = _operator(model, age)
    blocked = (v > MASS_EPS) & ~op.supported
    if not blocked.any():
        return _advance(op, op.probs, v)
    probs = op.probs.copy()
    for c in np.where(blocked)[0]:
        # moves out of pair (i, j) land on pairs (j, .); out of a state, on any state
        lo = (N_STATES * int(c)) % v.size
        _columns(op, probs)[lo : lo + N_STATES, c] = _pooled(model, age, int(c))
    return _advance(op, probs, v)


def _forward(model: Mapping[int, object], start_age: int, v: np.ndarray, horizon: int) -> list[np.ndarray]:
    """Distributions after each of ``horizon`` steps from ``v`` at ``start_age``.

    Each step looks up its own operator: a missing age raises only after the steps before it.
    """
    steps = []
    for age in range(start_age + 1, start_age + horizon + 1):
        v = _step(model, age, v)
        steps.append(v)
    return steps


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


#: Forward passes ``project_cumulative`` remembers.  At least the number
#: of (start age, start pair) keys of one Q5 sweep: f03 cycles through all
#: of them once per Q5 value, and a smaller LRU would never hit.  The memo
#: keeps the operators of its passes alive until they are evicted.
_FORWARD_PASSES = 512


@functools.lru_cache(maxsize=_FORWARD_PASSES)
def _forward_pass(window: tuple, start_age: int, horizon: int, col: int) -> np.ndarray:
    """Pair distributions after each of ``horizon`` steps from pair ``col`` at ``start_age``.

    One read-only (horizon, 25) array, row k - 1 the distribution after
    step k.  ``window`` holds the operator of every age in the 5-year bins
    of ages start_age + 1 .. start_age + horizon, from the first bin's
    first age on, with None for an absent age: all that the steps and
    their pooled columns read.  Memoized by operator identity, start age,
    horizon and start pair.  A pass that raises is not remembered, so it
    raises again, with its message, on the next call.
    """
    lo = _bin_ages(start_age + 1).start
    model = {age: op for age, op in enumerate(window, lo) if op is not None}
    v = np.zeros(N_PAIRS)
    v[col] = 1.0
    passes = np.array(_forward(model, start_age, v, horizon))
    passes.flags.writeable = False
    return passes


def project_cumulative(
    family: Mapping[int, LiftedMatrix],
    costs: CostVector,
    start_age: int,
    start,
    horizon: int = 10,
) -> ProjectionResult:
    """Cumulative expected cost over ``horizon`` periods after the start pair.

    Uses the age-specific operators for start_age + 1 .. start_age + horizon
    in sequence; a missing age raises HorizonError before any arithmetic.
    An unsupported column that carries mass is pooled over its 5-year age
    bin of the whole family, as in ``iterate_forward``.  The pair
    distributions do not depend on ``costs``, so a sweep over cost vectors
    steps each (operators, start pair) once and only re-weights.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    lo = _bin_ages(start_age + 1).start
    window = tuple([family.get(age) for age in range(lo, _bin_ages(start_age + horizon).stop)])
    if None in window[start_age + 1 - lo : start_age + horizon + 1 - lo]:
        for step in range(1, horizon + 1):
            _operator(family, start_age + step)  # raises HorizonError for the first missing age
    previous, current = start
    i, j = _state_code(previous), _state_code(current)
    weights = current_cost_weights(costs)
    passes = _forward_pass(window, start_age, horizon, N_STATES * i + j)
    # one fixed-order sum per period: the bits of a reduce over that row alone
    per_period = np.add.reduce(weights * passes, axis=1).tolist()
    return ProjectionResult(
        start_age=start_age,
        start_pair=(_STATES[i], _STATES[j]),
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
    """Extra cumulative cost of starting freshly in the top state.

    Difference between the (Q1, Q5) start (a first-time arrival in the top
    band) and the (Q1, Q1) start (continuously in the bottom band).
    """
    shocked = project_cumulative(family, costs, start_age, (HealthState.Q1, HealthState.Q5), horizon)
    healthy = project_cumulative(family, costs, start_age, (HealthState.Q1, HealthState.Q1), horizon)
    return shocked.cumulative - healthy.cumulative
