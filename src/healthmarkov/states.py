"""Five ordered health states defined by absolute annual-cost bands.

States are labelled Q1 (cheapest band, best health) through Q5 (open top
band, poorest health).  The default band edges are integer yen amounts;
the top band additionally has a representative annual cost that is a free
parameter of every projection.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, InvalidInputError

N_STATES = 5

#: Category label used wherever an in-panel year has no observation.
MISSING = "MISSING"

DEFAULT_UPPER_BOUNDS = (7_800, 24_000, 54_000, 266_999)


class HealthState(IntEnum):
    """One annual-cost band; comparison follows cost order (Q1 < ... < Q5)."""

    Q1 = 1
    Q2 = 2
    Q3 = 3
    Q4 = 4
    Q5 = 5


STATE_LABELS = tuple(s.name for s in HealthState)
CATEGORY_LABELS = STATE_LABELS + (MISSING,)


def _state_code(state) -> int:
    """0-based code of a HealthState, a 1-based int or a state name (``"Q1"``..``"Q5"``)."""
    if isinstance(state, str) and state in HealthState.__members__:
        return HealthState[state] - 1
    if isinstance(state, (int, np.integer)) and not isinstance(state, bool) and 1 <= state <= N_STATES:
        return int(state) - 1
    raise InvalidInputError(f"not a health state: {state!r} (expected a HealthState, 1..5 or Q1..Q5)")


@dataclass(frozen=True)
class StateThresholds:
    """Inclusive upper bounds (yen) of the four bounded states.

    A cost c falls in Q1 when c <= upper_bounds[0], in Qk (k = 2..4) when
    upper_bounds[k-2] < c <= upper_bounds[k-1], and in Q5 otherwise.
    Bounds are integer yen; costs are rounded to integer yen upstream, so
    the bands partition the cost axis exactly.
    """

    upper_bounds: tuple[int, int, int, int] = DEFAULT_UPPER_BOUNDS

    def __post_init__(self):
        bounds = tuple(int(b) for b in self.upper_bounds)
        if len(bounds) != N_STATES - 1:
            raise ConfigError(f"expected {N_STATES - 1} upper bounds, got {len(bounds)}")
        if bounds[0] < 0:
            raise ConfigError("state bounds must be non-negative")
        if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
            raise ConfigError(f"state bounds must be strictly increasing, got {bounds}")
        object.__setattr__(self, "upper_bounds", bounds)

    def interval(self, state) -> tuple[int, int | None]:
        """Closed yen interval [lo, hi] of ``state``; hi is None for Q5."""
        k = int(state) - 1
        lo = 0 if k == 0 else self.upper_bounds[k - 1] + 1
        hi = None if k == N_STATES - 1 else self.upper_bounds[k]
        return lo, hi

    @property
    def top_lower_bound(self) -> int:
        """Smallest cost that lands in the open top band."""
        return self.upper_bounds[-1] + 1


DEFAULT_THRESHOLDS = StateThresholds()


def classify_cost(annual_cost, thresholds: StateThresholds = DEFAULT_THRESHOLDS) -> HealthState:
    """Return the state whose band contains ``annual_cost``.

    Total and monotone on [0, inf); raises InvalidInputError for negative
    or non-finite costs.
    """
    cost = float(annual_cost)
    if not np.isfinite(cost) or cost < 0:
        raise InvalidInputError(f"annual cost must be finite and >= 0, got {annual_cost!r}")
    k = int(np.searchsorted(np.asarray(thresholds.upper_bounds), cost, side="left"))
    return HealthState(k + 1)


def classify_costs(costs, thresholds: StateThresholds = DEFAULT_THRESHOLDS) -> np.ndarray:
    """Vectorised classify_cost; returns 0-based int8 state codes."""
    arr = np.asarray(costs, dtype=np.float64)
    if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0):
        raise InvalidInputError("annual costs must be finite and >= 0")
    return np.searchsorted(np.asarray(thresholds.upper_bounds), arr, side="left").astype(np.int8)


@dataclass(frozen=True)
class CostVector:
    """Representative annual cost (yen) per state, Q1 first.

    Values must be finite, non-decreasing and strictly positive from Q2
    up; Q1 may be zero.  The projectors are linear in this vector.
    """

    values: tuple[float, float, float, float, float]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) != N_STATES:
            raise ConfigError(f"expected {N_STATES} representative costs, got {len(vals)}")
        if not np.isfinite(vals).all():
            raise ConfigError(f"representative costs must be finite, got {vals}")
        if any(v <= 0 for v in vals[1:]) or vals[0] < 0:
            raise ConfigError("representative costs must be positive (Q1 may be zero)")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ConfigError(f"representative costs must be non-decreasing, got {vals}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_thresholds(
        cls,
        q5_value: float = 267_000.0,
        thresholds: StateThresholds = DEFAULT_THRESHOLDS,
    ) -> "CostVector":
        """Interval midpoints for Q1-Q4 plus the configured top-band cost."""
        vals = [
            representative_cost(state, q5_value=q5_value, thresholds=thresholds)
            for state in HealthState
        ]
        return cls(tuple(vals))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def __getitem__(self, state) -> float:
        return self.values[int(state) - 1]

    @property
    def q5(self) -> float:
        return self.values[-1]


def representative_cost(
    state,
    q5_value: float = 267_000.0,
    thresholds: StateThresholds = DEFAULT_THRESHOLDS,
) -> float:
    """Midpoint of the state's band; Q5 returns ``q5_value``.

    ``q5_value`` must be at least the top band's lower edge, whatever state
    is asked for: an inconsistent configuration is rejected early.
    """
    if q5_value < thresholds.top_lower_bound:
        raise ConfigError(
            f"top-band cost {q5_value} is below the band's lower edge "
            f"{thresholds.top_lower_bound}"
        )
    state = HealthState(_state_code(state) + 1)
    if state is HealthState.Q5:
        return float(q5_value)
    lo, hi = thresholds.interval(state)
    return (lo + hi) / 2.0
