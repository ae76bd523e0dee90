import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from healthmarkov.errors import ConfigError, InvalidInputError
from healthmarkov.lifted import pair_index, pair_label, project_cumulative
from healthmarkov.persistency import iterate_forward
from healthmarkov.states import (
    CostVector,
    HealthState,
    StateThresholds,
    classify_cost,
    classify_costs,
    representative_cost,
)
from healthmarkov.synthetic import enumerate_expectation

from conftest import sticky_top_chain


class TestClassify:
    # boundary table: value -> state, inclusive band edges
    BOUNDARIES = [
        (0, HealthState.Q1),
        (7_800, HealthState.Q1),
        (7_801, HealthState.Q2),
        (24_000, HealthState.Q2),
        (24_001, HealthState.Q3),
        (54_000, HealthState.Q3),
        (54_001, HealthState.Q4),
        (266_999, HealthState.Q4),
        (267_000, HealthState.Q5),
    ]

    @pytest.mark.parametrize("cost,expected", BOUNDARIES)
    def test_boundaries(self, cost, expected):
        assert classify_cost(cost) is expected

    def test_vectorised_matches_scalar(self):
        costs = np.array([c for c, _ in self.BOUNDARIES])
        codes = classify_costs(costs)
        assert [int(c) + 1 for c in codes] == [int(s) for _, s in self.BOUNDARIES]

    @pytest.mark.parametrize("bad", [-1, float("nan"), float("inf")])
    def test_rejects_bad_costs(self, bad):
        with pytest.raises(InvalidInputError):
            classify_cost(bad)

    @given(st.integers(min_value=0, max_value=10_000_000))
    def test_total_on_integers(self, cost):
        state = classify_cost(cost)
        lo, hi = StateThresholds().interval(state)
        assert lo <= cost and (hi is None or cost <= hi)

    @given(
        st.integers(min_value=0, max_value=10_000_000),
        st.integers(min_value=0, max_value=10_000_000),
    )
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert classify_cost(lo) <= classify_cost(hi)

    @given(st.integers(min_value=0, max_value=10_000_000))
    def test_partition(self, cost):
        thresholds = StateThresholds()
        inside = [
            s for s in HealthState
            if thresholds.interval(s)[0] <= cost
            and (thresholds.interval(s)[1] is None or cost <= thresholds.interval(s)[1])
        ]
        assert len(inside) == 1

    def test_custom_thresholds(self):
        merged = StateThresholds((100, 200, 300, 400))
        assert classify_cost(150, merged) is HealthState.Q2
        assert classify_cost(401, merged) is HealthState.Q5

    def test_thresholds_must_increase(self):
        with pytest.raises(ConfigError):
            StateThresholds((100, 100, 300, 400))
        with pytest.raises(ConfigError):
            StateThresholds((-1, 100, 300, 400))


class TestRepresentativeCost:
    def test_q1_midpoint(self):
        # (0 + 7800) / 2
        assert representative_cost(HealthState.Q1) == 3_900.0

    def test_q4_midpoint(self):
        # (54001 + 266999) / 2
        assert representative_cost(HealthState.Q4) == 160_500.0

    def test_q5_is_the_free_parameter(self):
        assert representative_cost(HealthState.Q5, q5_value=267_000) == 267_000.0
        assert representative_cost(HealthState.Q5, q5_value=1_000_000) == 1_000_000.0

    def test_q5_below_band_edge_rejected(self):
        with pytest.raises(ConfigError):
            representative_cost(HealthState.Q5, q5_value=266_999)
        with pytest.raises(ConfigError):
            representative_cost(HealthState.Q1, q5_value=100)

    @pytest.mark.parametrize("state", [HealthState.Q1, HealthState.Q2, HealthState.Q3, HealthState.Q4])
    def test_midpoints_inside_their_band(self, state):
        thresholds = StateThresholds()
        value = representative_cost(state)
        lo, hi = thresholds.interval(state)
        assert lo <= value <= hi


class TestCostVector:
    def test_from_thresholds_defaults(self):
        cv = CostVector.from_thresholds()
        assert cv.values == (3_900.0, 15_900.5, 39_000.5, 160_500.0, 267_000.0)
        assert cv.q5 == 267_000.0
        assert cv[HealthState.Q4] == 160_500.0

    def test_rejects_decreasing(self):
        with pytest.raises(ConfigError):
            CostVector((5.0, 4.0, 6.0, 7.0, 8.0))

    def test_rejects_nonpositive_upper_states(self):
        with pytest.raises(ConfigError):
            CostVector((0.0, 0.0, 1.0, 2.0, 3.0))

    def test_q1_zero_allowed(self):
        cv = CostVector((0.0, 1.0, 2.0, 3.0, 4.0))
        assert cv[HealthState.Q1] == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", range(5))
    def test_rejects_non_finite(self, bad, position):
        # NaN passes every ordering check, and inf is non-decreasing at the top
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        values[position] = bad
        with pytest.raises(ConfigError, match="finite"):
            CostVector(tuple(values))

    @pytest.mark.parametrize("q5", [float("nan"), float("inf")])
    def test_from_thresholds_rejects_non_finite_q5(self, q5):
        with pytest.raises(ConfigError, match="finite"):
            CostVector.from_thresholds(q5_value=q5)


class TestStartStates:
    """Start pairs and start states are read by the estimators' one state parser."""

    TRUTH = sticky_top_chain(entry_age=20, exit_age=26, seed=3)
    FAMILY = TRUTH.lifted_family()
    START_AGE = min(FAMILY) - 1
    COSTS = CostVector.from_thresholds()

    ENTRY_POINTS = {
        "pair_index": lambda s: pair_index(HealthState.Q1, s),
        "pair_label": lambda s: pair_label((s, HealthState.Q5)),
        "project_cumulative": lambda s: project_cumulative(
            TestStartStates.FAMILY, TestStartStates.COSTS, TestStartStates.START_AGE, (s, 5), 2),
        "iterate_forward": lambda s: iterate_forward(
            TestStartStates.FAMILY, TestStartStates.START_AGE, ("Q1", s), 2),
        "enumerate_expectation": lambda s: enumerate_expectation(
            TestStartStates.TRUTH, TestStartStates.COSTS, (s, HealthState.Q5),
            TestStartStates.START_AGE, 2),
        "representative_cost": lambda s: representative_cost(s),
    }

    @pytest.mark.parametrize("bad", [1.9, True, 0, 6, "Q9", None])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_bad_start_raises_naming_it(self, entry, bad):
        with pytest.raises(InvalidInputError, match=re.escape(f"not a health state: {bad!r}")):
            self.ENTRY_POINTS[entry](bad)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_names_and_ints_give_the_results_of_health_states(self, entry):
        want = repr(self.ENTRY_POINTS[entry](HealthState.Q2))
        for form in (2, np.int64(2), np.uint8(2), "Q2"):
            assert repr(self.ENTRY_POINTS[entry](form)) == want, form
