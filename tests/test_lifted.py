import itertools

import numpy as np
import pytest

from healthmarkov.errors import HorizonError, InvalidInputError, UnsupportedCellError
from healthmarkov.estimate import TransitionTensor, estimate_order2_family
from healthmarkov.lifted import (
    current_cost_weights,
    lift,
    lift_family,
    pair_from_index,
    pair_index,
    project_cumulative,
    shock_cost_difference,
)
from healthmarkov.persistency import iterate_forward
from healthmarkov.states import CostVector, HealthState
from healthmarkov.synthetic import generate_panel, random_chain

Q = HealthState
COSTS = CostVector.from_thresholds()


def uniform_tensor():
    return np.full((5, 5, 5), 0.2)


def brute_pair_distribution(tensors, start, k):
    """Pair distribution after k steps via explicit path enumeration."""
    i0 = int(start[0]) - 1
    j0 = int(start[1]) - 1
    dist = np.zeros(25)
    for path in itertools.product(range(5), repeat=k):
        prob = 1.0
        i, j = i0, j0
        for step, nxt in enumerate(path):
            prob *= tensors[step][i, j, nxt]
            i, j = j, nxt
        dist[5 * i + j] += prob
    return dist


class TestPairIndexing:
    def test_previous_major_order(self):
        assert pair_index(Q.Q1, Q.Q1) == 0
        assert pair_index(Q.Q1, Q.Q5) == 4
        assert pair_index(Q.Q2, Q.Q1) == 5
        assert pair_index(Q.Q5, Q.Q5) == 24

    def test_round_trip(self):
        for idx in range(25):
            assert pair_index(*pair_from_index(idx)) == idx

    def test_cost_weights_pick_current_coordinate(self):
        w = current_cost_weights(COSTS)
        for idx in range(25):
            _, current = pair_from_index(idx)
            assert w[idx] == COSTS[current]


class TestLift:
    def test_uniform_tensor_five_entries_per_column(self):
        lm = lift(uniform_tensor())
        lm.validate()
        for col in range(25):
            column = lm.probs[:, col]
            assert (column[column > 0] == 0.2).all()
            assert (column > 0).sum() == 5

    def test_structural_zeros(self):
        lm = lift(uniform_tensor())
        for col in range(25):
            j = col % 5
            for row in range(25):
                if row // 5 != j:
                    assert lm.probs[row, col] == 0.0

    def test_deterministic_tensor_fixes_current(self):
        # j' = j: the pair (i, j) moves to (j, j) with certainty
        t = np.zeros((5, 5, 5))
        for i in range(5):
            for j in range(5):
                t[i, j, j] = 1.0
        lm = lift(t)
        for i in range(5):
            for j in range(5):
                out = lm.probs @ np.eye(25)[pair_index(i + 1, j + 1)]
                expected = np.zeros(25)
                expected[5 * j + j] = 1.0
                np.testing.assert_array_equal(out, expected)

    def test_three_step_distribution_equals_enumeration(self):
        rng = np.random.default_rng(5)
        tensors = rng.dirichlet([1.0] * 5, size=(3, 5, 5))
        lms = [lift(t) for t in tensors]
        v = np.eye(25)[pair_index(Q.Q2, Q.Q4)]
        for lm in lms:
            v = lm.probs @ v
        brute = brute_pair_distribution(tensors, (Q.Q2, Q.Q4), 3)
        np.testing.assert_allclose(v, brute, rtol=0, atol=1e-14)

    def test_mass_conserved_and_zeros_compose(self):
        rng = np.random.default_rng(6)
        t = rng.dirichlet([0.5] * 5, size=(5, 5))
        lm = lift(t)
        power = np.eye(25)
        for k in range(1, 7):
            power = lm.probs @ power
            np.testing.assert_allclose(power.sum(axis=0), 1.0, atol=1e-10)
            # one-step reachability: (i,j) -> (j, *); k-step zero pattern must
            # stay inside the brute-force reachable set
            for col in range(25):
                brute = brute_pair_distribution([t] * k, pair_from_index(col), k)
                assert (power[brute == 0.0, col] <= 1e-15).all()

    def test_tensor_from_estimates_keeps_counts(self):
        truth = random_chain(3, entry_age=20, exit_age=26)
        panel = generate_panel(truth, 400)
        tensors = estimate_order2_family(panel)
        fam = lift_family(tensors)
        age = min(fam)
        assert fam[age].counts is not None
        fam[age].validate(atol=1e-9)

    def test_unsupported_slices_flag_columns(self):
        counts = np.zeros((5, 5, 5), dtype=np.int64)
        counts[0, 0, 1] = 10
        tensor = TransitionTensor(age=30, probs=counts / 10.0, counts=counts)
        lm = lift(tensor)
        assert lm.supported[pair_index(Q.Q1, Q.Q1)]
        assert not lm.supported[pair_index(Q.Q2, Q.Q1)]

    def test_fully_unsupported_tensor_rejected(self):
        counts = np.zeros((5, 5, 5), dtype=np.int64)
        tensor = TransitionTensor(age=30, probs=np.zeros((5, 5, 5)), counts=counts)
        with pytest.raises(UnsupportedCellError):
            lift(tensor)

    def test_unnormalized_raw_tensor_rejected(self):
        bad = np.full((5, 5, 5), 0.1)
        with pytest.raises(InvalidInputError):
            lift(bad)


def period_expectation(lm, start, k, costs=COSTS):
    """Expected cost in period k on the homogeneous family {1: lm, ..., k: lm}."""
    family = {age: lm for age in range(1, k + 1)}
    return project_cumulative(family, costs, 0, start, k).per_period[k - 1]


class TestPeriodExpectation:
    def test_absorbing_top_pair(self):
        t = np.zeros((5, 5, 5))
        t[:, :, 4] = 1.0  # everything moves to the top state
        lm = lift(t)
        for k in (1, 2, 5):
            got = period_expectation(lm, (Q.Q5, Q.Q5), k)
            assert got == pytest.approx(267_000.0, abs=1e-9)

    def test_uniform_one_step_is_mean_cost(self):
        lm = lift(uniform_tensor())
        got = period_expectation(lm, (Q.Q3, Q.Q2), 1)
        assert got == pytest.approx(float(np.mean(COSTS.as_array())), abs=1e-9)

    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_homogeneous_step_matches_enumeration(self, k):
        rng = np.random.default_rng(9)
        t = rng.dirichlet([1.0] * 5, size=(5, 5))
        lm = lift(t)
        m = COSTS.as_array()
        for start in ((Q.Q1, Q.Q1), (Q.Q2, Q.Q5)):
            got = period_expectation(lm, start, k)
            dist = brute_pair_distribution([t] * k, start, k)
            want = sum(dist[idx] * m[idx % 5] for idx in range(25))
            assert abs(got - want) / max(abs(want), 1.0) < 1e-10

    def test_linear_in_costs(self):
        rng = np.random.default_rng(10)
        t = rng.dirichlet([1.0] * 5, size=(5, 5))
        lm = lift(t)
        base = period_expectation(lm, (Q.Q1, Q.Q2), 3)
        scaled_costs = CostVector(tuple(3.0 * v for v in COSTS.values))
        assert period_expectation(lm, (Q.Q1, Q.Q2), 3, scaled_costs) == pytest.approx(3 * base, rel=1e-12)

    def test_family_horizon_error(self):
        truth = random_chain(1, entry_age=20, exit_age=26)
        fam = truth.lifted_family()
        with pytest.raises(HorizonError):
            project_cumulative(fam, COSTS, 21, (Q.Q1, Q.Q1), 10)

    def test_bad_k(self):
        lm = lift(uniform_tensor())
        with pytest.raises(InvalidInputError):
            project_cumulative({1: lm}, COSTS, 0, (Q.Q1, Q.Q1), 0)


class TestProjection:
    def test_stay_in_bottom_state_costs_ten_years_of_q1(self):
        t = np.zeros((5, 5, 5))
        for i in range(5):
            for j in range(5):
                t[i, j, 0] = 1.0
        fam = {age: lift(t, age=age) for age in range(21, 41)}
        res = project_cumulative(fam, COSTS, 25, (Q.Q1, Q.Q1), horizon=10)
        assert res.cumulative == pytest.approx(10 * COSTS[Q.Q1], rel=1e-12)
        assert res.per_period == pytest.approx([COSTS[Q.Q1]] * 10)

    def test_cumulative_is_sum_of_periods(self):
        truth = random_chain(14, entry_age=20, exit_age=40)
        fam = truth.lifted_family()
        res = project_cumulative(fam, COSTS, 25, (Q.Q1, Q.Q5), horizon=10)
        assert res.cumulative == pytest.approx(sum(res.per_period), rel=1e-12)
        assert res.q5_value == COSTS.q5

    def test_checks_horizon_before_stepping(self):
        truth = random_chain(14, entry_age=20, exit_age=28)
        fam = truth.lifted_family()
        with pytest.raises(HorizonError):
            project_cumulative(fam, COSTS, 25, (Q.Q1, Q.Q5), horizon=10)

    def test_unavailable_column_on_path_raises(self):
        counts = np.zeros((5, 5, 5), dtype=np.int64)
        counts[0, 0] = [5, 5, 0, 0, 0]  # (Q1,Q1) supported, lands on (Q1,Q2) too
        counts[0, 1] = [10, 0, 0, 0, 0]  # (Q1,Q2) supported
        # (Q2,Q1) never observed -> unsupported column
        probs = np.zeros((5, 5, 5))
        probs[0, 0] = counts[0, 0] / 10.0
        probs[0, 1] = counts[0, 1] / 10.0
        tensor = TransitionTensor(age=0, probs=probs, counts=counts)
        fam = {age: lift(tensor, age=age) for age in range(21, 31)}
        # (Q2,Q1) is unobserved at every age of its bin, so pooling cannot help
        with pytest.raises(UnsupportedCellError, match=r"pair column \(Q2,Q1\) unsupported at age 23 even pooled"):
            project_cumulative(fam, COSTS, 20, (Q.Q1, Q.Q1), horizon=3)

    def test_operators_without_counts_say_there_is_nothing_to_pool(self):
        probs = np.zeros((5, 5, 5))
        probs[0, 0] = [0.5, 0.5, 0, 0, 0]  # (Q1,Q1) lands on (Q1,Q2) too
        probs[0, 1] = [1.0, 0, 0, 0, 0]  # (Q1,Q2) lands on (Q2,Q1), never supported
        fam = {age: lift(probs, age=age) for age in range(21, 26)}
        assert all(op.counts is None for op in fam.values())
        want = "pair column (Q2,Q1) unsupported at age 23 and no operator in its 5-year bin keeps counts to pool"
        with pytest.raises(UnsupportedCellError) as projected:
            project_cumulative(fam, COSTS, 20, (Q.Q1, Q.Q1), horizon=3)
        with pytest.raises(UnsupportedCellError) as forecast:
            iterate_forward(fam, 20, (Q.Q1, Q.Q1), 3)
        assert str(projected.value) == str(forecast.value) == want

    def test_to_dict_shape(self):
        truth = random_chain(15, entry_age=20, exit_age=40)
        fam = truth.lifted_family()
        doc = project_cumulative(fam, COSTS, 22, (Q.Q1, Q.Q5), horizon=5).to_dict()
        assert doc["start_pair"] == ["Q1", "Q5"]
        assert len(doc["per_period"]) == 5
        assert set(doc) == {"start_age", "start_pair", "q5_value", "per_period", "cumulative"}


def counted_operator(age, counts):
    totals = counts.sum(axis=2, keepdims=True)
    probs = np.divide(counts, totals, out=np.zeros((5, 5, 5)), where=totals > 0)
    return lift(TransitionTensor(age=age, probs=probs, counts=counts), age=age)


def pooling_family(q1q2_at_34):
    """Ages 29-32 and 34; the (Q1,Q2) pair is observed only at 29 and, if given, at 34.

    A projection from (Q1,Q1) at 30 reaches (Q1,Q2) at 31 and needs its
    column at 32, pooled over the 30-34 bin: from age 34 only, outside a
    two-period horizon.  Age 29 lies in the 25-29 bin and must not count.
    """
    rng = np.random.default_rng(21)
    family = {}
    for age in (29, 30, 31, 32, 34):
        counts = rng.integers(1, 9, size=(5, 5, 5))
        counts[0, 1] = 0
        family[age] = counts
    family[29][0, 1] = [0, 0, 0, 0, 7]
    if q1q2_at_34 is not None:
        family[34][0, 1] = q1q2_at_34
    return {age: counted_operator(age, counts) for age, counts in family.items()}


class TestPooledProjection:
    START = (Q.Q1, Q.Q1)

    def full_family_pooling(self, family, start_age, horizon):
        weights = current_cost_weights(COSTS)
        forecast = iterate_forward(family, start_age, self.START, horizon)
        return [float(weights.dot(v)) for v in forecast.distributions[1:]]

    def test_pools_from_a_bin_age_outside_the_horizon(self):
        family = pooling_family([0, 0, 3, 1, 0])
        want = self.full_family_pooling(family, 30, 2)
        # first call, then a memo hit
        for _ in range(2):
            assert project_cumulative(family, COSTS, 30, self.START, horizon=2).per_period == want
        # the horizon's operators alone cannot pool that column
        with pytest.raises(UnsupportedCellError):
            iterate_forward({age: family[age] for age in (31, 32)}, 30, self.START, 2)

    def test_memo_tells_families_apart_by_their_bin_ages(self):
        family = pooling_family([0, 0, 3, 1, 0])
        other = dict(family)
        other[34] = pooling_family([9, 0, 0, 0, 1])[34]
        first = project_cumulative(family, COSTS, 30, self.START, horizon=2).per_period
        second = project_cumulative(other, COSTS, 30, self.START, horizon=2).per_period
        assert second == self.full_family_pooling(other, 30, 2)
        assert first[0] == second[0] and first[1] != second[1]

    def test_empty_bin_raises_the_same_error_every_call(self):
        family = pooling_family(None)
        messages = set()
        for _ in range(3):
            with pytest.raises(UnsupportedCellError) as err:
                project_cumulative(family, COSTS, 30, self.START, horizon=2)
            messages.add(str(err.value))
        assert messages == {"pair column (Q1,Q2) unsupported at age 32 even pooled over its 5-year bin"}


class TestShockCostDifference:
    def test_identical_columns_zero_difference(self):
        # same outgoing distribution from every pair: the start is irrelevant
        row = np.array([0.3, 0.3, 0.2, 0.1, 0.1])
        t = np.broadcast_to(row, (5, 5, 5)).copy()
        fam = {age: lift(t, age=age) for age in range(21, 41)}
        diff = shock_cost_difference(fam, COSTS, 25, horizon=10)
        assert diff == pytest.approx(0.0, abs=1e-9)

    def test_monotone_chain_positive_difference(self):
        low = np.array([0.6, 0.2, 0.1, 0.06, 0.04])
        high = np.array([0.04, 0.06, 0.1, 0.2, 0.6])
        t = np.zeros((5, 5, 5))
        for i in range(5):
            for j in range(5):
                lam = (i + j) / 8.0
                t[i, j] = (1 - lam) * low + lam * high
        fam = {age: lift(t, age=age) for age in range(21, 41)}
        assert shock_cost_difference(fam, COSTS, 25, horizon=10) > 0
