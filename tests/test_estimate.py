import math
import re

import numpy as np
import pytest

from healthmarkov.errors import (
    DegenerateFitError,
    EmptyCohortError,
    InvalidInputError,
)
from healthmarkov.estimate import (
    _target_codes,
    ar_regression,
    conditional_cost_quantiles,
    estimate_order1,
    estimate_order1_family,
    estimate_order2,
    estimate_order2_family,
    exceedance_proportions,
    five_year_groups,
    multi_year_state_frequency,
    pool_order1,
    shock_frequency,
    state_fractions,
)
from healthmarkov.panel import Panel
from healthmarkov.states import MISSING, HealthState, _state_code
from healthmarkov.synthetic import generate_panel, order1_consistent_chain, random_chain

from conftest import collinear_cost_panel, make_panel, panel_from_costs, sticky_top_chain

Q = HealthState


def cycle_panel(n=10, n_ages=6, entry_age=30):
    """Every person walks Q1 -> Q2 -> ... -> Q5 -> Q1 -> ..."""
    states = np.fromfunction(lambda p, k: k % 5, (n, n_ages), dtype=np.int64)
    return make_panel(states.astype(np.int8), entry_age=entry_age)


class TestOrder1:
    def test_deterministic_cycle_gives_permutation(self):
        panel = cycle_panel()
        m = estimate_order1(panel, 31)
        expected = np.zeros((5, 5))
        expected[0, 1] = 1.0
        assert m.counts[0, 1] == 10
        np.testing.assert_allclose(m.probs[0], expected[0])
        assert m.supported.tolist() == [True, False, False, False, False]

    def test_all_stay_top(self):
        panel = make_panel(np.full((7, 3), 4, dtype=np.int8))
        m = estimate_order1(panel, 31)
        np.testing.assert_allclose(m.probs[4], [0, 0, 0, 0, 1])

    def test_missing_excluded_from_denominator(self):
        states = [[0, 0], [0, -1], [0, 1]]
        m = estimate_order1(make_panel(states), 31)
        assert m.totals[0] == 2
        np.testing.assert_allclose(m.probs[0], [0.5, 0.5, 0, 0, 0])

    def test_rows_sum_to_one(self, rng):
        truth = random_chain(3, entry_age=20, exit_age=30, attrition=0.1)
        panel = generate_panel(truth, 500)
        for age, m in estimate_order1_family(panel).items():
            sums = m.probs.sum(axis=1)
            np.testing.assert_allclose(sums[m.supported], 1.0, atol=1e-12)
            assert (m.probs[~m.supported] == 0).all()

    def test_no_pairs_raises(self):
        panel = make_panel([[0, 0]])
        with pytest.raises(EmptyCohortError):
            estimate_order1(panel, 99)

    def test_recovery_within_3_sigma(self):
        truth = random_chain(11, entry_age=20, exit_age=24)
        panel = generate_panel(truth, 40_000)
        m = estimate_order1(panel, 23)
        # truth order-1 rows at age 23 are mixtures; check via pair composition instead:
        # every row with solid support should match the empirical tensor marginal
        t = estimate_order2(panel, 23)
        marg = t.counts.sum(axis=0)
        np.testing.assert_array_equal(marg, m.counts)

    def test_permutation_invariance(self, rng):
        truth = random_chain(5, entry_age=30, exit_age=34)
        panel = generate_panel(truth, 300)
        perm = rng.permutation(panel.n_persons)
        shuffled = Panel(
            panel.person_ids[perm], panel.birth_years[perm], panel.age_min,
            panel.states[perm], panel.costs[perm], panel.months[perm],
        )
        for age in (31, 32, 33):
            np.testing.assert_array_equal(
                estimate_order1(panel, age).counts, estimate_order1(shuffled, age).counts
            )

    def test_sharding_pools_to_the_full_panel(self):
        truth = random_chain(6, entry_age=30, exit_age=35)
        panel = generate_panel(truth, 401)
        half = panel.n_persons // 2
        shards = [
            Panel(panel.person_ids[s], panel.birth_years[s], panel.age_min,
                  panel.states[s], panel.costs[s], panel.months[s])
            for s in (slice(None, half), slice(half, None))
        ]
        for age in (32, 34):
            whole = estimate_order1(panel, age).counts
            pooled = sum(estimate_order1(shard, age).counts for shard in shards)
            np.testing.assert_array_equal(whole, pooled)


class TestOrder2:
    def test_rule_next_equals_past(self):
        # deterministic second-order behaviour j' = i is invisible to order 1
        states = np.zeros((4, 6), dtype=np.int8)
        starts = [(0, 1), (1, 2), (2, 3), (3, 4)]
        for p, (i, j) in enumerate(starts):
            states[p, 0], states[p, 1] = i, j
            for k in range(2, 6):
                states[p, k] = states[p, k - 2]
        panel = make_panel(states)
        t = estimate_order2(panel, 32)
        for i, j in starts:
            np.testing.assert_allclose(t.probs[i, j], np.eye(5)[i])

    def test_slices_sum_to_one(self):
        truth = random_chain(9, entry_age=20, exit_age=28, attrition=0.05)
        panel = generate_panel(truth, 800)
        for age, t in estimate_order2_family(panel).items():
            sums = t.probs.sum(axis=2)
            np.testing.assert_allclose(sums[t.supported], 1.0, atol=1e-12)

    def test_marginalizing_reproduces_order1_counts(self):
        # trailing-only missingness and a common entry age guarantee that
        # every (t-1, t) pair also has t-2 observed for t >= entry + 2
        truth = random_chain(13, entry_age=20, exit_age=30, attrition=0.15)
        panel = generate_panel(truth, 2_000)
        for age in range(22, 31):
            t = estimate_order2(panel, age)
            m = estimate_order1(panel, age)
            np.testing.assert_array_equal(t.counts.sum(axis=0), m.counts)

    def test_order1_data_has_equal_slices(self):
        truth = order1_consistent_chain(21, entry_age=20, exit_age=26)
        panel = generate_panel(truth, 60_000)
        t = estimate_order2(panel, 24)
        for j in range(5):
            rows = t.probs[:, j, :][t.supported[:, j]]
            ns = t.totals[:, j][t.supported[:, j]]
            if len(rows) < 2:
                continue
            pooled = t.counts[:, j, :].sum(axis=0) / t.counts[:, j, :].sum()
            for row, n in zip(rows, ns):
                se = np.sqrt(np.maximum(pooled * (1 - pooled), 1e-12) / n)
                assert (np.abs(row - pooled) <= 3 * se + 1e-9).all()

    def test_sticky_chain_slices_differ(self):
        truth = sticky_top_chain(entry_age=20, exit_age=30)
        panel = generate_panel(truth, 100_000)
        t = estimate_order2(panel, 26)
        # conditioning on the older state changes top-state retention by >= 0.3
        assert t.probs[4, 4, 4] - t.probs[0, 4, 4] >= 0.3


class TestFamilies:
    def test_keys_are_the_ages_with_counts(self):
        # ages 30..36; age 33 is missing, so no transition lands in 33 or 34
        # and no second-order one in 35
        panel = make_panel([[0, 1, 2, -1, 2, 3, 4], [-2, 0, 0, -1, -2, -2, -2]])
        order1 = estimate_order1_family(panel)
        order2 = estimate_order2_family(panel)
        assert sorted(order1) == [31, 32, 35, 36]
        assert sorted(order2) == [32, 36]
        for family, single in ((order1, estimate_order1), (order2, estimate_order2)):
            for age, est in family.items():
                assert est.age == age
                np.testing.assert_array_equal(est.counts, single(panel, age).counts)


class TestStateFractions:
    def test_all_bottom(self):
        panel = make_panel(np.zeros((5, 4), dtype=np.int8), entry_age=20)
        fractions, n = state_fractions(panel, (20, 24))
        np.testing.assert_allclose(fractions, [1, 0, 0, 0, 0])
        assert n == 20

    def test_uniform_generator_within_binomial_bounds(self):
        rng = np.random.default_rng(99)
        states = rng.integers(0, 5, size=(4_000, 5)).astype(np.int8)
        panel = make_panel(states, entry_age=20)
        fractions, n = state_fractions(panel, (20, 24))
        se = math.sqrt(0.2 * 0.8 / n)
        assert np.abs(fractions - 0.2).max() <= 3 * se

    def test_empty_group(self):
        panel = make_panel([[0, 1]], entry_age=20)
        with pytest.raises(EmptyCohortError):
            state_fractions(panel, (50, 54))

    def test_sums_to_one(self):
        truth = random_chain(2, entry_age=20, exit_age=30, attrition=0.1)
        panel = generate_panel(truth, 300)
        fractions, _ = state_fractions(panel, (20, 29))
        assert abs(fractions.sum() - 1.0) < 1e-12

    def test_equal_to_a_gather_of_the_observed_cells(self):
        rng = np.random.default_rng(7)
        states = rng.integers(-2, 5, size=(500, 9)).astype(np.int8)
        panel = make_panel(states, entry_age=20)
        for group in [(20, 28), (22, 24), (25, 25), (18, 21), (27, 40)]:
            lo, hi = max(group[0], 20), min(group[1], 28)
            block = states[:, lo - 20 : hi - 20 + 1]
            observed = block[block >= 0]
            counts = np.bincount(observed, minlength=5)
            fractions, n = state_fractions(panel, group)
            assert n == observed.size
            assert fractions.tobytes() == (counts / counts.sum()).tobytes()

    def test_group_of_markers_only_is_empty(self):
        panel = make_panel([[0, -1, -2, 1], [2, -2, -1, 3]], entry_age=20)
        with pytest.raises(EmptyCohortError, match="no observations"):
            state_fractions(panel, (21, 22))


class TestShockFrequency:
    def test_categories_sum_to_one(self):
        truth = random_chain(31, entry_age=20, exit_age=30, attrition=0.2)
        panel = generate_panel(truth, 500)
        curve = shock_frequency(panel, (("Q1",),), ("Q5",))
        total = np.zeros(len(curve.ages))
        for shares in curve.breakdown.values():
            total += shares
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_full_target_including_missing_is_one(self):
        truth = random_chain(31, entry_age=20, exit_age=28, attrition=0.2)
        panel = generate_panel(truth, 400)
        curve = shock_frequency(panel, ((Q.Q1,),), (Q.Q1, Q.Q2, Q.Q3, Q.Q4, Q.Q5, MISSING))
        np.testing.assert_allclose(curve.values, 1.0, atol=1e-12)

    def test_known_probability_recovered(self):
        truth = order1_consistent_chain(17, entry_age=20, exit_age=26)
        p_target = truth.tensors[2][0, 0, 4]  # p(Q5 | Q1) into age 24
        panel = generate_panel(truth, 50_000)
        curve = shock_frequency(panel, ((Q.Q1,),), (Q.Q5,))
        k = curve.ages.index(24)
        n = curve.denominators[k]
        se = math.sqrt(p_target * (1 - p_target) / n)
        assert abs(curve.values[k] - p_target) <= 3 * se

    def test_two_year_condition(self):
        states = [[0, 0, 4], [0, 0, 0], [1, 0, 4]]
        panel = make_panel(states, entry_age=30)
        curve = shock_frequency(panel, ((Q.Q1,), (Q.Q1,)), (Q.Q5,))
        assert curve.ages == [32]
        assert curve.denominators[0] == 2  # third person fails the t-2 condition
        assert curve.values[0] == 0.5

    def test_missing_reported_separately(self):
        states = [[0, 4], [0, -1], [0, 0], [0, -1]]
        panel = make_panel(states, entry_age=30)
        curve = shock_frequency(panel, ((Q.Q1,),), (Q.Q5,))
        assert curve.denominators[0] == 4
        assert curve.breakdown[MISSING][0] == 0.5
        assert curve.values[0] == 0.25

    def test_empty_condition_age_omitted(self):
        states = [[4, 4, 0, 1]]
        panel = make_panel(states, entry_age=30)
        curve = shock_frequency(panel, ((Q.Q1,),), (Q.Q5,))
        assert curve.ages == [33]


class TestConditionalCostQuantiles:
    def test_constant_costs(self):
        states = np.zeros((6, 3), dtype=np.int8)
        costs = np.full((6, 3), 5_000, dtype=np.int64)
        panel = make_panel(states, costs=costs, entry_age=30)
        s = conditional_cost_quantiles(panel, (30, 34), Q.Q1, (0.1, 0.5, 0.9))
        assert s.n == 12
        assert set(s.quantiles.values()) == {5_000.0}
        assert s.mean == 5_000.0 and s.sd == 0.0

    def test_uniform_median_near_center(self):
        rng = np.random.default_rng(4)
        n = 40_000
        costs = np.column_stack([
            np.zeros(n, dtype=np.int64),
            rng.integers(0, 1_000_000, size=n),
        ])
        panel = panel_from_costs(costs, entry_age=30)
        s = conditional_cost_quantiles(panel, (31, 31), Q.Q1, (0.5,))
        # sd of the sample median of n uniforms ~ 1 / (2 f sqrt(n)) = 1e6 / (2 sqrt(n))
        tol = 4 * 1_000_000 / (2 * math.sqrt(n))
        assert abs(s.quantiles[0.5] - 500_000) < tol

    def test_empty_cell_unavailable(self):
        panel = make_panel([[4, 4]], entry_age=30)
        s = conditional_cost_quantiles(panel, (30, 34), Q.Q1)
        assert not s.available and s.n == 0
        assert s.mean is None

    def test_path_restriction(self):
        states = [[0, 4], [0, 1], [4, 4]]
        costs = [[100, 300_000], [100, 9_000], [300_000, 400_000]]
        panel = make_panel(states, costs=costs, entry_age=30)
        s = conditional_cost_quantiles(panel, (31, 31), Q.Q1, current_state=Q.Q5)
        assert s.n == 1 and s.mean == 300_000.0

    def test_log_cdf_counts_zero_mass(self):
        states = [[0, 0], [0, 0], [0, 0], [0, 0]]
        costs = [[0, 0], [0, 10], [0, 100], [0, 1_000]]
        panel = make_panel(states, costs=costs, entry_age=30)
        s = conditional_cost_quantiles(panel, (31, 31), Q.Q1, want_log_cdf=True)
        assert s.log_cdf == [(1.0, 0.5), (2.0, 0.75), (3.0, 1.0)]

    def test_bad_quantile(self):
        panel = make_panel([[0, 0]])
        with pytest.raises(InvalidInputError):
            conditional_cost_quantiles(panel, (30, 31), Q.Q1, (0.0,))


class TestExceedance:
    def test_threshold_at_band_edge_is_one(self):
        truth = random_chain(41, entry_age=20, exit_age=30, cost_model="uniform")
        panel = generate_panel(truth, 2_000)
        rows = exceedance_proportions(panel, (Q.Q1, Q.Q5), [267_000])
        for row in rows:
            if row.available:
                assert row.proportions[267_000] == 1.0

    def test_threshold_below_edge_rejected(self):
        panel = make_panel([[0, 4]], entry_age=30)
        with pytest.raises(InvalidInputError):
            exceedance_proportions(panel, (Q.Q1, Q.Q5), [100_000])

    def test_lognormal_tail_matches_closed_form(self):
        rng = np.random.default_rng(8)
        n = 60_000
        mu, sigma = 12.0, 1.0
        arrivals = 267_000 + np.floor(rng.lognormal(mu, sigma, size=n)).astype(np.int64)
        costs = np.column_stack([np.zeros(n, dtype=np.int64), arrivals])
        panel = panel_from_costs(costs, entry_age=30)
        rows = exceedance_proportions(panel, (Q.Q1, Q.Q5), [500_000, 1_000_000],
                                      age_groups=[(30, 34)])
        for threshold in (500_000, 1_000_000):
            z = (math.log(threshold - 267_000) - mu) / sigma
            expected = 0.5 * math.erfc(z / math.sqrt(2))
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(rows[0].proportions[threshold] - expected) <= 3 * se + 1.0 / n

    def test_empty_path_unavailable(self):
        panel = make_panel([[0, 0]], entry_age=30)
        row = exceedance_proportions(panel, (Q.Q5, Q.Q5), [300_000], age_groups=[(30, 34)])[0]
        assert not row.available


class TestMultiYear:
    def test_absorbing_top_state_is_flat(self):
        states = np.full((9, 6), 4, dtype=np.int8)
        panel = make_panel(states, entry_age=30)
        paths = multi_year_state_frequency(panel, (Q.Q5,), (Q.Q5,), 4, age_groups=[(30, 31)])
        np.testing.assert_allclose(paths[(30, 31)].values, 1.0)

    def test_matches_matrix_power_prediction(self):
        truth = order1_consistent_chain(12, entry_age=20, exit_age=30)
        panel = generate_panel(truth, 60_000)
        paths = multi_year_state_frequency(panel, (Q.Q5,), (Q.Q5,), 4, age_groups=[(22, 22)])
        path = paths[(22, 22)]
        # truth product over target ages 23..26; tensors[s] feeds age 22 + s
        v = np.eye(5)[4]
        for target_age in range(23, 27):
            v = v @ truth.tensors[target_age - 22][0]
        predicted = v[4]
        n = path.denominators[-1]
        se = math.sqrt(predicted * (1 - predicted) / n)
        assert abs(path.values[-1] - predicted) <= 3 * se

    def test_survivors_only_denominators(self):
        states = [[4, 4, 4], [4, -1, -1], [4, 4, -1]]
        panel = make_panel(states, entry_age=30)
        paths = multi_year_state_frequency(panel, (Q.Q5,), (Q.Q5,), 2, age_groups=[(30, 30)])
        path = paths[(30, 30)]
        np.testing.assert_array_equal(path.denominators, [2, 1])
        np.testing.assert_allclose(path.values, [1.0, 1.0])

    def test_two_state_condition(self):
        states = [[0, 4, 4], [4, 4, 0]]
        panel = make_panel(states, entry_age=30)
        paths = multi_year_state_frequency(panel, (Q.Q1, Q.Q5), (Q.Q5,), 1, age_groups=[(31, 31)])
        path = paths[(31, 31)]
        np.testing.assert_array_equal(path.denominators, [1])
        np.testing.assert_allclose(path.values, [1.0])

    def test_all_attrited_unavailable(self):
        states = [[4, -1, -1]]
        panel = make_panel(states, entry_age=30)
        path = multi_year_state_frequency(panel, (Q.Q5,), (Q.Q5,), 2, age_groups=[(30, 30)])[(30, 30)]
        assert path.denominators.tolist() == [0, 0]
        assert np.isnan(path.values).all()


class TestARRegression:
    @staticmethod
    def ar_panel(seed, n=4_000, ages=(20, 30), coef=(0.5,), year_effect=0.0, noise=5_000.0,
                 cohorts=(2005,)):
        rng = np.random.default_rng(seed)
        lo, hi = ages
        n_ages = hi - lo + 1
        order = len(coef)
        costs = np.zeros((n, n_ages))
        stationary_mean = 50_000 / (1 - sum(coef))
        for k in range(n_ages):
            drift = 50_000 + sum(
                c * costs[:, k - i - 1] for i, c in enumerate(coef) if k - i - 1 >= 0
            )
            if k < order:
                drift = stationary_mean
            enter_years = np.array([cohorts[p % len(cohorts)] for p in range(n)])
            year = enter_years + (lo + k) - lo
            costs[:, k] = drift + year_effect * (year - 2005) + rng.normal(0, noise, n)
        costs = np.maximum(np.round(costs), 0).astype(np.int64)
        ids = [f"p{k:05d}" for k in range(n)]
        births = np.array([cohorts[p % len(cohorts)] - lo for p in range(n)], dtype=np.int32)
        states = np.zeros_like(costs, dtype=np.int8)
        months = np.full_like(states, 12)
        return Panel(ids, births, lo, states, costs, months)

    def test_zero_noise_unit_coefficient(self):
        rng = np.random.default_rng(3)
        base = rng.integers(10_000, 100_000, size=200)
        costs = np.column_stack([base, base])
        panel = panel_from_costs(costs, entry_age=40)
        fit = ar_regression(panel, 41, order=1)
        assert fit.available
        assert abs(fit.lag_coefficients[0] - 1.0) < 1e-9
        assert abs(fit.intercept) < 1e-4

    def test_recovers_half_with_ci(self):
        panel = self.ar_panel(71, n=20_000, coef=(0.5,), cohorts=(2005, 2006, 2007),
                              year_effect=300.0)
        fit = ar_regression(panel, 25, order=1)
        assert fit.available
        assert abs(fit.lag_coefficients[0] - 0.5) <= 1.96 * fit.lag_se[0]
        assert fit.year_effects  # staggered cohorts produce dummies

    def test_ar2_recovery(self):
        panel = self.ar_panel(72, n=20_000, coef=(0.4, 0.2), cohorts=(2005, 2006))
        fit = ar_regression(panel, 26, order=2)
        assert fit.available
        assert abs(fit.lag_coefficients[0] - 0.4) <= 2.5 * fit.lag_se[0]
        assert abs(fit.lag_coefficients[1] - 0.2) <= 2.5 * fit.lag_se[1]

    def test_residual_orthogonality(self):
        panel = self.ar_panel(73, n=5_000, coef=(0.5,), cohorts=(2005, 2006))
        fit = ar_regression(panel, 24, order=1)
        c = panel.column(24)
        complete = (panel.states[:, c - 1 : c + 1] >= 0).all(axis=1)
        y = panel.costs[complete, c].astype(float)
        lag = panel.costs[complete, c - 1].astype(float)
        years = panel.birth_years[complete] + 24
        X = [np.ones(y.size), lag] + [
            (years == lvl).astype(float) for lvl in sorted(fit.year_effects)
        ]
        X = np.column_stack(X)
        beta = np.concatenate([[fit.intercept], fit.lag_coefficients,
                               [fit.year_effects[lvl] for lvl in sorted(fit.year_effects)]])
        resid = y - X @ beta
        rel = np.abs(X.T @ resid).max() / (np.linalg.norm(X) * np.linalg.norm(resid) + 1e-30)
        assert rel < 1e-8

    def test_too_few_cases_unavailable(self):
        panel = make_panel([[0, 0]], entry_age=30)
        fit = ar_regression(panel, 31, order=1)
        assert not fit.available

    def test_degenerate_design(self):
        # identical lag values across persons make [1, lag] collinear
        with pytest.raises(DegenerateFitError):
            ar_regression(collinear_cost_panel(), 41, order=1)

    @pytest.mark.parametrize("age,order,named", [
        (41, True, "order must be an integer, got True"),
        (41, 1.0, "order must be an integer, got 1.0"),
        (41, "1", "order must be an integer, got '1'"),
        (41.0, 1, "age must be an integer, got 41.0"),
        (True, 1, "age must be an integer, got True"),
        (None, 1, "age must be an integer, got None"),
    ])
    def test_bool_or_non_integer_age_and_order_rejected(self, age, order, named):
        with pytest.raises(InvalidInputError, match=re.escape(named)):
            ar_regression(collinear_cost_panel(), age, order=order)

    def test_numpy_integer_age_and_order_accepted(self):
        panel = self.ar_panel(75, n=2_000, coef=(0.5,))
        fit = ar_regression(panel, np.int64(25), order=np.int32(1))
        assert fit.available
        assert repr(fit) == repr(ar_regression(panel, np.int64(25), order=np.int32(1)))
        assert fit.lag_coefficients == ar_regression(panel, 25, order=1).lag_coefficients


class TestHelpers:
    def test_five_year_groups(self):
        assert five_year_groups(22, 33) == [(20, 24), (25, 29), (30, 34)]

    def test_pool_counts_not_probabilities(self):
        panel = cycle_panel(n=8, n_ages=5)
        family = estimate_order1_family(panel)
        pooled = pool_order1(family, [31, 32, 33])
        assert pooled.counts.sum() == 8 * 3

    def test_pool_reads_a_generator_of_ages_once(self):
        panel = cycle_panel(n=8, n_ages=5)
        family = estimate_order1_family(panel)
        pooled = pool_order1(family, (a for a in [31, 32, 33]))
        assert pooled.counts.sum() == 8 * 3
        with pytest.raises(EmptyCohortError, match=r"no estimates among ages \[40, 41\]"):
            pool_order1({}, (a for a in [40, 41]))


class TestStateParser:
    """Every estimator reads a state as a HealthState, a 1-based int or a name."""

    PANEL = make_panel([[0, 4, 4, 0], [4, 4, 0, 0], [0, 0, 4, 4], [4, 0, 0, 4]], entry_age=40)

    @pytest.mark.parametrize("state,code", [(Q.Q2, 1), (2, 1), (np.int64(5), 4), ("Q5", 4), ("Q1", 0)])
    def test_accepted_forms(self, state, code):
        assert _state_code(state) == code
        assert _target_codes(state) == ({code}, False)

    @pytest.mark.parametrize("bad", [0, 6, -1, np.int8(0), "Q9", "q1", "Q", "", "MISSING",
                                     1.0, True, None, b"Q1"])
    def test_bad_state_raises_naming_it(self, bad):
        with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
            _state_code(bad)

    @pytest.mark.parametrize("bad,named", [("Q9", "Q9"), (0, 0), (6, 6), (("Q1", "Q9"), "Q9"),
                                           ({2.5}, 2.5), (b"Q5", b"Q5")])
    def test_bad_target_raises_naming_it(self, bad, named):
        with pytest.raises(InvalidInputError, match=re.escape(f"not a health state: {named!r}")):
            _target_codes(bad)

    def test_missing_is_read_in_any_case(self):
        assert _target_codes(["missing", "Q5"]) == ({4}, True)
        assert _target_codes("Missing") == (set(), True)

    def test_names_give_the_results_of_health_states(self):
        p = self.PANEL
        by_name = multi_year_state_frequency(p, ("Q5",), "Q5", 2, age_groups=[(40, 44)])
        by_enum = multi_year_state_frequency(p, (Q.Q5,), {Q.Q5}, 2, age_groups=[(40, 44)])
        assert repr(by_name) == repr(by_enum)
        assert (by_name[(40, 44)].denominators > 0).all()
        by_name = conditional_cost_quantiles(p, (40, 44), "Q1", current_state="Q5")
        assert repr(by_name) == repr(conditional_cost_quantiles(p, (40, 44), Q.Q1, current_state=5))
        assert by_name.n == 3
        assert repr(exceedance_proportions(p, ("Q1", "Q5"), [300_000])) == repr(
            exceedance_proportions(p, (1, Q.Q5), [300_000]))

    @pytest.mark.parametrize("call", [
        lambda p: shock_frequency(p, (("Q9",),), "Q5"),
        lambda p: shock_frequency(p, (("Q1",),), 6),
        lambda p: multi_year_state_frequency(p, (0,), "Q5", 2),
        lambda p: multi_year_state_frequency(p, ("Q5",), "Q6", 2),
        lambda p: conditional_cost_quantiles(p, (40, 44), "Q0"),
        lambda p: conditional_cost_quantiles(p, (40, 44), "Q1", current_state=6),
        lambda p: exceedance_proportions(p, ("Q1", 7), [300_000]),
    ])
    def test_every_estimator_rejects_a_bad_state(self, call):
        with pytest.raises(InvalidInputError, match="not a health state"):
            call(self.PANEL)


class TestInvertedAgeGroup:
    """An age group whose lower end exceeds its upper end is an input error everywhere."""

    PANEL = make_panel([[0, 4, 4, 0, 0, 4], [4, 4, 0, 0, 4, 4]], entry_age=39)
    MESSAGE = re.escape("age group (44, 40) is empty")

    @pytest.mark.parametrize("call", [
        lambda p: state_fractions(p, (44, 40)),
        lambda p: multi_year_state_frequency(p, (Q.Q5,), {Q.Q5}, 2, age_groups=[(44, 40)]),
        lambda p: multi_year_state_frequency(p, (Q.Q5,), {Q.Q5}, 2, age_groups=[(40, 44), (44, 40)]),
        lambda p: conditional_cost_quantiles(p, (44, 40), Q.Q1),
        lambda p: exceedance_proportions(p, (Q.Q1, Q.Q5), [300_000], age_groups=[(44, 40)]),
        lambda p: exceedance_proportions(p, (Q.Q1, Q.Q5), [300_000],
                                         age_groups=iter([(40, 44), (44, 40)])),
    ])
    def test_raises(self, call):
        with pytest.raises(InvalidInputError, match=self.MESSAGE):
            call(self.PANEL)

    def test_a_single_age_group_is_not_inverted(self):
        assert conditional_cost_quantiles(self.PANEL, (40, 40), Q.Q1).n == 1
        assert exceedance_proportions(self.PANEL, (Q.Q1, Q.Q5), [300_000], [(40, 40)])[0].n == 1
