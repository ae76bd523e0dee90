import itertools

import numpy as np
import pytest

from healthmarkov.errors import HorizonError, InvalidInputError, UnsupportedCellError
from healthmarkov.estimate import TransitionMatrix
from healthmarkov.lifted import pair_index
from healthmarkov.persistency import iterate_forward, persistency_difference
from healthmarkov.states import HealthState
from healthmarkov.synthetic import order1_consistent_chain, random_chain

Q = HealthState


def matrix_family(rows_by_age, counts=1_000):
    """Build TransitionMatrix objects from plain row-stochastic arrays."""
    fam = {}
    for age, probs in rows_by_age.items():
        probs = np.asarray(probs, dtype=float)
        c = np.round(probs * counts).astype(np.int64)
        c[probs.sum(axis=1) == 0] = 0
        fam[age] = TransitionMatrix(age=age, probs=probs, counts=c)
    return fam


def brute_state_distribution(mats, start_code, k):
    dist = np.zeros(5)
    for path in itertools.product(range(5), repeat=k):
        prob = 1.0
        s = start_code
        for m, nxt in zip(mats, path):
            prob *= m[s, nxt]
            s = nxt
        dist[s] += prob
    return dist


class TestIterateForwardOrder1:
    def test_identity_keeps_start(self):
        fam = matrix_family({age: np.eye(5) for age in range(31, 41)})
        fc = iterate_forward(fam, 30, Q.Q3, 10)
        for row in fc.distributions:
            np.testing.assert_array_equal(row, np.eye(5)[2])

    def test_uniform_after_one_step(self):
        fam = matrix_family({31: np.full((5, 5), 0.2)})
        fc = iterate_forward(fam, 30, Q.Q5, 1)
        np.testing.assert_allclose(fc.distributions[1], 0.2)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        fam = matrix_family({age: rng.dirichlet([1.0] * 5, size=5) for age in range(31, 41)})
        fc = iterate_forward(fam, 30, Q.Q2, 10)
        np.testing.assert_allclose(fc.distributions.sum(axis=1), 1.0, atol=1e-12)

    def test_horizon_6_equals_path_enumeration(self):
        rng = np.random.default_rng(4)
        mats = [rng.dirichlet([0.7] * 5, size=5) for _ in range(6)]
        fam = matrix_family({31 + k: mats[k] for k in range(6)})
        fc = iterate_forward(fam, 30, Q.Q4, 6)
        brute = brute_state_distribution(mats, 3, 6)
        np.testing.assert_allclose(fc.distributions[6], brute, atol=1e-12)

    def test_horizon_error_names_last_age(self):
        fam = matrix_family({31: np.eye(5), 32: np.eye(5)})
        with pytest.raises(HorizonError, match="32"):
            iterate_forward(fam, 30, Q.Q1, 3)

    def test_unsupported_row_raises_when_its_bin_is_empty(self):
        probs = np.zeros((5, 5))
        probs[0] = [0.0, 1.0, 0.0, 0.0, 0.0]  # only the bottom row estimated
        fam = matrix_family({31: probs, 32: probs})
        with pytest.raises(UnsupportedCellError, match="state row Q2 unsupported at age 32 even pooled"):
            iterate_forward(fam, 30, Q.Q1, 2)

    def test_pooling_uses_age_bin(self):
        sparse = np.zeros((5, 5))
        sparse[0] = [0.0, 1.0, 0.0, 0.0, 0.0]
        dense = np.tile(np.array([[0.5, 0.5, 0.0, 0.0, 0.0]]), (5, 1))
        fam = matrix_family({31: sparse, 32: sparse, 33: dense})
        fc = iterate_forward(fam, 30, Q.Q1, 2)
        # age-32 row for Q2 is pooled from the 30-34 bin, i.e. the dense matrix
        np.testing.assert_allclose(fc.distributions[2], [0.5, 0.5, 0, 0, 0])

    def test_bad_arguments(self):
        fam = matrix_family({31: np.eye(5)})
        with pytest.raises(InvalidInputError):
            iterate_forward(fam, 30, Q.Q1, 0)


class TestIterateForwardOrder2:
    def test_pair_family_matches_enumeration(self):
        truth = random_chain(6, entry_age=20, exit_age=30)
        fam = truth.lifted_family()
        fc = iterate_forward(fam, 21, (Q.Q1, Q.Q5), 4)
        # brute enumeration over explicit paths
        dist = np.zeros(25)
        tensors = [truth.tensor_at(a) for a in range(22, 26)]
        for path in itertools.product(range(5), repeat=4):
            prob, i, j = 1.0, 0, 4
            for t, nxt in zip(tensors, path):
                prob *= t[i, j, nxt]
                i, j = j, nxt
            dist[5 * i + j] += prob
        np.testing.assert_allclose(fc.distributions[4], dist, atol=1e-12)

    def test_target_mass_reads_current_coordinate(self):
        truth = random_chain(7, entry_age=20, exit_age=30)
        fam = truth.lifted_family()
        fc = iterate_forward(fam, 21, (Q.Q2, Q.Q3), 3)
        mass = fc.target_mass({Q.Q5})
        manual = fc.distributions[:, [pair_index(i + 1, 5) for i in range(5)]].sum(axis=1)
        np.testing.assert_allclose(mass, manual)


class TestPersistencyDifference:
    def test_identical_rows_zero_difference(self):
        row = np.array([0.25, 0.25, 0.2, 0.2, 0.1])
        fam = matrix_family({age: np.tile(row, (5, 1)) for age in range(31, 41)})
        curve = persistency_difference(fam, 30, 10, {Q.Q5})
        np.testing.assert_allclose(curve.differences, 0.0, atol=1e-14)

    def test_two_state_absorbing_geometric_decay(self):
        # from the top state: stay with r, else drop to the bottom; bottom absorbs
        r = 0.7
        probs = np.zeros((5, 5))
        probs[0, 0] = 1.0
        probs[4] = [1 - r, 0, 0, 0, r]
        probs[1, 0] = probs[2, 0] = probs[3, 0] = 1.0
        fam = matrix_family({age: probs for age in range(31, 43)})
        curve = persistency_difference(fam, 30, 12, {Q.Q5})
        np.testing.assert_allclose(curve.differences, [r ** k for k in range(1, 13)], rtol=1e-12)

    def test_tv_monotone_for_strictly_positive_matrices(self):
        rng = np.random.default_rng(11)
        fam = matrix_family(
            {age: rng.dirichlet([5.0] * 5, size=5) + 0.0 for age in range(31, 46)}
        )
        fc_bad = iterate_forward(fam, 30, Q.Q5, 15)
        fc_good = iterate_forward(fam, 30, Q.Q1, 15)
        tv = 0.5 * np.abs(fc_bad.distributions - fc_good.distributions).sum(axis=1)
        assert all(b <= a + 1e-12 for a, b in zip(tv, tv[1:]))
        assert tv[-1] < tv[0]

    def test_collapse_equivalence_smoke(self):
        truth = order1_consistent_chain(23, entry_age=20, exit_age=40)
        fam2 = truth.lifted_family()
        rows = {age: truth.tensor_at(age)[0] for age in truth.target_ages}
        fam1 = matrix_family(rows)
        c2 = persistency_difference(fam2, 25, 10, {Q.Q5})
        c1 = persistency_difference(fam1, 25, 10, {Q.Q5})
        np.testing.assert_allclose(c2.differences, c1.differences, atol=1e-10)

    def test_missing_target_is_invalid_input(self):
        fam = matrix_family({age: np.full((5, 5), 0.2) for age in range(31, 34)})
        with pytest.raises(InvalidInputError):
            persistency_difference(fam, 30, 3, {"MISSING"})
        with pytest.raises(InvalidInputError):
            iterate_forward(fam, 30, Q.Q5, 3).target_mass(["Q5", "missing"])

    def test_order2_default_starts(self):
        truth = random_chain(24, entry_age=20, exit_age=40)
        fam = truth.lifted_family()
        curve = persistency_difference(fam, 25, 5, {Q.Q5})
        assert curve.worse_start == (Q.Q1, Q.Q5)
        assert curve.better_start == (Q.Q1, Q.Q1)
        assert curve.years == [1, 2, 3, 4, 5]
