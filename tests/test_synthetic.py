import io
import tracemalloc

import numpy as np
import pytest

from healthmarkov import synthetic
from healthmarkov.errors import ConfigError, HorizonError, InvalidInputError
from healthmarkov.estimate import estimate_order2
from healthmarkov.ingest import load_claims_panel
from healthmarkov.lifted import project_cumulative
from healthmarkov.panel import Panel
from healthmarkov.states import CostVector, HealthState, classify_costs
from healthmarkov.synthetic import (
    GroundTruthChain,
    enumerate_expectation,
    generate_panel,
    random_chain,
    write_claims,
)

from conftest import assert_same_cells

Q = HealthState
COSTS = CostVector.from_thresholds()


def absorbing_chain(entry_age=20, exit_age=30, state=4):
    tensors = np.zeros((exit_age - entry_age - 1, 5, 5, 5))
    tensors[:, :, :, state] = 1.0
    initial = np.zeros(25)
    initial[5 * state + state] = 1.0
    return GroundTruthChain(
        entry_age=entry_age,
        exit_age=exit_age,
        tensors=tensors,
        initial_pairs=initial,
        attrition=np.zeros(exit_age - entry_age),
        seed=1,
    )


class TestGeneratePanel:
    def test_single_person_full_trajectory(self):
        truth = absorbing_chain()
        panel = generate_panel(truth, 1)
        assert panel.n_persons == 1
        assert list(panel.ages) == list(range(20, 31))
        assert panel.states.tolist() == [[4] * 11]  # observed at every age, in Q5

    def test_attrition_one_leaves_single_year(self):
        truth = random_chain(5, entry_age=20, exit_age=25, attrition=1.0)
        panel = generate_panel(truth, 50)
        for p in range(panel.n_persons):
            observed = (panel.states[p] >= 0).sum()
            markers = (panel.states[p] == -1).sum()
            assert observed == 1 and markers == 5  # only age 20 observed, 21..25 missing

    @pytest.mark.parametrize("numbers", [range(0), range(1), range(100_000), range(9_999_990, 10_000_010),
                                         range(123_456_789, 123_456_792)])
    def test_person_ids_match_the_f_string(self, numbers):
        ids = synthetic._person_ids(numbers)
        assert ids.dtype == object and ids.shape == (len(numbers),)
        assert ids.tolist() == [f"p{k:07d}" for k in numbers]

    def test_seed_reproducible(self):
        truth = random_chain(42, entry_age=20, exit_age=35, attrition=0.05, cost_model="uniform")
        a = generate_panel(truth, 500)
        b = generate_panel(truth, 500)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.costs, b.costs)
        assert list(a.person_ids) == list(b.person_ids)

    def test_different_seeds_differ(self):
        t1 = random_chain(1, entry_age=20, exit_age=25)
        t2 = GroundTruthChain(**{**t1.__dict__, "seed": 2})
        a = generate_panel(t1, 200)
        b = generate_panel(t2, 200)
        assert (a.states != b.states).any()

    @pytest.mark.parametrize("model", ["midpoint", "uniform", "lognormal"])
    def test_costs_classify_back_to_their_state(self, model):
        truth = random_chain(9, entry_age=20, exit_age=30, cost_model=model)
        panel = generate_panel(truth, 300)
        observed = panel.states >= 0
        codes = classify_costs(panel.costs[observed], truth.thresholds)
        np.testing.assert_array_equal(codes, panel.states[observed])

    def test_bad_inputs(self):
        truth = random_chain(1, entry_age=20, exit_age=25)
        with pytest.raises(InvalidInputError):
            generate_panel(truth, 0)

    def test_attrition_independent_of_state_leaves_estimates_unbiased(self):
        truth = random_chain(33, entry_age=20, exit_age=26, attrition=0.15)
        panel = generate_panel(truth, 100_000)
        t = estimate_order2(panel, 24)
        true_t = truth.tensor_at(24)
        n = t.totals
        for i in range(5):
            for j in range(5):
                if n[i, j] < 50:
                    continue
                se = np.sqrt(true_t[i, j] * (1 - true_t[i, j]) / n[i, j])
                errors = np.abs(t.probs[i, j] - true_t[i, j])
                assert (errors <= 4 * se + 1e-9).all()


class TestClaimsRoundTrip:
    @pytest.mark.parametrize("convention", ["fiscal", "calendar"])
    def test_claims_reingest_reproduces_panel(self, tmp_path, convention):
        truth = random_chain(77, entry_age=25, exit_age=32, attrition=0.1, cost_model="uniform")
        panel = generate_panel(truth, 150)
        path = tmp_path / "claims.csv"
        write_claims(panel, path, year_convention=convention)
        again = load_claims_panel(path, year_convention=convention)
        assert_same_cells(again, panel)

    def test_claims_rows_have_12_months_per_person_year(self, tmp_path):
        truth = random_chain(78, entry_age=25, exit_age=28)
        panel = generate_panel(truth, 10)
        path = tmp_path / "claims.csv"
        n_rows = write_claims(panel, path)
        assert n_rows == 12 * int((panel.states >= 0).sum())

    def test_fewer_observed_months_come_back_as_12(self, tmp_path):
        panel = generate_panel(random_chain(79, entry_age=25, exit_age=28), 5)
        months = np.where(panel.states >= 0, 7, 0)
        short = Panel(panel.person_ids, panel.birth_years, panel.age_min, panel.states,
                      panel.costs, months, sex=panel.sex)
        path = tmp_path / "claims.csv"
        write_claims(short, path)
        again = load_claims_panel(path)
        np.testing.assert_array_equal(again.months, panel.months)
        np.testing.assert_array_equal(again.costs, panel.costs)

    @pytest.mark.parametrize(
        "sex, sex_default",
        [([None, None], "M"), (["M", None], "M"), (["F", "X"], "M"), (["m", "F"], "M"),
         (None, None), (None, "U"), (None, "")],
    )
    def test_sex_that_ingest_rejects_is_refused_before_writing(self, tmp_path, sex, sex_default):
        panel = generate_panel(random_chain(80, entry_age=25, exit_age=27), 2)
        panel.sex = None if sex is None else np.array(sex, dtype=object)
        path = tmp_path / "claims.csv"
        with pytest.raises(InvalidInputError, match="'M' or 'F'"):
            write_claims(panel, path, sex_default=sex_default)
        assert not path.exists()

    @pytest.mark.parametrize("ids, sex", [(["a", "a"], ["M", "F"]), (["a", "b", "a"], ["M", "M", "M"]),
                                          ([7, 3, 7], None)])
    def test_duplicate_person_ids_never_reach_the_claims_file(self, tmp_path, ids, sex):
        # two persons under one id would write a file that ingest rejects
        template = generate_panel(random_chain(82, entry_age=25, exit_age=27), len(ids))
        path = tmp_path / "claims.csv"
        with pytest.raises(InvalidInputError, match=f"person id {ids[0]!r} appears in more than one row"):
            write_claims(Panel(ids, template.birth_years, template.age_min, template.states,
                               template.costs, template.months, sex=sex), path)
        assert not path.exists()

    def test_memory_is_bounded_by_the_block_not_the_file(self, tmp_path):
        # fully observed cells, eight blocks' worth; an unblocked writer holds every row at once
        panel = generate_panel(random_chain(81, entry_age=20, exit_age=59), 820)
        path = tmp_path / "claims.csv"
        tracemalloc.start()
        try:
            write_claims(panel, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
        assert panel.states.size >= 8 * synthetic._CLAIMS_BLOCK_CELLS


class TestSerialization:
    def test_json_round_trip(self):
        truth = random_chain(55, entry_age=20, exit_age=28, attrition=0.07, cost_model="lognormal")
        doc = truth.to_json()
        again = GroundTruthChain.from_json(io.StringIO(doc))
        np.testing.assert_array_equal(again.tensors, truth.tensors)
        np.testing.assert_array_equal(again.initial_pairs, truth.initial_pairs)
        np.testing.assert_array_equal(again.attrition, truth.attrition)
        assert again.seed == truth.seed
        assert again.cost_model == truth.cost_model
        assert again.thresholds == truth.thresholds

    def test_unknown_rng_rejected(self):
        truth = random_chain(1, entry_age=20, exit_age=23)
        doc = truth.to_json().replace('"pcg64"', '"mt19937"')
        with pytest.raises(ConfigError):
            GroundTruthChain.from_json(io.StringIO(doc))


class TestChainValidation:
    @pytest.mark.parametrize("field, value", [
        ("initial_pairs", np.nan),
        ("tensors", np.nan),
        ("attrition", np.nan),
    ])
    def test_nan_probabilities_rejected(self, field, value):
        truth = random_chain(3, entry_age=20, exit_age=24)
        values = getattr(truth, field).copy()
        values.flat[0] = value
        with pytest.raises(ConfigError):
            GroundTruthChain(**{**truth.__dict__, field: values})


class TestEnumerateExpectation:
    def test_absorbing_chain(self):
        truth = absorbing_chain()
        for horizon in (1, 3, 5):
            got = enumerate_expectation(truth, COSTS, (Q.Q5, Q.Q5), 21, horizon)
            assert got == pytest.approx(horizon * COSTS[Q.Q5], rel=1e-12)

    def test_single_step_by_hand(self):
        truth = random_chain(2, entry_age=20, exit_age=25)
        slice_ = truth.tensor_at(22)[0, 3]
        want = float(slice_ @ COSTS.as_array())
        got = enumerate_expectation(truth, COSTS, (Q.Q1, Q.Q4), 21, 1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_lifted_projection(self):
        truth = random_chain(10, entry_age=20, exit_age=30)
        fam = truth.lifted_family()
        for start in ((Q.Q1, Q.Q5), (Q.Q3, Q.Q3)):
            for horizon in (1, 2, 5):
                want = enumerate_expectation(truth, COSTS, start, 21, horizon)
                got = project_cumulative(fam, COSTS, 21, start, horizon).cumulative
                assert abs(got - want) / max(abs(want), 1.0) < 1e-10

    def test_horizon_cap(self):
        truth = random_chain(1, entry_age=20, exit_age=40)
        with pytest.raises(InvalidInputError, match="lifted"):
            enumerate_expectation(truth, COSTS, (Q.Q1, Q.Q1), 21, 9)

    def test_out_of_range_ages(self):
        truth = random_chain(1, entry_age=20, exit_age=25)
        with pytest.raises(HorizonError):
            enumerate_expectation(truth, COSTS, (Q.Q1, Q.Q1), 23, 5)
