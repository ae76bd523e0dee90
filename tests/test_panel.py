import numpy as np
import pytest

from healthmarkov.errors import (
    ConfigError,
    DataFormatError,
    DuplicateRecordError,
    EmptyCohortError,
    InvalidInputError,
)
from healthmarkov.panel import (
    ABSENT_CODE,
    MISSING_CODE,
    Panel,
    filter_cohort,
)
from healthmarkov.states import HealthState

from conftest import assert_same_cells, make_panel, observed_ages
from reference_ingest import PersonYear, reference_person_year_panel as build  # build_panel on PersonYears
from reference_synthetic import reference_person_years


def missing_cells(panel) -> list[tuple[str, int, int]]:
    """(person_id, age, year) of every missing-marker cell, in (person, age) order."""
    rows, cols = np.nonzero(panel.states == MISSING_CODE)
    ages = panel.age_min + cols
    return list(zip(panel.person_ids[rows].tolist(), ages.tolist(), (panel.birth_years[rows] + ages).tolist()))


def py(pid, age, year, cost=1_000, state=HealthState.Q1, months=12):
    return PersonYear(pid, age, year, months, cost, state)


class TestBuildPanel:
    def test_contiguous_trajectory_has_no_markers(self):
        panel = build([py("a", 30, 2000), py("a", 31, 2001), py("a", 32, 2002)])
        assert missing_cells(panel) == []
        assert observed_ages(panel) == [30, 31, 32]

    def test_gap_becomes_marker(self):
        panel = build([py("a", 30, 2000), py("a", 32, 2002)])
        assert missing_cells(panel) == [("a", 31, 2001)]

    def test_attrition_leaves_trailing_markers(self):
        panel = build(
            [py("a", 30, 2000), py("a", 31, 2001), py("b", 28, 2000), py("b", 29, 2001),
             py("b", 30, 2002), py("b", 31, 2003)]
        )
        # panel final year 2003; person a last seen 2001 -> markers 2002, 2003
        assert missing_cells(panel) == [("a", 32, 2002), ("a", 33, 2003)]

    def test_explicit_end_year_extends_markers(self):
        panel = build([py("a", 30, 2000)], end_year=2002)
        assert missing_cells(panel) == [("a", 31, 2001), ("a", 32, 2002)]

    def test_end_year_before_data_rejected(self):
        with pytest.raises(InvalidInputError):
            build([py("a", 30, 2000)], end_year=1999)

    def test_duplicate_person_year(self):
        with pytest.raises(DuplicateRecordError):
            build([py("a", 30, 2000, cost=1), py("a", 30, 2000, cost=2)])

    def test_inconsistent_age_year(self):
        with pytest.raises(DataFormatError):
            build([py("a", 30, 2000), py("a", 30, 2001)])

    def test_person_order_is_canonical(self):
        panel = build([py("b", 30, 2000), py("a", 30, 2000)])
        assert list(panel.person_ids) == ["a", "b"]

    def test_rebuild_from_flattened_is_idempotent(self):
        panel = build(
            [py("a", 30, 2000), py("a", 32, 2002), py("b", 29, 2000), py("b", 30, 2001),
             py("b", 31, 2002)]
        )
        rebuilt = build(reference_person_years(panel))
        np.testing.assert_array_equal(rebuilt.states, panel.states)
        np.testing.assert_array_equal(rebuilt.costs, panel.costs)
        assert_same_cells(rebuilt, panel)


class TestCodes:
    def test_absent_before_entry(self):
        panel = build([py("a", 30, 2000), py("b", 32, 2000), py("b", 33, 2001)])
        # ages 30..34 (person a trails to 2001 -> age 31)
        a = list(panel.person_ids).index("a")
        b = list(panel.person_ids).index("b")
        assert panel.states[a, panel.column(30)] >= 0
        assert panel.states[a, panel.column(31)] == MISSING_CODE
        assert panel.states[b, panel.column(30)] == ABSENT_CODE
        assert panel.states[b, panel.column(31)] == ABSENT_CODE

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(InvalidInputError):
            make_panel([[0, 7]])


class TestCache:
    def test_round_trip(self, tmp_path):
        panel = build(
            [py("a", 30, 2000, cost=500, state=HealthState.Q1),
             py("a", 32, 2002, cost=300_000, state=HealthState.Q5),
             py("b", 29, 2000), py("b", 30, 2001)]
        )
        path = tmp_path / "panel.csv"
        panel.write_cache(path)
        again = Panel.read_cache(path)
        assert_same_cells(again, panel)

        path2 = tmp_path / "panel2.csv"
        again.write_cache(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("nope\n")
        with pytest.raises(DataFormatError):
            Panel.read_cache(path)

    HEADER = "person_id,age,year,months_observed,annual_cost,state\n"
    GOOD = "a,30,2000,12,1000,Q1\n"

    def _read_error(self, tmp_path, body):
        path = tmp_path / "p.csv"
        path.write_text(self.HEADER + body, encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            Panel.read_cache(path)
        assert type(err.value) is DataFormatError
        return err.value

    def test_wrong_field_count(self, tmp_path):
        err = self._read_error(tmp_path, self.GOOD + "a,31,2001,12,1000\n")
        assert err.line == 3

    def test_non_integer_age(self, tmp_path):
        err = self._read_error(tmp_path, self.GOOD + "a,x31,2001,12,1000,Q1\n")
        assert err.line == 3

    def test_unknown_state_label(self, tmp_path):
        err = self._read_error(tmp_path, self.GOOD + "a,31,2001,12,1000,Q6\n")
        assert err.line == 3

    def test_non_integer_cost_on_observed_row(self, tmp_path):
        err = self._read_error(tmp_path, self.GOOD + "a,31,2001,12,1k,Q2\n")
        assert err.line == 3

    def test_blank_line_counts_before_bad_row(self, tmp_path):
        err = self._read_error(tmp_path, self.GOOD + "\n" + "a,31,2001,12,1k,Q2\n")
        assert err.line == 4

    def test_first_offending_line_wins(self, tmp_path):
        err = self._read_error(tmp_path, "a,30,2000,12,oops,Q1\na,31,2001\n")
        assert err.line == 2

    def test_checks_run_in_order_within_a_line(self, tmp_path):
        err = self._read_error(tmp_path, "a,x,2000,12,oops,Q9\n")
        assert err.line == 2
        assert "age/year" in str(err)

    def test_missing_row_skips_months_and_cost(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(self.HEADER + self.GOOD + "a,31,2001,?,?,MISSING\n", encoding="utf-8")
        panel = Panel.read_cache(path)
        assert missing_cells(panel) == [("a", 31, 2001)]

    def test_integer_fields_follow_int(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(self.HEADER + '" a ", +30 ,2000,1_2,1_000,Q1\n', encoding="utf-8")
        panel = Panel.read_cache(path)
        assert (list(panel.person_ids), panel.birth_years.tolist(), list(panel.ages)) == (["a"], [1970], [30])
        assert (panel.states.tolist(), panel.months.tolist(), panel.costs.tolist()) == ([[0]], [[12]], [[1_000]])

    def test_missing_rows_have_empty_cost(self, tmp_path):
        panel = build([py("a", 30, 2000), py("a", 32, 2002)])
        path = tmp_path / "p.csv"
        panel.write_cache(path)
        lines = path.read_text().splitlines()
        marker_line = [ln for ln in lines if "MISSING" in ln]
        assert marker_line == ["a,31,2001,0,,MISSING"]


class TestFilterCohort:
    def test_sex_filter(self):
        panel = make_panel([[0, 1], [2, 3]], sex=np.array(["M", "F"], dtype=object))
        male = filter_cohort(panel, sex="M")
        assert male.n_persons == 1
        assert list(male.person_ids) == ["p0000"]

    def test_sex_filter_needs_sex_data(self):
        panel = make_panel([[0, 1]])
        with pytest.raises(ConfigError):
            filter_cohort(panel, sex="M")

    def test_age_window_drops_outside_years(self):
        panel = make_panel([[0, 1, 2, 3]], entry_age=58)  # ages 58..61
        young = filter_cohort(panel, age_min=0, age_max=59)
        assert young.age_max == 59
        assert observed_ages(young) == [58, 59]

    def test_inverted_window_rejected(self):
        panel = make_panel([[0, 1]])
        with pytest.raises(InvalidInputError):
            filter_cohort(panel, age_min=40, age_max=30)

    def test_person_without_observations_in_window_dropped(self):
        panel = make_panel([[0, 0, -1, -1], [-2, -2, 1, 1]], entry_age=30)
        left = filter_cohort(panel, age_min=32, age_max=33)
        assert list(left.person_ids) == ["p0001"]

    def test_disjoint_window(self):
        panel = make_panel([[0, 1]], entry_age=30)
        with pytest.raises(EmptyCohortError):
            filter_cohort(panel, age_min=50, age_max=60)

    def test_no_match_raises_empty(self):
        panel = make_panel([[0, 1]], sex=np.array(["M"], dtype=object))
        with pytest.raises(EmptyCohortError):
            filter_cohort(panel, sex="F")


class TestSummary:
    def test_counts(self):
        panel = make_panel([[0, 1, -1], [2, -1, -1]])
        s = panel.summary()
        assert s["persons"] == 2
        assert s["person_years"] == 3
        assert s["missing_markers"] == 3
        assert s["missing_share"] == 0.5
