import ast
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from healthmarkov import cli, kernels
from healthmarkov.config import RunConfig
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
from healthmarkov.estimate import estimate_order1_family, estimate_order2_family, shock_frequency
from healthmarkov.states import HealthState
from healthmarkov.synthetic import generate_panel

from conftest import assert_same_cells, make_panel, observed_ages, sticky_top_chain
from reference_ingest import PersonYear, reference_person_year_panel as build  # build_panel on PersonYears
from reference_synthetic import reference_person_years

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "healthmarkov"


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

    @pytest.mark.parametrize("ids, clash", [
        ([1, "1"], "1 and '1'"),
        (["a", 2.5, 3, None], "'a' and 2.5"),
        ([4, 2, 3j], "4 and 3j"),
    ], ids=["int and str", "str first", "complex"])
    def test_ids_that_cannot_be_ordered_are_refused_by_name(self, ids, clash):
        # the sort that makes the person order canonical has no order for them
        n = len(ids)
        with pytest.raises(InvalidInputError, match=re.escape(f"person ids {clash} cannot be ordered")):
            Panel(ids, [1970] * n, 30, [[0]] * n, [[100]] * n, [[12]] * n)

    @pytest.mark.parametrize("ids", [
        [float("nan"), float("nan"), 1.0],
        [2.0, np.float64("nan")],
        ["a", Decimal("NaN")],
    ], ids=["two nans", "numpy nan", "Decimal NaN"])
    def test_an_id_not_equal_to_itself_is_refused_by_name(self, ids):
        # the repeated-id check compares sorted neighbours, and nan == nan is false
        n = len(ids)
        nan = next(pid for pid in ids if pid != pid)
        with pytest.raises(InvalidInputError, match=re.escape(f"person id {nan!r} is not equal to itself")):
            Panel(ids, [1970] * n, 30, [[0]] * n, [[100]] * n, [[12]] * n)

    @pytest.mark.parametrize("ids", [
        [Decimal("sNaN")], [Decimal("sNaN"), "a"], [1, Decimal("sNaN")],
    ], ids=["alone", "before a str", "after an int"])
    def test_a_signalling_nan_id_is_refused_by_name(self, ids):
        # every comparison of a signalling NaN raises decimal.InvalidOperation, the self-equality test's too
        n = len(ids)
        with pytest.raises(InvalidInputError, match=re.escape("person id Decimal('sNaN') is not equal to itself")):
            Panel(ids, [1970] * n, 30, [[0]] * n, [[100]] * n, [[12]] * n)


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

    @pytest.mark.parametrize("field, pid", [("", ""), ('""', ""), ("  ", ""), ('" \t"', ""), ("a\0", "a\0"),
                                            ("\0", "\0")],
                             ids=["empty", "quoted empty", "blank", "quoted blank", "NUL", "only a NUL"])
    def test_an_id_the_writers_refuse_fails_at_its_line(self, tmp_path, field, pid):
        # write_cache would refuse to write this id back, so the read refuses it too
        err = self._read_error(tmp_path, f"{field},30,2000,12,100,Q1\n" + self.GOOD)
        assert err.line == 2
        assert str(err).startswith(f"line 2: person_id {pid!r} ")

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


class TestReadOnlyMatrices:
    def test_writes_through_the_panel_raise_and_the_callers_array_stays_writable(self):
        states = np.asfortranarray([[0, 1, -1], [2, -2, 4]], dtype=np.int8)
        costs = np.asfortranarray([[10, 20, 0], [30, 0, 50]], dtype=np.int64)
        months = np.asfortranarray(np.where(states >= 0, 12, 0), dtype=np.int8)
        panel = Panel(["a", "b"], [1970, 1970], 30, states, costs, months)
        for name, matrix in (("states", states), ("costs", costs), ("months", months)):
            view = getattr(panel, name)
            assert np.shares_memory(view, matrix), name  # a view, not a copy
            with pytest.raises(ValueError):
                view[0, 0] = 0
            assert matrix.flags.writeable, name
        states[0, 0] = 3
        assert panel.states[0, 0] == 3

    def test_person_arrays_are_read_only_views(self):
        ids = np.array(["a", "b"], dtype=object)
        births = np.array([1970, 1971], dtype=np.int32)
        sex = np.array(["M", "F"], dtype=object)
        panel = Panel(ids, births, 30, [[0, 1], [2, 3]], [[1, 2], [3, 4]], [[12, 12], [12, 12]], sex=sex)
        for name, array in (("person_ids", ids), ("birth_years", births), ("sex", sex)):
            view = getattr(panel, name)
            assert np.shares_memory(view, array), name
            with pytest.raises(ValueError):
                view[0] = view[1]
            assert array.flags.writeable, name
        before = panel.cohort_index[0].tolist()
        with pytest.raises(ValueError):
            panel.birth_years[0] = 1960
        assert panel.cohort_index[0].tolist() == before == [1970, 1971]

    def test_tallies_are_read_only(self):
        panel = make_panel([[0, 1, 2], [4, -1, -2]])
        for tally in (panel.pair_tally, panel.triple_tally):
            with pytest.raises(ValueError):
                tally[0] = 0


def panel_attributes() -> frozenset:
    """Names the Panel class defines and the attributes its __init__ sets."""
    panel = next(node for node in ast.parse((PACKAGE / "panel.py").read_text(encoding="utf-8")).body
                 if isinstance(node, ast.ClassDef) and node.name == "Panel")
    names = {node.name for node in panel.body if isinstance(node, ast.FunctionDef)}
    init = next(node for node in panel.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    names.update(node.attr for node in ast.walk(init)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self")
    return frozenset(names - {"__init__"})


PANEL_ATTRIBUTES = panel_attributes()


def panel_attributes_assigned(source: str) -> list[str]:
    """Line and spelling of every assignment, deletion or setattr of a Panel attribute outside Panel.__init__.

    Lexical: an attribute of any object that bears a Panel attribute's name counts.
    """
    tree = ast.parse(source)
    inside_init = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Panel":
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    inside_init.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in inside_init:
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in ("setattr", "__setattr__"):
            if node.args[1].value in PANEL_ATTRIBUTES:
                found.append(f"{node.lineno}: setattr {node.args[1].value}")
            continue
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute) and isinstance(part.ctx, (ast.Store, ast.Del)) \
                        and part.attr in PANEL_ATTRIBUTES:
                    found.append(f"{node.lineno}: .{part.attr}")
    return found


class TestNoPanelAttributeAssigned:
    @pytest.mark.parametrize("source", [
        "panel.birth_years = births", "self.states, self.costs = states, costs", "p.age_min += 1",
        "setattr(panel, 'person_ids', ids)", "object.__setattr__(panel, 'sex', sex)", "del panel.pair_tally",
        pytest.param("class Panel:\n    def filter(self):\n        self.months = None", id="Panel method"),
    ])
    def test_check_sees_every_spelling(self, source):
        assert panel_attributes_assigned(source)

    @pytest.mark.parametrize("source", [
        "cfg.output_dir = out", "states = panel.states", "states[0, 0] = 3",
        pytest.param("class Panel:\n    def __init__(self, states):\n        self.states = states", id="Panel.__init__"),
    ])
    def test_check_lets_reads_and_other_objects_through(self, source):
        assert panel_attributes_assigned(source) == []

    def test_check_knows_the_panel(self):
        assert {"person_ids", "birth_years", "age_min", "states", "sex", "pair_tally"} <= PANEL_ATTRIBUTES

    def test_no_module_assigns_a_panel_attribute_outside_its_init(self):
        found = [f"{path.name}:{use}" for path in sorted(PACKAGE.glob("*.py"))
                 for use in panel_attributes_assigned(path.read_text(encoding="utf-8"))]
        assert found == []


class TestTallies:
    REPORTS = ("k05", "k06", "k07", "k08", "k09", "k10", "k11", "k12", "k13", "k14", "f02", "f03")

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Names of the counting kernels called through the kernels module, in call order."""
        calls = []
        for name in ("pair_counts", "triple_counts"):
            def counted(states, kernel=getattr(kernels, name), name=name):
                calls.append(name)
                return kernel(states)

            monkeypatch.setattr(kernels, name, counted)
        return calls

    def test_each_width_is_counted_once_for_every_counting_report(self, kernel_calls):
        panel = generate_panel(sticky_top_chain(entry_age=20, exit_age=36, seed=3), 400)
        cfg = RunConfig(start_ages=(22, 23, 25), q5_values=(267_000, 500_000))
        estimate_order1_family(panel)
        estimate_order2_family(panel)
        for rid in self.REPORTS:
            header, rows = cli.REPORTS[rid][0](cfg, panel)
            assert rows, rid
        assert sorted(kernel_calls) == ["pair_counts", "triple_counts"]

    def test_a_filtered_panel_counts_again(self, kernel_calls):
        panel = generate_panel(sticky_top_chain(entry_age=20, exit_age=36, seed=3), 400)
        estimate_order2_family(panel)
        filtered = filter_cohort(panel, age_max=30)
        for _ in range(2):
            estimate_order1_family(filtered)
            estimate_order2_family(filtered)
            shock_frequency(filtered, ["Q1"], ["Q5"])
        assert kernel_calls == ["triple_counts", "pair_counts", "triple_counts"]
        assert filtered.pair_tally.shape == (filtered.n_ages - 1, 7, 7)

    def test_tallies_count_every_cell_letter(self):
        panel = make_panel([[0, 1, 2], [4, -1, -2], [-2, 3, 3]])
        # letters: code + 2, so absent 0, missing 1, Q1..Q5 2..6
        assert panel.pair_tally.sum() == 6 and panel.triple_tally.sum() == 3
        assert panel.pair_tally[0, 2, 3] == panel.pair_tally[0, 6, 1] == panel.pair_tally[0, 0, 5] == 1
        assert panel.pair_tally[1, 3, 4] == panel.pair_tally[1, 1, 0] == panel.pair_tally[1, 5, 5] == 1
        assert panel.triple_tally[0, 2, 3, 4] == panel.triple_tally[0, 6, 1, 0] == panel.triple_tally[0, 0, 5, 5] == 1


class TestSummary:
    def test_counts(self):
        panel = make_panel([[0, 1, -1], [2, -1, -1]])
        s = panel.summary()
        assert s["persons"] == 2
        assert s["person_years"] == 3
        assert s["missing_markers"] == 3
        assert s["missing_share"] == 0.5
