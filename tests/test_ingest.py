import io
import tracemalloc

import numpy as np
import pytest

import healthmarkov.ingest
import healthmarkov.panel
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov.errors import DataFormatError, DuplicateRecordError, InvalidInputError
from healthmarkov.ingest import (
    PERSON_YEAR_DTYPE,
    ClaimRecord,
    aggregate_person_years,
    grouping_year,
    load_claims_panel,
    parse_claims,
    round_half_up_ratio,
)
from healthmarkov.panel import Panel
from healthmarkov.states import HealthState
from healthmarkov.synthetic import generate_panel, random_chain, write_claims

from conftest import observed_ages

HEADER = "person_id,sex,age,year,month,cost_yen\n"


def claims(text):
    return io.StringIO(HEADER + text)


def rec(month, cost, pid="a", sex="M", age=40, year=2010):
    return ClaimRecord(pid, sex, age, year, month, cost)


class TestParse:
    def test_single_valid_row(self):
        rows = list(parse_claims(claims("a,M,40,2010,4,1000\n")))
        assert rows == [ClaimRecord("a", "M", 40, 2010, 4, 1000)]

    def test_rows_stream_in_order(self):
        text = "".join(f"p{i},F,3,2011,{1 + i % 12},{i}\n" for i in range(50))
        rows = list(parse_claims(claims(text)))
        assert [r.person_id for r in rows] == [f"p{i}" for i in range(50)]

    def test_month_13_rejected_with_line_number(self):
        with pytest.raises(DataFormatError) as err:
            list(parse_claims(claims("a,M,40,2010,4,1000\nb,M,41,2010,13,5\n")))
        assert err.value.line == 3

    def test_bad_header(self):
        with pytest.raises(DataFormatError):
            list(parse_claims(io.StringIO("id,cost\n1,2\n")))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (HEADER + "a,M,40,2010,4,1000\n").encode("utf-8"))
        assert list(parse_claims(path)) == [ClaimRecord("a", "M", 40, 2010, 4, 1000)]
        assert list(parse_claims(str(path))) == [ClaimRecord("a", "M", 40, 2010, 4, 1000)]

    @pytest.mark.parametrize(
        "row",
        [
            "a,X,40,2010,4,1000",       # bad sex
            "a,M,121,2010,4,1000",      # age out of range
            "a,M,40,2010,0,1000",       # month 0
            "a,M,40,2010,4,-1",         # negative cost
            "a,M,40,2010,4,ten",        # non-integer
            "a,M,40,2010,4",            # missing field
            ",M,40,2010,4,1000",        # empty id
            "a,M,40.0,2010,4,1000",     # int() refuses a decimal point
        ],
    )
    def test_malformed_rows(self, row):
        with pytest.raises(DataFormatError) as err:
            list(parse_claims(claims(row + "\n")))
        assert err.value.line == 2

    def test_bytes_that_are_not_utf8_fail_at_their_line(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_bytes((HEADER + "a,M,40,2010,4,1000\n\n").encode() + b"b\xff\xfe,M,40,2010,4,5\n")
        records = parse_claims(path)
        assert next(records) == ClaimRecord("a", "M", 40, 2010, 4, 1000)
        with pytest.raises(DataFormatError, match="not UTF-8") as err:
            next(records)
        assert err.value.line == 4

    def test_stream_opened_strictly_fails_without_a_line(self, tmp_path):
        # a text stream decodes in chunks, so the line of an undecodable byte is unknown
        path = tmp_path / "claims.csv"
        path.write_bytes((HEADER + "a,M,40,2010,4,1000\n\n").encode() + b"b\xff\xfe,M,40,2010,4,5\n")
        with open(path, newline="", encoding="utf-8-sig") as fh:
            with pytest.raises(DataFormatError, match="bytes that are not utf-8") as err:
                list(parse_claims(fh))
        assert err.value.line is None
        with pytest.raises(DataFormatError) as err:
            list(parse_claims(path))
        assert err.value.line == 4

    @pytest.mark.parametrize("row", [b"a,M\xff,40,2010,4,5", b"a,M,40,2010,4,5\xff"])
    def test_bytes_that_are_not_utf8_in_other_fields_fail_their_check(self, tmp_path, row):
        path = tmp_path / "claims.csv"
        path.write_bytes(HEADER.encode() + row + b"\n")
        with pytest.raises(DataFormatError) as err:
            list(parse_claims(path))
        assert err.value.line == 2

    def test_header_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_bytes(b"\xffperson_id,sex,age,year,month,cost_yen\n")
        with pytest.raises(DataFormatError) as err:
            list(parse_claims(path))
        assert err.value.line == 1

    @pytest.mark.parametrize("at_line", [1, 2, 4])
    def test_field_past_the_csv_limit_fails_at_its_line(self, at_line):
        lines = [HEADER.rstrip("\n"), "a,M,40,2010,4,1000", "", "a,M,40,2010,5,1000"]
        lines[at_line - 1] = "x" * 200_000 + lines[at_line - 1]
        records = parse_claims(io.StringIO("\n".join(lines) + "\n"))
        with pytest.raises(DataFormatError, match="field larger than field limit") as err:
            for _ in range(3):
                next(records)
        assert err.value.line == at_line

    @pytest.mark.parametrize("pid", ["a\0b", "\0", " \0a "])
    def test_nul_in_person_id_fails_at_its_line(self, pid):
        # Python 3.10's csv module refuses the line; later versions read it and the row check refuses it
        records = parse_claims(claims(f"a,M,40,2010,4,1000\n\n{pid},M,40,2010,5,1000\n"))
        assert next(records) == ClaimRecord("a", "M", 40, 2010, 4, 1000)
        with pytest.raises(DataFormatError) as err:
            next(records)
        assert err.value.line == 4

    def test_numbers_keep_every_separator_strip_removes(self):
        # int() alone refuses \x1c-\x1f around a number; str.strip removes them
        rows = list(parse_claims(claims(" a ,\x1cM, \x1c40\x1f,2010 ,\x1e4,\t1000\n")))
        assert rows == [ClaimRecord("a", "M", 40, 2010, 4, 1000)]

    def test_integers_follow_int(self):
        # numpy refuses 1_000, so the row loop reads this block
        rows = list(parse_claims(claims("a,M,40,2010,4,1_000\n")))
        assert rows == [ClaimRecord("a", "M", 40, 2010, 4, 1000)]

    def test_parser_is_lazy(self):
        # consuming one record must not validate the rest of the file
        stream = claims("a,M,40,2010,4,1000\nbroken row\n")
        gen = parse_claims(stream)
        assert next(gen).cost == 1000


class TestGroupingYear:
    def test_fiscal_wraps_january_to_march(self):
        assert grouping_year(2010, 4) == 2010
        assert grouping_year(2010, 12) == 2010
        assert grouping_year(2011, 1) == 2010
        assert grouping_year(2011, 3) == 2010
        assert grouping_year(2011, 4) == 2011

    def test_calendar_is_identity(self):
        assert grouping_year(2011, 1, "calendar") == 2011

    def test_unknown_convention(self):
        with pytest.raises(InvalidInputError):
            grouping_year(2011, 1, "academic")


def annual(records):
    """The one person-year row that calendar-year aggregation makes of ``records``."""
    table, _ = aggregate_person_years(records, year_convention="calendar")
    assert len(table) == 1
    return table[0]


class TestAnnualize:
    """Annual cost, state, months and age of one person-year, as aggregation computes them."""

    def test_full_year_sum(self):
        py = annual([rec(m, 1_000) for m in range(1, 13)])
        assert py["annual_cost"] == 12_000
        assert py["months_observed"] == 12
        assert HealthState(py["state"] + 1) is HealthState.Q2

    def test_part_year_scales_up(self):
        # 6 months totalling 3000 -> (3000 / 6) * 12 = 6000
        py = annual([rec(m, 500) for m in range(1, 7)])
        assert py["annual_cost"] == 6_000
        assert HealthState(py["state"] + 1) is HealthState.Q1

    def test_single_expensive_month(self):
        # 100000 * 12 = 1,200,000
        py = annual([rec(7, 100_000)])
        assert py["annual_cost"] == 1_200_000
        assert HealthState(py["state"] + 1) is HealthState.Q5

    # (months' costs, n_months, expected) with expected computed by hand:
    # annual = round-half-up(sum * 12 / n)
    HAND_CASES = [
        ([100], 1, 1_200),            # 1200/1
        ([1, 1], 2, 12),              # 24/2
        ([50, 50, 50], 3, 600),       # 1800/3
        ([100, 0, 0, 0, 0, 0, 0], 7, 171),   # 1200/7 = 171.428..
        ([1, 0, 0, 0, 0, 0, 0, 0], 8, 2),    # 12/8 = 1.5 -> half-up 2
        ([2, 0, 0, 0, 0], 5, 5),      # 24/5 = 4.8
        ([35, 0, 0, 0, 0, 0, 0, 0, 0], 9, 47),  # 420/9 = 46.67
        ([10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 11, 11),  # 120/11 = 10.909
        ([3, 0, 0, 0, 0, 0, 0, 0, 0, 0], 10, 4),  # 36/10 = 3.6
        ([3, 0, 0, 0, 0, 0, 0, 0], 8, 5),  # 36/8 = 4.5 -> half-up 5
        ([7, 0, 0, 0, 0, 0], 6, 14),  # 84/6 = 14 exact
        ([5, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], 12, 7),  # 84/12 = 7 exact
    ]

    @pytest.mark.parametrize("costs,n,expected", HAND_CASES)
    def test_hand_computed_rounding(self, costs, n, expected):
        assert len(costs) == n
        py = annual([rec(m + 1, c) for m, c in enumerate(costs)])
        assert py["annual_cost"] == expected

    def test_duplicate_month_rejected(self):
        with pytest.raises(DuplicateRecordError):
            annual([rec(1, 10), rec(1, 20)])

    def test_age_is_year_end_age(self):
        records = [rec(4, 10, age=40), rec(11, 10, age=41)]
        assert annual(records)["age"] == 41

    @given(
        st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=12),
        st.integers(min_value=2, max_value=9),
    )
    def test_scale_equivariance(self, costs, c):
        base = annual([rec(m + 1, v) for m, v in enumerate(costs)])["annual_cost"]
        scaled = annual([rec(m + 1, v * c) for m, v in enumerate(costs)])["annual_cost"]
        # exact before rounding, so off by at most c * (rounding slack)
        assert abs(scaled - c * base) <= c


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "num,den,expected",
        [(3, 2, 2), (1, 2, 1), (0, 5, 0), (7, 2, 4), (10, 4, 3), (9, 4, 2)],
    )
    def test_cases(self, num, den, expected):
        assert round_half_up_ratio(num, den) == expected

    def test_arrays_round_like_ints(self):
        num = [0, 1, 3, 7, 9, 10, 12 * 35, 2**61, 2**70 + 1]
        den = [5, 2, 2, 2, 4, 4, 9, 7, 3]
        want = [round_half_up_ratio(n, d) for n, d in zip(num, den)]
        got = round_half_up_ratio(np.array(num[:-1]), np.array(den[:-1]))
        assert got.dtype == np.int64 and got.tolist() == want[:-1]
        assert round_half_up_ratio(np.array(num, dtype=object), np.array(den)).tolist() == want


class TestAggregate:
    def test_fiscal_grouping_collects_both_calendar_years(self):
        records = [rec(m, 100, year=2010) for m in range(4, 13)]
        records += [rec(m, 100, year=2011) for m in range(1, 4)]
        table, sex_of = aggregate_person_years(records)
        assert len(table) == 1
        assert table["year"][0] == 2010
        assert table["months_observed"][0] == 12
        assert sex_of == {"a": "M"}

    def test_table_holds_one_row_per_person_year(self):
        records = [rec(4, 100, age=40), rec(5, 7, age=41), rec(4, 200_000, pid="b", sex="F")]
        table, sex_of = aggregate_person_years(records)
        assert table.dtype == PERSON_YEAR_DTYPE
        assert table.tolist() == [("a", 41, 2010, 2, 642, 0), ("b", 40, 2010, 1, 2_400_000, 4)]
        assert sex_of == {"a": "M", "b": "F"}

    def test_duplicate_person_year_month(self):
        with pytest.raises(DuplicateRecordError):
            aggregate_person_years([rec(4, 1), rec(4, 2)])

    def test_duplicate_in_a_later_group_fires_at_its_row(self):
        records = [
            rec(4, 1), rec(5, 1),                  # person a, fiscal 2010
            rec(4, 1, pid="b"),                    # person b
            rec(4, 1, year=2011),                  # person a, fiscal 2011
            rec(6, 1, year=2011, pid="b"),
            rec(5, 2),                             # repeats a, 2010, month 5
            rec(7, 1),
        ]
        consumed = []

        def stream():
            for r in records:
                consumed.append(r)
                yield r

        with pytest.raises(DuplicateRecordError) as err:
            aggregate_person_years(stream())
        assert len(consumed) == 6
        assert "year 2010, month 5" in str(err.value)

    def test_same_month_of_another_calendar_year_is_no_duplicate(self):
        # fiscal 2010 holds March 2011; March 2010 belongs to fiscal 2009
        table, _ = aggregate_person_years([rec(3, 1, year=2011), rec(3, 1, year=2010)])
        assert table["year"].tolist() == [2009, 2010]

    def test_conflicting_sex(self):
        with pytest.raises(DataFormatError):
            aggregate_person_years([rec(4, 1), rec(5, 1, sex="F")])

    def test_person_years_sort_by_id_then_year(self):
        records = [rec(4, 1, pid="b"), rec(4, 1, pid="a", year=2011), rec(4, 1, pid="B"),
                   rec(4, 1, pid="a"), rec(1, 1, pid="a", year=2010)]
        table, sex_of = aggregate_person_years(records)
        assert list(zip(table["person_id"], table["year"].tolist())) == [
            ("B", 2010), ("a", 2009), ("a", 2010), ("a", 2011), ("b", 2010)
        ]
        assert list(sex_of) == ["b", "a", "B"]

    def test_cost_past_int64_raises_overflow_after_the_whole_stream(self):
        big = 2**63 // 12 + 5  # 12 * big does not fit int64
        consumed = []

        def stream():
            for r in [rec(4, big), rec(4, 10, pid="b"), rec(5, 0, pid="b")]:
                consumed.append(r)
                yield r

        with pytest.raises(OverflowError, match="Python int too large"):
            aggregate_person_years(stream())
        assert len(consumed) == 3

    def test_year_past_int64_raises_overflow_after_the_whole_stream(self):
        consumed = []

        def stream():
            for r in [rec(6, 1, year=2**64), rec(7, 1, pid="b")]:
                consumed.append(r)
                yield r

        with pytest.raises(OverflowError, match="Python int too large"):
            aggregate_person_years(stream())
        assert len(consumed) == 2

    def test_a_later_duplicate_wins_over_a_cost_past_int64(self):
        with pytest.raises(DuplicateRecordError):
            aggregate_person_years([rec(4, 2**80), rec(5, 1), rec(4, 1)])

    def test_empty_stream(self):
        table, sex_of = aggregate_person_years([])
        assert len(table) == 0 and table.dtype == PERSON_YEAR_DTYPE
        assert sex_of == {}

    def test_memory_is_held_per_person_year_not_per_row(self, tmp_path):
        from healthmarkov.synthetic import generate_panel, random_chain, write_claims

        panel = generate_panel(random_chain(11, entry_age=20, exit_age=60, attrition=0.02), 150)
        path = tmp_path / "claims.csv"
        rows = write_claims(panel, path)
        tracemalloc.start()
        try:
            table, _ = aggregate_person_years(parse_claims(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding every ClaimRecord until the stream ends took about 240 bytes per row
        assert rows >= 50_000
        assert table["months_observed"].sum() == rows
        assert peak <= 120 * rows


@st.composite
def claims_orders(draw):
    """A small generated panel with drawn sexes, a year convention and a row order."""
    n_ages = draw(st.integers(2, 5))
    truth = random_chain(draw(st.integers(0, 10**6)), entry_age=30, exit_age=30 + n_ages,
                         attrition=draw(st.sampled_from([0.0, 0.3])))
    panel = generate_panel(truth, draw(st.integers(1, 12)))
    sex = draw(st.lists(st.sampled_from("MF"), min_size=panel.n_persons, max_size=panel.n_persons))
    panel = Panel(panel.person_ids, panel.birth_years, panel.age_min, panel.states, panel.costs,
                  panel.months, sex=sex)
    return panel, draw(st.sampled_from(["fiscal", "calendar"])), draw(st.randoms(use_true_random=False))


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=claims_orders())
def test_the_order_of_claims_rows_does_not_matter(tmp_path_factory, plain_blocks, case):
    panel, convention, order = case
    path = tmp_path_factory.mktemp("order") / "claims.csv"
    write_claims(panel, path, year_convention=convention)
    header, *rows = path.read_bytes().split(b"\r\n")[:-1]

    def load(rows):
        path.write_bytes(b"".join(row + b"\r\n" for row in [header, *rows]))
        plain_blocks.clear()
        got = load_claims_panel(path, year_convention=convention)
        arrays = [(a.dtype, a.tolist()) for a in (got.birth_years, got.states, got.costs, got.months)]
        return (got.person_ids.tolist(), got.sex.tolist(), got.age_min, arrays), all(t for _, t in plain_blocks)

    want, plain = load(rows)
    assert plain
    order.shuffle(rows)
    assert load(rows) == (want, True)
    pid = rows[0].split(b",")[0]
    rows[0] = b'"' + pid + b'"' + rows[0][len(pid):]  # one quoted id sends the file to the row loop
    assert load(rows) == (want, False)


class TestMillionRowStream:
    def test_row_count_through_the_generator(self, tmp_path):
        from healthmarkov.synthetic import generate_panel, random_chain, write_claims

        truth = random_chain(404, entry_age=20, exit_age=60)
        panel = generate_panel(truth, 2_033)
        path = tmp_path / "claims.csv"
        written = write_claims(panel, path)
        assert written == 2_033 * 41 * 12  # 1,000,236 monthly rows
        count = sum(1 for _ in parse_claims(path))
        assert count == written


class TestLoadClaimsPanel:
    def test_small_pipeline(self):
        text = ""
        for year in (2010, 2011, 2012):
            for m in range(4, 13):
                text += f"a,M,{40 + year - 2010},{year},{m},1000\n"
        panel = load_claims_panel(claims(text))
        assert panel.n_persons == 1
        assert observed_ages(panel) == [40, 41, 42]
        assert panel.costs[panel.states >= 0].tolist() == [12_000] * 3

    def test_builds_no_person_year_objects(self):
        # claims reach the panel as one person-year table; there is no record type to build
        for module in (healthmarkov.panel, healthmarkov.ingest):
            assert not hasattr(module, "PersonYear")
        text = "a,M,40,2010,4,1000\na,M,41,2011,4,2000\nb,F,3,2011,5,7\n"
        panel = load_claims_panel(claims(text))
        assert list(panel.person_ids) == ["a", "b"]
        assert panel.summary()["person_years"] == 3

    def test_first_year_before_the_birthday_loads_at_the_ages_reached(self):
        # born June 1969: fiscal 2010 holds April-May at 40, fiscal 2011 is full, at 41 then 42
        rows = [(2010, m, 40) for m in (4, 5)] + [(2011, m, 41) for m in (4, 5)]
        rows += [(2011, m, 42) for m in range(6, 13)] + [(2012, m, 42) for m in (1, 2, 3)]
        assert len(rows) == 14
        panel = load_claims_panel(claims("".join(f"a,M,{age},{year},{m},1000\n" for year, m, age in rows)))
        assert panel.summary()["person_years"] == 2
        assert panel.birth_years.tolist() == [1969]
        assert observed_ages(panel) == [41, 42]

    def test_ages_that_leave_no_birth_year_name_the_person(self):
        text = "a,M,40,2010,4,1\nb,F,7,2010,4,1\na,M,43,2011,4,1\n"
        with pytest.raises(DataFormatError) as err:
            load_claims_panel(claims(text))
        assert err.value.line is None
        assert str(err.value) == "person 'a': age 43 in 2011-04 contradicts earlier records (birth year 1969 or 1970)"

    def test_duplicate_row_bubbles_up(self):
        text = "a,M,40,2010,4,1\na,M,40,2010,4,1\n"
        with pytest.raises(DuplicateRecordError):
            load_claims_panel(claims(text))


@st.composite
def observed_lives(draw):
    """One person's birth year and month, the (year, month)s observed, and a year convention.

    The observed months run from any month of any year for up to 40 months,
    with gaps, so first and last years are often partial.
    """
    born, birth_month = draw(st.integers(1940, 1990)), draw(st.integers(1, 12))
    first, span = draw(st.integers(2005 * 12, 2012 * 12 - 1)), draw(st.integers(1, 40))
    keep = draw(st.lists(st.booleans(), min_size=span, max_size=span).filter(any))
    months = [(k // 12, k % 12 + 1) for k in range(first, first + span) if keep[k - first]]
    return born, birth_month, months, draw(st.sampled_from(["fiscal", "calendar"]))


@given(observed_lives())
def test_ages_are_the_ages_reached_in_the_grouping_year(life):
    """Ages stamped at ingest against an oracle that knows the birth date.

    A record's age is the age at the end of its month.  The person-year of
    grouping year g gets g - birth year, the age reached in calendar year g.
    Records that all fall before the birthday in their calendar year cannot
    tell birth year b from b + 1; then b + 1, the later one, is taken.
    """
    born, birth_month, months, convention = life
    text = "".join(f"a,F,{year - born - (month < birth_month)},{year},{month},100\n" for year, month in months)
    panel = load_claims_panel(claims(text), year_convention=convention)

    stamped = born if any(month >= birth_month for _, month in months) else born + 1
    gyears = {year - (convention == "fiscal" and month < 4) for year, month in months}
    assert panel.birth_years.tolist() == [stamped]
    assert observed_ages(panel) == sorted(g - stamped for g in gyears)
