"""Differential tests: the columnar panel-cache reader against the row-by-row reference.

Generated cache files cover quoted person ids with commas and quotes,
blank lines, whitespace-padded fields, integers that only ``int()``
accepts, MISSING rows, several birth cohorts, both line endings and single
mutations, among them negative costs and bytes that are not UTF-8.  A valid file must give the same panel as
reference_panel.reference_read_cache; a malformed one the same error class,
line and message (the message only for the package's own errors).
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov import panel as panel_module
from healthmarkov.errors import DataFormatError, HealthMarkovError
from healthmarkov.panel import PANEL_CACHE_COLUMNS, Panel, build_panel
from healthmarkov.states import STATE_LABELS, HealthState

from reference_ingest import PersonYear
from reference_panel import reference_build_panel, reference_read_cache

#: Three draws in four hold no NUL and a character; the fourth may be empty or hold a NUL.
NONEMPTY_PIDS = st.text(alphabet=st.sampled_from('ab7 ,"é日'), min_size=1, max_size=4)
PIDS = st.one_of(NONEMPTY_PIDS, NONEMPTY_PIDS, NONEMPTY_PIDS,
                 st.text(alphabet=st.sampled_from('ab7 ,"é日\0'), max_size=4))
OBSERVED = st.tuples(st.just("obs"), st.sampled_from(STATE_LABELS), st.integers(1, 12),
                     st.integers(0, 3_000_000))
MISSING_CELL = st.tuples(st.just("missing"), st.just("MISSING"), st.just(0), st.none())
CELL = st.one_of(OBSERVED, OBSERVED, OBSERVED, MISSING_CELL)
PERSON = st.tuples(
    PIDS,
    st.sampled_from([1950, 1951, 1965, 1980]),   # birth cohort
    st.integers(20, 24),                           # entry age
    st.lists(st.tuples(st.sampled_from([True, True, True, False]), CELL), min_size=1, max_size=5),
)


def _int_text(draw, value: int, varied: bool) -> str:
    """One of several spellings that int() reads as value."""
    s = str(value)
    if not varied:
        return s
    style = draw(st.sampled_from(["plain", "plain", "plain", "plus", "underscore", "zeros",
                                  "fullwidth"]))
    if style == "plus" and value >= 0:
        s = "+" + s
    elif style == "underscore" and len(s) > 1 and s[0] != "-":
        s = s[0] + "_" + s[1:]
    elif style == "zeros":
        s = s.replace(s.lstrip("-"), "00" + s.lstrip("-"))
    elif style == "fullwidth":
        s = s.translate(str.maketrans("0123456789", "０１２３４５６７８９"))
    return s


def _pad(draw, s: str, varied: bool) -> str:
    if not varied:
        return s
    return draw(st.sampled_from(["", "", "", " ", "\t"])) + s + draw(st.sampled_from(["", "", " "]))


MUTATIONS = ["none", "none", "none", "field_count", "label", "age", "year", "months", "cost",
             "negative_cost", "duplicate", "birth", "header", "blank_first", "not_utf8"]

#: Bytes that are not UTF-8 (a stray lead byte, a lone continuation byte, an encoded
#: surrogate), spelled as the lone surrogates that ``errors="surrogateescape"`` writes them from.
NOT_UTF8 = ["\udcff", "\udcc3", "\udc80", "\udced\udca0\udc80"]


@st.composite
def cache_files(draw):
    rows = []
    for pid, birth, entry, cells in draw(st.lists(PERSON, min_size=1, max_size=4)):
        for k, (keep, (kind, label, months, cost)) in enumerate(cells):
            if keep:
                age = entry + k
                rows.append([pid, age, birth + age, months, cost, label])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))

    # half the files are spelled as write_cache spells them; the others vary every field
    varied = draw(st.booleans())
    lines = []
    for pid, age, year, months, cost, label in rows:
        pid_field = pid if not varied or draw(st.booleans()) else f" {pid} "
        fields = [
            _pad(draw, _int_text(draw, age, varied), varied),
            _pad(draw, _int_text(draw, year, varied), varied),
            _pad(draw, _int_text(draw, months, varied), varied),
            "" if cost is None else _pad(draw, _int_text(draw, cost, varied), varied),
            _pad(draw, label, varied) if draw(st.integers(0, 5)) == 0 else label,
        ]
        quoted = _csv_field(pid_field)
        if varied and draw(st.integers(0, 5)) == 0:
            quoted = '"' + pid_field.replace('"', '""') + '"'
        lines.append(",".join([quoted] + fields))

    mutation = draw(st.sampled_from(MUTATIONS))
    if lines and mutation != "none":
        i = draw(st.integers(0, len(lines) - 1))
        # a mutated line is rebuilt from its unpadded row so the target field is known
        pid, age, year, months, cost, label = rows[i]
        row = [_csv_field(pid), str(age), str(year), str(months),
               "" if cost is None else str(cost), label]
        if mutation == "field_count":
            row = row[:-1] if draw(st.booleans()) else row + [""]
        elif mutation == "label":
            row[5] = draw(st.sampled_from(["Q6", "q1", "", "MISSING?", "Q"]))
        elif mutation == "age":
            row[1] = draw(st.sampled_from(["x", "", "1.5", "0x10"]))
        elif mutation == "year":
            row[2] = draw(st.sampled_from(["y", "", "2e3"]))
        elif mutation == "months":
            row[3] = draw(st.sampled_from(["m", "", "1.0"]))
        elif mutation == "cost":
            row[4] = draw(st.sampled_from(["c", "", "1k", "-"]))
        elif mutation == "negative_cost":
            row[4] = draw(st.sampled_from(["-1", "-2500", " -7"]))
        elif mutation == "birth":
            row[2] = str(year + draw(st.sampled_from([-1, 1])))
        if mutation == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif mutation not in ("header", "blank_first", "not_utf8"):
            lines[i] = ",".join(row)

    for _ in range(draw(st.integers(0, 2 if varied else 0))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", "  "])))
    header = ",".join(PANEL_CACHE_COLUMNS)
    if mutation == "header":
        header = draw(st.sampled_from(["person_id,age,year", header.replace("state", "State"),
                                       " " + header.replace(",", " , ")]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([header] + lines) + draw(st.sampled_from([end, ""]))
    if mutation == "blank_first":
        text = end + text
    if mutation == "not_utf8":
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(NOT_UTF8)) + text[k:]
    return text.encode("utf-8", "surrogateescape")


def _csv_field(value: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([value, ""])
    return buf.getvalue()[:-1]


def _outcome(read, path):
    """("ok", panel) or ("error", (class, line, message)); numpy's own messages are not compared."""
    try:
        return "ok", read(path)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        message = str(exc) if isinstance(exc, HealthMarkovError) else None
        return "error", (type(exc), getattr(exc, "line", None), message)


def assert_same_panel(got, want):
    assert list(got.person_ids) == list(want.person_ids)
    assert all(type(p) is str for p in got.person_ids)
    assert got.age_min == want.age_min
    for name in ("birth_years", "states", "costs", "months"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_same_outcome(path):
    want = _outcome(reference_read_cache, path)
    got = _outcome(Panel.read_cache, path)
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_panel(got[1], want[1])


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(raw=cache_files())
def test_columnar_reader_matches_reference(tmp_path, raw):
    path = tmp_path / "panel.csv"
    path.write_bytes(raw)
    assert_same_outcome(path)


@pytest.mark.parametrize(
    "body",
    [
        'a,30,2000,12,1000,Q1\r3,31,2001,12,5,Q2\r',      # bare carriage-return line ends
        '"a\nb",30,2000,12,1000,Q1\nx,31,2001,12,oops,Q1\n',  # quoted line break
        '"a\nb,cdefghij",30,2000,12,1000,Q1\nx,31,2001,12,5,Q2\n',  # id longer than its lines
        'a"b,30,2000,12,1000,Q1\n',                          # quote inside an unquoted field
        ' "a,b",30,2000,12,1000,Q1\n',                       # quote after a space is literal
        'a,30,2000,12,1000,Q1\n"",30,2000,12,1000,Q1\n',     # empty quoted id
        'a,30,2000,300,1000,Q1\n',                           # months beyond int8
        'a,30,2000,12,99999999999999999999,Q1\n',            # cost beyond int64
        'a,30,2000,12,99999999999999999999,Q1\nb,30,2000,12,oops,Q1\n',  # a later bad line wins
        'a,30,2000,12,-5,Q1\n',                              # negative cost
        'a,30,2000,12,-5,Q1\nb,31,2001,0,-5,MISSING\n',      # a MISSING row's cost goes unchecked
        'p\udcff1,20,2000,12,100,Q1\n',                      # a byte that is not UTF-8
        'a,30,2000,12,oops,Q1\nb\udcff,30,2000,12,1,Q1\n',    # an earlier bad line wins
        'b\udcff,30,2000,12,1,Q1\na,30,2000,12,oops,Q1\n',    # the undecodable line is the earlier one
        '"a\nb\udcff",30,2000,12,1,Q1\n',                    # in a record of two physical lines
        'a,30\n"\udce9",30,2000,12,1,Q1\n',                  # after a short row
        'a,30,2000,12,1000,Q1\0\n',                          # trailing NUL in a label
        'a,30,2000,12,1000\0,Q1\n',                          # trailing NUL in a cost
        'a,30,2000,12,1000,Q1\na,31,2001,7,,MISSING\nb,20,2003,0,,MISSING\n',
        'a,30,2000,12,1000,Q1\n\n\n',
        '\n\n',
        '',
    ],
)
def test_edge_files_match_reference(tmp_path, body):
    path = tmp_path / "panel.csv"
    path.write_bytes((",".join(PANEL_CACHE_COLUMNS) + "\n" + body).encode("utf-8", "surrogateescape"))
    assert_same_outcome(path)


def test_a_header_that_is_not_utf8_fails_at_line_1(tmp_path):
    # the names check refuses it too, with another message: bytes are checked first, as on every line
    path = tmp_path / "panel.csv"
    path.write_bytes(b"\xff" + ",".join(PANEL_CACHE_COLUMNS).encode() + b"\na,30,2000,12,1000,Q1\n")
    with pytest.raises(DataFormatError, match="row holds bytes that are not UTF-8") as err:
        Panel.read_cache(path)
    assert err.value.line == 1
    assert_same_outcome(path)


LONG_FIELD_ROWS = {
    "as written": "x" * 200_000 + ",30,2000,12,1000,Q1",
    "padded label": "x" * 200_000 + ",30,2000,12,1000, Q1",
    "age with 200,000 leading zeros": "a," + "0" * 200_000 + "30,2000,12,1000,Q1",
    "quoted across short lines": '"' + ("x" * 1000 + "\n") * 200 + '",30,2000,12,1000,Q1',
}


@pytest.mark.parametrize("row", LONG_FIELD_ROWS.values(), ids=LONG_FIELD_ROWS.keys())
def test_a_field_over_the_csv_limit_fails_at_its_line(tmp_path, row):
    # numpy would read all but the padded label; the csv module's limit holds for every one
    path = tmp_path / "panel.csv"
    path.write_text(",".join(PANEL_CACHE_COLUMNS) + "\n" + row + "\na,30,2000,12,oops,Q1\n")
    with pytest.raises(DataFormatError, match="field larger than field limit") as err:
        Panel.read_cache(path)
    assert err.value.line == 2
    assert_same_outcome(path)


# -- the row loop's list boundaries -------------------------------------------

LIMIT = csv.field_size_limit()
#: Rows to put among a cache file's data rows, as (label, row text without a line end).
ODD_ROWS = [
    ("none", None),
    ("quoted line break", '"q\nr",30,2000,12,1000,Q1'),
    ("padded label", "s,30,2000,12,1000, Q2"),
    ("field past the csv limit", "t" * (LIMIT + 1) + ",30,2000,12,1000,Q1"),
]
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def blocky_cache_files(draw):
    """A cache_files file with one line end throughout and maybe one odd row, a row-loop list size and labels."""
    text = draw(cache_files()).decode("utf-8", "surrogateescape")
    ending = draw(st.sampled_from(ENDINGS))
    lines = text.replace("\r\n", "\n").split("\n")  # the generated ids hold no line end
    label, odd = draw(st.sampled_from(ODD_ROWS))
    if odd is not None:
        lines.insert(draw(st.integers(1, len(lines))), odd)
    raw = ending.join(lines).encode("utf-8", "surrogateescape")
    return raw, draw(st.sampled_from([1, 2, 5, 200])), {f"{ending!r} line ends", label}


def test_cache_reader_matches_reference_across_block_boundaries(tmp_path):
    seen = set()
    path = tmp_path / "panel.csv"

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(blocky_cache_files())
    def check(case):
        raw, block_rows, labels = case
        path.write_bytes(raw)  # with no memo beside it
        want = _outcome(reference_read_cache, path)
        with mock.patch.object(panel_module, "_BLOCK_ROWS", block_rows):
            got = _outcome(Panel.read_cache, path)
        assert got[0] == want[0], (got, want)
        if want[0] == "error":
            assert got[1] == want[1]
            if "unreadable CSV record" in want[1][2]:
                seen.add("csv.Error record")
        else:
            assert_same_panel(got[1], want[1])
            if (want[1].states >= 0).sum() > block_rows:  # each observed cell is one record
                seen.add("records over more than one list")
        seen.update(labels)

    check()
    reached = {f"{end!r} line ends" for end in ENDINGS} | {label for label, _ in ODD_ROWS} | {
        "csv.Error record", "records over more than one list"}
    assert reached <= seen, reached - seen


@settings(max_examples=200, derandomize=True, deadline=None)
@given(people=st.lists(PERSON, min_size=0, max_size=4), end_shift=st.sampled_from([None, 0, 2]))
def test_build_panel_matches_reference(people, end_shift):
    entries = [
        (pid, entry + k, birth + entry + k, months, cost, label)
        for pid, birth, entry, cells in people
        for k, (keep, (kind, label, months, cost)) in enumerate(cells)
        if keep and kind == "obs"
    ]
    pys = [PersonYear(p, a, y, m, c, HealthState[s]) for p, a, y, m, c, s in entries]
    pids, ages, years, months, costs, labels = zip(*entries) if entries else ([],) * 6
    columns = (np.array(pids, dtype=object), np.array(ages, dtype=np.int64),
               np.array(years, dtype=np.int64), np.array([STATE_LABELS.index(s) for s in labels]),
               np.array(months, dtype=np.int64), np.array(costs, dtype=np.int64))
    end_year = None
    if end_shift is not None and entries:
        end_year = max(e[2] for e in entries) + end_shift
    want = _outcome(lambda _: reference_build_panel(pys, end_year=end_year), None)
    got = _outcome(lambda _: build_panel(*columns, end_year=end_year), None)
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_panel(got[1], want[1])
