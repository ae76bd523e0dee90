"""Differential tests: the columnar panel-cache reader against the row-by-row reference.

Generated cache files cover quoted person ids with commas and quotes,
blank lines, whitespace-padded fields, integers that only ``int()``
accepts, MISSING rows, several birth cohorts, both line endings and single
mutations.  A valid file must give the same panel as
reference_panel.reference_read_cache; a malformed one the same error class,
line and message (the message only for the package's own errors).

``Panel.min_year`` is held to reference_panel.reference_min_year on panels
of several birth cohorts, with a single observed cell or none: the same
year, or the same EmptyCohortError.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov.errors import HealthMarkovError
from healthmarkov.panel import (
    ABSENT_CODE,
    MISSING_CODE,
    PANEL_CACHE_COLUMNS,
    Panel,
    _loadtxt_cells,
    build_panel,
)
from healthmarkov.states import STATE_LABELS, HealthState
from healthmarkov.synthetic import generate_panel, random_chain

from reference_ingest import PersonYear
from reference_panel import reference_build_panel, reference_min_year, reference_read_cache

PIDS = st.text(alphabet=st.sampled_from('ab7 ,"é日\0'), max_size=4)
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
             "duplicate", "birth", "header", "blank_first"]


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
        elif mutation == "birth":
            row[2] = str(year + draw(st.sampled_from([-1, 1])))
        if mutation == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif mutation not in ("header", "blank_first"):
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
    return text


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
@given(text=cache_files())
def test_columnar_reader_matches_reference(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
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
        'a,30,2000,12,-5,Q1\n',                              # negative cost
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
    path.write_bytes((",".join(PANEL_CACHE_COLUMNS) + "\n" + body).encode("utf-8"))
    assert_same_outcome(path)


def test_write_cache_output_takes_the_columnar_path(tmp_path):
    panel = generate_panel(random_chain(seed=3, entry_age=20, exit_age=40, attrition=0.05), 300)
    path = tmp_path / "panel.csv"
    panel.write_cache(path)
    assert _loadtxt_cells(path.read_bytes()) is not None
    assert_same_panel(Panel.read_cache(path), reference_read_cache(path))


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


@st.composite
def observed_panels(draw):
    """Small panels whose observed cells are none, exactly one, or any subset."""
    n, n_ages = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    births = draw(st.lists(st.integers(1900, 2000), min_size=n, max_size=n))
    states = np.full((n, n_ages), draw(st.sampled_from([ABSENT_CODE, MISSING_CODE])), dtype=np.int8)
    layout = draw(st.sampled_from(["none", "single", "any"]))
    if layout == "single" and states.size:
        states[draw(st.integers(0, n - 1)), draw(st.integers(0, n_ages - 1))] = draw(st.integers(0, 4))
    elif layout == "any":
        cells = draw(st.lists(st.sampled_from([-2, -1, 0, 4]), min_size=states.size,
                              max_size=states.size))
        states[:] = np.array(cells, dtype=np.int8).reshape(n, n_ages)
    return Panel([f"p{k}" for k in range(n)], births, draw(st.integers(0, 60)), states,
                 np.zeros((n, n_ages)), np.where(states >= 0, 12, 0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(panel=observed_panels())
def test_min_year_matches_reference(panel):
    want = _outcome(reference_min_year, panel)
    assert _outcome(lambda p: p.min_year, panel) == want
