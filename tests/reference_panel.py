"""Row-by-row panel-cache reader and panel builder, kept as a test reference.

These are the implementations ``Panel.read_cache`` and ``build_panel`` had
before the columnar rewrite, unchanged apart from their names and four
rules the reader took on since (a row holding bytes that are not UTF-8,
a person_id that is empty or holds a NUL once stripped, a negative cost
and a record the csv module cannot read, such as one with a field over
its field limit, are refused at their line), with a
copy of the ``MissingMarker`` record the reader collected, which the
package no longer has.  The
differential tests in test_panel_differential.py hold the columnar code to
them: the same panel for every valid file, and the same error class and
line for every malformed one.

``reference_memo_arrays`` is how ``write_cache`` built its parsed-cells
memo before it saved the columns it formats: it parsed the CSV bytes it
had just written, a block of lines at a time.  test_panel_memo.py holds
every memo ``write_cache`` saves byte-equal to it.
"""

import csv
import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from healthmarkov.errors import (
    DataFormatError,
    DuplicateRecordError,
    EmptyCohortError,
    InvalidInputError,
)
from healthmarkov.panel import (
    ABSENT_CODE,
    MISSING_CODE,
    PANEL_CACHE_COLUMNS,
    Panel,
    _MEMO_FORMAT,
    _cache_cells,
)
from healthmarkov.states import MISSING, HealthState
from reference_ingest import PersonYear


@dataclass(frozen=True)
class MissingMarker:
    """Explicit record of an in-panel year with no observed months."""

    person_id: str
    age: int
    year: int


def reference_read_cache(path) -> Panel:
    """Rebuild a panel from its cache file."""
    person_years = []
    markers = []
    # a byte that is not UTF-8 reads as a lone surrogate, refused at its line before any other check
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        lineno = 0  # the last record read; a csv error belongs to the next one
        try:
            header = next(reader, None)
            lineno = 1
            if header is not None and not _utf8(header):
                raise DataFormatError("row holds bytes that are not UTF-8", line=1)
            if header is None or tuple(h.strip() for h in header) != PANEL_CACHE_COLUMNS:
                raise DataFormatError(
                    f"panel cache must start with header {','.join(PANEL_CACHE_COLUMNS)}", line=1
                )
            for lineno, row in enumerate(reader, start=2):
                if not _utf8(row):
                    raise DataFormatError("row holds bytes that are not UTF-8", line=lineno)
                if not row:
                    continue
                if len(row) != len(PANEL_CACHE_COLUMNS):
                    raise DataFormatError(f"expected {len(PANEL_CACHE_COLUMNS)} fields", line=lineno)
                pid, age_s, year_s, months_s, cost_s, state_s = (f.strip() for f in row)
                if not pid:
                    raise DataFormatError(f"person_id {pid!r} is empty", line=lineno)
                if "\0" in pid:
                    raise DataFormatError(
                        f"person_id {pid!r} holds a NUL, which Python 3.10's csv module refuses", line=lineno)
                try:
                    age, year = int(age_s), int(year_s)
                except ValueError:
                    raise DataFormatError(f"bad age/year {age_s!r}/{year_s!r}", line=lineno) from None
                if state_s == MISSING:
                    markers.append(MissingMarker(pid, age, year))
                    continue
                try:
                    state = HealthState[state_s]
                except KeyError:
                    raise DataFormatError(f"unknown state {state_s!r}", line=lineno) from None
                try:
                    months, cost = int(months_s), int(cost_s)
                except ValueError:
                    raise DataFormatError(f"bad months/cost {months_s!r}/{cost_s!r}", line=lineno) from None
                if cost < 0:
                    raise DataFormatError(f"negative cost {cost}", line=lineno)
                person_years.append(PersonYear(pid, age, year, months, cost, state))
        except csv.Error as exc:
            raise DataFormatError(f"unreadable CSV record: {exc}", line=lineno + 1) from None
    end_year = None
    all_years = [py.year for py in person_years] + [m.year for m in markers]
    if all_years:
        end_year = max(all_years)
    return reference_build_panel(person_years, end_year=end_year)


def _utf8(row) -> bool:
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def reference_build_panel(
    person_years: Iterable[PersonYear], end_year: int | None = None, sex=None
) -> Panel:
    """Assemble trajectories into a Panel.

    Gap years between observed entries and trailing years up to the panel's
    final year (default: the latest observed year) become missing markers.
    sex, when given, maps person_id -> "M"/"F".
    """
    by_person: dict[str, list[PersonYear]] = {}
    seen: set[tuple[str, int]] = set()
    for py in person_years:
        key = (py.person_id, py.year)
        if key in seen:
            raise DuplicateRecordError(f"duplicate person-year {key}")
        seen.add(key)
        by_person.setdefault(py.person_id, []).append(py)
    if not by_person:
        raise EmptyCohortError("no person-years to build a panel from")

    max_year = max(py.year for pys in by_person.values() for py in pys)
    if end_year is None:
        end_year = max_year
    elif end_year < max_year:
        raise InvalidInputError(f"end_year {end_year} precedes the last observed year {max_year}")

    ids = sorted(by_person)
    births = []
    spans = []
    for pid in ids:
        entries = sorted(by_person[pid], key=lambda py: py.age)
        birth = entries[0].year - entries[0].age
        for py in entries:
            if py.year - py.age != birth:
                raise DataFormatError(
                    f"person {pid!r}: age {py.age} in year {py.year} contradicts "
                    f"earlier records (birth year {birth})"
                )
        ages = [py.age for py in entries]
        if len(set(ages)) != len(ages):
            raise DuplicateRecordError(f"person {pid!r} has duplicate ages")
        births.append(birth)
        spans.append((entries, birth, ages[0], end_year - birth))

    age_min = min(s[2] for s in spans)
    age_max = max(s[3] for s in spans)
    n_ages = age_max - age_min + 1
    n = len(ids)

    states = np.full((n, n_ages), ABSENT_CODE, dtype=np.int8)
    costs = np.zeros((n, n_ages), dtype=np.int64)
    months = np.zeros((n, n_ages), dtype=np.int8)
    for p, (entries, birth, entry_age, last_age) in enumerate(spans):
        states[p, entry_age - age_min : last_age - age_min + 1] = MISSING_CODE
        for py in entries:
            c = py.age - age_min
            states[p, c] = int(py.state) - 1
            costs[p, c] = py.annual_cost
            months[p, c] = py.months_observed

    sex_arr = None
    if sex is not None:
        try:
            sex_arr = np.array([sex[pid] for pid in ids], dtype=object)
        except KeyError as exc:
            raise InvalidInputError(f"sex mapping is missing person {exc.args[0]!r}") from None

    return Panel(ids, births, age_min, states, costs, months, sex=sex_arr)


def reference_memo_arrays(raw: bytes):
    """The memo's arrays in file order: its key, then ``_cache_cells(raw)``, one id per run of rows."""
    yield np.frombuffer(_MEMO_FORMAT + hashlib.sha256(raw).digest(), dtype=np.uint8)
    ids, end_years = [], []
    columns = [[] for _ in range(6)]  # each row's index into ids, then ages, years, codes, months, costs
    for block in _line_blocks(raw):
        (pids, *cells), end_year = _cache_cells(block)
        new_id = np.append(True, pids[1:] != pids[:-1])[:len(pids)]
        if ids and len(pids) and pids[0] == ids[-1]:
            new_id[0] = False  # the run goes on from the block before
        for column, part in zip(columns, (np.cumsum(new_id, dtype=np.int64) + (len(ids) - 1), *cells)):
            column.append(part)
        ids += pids[new_id].tolist()
        end_years += [] if end_year is None else [end_year]
    yield np.array([max(end_years)] if end_years else [], dtype=np.int64)
    yield np.frombuffer("".join(ids).encode("utf-8"), dtype=np.uint8)
    yield np.cumsum([len(i) for i in ids], dtype=np.int64)
    while columns:
        yield np.concatenate(columns.pop(0))  # a column's blocks are let go once it is joined


#: Bytes of rows in each block _line_blocks cuts.
_MEMO_BLOCK = 1 << 20


def _line_blocks(raw: bytes):
    """Cache files of about _MEMO_BLOCK bytes of rows each whose cells, joined, are those of ``raw``.

    So the parse's temporaries stay the size of a block.  A file with no
    quote holds one record per line and is cut at line ends, each block
    behind the header; a quote may open a field that spans lines, so a file
    with one stays whole.
    """
    head = raw.find(b"\n") + 1
    if not head or b'"' in raw:
        yield raw
        return
    start = head
    while True:
        end = raw.find(b"\n", start + _MEMO_BLOCK) + 1 or len(raw)
        yield raw[:head] + raw[start:end]
        if end == len(raw):
            return
        start = end
