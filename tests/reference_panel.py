"""Row-by-row panel-cache reader and panel builder, kept as a test reference.

These are the implementations ``Panel.read_cache`` and ``build_panel`` had
before the columnar rewrite, unchanged apart from their names and two
rules the reader took on since (a row holding bytes that are not UTF-8
and a negative cost are refused at their line), with a copy of the
``MissingMarker`` record the reader collected, which the package no
longer has.  The
differential tests in test_panel_differential.py hold the columnar code to
them: the same panel for every valid file, and the same error class and
line for every malformed one.
"""

import csv
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
        header = next(reader, None)
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
