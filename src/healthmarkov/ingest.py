"""Claims ingestion: monthly records -> a person-year table -> a Panel.

Input CSV (UTF-8, header required; a leading byte-order mark, as
spreadsheet programs write it, is skipped when reading from a path):

    person_id,sex,age,year,month,cost_yen

with sex in {M, F}, month 1-12 and cost_yen a non-negative integer.
Each person_id is stripped and must pass the id rule both readers and
both writers share (``panel._id_fault``): a record whose id is empty,
holds a NUL or holds bytes that are not UTF-8 raises DataFormatError at
its line, so every id ingest gives back, ``write_claims`` and
``Panel.write_cache`` write back.

``parse_claims`` yields one ClaimRecord per data row, in input order, but
reads the text with ``panel._read_blocks``, the CSV reader the panel cache
uses too.  A plain block (see ``panel._plain_block``, which has already
seen to the ids), as ``synthetic.write_claims`` writes one, is decoded by
one ``np.loadtxt`` call and taken when every other field is valid as
written (sex exactly M or F).  Any other block goes, with the rest of the
stream, to the row loop (``csv.reader`` and ``int()``), which alone
decides errors: their class, message and 1-based line, and the records
yielded before them, are those of a row-by-row parse.  The one
difference: a strictly decoding text stream may raise its
DataFormatError for undecodable bytes a block earlier.

Aggregation into person-years keeps one small accumulator per (person,
year) until the stream ends, because a duplicate (person, year, month) row
may arrive anywhere later in the file; it holds no record.  Annual costs
and states are then computed for all person-years at once, into one
structured array with a row per person-year, whose columns go straight to
``panel.build_panel``.

Annual cost is mean observed monthly cost times 12, rounded half-up to
integer yen, so part-year enrollees are scaled to a full-year equivalent.
"""

import io
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DataFormatError, DuplicateRecordError, InvalidInputError
from .panel import PANEL_CACHE_COLUMNS, Panel, _id_fault, _read_blocks, build_panel
from .states import DEFAULT_THRESHOLDS, StateThresholds, classify_costs

CLAIMS_COLUMNS = ("person_id", "sex", "age", "year", "month", "cost_yen")

YEAR_CONVENTIONS = ("fiscal", "calendar")

#: Row of the person-year table aggregate_person_years returns: the panel cache's
#: columns, with state as a 0-based code.
PERSON_YEAR_DTYPE = np.dtype(
    [("person_id", object)] + [(name, np.int64) for name in PANEL_CACHE_COLUMNS[1:]])


class ClaimRecord(NamedTuple):
    """One monthly claims total for one person."""

    person_id: str
    sex: str
    age: int
    year: int
    month: int
    cost: int


def parse_claims(source) -> Iterator[ClaimRecord]:
    """Yield validated ClaimRecords from a path or text stream, in input order.

    Malformed rows raise DataFormatError carrying the 1-based line number;
    so do bytes that are not UTF-8 and rows the csv module cannot split.
    A strictly decoding text stream raises it without a line, and possibly
    a block of records early: the stream decodes in chunks.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        # undecodable bytes become lone surrogates, which fail their row's checks
        with open(source, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
            yield from _parse_stream(fh)
    elif isinstance(source, io.TextIOBase) or hasattr(source, "read"):
        yield from _parse_stream(source)
    else:
        raise InvalidInputError(f"cannot read claims from {type(source).__name__}")


#: A plain claims block as np.loadtxt reads it.
_CLAIM_DTYPE = np.dtype(list(zip(ClaimRecord._fields, [object, object, "i8", "i8", "i8", "i8"])))


def _parse_stream(fh) -> Iterator[ClaimRecord]:
    try:
        for records, _ in _read_blocks(fh, _check_header, _CLAIM_DTYPE, _plain_claims, _claim):
            yield from map(tuple.__new__, repeat(ClaimRecord), records)
            del records  # hold one block at a time
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"claims stream holds bytes that are not {exc.encoding}") from None


def _check_header(row) -> None:
    if row is None or tuple(h.strip() for h in row) != CLAIMS_COLUMNS:
        raise DataFormatError(f"claims file must start with header {','.join(CLAIMS_COLUMNS)}", line=1)


def _plain_claims(table):
    """The records of a plain block whose every field is valid as written, else None."""
    _, sex, age, _, month, cost = (table[name] for name in ClaimRecord._fields)
    valid = (((sex == "M") | (sex == "F"))
             & (age >= 0) & (age <= 120) & (month >= 1) & (month <= 12) & (cost >= 0))
    return zip(*(table[name].tolist() for name in ClaimRecord._fields)) if valid.all() else None


def _claim(row, line) -> tuple:
    """A claims record's fields; DataFormatError at its line."""
    if len(row) != len(CLAIMS_COLUMNS):
        raise DataFormatError(f"expected {len(CLAIMS_COLUMNS)} fields, got {len(row)}", line=line)
    pid, sex, age_s, year_s, month_s, cost_s = row
    pid = pid.strip()
    if fault := _id_fault(pid):
        raise DataFormatError(f"person_id {pid!r} {fault}", line=line)
    if sex not in ("M", "F"):
        sex = sex.strip()
        if sex not in ("M", "F"):
            raise DataFormatError(f"sex must be M or F, got {sex!r}", line=line)
    try:
        age, year, month, cost = int(age_s), int(year_s), int(month_s), int(cost_s)
    except ValueError:
        try:  # str.strip also drops \x1c-\x1f, which int() refuses
            age, year, month, cost = (int(f.strip()) for f in row[2:])
        except ValueError:
            raise DataFormatError(f"age/year/month/cost must be integers, got {row!r}", line=line) from None
    if not 0 <= age <= 120:
        raise DataFormatError(f"age {age} outside 0..120", line=line)
    if not 1 <= month <= 12:
        raise DataFormatError(f"month {month} outside 1..12", line=line)
    if cost < 0:
        raise DataFormatError(f"negative cost {cost}", line=line)
    return pid, sex, age, year, month, cost


def grouping_year(year: int, month: int, convention: str = "fiscal") -> int:
    """Year a monthly record belongs to; fiscal years run April-March."""
    if convention == "calendar":
        return year
    if convention == "fiscal":
        return year if month >= 4 else year - 1
    raise InvalidInputError(f"year convention must be one of {YEAR_CONVENTIONS}, got {convention!r}")


def round_half_up_ratio(numerator, denominator):
    """Exact half-up rounding of numerator/denominator.

    Works on ints and elementwise on int64 or object arrays; the
    denominator must be positive.
    """
    return (2 * numerator + denominator) // (2 * denominator)


def _annual_cost(total, months):
    """Mean monthly cost times 12, rounded half-up to integer yen."""
    return round_half_up_ratio(12 * total, months)


def aggregate_person_years(
    records: Iterable[ClaimRecord],
    thresholds: StateThresholds = DEFAULT_THRESHOLDS,
    year_convention: str = "fiscal",
) -> tuple[np.ndarray, dict[str, str]]:
    """Group monthly records into a person-year table; returns (table, sex map).

    The table is a PERSON_YEAR_DTYPE array with one row per (person,
    grouping year), sorted by (person_id, year), aged grouping year - the
    birth year all the person's records allow (the later one when two do).
    A contradictory sex, a record that leaves no birth year and a duplicate
    (person, year, month) row raise, in that order, as their record
    arrives.  Each (person, grouping year) keeps one accumulator, [months
    seen, cost total]; once the stream ends, annual costs are computed and
    classified as exact ints, then stored as int64, so a cost or year past
    int64 raises OverflowError there.
    """
    if year_convention not in YEAR_CONVENTIONS:
        raise InvalidInputError(f"year convention must be one of {YEAR_CONVENTIONS}")
    # months seen form a bit set: a group spans at most two calendar years,
    # so bit (year - gyear) * 12 + month - 1
    groups: dict[tuple[str, int], list[int]] = {}
    # per person: [sex, lowest, highest year - age]; a record allows birth years year - age - 1 and year - age
    persons: dict[str, list] = {}
    fiscal = year_convention == "fiscal"
    last_pid = None  # a person's rows usually run together, so keep their person and group
    for pid, sex, age, year, month, cost in records:
        born = year - age
        if pid != last_pid:
            last_pid, last_gyear = pid, None
            person = persons.get(pid)
            if person is None:
                person = persons[pid] = [sex, born, born]
        if person[0] != sex:
            raise DataFormatError(f"person {pid!r} appears with both sexes")
        if not person[2] - 1 <= born <= person[1] + 1:
            earlier = person[1] if person[2] > person[1] else f"{person[1] - 1} or {person[1]}"
            raise DataFormatError(f"person {pid!r}: age {age} in {year}-{month:02d} contradicts "
                                  f"earlier records (birth year {earlier})")
        if born < person[1]:
            person[1] = born
        elif born > person[2]:
            person[2] = born
        gyear = year - 1 if fiscal and month < 4 else year  # grouping_year's rule, without a call per row
        if gyear != last_gyear:
            last_gyear = gyear
            acc = groups.get((pid, gyear))
            if acc is None:
                acc = groups[pid, gyear] = [0, 0]
        month_bit = 1 << ((year - gyear) * 12 + month - 1)
        if acc[0] & month_bit:
            raise DuplicateRecordError(
                f"duplicate record for person {pid!r}, year {year}, month {month}"
            )
        acc[0] |= month_bit
        acc[1] += cost

    keys = sorted(groups)
    accs = [groups[key] for key in keys]
    del groups
    months = [acc[0].bit_count() for acc in accs]
    annual = [_annual_cost(acc[1], n) for acc, n in zip(accs, months)]
    codes = classify_costs(annual, thresholds)
    table = np.empty(len(keys), dtype=PERSON_YEAR_DTYPE)
    table["person_id"] = [pid for pid, _ in keys]
    table["age"] = [gyear - persons[pid][1] for pid, gyear in keys]
    table["year"] = [gyear for _, gyear in keys]
    table["state"] = codes
    table["months_observed"] = months
    table["annual_cost"] = annual
    return table, {pid: person[0] for pid, person in persons.items()}


def load_claims_panel(
    source,
    thresholds: StateThresholds = DEFAULT_THRESHOLDS,
    year_convention: str = "fiscal",
) -> Panel:
    """Full ingestion pipeline: parse, aggregate into person-years, build a Panel."""
    table, sex_of = aggregate_person_years(
        parse_claims(source), thresholds=thresholds, year_convention=year_convention
    )
    return build_panel(
        table["person_id"], table["age"], table["year"], table["state"],
        table["months_observed"], table["annual_cost"], sex=sex_of,
    )
