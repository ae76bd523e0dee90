"""Streaming claims ingestion: monthly records -> a person-year table -> a Panel.

Input CSV (UTF-8, header required; a leading byte-order mark, as
spreadsheet programs write it, is skipped when reading from a path):

    person_id,sex,age,year,month,cost_yen

with sex in {M, F}, month 1-12 and cost_yen a non-negative integer.  The
parser is a generator with constant memory.  Aggregation into person-years
keeps one small accumulator per (person, year) until the stream ends,
because a duplicate (person, year, month) row may arrive anywhere later in
the file; it holds no record.  Annual costs and states are then computed
for all person-years at once, into one structured array with a row per
person-year, whose columns go straight to ``panel.build_panel``.

Annual cost is mean observed monthly cost times 12, rounded half-up to
integer yen, so part-year enrollees are scaled to a full-year equivalent.
"""

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DataFormatError, DuplicateRecordError, InvalidInputError
from .panel import PANEL_CACHE_COLUMNS, Panel, build_panel
from .states import DEFAULT_THRESHOLDS, StateThresholds, classify_costs

CLAIMS_COLUMNS = ("person_id", "sex", "age", "year", "month", "cost_yen")

YEAR_CONVENTIONS = ("fiscal", "calendar")

#: Row of the person-year table aggregate_person_years returns: the panel cache's
#: columns, with state as a 0-based code.
PERSON_YEAR_DTYPE = np.dtype(
    [("person_id", object)] + [(name, np.int64) for name in PANEL_CACHE_COLUMNS[1:]])


@dataclass(frozen=True, slots=True)
class ClaimRecord:
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
    A strictly decoding text stream raises it without a line: it decodes in chunks.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        # undecodable bytes become lone surrogates, which fail their row's checks
        with open(source, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
            yield from _parse_stream(fh)
    elif isinstance(source, io.TextIOBase) or hasattr(source, "read"):
        yield from _parse_stream(source)
    else:
        raise InvalidInputError(f"cannot read claims from {type(source).__name__}")


def _parse_stream(fh) -> Iterator[ClaimRecord]:
    reader = csv.reader(fh)
    n_fields = len(CLAIMS_COLUMNS)
    lineno = 0  # the last record read; a csv error belongs to the next one
    try:
        header = next(reader, None)
        lineno = 1
        if header is None or tuple(h.strip() for h in header) != CLAIMS_COLUMNS:
            raise DataFormatError(
                f"claims file must start with header {','.join(CLAIMS_COLUMNS)}", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_fields:
                if not row:
                    continue
                raise DataFormatError(f"expected {n_fields} fields, got {len(row)}", line=lineno)
            pid, sex, age_s, year_s, month_s, cost_s = row
            pid = pid.strip()
            if not pid:
                raise DataFormatError("empty person_id", line=lineno)
            if not pid.isascii():
                try:
                    pid.encode("utf-8")
                except UnicodeEncodeError:
                    raise DataFormatError(
                        f"person_id {pid!r} holds bytes that are not UTF-8", line=lineno
                    ) from None
            if sex not in ("M", "F"):
                sex = sex.strip()
                if sex not in ("M", "F"):
                    raise DataFormatError(f"sex must be M or F, got {sex!r}", line=lineno)
            try:
                age, year, month, cost = int(age_s), int(year_s), int(month_s), int(cost_s)
            except ValueError:
                try:  # str.strip also drops \x1c-\x1f, which int() refuses
                    age, year, month, cost = (int(f.strip()) for f in row[2:])
                except ValueError:
                    raise DataFormatError(
                        f"age/year/month/cost must be integers, got {row!r}", line=lineno
                    ) from None
            if not 0 <= age <= 120:
                raise DataFormatError(f"age {age} outside 0..120", line=lineno)
            if not 1 <= month <= 12:
                raise DataFormatError(f"month {month} outside 1..12", line=lineno)
            if cost < 0:
                raise DataFormatError(f"negative cost {cost}", line=lineno)
            yield ClaimRecord(pid, sex, age, year, month, cost)
    except csv.Error as exc:
        raise DataFormatError(f"unreadable CSV record: {exc}", line=lineno + 1) from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"claims stream holds bytes that are not {exc.encoding}") from None


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
    grouping year), sorted by (person_id, year).  A contradictory sex
    value or a duplicate (person, year, month) row raises as soon as its
    record arrives.  Each (person, grouping year) keeps one accumulator,
    [months seen, cost total, highest age]; once the stream ends, annual
    costs are computed and classified as exact ints, then stored as int64,
    so a cost or year past int64 raises OverflowError there.
    """
    if year_convention not in YEAR_CONVENTIONS:
        raise InvalidInputError(f"year convention must be one of {YEAR_CONVENTIONS}")
    # months seen form a bit set: a group spans at most two calendar years,
    # so bit (year - gyear) * 12 + month - 1
    groups: dict[tuple[str, int], list[int]] = {}
    sex_of: dict[str, str] = {}
    for rec in records:
        pid, year, month = rec.person_id, rec.year, rec.month
        if sex_of.setdefault(pid, rec.sex) != rec.sex:
            raise DataFormatError(f"person {pid!r} appears with both sexes")
        gyear = grouping_year(year, month, year_convention)
        acc = groups.get((pid, gyear))
        if acc is None:
            acc = groups[pid, gyear] = [0, 0, rec.age]
        month_bit = 1 << ((year - gyear) * 12 + month - 1)
        if acc[0] & month_bit:
            raise DuplicateRecordError(
                f"duplicate record for person {pid!r}, year {year}, month {month}"
            )
        acc[0] |= month_bit
        acc[1] += rec.cost
        if rec.age > acc[2]:
            acc[2] = rec.age

    keys = sorted(groups)
    accs = [groups[key] for key in keys]
    del groups
    months = [acc[0].bit_count() for acc in accs]
    annual = [_annual_cost(acc[1], n) for acc, n in zip(accs, months)]
    codes = classify_costs(annual, thresholds)
    table = np.empty(len(keys), dtype=PERSON_YEAR_DTYPE)
    table["person_id"] = [pid for pid, _ in keys]
    table["age"] = [acc[2] for acc in accs]
    table["year"] = [gyear for _, gyear in keys]
    table["state"] = codes
    table["months_observed"] = months
    table["annual_cost"] = annual
    return table, sex_of


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
