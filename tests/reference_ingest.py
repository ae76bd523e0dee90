"""Claims ingestion as it was before aggregation stopped holding records.

``reference_parse_stream`` is ``ingest._parse_stream`` from before the
row loop unpacked rows directly, with the person-id rule both readers now
share in place of its own id checks: a stripped person_id that is empty,
holds a NUL (refused on every Python as on 3.10, whose csv module refuses
the line) or holds bytes that are not UTF-8 is refused at its line;
``reference_annualize``,
``reference_aggregate_person_years`` and ``reference_round_half_up_ratio``
are ``annualize``, ``aggregate_person_years`` and ``round_half_up_ratio``
from before aggregation kept one compact accumulator per person-year
instead of every ClaimRecord, with one change: ages follow the one
birth-year rule of today's aggregation.  Each record (year, month, age)
allows the birth years {year - age - 1, year - age}; the aggregation
intersects these sets per person, as plain sets, and raises at the first
record that empties one; ``reference_annualize`` stamps grouping year -
birth year, the later one when two remain, instead of the group's
highest age.  ``reference_person_year_panel`` is
``build_panel`` from before the aggregation returned a person-year table:
it unpacks PersonYears into the columns of today's ``build_panel``.  They
are unchanged apart from their names and the name of the builder called.
test_ingest_differential.py holds ``load_claims_panel`` to their chain.
``PersonYear`` is a copy of the record type they return, which the
package no longer has; the other references and tests import it from here.
"""

import csv
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from healthmarkov.errors import DataFormatError, DuplicateRecordError, InvalidInputError
from healthmarkov.ingest import CLAIMS_COLUMNS, YEAR_CONVENTIONS, ClaimRecord, grouping_year
from healthmarkov.panel import Panel, build_panel
from healthmarkov.states import DEFAULT_THRESHOLDS, HealthState, StateThresholds, classify_cost


@dataclass(frozen=True)
class PersonYear:
    """One subject's annualized cost and state at one age."""

    person_id: str
    age: int
    year: int
    months_observed: int
    annual_cost: int
    state: HealthState


def reference_parse_stream(fh) -> Iterator[ClaimRecord]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != CLAIMS_COLUMNS:
        raise DataFormatError(
            f"claims file must start with header {','.join(CLAIMS_COLUMNS)}", line=1
        )
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CLAIMS_COLUMNS):
            raise DataFormatError(
                f"expected {len(CLAIMS_COLUMNS)} fields, got {len(row)}", line=lineno
            )
        pid, sex, age_s, year_s, month_s, cost_s = (f.strip() for f in row)
        if not pid:
            raise DataFormatError(f"person_id {pid!r} is empty", line=lineno)
        if "\0" in pid:
            raise DataFormatError(f"person_id {pid!r} holds a NUL, which Python 3.10's csv module refuses",
                                  line=lineno)
        try:
            pid.encode("utf-8")
        except UnicodeEncodeError:
            raise DataFormatError(f"person_id {pid!r} holds bytes that are not UTF-8", line=lineno) from None
        if sex not in ("M", "F"):
            raise DataFormatError(f"sex must be M or F, got {sex!r}", line=lineno)
        try:
            age, year, month, cost = int(age_s), int(year_s), int(month_s), int(cost_s)
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


def reference_round_half_up_ratio(numerator: int, denominator: int) -> int:
    """Exact half-up rounding of numerator/denominator for non-negative ints."""
    q, r = divmod(numerator, denominator)
    return q + (1 if 2 * r >= denominator else 0)


def reference_annualize(
    records: Iterable[ClaimRecord],
    thresholds: StateThresholds = DEFAULT_THRESHOLDS,
    year: int | None = None,
    *,
    birth_year: int,
) -> PersonYear:
    """Collapse one person-year's monthly records into a PersonYear.

    Annual cost is sum(costs) / n_months * 12, rounded half-up.  The
    stamped age is year - birth_year.  ``year`` must be given when the
    records straddle a calendar-year boundary (fiscal grouping).
    """
    records = list(records)
    if not records:
        raise InvalidInputError("a person-year needs at least one monthly record")
    if len(records) > 12:
        raise InvalidInputError(f"{len(records)} records in one person-year (max 12)")
    pids = {r.person_id for r in records}
    if len(pids) > 1:
        raise InvalidInputError(f"records mix persons {sorted(pids)}")
    months = [r.month for r in records]
    if len(set(months)) != len(months):
        raise DuplicateRecordError(
            f"person {records[0].person_id!r} has duplicate months in one year"
        )
    if year is None:
        years = {r.year for r in records}
        if len(years) > 1:
            raise InvalidInputError(
                "records span calendar years; pass the grouping year explicitly"
            )
        year = years.pop()
    total = sum(r.cost for r in records)
    annual = reference_round_half_up_ratio(total * 12, len(records))
    return PersonYear(
        person_id=records[0].person_id,
        age=int(year) - birth_year,
        year=int(year),
        months_observed=len(records),
        annual_cost=annual,
        state=classify_cost(annual, thresholds),
    )


def reference_aggregate_person_years(
    records: Iterable[ClaimRecord],
    thresholds: StateThresholds = DEFAULT_THRESHOLDS,
    year_convention: str = "fiscal",
) -> tuple[list[PersonYear], dict[str, str]]:
    """Group monthly records into PersonYears; returns (person_years, sex map).

    Duplicate (person, year, month) rows and contradictory sex values are
    rejected here, where the per-group accumulators make both visible.
    """
    if year_convention not in YEAR_CONVENTIONS:
        raise InvalidInputError(f"year convention must be one of {YEAR_CONVENTIONS}")
    groups: dict[tuple[str, int], list[ClaimRecord]] = {}
    # per group, the set of (year, month) seen so far as a bit set: a group
    # spans at most two calendar years, so bit (year - gyear) * 12 + month - 1
    months_seen: dict[tuple[str, int], int] = {}
    sex_of: dict[str, str] = {}
    birth_years: dict[str, set[int]] = {}
    for rec in records:
        gyear = grouping_year(rec.year, rec.month, year_convention)
        prev_sex = sex_of.setdefault(rec.person_id, rec.sex)
        if prev_sex != rec.sex:
            raise DataFormatError(f"person {rec.person_id!r} appears with both sexes")
        allowed = {rec.year - rec.age - 1, rec.year - rec.age}
        earlier = birth_years.setdefault(rec.person_id, allowed)
        if not earlier & allowed:
            raise DataFormatError(
                f"person {rec.person_id!r}: age {rec.age} in {rec.year}-{rec.month:02d} contradicts "
                f"earlier records (birth year {' or '.join(str(b) for b in sorted(earlier))})"
            )
        birth_years[rec.person_id] = earlier & allowed
        key = (rec.person_id, gyear)
        month_bit = 1 << ((rec.year - gyear) * 12 + rec.month - 1)
        seen = months_seen.get(key, 0)
        if seen & month_bit:
            raise DuplicateRecordError(
                f"duplicate record for person {rec.person_id!r}, year {rec.year}, month {rec.month}"
            )
        months_seen[key] = seen | month_bit
        groups.setdefault(key, []).append(rec)

    person_years = [
        reference_annualize(group, thresholds=thresholds, year=gyear, birth_year=max(birth_years[pid]))
        for (pid, gyear), group in sorted(groups.items())
    ]
    return person_years, sex_of


def reference_person_year_panel(
    person_years: Iterable[PersonYear], end_year: int | None = None, sex=None
) -> Panel:
    """Assemble trajectories into a Panel.

    Gap years between observed entries and trailing years up to the panel's
    final year (default: the latest observed year) become missing markers.
    sex, when given, maps person_id -> "M"/"F".
    """
    pys = list(person_years)
    return build_panel(
        np.array([py.person_id for py in pys], dtype=object),
        np.array([py.age for py in pys], dtype=np.int64),
        np.array([py.year for py in pys], dtype=np.int64),
        np.array([int(py.state) - 1 for py in pys], dtype=np.int64),
        np.array([py.months_observed for py in pys], dtype=np.int64),
        np.array([py.annual_cost for py in pys], dtype=np.int64),
        end_year=end_year,
        sex=sex,
    )
