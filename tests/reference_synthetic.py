"""The claims writer as it was before array-based writing, kept as a test reference.

``reference_write_claims`` is ``synthetic.write_claims`` when it looped
over ``panel.person_years()`` and wrote each monthly row through
``csv.writer``.  It is unchanged apart from its name and from calling
``reference_person_years(panel)``, a copy of that ``Panel`` method, which
the package no longer has.  The differential
test in test_synthetic_differential.py holds the array writer to it,
byte for byte and in its return value.
"""

import csv
from typing import Iterator

import numpy as np

from healthmarkov.errors import InvalidInputError
from healthmarkov.ingest import CLAIMS_COLUMNS
from healthmarkov.panel import Panel, PersonYear
from healthmarkov.states import HealthState


def reference_person_years(self) -> Iterator[PersonYear]:
    """Observed entries, ordered by (person, age)."""
    for p in range(self.n_persons):
        for c in np.where(self.states[p] >= 0)[0]:
            age = self.age_min + int(c)
            yield PersonYear(
                person_id=str(self.person_ids[p]),
                age=age,
                year=int(self.birth_years[p]) + age,
                months_observed=int(self.months[p, c]),
                annual_cost=int(self.costs[p, c]),
                state=HealthState(int(self.states[p, c]) + 1),
            )


def reference_write_claims(panel: Panel, path, sex_default: str = "M", year_convention: str = "fiscal") -> int:
    """Write the panel as monthly claims rows; returns rows written.

    Each observed person-year becomes 12 monthly rows whose costs sum to
    the annual cost (remainder spread over the first months), aligned with
    the grouping convention so ingestion reassembles the exact same
    person-years.  Missing markers produce no rows.
    """
    if year_convention not in ("fiscal", "calendar"):
        raise InvalidInputError(f"unknown year convention {year_convention!r}")
    if year_convention == "fiscal":
        calendar = [(0, m) for m in range(4, 13)] + [(1, m) for m in range(1, 4)]
    else:
        calendar = [(0, m) for m in range(1, 13)]
    if panel.sex is None:
        sex_of = dict.fromkeys(map(str, panel.person_ids), sex_default)
    else:
        sex_of = dict(zip(map(str, panel.person_ids), map(str, panel.sex)))
    n_rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLAIMS_COLUMNS)
        for py in reference_person_years(panel):
            sex = sex_of[py.person_id]
            base, extra = divmod(py.annual_cost, 12)
            writer.writerows(
                [py.person_id, sex, py.age, py.year + shift, month, base + (1 if k < extra else 0)]
                for k, (shift, month) in enumerate(calendar)
            )
            n_rows += len(calendar)
    return n_rows
