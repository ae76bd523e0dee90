"""Metamorphic relations over the report tables: how outputs move when the input moves in a known way.

A relation needs no reference implementation.  Relabelling the persons
bijectively changes nothing the reports define, but it changes the row
order of the panel, so every sum over persons runs in another order.
Every cell of the 21 ``REPORTS`` tables must stay the same value of the
same type, so the same bytes in the report CSV, except the columns whose
float arithmetic follows the person order: k03's ``sd`` and the lag
coefficients, standard errors and intercepts of k15 and k16.  Those must
agree within ``REL``.  On the 3,000-person ``random_chain(seed=3)`` panel
below they moved by at most 7.4e-16 (k15, k16; 4.1e-15 under another
permutation) and k03 ``sd`` not at all; the two runs of the 21 reports
take about 0.25 s.
"""

import math

import numpy as np
import pytest

from healthmarkov.cli import REPORTS
from healthmarkov.config import RunConfig
from healthmarkov.panel import Panel
from healthmarkov.synthetic import generate_panel, random_chain

#: Relative bound on the cells whose float sums follow the person order.
REL = 1e-13

#: Columns of each report that sum floats in person order.
ORDER_SENSITIVE = {
    "k03": {"sd"},
    "k15": {"lag1_coef", "lag1_se", "intercept"},
    "k16": {"lag1_coef", "lag1_se", "lag2_coef", "lag2_se", "intercept"},
}


@pytest.fixture(scope="module")
def panel():
    return generate_panel(random_chain(seed=3), 3_000)


def reports(panel) -> dict:
    cfg = RunConfig()
    return {rid: func(cfg, panel) for rid, (func, _) in REPORTS.items()}


def relabel(panel, ids) -> Panel:
    """The panel with person row k renamed ``ids[k]``; the Panel re-sorts its rows by the new ids."""
    return Panel(ids, panel.birth_years, panel.age_min, panel.states, panel.costs, panel.months)


def same(a, b) -> bool:
    return type(a) is type(b) and (a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)))


@pytest.mark.parametrize("kind", ["permuted ids", "fresh int ids"])
def test_relabelling_persons_leaves_every_report_as_it_was(panel, kind):
    order = np.random.default_rng(11).permutation(panel.n_persons)
    ids = panel.person_ids[order] if kind == "permuted ids" else (1_000 + order).tolist()
    relabelled = relabel(panel, ids)
    assert not np.array_equal(relabelled.states, panel.states)  # the rows moved
    want, got = reports(panel), reports(relabelled)
    assert got.keys() == want.keys() and len(want) == 21
    for rid, (header, rows) in want.items():
        got_header, got_rows = got[rid]
        assert got_header == header and len(got_rows) == len(rows), rid
        loose = ORDER_SENSITIVE.get(rid, set())
        for row, got_row in zip(rows, got_rows):
            for name, value, got_value in zip(header, row, got_row):
                if name in loose and value is not None:
                    assert got_value == pytest.approx(value, rel=REL, abs=0), (rid, name, row)
                else:
                    assert same(got_value, value), (rid, name, row, got_row)
