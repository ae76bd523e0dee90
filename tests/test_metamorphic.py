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

Duplicating every person under a fresh id doubles every ``n`` column and
leaves every share, probability, mean, median, projection and count-free
cell as it was, bit for bit; k15/k16 lag coefficients and intercepts
agree within ``REL``.  Three kinds of column move by their definitions,
and each is held to the value its definition gives:

- k03 and table7 ``sd`` (ddof 1): the squared deviations double and the
  divisor goes from n - 1 to 2n - 1, so sd scales by sqrt(2(n-1)/(2n-1));
- k15/k16 ``lag*_se``: the residual sum doubles, (X'X)^-1 halves and the
  residual degrees of freedom go from n - p to 2n - p (p parameters, year
  levels included), so an SE scales by sqrt((n-p)/(2n-p));
- k03's interpolated quantiles other than the median: numpy's linear
  rule reads position (n-1)q of the sorted costs, and over the doubled
  sample position (2n-1)q, which can fall between other order statistics;
  they are held to the row's min..max (on this panel, whose costs take
  few values, none moves).  The median's two positions read the same one
  or two order statistics, so it stays exact.

The duplicated panel's 21 reports take about 0.15 s.
"""

import math

import numpy as np
import pytest

from healthmarkov.cli import REPORTS
from healthmarkov.config import RunConfig
from healthmarkov.estimate import ar_regression
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


#: Interpolated quantile columns that duplication moves; the median does not move.
MOVED_QUANTILES = {"k03": {"p5", "p25", "p75", "p95"}}


def duplicate(panel) -> Panel:
    """The panel with every person repeated under a fresh id."""
    ids = [*panel.person_ids.tolist(), *(f"{pid} twin" for pid in panel.person_ids.tolist())]
    twice = [np.concatenate([a, a]) for a in (panel.birth_years, panel.states, panel.costs, panel.months)]
    return Panel(ids, twice[0], panel.age_min, *twice[1:])


def test_duplicating_every_person_doubles_counts_and_keeps_estimates(panel):
    want, got = reports(panel), reports(duplicate(panel))
    assert got.keys() == want.keys() and len(want) == 21
    seen = set()
    for rid, (header, rows) in want.items():
        got_header, got_rows = got[rid]
        assert got_header == header and len(got_rows) == len(rows), rid
        for row, got_row in zip(rows, got_rows):
            cells = dict(zip(header, row))
            for name, value, got_value in zip(header, row, got_row):
                where = (rid, name, row, got_row)
                if value is None or name == "status":
                    assert same(got_value, value), where
                elif name == "n":
                    assert type(got_value) is int and got_value == 2 * value, where
                    seen.add("n")
                elif name == "sd":
                    n = cells["n"]
                    assert got_value == pytest.approx(value * math.sqrt(2 * (n - 1) / (2 * n - 1)), rel=REL), where
                    seen.add("sd")
                elif name.endswith("_se"):
                    order = {"k15": 1, "k16": 2}[rid]
                    n, p = cells["n"], 1 + order + len(ar_regression(panel, cells["age"], order).year_effects)
                    assert got_value == pytest.approx(value * math.sqrt((n - p) / (2 * n - p)), rel=REL), where
                    seen.add("se")
                elif name in MOVED_QUANTILES.get(rid, ()):
                    assert type(got_value) is float and cells["min"] <= got_value <= cells["max"], where
                elif name in ORDER_SENSITIVE.get(rid, ()):
                    assert got_value == pytest.approx(value, rel=REL, abs=0), where
                else:
                    assert same(got_value, value), where
    assert seen == {"n", "sd", "se"}
