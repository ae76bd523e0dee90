"""Panel storage order: every producer stores column-major matrices, and no result depends on it.

A panel's ``states``, ``costs`` and ``months`` are Fortran-ordered, so one
age of every person is one contiguous column.  The reports must not
depend on that: the same panel with C-ordered matrices gives the same
tables.
"""

import copy

import numpy as np
import pytest

from healthmarkov import cli, kernels
from healthmarkov.config import RunConfig
from healthmarkov.ingest import load_claims_panel
from healthmarkov.panel import Panel, filter_cohort
from healthmarkov.states import HealthState
from healthmarkov.synthetic import generate_panel, random_chain, write_claims

from conftest import make_panel
from reference_ingest import PersonYear, reference_person_year_panel


def assert_column_major(panel):
    for name in ("states", "costs", "months"):
        matrix = getattr(panel, name)
        assert matrix.ndim == 2 and matrix.flags.f_contiguous, name


def small_panel():
    return generate_panel(random_chain(7, entry_age=20, exit_age=30, attrition=0.1), 40)


def test_constructor_given_c_input():
    panel = make_panel(np.ascontiguousarray([[0, 1, -1], [2, -2, 4]], dtype=np.int8))
    assert_column_major(panel)


def test_constructor_reordering_persons():
    template = small_panel()
    order = np.arange(template.n_persons)[::-1]
    panel = Panel(template.person_ids[order], template.birth_years[order], template.age_min,
                  np.ascontiguousarray(template.states[order]), template.costs[order],
                  template.months[order])
    assert_column_major(panel)
    np.testing.assert_array_equal(panel.states, template.states)
    np.testing.assert_array_equal(panel.costs, template.costs)


def test_generate_panel():
    assert_column_major(small_panel())


def test_build_panel():
    entries = [("b", 30, 2000), ("a", 31, 2000), ("a", 33, 2002)]
    panel = reference_person_year_panel([PersonYear(pid, age, year, 12, 1_000, HealthState.Q1)
                                         for pid, age, year in entries])
    assert_column_major(panel)


def test_load_claims_panel(tmp_path):
    path = tmp_path / "claims.csv"
    write_claims(small_panel(), path)
    assert_column_major(load_claims_panel(path))


@pytest.mark.parametrize("canonical", [True, False])
def test_read_cache(tmp_path, canonical):
    path = tmp_path / "panel.csv"
    small_panel().write_cache(path)
    if not canonical:
        # a padded label is read by the csv-module path, not by np.loadtxt
        text = path.read_text(encoding="utf-8")
        padded = text.replace(",Q1\n", ", Q1\n", 1)
        assert padded != text
        path.write_text(padded, encoding="utf-8")
    assert_column_major(Panel.read_cache(path))


def test_filter_cohort():
    panel = filter_cohort(small_panel(), age_min=22, age_max=27)
    assert_column_major(panel)


def test_age_major_states_are_a_view_of_the_panel():
    panel = small_panel()
    t = kernels._age_major(panel.states)
    assert t.flags.c_contiguous and t.shape == panel.states.shape[::-1]
    assert np.shares_memory(t, panel.states)


def test_reports_do_not_depend_on_storage_order():
    truth = random_chain(19, entry_age=20, exit_age=45, attrition=0.05, cost_model="uniform")
    raw = generate_panel(truth, 1500)
    # several birth cohorts, so the AR fits carry year dummies
    births = raw.birth_years + np.random.default_rng(19).integers(-3, 4, raw.n_persons)
    panel = Panel(raw.person_ids, births, raw.age_min, raw.states, raw.costs, raw.months)
    c_ordered = copy.copy(panel)
    for name in ("states", "costs", "months"):
        setattr(c_ordered, name, np.ascontiguousarray(getattr(panel, name)))
    assert not c_ordered.states.flags.f_contiguous

    cfg = RunConfig(q5_values=(267_000, 500_000), start_ages=(25, 30))
    assert len(cli.REPORTS) == 21
    for rid, (func, _) in cli.REPORTS.items():
        assert repr(func(cfg, c_ordered)) == repr(func(cfg, panel)), rid
