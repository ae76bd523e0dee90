"""Differential tests: the per-age estimators against their pre-rewrite reference.

Generated panels mix every cell code (-2..4), all-absent columns, one to
three birth cohorts and costs drawn from a few values (so equal lags and
collinear designs occur).  Generated queries use one- and two-state
conditions, targets with and without MISSING, horizons past the panel's
last age and ages outside it.  Every result must equal
reference_estimate's bit for bit (NaN in the same places), or both must
raise the same error class with the same message.

``shock_frequency`` reads the panel's pair and triple tallies; it is also
held to the per-age joint-code body it replaced, for every non-empty set
of health states as the condition on t-1 alone, on t-1 after a drawn
condition on t-2, and on t-2 before a drawn condition on t-1, with drawn
targets, MISSING among them, on panels whose rows hold gaps, attrition
markers and absent cells.

An AR fit is the exception: it must give the same error, message and rank
included, or the same unavailable fit, as both exact rational OLS and the
lstsq path it replaced, and each float of an available fit must lie within
a stated bound of theirs (``EXACT_RTOL``, ``LSTSQ_RTOL``).  AR fits are
also compared on dense panels of 2,400 persons, orders 1 and 2: one of a
single birth cohort (a design without dummies) and one of three cohorts
whose base year is never sampled.  A collinear design raises the
reference's DegenerateFitError message.

The cost summaries are held to their references the same way, on panels
whose costs are sometimes all zero, over cells of every size from empty
up, with and without a current state and a log-CDF.  An inverted age
group (lo > hi), which the references do not check, must raise the
InvalidInputError that the estimators now raise for it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from healthmarkov.errors import DegenerateFitError, InvalidInputError
from healthmarkov.estimate import (
    ARFit,
    ar_regression,
    conditional_cost_quantiles,
    exceedance_proportions,
    multi_year_state_frequency,
    shock_frequency,
)
from healthmarkov.panel import Panel
from healthmarkov.states import STATE_LABELS, HealthState

from conftest import collinear_cost_panel
from reference_estimate import (
    reference_ar_regression,
    reference_conditional_cost_quantiles,
    reference_exact_ar_fit,
    reference_exceedance_proportions,
    reference_joint_code_shock_frequency,
    reference_min_year,
    reference_multi_year_state_frequency,
    reference_shock_frequency,
)

# observed codes drawn more often than the two markers
CODES = st.sampled_from([-2, -1, 0, 1, 2, 3, 4, 0, 4, 2])
COSTS = st.sampled_from([0, 1, 7, 7, 950, 41_000, 123_457, 9_000_000])
STATE = st.one_of(st.sampled_from(STATE_LABELS), st.sampled_from(list(HealthState)),
                  st.integers(1, 5))
STATE_SET = st.one_of(STATE, st.sets(STATE, max_size=3))
TARGET = st.one_of(STATE_SET, st.sets(st.one_of(STATE, st.just("MISSING"), st.just("missing")),
                                      max_size=3))


@st.composite
def panels(draw):
    n = draw(st.integers(0, 16))
    n_ages = draw(st.integers(1, 7))
    states = draw(hnp.arrays(np.int8, (n, n_ages), elements=CODES))
    for col in range(n_ages):
        if draw(st.integers(0, 6)) == 0:
            states[:, col] = -2
    costs = draw(hnp.arrays(np.int64, (n, n_ages), elements=COSTS))
    cohorts = draw(st.lists(st.integers(1940, 1943), min_size=1, max_size=3, unique=True))
    births = draw(st.lists(st.sampled_from(cohorts), min_size=n, max_size=n))
    months = np.where(states >= 0, 12, 0)
    return Panel([f"p{k:02d}" for k in range(n)], births, draw(st.integers(18, 21)),
                 states, costs, months)


def _outcome(func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # the error itself is the compared outcome
        return (type(exc), str(exc))


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_curve(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.ages, got.target) == (want.ages, want.target)
    assert _same_array(got.values, want.values)
    assert _same_array(got.denominators, want.denominators)
    assert list(got.breakdown) == list(want.breakdown)
    for label, share in want.breakdown.items():
        assert _same_array(got.breakdown[label], share), label


def assert_same_paths(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got) == list(want)
    for group, path in want.items():
        other = got[group]
        assert (other.age_group, other.years) == (path.age_group, path.years)
        assert _same_array(other.values, path.values)
        assert _same_array(other.denominators, path.denominators)


#: Bounds on each AR value v against a reference value w: |v - w| <= rtol * (|w| + s),
#: where s is the value that would move the fit by the norm of the cost vector y,
#: ||y|| / ||x|| for the value's design column x (a lag, the ones, a year dummy).
#: Against exact rational OLS the fit keeps 1e-12 (worst seen 9.8e-17).  Against
#: lstsq the bound covers lstsq's own rounding, whose bits also depend on the BLAS
#: kernel (worst seen 3.9e-8, on a one-lag fit of 7 persons).
EXACT_RTOL = 1e-12
LSTSQ_RTOL = 1e-6


def _fit_values(panel, age, order, fit):
    """(value, scale) of every float of an available fit."""
    c = panel.column(age)
    rows = (panel.states[:, c - order : c + 1] >= 0).all(axis=1)
    y = float(np.sqrt(np.square(panel.costs[rows, c], dtype=np.float64).sum()))
    values = []
    for k in range(order):
        x = float(np.sqrt(np.square(panel.costs[rows, c - 1 - k], dtype=np.float64).sum()))
        values += [(fit.lag_coefficients[k], y / x), (fit.lag_se[k], y / x)]
    values.append((fit.intercept, y / np.sqrt(rows.sum())))
    years = panel.birth_years[rows] + age
    values += [(effect, y / np.sqrt((years == year).sum())) for year, effect in sorted(fit.year_effects.items())]
    return values


def assert_close_fit(panel, age, order, got, want, rtol):
    """The same outcome, error or unavailable fit exactly; each float of a fit within ``rtol``."""
    if isinstance(want, tuple) or not want.available:
        # repr spells every float exactly and shows int vs numpy scalars
        assert repr(got) == repr(want)
        return
    assert isinstance(got, ARFit), got
    fields = ("age", "order", "available", "n", "base_year")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert list(got.year_effects) == list(want.year_effects)
    assert all(type(v) is float for v in (*got.lag_coefficients, *got.lag_se, got.intercept,
                                          *got.year_effects.values()))
    for (v, _), (w, s) in zip(_fit_values(panel, age, order, got), _fit_values(panel, age, order, want)):
        assert abs(v - w) <= rtol * (abs(w) + s), (v, w, s)


def assert_fit_matches(panel, age, order):
    """``ar_regression`` against exact rational OLS and against the lstsq path it replaced.

    An available fit's base year is also its earliest sampled year, and
    later than the panel's earliest observed year, which no fit samples.
    """
    got = _outcome(ar_regression, panel, age, order)
    assert_close_fit(panel, age, order, got, _outcome(reference_exact_ar_fit, panel, age, order), EXACT_RTOL)
    assert_close_fit(panel, age, order, got, _outcome(reference_ar_regression, panel, age, order), LSTSQ_RTOL)
    if not isinstance(got, tuple) and got.available:
        assert got.base_year == earliest_sampled_year(panel, age, order)
        assert got.base_year > reference_min_year(panel)
    return got


def earliest_sampled_year(panel, age, order):
    """The earliest calendar year of a person observed at every age ``age - order .. age``."""
    c = panel.column(age)
    complete = (panel.states[:, c - order : c + 1] >= 0).all(axis=1)
    return int(panel.birth_years[complete].min()) + age


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(panel=panels(), data=st.data())
def test_estimators_match_reference(panel, data):
    lo, hi = panel.age_min, panel.age_max
    groups = st.lists(st.tuples(st.integers(lo - 6, hi + 2), st.integers(lo - 2, hi + 6)),
                      max_size=3)

    for _ in range(2):
        prior = data.draw(st.lists(STATE_SET, min_size=1, max_size=2)
                          | st.lists(TARGET, min_size=0, max_size=3))
        target = data.draw(TARGET)
        assert_same_curve(_outcome(shock_frequency, panel, prior, target),
                          _outcome(reference_shock_frequency, panel, prior, target))

        start = data.draw(st.lists(STATE, min_size=1, max_size=2)
                          | st.lists(STATE, min_size=0, max_size=3))
        target = data.draw(TARGET)
        horizon = data.draw(st.integers(0, panel.n_ages + 3))
        age_groups = data.draw(st.none() | groups)
        assert_same_paths(
            _outcome(multi_year_state_frequency, panel, start, target, horizon, age_groups),
            _outcome(reference_multi_year_state_frequency, panel, start, target, horizon,
                     age_groups))

    for age in range(lo - 1, hi + 2):
        order = data.draw(st.sampled_from([1, 1, 2, 2, 3]))
        assert_fit_matches(panel, age, order)


#: Every non-empty set of health states, as 1-based state numbers.
PRIOR_SETS = [set(states) for k in range(1, 6) for states in itertools.combinations(range(1, 6), k)]


def cell_kinds(states) -> set[str]:
    """Which unobserved cells a state matrix holds: absent, a gap before a later observation, attrition."""
    kinds = set()
    for row in states:
        for k, code in enumerate(row):
            if code == -2:
                kinds.add("absent")
            elif code == -1:
                kinds.add("gap" if (row[k + 1 :] >= 0).any() else "attrition")
    return kinds


def test_shock_frequency_matches_the_joint_code_body():
    seen = set()

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(panel=panels(), data=st.data())
    def check(panel, data):
        seen.update(cell_kinds(panel.states))
        for prior_set in PRIOR_SETS:
            other = data.draw(STATE_SET)
            for prior in ([prior_set], [other, prior_set], [prior_set, other]):
                target = data.draw(TARGET)
                got = _outcome(shock_frequency, panel, prior, target)
                assert_same_curve(got, _outcome(reference_joint_code_shock_frequency, panel, prior, target))
                if not isinstance(got, tuple):
                    seen.add(("lag", len(prior)))
                    seen.update(("target", label) for label in got.target if label == "MISSING")
                    seen.add(("prior", len(prior), frozenset(prior_set)))

    check()
    assert {"absent", "gap", "attrition", ("lag", 1), ("lag", 2), ("target", "MISSING")} <= seen
    assert {("prior", 1, frozenset(prior_set)) for prior_set in PRIOR_SETS} <= seen
    assert {("prior", 2, frozenset(prior_set)) for prior_set in PRIOR_SETS} <= seen


def test_dense_panel_matches_reference():
    """A larger panel where AR fits are available, with year dummies and an absent base year."""
    rng = np.random.default_rng(5)
    n, n_ages = 400, 8
    states = rng.choice([-2, -1, 0, 1, 2, 3, 4], p=[0.05, 0.05, 0.3, 0.2, 0.15, 0.1, 0.15],
                        size=(n, n_ages)).astype(np.int8)
    costs = rng.integers(0, 300_000, size=(n, n_ages))
    births = rng.choice([1950, 1951, 1953, 1956], size=n)
    panel = Panel([f"p{k:03d}" for k in range(n)], births, 30, states, costs,
                  np.where(states >= 0, 12, 0))

    fits = []
    for age in panel.ages:
        for order in (1, 2):
            fits.append(assert_fit_matches(panel, age, order))
    available = [f for f in fits if not isinstance(f, tuple) and f.available]
    assert available and all(f.year_effects for f in available)
    # a complete case observed its lag a year earlier, so the panel's earliest
    # year is never sampled and the earliest sampled year is the base
    assert all(f.base_year == earliest_sampled_year(panel, f.age, f.order) and len(f.year_effects) == 3
               for f in available)

    for prior in (["Q1"], ["Q5"], ["Q1", "Q5"], [{"Q4", "Q5"}, "Q2"]):
        for target in (["Q5"], ["Q4", "Q5"], ["Q5", "MISSING"], ["MISSING"]):
            assert_same_curve(_outcome(shock_frequency, panel, prior, target),
                              _outcome(reference_shock_frequency, panel, prior, target))
    for start in (["Q5"], ["Q1", "Q5"], ["Q3", "Q3"]):
        for target in (["Q5"], ["Q4", "Q5"], ["Q5", "MISSING"]):
            assert_same_paths(
                _outcome(multi_year_state_frequency, panel, start, target, 10),
                _outcome(reference_multi_year_state_frequency, panel, start, target, 10))


def _dense_panel(seed, births, n=2_400, n_ages=6):
    """Mostly observed cells with gaps, costs spread over five orders of magnitude."""
    rng = np.random.default_rng(seed)
    states = rng.choice([-2, -1, 0, 1, 2, 3, 4], p=[0.04, 0.06, 0.3, 0.2, 0.15, 0.1, 0.15],
                        size=(n, n_ages)).astype(np.int8)
    costs = np.where(rng.random((n, n_ages)) < 0.1, 0, rng.integers(1, 3_000_000, size=(n, n_ages)))
    return Panel([f"p{k:04d}" for k in range(n)], rng.choice(births, size=n), 40, states, costs,
                 np.where(states >= 0, 12, 0))


@pytest.mark.parametrize("births", [[1961], [1960, 1961, 1963]], ids=["one cohort", "cohorts"])
def test_dense_ar_fits_match_reference(births):
    """The design without dummies (one birth cohort) and with them, base year unsampled."""
    panel = _dense_panel(11, births)
    available = []
    for age in panel.ages:
        for order in (1, 2):
            got = assert_fit_matches(panel, age, order)
            if not isinstance(got, tuple) and got.available:
                available.append(got)
    assert {f.order for f in available} == {1, 2}
    assert all(f.n >= 1_500 for f in available)
    if len(births) == 1:
        assert not any(f.year_effects for f in available)
    else:
        # the panel's earliest year, 2000, is the 1960 cohort at the first age,
        # which no fit samples; each fit's base is its earliest sampled year
        assert all(f.base_year == earliest_sampled_year(panel, f.age, f.order) == 1960 + f.age
                   for f in available)
        assert all(sorted(f.year_effects) == [1961 + f.age, 1963 + f.age] for f in available)


def test_base_level_is_the_earliest_sampled_cohort():
    """The earliest cohort leaves after two ages; later fits take the next cohort as their base."""
    rng = np.random.default_rng(13)
    n, n_ages = 2_400, 6
    births = rng.choice([1955, 1961, 1963], size=n)
    states = rng.choice([0, 1, 2, 3, 4], size=(n, n_ages)).astype(np.int8)
    states[births == 1955, 2:] = -1
    panel = Panel([f"p{k:04d}" for k in range(n)], births, 40, states,
                  rng.integers(1, 3_000_000, size=(n, n_ages)), np.where(states >= 0, 12, 0))
    for age in panel.ages:
        for order in (1, 2):
            fit = assert_fit_matches(panel, age, order)
            if age - order < 40:
                continue
            assert fit.base_year == earliest_sampled_year(panel, age, order)
            assert sorted(fit.year_effects) == ([1961 + age] if age == 41 else []) + [1963 + age]


def test_collinear_fit_raises_the_reference_error():
    panel = collinear_cost_panel()
    got = _outcome(ar_regression, panel, 41, 1)
    assert got[0] is DegenerateFitError
    assert got == _outcome(reference_ar_regression, panel, 41, 1) == _outcome(reference_exact_ar_fit, panel, 41, 1)


#: Quantile levels: the reports' own, arbitrary ones and, in one list of six, an invalid one.
LEVELS = st.one_of(st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95]), st.floats(0.001, 0.999))
QUANTILES = st.one_of(*[st.lists(LEVELS, max_size=5)] * 5,
                      st.lists(LEVELS | st.sampled_from([0.0, 1.0, -0.5]), min_size=1, max_size=3))
THRESHOLDS = st.lists(st.sampled_from([0, 1, 7, 950, 41_000, 267_000, 300_000, 9_000_000]),
                      max_size=4)


@st.composite
def cost_panels(draw):
    """panels(), whose costs are sometimes all zero or drawn from three values."""
    panel = draw(panels())
    kind = draw(st.sampled_from(["drawn", "drawn", "zero", "few"]))
    if kind == "drawn":
        return panel
    costs = np.zeros_like(panel.costs)
    if kind == "few":
        costs = draw(hnp.arrays(np.int64, costs.shape, elements=st.sampled_from([0, 7, 950])))
    return Panel(panel.person_ids, panel.birth_years, panel.age_min, panel.states, costs,
                 panel.months)


def _with_group_check(want, groups):
    """The reference outcome, or the error an inverted group now raises."""
    if not isinstance(want, tuple):
        for group in groups:
            if group[0] > group[1]:
                return (InvalidInputError, f"age group {group} is empty")
    return want


def assert_same_summary(got, want):
    # repr spells every float exactly (n, mean, sd, min, max, each quantile,
    # each log-CDF point) and tells Python floats from numpy scalars
    assert repr(got) == repr(want)


def summary_labels(summary, current_state) -> set[str]:
    """What a reference summary covered, for the coverage check."""
    if isinstance(summary, tuple):
        return {summary[0].__name__}
    labels = {f"n = {min(summary.n, 2)}"}
    if summary.n > 1 and summary.maximum == 0:
        labels.add("all costs zero")
    if current_state is not None and summary.n:
        labels.add("current-state path")
    if summary.log_cdf and summary.minimum == 0:
        labels.add("log-CDF over zeros")
    if summary.log_cdf and summary.minimum > 0 and len(summary.log_cdf) < summary.n:
        labels.add("repeated positive costs")
    return labels


SUMMARY_REACHED = {
    "n = 0", "n = 1", "n = 2", "all costs zero", "current-state path", "repeated positive costs",
    "log-CDF over zeros", "InvalidInputError", "inverted group", "exceedance n = 0",
    "exceedance available",
}


class _Scripted:
    """Stands in for ``st.data()`` in an explicit example: each draw returns the next given value."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


#: Three persons, Q1 at 40 and costs 950, 950 and 7 at 41: a log-CDF over repeated positive costs.
_REPEATED_COSTS = Panel(["a", "b", "c"], [1970] * 3, 40, np.array([[0, 2]] * 3, dtype=np.int8),
                        np.array([[0, 950], [0, 950], [0, 7]]), np.full((3, 2), 12))


def test_cost_summaries_match_reference():
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(panel=cost_panels(), data=st.data())
    # which generated cases reach this label depends on the other tests collected with this one
    @example(panel=_REPEATED_COSTS, data=_Scripted(*[(40, 41), 1, None, [0.5], True] * 3, 1, 3, [], None))
    def check(panel, data):
        lo, hi = panel.age_min, panel.age_max
        group = st.one_of(st.sampled_from([(lo, hi), (lo - 3, hi + 3)]),
                          st.tuples(st.integers(lo - 6, hi + 2), st.integers(lo - 2, hi + 6)))
        # half the states drawn from those the panel holds, so that cells fill
        held = sorted({int(code) + 1 for code in np.unique(panel.states) if code >= 0})
        state = st.one_of(STATE, st.sampled_from(held)) if held else STATE
        for _ in range(3):
            age_group = data.draw(group)
            prior = data.draw(state)
            current = data.draw(st.none() | state)
            qs = data.draw(QUANTILES)
            want_log_cdf = data.draw(st.booleans())
            want = _outcome(reference_conditional_cost_quantiles, panel, age_group, prior, qs,
                            current, want_log_cdf)
            got = _outcome(conditional_cost_quantiles, panel, age_group, prior, qs, current,
                           want_log_cdf)
            assert_same_summary(got, _with_group_check(want, [age_group]))
            seen.update(summary_labels(want, current))
            if age_group[0] > age_group[1]:
                seen.add("inverted group")

        path = (data.draw(STATE), data.draw(STATE))
        thresholds = data.draw(THRESHOLDS)
        age_groups = data.draw(st.none() | st.lists(group, max_size=3))
        want = _outcome(reference_exceedance_proportions, panel, path, thresholds, age_groups)
        got = _outcome(exceedance_proportions, panel, path, thresholds, age_groups)
        assert_same_summary(got, _with_group_check(want, age_groups or []))
        if not isinstance(want, tuple):
            seen.update("exceedance available" if row.n else "exceedance n = 0" for row in want)

    check()
    assert SUMMARY_REACHED <= seen, SUMMARY_REACHED - seen


def test_dense_panel_cost_summaries_match_reference():
    """Thousands of costs per cell, many of them repeated, with the reports' queries."""
    rng = np.random.default_rng(11)
    n, n_ages = 3_000, 12
    states = rng.choice([-2, -1, 0, 1, 2, 3, 4], p=[0.05, 0.05, 0.4, 0.2, 0.1, 0.1, 0.1],
                        size=(n, n_ages)).astype(np.int8)
    costs = rng.choice([0, 0, 5_000, 20_000, 300_000], size=(n, n_ages)) + rng.integers(0, 40, (n, n_ages))
    panel = Panel([f"p{k:04d}" for k in range(n)], rng.integers(1950, 1953, n), 30, states, costs,
                  np.where(states >= 0, 12, 0))
    groups = [(25, 29), (30, 34), (35, 39), (40, 44), (31, 31), (41, 60)]
    for group in groups:
        for prior, current in [(HealthState.Q1, None), ("Q1", HealthState.Q5), (5, 5), ("Q3", "Q2")]:
            for qs in [(0.05, 0.25, 0.5, 0.75, 0.95), (0.5,), (0.1, 0.9, 0.1)]:
                got = conditional_cost_quantiles(panel, group, prior, qs, current, True)
                assert got.n > 1 or group == (25, 29)
                assert_same_summary(got, reference_conditional_cost_quantiles(
                    panel, group, prior, qs, current, True))
    for path in [(HealthState.Q1, HealthState.Q5), ("Q5", "Q5"), (2, 3)]:
        thresholds = [267_000, 300_000, 1_000_000] if path[1] in (HealthState.Q5, "Q5") else [0, 5_020]
        assert_same_summary(exceedance_proportions(panel, path, thresholds, groups),
                            reference_exceedance_proportions(panel, path, thresholds, groups))


@pytest.mark.parametrize("states", [np.full((3, 4), -2), np.full((3, 4), -1),
                                    np.zeros((0, 4)), np.zeros((3, 0))])
def test_ar_fit_of_unobserved_panel_is_unavailable(states):
    n, n_ages = states.shape
    panel = Panel([f"p{k}" for k in range(n)], [1960] * n, 30, states,
                  np.zeros((n, n_ages)), np.zeros((n, n_ages)))
    for age in range(29, 35):
        for order in (1, 2):
            fit = assert_fit_matches(panel, age, order)
            assert (fit.available, fit.n, fit.base_year) == (False, 0, None)
