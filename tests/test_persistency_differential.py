"""Differential tests: first-order forecasts through the shared stepper against the old one.

Generated first-order families hold sparse counts, so some state rows have
no support at some ages and mass can reach them; a row may also be empty
across its whole 5-year bin, so pooling cannot help.  First-order
``iterate_forward`` and ``persistency_difference`` must give the values of
reference_persistency's stepper in pooling mode within ``STEP_RTOL`` (the
reference sums through BLAS), or raise the same error class, at start ages
and horizons that run past the last age.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov.errors import InvalidInputError
from healthmarkov.estimate import TransitionMatrix
from healthmarkov.lifted import MASS_EPS
from healthmarkov.persistency import iterate_forward, persistency_difference
from healthmarkov.states import N_STATES, HealthState

from reference_lifted import reference_operator
from reference_persistency import reference_step_order1

STATE = st.sampled_from(list(HealthState))
TARGET = st.sets(STATE, min_size=1, max_size=3)
# a count of 10**7 next to single counts puts masses below MASS_EPS on some rows
COUNTS = np.array([0, 0, 1, 2, 7, 10**7])


def transition_matrix(rng, age):
    counts = rng.choice(COUNTS, size=(N_STATES, N_STATES))
    # whole rows unobserved, or every row observed
    keep = (rng.random(N_STATES) < 0.7) | (rng.random() < 0.25)
    counts *= keep[:, None]
    counts[keep & (counts.sum(axis=1) == 0), 0] = 1
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.divide(counts, totals, out=np.zeros((N_STATES, N_STATES)), where=totals > 0)
    return TransitionMatrix(age=age, probs=probs, counts=counts)


@st.composite
def families(draw):
    lo = draw(st.integers(18, 28))
    ages = list(range(lo, lo + draw(st.sampled_from([1, 2, 4, 6, 8, 10, 12]))))
    if len(ages) > 2 and draw(st.integers(0, 4)) == 0:
        ages.remove(draw(st.sampled_from(ages[1:-1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {age: transition_matrix(rng, age) for age in ages}


@st.composite
def horizons(draw, span):
    """Mostly 1..span+1 (the last one runs past the family), sometimes the invalid 0."""
    return draw(st.integers(1, span + 1)) if draw(st.sampled_from([True] * 9 + [False])) else 0


def _outcome(func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # the error itself is the compared outcome
        return exc


def reference_iterate_order1(model, start_age, state, horizon):
    """Rows of first-order ``iterate_forward``: its horizon checks, then the old stepper per age."""
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    for k in range(1, horizon + 1):
        reference_operator(model, start_age + k)
    v = np.zeros(N_STATES)
    v[int(HealthState(int(state))) - 1] = 1.0
    rows = [v]
    for k in range(1, horizon + 1):
        v = reference_step_order1(model, start_age + k, v, "pool")
        rows.append(v)
    return np.vstack(rows)


def reference_difference(model, start_age, horizon, target, starts):
    """(worse mass, better mass) per year from the old stepper."""
    codes = sorted(int(s) - 1 for s in target)
    worse, better = (reference_iterate_order1(model, start_age, s, horizon) for s in starts)
    return worse[:, codes].sum(axis=1)[1:], better[:, codes].sum(axis=1)[1:]


def assert_same_class(got, want):
    assert isinstance(got, Exception) and type(got) is type(want), (got, want)


#: Bound on each distribution entry and target mass v against the reference's w:
#: |v - w| <= STEP_RTOL * |w|.  Each is a sum of nonnegative products, so the
#: bound is relative down to zero.  The reference sums through BLAS, whose bits
#: depend on the CPU kernel and thread count (worst seen 4.1e-16).
STEP_RTOL = 1e-13


def assert_close_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (np.abs(got - want) <= STEP_RTOL * np.abs(want)).all(), (got, want)


def step_cases(family, start_age, rows):
    """Which kinds of step the reference rows went through."""
    cases = set()
    for k, v in enumerate(rows[:-1], start=1):
        op = family[start_age + k]
        if op.supported.all():
            cases.add("all rows supported")
        elif ((v > MASS_EPS) & ~op.supported).any():
            cases.add("pooled a blocked row carrying mass")
        else:
            cases.add("blocked row carrying no mass")
    return cases


def test_order1_forecasts_match_reference():
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(family=families(), data=st.data())
    def check(family, data):
        lo, hi = min(family), max(family)
        for _ in range(3):
            start_age = data.draw(st.integers(lo - 1, hi))
            horizon = data.draw(horizons(hi - start_age))
            state = data.draw(STATE)
            got = _outcome(iterate_forward, family, start_age, state, horizon)
            want = _outcome(reference_iterate_order1, family, start_age, state, horizon)
            if isinstance(want, Exception):
                assert_same_class(got, want)
                seen.add(("forecast", type(want).__name__))
            else:
                assert_close_array(got.distributions, want)
                seen.update(step_cases(family, start_age, want))

            starts = data.draw(st.none() | st.tuples(STATE, STATE))
            target = data.draw(TARGET)
            got = _outcome(persistency_difference, family, start_age, horizon, target, starts=starts)
            want = _outcome(reference_difference, family, start_age, horizon, target,
                            starts or (HealthState.Q5, HealthState.Q1))
            if isinstance(want, Exception):
                assert_same_class(got, want)
                seen.add(("difference", type(want).__name__))
            else:
                assert_close_array(got.worse_mass, want[0])
                assert_close_array(got.better_mass, want[1])
                seen.add(("difference", "ok"))

    check()
    assert {"all rows supported", "pooled a blocked row carrying mass", "blocked row carrying no mass",
            ("forecast", "UnsupportedCellError"), ("forecast", "HorizonError"),
            ("forecast", "InvalidInputError"), ("difference", "ok"),
            ("difference", "UnsupportedCellError")} <= seen, seen
