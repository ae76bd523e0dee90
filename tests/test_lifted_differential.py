"""Differential tests: the single pair-state stepper against the order-2 stepper it replaced.

Generated families lift sparse count tensors, so some (previous, current)
columns have no support and mass can reach them.  Families come with and
without stored counts (pooling needs them), with gaps between ages, and
queried at start ages and horizons that run past the last age.
``project_cumulative`` and order-2 ``iterate_forward`` must give the values
of reference_lifted's stepper in pooling mode over the whole family bit
for bit, or raise the same error class; they must also fail with one and
the same message for the same unsupported cell.  The cases reach columns
pooled from bin ages outside the projection's horizon, and memo hits.
Every accepted start-pair form (HealthStates, ints, numpy ints, names, a
list or an array) projects exactly as the HealthState pair does, and a
missing age raises the reference's HorizonError message.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov.errors import HorizonError, InvalidInputError
from healthmarkov.estimate import TransitionTensor
from healthmarkov.lifted import MASS_EPS, lift, project_cumulative, start_vector
from healthmarkov.persistency import iterate_forward
from healthmarkov.states import CostVector, HealthState

from conftest import sticky_top_chain
from reference_lifted import (
    reference_bin_ages,
    reference_operator,
    reference_project_cumulative,
    reference_step_order2,
)

PAIR = st.tuples(st.sampled_from(list(HealthState)), st.sampled_from(list(HealthState)))
COSTS = st.sampled_from([267_000.0, 500_000.0, 1.5e6]).map(lambda q5: CostVector.from_thresholds(q5_value=q5))
# a count of 10**7 next to single counts puts masses below MASS_EPS on some pairs
COUNTS = np.array([0, 0, 1, 2, 7, 10**7])


def lifted_matrix(rng, age):
    counts = rng.choice(COUNTS, size=(5, 5, 5))
    # whole (previous, current) slices unobserved, or every slice observed
    keep = (rng.random((5, 5)) < 0.75) | (rng.random() < 0.25)
    counts *= keep[:, :, None]
    counts[keep & (counts.sum(axis=2) == 0), 0] = 1
    if not counts.any():
        counts[0, 0, 0] = 1
    totals = counts.sum(axis=2, keepdims=True)
    probs = np.divide(counts, totals, out=np.zeros((5, 5, 5)), where=totals > 0)
    op = lift(TransitionTensor(age=age, probs=probs, counts=counts), age=age)
    if rng.random() < 0.5:
        op.age = None
    return op


@st.composite
def families(draw):
    lo = draw(st.integers(18, 28))
    ages = list(range(lo, lo + draw(st.sampled_from([1, 2, 4, 6, 8, 10, 12]))))
    if len(ages) > 2 and draw(st.integers(0, 4)) == 0:
        ages.remove(draw(st.sampled_from(ages[1:-1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = {age: lifted_matrix(rng, age) for age in ages}
    if draw(st.booleans()):
        for op in family.values():
            op.counts = None
    return family


@st.composite
def horizons(draw, span):
    """Mostly 1..span+1 (the last one runs past the family), sometimes the invalid 0."""
    return draw(st.integers(1, span + 1)) if draw(st.sampled_from([True] * 9 + [False])) else 0


def _outcome(func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # the error itself is the compared outcome
        return exc


def _same_class(got, want) -> bool:
    return isinstance(want, Exception) and type(got) is type(want)


def reference_iterate_order2(model, start_age, start, horizon):
    """Rows of order-2 ``iterate_forward``: its horizon checks, then the old stepper per age."""
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    for k in range(1, horizon + 1):
        reference_operator(model, start_age + k)
    v = start_vector(start)
    rows = [v]
    for k in range(1, horizon + 1):
        v = reference_step_order2(model, start_age + k, v, "pool")
        rows.append(v)
    return np.vstack(rows)


def assert_same_projection(got, want):
    if isinstance(want, Exception):
        assert _same_class(got, want), (got, want)
    else:
        # repr spells every float exactly and shows int vs numpy scalars
        assert repr(got) == repr(want)


def assert_same_rows(got, want):
    if isinstance(want, Exception):
        assert _same_class(got, want), (got, want)
    else:
        rows = got.distributions
        assert rows.dtype == want.dtype and rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()


def pooled_steps(family, start_age, rows) -> set:
    """Which kinds of pooled step the reference rows went through."""
    cases = set()
    horizon_ages = range(start_age + 1, start_age + len(rows))
    for age, v in zip(horizon_ages, rows):
        for c in np.where((v > MASS_EPS) & ~family[age].supported)[0]:
            cases.add("pooled a blocked column")
            counts = {a: family[a].counts.reshape(-1, 5)[c] for a in reference_bin_ages(age)
                      if a in family and family[a].counts is not None}
            if any(n.any() for a, n in counts.items() if a not in horizon_ages):
                cases.add("pooled from a bin age outside the horizon")
    return cases


def test_stepper_matches_reference():
    seen = set()

    @settings(max_examples=250, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(family=families(), data=st.data())
    def check(family, data):
        lo, hi = min(family), max(family)
        seen.add(("counts", next(iter(family.values())).counts is not None))
        seen.add(("all supported", all(op.supported.all() for op in family.values())))
        for _ in range(3):
            start_age = data.draw(st.integers(lo - 1, hi))
            start = data.draw(PAIR)
            horizon = data.draw(horizons(hi - start_age))
            costs = data.draw(COSTS)

            projected = _outcome(project_cumulative, family, costs, start_age, start, horizon)
            assert_same_projection(
                projected,
                _outcome(reference_project_cumulative, family, costs, start_age, start, horizon))

            forecast = _outcome(iterate_forward, family, start_age, start, horizon)
            rows = _outcome(reference_iterate_order2, family, start_age, start, horizon)
            assert_same_rows(forecast, rows)
            seen.add(("forecast", type(forecast).__name__))
            if not isinstance(rows, Exception):
                seen.update(pooled_steps(family, start_age, rows))
            # one stepper, one failure: same class and message from both entry points
            assert isinstance(projected, Exception) == isinstance(forecast, Exception)
            if isinstance(projected, Exception):
                assert (type(forecast), str(forecast)) == (type(projected), str(projected))

    check()
    # the generated cases reach supported, pooled, unpoolable and out-of-horizon steps
    assert {("forecast", "ForecastDistribution"), ("forecast", "UnsupportedCellError"),
            ("forecast", "HorizonError"), ("forecast", "InvalidInputError"),
            "pooled a blocked column", "pooled from a bin age outside the horizon",
            ("counts", True), ("counts", False),
            ("all supported", True), ("all supported", False)} <= seen, seen


def test_cost_sweep_matches_reference():
    """Cost vectors swept in interleaved order over two families with the same ages.

    ``project_cumulative`` remembers forward passes by operator identity
    and start pair; every repeated (family, start age, start pair, horizon)
    query here is answered from that memo after its first cost vector.
    The two families share some operators, so a pass keyed by the
    horizon's operators alone would be answered for the wrong family
    whenever a pooled column reads a bin age outside the horizon.
    """
    seen = set()
    sweep = [CostVector.from_thresholds(q5_value=q5) for q5 in (267_000.0, 500_000.0, 1.5e6, 2_257_000.0)]

    @settings(max_examples=120, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(family=families(), data=st.data())
    def check(family, data):
        lo, hi = min(family), max(family)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # same age keys, some operators shared and the others new
        other = {age: op if rng.random() < 0.5 else lifted_matrix(rng, age) for age, op in family.items()}
        if family[lo].counts is None:
            for op in other.values():
                op.counts = None
        queries = [(data.draw(st.integers(lo - 1, hi)), data.draw(PAIR)) for _ in range(3)]
        queries = [(start_age, start, data.draw(horizons(hi - start_age))) for start_age, start in queries]
        failures = {}
        for costs in sweep:
            for name, fam in (("family", family), ("other", other)):
                for start_age, start, horizon in queries:
                    got = _outcome(project_cumulative, fam, costs, start_age, start, horizon)
                    want = _outcome(reference_project_cumulative, fam, costs, start_age, start, horizon)
                    assert_same_projection(got, want)
                    key = (name, start_age, start, horizon)
                    if isinstance(got, Exception):
                        outcome = (type(got), str(got))
                        # a failed pass is not remembered: same class and message every time
                        assert failures.setdefault(key, outcome) == outcome
                        seen.add(("repeated failure", type(got).__name__, costs is not sweep[0]))
                    else:
                        rows = reference_iterate_order2(fam, start_age, start, horizon)
                        seen.add(("repeated success", costs is not sweep[0],
                                  "pooled from a bin age outside the horizon" in pooled_steps(fam, start_age, rows)))

    check()
    assert {("repeated success", True, False), ("repeated success", True, True),
            ("repeated failure", "UnsupportedCellError", True),
            ("repeated failure", "HorizonError", True),
            ("repeated failure", "InvalidInputError", True)} <= seen, seen


def _projection_family():
    rng = np.random.default_rng(17)
    return {age: lifted_matrix(rng, age) for age in range(30, 42)}


def test_every_start_pair_form_projects_like_health_states():
    family = sticky_top_chain(entry_age=20, exit_age=34, seed=5).lifted_family()
    start_age = min(family) - 1
    costs = CostVector.from_thresholds(q5_value=500_000.0)
    for i, j in [(1, 5), (1, 1), (3, 2), (5, 5)]:
        want = reference_project_cumulative(family, costs, start_age, (HealthState(i), HealthState(j)), 8)
        forms = [(HealthState(i), HealthState(j)), (i, j), [i, j], (np.int64(i), np.int8(j)),
                 (f"Q{i}", f"Q{j}"), (f"Q{i}", j), np.array([i, j])]
        for start in forms:
            got = project_cumulative(family, costs, start_age, start, 8)
            assert repr(got) == repr(want), start
            assert all(type(s) is HealthState for s in got.start_pair)


def test_missing_age_raises_the_reference_horizon_error():
    family = _projection_family()
    del family[35]
    costs = CostVector.from_thresholds()
    start = (HealthState.Q1, HealthState.Q5)
    # (start age, horizon, first missing age)
    for start_age, horizon, missing in [(29, 10, 35), (34, 1, 35), (33, 3, 35), (40, 3, 42), (45, 1, 46)]:
        got = _outcome(project_cumulative, family, costs, start_age, start, horizon)
        want = _outcome(reference_project_cumulative, family, costs, start_age, start, horizon)
        assert type(got) is type(want) is HorizonError
        assert str(got) == str(want) == f"no operator estimated for age {missing}; last valid age is 41"
