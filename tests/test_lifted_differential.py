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

``lift`` and ``LiftedMatrix.validate`` are held to the per-column loops
they replaced: the same operator bytes, or the same error class and
message, on estimated tensors with sparse counts and on raw tensors with
NaN, -0.0, slices that cancel to zero and unnormalized slices; and the
same verdict on perturbed operators under three tolerances.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov.errors import HorizonError, InvalidInputError
from healthmarkov.estimate import TransitionTensor
from healthmarkov.lifted import MASS_EPS, LiftedMatrix, lift, project_cumulative
from healthmarkov.persistency import iterate_forward
from healthmarkov.states import CostVector, HealthState

from conftest import sticky_top_chain
from reference_lifted import (
    reference_bin_ages,
    reference_lift,
    reference_operator,
    reference_project_cumulative,
    reference_step_order2,
    reference_validate,
    start_vector,
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


# ---------------------------------------------------------------------------
# lift and validate against the per-column loops


def _raw_slice(rng, kind):
    """One (previous, current) slice of a raw tensor, and whether it makes the tensor invalid."""
    p = rng.dirichlet(np.ones(5))
    if kind == "zero":
        return np.zeros(5)
    if kind == "nan":  # sums to NaN: unsupported, but its entries are not zero
        p[rng.integers(5)] = np.nan
    elif kind == "-0.0":
        p[rng.integers(5)] = -0.0
        p /= p.sum()
    elif kind == "-0.0 slice":
        p = np.full(5, -0.0)
    elif kind == "cancel":  # nonzero entries summing to exactly 0
        a, b = rng.choice([0.5, 0.25, 1e-300, 3.0], size=2)
        p = rng.permutation([a, -a, b, -b, 0.0])
    elif kind == "unnormalized":
        p *= rng.choice([0.9, 1.0 + 1e-8, 2.0])
    return p


@st.composite
def lift_inputs(draw):
    """(kind, tensor) for ``lift``: a TransitionTensor with sparse counts, or a raw array."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        counts = rng.choice(COUNTS, size=(5, 5, 5))
        counts *= (rng.random((5, 5)) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])))[:, :, None]
        totals = counts.sum(axis=2, keepdims=True)
        probs = np.divide(counts, totals, out=np.zeros((5, 5, 5)), where=totals > 0)
        return "tensor", TransitionTensor(age=draw(st.integers(20, 60)), probs=probs, counts=counts)
    if draw(st.integers(0, 19)) == 0:
        return "raw shape", rng.dirichlet(np.ones(5), size=draw(st.sampled_from([(5,), (5, 5), (4, 5), (5, 5, 5, 1)])))
    kinds = ["ok", "zero", "nan", "-0.0", "-0.0 slice", "cancel"]
    weights = draw(st.sampled_from([[1, 0, 0, 0, 0, 0], [6, 1, 1, 1, 1, 1], [0, 1, 1, 0, 1, 1]]))
    chosen = rng.choice(kinds, size=(5, 5), p=np.array(weights) / sum(weights))
    if draw(st.integers(0, 4)) == 0:
        chosen[tuple(rng.integers(5, size=2))] = "unnormalized"
    tensor = np.array([[_raw_slice(rng, kind) for kind in row] for row in chosen])
    return "raw", tensor, set(chosen.ravel())


def _lift_outcome(func, tensor, age):
    try:
        m = func(tensor, age=age)
    except Exception as exc:  # the error itself is the compared outcome
        return type(exc), str(exc)
    counts = tensor.counts if isinstance(tensor, TransitionTensor) else None
    return (m.probs.dtype, m.probs.shape, m.probs.tobytes(), m.supported.dtype, m.supported.shape,
            m.supported.tobytes(), m.age, m.counts is counts)


def _validate_outcome(validate, m, atol):
    try:
        validate(m, atol=atol)
    except Exception as exc:  # the error itself is the compared outcome
        return type(exc), str(exc)
    return None


def _perturbed(rng, m, kind):
    """A copy of ``m`` with one kind of change at 1-3 random places."""
    probs, supported = m.probs.copy(), m.supported.copy()
    for _ in range(rng.integers(1, 4)):
        col = rng.integers(25)
        block = 5 * (col % 5) + np.arange(5)
        inside = rng.choice(block)
        outside = rng.choice(np.setdiff1d(np.arange(25), block))
        if kind == "nudge":  # a sum off by a few units in the last place, or by more than atol
            probs[inside, col] += rng.choice([2.2e-16, -1.1e-16, 5e-13, -2e-12, 1e-9])
        elif kind == "leak":
            probs[outside, col] = rng.choice([1e-300, -0.5, 0.25])
        elif kind == "-0.0 outside":  # not a leak
            probs[outside, col] = -0.0
        elif kind == "nan":
            probs[rng.choice([inside, outside]), col] = np.nan
        elif kind == "nan hides a leak":
            probs[outside, col] = np.nan
            probs[rng.choice(np.setdiff1d(np.arange(25), block)), col] = 0.5
        elif kind == "flip":
            supported[col] = not supported[col]
    if kind == "shape":
        probs = probs[: rng.integers(1, 25)]
    return LiftedMatrix(probs=probs, supported=supported, age=m.age, counts=m.counts)


def _verdict(outcome) -> str:
    if outcome is None:
        return "valid"
    message = outcome[1]
    return "leak" if "leaks" in message else "sum" if "sums to" in message else "shape"


def test_lift_and_validate_match_reference():
    seen = set()
    validate_kinds = ["none", "nudge", "leak", "-0.0 outside", "nan", "nan hides a leak", "flip", "shape"]

    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(case=lift_inputs(), age=st.none() | st.integers(0, 100), data=st.data())
    def check(case, age, data):
        kind, tensor = case[:2]
        want = _lift_outcome(reference_lift, tensor, age)
        got = _lift_outcome(lift, tensor, age)
        assert got == want
        failed = isinstance(want[0], type)
        seen.add((kind, want[0].__name__ if failed else "lifted"))
        if kind == "raw" and not failed:
            seen.update(("raw slice", k) for k in case[2])
        if failed:
            return
        m = lift(tensor, age=age)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for vkind in data.draw(st.lists(st.sampled_from(validate_kinds), min_size=1, max_size=3)):
            perturbed = m if vkind == "none" else _perturbed(rng, m, vkind)
            for atol in (0.0, 4.4e-16, 1e-12):
                want = _validate_outcome(reference_validate, perturbed, atol)
                assert _validate_outcome(LiftedMatrix.validate, perturbed, atol) == want
                seen.add((vkind, _verdict(want)))

    check()
    # every input kind was reached, and every verdict of the check
    assert {("tensor", "lifted"), ("tensor", "UnsupportedCellError"), ("raw shape", "InvalidInputError"),
            ("raw", "lifted"), ("raw", "InvalidInputError"), ("raw", "UnsupportedCellError")} <= seen, seen
    assert {("raw slice", k) for k in ("zero", "nan", "-0.0", "-0.0 slice", "cancel")} <= seen, seen
    assert {("none", "valid"), ("nudge", "valid"), ("nudge", "sum"), ("leak", "leak"), ("-0.0 outside", "valid"),
            ("nan", "valid"), ("nan hides a leak", "valid"), ("flip", "sum"), ("shape", "shape")} <= seen, seen
