"""Differential test: the age-major int8 counting kernels against the column kernels they replaced.

``kernels.pair_counts`` and ``kernels.triple_counts`` must return what
reference_kernels' column-at-a-time versions return: the same values,
dtype and shape.  Generated state matrices hold observed codes 0..4 and
every negative int8 code, -128..-1 (all of which are unobserved), in
matrices of 0 to 2,055 persons and of 0 to 9 ages, passed C-ordered,
Fortran-ordered, as strided views or as int64.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov import kernels

from reference_kernels import reference_pair_counts, reference_triple_counts

NEGATIVE = np.arange(-128, 0)
BLOCK = 1024


@st.composite
def state_matrices(draw):
    n = draw(st.sampled_from([0, 1, 2, 5, 40, BLOCK - 1, BLOCK + 3, 2 * BLOCK + 7]))
    n_ages = draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = rng.integers(0, 5, size=(n, n_ages)).astype(np.int8)
    unobserved = rng.random((n, n_ages)) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]))
    states[unobserved] = rng.choice(NEGATIVE, size=int(unobserved.sum()))
    layout = draw(st.sampled_from(["C", "F", "every other age", "every third person", "int64"]))
    if layout == "F":
        states = np.asfortranarray(states)
    elif layout == "every other age":
        states = np.repeat(states, 2, axis=1)[:, ::2]
    elif layout == "every third person":
        states = np.repeat(states, 3, axis=0)[::3]
    elif layout == "int64":
        states = states.astype(np.int64)
    return layout, states


def assert_same_counts(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_counts_match_reference():
    seen = set()

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(case=state_matrices())
    def check(case):
        layout, states = case
        seen.add(layout)
        seen.add(("persons", min(states.shape[0], 2)))
        seen.add(("ages", min(states.shape[1], 5)))
        seen.update(int(code) for code in np.unique(states) if code < 0)
        assert_same_counts(kernels.pair_counts(states), reference_pair_counts(states))
        assert_same_counts(kernels.triple_counts(states), reference_triple_counts(states))

    check()
    assert {"C", "F", "every other age", "every third person", "int64"} <= seen
    assert {("persons", 0), ("persons", 1), ("persons", 2)} <= seen
    assert {("ages", k) for k in range(6)} <= seen
    assert set(range(-128, 0)) <= seen


def test_every_negative_code_is_skipped_in_every_position():
    # each negative code, once in each of the three cells of a window, next to observed codes
    observed = np.array([[4, 2, 3]], dtype=np.int8)
    rows = []
    for code in NEGATIVE:
        for pos in range(3):
            row = observed.copy()
            row[0, pos] = code
            rows.append(row)
    states = np.vstack(rows + [observed])
    pairs = kernels.pair_counts(states)
    triples = kernels.triple_counts(states)
    assert_same_counts(pairs, reference_pair_counts(states))
    assert_same_counts(triples, reference_triple_counts(states))
    assert triples.sum() == 1 and triples[0, 4, 2, 3] == 1
    assert pairs[0, 4, 2] == 1 + len(NEGATIVE) and pairs[1, 2, 3] == 1 + len(NEGATIVE)
