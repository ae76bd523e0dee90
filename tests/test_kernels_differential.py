"""Differential tests: the rewritten kernels against the versions they replaced.

``kernels.pair_counts`` and ``kernels.triple_counts`` tally seven cell
letters, code + 2 (absent, missing, Q1..Q5).  Their observed block, letters
2..6 on every axis, must be what reference_kernels' column-at-a-time
versions return: the same values, dtype and shape.  The whole tally must
equal a brute-force one, each window's letters added with ``np.add.at``,
with every code below -1 read as absent.  Generated state matrices hold
observed codes 0..4 and every negative int8 code, -128..-1 (all of which
are unobserved), in matrices of 0 to 2,055 persons and of 0 to 9 ages,
passed C-ordered, Fortran-ordered, as strided views or as int64.

``kernels.simulate_paths`` must return what the whole-row simulator
returned, element for element, in int8 and column-major, for every cdf
whose rows do not decrease: sparse Dirichlet rows that repeat edges,
last edges just below and at 1.0, and draws equal to, or one ulp either
side of, an edge of the person's own pair.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov import kernels

from reference_kernels import (
    reference_pair_counts,
    reference_simulate_paths,
    reference_triple_counts,
)

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


def observed_block(tally):
    """The Q1..Q5 block of a letter tally: letters 2..6 on every letter axis."""
    return tally[(slice(None),) + (slice(2, None),) * (tally.ndim - 1)]


def brute_letter_tally(states, width):
    """Seven-letter tally of every window of ``width`` ages, one ``np.add.at`` per window."""
    codes = np.asarray(states).astype(np.int64)
    letters = np.where(codes < -1, 0, codes + 2)
    n_windows = max(codes.shape[1] - width + 1, 0)
    out = np.zeros((n_windows,) + (7,) * width, dtype=np.int64)
    for k in range(n_windows):
        np.add.at(out[k], tuple(letters[:, k + j] for j in range(width)), 1)
    return out


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
        pairs = kernels.pair_counts(states)
        triples = kernels.triple_counts(states)
        assert_same_counts(observed_block(pairs), reference_pair_counts(states))
        assert_same_counts(observed_block(triples), reference_triple_counts(states))
        assert_same_counts(pairs, brute_letter_tally(states, 2))
        assert_same_counts(triples, brute_letter_tally(states, 3))

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
    observed_pairs, observed_triples = observed_block(pairs), observed_block(triples)
    assert_same_counts(observed_pairs, reference_pair_counts(states))
    assert_same_counts(observed_triples, reference_triple_counts(states))
    assert observed_triples.sum() == 1 and observed_triples[0, 4, 2, 3] == 1
    assert observed_pairs[0, 4, 2] == 1 + len(NEGATIVE) and observed_pairs[1, 2, 3] == 1 + len(NEGATIVE)
    # every window is tallied once: -1 as missing (letter 1), every lower code as absent (0)
    assert triples.sum() == len(states)
    assert triples[0, 1, 4, 5] == 1 and triples[0, 0, 4, 5] == len(NEGATIVE) - 1


SIM_BLOCK = kernels._SIMULATE_BLOCK
#: How a draw placed on an edge is moved: one ulp down, not at all, one ulp up.
NUDGES = {"below": -np.inf, "equal": None, "above": np.inf}


@st.composite
def simulations(draw):
    """(first, second, cdf, u) and the set of cases it reaches."""
    n = draw(st.sampled_from([1, 2, 7, 300, SIM_BLOCK - 1, SIM_BLOCK + 3]))
    n_steps = draw(st.sampled_from([0, 1, 2, 5, 38]))
    alpha = draw(st.sampled_from([0.05, 1.0, 20.0]))
    tail = draw(st.sampled_from(["cumsum", "below 1", "1.0"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reached = {("n", min(n, 2)), ("steps", min(n_steps, 2)), ("n over a block", n > SIM_BLOCK)}

    cdf = np.cumsum(rng.dirichlet(np.full(5, alpha), size=(n_steps, 25)), axis=2)
    if tail != "cumsum":
        last = np.nextafter(1.0, 0.0) if tail == "below 1" else 1.0
        cdf = np.minimum(cdf, last)
        cdf[:, :, 4] = last
    if (np.diff(cdf, axis=2) == 0).any():
        reached.add(("repeated edge", alpha))

    first = rng.integers(0, 5, n).astype(draw(st.sampled_from([np.int8, np.int64])))
    second = rng.integers(0, 5, n).astype(first.dtype)
    u = rng.random((n, n_steps))
    on_edge = rng.random((n, n_steps)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    prev, cur = first, second
    for k in range(n_steps):
        # the draws before step k settle each person's pair at step k, so a
        # draw can be put on an edge of that pair's row
        code = prev.astype(np.intp) * 5 + cur
        rows = np.flatnonzero(on_edge[:, k])
        edge = rng.integers(0, 5, rows.size)
        nudge = rng.choice(list(NUDGES), rows.size)
        values = cdf[k, code[rows], edge]
        for how, direction in NUDGES.items():
            if direction is not None:
                values[nudge == how] = np.nextafter(values[nudge == how], direction)
        u[rows, k] = values
        reached.update(("draw", how, tail if j == 4 else "lower edge") for how, j in zip(nudge, edge))
        prev, cur = cur, reference_simulate_paths(prev, cur, cdf[k : k + 1], u[:, k : k + 1])[:, 2]
    if draw(st.booleans()):
        u = np.asfortranarray(u)
    return (first, second, cdf, u), reached


def test_simulate_paths_matches_reference():
    seen = set()

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(case=simulations())
    def check(case):
        args, reached = case
        seen.update(reached)
        got = kernels.simulate_paths(*args)
        want = reference_simulate_paths(*args)
        assert got.dtype == want.dtype == np.int8
        assert got.shape == want.shape and got.flags.f_contiguous
        assert np.array_equal(got, want)

    check()
    assert {("n", 1), ("n", 2), ("n over a block", True)} <= seen
    assert {("steps", 0), ("steps", 1), ("steps", 2)} <= seen
    assert ("repeated edge", 0.05) in seen
    edges = ("lower edge", "cumsum", "below 1", "1.0")  # a lower edge, or the last edge by its tail
    assert {("draw", how, edge) for how in NUDGES for edge in edges} <= seen
