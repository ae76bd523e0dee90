import numpy as np
import pytest

from healthmarkov import kernels


def brute_pair_counts(states):
    """Reference implementation: plain python loops."""
    n, n_ages = states.shape
    out = np.zeros((max(n_ages - 1, 0), 5, 5), dtype=np.int64)
    for p in range(n):
        for k in range(n_ages - 1):
            a, b = int(states[p, k]), int(states[p, k + 1])
            if a >= 0 and b >= 0:
                out[k, a, b] += 1
    return out


def brute_triple_counts(states):
    n, n_ages = states.shape
    out = np.zeros((max(n_ages - 2, 0), 5, 5, 5), dtype=np.int64)
    for p in range(n):
        for k in range(n_ages - 2):
            a, b, c = (int(states[p, k]), int(states[p, k + 1]), int(states[p, k + 2]))
            if a >= 0 and b >= 0 and c >= 0:
                out[k, a, b, c] += 1
    return out


def random_states(rng, n=200, n_ages=7, missing_rate=0.2):
    states = rng.integers(0, 5, size=(n, n_ages)).astype(np.int8)
    gone = rng.random((n, n_ages)) < missing_rate
    states[gone] = -1
    states[rng.random((n, n_ages)) < 0.05] = -2
    return states


def test_pair_counts_match_bruteforce(rng):
    states = random_states(rng)
    np.testing.assert_array_equal(kernels.pair_counts(states)[:, 2:, 2:], brute_pair_counts(states))


def test_triple_counts_match_bruteforce(rng):
    states = random_states(rng)
    np.testing.assert_array_equal(kernels.triple_counts(states)[:, 2:, 2:, 2:], brute_triple_counts(states))


def test_counts_on_empty_width():
    one_col = np.zeros((3, 1), dtype=np.int8)
    assert kernels.pair_counts(one_col)[:, 2:, 2:].shape == (0, 5, 5)
    assert kernels.triple_counts(one_col)[:, 2:, 2:, 2:].shape == (0, 5, 5, 5)


def test_simulate_deterministic_chain():
    # next state always (current + 1) mod 5, regardless of the pair
    probs = np.zeros((4, 25, 5))
    for code in range(25):
        probs[:, code, (code % 5 + 1) % 5] = 1.0
    cdf = np.cumsum(probs, axis=2)
    first = np.array([0, 3], dtype=np.int8)
    second = np.array([1, 4], dtype=np.int8)
    u = np.full((2, 4), 0.5)
    got = kernels.simulate_paths(first, second, cdf, u)
    np.testing.assert_array_equal(got, [[0, 1, 2, 3, 4, 0], [3, 4, 0, 1, 2, 3]])


def test_simulate_uses_cumulative_bands():
    # one step, pair (0,0): p = (0.2, 0.3, 0.5); u picks the band
    probs = np.zeros((1, 25, 5))
    probs[0, 0] = [0.2, 0.3, 0.5, 0.0, 0.0]
    cdf = np.cumsum(probs, axis=2)
    first = np.zeros(4, dtype=np.int8)
    second = np.zeros(4, dtype=np.int8)
    u = np.array([[0.0], [0.19999], [0.2], [0.99999]])
    got = kernels.simulate_paths(first, second, cdf, u)
    np.testing.assert_array_equal(got[:, 2], [0, 0, 1, 2])


def test_simulate_guards_float_tail():
    # cumulative sums that fall just short of 1.0 must still land in-state
    probs = np.full((1, 25, 5), 0.2)
    cdf = np.cumsum(probs, axis=2)
    cdf[:, :, 4] = np.nextafter(1.0, 0.0)
    u = np.array([[np.nextafter(1.0, 0.0)]])
    got = kernels.simulate_paths(np.zeros(1, np.int8), np.zeros(1, np.int8), cdf, u)
    assert got[0, 2] == 4


def _valid_cdf(n_steps=2):
    return np.cumsum(np.full((n_steps, 25, 5), 0.2), axis=2)


@pytest.mark.parametrize(
    "first, second",
    [
        ([-1], [4]),  # would wrap to pair code -1 and step as (Q5,Q5)
        ([0], [9]),  # would step as pair (Q2,Q5)
        ([5], [0]),
        ([0], [-2]),
        ([0.5], [1]),
        ([0, 1], [1]),  # first holds two codes for one draw row
        ([0], [[1]]),
        ([], [1]),
    ],
)
def test_simulate_rejects_bad_entry_codes(first, second):
    with pytest.raises(ValueError, match="first|second"):
        kernels.simulate_paths(first, second, _valid_cdf(), np.full((1, 2), 0.5))


def test_simulate_rejects_entry_codes_that_broadcast():
    # one code for three persons used to fill every row
    with pytest.raises(ValueError, match="first must hold 3 state codes"):
        kernels.simulate_paths([0], [1, 1, 1], _valid_cdf(), np.full((3, 2), 0.5))


@pytest.mark.parametrize(
    "cdf",
    [
        _valid_cdf()[:, :24],  # 24 pair rows
        _valid_cdf()[:, :, :4],
        np.concatenate([_valid_cdf(), np.ones((2, 25, 1))], axis=2),
        _valid_cdf(3),  # one step more than u has
        _valid_cdf(1),
        _valid_cdf()[0],
    ],
)
def test_simulate_rejects_misshapen_cdf(cdf):
    with pytest.raises(ValueError, match="cdf must be shaped"):
        kernels.simulate_paths([0], [1], cdf, np.full((1, 2), 0.5))


@pytest.mark.parametrize(
    "cell, value",
    [
        ((0, 7, 1), np.nan),
        ((1, 24, 4), np.nan),
        ((0, 0, 0), np.nan),
        ((0, 7, 2), 0.1),  # below the edge before it
        ((1, 24, 4), 0.5),
        ((0, 0, 0), 0.9),  # above the edge after it
    ],
)
def test_simulate_rejects_decreasing_or_nan_cdf_rows(cell, value):
    cdf = _valid_cdf()
    cdf[cell] = value
    with pytest.raises(ValueError, match="must not decrease or hold NaN"):
        kernels.simulate_paths([0], [1], cdf, np.full((1, 2), 0.5))


def test_simulate_rejects_draws_that_are_not_a_matrix():
    with pytest.raises(ValueError, match="u must be"):
        kernels.simulate_paths([0], [1], _valid_cdf(), np.full(2, 0.5))
