"""Array kernels behind the estimators and the cohort simulator.

The kernels are plain numpy.  Transition counting reads the state matrix
age-major, so each age is one contiguous row: for a panel's column-major
int8 states that is a transposed view, not a copy (any other layout or
dtype is copied once).  Per age it forms the pair or triple code in int8
arithmetic and runs one ``bincount``.  No int64 copy of the whole matrix
is made.

The cohort simulator advances every person one age per step and writes
one contiguous age column per step.  Before stepping it copies the four
lower edges of each cumulative row into one edge table per step, 4 x 25,
indexed by edge and pair code.  Per step a person's next state is the
number of edges at or below its draw: gathered by pair code, compared
with the draw and summed in int8.  Persons are stepped in blocks of
``_SIMULATE_BLOCK`` so that a block's codes, draws and gathered edges
stay in cache through all its steps.  Counting four edges equals
counting all five, capped at 4, only for rows that do not decrease, so
the simulator rejects any other cdf.

State matrices are int8 with codes 0-4 for observed states and negative
codes for unobserved cells; kernels skip negative cells.
"""

import numpy as np

from .states import N_STATES


def backend() -> str:
    """Name of the kernel backend, always "numpy"."""
    return "numpy"


def _age_major(states) -> np.ndarray:
    """C-contiguous int8 (n_ages, n_persons) form of an (n_persons, n_ages) state matrix.

    A view when ``states`` is already column-major int8, as a panel's is.
    """
    return np.ascontiguousarray(np.asarray(states).T, dtype=np.int8)


def _window_counts(states, width: int) -> np.ndarray:
    """Count the state codes of every window of ``width`` consecutive ages.

    Returns int64 (n_ages - width + 1, 5 ** width); window code
    sum_j 5 ** (width - 1 - j) * state_j is at most 124 for width 3, so it
    is formed in int8.  A window with a negative cell gets code -1 (its
    states' bitwise or has the sign bit set), which reads as 255 unsigned
    and falls outside the counted codes; the wrapped code of such a window
    is never looked at.
    """
    t = _age_major(states)
    n_codes = N_STATES ** width
    out = np.zeros((max(t.shape[0] - width + 1, 0), n_codes), dtype=np.int64)
    for k in range(out.shape[0]):
        code = t[k]
        seen = t[k]
        for row in t[k + 1 : k + width]:
            code = code * np.int8(N_STATES) + row
            seen = seen | row
        code = code | (seen >> 7)
        out[k] = np.bincount(code.view(np.uint8), minlength=256)[:n_codes]
    return out


def pair_counts(states: np.ndarray) -> np.ndarray:
    """Count consecutive-age state pairs.

    states: int8 (n_persons, n_ages).  Returns int64 (n_ages - 1, 5, 5)
    where out[k, a, b] counts persons observed in state a at column k and
    state b at column k + 1.
    """
    return _window_counts(states, 2).reshape(-1, N_STATES, N_STATES)


def triple_counts(states: np.ndarray) -> np.ndarray:
    """Count consecutive-age state triples; int64 (n_ages - 2, 5, 5, 5)."""
    return _window_counts(states, 3).reshape(-1, N_STATES, N_STATES, N_STATES)


#: Persons per simulate_paths block.  A block's pair codes, draws and
#: gathered edges (about 0.4 MB) stay in cache while it takes every step.
_SIMULATE_BLOCK = 1 << 13


def _entry_codes(codes, n: int, name: str) -> np.ndarray:
    """``codes`` as int8 (n,), or ValueError unless it holds n codes in 0..4."""
    codes = np.asarray(codes)
    if codes.shape != (n,):
        raise ValueError(f"{name} must hold {n} state codes, one per draw row; got shape {codes.shape}")
    if not np.isin(codes, np.arange(N_STATES)).all():
        raise ValueError(f"{name} holds a state code outside 0..{N_STATES - 1}")
    return codes.astype(np.int8)


def simulate_paths(first, second, cdf, u) -> np.ndarray:
    """Advance every person through an age-varying pair-conditional chain.

    first, second: (n,) state codes 0..4 at the two entry ages.
    cdf: float64 (n_steps, 25, 5), cumulative next-state probabilities per
         pair code 5 * previous + current.  Each row must not decrease.
    u:   float64 (n, n_steps) uniform draws, one per person per step.

    Returns int8 (n, n_steps + 2) state codes, column-major; column k + 2
    is the number of the edges cdf[k, code, :4] at or below u[:, k], which
    for a non-decreasing row is the number of all five, capped at 4.  The
    edges are read from a contiguous (n_steps, 4, 25) table built once;
    ``u`` is read a block of persons at a time and never copied whole.

    Raises ValueError when u is not two-dimensional, first or second does
    not hold n codes in 0..4, cdf is not shaped (n_steps, 25, 5), or a cdf
    row decreases or holds NaN.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"u must be (n, n_steps) draws, got shape {u.shape}")
    n, n_steps = u.shape
    first = _entry_codes(first, n, "first")
    second = _entry_codes(second, n, "second")
    cdf = np.asarray(cdf, dtype=np.float64)
    if cdf.shape != (n_steps, N_STATES**2, N_STATES):
        raise ValueError(f"cdf must be shaped ({n_steps}, 25, 5) for {n_steps} steps of u, got {cdf.shape}")
    if not (np.diff(cdf, axis=2) >= 0).all():
        raise ValueError("cdf rows must not decrease or hold NaN")

    edges = np.ascontiguousarray(cdf[:, :, : N_STATES - 1].transpose(0, 2, 1))
    states = np.empty((n, n_steps + 2), dtype=np.int8, order="F")
    states[:, 0] = first
    states[:, 1] = second
    for p0 in range(0, n, _SIMULATE_BLOCK):
        block = states[p0 : p0 + _SIMULATE_BLOCK]
        draws = u[p0 : p0 + _SIMULATE_BLOCK]
        code = np.empty(block.shape[0], dtype=np.intp)
        draw = np.empty(block.shape[0])
        lower = np.empty((N_STATES - 1, block.shape[0]))
        hit = np.empty(lower.shape, dtype=bool)
        for k in range(n_steps):
            np.multiply(block[:, k], N_STATES, out=code, casting="unsafe")
            code += block[:, k + 1]
            draw[:] = draws[:, k]
            # codes lie in 0..24, so clip never clips; it keeps take from buffering out
            np.take(edges[k], code, axis=1, out=lower, mode="clip")
            np.less_equal(lower, draw, out=hit)
            np.sum(hit, axis=0, dtype=np.int8, out=block[:, k + 2])
    return states
