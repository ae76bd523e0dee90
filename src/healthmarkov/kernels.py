"""Array kernels behind the estimators and the cohort simulator.

The kernels are plain numpy.  Transition counting tallies every window of
consecutive ages over seven cell letters, code + 2: 0 absent, 1 missing,
2..6 Q1..Q5 (a code below -1 counts as absent).  It reads the state
matrix age-major, so each age is one contiguous row: for a panel's
column-major int8 states that is a transposed view, not a copy (any other
layout or dtype is copied once).  Per window it forms the base-7 window
code from the rows of its ages, int8 for pairs (at most 48) and int16 for
triples (at most 342), and runs one ``bincount``; no temporary the size
of the whole matrix is made.  The estimators read these tallies through
``Panel.pair_tally`` and ``Panel.triple_tally``, which count each panel
once.

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
"""

import numpy as np

from .states import N_STATES

#: Cell letters a tally counts, code + 2: absent, missing, Q1..Q5.
N_LETTERS = N_STATES + 2


def backend() -> str:
    """Name of the kernel backend, always "numpy"."""
    return "numpy"


def _age_major(states) -> np.ndarray:
    """C-contiguous int8 (n_ages, n_persons) form of an (n_persons, n_ages) state matrix.

    A view when ``states`` is already column-major int8, as a panel's is.
    """
    return np.ascontiguousarray(np.asarray(states).T, dtype=np.int8)


def _letters(row) -> np.ndarray:
    """Cell letter of every cell of one age row, int8: code + 2, a code below -1 counting as absent."""
    letters = row + 2
    letters[letters < 0] = 0
    return letters


def _window_counts(states, width: int) -> np.ndarray:
    """Tally the cell letters of every window of ``width`` consecutive ages.

    Returns int64 (n_ages - width + 1, 7 ** width).  The window code
    sum_j 7 ** (width - 1 - j) * letter_j is formed in the narrowest of
    int8 and int16 that holds it; each age's letters are formed once and
    kept while a window holds that age.
    """
    t = _age_major(states)
    n_codes = N_LETTERS**width
    dtype = np.int8 if n_codes <= 128 else np.int16
    out = np.zeros((max(t.shape[0] - width + 1, 0), n_codes), dtype=np.int64)
    window = [_letters(row) for row in t[: width - 1]]
    for k in range(out.shape[0]):
        window.append(_letters(t[k + width - 1]))
        code = window.pop(0).astype(dtype)
        for letters in window:
            code *= N_LETTERS
            code += letters
        out[k] = np.bincount(code, minlength=n_codes)
    return out


def pair_counts(states: np.ndarray) -> np.ndarray:
    """Tally consecutive-age cell-letter pairs.

    states: int8 (n_persons, n_ages).  Returns int64 (n_ages - 1, 7, 7)
    where out[k, a, b] counts persons with letter a at column k and
    letter b at column k + 1; ``out[:, 2:, 2:]`` counts the observed
    state pairs.
    """
    return _window_counts(states, 2).reshape(-1, N_LETTERS, N_LETTERS)


def triple_counts(states: np.ndarray) -> np.ndarray:
    """Tally consecutive-age cell-letter triples; int64 (n_ages - 2, 7, 7, 7)."""
    return _window_counts(states, 3).reshape(-1, N_LETTERS, N_LETTERS, N_LETTERS)


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
