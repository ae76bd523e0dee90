"""Array kernels behind the estimators and the cohort simulator.

The kernels are plain numpy.  Transition counting reads the state matrix
age-major, so each age is one contiguous row: for a panel's column-major
int8 states that is a transposed view, not a copy (any other layout or
dtype is copied once).  Per age it forms the pair or triple code in int8
arithmetic and runs one ``bincount``.  No int64 copy of the whole matrix
is made.  The cohort simulator advances every person one age per step and
writes one contiguous age column per step.

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


def simulate_paths(first, second, cdf, u) -> np.ndarray:
    """Advance every person through an age-varying pair-conditional chain.

    first, second: int8 (n,) state codes at the two entry ages.
    cdf: float64 (n_steps, 25, 5), cumulative next-state probabilities per
         pair code 5 * previous + current.
    u:   float64 (n, n_steps) uniform draws, one per person per step.

    Returns int8 (n, n_steps + 2) state codes, column-major; column k + 2
    is the draw with u[:, k] against cdf[k].
    """
    first = np.ascontiguousarray(first, dtype=np.int8)
    second = np.ascontiguousarray(second, dtype=np.int8)
    cdf = np.ascontiguousarray(cdf, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    if cdf.shape[0] != u.shape[1]:
        raise ValueError(f"cdf has {cdf.shape[0]} steps but u has {u.shape[1]}")
    n, n_steps = u.shape
    states = np.empty((n, n_steps + 2), dtype=np.int8, order="F")
    states[:, 0] = first
    states[:, 1] = second
    for k in range(n_steps):
        code = states[:, k].astype(np.intp) * 5 + states[:, k + 1]
        cum = cdf[k, code, :]
        nxt = (cum <= u[:, k, None]).sum(axis=1)
        states[:, k + 2] = np.minimum(nxt, 4).astype(np.int8)
    return states
