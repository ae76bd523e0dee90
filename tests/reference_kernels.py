"""Kernels as they were before their rewrites, kept as a test reference.

``reference_pair_counts`` and ``reference_triple_counts`` are the
column-at-a-time ``kernels.pair_counts`` and ``kernels.triple_counts``
from before age-major int8 counting: each age widens strided int8 columns
to int64, masks them and runs one ``bincount``.
``reference_simulate_paths`` is ``kernels.simulate_paths`` from before
the edge tables: each step gathers a person's whole cumulative row,
compares it with a strided column of ``u`` and sums the five hits.  They
are unchanged apart from their names.  The differential tests in
test_kernels_differential.py hold the kernels to them bit for bit.
"""

import numpy as np


def reference_pair_counts(states: np.ndarray) -> np.ndarray:
    """Count consecutive-age state pairs.

    states: int8 (n_persons, n_ages).  Returns int64 (n_ages - 1, 5, 5)
    where out[k, a, b] counts persons observed in state a at column k and
    state b at column k + 1.
    """
    states = np.ascontiguousarray(states, dtype=np.int8)
    n_ages = states.shape[1]
    out = np.zeros((max(n_ages - 1, 0), 5, 5), dtype=np.int64)
    for k in range(n_ages - 1):
        a = states[:, k].astype(np.int64)
        b = states[:, k + 1].astype(np.int64)
        ok = (a >= 0) & (b >= 0)
        if ok.any():
            out[k] = np.bincount(a[ok] * 5 + b[ok], minlength=25).reshape(5, 5)
    return out


def reference_triple_counts(states: np.ndarray) -> np.ndarray:
    """Count consecutive-age state triples; int64 (n_ages - 2, 5, 5, 5)."""
    states = np.ascontiguousarray(states, dtype=np.int8)
    n_ages = states.shape[1]
    out = np.zeros((max(n_ages - 2, 0), 5, 5, 5), dtype=np.int64)
    for k in range(n_ages - 2):
        a = states[:, k].astype(np.int64)
        b = states[:, k + 1].astype(np.int64)
        c = states[:, k + 2].astype(np.int64)
        ok = (a >= 0) & (b >= 0) & (c >= 0)
        if ok.any():
            flat = (a[ok] * 5 + b[ok]) * 5 + c[ok]
            out[k] = np.bincount(flat, minlength=125).reshape(5, 5, 5)
    return out


def reference_simulate_paths(first, second, cdf, u) -> np.ndarray:
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
