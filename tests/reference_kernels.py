"""The counting kernels as they were before age-major int8 counting, kept as a test reference.

``reference_pair_counts`` and ``reference_triple_counts`` are the
column-at-a-time ``kernels.pair_counts`` and ``kernels.triple_counts``:
each age widens strided int8 columns to int64, masks them and runs one
``bincount``.  They are unchanged apart from their names.  The
differential test in test_kernels_differential.py holds the kernels to
them bit for bit.
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
