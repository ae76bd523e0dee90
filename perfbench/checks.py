"""Output checks that do not go through the code they check.

Transition counts are recomputed here with plain numpy, never through
``healthmarkov.kernels``; the panel cache is parsed with the csv module,
never through ``Panel.read_cache``.
"""

import csv
import hashlib

import numpy as np

STATE_NAMES = ("Q1", "Q2", "Q3", "Q4", "Q5")
_CODE = {name: i for i, name in enumerate(STATE_NAMES)}


def reference_counts(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair and triple counts per age step: (n_ages-1, 5, 5) and (n_ages-2, 5, 5, 5)."""
    s = states.astype(np.int64)
    n_ages = s.shape[1]
    a, b = s[:, :-1], s[:, 1:]
    step = np.broadcast_to(np.arange(n_ages - 1), a.shape)
    ok = (a >= 0) & (b >= 0)
    pairs = np.bincount((step * 25 + a * 5 + b)[ok], minlength=(n_ages - 1) * 25)
    a, b, c = s[:, :-2], s[:, 1:-1], s[:, 2:]
    step = np.broadcast_to(np.arange(n_ages - 2), a.shape)
    ok = (a >= 0) & (b >= 0) & (c >= 0)
    triples = np.bincount((step * 125 + a * 25 + b * 5 + c)[ok], minlength=(n_ages - 2) * 125)
    return pairs.reshape(-1, 5, 5), triples.reshape(-1, 5, 5, 5)


def _by_age(ref: np.ndarray, first_age: int) -> dict[int, np.ndarray]:
    return {first_age + k: ref[k] for k in range(ref.shape[0]) if ref[k].sum() > 0}


def family_counts_match(family, ref: np.ndarray, first_age: int) -> bool:
    """An estimated family has exactly the reference's ages and counts."""
    want = _by_age(ref, first_age)
    return sorted(family) == sorted(want) and all(
        np.array_equal(family[age].counts, want[age]) for age in want
    )


def csv_counts_match(path, ref: np.ndarray, first_age: int) -> bool:
    """order1.csv / order2.csv count columns equal the reference counts."""
    want = _by_age(ref, first_age)
    got = {age: np.zeros_like(counts) for age, counts in want.items()}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        state_cols = [c for c in reader.fieldnames if c.startswith("state_") or c.endswith("_state")]
        for row in reader:
            age = int(row["age"])
            if age not in got:
                return False
            got[age][tuple(_CODE[row[c]] for c in state_cols)] = int(row["count"])
    return all(np.array_equal(got[age], want[age]) for age in want)


def panel_cache_matches(path, person_ids, birth_years, age_min, states, costs, months) -> bool:
    """The panel cache holds exactly the given cells: state, cost and months, row by row."""
    expected = []
    for p, pid in enumerate(person_ids):
        for col in np.flatnonzero(states[p] != -2):
            age = age_min + int(col)
            code = int(states[p, col])
            year = str(int(birth_years[p]) + age)
            if code >= 0:
                expected.append([str(pid), str(age), year, str(int(months[p, col])),
                                 str(int(costs[p, col])), STATE_NAMES[code]])
            else:
                expected.append([str(pid), str(age), year, "0", "", "MISSING"])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1:] == expected


def affine_in_q5(rows, rel_tol: float = 1e-9) -> bool:
    """Every (start age, start pair) group of projection rows is affine in the Q5 value.

    rows: (start_age, start_pair, q5_value, cumulative) with at least two Q5
    values per group.
    """
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for start_age, pair, q5, cumulative in rows:
        groups.setdefault((str(start_age), str(pair)), []).append((float(q5), float(cumulative)))
    if not groups:
        return False
    for points in groups.values():
        q, y = np.array(points).T
        if q.size < 2 or q[-1] == q[0]:
            return False
        slope = (y[-1] - y[0]) / (q[-1] - q[0])
        fitted = y[0] + slope * (q - q[0])
        if (np.abs(fitted - y) > rel_tol * np.maximum(np.abs(y), 1.0)).any():
            return False
    return True


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def table_digest(header, rows) -> str:
    """Digest of an in-memory report table, one canonical text line per row."""
    h = hashlib.sha256()
    for row in [header, *rows]:
        h.update((",".join(_cell(v) for v in row) + "\n").encode("utf-8"))
    return h.hexdigest()
