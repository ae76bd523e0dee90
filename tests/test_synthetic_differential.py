"""Differential test: the array-based claims writer against the row writer it replaced.

``synthetic.write_claims`` must write the bytes that reference_synthetic's
``reference_write_claims`` writes, and return the same row count.
Generated panels carry ids that csv must quote (comma, quote, line breaks,
outer spaces, non-ASCII) or that are not strings, per-person or default
sexes, every remainder of cost mod 12 and costs up to 10**15, missing and
absent cells and single-age panels.  They span one block or several, with
block boundaries inside a person, at the module's block size and at small
ones patched in.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov import synthetic
from healthmarkov.errors import InvalidInputError
from healthmarkov.panel import Panel
from healthmarkov.synthetic import write_claims

from reference_synthetic import reference_write_claims

BLOCK = synthetic._CLAIMS_BLOCK_CELLS

QUOTED = {",": "comma", '"': "quote", "\n": "line feed", "\r": "carriage return", "é": "non-ASCII", "語": "non-ASCII"}


@st.composite
def id_lists(draw, n):
    kind = draw(st.sampled_from(["plain", "quoted", "int", "numpy int", "float"]))
    if kind == "plain":
        return kind, [f"p{k:05d}" for k in range(n)]
    if kind == "int":
        offset = draw(st.integers(-(10**12), 10**12))
        return kind, [offset + 1_000_003 * k for k in range(n)]
    if kind == "numpy int":
        return kind, list(np.arange(n, dtype=np.int64) * 7 - 3)
    if kind == "float":
        return kind, [k / 4 for k in range(n)]
    # digit-free decorations around the person's index keep the ids distinct
    decorations = draw(st.lists(st.text(st.sampled_from(list("ab _-") + list(QUOTED)), max_size=4),
                                min_size=1, max_size=8))
    m = len(decorations)
    return kind, [f"{decorations[k % m]}{k}{decorations[(k + 1) % m]}" for k in range(n)]


@st.composite
def panels(draw):
    size = draw(st.sampled_from(["small", "small", "small", "blocks"]))
    if size == "blocks":
        # two or three module-size blocks; 7 and 41 ages do not divide the block, so
        # its boundaries fall inside persons
        n, n_ages = draw(st.sampled_from([(1_173, 7), (4_101, 1), (104, 41)]))
        block = BLOCK
    else:
        n = draw(st.integers(0, 6))
        n_ages = draw(st.integers(0, 5))
        block = draw(st.sampled_from([1, 2, 3, 5, BLOCK]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    id_kind, ids = draw(id_lists(n))
    states = rng.integers(0, 5, size=(n, n_ages)).astype(np.int8)
    unobserved = rng.random((n, n_ages)) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    states[unobserved] = rng.choice([-1, -2], size=int(unobserved.sum()))
    scale = draw(st.sampled_from([12, 10**6, 10**15]))
    costs = rng.integers(0, scale + 1, size=(n, n_ages), dtype=np.int64)
    months = rng.integers(0, 13, size=(n, n_ages)).astype(np.int8)
    births = rng.integers(1900, 2001, size=n).astype(np.int32)
    sex_kind = draw(st.sampled_from(["none", "mixed", "numpy"]))
    if sex_kind == "none":
        sex = None
    elif sex_kind == "mixed":
        sex = rng.choice(["M", "F"], size=n).astype(object)
    else:
        sex = np.array(rng.choice(["M", "F"], size=n))
    panel = Panel(ids, births, draw(st.integers(0, 90)), states, costs, months, sex=sex)
    return {
        "panel": panel,
        "block": block,
        "ids": id_kind,
        "sex": sex_kind,
        "convention": draw(st.sampled_from(["fiscal", "calendar"])),
    }


def split_persons(states, block) -> int:
    """Block boundaries that fall between two observed cells of one person."""
    n_ages = states.shape[1]
    observed = states.reshape(-1) >= 0
    count = 0
    for boundary in range(block, observed.size, block):
        row = boundary - boundary % n_ages
        if boundary % n_ages and observed[row:boundary].any() and observed[boundary : row + n_ages].any():
            count += 1
    return count


def features(case) -> set:
    panel = case["panel"]
    observed = panel.states >= 0
    seen = {case["convention"], ("ids", case["ids"]), ("sex", case["sex"])}
    for pid in map(str, panel.person_ids):
        seen.update(name for char, name in QUOTED.items() if char in pid)
        if pid != pid.strip(" "):
            seen.add("outer space")
    if case["sex"] != "none" and len(set(map(str, panel.sex))) == 2:
        seen.add("both sexes")
    seen.update(("remainder", int(r)) for r in np.unique(panel.costs[observed] % 12))
    if observed.any() and panel.costs[observed].max() >= 10**14:
        seen.add("cost 1e14+")
    seen.update(name for code, name in ((-1, "missing"), (-2, "absent")) if (panel.states == code).any())
    if panel.n_ages == 1 and panel.n_persons:
        seen.add("one age")
    if observed.any() and panel.states.size > case["block"] and split_persons(panel.states, case["block"]):
        seen.add("split person" if case["block"] == BLOCK else "split person, small block")
    return seen


def test_claims_bytes_match_reference(tmp_path):
    seen = set()
    got_path, want_path = tmp_path / "got.csv", tmp_path / "want.csv"

    @settings(max_examples=250, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(case=panels())
    def check(case):
        seen.update(features(case))
        kwargs = {"year_convention": case["convention"]}
        with mock.patch.object(synthetic, "_CLAIMS_BLOCK_CELLS", case["block"]):
            got = write_claims(case["panel"], got_path, **kwargs)
        want = reference_write_claims(case["panel"], want_path, **kwargs)
        assert got == want
        assert got_path.read_bytes() == want_path.read_bytes()

    check()
    assert {"fiscal", "calendar", "comma", "quote", "line feed", "carriage return",
            "outer space", "non-ASCII", "both sexes", "cost 1e14+", "missing", "absent",
            "one age", "split person", "split person, small block"} <= seen
    assert {("ids", kind) for kind in ("plain", "quoted", "int", "numpy int", "float")} <= seen
    assert {("sex", kind) for kind in ("none", "mixed", "numpy")} <= seen
    assert {("remainder", r) for r in range(12)} <= seen


@pytest.mark.parametrize("convention", ["Fiscal", "", "april", None])
def test_bad_year_convention_fails_as_before(tmp_path, convention):
    panel = Panel(["a"], [1980], 30, [[0]], [[100]], [[12]])
    with pytest.raises(InvalidInputError) as want:
        reference_write_claims(panel, tmp_path / "want.csv", year_convention=convention)
    with pytest.raises(InvalidInputError) as got:
        write_claims(panel, tmp_path / "got.csv", year_convention=convention)
    assert str(got.value) == str(want.value)
    assert not (tmp_path / "got.csv").exists()
