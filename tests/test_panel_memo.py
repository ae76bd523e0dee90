"""The parsed-cells memo beside a panel cache (``<cache>.npy``).

A read through the memo must equal a read of the CSV alone: the same ids,
birth years, ages, states, costs and months, with the same dtypes, layout
and read-only flags, or the same error, line and message.  Every cache
written here is read both ways, so the CSV parse keeps the coverage that
write/read round trips lose once they go through the memo.
"""

import csv
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov import panel as panel_module
from healthmarkov.errors import DataFormatError
from healthmarkov.panel import Panel
from healthmarkov.synthetic import generate_panel, random_chain

IDS = st.text(alphabet=st.sampled_from('ab7 ,"é日\0\n\r'), max_size=4)
CELL = st.tuples(st.integers(-2, 4), st.integers(0, 3_000_000), st.integers(1, 12))


@st.composite
def panels(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    n_ages = draw(st.integers(1, 5))
    rows = st.lists(CELL, min_size=n_ages, max_size=n_ages)
    cells = np.array(draw(st.lists(rows, min_size=len(ids), max_size=len(ids))), dtype=np.int64)
    births = draw(st.lists(st.sampled_from([1950, 1965, 1980]), min_size=len(ids), max_size=len(ids)))
    states, costs, months = cells.transpose(2, 0, 1)
    return Panel(ids, births, draw(st.integers(18, 22)), states, costs, months)


@pytest.fixture
def parses(monkeypatch):
    """The number of CSV parses so far, counted through panel._cache_cells."""
    calls = []
    parse = panel_module._cache_cells
    monkeypatch.setattr(panel_module, "_cache_cells", lambda raw: calls.append(raw) or parse(raw))
    return calls


@pytest.fixture
def cache(tmp_path):
    """A written synthetic panel cache and its memo."""
    path = tmp_path / "panel.csv"
    generate_panel(random_chain(seed=3, entry_age=20, exit_age=30, attrition=0.1), 60).write_cache(path)
    return path


def memo(path):
    return path.with_name(path.name + ".npy")


def outcome(path):
    """("ok", panel) or ("error", (class, line, message))."""
    try:
        return "ok", Panel.read_cache(path)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return "error", (type(exc), getattr(exc, "line", None), str(exc))


def csv_alone(path):
    """The outcome of reading a copy of the cache that has no memo beside it."""
    alone = path.parent / "alone"
    alone.mkdir(exist_ok=True)
    shutil.copyfile(path, alone / path.name)
    return outcome(alone / path.name)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
        return
    got, want = got[1], want[1]
    assert got.age_min == want.age_min
    assert all(type(p) is str for p in got.person_ids)
    for name in ("person_ids", "birth_years", "states", "costs", "months"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.flags.f_contiguous == b.flags.f_contiguous, name
        assert not a.flags.writeable and not b.flags.writeable, name
        assert a.tolist() == b.tolist(), name


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(panel=panels(), block=st.sampled_from([1, 40, 1 << 20]))
def test_memo_read_equals_the_csv_read(tmp_path_factory, monkeypatch, parses, panel, block):
    # the memo parses a file with no quote a block of rows at a time
    monkeypatch.setattr(panel_module, "_MEMO_BLOCK", block)
    path = tmp_path_factory.mktemp("memo") / "panel.csv"
    panel.write_cache(path)
    want = csv_alone(path)
    n_parses = len(parses)
    assert_same_outcome(outcome(path), want)
    if memo(path).exists():
        assert len(parses) == n_parses, "a read with a current memo parsed the CSV"
    else:  # only a file the reader refuses goes without one, as NUL under Python 3.10's csv module
        assert want[0] == "error" and want[1][0] is csv.Error


def test_synthetic_cache_reads_through_its_memo(cache, parses):
    assert memo(cache).exists()
    assert_same_outcome(outcome(cache), csv_alone(cache))
    assert len(parses) == 1  # the copy without a memo


def _truncate(keep):
    def cut(path):
        raw = memo(path).read_bytes()
        memo(path).write_bytes(raw[:keep(len(raw))])
    return cut


def _edit_csv(edit):
    def change(path):
        raw = path.read_bytes()
        assert edit(raw) != raw
        path.write_bytes(edit(raw))
    return change


def _resave(change):
    """Rewrite the memo with one of its arrays changed and its key kept."""
    def rewrite(path):
        with open(memo(path), "rb") as fh:
            arrays = [np.lib.format.read_array(fh) for _ in range(1 + len(panel_module._MEMO_DTYPES))]
        change(arrays)
        with open(memo(path), "wb") as fh:
            for array in arrays:
                np.save(fh, array, allow_pickle=True)
    return rewrite


def _other_cache_memo(path):
    other = path.parent / "other.csv"
    generate_panel(random_chain(seed=4, entry_age=20, exit_age=30), 40).write_cache(other)
    shutil.copyfile(memo(other), memo(path))


def _directory(path):
    memo(path).unlink()
    memo(path).mkdir()


def _set(i, value):
    return lambda arrays: arrays.__setitem__(i, value(arrays[i]))


FALLBACKS = {
    "no memo": lambda path: memo(path).unlink(),
    "csv byte edited, still valid": _edit_csv(lambda raw: raw.replace(b",Q1\r", b",Q2\r", 1)),
    "csv byte edited, now malformed": _edit_csv(lambda raw: raw[:-3] + b"X" + raw[-2:]),
    "memo empty": _truncate(lambda n: 0),
    "memo cut in its key": _truncate(lambda n: 100),
    "memo cut in half": _truncate(lambda n: n // 2),
    "memo short of one byte": _truncate(lambda n: n - 1),
    "memo of another format": lambda path: _write_memo_as(path, b"healthmarkov panel cells 0\n"),
    "memo of another cache": _other_cache_memo,
    "memo is a directory": _directory,
    "a column of another dtype": _resave(_set(-1, lambda a: a.astype(np.int32))),
    "a column of another length": _resave(_set(-2, lambda a: a[:-1])),
    "an id index of another length": _resave(_set(4, lambda a: a[:-1])),
    "an array that needs pickle": _resave(_set(3, lambda a: a.astype(object))),
}


def _write_memo_as(path, fmt):
    real = panel_module._MEMO_FORMAT
    panel_module._MEMO_FORMAT = fmt
    try:
        panel_module._write_memo(path)
    finally:
        panel_module._MEMO_FORMAT = real


@pytest.mark.parametrize("spoil", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_a_memo_that_does_not_fit_falls_back_to_the_csv(cache, parses, spoil):
    spoil(cache)
    n_parses = len(parses)
    got = outcome(cache)
    assert len(parses) == n_parses + 1, "the CSV was not parsed"
    assert_same_outcome(got, csv_alone(cache))


def test_an_edited_csv_reads_its_error_and_line(cache):
    FALLBACKS["csv byte edited, now malformed"](cache)
    n_lines = cache.read_bytes().count(b"\n")
    kind, (cls, line, _) = outcome(cache)
    assert (kind, cls, line) == ("error", DataFormatError, n_lines)


def test_a_read_writes_nothing(cache):
    for spoil in (lambda path: None, FALLBACKS["no memo"]):
        spoil(cache)
        before = {p.name: p.read_bytes() for p in cache.parent.iterdir()}
        Panel.read_cache(cache)
        assert {p.name: p.read_bytes() for p in cache.parent.iterdir()} == before


@pytest.mark.parametrize("block", [1, 100, 5000])
def test_memo_bytes_are_deterministic_whatever_the_block(cache, tmp_path, monkeypatch, block):
    assert b'"' not in cache.read_bytes() and len(cache.read_bytes()) > 5000
    monkeypatch.setattr(panel_module, "_MEMO_BLOCK", block)
    again = tmp_path / "again.csv"
    Panel.read_cache(cache).write_cache(again)
    assert again.read_bytes() == cache.read_bytes()
    assert memo(again).read_bytes() == memo(cache).read_bytes()


def test_a_write_that_cannot_save_its_memo_leaves_none(cache, monkeypatch):
    panel = Panel.read_cache(cache)
    rows = cache.read_bytes().count(b"\n") - 1

    def refuse(raw):
        raise DataFormatError("refused", line=1)

    monkeypatch.setattr(panel_module, "_cache_cells", refuse)
    assert panel.write_cache(cache) == rows
    assert sorted(p.name for p in cache.parent.iterdir()) == ["panel.csv"]  # the old memo is gone
    monkeypatch.undo()

    memo(cache).mkdir()
    assert panel.write_cache(cache) == rows
    assert sorted(p.name for p in cache.parent.iterdir()) == ["panel.csv", "panel.csv.npy"]
    assert memo(cache).is_dir()  # nothing was written into or beside it
    assert_same_outcome(outcome(cache), csv_alone(cache))
