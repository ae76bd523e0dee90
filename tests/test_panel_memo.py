"""The parsed-cells memo beside a panel cache (``<cache>.npy``).

A read through the memo must equal a read of the CSV alone: the same ids,
birth years, ages, states, costs and months, with the same dtypes, layout
and read-only flags, or the same error, line and message.  Every cache
written here is read both ways, so the CSV parse keeps the coverage that
write/read round trips lose once they go through the memo.  ``write_cache``
saves the memo from the columns it writes; every memo it saves must be
byte-equal to the one the reference parse of the bytes it wrote gives.
"""

import csv
import io
import re
import shutil
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_panel
from healthmarkov import panel as panel_module
from healthmarkov.errors import DataFormatError, InvalidInputError
from healthmarkov.panel import Panel
from healthmarkov.synthetic import generate_panel, random_chain
from reference_panel import reference_memo_arrays

IDS = st.text(alphabet=st.sampled_from('ab7 ,"é日\0\n\r\x1c'), max_size=4)
CELL = st.tuples(st.integers(-2, 4), st.integers(0, 3_000_000), st.integers(1, 12))

#: Characters a written id may start or end with, and those it may also hold inside.
EDGE = 'ab7,"é日'
INNER = EDGE + " \n\r"
WRITABLE_IDS = st.one_of(
    st.text(alphabet=st.sampled_from(EDGE), max_size=1),
    st.builds(lambda head, inner, tail: head + inner + tail, st.sampled_from(EDGE),
              st.text(alphabet=st.sampled_from(INNER), max_size=3), st.sampled_from(EDGE)),
)
WRITABLE_ID_LISTS = st.one_of(
    st.lists(WRITABLE_IDS, min_size=1, max_size=5, unique=True),
    st.lists(st.integers(-99, 10**9), min_size=1, max_size=5, unique=True),
)


@st.composite
def panels(draw, id_lists=st.lists(IDS, min_size=1, max_size=5, unique=True), n_ages=st.integers(1, 5)):
    ids = draw(id_lists)
    n = draw(n_ages)
    rows = st.lists(CELL, min_size=n, max_size=n)
    cells = np.array(draw(st.lists(rows, min_size=len(ids), max_size=len(ids))), dtype=np.int64)
    births = draw(st.lists(st.sampled_from([1950, 1965, 1980]), min_size=len(ids), max_size=len(ids)))
    states, costs, months = cells.reshape(len(ids), n, 3).transpose(2, 0, 1)
    return Panel(ids, births, draw(st.integers(18, 22)), states, costs, months)


def small_panel(ids, states):
    """A panel of ``ids`` born in 1970, entering at 30, with the given state matrix."""
    states = np.array(states, dtype=np.int64).reshape(len(ids), -1)
    return Panel(ids, [1970] * len(ids), 30, states, 100 * (states + 3), np.where(states >= 0, 12, 0))


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


def _refused(text: str) -> bool:
    """Whether the id rule refuses ``text``, for the characters IDS draws."""
    return text != text.strip() or "\0" in text


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(panel=panels())
def test_memo_read_equals_the_csv_read(tmp_path_factory, parses, panel):
    path = tmp_path_factory.mktemp("memo") / "panel.csv"
    refused = [text for text in map(str, panel.person_ids) if _refused(text)]
    if refused:
        with pytest.raises(InvalidInputError, match=re.escape(repr(refused[0]))):
            panel.write_cache(path)
        assert not path.exists() and not memo(path).exists()
        return
    panel.write_cache(path)
    want = csv_alone(path)
    n_parses = len(parses)
    assert_same_outcome(outcome(path), want)
    assert len(parses) == n_parses, "a read with a current memo parsed the CSV"


def saved(arrays) -> bytes:
    """The bytes of a memo that holds ``arrays``."""
    buf = io.BytesIO()
    for array in arrays:
        np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(panel=panels(WRITABLE_ID_LISTS, st.integers(0, 5)))
@example(panel=small_panel([7, -3, 10**9], [[0, 1], [-1, 4], [2, -2]]))  # int ids
@example(panel=small_panel(['a\nb', 'c\rd', 'e \r\nf'], [[0], [1], [2]]))  # line ends inside ids
@example(panel=small_panel(['a', 'b', 'c'], [[0, -1], [-1, -2], [-2, 3]]))  # 'b' observed nowhere
@example(panel=small_panel(['a', 'b'], [[-2, -2], [-2, -2]]))  # no in-span cell
@example(panel=small_panel(['a', 'b'], [[-1, -1], [-2, -1]]))  # no observed cell
@example(panel=small_panel(['a', 'b'], np.zeros((2, 0))))  # no age
def test_memo_bytes_equal_the_reference_parse(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("memo") / "panel.csv"
    panel.write_cache(path)
    assert memo(path).read_bytes() == saved(reference_memo_arrays(path.read_bytes()))


@pytest.mark.parametrize("block", [100, 1 << 20])
def test_synthetic_memo_equals_the_reference_parse_a_block_at_a_time(cache, monkeypatch, block):
    monkeypatch.setattr(reference_panel, "_MEMO_BLOCK", block)
    assert memo(cache).read_bytes() == saved(reference_memo_arrays(cache.read_bytes()))


def test_a_memo_the_reference_parse_saved_is_read_without_a_parse(cache, parses):
    memo(cache).write_bytes(saved(reference_memo_arrays(cache.read_bytes())))
    got = outcome(cache)
    assert parses == []
    assert_same_outcome(got, csv_alone(cache))


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(panel=panels(WRITABLE_ID_LISTS), order=st.randoms(use_true_random=False))
def test_the_order_of_cache_rows_does_not_matter(tmp_path_factory, plain_blocks, panel, order):
    path = tmp_path_factory.mktemp("order") / "panel.csv"
    panel.write_cache(path)
    want = outcome(path)
    header, *records = csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
    order.shuffle(records)
    for padded in (False, True):
        if padded and records:
            records[0][-1] = " " + records[0][-1]  # a padded label sends the file to the row loop
        text = io.StringIO(newline="")
        csv.writer(text).writerows([header, *records])
        raw = text.getvalue().encode("utf-8")
        shuffled = path.with_name(f"shuffled-{padded}.csv")
        shuffled.write_bytes(raw)
        plain_blocks.clear()
        assert_same_outcome(outcome(shuffled), want)
        # so do quoted and non-ASCII ids; the file is one block
        plain = not padded and raw.isascii() and b'"' not in raw
        assert [took for _, took in plain_blocks] == ([plain] if records else [])


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
    "memo of another format": _resave(_set(0, lambda key: np.frombuffer(
        b"healthmarkov panel cells 0\n" + key.tobytes()[-32:], dtype=np.uint8))),
    "memo of another cache": _other_cache_memo,
    "memo is a directory": _directory,
    "a column of another dtype": _resave(_set(-1, lambda a: a.astype(np.int32))),
    "a column of another length": _resave(_set(-2, lambda a: a[:-1])),
    "an id index of another length": _resave(_set(4, lambda a: a[:-1])),
    "an array that needs pickle": _resave(_set(3, lambda a: a.astype(object))),
}


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


def test_memo_bytes_are_deterministic(cache, tmp_path):
    again = tmp_path / "again.csv"
    Panel.read_cache(cache).write_cache(again)
    assert again.read_bytes() == cache.read_bytes()
    assert memo(again).read_bytes() == memo(cache).read_bytes()


def test_a_write_that_cannot_save_its_memo_leaves_none(cache, monkeypatch):
    panel = Panel.read_cache(cache)
    rows = cache.read_bytes().count(b"\n") - 1

    def fail(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "save", fail)
    assert panel.write_cache(cache) == rows
    assert sorted(p.name for p in cache.parent.iterdir()) == ["panel.csv"]  # the old memo is gone
    monkeypatch.undo()

    memo(cache).mkdir()
    assert panel.write_cache(cache) == rows
    assert sorted(p.name for p in cache.parent.iterdir()) == ["panel.csv", "panel.csv.npy"]
    assert memo(cache).is_dir()  # nothing was written into or beside it
    assert_same_outcome(outcome(cache), csv_alone(cache))


REFUSED = {
    "leading space": " a",
    "trailing line end": "a\r\n",
    "file separator": "\x1ca",
    "unit separator": "a\x1f",
    "NUL": "a\0b",
    "lone surrogate": "a\udc80",
    "over the csv field limit": "x" * (csv.field_size_limit() + 1),
}


@pytest.mark.parametrize("pid", REFUSED.values(), ids=REFUSED.keys())
def test_write_cache_refuses_an_id_a_read_would_not_give_back(cache, monkeypatch, pid):
    before = {p.name: p.read_bytes() for p in cache.parent.iterdir()}

    def no_open(*args, **kwargs):
        raise AssertionError(f"write_cache opened {args[0]!r}")

    panel = small_panel(["b", pid], [[0], [1]])
    with monkeypatch.context() as patch:
        patch.setattr("builtins.open", no_open)
        with pytest.raises(InvalidInputError) as err:
            panel.write_cache(cache)
    assert repr(pid) in str(err.value)
    assert {p.name: p.read_bytes() for p in cache.parent.iterdir()} == before


def test_an_id_as_long_as_the_csv_field_limit_reads_back(tmp_path):
    pid = "x" * csv.field_size_limit()
    path = tmp_path / "panel.csv"
    small_panel([pid], [[0]]).write_cache(path)
    assert Panel.read_cache(path).person_ids.tolist() == [pid]
    kind, alone = csv_alone(path)
    assert kind == "ok" and alone.person_ids.tolist() == [pid]


@pytest.mark.parametrize("births", [[1970, 1970], [1970, 1971]], ids=["one year", "two years"])
def test_write_cache_refuses_two_ids_written_as_one_text(cache, monkeypatch, births):
    # a read would give their rows one person: merged, or a duplicate person-year
    before = {p.name: p.read_bytes() for p in cache.parent.iterdir()}

    def no_open(*args, **kwargs):
        raise AssertionError(f"write_cache opened {args[0]!r}")

    panel = Panel([7, Decimal("0.1"), 0.1], [1970, *births], 30, [[0], [1], [2]], [[5], [6], [7]],
                  [[12], [12], [12]])
    with monkeypatch.context() as patch:
        patch.setattr("builtins.open", no_open)
        with pytest.raises(InvalidInputError, match=re.escape("Decimal('0.1') and 0.1 both write as '0.1'")):
            panel.write_cache(cache)
    assert {p.name: p.read_bytes() for p in cache.parent.iterdir()} == before


@pytest.mark.parametrize("padded", [False, True], ids=["as written", "padded label"])
def test_a_csv_read_holds_at_most_200_bytes_per_cache_row(tmp_path, padded):
    path = tmp_path / "panel.csv"
    rows = generate_panel(random_chain(seed=7, entry_age=20, exit_age=60, attrition=0.02), 2000).write_cache(path)
    raw = path.read_bytes()
    if padded:  # a padded state label on the first row sends every block to the row loop
        head, first, rest = raw.split(b"\r\n", 2)
        cut = first.rindex(b",") + 1
        raw = b"\r\n".join([head, first[:cut] + b" " + first[cut:], rest])
    tracemalloc.start()
    try:
        panel_module._cache_cells(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding every csv record at once took about 630 bytes per row with the padded label
    assert rows >= 80_000
    assert peak <= 200 * rows


@pytest.mark.parametrize("ids", [[" a", "a"], [" a"]], ids=["colliding", "alone"])
def test_ids_with_outer_whitespace_are_refused_at_write(tmp_path, ids):
    # a read strips ids: " a" would read back as "a", and next to "a" as a duplicate person-year
    with pytest.raises(InvalidInputError, match="' a'"):
        small_panel(ids, [[0]] * len(ids)).write_cache(tmp_path / "panel.csv")
    assert list(tmp_path.iterdir()) == []
