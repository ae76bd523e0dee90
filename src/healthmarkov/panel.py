"""Longitudinal panel of per-person annual cost states.

A Panel stores one row per person and one column per age, dense over the
common age range.  The state, cost and month matrices are column-major
(Fortran order): one age of every person is one contiguous column, which
is what the per-age estimators read.  Cell codes in the state matrix:

    0..4   observed state (Q1..Q5 as 0-based codes)
    -1     in-panel year with no observed months (missing marker): a gap
           between two observed years, or trailing years after the person
           left the data but before the panel's final year
    -2     outside the person's enrolment span (before entry, or past the
           panel's final year for that person's birth cohort)

Estimators only ever distinguish "observed" (>= 0) from "not observed";
the -1 / -2 split exists so that attrition can be reported as its own
category while years outside the data window stay invisible.

Panel cache.  ``write_cache`` writes a CSV with the header
``person_id,age,year,months_observed,annual_cost,state`` and one row per
in-span cell; a missing-marker row has state ``MISSING``, months 0 and an
empty cost.  ``read_cache`` parses it with ``_read_blocks``, the CSV
reader claims ingestion uses too, and keeps the observed rows of each
block for ``build_panel``, the one panel builder.  A cache goes to the
reader's row loop from the first block with a quoted or non-ASCII field
(an id with a comma, quote, line end or non-ASCII letter), a padded
field, or a number only ``int()`` reads, such as ``1_000``.

Person ids.  ``write_cache`` writes ``str(id)`` and, before it opens a
file, raises InvalidInputError naming the first person whose id a read
would not give back: one with whitespace at an end (the reader strips
it), holding a NUL (Python 3.10's csv module refuses it), not encodable
as UTF-8, or longer than ``csv.field_size_limit()``; or naming two
persons whose ids are the same text (``Decimal("0.1")`` and ``0.1``),
which a read would give back as one.

Parsed-cells memo.  ``write_cache`` also saves the columns it formats,
which by the id rule are what a read parses from its CSV (the observed
rows, and the last year), in one file beside it, ``<cache path>.npy``,
keyed by the SHA-256 of the CSV bytes.  ``read_cache`` hashes the CSV it
reads and takes the columns from the memo only when the memo's format
and digest match those bytes and every array in it loads with its
expected dtype and length; otherwise it parses the CSV.  So an edited,
replaced or truncated CSV, a missing, stale or damaged memo, or a CSV
copied without its memo reads exactly as the CSV alone, only slower, and
a read never writes a file.  The memo is trusted exactly as far as the
CSV beside it: it is checked against those bytes, not against tampering.
Either way the columns go through ``build_panel`` and all its checks.

Errors ``read_cache`` raises, in this order:

- DataFormatError at the first offending line (1-based ``line``; blank
  lines are skipped but counted), for that line's first failing check:
  a record the csv module cannot read (say, a field over its limit),
  bytes that are not UTF-8, header (line 1), field count, integer
  age/year, state label, integer months/cost, cost >= 0 (the last two
  not checked on MISSING rows);
- DuplicateRecordError for a repeated (person, year), EmptyCohortError
  when no observed row is left, DataFormatError (no line) for a person
  whose rows imply two birth years.

Integer fields follow ``int()``: a sign, underscores, surrounding
whitespace and non-ASCII digits are accepted.  A value too large for the
panel's storage types raises OverflowError, once every line is checked.
"""

import csv
import functools
import hashlib
import io
import os
import re
import warnings
from itertools import chain

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    DataFormatError,
    DuplicateRecordError,
    EmptyCohortError,
    InvalidInputError,
)
from .states import MISSING, STATE_LABELS

MISSING_CODE = -1
ABSENT_CODE = -2

PANEL_CACHE_COLUMNS = ("person_id", "age", "year", "months_observed", "annual_cost", "state")


class Panel:
    """Aligned per-person state/cost trajectories.

    Rows are canonically ordered by person_id so that every downstream
    computation is independent of input order.  ``states``, ``costs`` and
    ``months`` are stored column-major whatever layout the caller passes,
    so ``states[:, c]`` is contiguous.  Every array attribute is a
    read-only view: an in-place write through the panel raises ValueError,
    while the caller's own array stays writable.  Filters build a new
    Panel, and values derived from the arrays (``cohort_index`` and the
    transition tallies ``pair_tally`` and ``triple_tally``) are computed
    once per panel.

    An array passed already sorted by person, with the panel's dtype and,
    for a matrix, column-major layout, is kept without a copy.  A later
    write through the caller's array then changes the panel too, and a
    value derived before the write goes stale.
    """

    def __init__(self, person_ids, birth_years, age_min, states, costs, months, sex=None):
        person_ids = np.asarray(person_ids, dtype=object)
        birth_years = np.asarray(birth_years, dtype=np.int32)
        states = np.asfortranarray(states, dtype=np.int8)
        costs = np.asfortranarray(costs, dtype=np.int64)
        months = np.asfortranarray(months, dtype=np.int8)
        n = person_ids.shape[0]
        if not (birth_years.shape[0] == states.shape[0] == costs.shape[0] == months.shape[0] == n):
            raise InvalidInputError("panel arrays disagree on the number of persons")
        if states.shape != costs.shape or states.shape != months.shape:
            raise InvalidInputError("panel matrices disagree on shape")
        if sex is not None:
            sex = np.asarray(sex, dtype=object)
            if sex.shape[0] != n:
                raise InvalidInputError("sex array length mismatch")

        order = np.argsort(person_ids, kind="stable")
        if not np.array_equal(order, np.arange(n)):
            person_ids = person_ids[order]
            birth_years = birth_years[order]
            states = _take_persons(states, order)
            costs = _take_persons(costs, order)
            months = _take_persons(months, order)
            if sex is not None:
                sex = sex[order]
        # sorted, so a repeated id sits next to its twin
        repeated = np.flatnonzero(person_ids[1:] == person_ids[:-1])
        if repeated.size:
            raise InvalidInputError(f"person id {person_ids[repeated[0]]!r} appears in more than one row")

        if states.size:
            bad = (states < ABSENT_CODE) | (states > 4)
            if bad.any():
                raise InvalidInputError("state codes must lie in {-2, -1, 0..4}")
            # elementwise, not a boolean gather, which would walk a column-major matrix by rows
            if ((costs < 0) & (states >= 0)).any():
                raise InvalidInputError("observed annual costs must be >= 0")

        self.person_ids = _read_only(person_ids)
        self.birth_years = _read_only(birth_years)
        self.age_min = int(age_min)
        self.states = _read_only(states)
        self.costs = _read_only(costs)
        self.months = _read_only(months)
        self.sex = None if sex is None else _read_only(sex)

    # -- basic geometry ----------------------------------------------------

    @property
    def n_persons(self) -> int:
        return len(self.person_ids)

    @property
    def n_ages(self) -> int:
        return self.states.shape[1]

    @property
    def age_max(self) -> int:
        return self.age_min + self.n_ages - 1

    @property
    def ages(self) -> range:
        return range(self.age_min, self.age_max + 1)

    def column(self, age: int) -> int:
        if not (self.age_min <= age <= self.age_max):
            raise InvalidInputError(f"age {age} outside panel range {self.age_min}..{self.age_max}")
        return age - self.age_min

    def has_age(self, age: int) -> bool:
        return self.age_min <= age <= self.age_max

    @functools.cached_property
    def cohort_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct birth years, ascending, and each person's index into them."""
        return np.unique(self.birth_years, return_inverse=True)

    # -- transition tallies --------------------------------------------------
    # Each kernel is looked up per call, so the one bound to the module at
    # call time runs.

    @functools.cached_property
    def pair_tally(self) -> np.ndarray:
        """Per-age tally of consecutive-age cell letters, read-only int64 (n_ages - 1, 7, 7).

        Row k counts the persons by their letters (cell code + 2: absent,
        missing, Q1..Q5) at columns k and k + 1; ``[:, 2:, 2:]`` counts the
        observed state pairs.  Counted once per panel by
        ``kernels.pair_counts``.
        """
        return _read_only(kernels.pair_counts(self.states))

    @functools.cached_property
    def triple_tally(self) -> np.ndarray:
        """Per-age tally of cell letters over columns k..k + 2, read-only int64 (n_ages - 2, 7, 7, 7)."""
        return _read_only(kernels.triple_counts(self.states))

    # -- iteration / serialization -----------------------------------------

    def summary(self) -> dict:
        observed = self.states >= 0
        missing = self.states == MISSING_CODE
        n_obs = int(observed.sum())
        n_miss = int(missing.sum())
        return {
            "persons": self.n_persons,
            "person_years": n_obs,
            "missing_markers": n_miss,
            "missing_share": (n_miss / (n_obs + n_miss)) if (n_obs + n_miss) else 0.0,
            "age_min": self.age_min,
            "age_max": self.age_max,
        }

    def write_cache(self, path) -> int:
        """Write the canonical one-row-per-cell CSV and its memo; returns rows written.

        InvalidInputError, before any file is opened, for an id a read would
        not give back, or two ids written as the same text.
        """
        pids = self.person_ids.tolist()
        ids = np.array([_cache_id(pid) for pid in pids], dtype=object)
        first = {}
        for k, text in enumerate(ids.tolist()):
            j = first.setdefault(text, k)
            if j != k:
                raise InvalidInputError(f"person ids {pids[j]!r} and {pids[k]!r} both write as {text!r}; "
                                        "a panel cache would read them back as one person")
        rows, cols = np.nonzero(self.states != ABSENT_CODE)
        codes = self.states[rows, cols]
        observed = codes >= 0
        ages = self.age_min + cols
        years = self.birth_years[rows] + ages
        months = np.where(observed, self.months[rows, cols], 0)
        costs = self.costs[rows, cols]
        with io.StringIO(newline="") as text:
            writer = csv.writer(text)
            writer.writerow(PANEL_CACHE_COLUMNS)
            writer.writerows(zip(
                ids[rows], ages.tolist(), years.tolist(), months.tolist(),
                np.where(observed, costs.astype(object), "").tolist(),
                map(_CACHE_LABELS.__getitem__, codes.tolist()),
            ))
            data = text.getvalue().encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        # the memo holds what _cache_cells parses from data: the observed rows, one id per run
        pids = ids[rows[observed]]
        new_id = np.append(True, pids[1:] != pids[:-1])[:len(pids)]
        distinct = pids[new_id].tolist()
        _write_memo(path, hashlib.sha256(data).digest(), (
            np.array([years.max()] if len(years) else [], dtype=np.int64),
            np.frombuffer("".join(distinct).encode("utf-8"), dtype=np.uint8),
            np.cumsum([len(i) for i in distinct], dtype=np.int64),
            np.cumsum(new_id, dtype=np.int64) - 1,
            ages[observed], years[observed], codes[observed], months[observed].astype(np.int64),
            costs[observed],
        ))
        return len(codes)

    @classmethod
    def read_cache(cls, path) -> "Panel":
        """Rebuild a panel from its cache file (see the module docstring)."""
        with open(path, "rb") as fh:
            raw = fh.read()
        cells = _memo_cells(path, hashlib.sha256(raw).digest())
        if cells is None:
            cells = _cache_cells(raw)
        del raw
        columns, end_year = cells
        return build_panel(*columns, end_year)


def _cache_id(pid) -> str:
    """``str(pid)``, as write_cache writes it; InvalidInputError if a read would not give it back."""
    text = str(pid)
    fault = (
        "has whitespace at an end, which a read strips" if text != text.strip() else
        "holds a NUL, which Python 3.10's csv module refuses" if "\0" in text else
        "is longer than csv.field_size_limit()" if len(text) > csv.field_size_limit() else
        "does not encode to UTF-8" if _SURROGATE.search(text) else None
    )
    if fault:
        raise InvalidInputError(f"person id {pid!r} {fault}; a panel cache would not read it back")
    return text


_SURROGATE = re.compile("[\ud800-\udfff]")  # the only characters UTF-8 cannot encode


def _cache_cells(raw: bytes):
    """The observed rows of a cache file as build_panel's columns, and the file's last year."""
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape", newline="")
    kept = [[np.empty(0, dtype)] for dtype in _CELL_TYPES]  # each column's observed rows, by block
    last_years, overflow = [], None
    for block, plain in _read_blocks(text, _check_cache_header, _CELL_DTYPE, _plain_cells, _cache_record):
        try:
            pids, ages, years, codes, months, costs = map(np.asarray, block if plain else zip(*block), _CELL_TYPES)
        except OverflowError as exc:  # raised once every line is checked, so a later bad line wins
            overflow = exc
            continue
        last_years.append(years.max())  # a block holds at least one record
        observed = codes >= 0
        for column, part in zip(kept, (pids, ages, years, codes, months, costs)):
            column.append(part[observed])
    if overflow:
        raise overflow
    columns = tuple(np.concatenate(kept.pop(0)) for _ in _CELL_TYPES)  # each column's blocks go once joined
    return columns, (int(max(last_years)) if last_years else None)


# -- parsed-cells memo -------------------------------------------------------

#: First bytes of a memo, ahead of the CSV's SHA-256.  Bump the number
#: whenever _cache_cells returns something else for some file, or the
#: layout below changes, so that every older memo falls back to the CSV.
_MEMO_FORMAT = b"healthmarkov panel cells 1\n"

#: dtype of each array after the key, in file order: end_year (none or
#: one), the distinct person ids as one UTF-8 text with the character
#: offset where each ends, each row's index into those ids, then ages,
#: years, codes, months and costs.
_MEMO_DTYPES = tuple(map(np.dtype, ("i8", "u1", "i8", "i8", "i8", "i8", "i1", "i8", "i8")))


def _memo_path(path) -> str:
    return os.fsdecode(path) + ".npy"


def _write_memo(path, digest: bytes, columns) -> None:
    """Save ``columns`` as the memo of the cache at ``path`` (SHA-256 ``digest``); on failure leave none."""
    memo = _memo_path(path)
    tmp = f"{memo}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for array in (np.frombuffer(_MEMO_FORMAT + digest, dtype=np.uint8), *columns):
                np.save(fh, array, allow_pickle=False)
        os.replace(tmp, memo)
    except OSError:
        for stale in (tmp, memo):
            try:
                os.remove(stale)
            except OSError:
                pass


def _memo_cells(path, digest: bytes):
    """_cache_cells of the CSV whose SHA-256 is ``digest``, from its memo; None if the memo is not it."""
    try:
        with open(_memo_path(path), "rb") as fh:
            if _load(fh, np.uint8).tobytes() != _MEMO_FORMAT + digest:
                return None
            end_year, text, ends, person, *columns = (_load(fh, dtype) for dtype in _MEMO_DTYPES)
        if len(end_year) > 1 or len({len(a) for a in (person, *columns)}) != 1:
            return None
        text = text.tobytes().decode("utf-8")
        starts = np.append(0, ends[:-1]).tolist()
        pids = np.array([text[a:b] for a, b in zip(starts, ends.tolist())], dtype=object)[person]
    except (OSError, ValueError, IndexError):
        return None
    return (pids, *columns), (int(end_year[0]) if len(end_year) else None)


def _load(fh, dtype) -> np.ndarray:
    """The next array saved in ``fh``; ValueError unless it is 1-D of ``dtype``."""
    array = np.lib.format.read_array(fh, allow_pickle=False)
    if array.dtype != dtype or array.ndim != 1:
        raise ValueError("memo array of an unexpected type")
    return array


# -- CSV block reader --------------------------------------------------------

#: Characters read per block; a block ends at the first line end past it.
_BLOCK_CHARS = 1 << 18


def _read_blocks(fh, header, dtype, accept, record):
    """The data records of a CSV text stream, checked, as (block, plain) pairs; both formats' reader.

    ``header(row)`` checks the first record (None for an empty stream).
    Each block of whole lines that _plain_block takes gives what
    ``accept(table)`` returns, with plain True.  The first block it refuses,
    and the rest of the stream, go to ``csv.reader``, which alone decides
    errors: blank records are skipped, ``record(row, line)`` converts each
    other record or raises DataFormatError at its 1-based line, and so does
    a record the csv module cannot read.  The row loop yields lists of what
    ``record`` returns, with plain False, each as long as the block that
    began it, and before an error, the records ahead of it.
    """
    lineno = 0  # the last record read; a csv error belongs to the next one
    try:
        header(next(csv.reader(fh), None))
        lineno = 1
        while lines := fh.readlines(_BLOCK_CHARS):
            block = _plain_block(lines, dtype, accept)
            if block is None:
                break
            lineno += len(lines)  # a plain block holds one record per line
            del lines  # hold one block at a time
            yield block, True
            del block
        rows, size, failure = [], max(len(lines), 1), None
        try:
            for lineno, row in enumerate(csv.reader(chain(lines, fh)), start=lineno + 1):
                if row:
                    rows.append(record(row, lineno))
                    if len(rows) == size:
                        yield rows, False
                        rows = []
        except (DataFormatError, csv.Error, UnicodeDecodeError) as exc:
            failure = exc  # raised once the records before it are out
        if rows:
            yield rows, False
        if failure:
            raise failure
    except csv.Error as exc:
        raise DataFormatError(f"unreadable CSV record: {exc}", line=lineno + 1) from None


def _plain_block(lines, dtype, accept):
    """What accept returns for the ``np.loadtxt`` table of a plain block of lines, or None.

    Plain: ASCII with no quote, NUL, bare carriage return or blank line, no
    line past the csv field limit, one table row per line, and ids (the
    first field) already stripped, so that the table holds what
    ``csv.reader`` and the row loop's stripping would give.
    """
    text = "".join(lines)
    if not (text.isascii() and '"' not in text and "\0" not in text
            and text.count("\r") == text.count("\r\n") and "\n" not in lines and "\r\n" not in lines
            and max(map(len, lines)) <= csv.field_size_limit()):
        return None
    table = _loadtxt(lines, dtype)
    if table is None or len(table) != len(lines):
        return None
    ids = table[dtype.names[0]]
    return accept(table) if (_strip(ids) == ids).all() else None


def _loadtxt(lines, dtype):
    """Structured array of CSV lines via one ``np.loadtxt`` call, or None if numpy refuses them.

    A refusal sends the caller to its csv-module path, which decides every
    error; numpy < 2 parsing "1.0" as an int, with a warning, is one.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


#: str.strip over an object array: the rule every CSV reader applies to the fields it keeps.
_strip = np.frompyfunc(str.strip, 1, 1)


# -- panel-cache records -----------------------------------------------------

_CACHE_HEADER = ",".join(PANEL_CACHE_COLUMNS)

#: Cache label of each cell code; code -1 (MISSING_CODE) indexes the last one.
_CACHE_LABELS = STATE_LABELS + (MISSING,)

#: Code _label_codes gives a label that is neither a state nor MISSING.
_UNKNOWN_LABEL = -2

#: Widest cost field the plain-block path converts itself: 18 digits fit int64.
_COST_DIGITS = 18

#: A plain cache block as np.loadtxt reads it, and the type of each column _cache_cells keeps.
_CELL_DTYPE = np.dtype([
    ("pid", object), ("age", "i8"), ("year", "i8"), ("months", "i8"),
    ("cost", f"S{_COST_DIGITS + 1}"), ("state", "S8"),
])
_CELL_TYPES = (object, np.int64, np.int64, np.int8, np.int64, np.int64)

#: A byte that is not UTF-8, as ``errors="surrogateescape"`` decodes it.
_UNDECODABLE = re.compile("[\udc80-\udcff]")

_NOT_UTF8 = "row holds bytes that are not UTF-8"


def _check_cache_header(row) -> None:
    if row and _UNDECODABLE.search("".join(row)):
        raise DataFormatError(_NOT_UTF8, line=1)
    if row is None or tuple(h.strip() for h in row) != PANEL_CACHE_COLUMNS:
        raise DataFormatError(f"panel cache must start with header {_CACHE_HEADER}", line=1)


def _plain_cells(table):
    """The cells of a plain cache block: bare state labels, and plain-digit costs on observed rows."""
    codes = _label_codes(table["state"])
    costs, plain = _plain_digits(table["cost"])
    if (codes == _UNKNOWN_LABEL).any() or not plain[codes >= 0].all():
        return None
    return table["pid"], table["age"], table["year"], codes, table["months"], costs


def _cache_record(row, line):
    """A cache record's cell (months and cost 0 on a MISSING row); DataFormatError at its line."""
    if _UNDECODABLE.search("".join(row)):
        raise DataFormatError(_NOT_UTF8, line=line)
    if len(row) != len(PANEL_CACHE_COLUMNS):
        raise DataFormatError(f"expected {len(PANEL_CACHE_COLUMNS)} fields", line=line)
    pid, age_s, year_s, months_s, cost_s, state_s = map(str.strip, row)
    try:
        age, year = int(age_s), int(year_s)
    except ValueError:
        raise DataFormatError(f"bad age/year {age_s!r}/{year_s!r}", line=line) from None
    if state_s == MISSING:
        return pid, age, year, MISSING_CODE, 0, 0
    if state_s not in STATE_LABELS:
        raise DataFormatError(f"unknown state {state_s!r}", line=line)
    try:
        months, cost = int(months_s), int(cost_s)
    except ValueError:
        raise DataFormatError(f"bad months/cost {months_s!r}/{cost_s!r}", line=line) from None
    if cost < 0:
        raise DataFormatError(f"negative cost {cost}", line=line)
    return pid, age, year, STATE_LABELS.index(state_s), months, cost


def _label_codes(labels) -> np.ndarray:
    """Cell code per state label (bytes): 0..4 for Q1..Q5, -1 for MISSING, else -2."""
    codes = np.full(len(labels), _UNKNOWN_LABEL, dtype=np.int8)
    for code, label in [*enumerate(STATE_LABELS), (MISSING_CODE, MISSING)]:
        codes[labels == label.encode()] = code
    return codes


def _plain_digits(fields) -> tuple[np.ndarray, np.ndarray]:
    """Values of byte strings of 1 to _COST_DIGITS ASCII digits, and which fields are such."""
    n = np.char.str_len(fields)
    plain = np.char.isdigit(fields) & (n <= _COST_DIGITS)
    b = np.ascontiguousarray(fields).view(np.uint8).reshape(len(fields), -1)
    values = np.zeros(len(fields), dtype=np.int64)
    for j in range(int(n[plain].max(initial=0))):
        values = np.where(j < n, values * 10 + (b[:, j] - ord("0")), values)
    return values, plain


# -- panel assembly ----------------------------------------------------------


def build_panel(person_ids, ages, years, codes, months, costs, end_year=None, sex=None) -> Panel:
    """Build a Panel from one entry per observed person-year; the only panel builder.

    Columns are parallel 1-D arrays; codes are 0-based states.  Gap years
    between a person's entries, and trailing years up to end_year (default
    the latest year), become missing markers.  sex maps person_id -> "M"/"F".

    Checks run in this order: no entries; duplicate (person, year), first
    in input order; end_year before the last observed year; then, by
    person id and age, an entry whose age and year imply a different birth
    year than the person's first entry.  Values outside the panel's
    storage types (months_observed int8, annual_cost int64, birth year
    int32) raise OverflowError.
    """
    if not len(person_ids):
        raise EmptyCohortError("no person-years to build a panel from")
    order = np.argsort(person_ids, kind="stable")
    sorted_pids = person_ids[order]
    new_person = np.append(True, sorted_pids[1:] != sorted_pids[:-1])
    ids = sorted_pids[new_person].astype(object)
    person = np.empty(len(person_ids), dtype=np.intp)
    person[order] = np.cumsum(new_person) - 1

    by_year = np.lexsort((years, person))
    repeat = (np.diff(person[by_year]) == 0) & (np.diff(years[by_year]) == 0)
    if repeat.any():
        k = by_year[1:][repeat].min()
        raise DuplicateRecordError(f"duplicate person-year {(ids[person[k]], int(years[k]))}")

    max_year = int(years.max())
    if end_year is None:
        end_year = max_year
    elif end_year < max_year:
        raise InvalidInputError(f"end_year {end_year} precedes the last observed year {max_year}")

    by_age = np.lexsort((ages, person))
    first = np.flatnonzero(np.append(True, np.diff(person[by_age]) != 0))
    births = years - ages
    birth = births[by_age[first]]
    contradicts = births[by_age] != birth[person[by_age]]
    if contradicts.any():
        k = by_age[np.argmax(contradicts)]
        raise DataFormatError(
            f"person {ids[person[k]]!r}: age {int(ages[k])} in year {int(years[k])} contradicts "
            f"earlier records (birth year {int(birth[person[k]])})"
        )
    _check_range(months, np.int8, "months_observed")
    _check_range(birth, np.int32, "birth year")

    entry_age = ages[by_age[first]]
    last_age = end_year - birth
    age_min = int(entry_age.min())
    panel_ages = np.arange(age_min, int(last_age.max()) + 1)
    # built age-major and transposed, so the matrices come out column-major
    in_panel = (panel_ages[:, None] >= entry_age) & (panel_ages[:, None] <= last_age)
    states = np.where(in_panel.T, np.int8(MISSING_CODE), np.int8(ABSENT_CODE))
    cost_cells = np.zeros(states.shape, dtype=np.int64, order="F")
    month_cells = np.zeros(states.shape, dtype=np.int8, order="F")
    cols = ages - age_min
    states[person, cols] = codes
    cost_cells[person, cols] = costs
    month_cells[person, cols] = months

    sex_arr = None
    if sex is not None:
        try:
            sex_arr = np.array([sex[pid] for pid in ids], dtype=object)
        except KeyError as exc:
            raise InvalidInputError(f"sex mapping is missing person {exc.args[0]!r}") from None

    return Panel(ids, birth, age_min, states, cost_cells, month_cells, sex=sex_arr)


def _check_range(values, dtype, name) -> None:
    info = np.iinfo(dtype)
    if len(values) and (values.min() < info.min or values.max() > info.max):
        raise OverflowError(f"{name} outside {info.min}..{info.max}")


def filter_cohort(
    panel: Panel,
    sex: str | None = None,
    age_min: int | None = None,
    age_max: int | None = None,
) -> Panel:
    """Restrict a panel to one sex and/or an observation-age window.

    Persons with no observed entry left in the window are dropped; when
    no person remains, EmptyCohortError is raised instead of returning an
    empty panel.
    """
    lo = panel.age_min if age_min is None else int(age_min)
    hi = panel.age_max if age_max is None else int(age_max)
    if lo > hi:
        raise InvalidInputError(f"age_min {lo} exceeds age_max {hi}")
    lo = max(lo, panel.age_min)
    hi = min(hi, panel.age_max)
    if hi < lo:
        raise EmptyCohortError("age window does not intersect the panel")

    keep = np.ones(panel.n_persons, dtype=bool)
    if sex is not None:
        if sex not in ("M", "F"):
            raise InvalidInputError(f"sex must be 'M' or 'F', got {sex!r}")
        if panel.sex is None:
            raise ConfigError("panel carries no sex information (cache files do not store it)")
        keep &= panel.sex == sex

    window = slice(lo - panel.age_min, hi - panel.age_min + 1)
    keep &= (panel.states[:, window] >= 0).any(axis=1)
    if not keep.any():
        raise EmptyCohortError("no persons match the cohort filter")

    persons = np.flatnonzero(keep)
    return Panel(
        panel.person_ids[keep],
        panel.birth_years[keep],
        lo,
        _take_persons(panel.states[:, window], persons),
        _take_persons(panel.costs[:, window], persons),
        _take_persons(panel.months[:, window], persons),
        sex=None if panel.sex is None else panel.sex[keep],
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; ``array`` itself keeps its flags."""
    view = array.view()
    view.flags.writeable = False
    return view


def _take_persons(matrix, persons) -> np.ndarray:
    """The rows ``persons`` of a column-major matrix, as one column-major copy.

    ``matrix[persons]`` would copy into row-major order, and converting
    that back would copy a second time.
    """
    return np.take(matrix.T, persons, axis=1).T
