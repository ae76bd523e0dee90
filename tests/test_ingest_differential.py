"""Differential test: the claims-to-panel chain against the versions it replaced.

``load_claims_panel`` must do what reference_ingest's chain did: the row
parser, the record-holding aggregation into PersonYears, and the
conversion of those PersonYears into the columns ``build_panel`` takes.
Both sides must give the same panel arrays, ids and sex, or the same
error class, message and line, raised after the same number of records.
Generated claims files hold runs of consecutive months that straddle
calendar and fiscal years, duplicates in the same and in a later group,
contradictory sexes, malformed and blank rows, a byte-order mark, ids
that need quoting, padded fields, and costs and years past int64.

``parse_claims`` reads blocks of lines and decodes plain blocks in one
numpy call; the block tests hold it to ``reference_parse_stream`` with
blocks of a few lines, so odd rows, quoted line breaks and line endings
fall on every side of a block boundary, and pin that files as
``write_claims`` writes them never leave the plain-block path.
"""

import csv
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from healthmarkov import ingest
from healthmarkov import panel as panel_module
from healthmarkov.errors import DataFormatError, DuplicateRecordError
from healthmarkov.ingest import CLAIMS_COLUMNS, YEAR_CONVENTIONS, parse_claims
from healthmarkov.states import DEFAULT_THRESHOLDS, StateThresholds
from healthmarkov.synthetic import generate_panel, random_chain, write_claims

from reference_ingest import (
    reference_aggregate_person_years,
    reference_parse_stream,
    reference_person_year_panel,
)

IDS = ["a", "B", "b", "p0000001", "p0000010", "a,b", 'say "hi"', "x\ny", "é", " padded "]
PADS = ["", "", "", " ", "\t", "\x1c"]
BIG = [2**59, 2**63 // 12 + 1, 2**63, 2**70, 10**400]
BIG_YEAR = 2**64
MALFORMED = [
    ["a", "X", "40", "2010", "4", "1"],
    ["a", "M", "121", "2010", "4", "1"],
    ["a", "M", "40", "2010", "0", "1"],
    ["a", "M", "40", "2010", "13", "1"],
    ["a", "M", "40", "2010", "4", "-1"],
    ["a", "M", "40", "2010", "4", "ten"],
    ["a", "M", "40", "2010", "4"],
    ["a", "M", "40", "2010", "4", "1", "extra"],
    ["", "M", "40", "2010", "4", "1"],
]


def reference_parse(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        yield from reference_parse_stream(fh)


def counting(parse, records):
    """parse, appending every record it yields to records."""
    def counted(*args, **kwargs):
        for rec in parse(*args, **kwargs):
            records.append(rec)
            yield rec

    return counted


def outcome(load):
    """The panel load() builds, as comparable values, or its error."""
    try:
        panel = load()
    except Exception as exc:  # every error, its class and message are compared
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    arrays = [(a.dtype.str, a.shape, a.tolist())
              for a in (panel.birth_years, panel.states, panel.costs, panel.months)]
    return ("ok", list(panel.person_ids), panel.age_min, arrays, list(panel.sex))


def run_reference(path, convention, thresholds):
    """(outcome, records consumed, (PersonYears, sex map) or None) of the reference chain."""
    records, aggregated = [], []

    def load():
        person_years, sex_of = reference_aggregate_person_years(
            counting(reference_parse, records)(path), thresholds=thresholds,
            year_convention=convention)
        aggregated.append((person_years, sex_of))
        return reference_person_year_panel(person_years, sex=sex_of)

    return outcome(load), records, (aggregated or [None])[0]


def run_current(path, convention, thresholds):
    """(outcome, records consumed) of load_claims_panel."""
    records = []
    with mock.patch.object(ingest, "parse_claims", counting(ingest.parse_claims, records)):
        got = outcome(lambda: ingest.load_claims_panel(path, thresholds=thresholds,
                                                       year_convention=convention))
    return got, records


@st.composite
def claims_files(draw):
    convention = draw(st.sampled_from(YEAR_CONVENTIONS))
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True))
    sex_of = {pid: draw(st.sampled_from("MF")) for pid in ids}
    lines = []  # field lists, or None for a blank line
    labels = set()
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["run"] * 6 + ["duplicate", "other sex", "malformed", "blank"]))
        records = [f for f in lines if f is not None and len(f) == 6 and f[0] in sex_of]
        if kind == "run":
            # consecutive months from (year, month), as a claims extract lists them
            pid = draw(st.sampled_from(ids))
            year = draw(st.sampled_from([2009, 2010, 2011, 2011, BIG_YEAR]))
            month = draw(st.integers(1, 12))
            age = draw(st.integers(0, 119))
            for k in range(draw(st.integers(1, 14))):
                y, m = year + (month - 1 + k) // 12, (month - 1 + k) % 12 + 1
                cost = draw(st.sampled_from(BIG) if draw(st.integers(0, 9)) == 0 else st.integers(0, 400_000))
                lines.append([pid, sex_of[pid], str(age + (k > 0 and m == 1)), str(y), str(m), str(cost)])
        elif kind == "duplicate" and records:
            # the last row's month again, or an earlier row's
            pid, sex, age, y, m, _ = draw(st.sampled_from([records[-1], records[0], *records]))
            lines.append([pid, sex, age, y, m, str(draw(st.integers(0, 9)))])
        elif kind == "other sex" and records:
            pid = records[-1][0]
            lines.append([pid, "F" if sex_of[pid] == "M" else "M", "30", "2010", "6", "1"])
        elif kind == "malformed":
            lines.append(list(draw(st.sampled_from(MALFORMED))))
        elif kind == "blank":
            lines.append(None)
    header = draw(st.sampled_from(["canonical"] * 10 + ["padded", "wrong", "absent"]))
    if header != "absent":
        names = list(CLAIMS_COLUMNS)
        if header == "padded":
            names = [f" {n} " for n in names]
        elif header == "wrong":
            names[2] = "age_years"
        lines.insert(0, names)
    if draw(st.booleans()):  # pad fields with what str.strip removes
        lines = [f if f is None else [draw(st.sampled_from(PADS)) + v + draw(st.sampled_from(PADS)) for v in f]
                 for f in lines]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    for fields in lines:
        if fields is None:
            text.write("\n")
        else:
            writer.writerow(fields)
    bom = draw(st.booleans())
    data = (b"\xef\xbb\xbf" if bom else b"") + text.getvalue().encode("utf-8")
    thresholds = draw(st.sampled_from([DEFAULT_THRESHOLDS, StateThresholds((0, 10, 1_000, 100_000))]))
    labels.add(f"{convention} convention")
    if bom:
        labels.add("byte-order mark")
    if None in lines:
        labels.add("blank line")
    return data, convention, thresholds, labels


def outcome_labels(outcome, records, aggregated, convention):
    """What a reference outcome reached, for the coverage check."""
    labels = set()
    if aggregated is not None:
        person_years, sex_of = aggregated
        if not person_years:
            labels.add("empty stream")
        if any(py.annual_cost > 2**63 - 1 for py in person_years):
            labels.add("cost past int64 returned")
        if any(py.year > 2**63 - 1 for py in person_years):
            labels.add("year past int64 returned")
        fiscal_years = {}
        for r in records:
            fiscal_years.setdefault((r.person_id, r.year - (r.month < 4)), set()).add(r.year)
        if any(len(years) == 2 for years in fiscal_years.values()):
            labels.add(f"fiscal-year straddle, {convention} convention")
        if any('"' in pid or "," in pid or "\n" in pid for pid in sex_of):
            labels.add("quoted id")
        if "padded" in sex_of:
            labels.add("padded id")
    if outcome[0] == "ok":
        labels.add("success")
        return labels
    cls, message, line = outcome[1:]
    labels.add(f"{cls.__name__} with a line" if line is not None else cls.__name__)
    if "both sexes" in message:
        labels.add("sex contradiction")
    if "contradicts earlier records" in message:
        labels.add("birth-year contradiction")
    if cls is DuplicateRecordError:
        dup = records[-1]
        first = next(k for k, r in enumerate(records)
                     if (r.person_id, r.year, r.month) == (dup.person_id, dup.year, dup.month))

        def group(r):
            return r.person_id, r.year - (convention == "fiscal" and r.month < 4)

        if all(group(r) == group(dup) for r in records[first + 1:-1]):
            labels.add("duplicate in the same group")
        else:
            labels.add("duplicate in a later group")
        if any(r.cost > 2**63 - 1 or r.year > 2**63 - 1 for r in records[:-1]):
            labels.add("duplicate after a value past int64")
    return labels


REACHED = {
    "fiscal convention", "calendar convention", "byte-order mark", "blank line", "success",
    "empty stream", "cost past int64 returned", "year past int64 returned",
    "fiscal-year straddle, fiscal convention", "fiscal-year straddle, calendar convention",
    "quoted id", "padded id", "DataFormatError with a line", "DataFormatError", "sex contradiction",
    "duplicate in the same group", "duplicate in a later group", "duplicate after a value past int64",
    "OverflowError", "EmptyCohortError", "birth-year contradiction",
}


def test_load_claims_panel_matches_reference_chain():
    seen = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "claims.csv")

        @settings(max_examples=600, derandomize=True, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
        @given(claims_files())
        def check(case):
            data, convention, thresholds, labels = case
            with open(path, "wb") as fh:
                fh.write(data)
            want, want_records, aggregated = run_reference(path, convention, thresholds)
            got, got_records = run_current(path, convention, thresholds)
            assert got == want
            assert got_records == want_records
            seen.update(labels, outcome_labels(want, want_records, aggregated, convention))

        check()
    assert REACHED <= seen, REACHED - seen


# -- block boundaries --------------------------------------------------------

LIMIT = csv.field_size_limit()
#: Rows a plain block refuses, as (label, row bytes without a line end).
ODD_ROWS = [
    ("blank line", b""),
    ("quoted line break", b'"x\ny",M,40,2010,4,1000'),
    ("quoted id", b'"a,b",F,40,2010,4,1000'),
    ("quote inside an id", b'a"b,M,40,2010,4,1000'),
    ("padded id", b" a\t,M,40,2010,4,1000"),
    ("padded fields", b" a ,M , 40,2010 ,4, 1000 "),
    ("plus sign", b"a,M,+40,2010,+4,+5"),
    ("underscore", b"a,M,40,2010,4,1_000"),
    ("decimal point", b"a,M,40.0,2010,4,1000"),
    ("full-width digits", "a,M,\uff14\uff10,2010,4,1000".encode()),
    ("separator-padded numbers", b"a,\x1cM,\x1c40\x1f,2010,\x1e4,1000\x1d"),
    ("non-ASCII id", "\u00e9\u65e5,F,40,2010,4,1000".encode()),
    ("surrogate-escaped id", b"b\xff\xfe,M,40,2010,4,5"),
    ("surrogate-escaped number", b"b,M,40,2010,4,5\xff"),
    ("NUL", b"a\0,M,40,2010,4,1000"),
    ("field past the csv limit", b"b," + b"9" * (LIMIT + 1) + b",40,2010,5,1"),
    ("id past the csv limit", b"x" * (LIMIT + 1) + b",M,40,2010,5,1"),
    ("line past the csv limit", b"x" * (LIMIT - 1) + b",M,40,2010,5,1"),
    ("bad sex", b"a,X,40,2010,4,1"),
    ("negative age", b"a,M,-1,2010,4,1"),
    ("age 121", b"a,M,121,2010,4,1"),
    ("month 0", b"a,M,40,2010,0,1"),
    ("month 13", b"a,M,40,2010,13,1"),
    ("negative cost", b"a,M,40,2010,4,-1"),
    ("empty id", b",M,40,2010,4,1"),
    ("missing field", b"a,M,40,2010,4"),
    ("year past int64", b"a,M,40,18446744073709551616,4,1"),
]
ENDINGS = [b"\n", b"\r\n", b"\r"]


@st.composite
def blocky_files(draw, odd):
    """Claims bytes of plain rows, then the row odd (unless None) and up to two odd rows after it.

    Returns the bytes, a block size in characters, and labels of the line ends.
    """
    rows = [f"p{draw(st.integers(0, 10**draw(st.integers(0, 6))))},{draw(st.sampled_from('MF'))},"
            f"{draw(st.integers(0, 120))},{draw(st.integers(2000, 2020))},{draw(st.integers(1, 12))},"
            f"{draw(st.integers(0, 10**draw(st.integers(0, 9))))}".encode()
            for _ in range(draw(st.integers(0, 30)))]
    if odd is not None:
        first = draw(st.integers(0, len(rows)))
        rows.insert(first, odd)
        for _ in range(draw(st.integers(0, 2))):
            rows.insert(draw(st.integers(first + 1, len(rows))), draw(st.sampled_from(ODD_ROWS))[1])
    ending = draw(st.sampled_from(ENDINGS))
    lines = [b",".join(c.encode() for c in CLAIMS_COLUMNS), *rows]
    ends = [ending] * len(lines)
    if draw(st.integers(0, 4)) == 0:  # one line end of another kind
        ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(ENDINGS))
    labels = {f"{end!r} line ends" for end in ends}
    if draw(st.booleans()):
        ends[-1] = b""
    data = b"".join(line + end for line, end in zip(lines, ends))
    if draw(st.integers(0, 4)) == 0:
        data = b"\xef\xbb\xbf" + data
    return data, draw(st.sampled_from([1, 16, 64, 200])), labels


def error_of(exc):
    return type(exc), str(exc), exc.line


def reference_rows(path):
    """(records, error) of reference_parse_stream over the text parse_claims reads from path.

    The reference predates two rules of the row loop, which this adds: a
    record the csv module cannot split, and a person_id holding bytes that
    are not UTF-8, raise DataFormatError at the 1-based index of their
    record in a plain ``csv.reader`` pass.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        text = fh.read()
    read, data_lines = 0, []  # records csv.reader splits; the index of each data record
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            read += 1
            if row and read > 1:
                data_lines.append(read)
    except csv.Error:
        pass
    records = []
    try:
        for rec in reference_parse_stream(io.StringIO(text, newline="")):
            try:
                rec.person_id.encode("utf-8")
            except UnicodeEncodeError:
                return records, error_of(DataFormatError(
                    f"person_id {rec.person_id!r} holds bytes that are not UTF-8",
                    line=data_lines[len(records)]))
            records.append(rec)
    except csv.Error as exc:
        return records, error_of(DataFormatError(f"unreadable CSV record: {exc}", line=read + 1))
    except DataFormatError as exc:
        return records, error_of(exc)
    return records, None


def current_rows(source):
    """(records, error) of parse_claims(source)."""
    records = []
    try:
        for rec in parse_claims(source):
            records.append(rec)
    except DataFormatError as exc:
        return records, error_of(exc)
    return records, None


BLOCK_CASES = [("none", None), *ODD_ROWS]


@pytest.mark.parametrize("label,odd", BLOCK_CASES, ids=[label for label, _ in BLOCK_CASES])
def test_parse_claims_matches_reference_across_block_boundaries(tmp_path, plain_blocks, label, odd):
    seen = set()
    path = tmp_path / "claims.csv"

    @settings(max_examples=30, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(blocky_files(odd))
    def check(case):
        data, block_chars, labels = case
        path.write_bytes(data)
        want = reference_rows(path)
        plain_blocks.clear()
        with mock.patch.object(panel_module, "_BLOCK_CHARS", block_chars):
            got = current_rows(path)
            with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
                from_stream = current_rows(io.StringIO(fh.read(), newline=""))
        assert got == want
        assert from_stream == want
        assert all(type(v) is (str if k < 2 else int) for rec in got[0] for k, v in enumerate(rec))
        seen.update(labels)
        plain = [took for _, took in plain_blocks]
        if plain[:1] == [True] and False in plain:
            seen.add("plain block before the row loop")
        if len(plain) > 1 and all(plain):
            seen.add("plain blocks only")
        if any("".join(lines).count('"') % 2 for lines, _ in plain_blocks):
            seen.add("quoted line break across a block end")

    check()
    reached = {f"{end!r} line ends" for end in ENDINGS}
    if odd is None:
        reached.add("plain blocks only")
    else:
        reached.add("plain block before the row loop")
    if label == "quoted line break":
        reached.add("quoted line break across a block end")
    assert reached <= seen, reached - seen


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_write_claims_output_takes_the_plain_block_path(tmp_path, plain_blocks, seed):
    panel = generate_panel(random_chain(seed, entry_age=20, exit_age=30, attrition=0.1), 30)
    path = tmp_path / "claims.csv"
    rows = write_claims(panel, path)
    crlf = path.read_bytes()
    assert crlf.count(b"\r\n") == rows + 1
    with mock.patch.object(panel_module, "_BLOCK_CHARS", 4096):
        for data in (crlf, crlf.replace(b"\r\n", b"\n")):
            path.write_bytes(data)
            plain_blocks.clear()
            assert sum(1 for _ in parse_claims(path)) == rows
            assert len(plain_blocks) > 10 and all(took for _, took in plain_blocks)

        # a quoted id in the second row sends the first block, and the rest, to the row loop
        lines = crlf.split(b"\r\n")
        pid = lines[2].split(b",")[0]
        lines[2] = b'"' + pid + b'"' + lines[2][len(pid):]
        path.write_bytes(b"\r\n".join(lines))
        plain_blocks.clear()
        got = current_rows(path)
        assert [took for _, took in plain_blocks] == [False]
    assert got == reference_rows(path)
    assert got[1] is None and len(got[0]) == rows
