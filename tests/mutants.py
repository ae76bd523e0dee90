"""Mutation runner for the CSV reader, both formats' record checks, the shared id rule and the report relations.

    python3 tests/mutants.py [NAME ...]

Each mutant is one exact snippet of one file under ``src/healthmarkov``
and its replacement, with the test files that must fail once it is
applied.  The runner copies ``src/`` to a temporary directory, applies one
mutant at a time to the copy, runs the mutant's test files against it with
``pytest -x -q -p no:cacheprovider``, and prints whether they killed it
(a test failed) or it survived, with the time each run took.

A mutant marked ``survives`` is a check that no test pins yet; it stays
listed, so that a test that kills it shows up as a changed outcome.  The
exit status is 1 when any outcome differs from the one recorded (or a
run could not collect its tests), 0 otherwise.  A failing run counts as a
kill, so run this on a tree whose tests pass.  ``tests/test_mutant_list.py``
checks that every snippet occurs exactly once in its file.  Stdlib only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

CLAIMS = ("tests/test_ingest.py", "tests/test_ingest_differential.py")
CACHE = ("tests/test_panel_differential.py", "tests/test_panel_memo.py")
WRITERS = ("tests/test_synthetic.py", "tests/test_synthetic_differential.py")  # claims writer only


class Mutant(NamedTuple):
    name: str
    file: str  # under src/healthmarkov
    snippet: str
    replacement: str
    tests: tuple
    survives: bool = False


MUTANTS = [
    # the claims reader's plain-block gate
    Mutant("plain gate: ASCII", "ingest.py", "if not (text.isascii() and ", "if not (", CLAIMS),
    Mutant("plain gate: no quote", "ingest.py", """'"' not in text and """, "", CLAIMS),
    Mutant("plain gate: no NUL", "ingest.py", r' and "\0" not in text', "", CLAIMS),
    Mutant("plain gate: no line past the field limit", "ingest.py",
           "\n            and max(map(len, lines)) <= csv.field_size_limit()):", "):", CLAIMS),
    Mutant("plain gate: one row per line", "ingest.py", "if table is None or len(table) != len(lines):",
           "if table is None:", ("tests/test_ingest_differential.py",)),
    Mutant("plain gate: ids already stripped", "ingest.py",
           '(ids != "").all() and (_strip(ids) == ids).all() and valid', '(ids != "").all() and valid',
           CLAIMS),
    Mutant("plain gate: no empty id", "ingest.py", 'plain = (ids != "").all() and (_strip(ids)', "plain = (_strip(ids)",
           CLAIMS),
    Mutant("plain block counts its lines", "ingest.py", "lineno += len(lines)  #", "lineno += 1  #", CLAIMS),
    # the row loop both formats share
    Mutant("row loop skips blank records", "panel.py", "            if row:\n", "            if True:\n",
           CACHE + CLAIMS),
    Mutant("row loop yields the records before an error", "panel.py",
           "    if rows:\n        yield rows\n    if failure:\n        raise failure\n",
           "    if failure:\n        raise failure\n    if rows:\n        yield rows\n",
           ("tests/test_ingest_differential.py",)),
    Mutant("csv error at the next line", "panel.py", '"unreadable CSV record: {exc}", line=lineno + 1)',
           '"unreadable CSV record: {exc}", line=lineno)', CACHE + CLAIMS),
    # the cache format
    Mutant("cache header: bytes that are not UTF-8", "panel.py", "if row and _SURROGATE.search(",
           "if False and _SURROGATE.search(", CACHE),
    Mutant("cache header: column names", "panel.py",
           "if row is None or tuple(h.strip() for h in row) != PANEL_CACHE_COLUMNS:", "if row is None:", CACHE),
    Mutant("cache record: bytes that are not UTF-8", "panel.py", "    if _SURROGATE.search(",
           "    if False and _SURROGATE.search(", CACHE),
    Mutant("cache record: field count", "panel.py", "    if len(row) != len(PANEL_CACHE_COLUMNS):",
           "    if False:", CACHE),
    Mutant("cache record: the id rule", "panel.py", "    if fault := _id_fault(pid):", "    if False:", CACHE),
    Mutant("cache record: integer age/year", "panel.py", "age, year = int(age_s), int(year_s)",
           "age, year = int(age_s or 0), int(year_s or 0)", CACHE),
    Mutant("cache record: MISSING rows skip the amount checks", "panel.py", "    if state_s == MISSING:",
           "    if False:", CACHE),
    Mutant("cache record: integer months/cost", "panel.py", "months, cost = int(months_s), int(cost_s)",
           "months, cost = int(months_s or 0), int(cost_s or 0)", CACHE),
    Mutant("cache record: cost >= 0", "panel.py", "    if cost < 0:", "    if False:", CACHE),
    Mutant("read_cache without its memo", "panel.py", "cells = _memo_cells(path, hashlib.sha256(raw).digest())",
           "cells = None", ("tests/test_cli.py",)),
    Mutant("cache read keeps the observed rows", "panel.py", "column.append(part[observed])",
           "column.append(part)", CACHE),
    Mutant("cache read raises an overflow after every line", "panel.py",
           "            overflow = exc\n            continue\n", "            raise\n", CACHE),
    # the id rule both readers and both writers share
    Mutant("id rule: empty", "panel.py", '"is empty" if not text else', '"is empty" if False else', CLAIMS + CACHE),
    Mutant("id rule: NUL", "panel.py", r'refuses" if "\0" in text else', 'refuses" if False else', CACHE + CLAIMS),
    Mutant("id rule: lone surrogate", "panel.py", "if not text.isascii() and _SURROGATE.search(text) else None",
           "if False else None", CLAIMS),
    Mutant("write_claims without the shared id rule", "panel.py",
           "        if fault := _id_fault(text):\n", "        if False:\n", WRITERS),
    Mutant("id rule: two ids written as one text", "panel.py", "        if (j := first.setdefault(field, k)) != k:",
           "        if False:", ("tests/test_synthetic.py", "tests/test_panel_memo.py")),
    # the claims format
    Mutant("claims header: column names", "ingest.py",
           "if row is None or tuple(h.strip() for h in row) != CLAIMS_COLUMNS:", "if row is None:", CLAIMS),
    Mutant("claims plain block: sex", "ingest.py", '((sex == "M") | (sex == "F"))', "(sex == sex)", CLAIMS),
    Mutant("claims plain block: age range", "ingest.py", "& (age >= 0) & (age <= 120)", "", CLAIMS),
    Mutant("claims plain block: month range", "ingest.py", "& (month >= 1) & (month <= 12)", "", CLAIMS),
    Mutant("claims plain block: cost >= 0", "ingest.py", "& (cost >= 0))", ")", CLAIMS),
    Mutant("claims record: field count", "ingest.py", "    if len(row) != len(CLAIMS_COLUMNS):",
           "    if False:", CLAIMS),
    Mutant("claims record: the id rule", "ingest.py", "    if fault := _id_fault(pid):", "    if False:", CLAIMS),
    Mutant("claims record: sex", "ingest.py", '        if sex not in ("M", "F"):\n            raise',
           "        if False:\n            raise", CLAIMS),
    Mutant("claims record: numbers padded with what strip removes", "ingest.py",
           "(int(f.strip()) for f in row[2:])", "(int(f) for f in row[2:])", CLAIMS),
    Mutant("claims record: age range", "ingest.py", "if not 0 <= age <= 120:", "if not 0 <= age <= 121:", CLAIMS),
    Mutant("claims record: month range", "ingest.py", "if not 1 <= month <= 12:", "if not 1 <= month <= 13:",
           CLAIMS),
    Mutant("claims record: cost >= 0", "ingest.py", "    if cost < 0:", "    if False:", CLAIMS),
    # metamorphic relations over the report tables
    Mutant("k03 minimum taken from the first person in row order", "estimate.py", "minimum=int(costs.min()),",
           "minimum=int(costs[0]),", ("tests/test_metamorphic.py",)),
    Mutant("sample sd divides by n", "estimate.py", "sd=float(costs.std(ddof=1))", "sd=float(costs.std(ddof=0))",
           ("tests/test_metamorphic.py",)),
]


def run(mutant: Mutant, src: Path) -> tuple[str, float]:
    """Apply ``mutant`` to the copy at ``src``, run its tests, restore the file: (outcome, seconds)."""
    path = src / "healthmarkov" / mutant.file
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant.snippet, mutant.replacement, 1), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
             *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    finally:
        path.write_text(original, encoding="utf-8")
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, f"error (pytest exit {done.returncode})")
    return outcome, time.perf_counter() - start


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if len(chosen) < len(set(names)):
        print(f"unknown mutant names: {sorted(set(names) - {m.name for m in MUTANTS})}", file=sys.stderr)
        return 2
    unexpected = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for mutant in chosen:
            outcome, seconds = run(mutant, src)
            expected = "survived" if mutant.survives else "killed"
            mark = "" if outcome == expected else f"   <-- recorded as {expected}"
            unexpected += outcome != expected
            print(f"{outcome:8} {seconds:6.1f} s  {mutant.name}{mark}", flush=True)
    print(f"{len(chosen)} mutants, {unexpected} not as recorded, {time.perf_counter() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
