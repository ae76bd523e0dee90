"""The mutation runner's list (tests/mutants.py) stays applicable as the code moves.

Running the mutants takes minutes, so tier 1 checks only that each
snippet still occurs exactly once in its file and names test files that
exist; a refactor that moves a checked line must move its mutant too.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_once_in_its_file(mutant):
    source = (ROOT / "src" / "healthmarkov" / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)
