"""The README documents the configuration the code accepts and shows only
public names, and the package's modules and the test modules import
nothing they do not use."""

import ast
import re
from pathlib import Path

import healthmarkov
from healthmarkov.config import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "healthmarkov"
TESTS = README.parent / "tests"


def readme_block(heading: str) -> str:
    """The first fenced block under a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading) :]
    return section.split("```")[1]


def test_readme_lists_exactly_the_config_keys():
    keys = set()
    for line in readme_block("### Config keys").splitlines():
        line = re.sub(r"\([^)]*\)", "", line.split("#")[0])  # drop comments and parenthesized values
        keys.update(re.findall(r"[a-z_][a-z0-9_]*(?:\.[a-z0-9_]+)*", line))
    assert keys == set(CONFIG_KEYS)


def test_library_sketch_uses_only_exported_names():
    names = set(re.findall(r"\bhm\.(\w+)", readme_block("## Library sketch")))
    assert "estimate_order1_family" in names  # the pattern finds the sketch's calls
    assert sorted(names - set(healthmarkov.__all__)) == []


def test_modules_use_every_module_level_import():
    # the package's __init__ imports in order to re-export; every other module,
    # the tests included, must read each name it binds.  No test module binds a
    # name only for pytest's fixture injection, so none is exempt.
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.parent.name}/{path.name}:{stmt.lineno} {name}")
    assert unused == []
