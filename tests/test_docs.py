"""The README documents the configuration the code accepts, and the
package's modules import nothing they do not use."""

import ast
import re
from pathlib import Path

from healthmarkov.config import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "healthmarkov"


def config_block() -> str:
    """The fenced block under the README's "Config keys" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Config keys") :]
    return section.split("```")[1]


def test_readme_lists_exactly_the_config_keys():
    keys = set()
    for line in config_block().splitlines():
        line = re.sub(r"\([^)]*\)", "", line.split("#")[0])  # drop comments and parenthesized values
        keys.update(re.findall(r"[a-z_][a-z0-9_]*(?:\.[a-z0-9_]+)*", line))
    assert keys == set(CONFIG_KEYS)


def test_modules_use_every_module_level_import():
    # __init__ imports in order to re-export; every other module must read each name it binds
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert unused == []
