"""The README documents the configuration the code accepts."""

import re
from pathlib import Path

from healthmarkov.config import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


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
