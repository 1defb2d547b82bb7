"""README stays in step with the code it documents.

Every module-level budget `MAX_*` in src/hyperpos is documented with its value:
README "Input limits" must name each one as `module.NAME` followed by its
decimal value in parentheses, as in `polyring.MAX_DEGREE` (1000).

README "Cache" names the cache-format tag and the database file by value, each
followed by its name in parentheses, as in `dimensions-4.sqlite3`
(`groebner.CACHE_FILE`), and the values are the current ones.

README's `Subcommands:` list names the CLI's subcommands, in the parser's order.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

from hyperpos import cli, groebner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperpos"


def module_budgets():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                        yield path.stem, target.id


def readme_section(heading):
    text = (ROOT / "README.md").read_text()
    start = text.index(f"\n{heading}\n")
    return text[start:text.index("\n##", start + 1)]  # up to the next heading


def test_every_budget_documented_with_its_value():
    section = readme_section("### Input limits")
    budgets = list(module_budgets())
    assert ("position", "MAX_WALK_SUBSETS") in budgets
    assert ("polyring", "MAX_POWER_BITS") in budgets
    for module, name in budgets:
        found = re.findall(rf"`{module}\.{name}`\s+\((\d+)", section)
        assert found, f"{module}.{name} is not named in README Input limits"
        actual = getattr(importlib.import_module(f"hyperpos.{module}"), name)
        assert all(int(text) == actual for text in found), (module, name, found)


def test_cache_tags_documented_with_their_values():
    section = readme_section("### Cache")
    for name in ("CACHE_FORMAT", "CACHE_FILE"):
        found = re.findall(rf"`([^`]+)`\s+\(`groebner\.{name}`\)", section)
        assert found, f"groebner.{name} is not named in README Cache"
        assert set(found) == {getattr(groebner, name)}, (name, found)


def test_subcommand_list_matches_the_parser():
    text = (ROOT / "README.md").read_text()
    start = text.index("Subcommands:")
    listed = re.findall(r"`([a-z0-9]+)`", text[start:text.index(".", start)])
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert listed == list(sub.choices)
