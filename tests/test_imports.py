"""Every imported name is used: a stdlib-only unused-import check.

Each module of the package and of the test suite is parsed with `ast`.  A
name bound by an import must be referenced somewhere in the module, or be
listed in its `__all__`; `from __future__` imports are exempt.

The package also loads `sqlite3` only when a command uses the disk cache.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/hyperpos/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source):
    """Names that `source` imports and never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and name not in _exported(tree)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom typing import Any, Sequence\n"
              "__all__ = ['Any']\n"
              "def f(x: Sequence):\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["j"]


def test_package_and_tests_are_scanned():
    names = {p.name for p in MODULES}
    assert {"groebner.py", "replace.py", "cli.py", "test_imports.py", "conftest.py"} <= names


@pytest.mark.parametrize("cache_flag, loaded", [("--no-cache", False), ("--cache-dir", True)])
def test_sqlite3_loaded_only_for_the_disk_cache(tmp_path, cache_flag, loaded):
    conf = tmp_path / "lines.json"
    conf.write_text(json.dumps({"ambient": 2, "variety": [], "family": ["x0", "x1", "x2"]}))
    argv = ["delta", "--config", str(conf), cache_flag]
    if cache_flag == "--cache-dir":
        argv.append(str(tmp_path / "cache"))
    script = ("import sys\n"
              "from hyperpos import cli\n"
              "assert cli.main(sys.argv[1:]) == 0\n"
              "sys.stderr.write(str('sqlite3' in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stderr == str(loaded)
