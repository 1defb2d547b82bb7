"""Every imported name is used, and every definition has a user: stdlib-only checks.

Each module of the package and of the test suite is parsed with `ast`.  A
name bound by an import must be referenced somewhere in the module, or be
listed in its `__all__`; `from __future__` imports are exempt.

Every module-level function and class of the package must be referenced by
other code of the package, or be named as library API in README "Library
layout".  The `cmd_*` handlers are exempt: the CLI dispatches them by name.

Outside `groebner`, only `position.meet_dimensions` may run a dimension query
(`projective_dimension` or the batch `projective_dimensions`), so that one
function adds V's generators and derives the lower bounds.  Passing a query
on as an argument is allowed.

Only `groebner._modp_dimension` may pass `_buchberger` a stop threshold, so
the passes over Q (`groebner_basis` and the exact pass) always finish their
pairs; every other use of `_buchberger` in the package is a plain call with
three arguments.

Inside `cli`, only the printer `_json_value` names `rat_to_str` or `EMPTY`
(or spells "EMPTY"), so no `cmd_*` handler renders a value itself.

Inside `heights`, only `_coefficient_places` names `_prime_factors`: heights,
Weil functions and margins read every coefficient norm off the primitive
integer form, and only the places of a given number are found by factoring.

Only `groebner` touches `HomoPoly._groebner_memo`, the packed term dicts and
cache-key digest it keeps on a polynomial, and only `polyring` touches
`HomoPoly._primitive`, the content and primitive form of a polynomial: no
other module of the package or of the tests reads, writes or deletes either
slot, by attribute or by `getattr` and its kin.  (`polyring` only declares
`_groebner_memo` in `__slots__`.)

The package also loads `sqlite3` only when a command uses the disk cache,
and only `groebner` imports `sqlite3` or names the cache session
(`_CacheSession`, `_session`), so single and batched reads stay in one module.
A `replace` run never loads `random`: its search draws nothing.  Importing
`hyperpos.cli` loads none of `inspect`, `dataclasses`, `ast`, `dis`, `random`,
`pathlib` or `sqlite3`, since a CLI call is mostly start-up.

No float decides a margin: `heights.theorem15_margin`, `summarize_margins`,
`LogRational` and every helper they run (the integer evaluator
`HomoPoly.integer_value` and the primitive form it reads, the strip `_strip`,
the power budget, `_log_sign`) hold no float literal and name no float
function (`math.log`, `float` and the like), except `LogRational.__float__`
and the display-only `slack`, and `heights` takes only integer functions
from `math`.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/hyperpos/*.py"))
MODULES = PACKAGE + sorted(ROOT.glob("tests/*.py"))


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


def _referenced(node):
    """Names that `node` reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_definitions(sources, documented=""):
    """Module-level functions and classes in `sources` that no other top-level
    statement of any of them references, and that `documented` does not name
    in backquotes; `cmd_*` handlers are exempt."""
    statements = [node for source in sources for node in ast.parse(source).body]
    references = [_referenced(node) for node in statements]
    defined = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    found = []
    for node in statements:
        if not isinstance(node, defined) or node.name.startswith("cmd_"):
            continue
        if any(node.name in names for other, names in zip(statements, references)
               if other is not node):
            continue
        if not re.search(rf"`(\w+\.)*{node.name}`", documented):
            found.append(node.name)
    return found


def library_layout_section():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("## Library layout")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_every_definition_has_a_user():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unreferenced_definitions(sources, library_layout_section()) == []


def test_checker_finds_an_unused_definition():
    sources = ["def used():\n    return helper()\n\n\ndef helper():\n    return helper()\n"
               "\n\nclass Spare:\n    pass\n\n\ndef cmd_run(args):\n    pass\n",
               "from .a import used as alias\n\n\ndef listed():\n    return alias\n"]
    # `helper` calls only itself, but `used` calls it; `listed` is named in the docs
    assert unreferenced_definitions(sources) == ["Spare", "listed"]
    assert unreferenced_definitions(sources, "API: `mod.listed`, `Spare`.") == []


DIMENSION_QUERIES = {"projective_dimension", "projective_dimensions"}
FUNCTIONS = ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda


def _is_query(node):
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in DIMENSION_QUERIES


def second_engines(source, engine=None):
    """Lines outside the function `engine` that call a dimension query, or that
    give a parameter one as its default and so call it under another name."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                if getattr(child, "name", None) == engine:
                    continue
                defaults = child.args.defaults + child.args.kw_defaults
                if any(d is not None and _is_query(d) for d in defaults):
                    found.append(child.lineno)
            elif isinstance(child, ast.Call) and _is_query(child.func):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "groebner.py"],
                         ids=lambda p: p.name)
def test_one_dimension_engine(path):
    engine = "meet_dimensions" if path.name == "position.py" else None
    assert second_engines(path.read_text(encoding="utf-8"), engine) == []


def test_checker_finds_a_second_engine():
    source = ("from . import groebner\n"
              "from .groebner import projective_dimensions\n"
              "def meet_dimensions(v, queries):\n"
              "    return projective_dimensions(queries)\n"
              "def _prefix_dim(v, polys, dimension=groebner.projective_dimension):\n"
              "    return dimension(polys)\n"
              "def search(v, queries, query=projective_dimensions):\n"
              "    meet_dimensions(v, queries)\n"
              "    return groebner.projective_dimensions(queries)\n")
    # a default argument and a direct call, single or batched, named bare or
    # through the module
    assert second_engines(source, "meet_dimensions") == [5, 7, 9]
    assert second_engines(source) == [4, 5, 7, 9]


def threshold_passers(source, allowed="_modp_dimension"):
    """Lines outside the function `allowed` that could pass `_buchberger` a
    stop threshold: a call with a fourth argument, a keyword or an unpacked
    argument, or any other use of the name than calling it."""
    found = []

    def named(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "_buchberger"

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS) and getattr(child, "name", None) == allowed:
                continue
            if isinstance(child, ast.Call) and named(child.func):
                if (len(child.args) > 3 or child.keywords
                        or any(isinstance(arg, ast.Starred) for arg in child.args)):
                    found.append(child.lineno)
                for arg in child.args + [k.value for k in child.keywords]:
                    visit(arg)
                continue
            if isinstance(child, (ast.Name, ast.Attribute)) and named(child):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


def test_only_the_modp_pass_stops_early():
    for path in PACKAGE:
        assert threshold_passers(path.read_text(encoding="utf-8")) == [], path.name
    # the checker is not vacuous: `_modp_dimension` does pass a threshold
    source = (ROOT / "src" / "hyperpos" / "groebner.py").read_text(encoding="utf-8")
    assert threshold_passers(source, None)


def test_checker_finds_a_threshold():
    source = ("def _buchberger(polys, packing, p, stop=-1):\n"
              "    return polys\n"
              "def _modp_dimension(gens, packing, lower):\n"
              "    return _buchberger(gens, packing, 7, lower + 1)\n"
              "def projective_dimension(gens, packing, lower):\n"
              "    _buchberger(gens, packing, 0)\n"
              "    _buchberger(gens, packing, 0, lower)\n"
              "    return groebner._buchberger(gens, packing, p=0, stop=lower)\n"
              "def groebner_basis(args):\n"
              "    return _buchberger(*args)\n"
              "def basis(gens, packing):\n"
              "    run = _buchberger\n"
              "    return partial(groebner._buchberger, stop=0)(gens, packing, 0)\n")
    assert threshold_passers(source) == [7, 8, 10, 12, 13]
    assert threshold_passers(source, None) == [4, 7, 8, 10, 12, 13]


RENDERING = {"rat_to_str", "EMPTY"}


def renderers(source, printer="_json_value"):
    """Top-level statements other than imports and the function `printer` that
    name `rat_to_str` or `EMPTY`, or hold the string "EMPTY": a definition by
    its name, anything else by its line."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "name", None) == printer:
            continue
        spelled = any(isinstance(sub, ast.Constant) and sub.value == "EMPTY"
                      for sub in ast.walk(node))
        if spelled or _referenced(node) & RENDERING:
            found.append(getattr(node, "name", node.lineno))
    return found


def test_one_printer_in_cli():
    assert renderers((ROOT / "src" / "hyperpos" / "cli.py").read_text(encoding="utf-8")) == []


def test_checker_finds_a_second_printer():
    source = ("from .groebner import EMPTY\n"
              "from .polyring import rat_to_str\n"
              "def _json_value(x):\n"
              "    return 'EMPTY' if x is EMPTY else rat_to_str(x)\n"
              "def cmd_dim(args):\n"
              "    return {'dimension': 'EMPTY'}\n"
              "def cmd_delta(args):\n"
              "    return {'delta': rat_to_str(args.delta)}\n"
              "def cmd_profile(args):\n"
              "    return {'dims': [d for d in args.dims if d is not EMPTY]}\n"
              "SENTINEL = EMPTY\n")
    assert renderers(source) == ["cmd_dim", "cmd_delta", "cmd_profile", 11]


def factoring_uses(source, allowed="_coefficient_places"):
    """Each reference to `_prime_factors` outside the definition `allowed`: the
    qualified name of the definition it is in, or its line at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name != allowed:
                    visit(child, scope + (child.name,))
            elif getattr(child, "id", getattr(child, "attr", None)) == "_prime_factors":
                found.append(".".join(scope) or child.lineno)
            else:
                visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_coefficient_places_factors():
    source = (ROOT / "src" / "hyperpos" / "heights.py").read_text(encoding="utf-8")
    assert factoring_uses(source) == []


def test_checker_finds_factoring():
    source = ("def _prime_factors(n):\n    return [n]\n"
              "def _coefficient_places(values):\n"
              "    return [p for v in values for p in _prime_factors(v)]\n"
              "class LogRational:\n"
              "    def __hash__(self):\n"
              "        return hash(tuple(_prime_factors(self.root)))\n"
              "def height_poly(q):\n"
              "    factor = _prime_factors\n"
              "    return max(factor(c) for c in q)\n"
              "SMALL = _prime_factors(12)\n")
    assert factoring_uses(source) == ["LogRational.__hash__", "height_poly", 11]


FLOAT_NAMES = {"float", "math", "cmath", "log", "log2", "log10", "log1p", "exp", "expm1",
               "sqrt", "fsum"}
INTEGER_MATH = {"comb", "gcd", "isqrt", "lcm", "prod"}


def float_uses(source, scopes):
    """Float literals and float names inside the definitions named in `scopes`,
    top-level names or "Class.method", outside `__float__` methods and
    assignments to `slack`."""
    found = []
    tree = ast.parse(source)
    stack = []
    for scope in sorted(scopes):
        node = tree
        for name in scope.split("."):
            matches = [item for item in node.body if getattr(item, "name", None) == name]
            assert matches, f"no definition {scope}"
            node = matches[0]
        stack.append(node)
    while stack:
        node = stack.pop(0)
        if isinstance(node, ast.FunctionDef) and node.name == "__float__":
            continue
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["slack"]:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(repr(node.value))
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES:
            found.append(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


# what the margin loop and the summary's sign run, by module
MARGIN_SCOPES = {
    "heights": {"theorem15_margin", "summarize_margins", "LogRational", "_strip", "_s_norm",
                "height_poly", "_log_sign", "_ln", "_exact_root", "_power"},
    "polyring": {"HomoPoly.integer_value", "HomoPoly.content_free", "HomoPoly._primitive_form",
                 "check_power_bound", "_power_bits"},
}


def test_margin_decides_without_floats():
    for module, scopes in MARGIN_SCOPES.items():
        source = (ROOT / "src" / "hyperpos" / f"{module}.py").read_text(encoding="utf-8")
        assert float_uses(source, scopes) == [], module
    source = (ROOT / "src" / "hyperpos" / "heights.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            assert all(alias.name not in ("math", "cmath") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            assert {alias.name for alias in node.names} <= INTEGER_MATH


def test_checker_finds_a_float():
    source = ("import math\n"
              "class LogRational:\n"
              "    def value(self):\n"
              "        return math.log(self.argument)\n"
              "    def __float__(self):\n"
              "        return float(self.value())\n"
              "def theorem15_margin(points):\n"
              "    for x in points:\n"
              "        slack = float(x) * 0.5\n"
              "        yield x * 0.5\n")
    assert sorted(float_uses(source, {"theorem15_margin", "LogRational"})) == ["0.5", "log", "math"]
    assert float_uses(source, {"LogRational.value"}) == ["log", "math"]
    assert float_uses(source, {"LogRational.__float__"}) == []
    with pytest.raises(AssertionError):
        float_uses(source, {"LogRational.missing"})


# the memo slots of HomoPoly: the one `groebner` fills, and the primitive form
# that only `polyring` reads
GROEBNER_SLOT, PRIMITIVE_SLOT = "_groebner_memo", "_primitive"
ATTRIBUTE_FUNCTIONS = {"getattr", "setattr", "hasattr", "delattr"}


def memo_slot_uses(source, slot=GROEBNER_SLOT):
    """Lines that name the memo slot `slot` as an attribute, or pass its name
    to `getattr`, `setattr`, `hasattr` or `delattr`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == slot:
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ATTRIBUTE_FUNCTIONS
              and any(isinstance(arg, ast.Constant) and arg.value == slot for arg in node.args)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "groebner.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_groebner_touches_the_packed_memo(path):
    assert memo_slot_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "polyring.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_polyring_touches_the_primitive_memo(path):
    assert memo_slot_uses(path.read_text(encoding="utf-8"), PRIMITIVE_SLOT) == []


def test_checker_finds_a_memo_use():
    for slot, owner in ((GROEBNER_SLOT, "groebner.py"), (PRIMITIVE_SLOT, "polyring.py")):
        source = ("class HomoPoly:\n"
                  f"    __slots__ = ('terms', '{slot}')\n"
                  "def scale(p):\n"
                  f"    p.{slot} = None\n"
                  f"    del p.{slot}\n"
                  f"    return getattr(p, '{slot}', None), hasattr(p, 'terms')\n"
                  f"setattr(HomoPoly, '{slot}', {{}})\n")
        assert memo_slot_uses(source, slot) == [4, 5, 6, 7]
        assert memo_slot_uses(source, "_other") == []
        module = (ROOT / "src" / "hyperpos" / owner).read_text(encoding="utf-8")
        assert memo_slot_uses(module, slot)


CACHE_NAMES = {"_CacheSession", "_session"}


def cache_uses(source):
    """Lines that import `sqlite3`, or name the cache session as a bare name,
    an attribute or an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "sqlite3" for alias in node.names):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "sqlite3" or \
                    any(alias.name in CACHE_NAMES for alias in node.names):
                found.append(node.lineno)
        elif getattr(node, "id", getattr(node, "attr", None)) in CACHE_NAMES:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "groebner.py"],
                         ids=lambda p: p.name)
def test_only_groebner_reads_the_cache(path):
    assert cache_uses(path.read_text(encoding="utf-8")) == []


def test_checker_finds_a_cache_use():
    source = ("import sqlite3\n"
              "import sqlite3.dbapi2 as db\n"
              "from sqlite3 import connect\n"
              "from .groebner import _CacheSession, cache_key\n"
              "from . import groebner\n"
              "def rows(keys):\n"
              "    return groebner._session.read, _CacheSession('.').prefetch(keys)\n")
    assert cache_uses(source) == [1, 2, 3, 4, 7, 7]
    groebner = (ROOT / "src" / "hyperpos" / "groebner.py").read_text(encoding="utf-8")
    assert cache_uses(groebner)


def loaded_after_run(tmp_path, argv, module, *flags):
    """Whether `module` is in sys.modules after a fresh Python process, started
    with `flags`, imports `hyperpos.cli` and runs `argv` on three lines of the
    plane, with "CONF" in `argv` naming their config file."""
    conf = tmp_path / "lines.json"
    conf.write_text(json.dumps({"ambient": 2, "variety": [], "family": ["x0", "x1", "x2"]}))
    argv = [str(conf) if arg == "CONF" else arg for arg in argv]
    script = ("import sys\n"
              "from hyperpos import cli\n"
              "assert cli.main(sys.argv[1:]) == 0\n"
              f"sys.stderr.write(str({module!r} in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *flags, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stderr == "True"


@pytest.mark.parametrize("cache_flag, loaded", [("--no-cache", False), ("--cache-dir", True)])
def test_sqlite3_loaded_only_for_the_disk_cache(tmp_path, cache_flag, loaded):
    argv = ["delta", "--config", "CONF", cache_flag]
    if cache_flag == "--cache-dir":
        argv.append(str(tmp_path / "cache"))
    assert loaded_after_run(tmp_path, argv, "sqlite3") is loaded


@pytest.mark.parametrize("cache_flag", ["--no-cache", "--cache-dir"])
def test_pathlib_not_loaded_by_delta(tmp_path, cache_flag):
    # the CLI reads its files with `open`; -S as below
    argv = ["delta", "--config", "CONF", cache_flag]
    if cache_flag == "--cache-dir":
        argv.append(str(tmp_path / "cache"))
    assert not loaded_after_run(tmp_path, argv, "pathlib", "-S")


@pytest.mark.parametrize("cache_flag", ["--no-cache", "--cache-dir"])
def test_random_not_loaded_by_replace(tmp_path, cache_flag):
    # the search walks a fixed curve and draws nothing; -S leaves out what the
    # interpreter's site packages import at start-up
    argv = ["replace", "--config", "CONF", cache_flag]
    if cache_flag == "--cache-dir":
        argv.append(str(tmp_path / "cache"))
    assert not loaded_after_run(tmp_path, argv, "random", "-S")


# modules that `import hyperpos.cli` leaves unloaded: each costs start-up time,
# and none is needed to answer a command
UNLOADED_AT_IMPORT = ("inspect", "dataclasses", "ast", "dis", "random", "pathlib", "sqlite3")


def test_cli_import_leaves_heavy_modules_unloaded():
    # -S leaves out what the interpreter's site packages import at start-up
    script = ("import sys\n"
              "import hyperpos.cli\n"
              f"sys.stdout.write(repr([m for m in {UNLOADED_AT_IMPORT!r} if m in sys.modules]))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]"
