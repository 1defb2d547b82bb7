"""The error codes that the CLI prints verbatim, as `errors.DomainError` states them.

Every `DomainError` subclass in the package has `code` equal to its class
name, except the parser's `PolySyntaxError`, whose code is `SyntaxError`.
No two codes are equal, so a code names one failure.
"""

import importlib
from pathlib import Path

from hyperpos.errors import DomainError

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperpos"
RENAMED = {"PolySyntaxError": "SyntaxError"}


def package_errors():
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__main__":  # running it runs the CLI
            importlib.import_module(f"hyperpos.{path.stem}")
    found, stack = [], [DomainError]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("hyperpos."):
                found.append(sub)
    return found


def test_code_is_the_class_name():
    errors = package_errors()
    assert len(errors) > 30
    assert {e.__name__ for e in errors} >= set(RENAMED) | {"IndexOutOfRange", "ZeroInput"}
    for error in errors:
        assert error.code == RENAMED.get(error.__name__, error.__name__), error


def test_codes_are_distinct():
    codes = [DomainError.code] + [e.code for e in package_errors()]
    assert len(codes) == len(set(codes))
