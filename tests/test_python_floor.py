"""The package keeps to its ``requires-python`` floor, Python 3.10.

These checks run on any newer interpreter: every module must parse as
3.10 syntax, and no module-level regular expression may use an atomic
group or a possessive quantifier, which ``re`` accepts only from 3.11.
Every module must also compile with no warning on the running
interpreter: an invalid escape in a string, such as a regex pattern
missing its ``r`` prefix, warns at compile time (a DeprecationWarning,
and from Python 3.12 on a SyntaxWarning).
"""

from __future__ import annotations

import ast
import importlib
import re
import warnings
from pathlib import Path

import pytest

import igbotext

PACKAGE = Path(igbotext.__file__).parent
FLOOR = (3, 10)
NEWER_OPCODES = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def test_every_module_parses_as_the_floor_version():
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


def test_every_module_compiles_without_warnings():
    for path in sorted(PACKAGE.glob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def _opcodes(parsed) -> set[str]:
    """Names of the opcodes in a parsed pattern, nested ones included.

    A parsed pattern holds ``(opcode, argument)`` pairs; arguments nest
    further pairs in lists, tuples and parsed subpatterns.
    """
    found = set()
    stack = [parsed]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple) and len(item) == 2 and hasattr(item[0], "name"):
            found.add(item[0].name)
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "data"):
            stack.extend(item.data)
    return found


def test_module_patterns_use_no_newer_regex_syntax():
    parser = pytest.importorskip("re._parser")
    assert NEWER_OPCODES <= _opcodes(parser.parse(r"(?>a*)b*+"))
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__main__")
    patterns = 0
    for stem in modules:
        name = "igbotext" if stem == "__init__" else f"igbotext.{stem}"
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if isinstance(value, re.Pattern):
                patterns += 1
                opcodes = _opcodes(parser.parse(value.pattern, value.flags))
                assert not opcodes & NEWER_OPCODES, f"{name}.{attr}"
    assert patterns
