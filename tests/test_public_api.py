"""The package root exports the library contract, and no more.

The contract is what README "Library use" imports plus what the
benchmark under ``bench/`` imports from the root. Both are read with
``ast``, so nothing in them runs here.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import igbotext

ROOT = Path(__file__).resolve().parent.parent


def _root_imports(source: str) -> set[str]:
    """The names of every ``from igbotext import ...`` in ``source``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "igbotext" and not node.level
        for alias in node.names
    }


def test_every_exported_name_resolves():
    assert len(set(igbotext.__all__)) == len(igbotext.__all__)
    for name in igbotext.__all__:
        assert getattr(igbotext, name) is not None, name


def test_readme_snippet_imports_only_exported_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = _root_imports(code)
    assert names
    assert names <= set(igbotext.__all__)


def test_bench_root_imports_are_exported():
    # A submodule (``from igbotext import cli``) is imported as a module,
    # not looked up in the root.
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        names |= _root_imports(path.read_text(encoding="utf-8"))
    assert names
    for name in names:
        assert name in igbotext.__all__ or importlib.util.find_spec(f"igbotext.{name}"), name


def test_submodules_are_not_shadowed_by_root_names():
    # "import igbotext.normalize as m" binds the root's attribute
    # "normalize", so the root must not re-export a function of that name.
    import igbotext.normalize as m

    assert m is importlib.import_module("igbotext.normalize")
    assert hasattr(m, "TONE_MARKS")
    assert m.tokenize("ụlọ  akwụkwọ") == ("ụlọ", "akwụkwọ")
