from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_snippet_runs_as_written(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(code, namespace)
    # Each "expression  # value" line states a result of the snippet.
    results = [line.split("#", 1) for line in code.splitlines() if "#" in line]
    assert len(results) == 2
    for expression, value in results:
        assert eval(expression, namespace) == ast.literal_eval(value.strip())
