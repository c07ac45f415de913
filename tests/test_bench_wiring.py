"""The traced benchmark still finds every stage it times.

``bench/spans.py`` wraps the stage functions by name in
``igbotext.pipeline`` and ``igbotext.cli``. A renamed or rewired stage
would read zero in the per-stage metrics without failing the benchmark,
so this test installs the benchmark's tracer in a fresh interpreter and
checks the spans each benchmarked command records.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from conftest import DOC1_PATH

ROOT = DOC1_PATH.parents[2]

# Runs each command under the tracer; prints the span names per command.
SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from igbotext import cli
tracer = spans.Tracer()
tracer.install()
recorded = {}
for name, argv in json.loads(sys.argv[2]).items():
    first = len(tracer.spans)
    rc = tracer.op(lambda: cli.main(argv))
    recorded[name] = {"rc": rc, "spans": sorted({s.name for s in tracer.spans[first:]})}
print(json.dumps({"recorded": recorded, "missing": tracer.missing,
                  "count_errors": tracer.count_errors}))
"""

TEXT_STAGES = {"cli", "textio", "pipeline.represent", "normalize", "tokenize", "stopwords"}

EXPECTED = {
    "represent": TEXT_STAGES | {"ngrams.n1", "ngrams.n2", "ngrams.n3", "pipeline.serialize"},
    # Features are matched in the filtered token stream: no tables.
    "features": (TEXT_STAGES - {"pipeline.represent"}) | {"lexicon", "pipeline.serialize"},
    "matrix": TEXT_STAGES | {"ngrams.n2", "pipeline.matrix", "pipeline.serialize"},
}


def test_benchmark_spans_are_recorded(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(DOC1_PATH, corpus / "doc1.txt")
    doc = str(DOC1_PATH)
    commands = {
        "represent": ["represent", doc, "--mode", "paper", "--n", "1,2,3", "--format", "tsv"],
        "features": ["features", doc, "--mode", "strict", "--format", "json"],
        "matrix": ["matrix", str(corpus), "--mode", "paper", "--n", "2", "--format", "tsv"],
    }
    for name, argv in commands.items():
        argv += ["--output", str(tmp_path / f"{name}.out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout)
    for name, expected in EXPECTED.items():
        assert report["recorded"][name]["rc"] == 0
        assert set(report["recorded"][name]["spans"]) == expected, name
    assert report["count_errors"] == []
    # The one target that may be missing hooks a removed helper; its span,
    # "lexicon", is still recorded through match_key_features.
    assert set(report["missing"]) <= {"igbotext.pipeline.LanguageModel.from_tokens"}
