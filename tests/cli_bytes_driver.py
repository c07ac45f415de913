"""Byte snapshot of the command line.

Every command runs in both modes and both formats on doc1 and on
``fixtures/edge.txt`` (a byte-order mark, tone marks, NFD text, stray
combining marks, hyphens, curly apostrophes, digits, a currency sign,
lexicon phrases and bare punctuation); ``matrix`` runs over a directory
holding both and an empty document. The error runs are a bad order, a
bad mode and a missing file, and ``represent --help`` pins the usage
text. The data-file runs pass ``--stopwords`` to ``represent``,
``matrix`` and ``features`` and ``--lexicon`` to ``features``, in both
modes, on files whose entries need folding (tone marks, NFD, capitals,
a straight apostrophe); the data-file errors are an undecodable and a
missing stop list, three malformed lexicons and a non-integer ``--n``.
Each case runs ``igbotext.cli.main`` in-process, with relative paths
from one working directory, and must match the exit code and the sha256
of the output file, stdout and stderr in ``fixtures/cli_sha256.json``.

That file was generated once from an earlier commit (named in
CHANGES.md) and is never regenerated to fit a change: a failing case
means that an output byte, a message or an exit code changed. The usage
and help text is written by ``argparse``; the file was made under Python
3.11.7, and Pythons 3.10.13, 3.12.1, 3.13.0 and 3.13.13 give the same
bytes.

Run as a script, this module checks every case with no pytest, so that
any interpreter can run it from the repository root::

    PYTHONPATH=src python3.13 tests/cli_bytes_driver.py

It prints each case whose exit code or digests differ, and exits 1 if
any does or if the snapshot and the cases name different runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from igbotext import cli

FIXTURES = Path(__file__).parent / "fixtures"
SNAPSHOT = json.loads((FIXTURES / "cli_sha256.json").read_text(encoding="utf-8"))

DOCS = ("doc1", "edge")
MODES = ("paper", "strict")
FORMATS = ("tsv", "json")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for mode in MODES:
        for fmt in FORMATS:
            flags = ["--mode", mode, "--format", fmt]
            for doc in DOCS:
                for command in ("normalize", "tokenize", "features"):
                    cases[f"{command}-{doc}-{mode}-{fmt}"] = [command, f"{doc}.txt", *flags]
                for n in ("1,2,3", "2"):
                    cases[f"represent-n{n}-{doc}-{mode}-{fmt}"] = [
                        "represent", f"{doc}.txt", "--n", n, *flags
                    ]
            for n in ("1", "2", "3"):
                cases[f"matrix-n{n}-{mode}-{fmt}"] = ["matrix", "corpus", "--n", n, *flags]
    cases["represent-n7"] = ["represent", "doc1.txt", "--n", "7"]
    cases["matrix-n7"] = ["matrix", "corpus", "--n", "7"]
    cases["mode-bogus"] = ["represent", "doc1.txt", "--mode", "bogus"]
    cases["missing-file"] = ["represent", "missing.txt"]
    cases["help-represent"] = ["represent", "--help"]
    for mode in MODES:
        stop = ["--stopwords", "stop.txt", "--mode", mode]
        for doc in DOCS:
            cases[f"represent-stop-{doc}-{mode}"] = ["represent", f"{doc}.txt", *stop]
            cases[f"features-stop-lex-{doc}-{mode}"] = [
                "features", f"{doc}.txt", "--lexicon", "lex.tsv", *stop
            ]
        cases[f"matrix-n2-stop-{mode}"] = ["matrix", "corpus", "--n", "2", *stop]
    cases["stop-undecodable"] = ["represent", "doc1.txt", "--stopwords", "stop-bad.txt"]
    cases["stop-missing"] = ["represent", "doc1.txt", "--stopwords", "missing-stop.txt"]
    for name in ("four-words", "unknown-category", "two-fields"):
        cases[f"lex-{name}"] = ["features", "doc1.txt", "--lexicon", f"lex-{name}.tsv"]
    cases["represent-nx"] = ["represent", "doc1.txt", "--n", "x"]
    cases["matrix-nx"] = ["matrix", "corpus", "--n", "x"]
    return cases


CASES = _cases()

# The data files the ``--stopwords`` and ``--lexicon`` cases name. The
# NFD spellings are written out so that no editor recomposes them.
DATA_FILES = {
    "stop.txt": "Àhụ\na\u0323hu\u0323\nN'\nNDI\n".encode("utf-8"),
    "stop-bad.txt": b"ahu\n\xff\xfe\n",
    "lex.tsv": (
        "KÒMPUTA nkunaka\tlaptop\tNominal\n"
        "ezi na u\u0323\u0300lo\u0323\tfamily\tCoordinate\n"
    ).encode("utf-8"),
    "lex-four-words.tsv": "ezi na ụlọ ya\tfamily\tCoordinate\n".encode("utf-8"),
    "lex-unknown-category.tsv": b"komputa nkunaka\tlaptop\tBogus\n",
    "lex-two-fields.tsv": b"komputa nkunaka\tlaptop\n",
}


def make_workspace(root: Path) -> None:
    """The documents every case names, relative to ``root``."""
    corpus = root / "corpus"
    corpus.mkdir()
    for doc in DOCS:
        data = (FIXTURES / f"{doc}.txt").read_bytes()
        (root / f"{doc}.txt").write_bytes(data)
        (corpus / f"{doc}.txt").write_bytes(data)
    (corpus / "empty.txt").write_bytes(b"")
    for name, data in DATA_FILES.items():
        (root / name).write_bytes(data)


def _sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], output: Path) -> dict:
    """Exit code and digests of one run of ``main`` in the current directory.

    Help is printed to stdout, so a ``--help`` run writes no output file.
    """
    if "--help" not in argv:
        argv = [*argv, "--output", str(output)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {
        "exit": code,
        "output": _sha256(output.read_bytes() if output.exists() else None),
        "stdout": _sha256(stdout.getvalue().encode("utf-8")),
        "stderr": _sha256(stderr.getvalue().encode("utf-8")),
    }


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps usage text to this width
    failed = sorted(set(CASES) ^ set(SNAPSHOT))
    for case in failed:
        print(f"{case}: in only one of the cases and the snapshot")
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workspace, outputs = Path(tmp) / "workspace", Path(tmp) / "outputs"
        workspace.mkdir()
        outputs.mkdir()
        make_workspace(workspace)
        os.chdir(workspace)
        try:
            for i, case in enumerate(sorted(set(CASES) & set(SNAPSHOT))):
                got = run_case(CASES[case], outputs / str(i))
                if got != SNAPSHOT[case]:
                    failed.append(case)
                    print(f"{case}: {CASES[case]}: {got} != {SNAPSHOT[case]}")
        finally:
            os.chdir(start)
    print(f"Python {sys.version.split()[0]}: {len(CASES) - len(failed)} of {len(CASES)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
