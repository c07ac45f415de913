"""Output checks that hold for any correct implementation.

They test documented invariants, not today's exact output:

* every n-gram table sums to its ``total_windows``, and the totals of
  orders 1, 2 and 3 are T, T-1 and T-2;
* rows are ranked by descending count, ties in lexicographic order;
* JSON tables round-trip through ``bundle_from_json`` and agree with TSV;
* every key feature count equals the matching table lookup, and every
  lexicon phrase present in the tables is reported;
* matrix column sums equal the per-document counts computed separately
  through the library API;
* the doc1 golden tables are reproduced.

Each function returns a list of problems; an empty list means the check
passed. Only the CLI and the README "Library use" API are used.
"""

from __future__ import annotations

import importlib.util
import json
import operator
import unicodedata
from collections import Counter
from pathlib import Path
from typing import Any

Table = dict[tuple[str, ...], int]


def _rank_key(gram: tuple[str, ...], count: int) -> tuple[int, str]:
    return (-count, unicodedata.normalize("NFC", " ".join(gram)))


def check_ranked(rows: list[tuple[tuple[str, ...], int]], what: str) -> list[str]:
    for i in range(1, len(rows)):
        if _rank_key(*rows[i - 1]) > _rank_key(*rows[i]):
            return [f"{what}: row {i} {rows[i]} is ranked above {rows[i - 1]}"]
    return []


def check_totals(tables: dict[int, Table], totals: dict[int, int], what: str) -> list[str]:
    problems = []
    for n, table in tables.items():
        if sum(table.values()) != totals[n]:
            problems.append(f"{what}: order {n} counts sum to {sum(table.values())}, total {totals[n]}")
        if any(count <= 0 for count in table.values()):
            problems.append(f"{what}: order {n} has a non-positive count")
        if any(len(gram) != n for gram in table):
            problems.append(f"{what}: order {n} has a gram of the wrong length")
    if 1 in totals:
        t = totals[1]
        for n in (2, 3):
            if n in totals and totals[n] != max(0, t - n + 1):
                problems.append(f"{what}: order {n} total {totals[n]} is not T-{n - 1} for T={t}")
    return problems


def parse_represent_tsv(text: str) -> tuple[dict[int, Table], list[str]]:
    """Tables from ``represent`` TSV: one block per order, blank-line separated."""
    tables: dict[int, Table] = {}
    problems: list[str] = []
    for block in text.split("\n\n"):
        rows = []
        for line in block.splitlines():
            gram_text, sep, count_text = line.partition("\t")
            if not sep or not count_text.isdigit():
                return tables, [f"malformed TSV row {line!r}"]
            rows.append((tuple(gram_text.split(" ")), int(count_text)))
        if not rows:
            continue
        n = len(rows[0][0])
        if n in tables:
            problems.append(f"order {n} printed twice")
        tables[n] = dict(rows)
        if len(tables[n]) != len(rows):
            problems.append(f"order {n} repeats a gram")
        problems += check_ranked(rows, f"TSV order {n}")
    return tables, problems


def check_represent(tsv_path: Path, json_text: str, orders: tuple[int, ...]) -> list[str]:
    """A ``represent`` TSV output against the same run in JSON."""
    tsv_tables, problems = parse_represent_tsv(tsv_path.read_text(encoding="utf-8"))
    if sorted(tsv_tables) != sorted(orders):
        problems.append(f"TSV has orders {sorted(tsv_tables)}, expected {sorted(orders)}")
    bundle, json_problems = _check_json_bundle(json_text, orders)
    problems += json_problems
    for n in orders:
        if n in tsv_tables and dict(bundle.tables[n].counts) != tsv_tables[n]:
            problems.append(f"order {n}: TSV and JSON tables differ")
    if tsv_tables.get(1) == {}:
        problems.append("no tokens survived")
    return problems


def _check_json_bundle(json_text: str, orders: tuple[int, ...]) -> tuple[Any, list[str]]:
    """Parse ``represent`` JSON through ``bundle_from_json`` and check it."""
    from igbotext import bundle_from_json

    bundle = bundle_from_json(json_text)
    tables = {n: dict(t.counts) for n, t in bundle.tables.items()}
    totals = {n: t.total_windows for n, t in bundle.tables.items()}
    problems = []
    if sorted(tables) != sorted(orders):
        problems.append(f"JSON has orders {sorted(tables)}, expected {sorted(orders)}")
    problems += check_totals(tables, totals, "JSON")
    payload = json.loads(json_text)
    for obj in payload if isinstance(payload, list) else [payload]:
        rows = [(tuple(e["gram"]), e["count"]) for e in obj["entries"]]
        if len(rows) != len(bundle.tables[obj["n"]].counts):
            problems.append(f"order {obj['n']}: entries lost in the JSON round trip")
        problems += check_ranked(rows, f"JSON order {obj['n']}")
    return bundle, problems


def read_lexicon(root: Path) -> dict[tuple[str, ...], tuple[str, str]]:
    """Shipped lexicon phrases (lowercase NFC) to (gloss, category)."""
    text = (root / "src" / "igbotext" / "data" / "lexicon.tsv").read_text(encoding="utf-8")
    entries = {}
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        phrase, gloss, category = (f.strip() for f in line.split("\t"))
        key = tuple(unicodedata.normalize("NFC", phrase.lower()).split())
        entries[key] = (gloss, category)
    return entries


def check_features(out_path: Path, json_text: str, lexicon: dict) -> list[str]:
    """A ``features`` JSON output against the same document's tables."""
    bundle, problems = _check_json_bundle(json_text, (1, 2, 3))
    tables = bundle.tables
    features = json.loads(out_path.read_text(encoding="utf-8"))["features"]
    if not features:
        problems.append("no key features found")
    rows = []
    for f in features:
        gram = tuple(f["gram"])
        rows.append((gram, f["count"]))
        lookup = tables[len(gram)].counts.get(gram, 0) if len(gram) in tables else 0
        if f["count"] != lookup:
            problems.append(f"feature {gram} count {f['count']} != table count {lookup}")
        if lexicon.get(gram) != (f["gloss"], f["category"]):
            problems.append(f"feature {gram} is not the lexicon entry {lexicon.get(gram)}")
    problems += check_ranked(rows, "features")
    reported = {gram for gram, _ in rows}
    for gram in lexicon:
        if len(gram) in tables and tables[len(gram)].counts.get(gram, 0) and gram not in reported:
            problems.append(f"lexicon phrase {gram} is in the tables but not reported")
    return problems


def check_matrix(out_path: Path, corpus: Path, n: int) -> list[str]:
    """Matrix TSV against per-document tables built through the library."""
    from igbotext import Mode, PipelineConfig, load_corpus, run_pipeline

    paths = sorted(corpus.glob("*.txt"))
    cfg = PipelineConfig(mode=Mode.PAPER_GOLDEN, orders=(n,))
    expected: Counter = Counter()
    row_totals = []
    for doc in load_corpus(paths):
        table = run_pipeline(doc, cfg).tables[n]
        expected.update(table.counts)
        row_totals.append(table.total_windows)

    problems: list[str] = []
    with out_path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[0] != "doc_id":
            return [f"matrix header starts with {header[0]!r}"]
        features = [tuple(f.split(" ")) for f in header[1:]]
        sums = [0] * len(features)
        ids = []
        for i, line in enumerate(fh):
            doc_id, *cells = line.rstrip("\n").split("\t")
            ids.append(Path(doc_id).name)
            if len(cells) != len(features):
                return problems + [f"matrix row {i} has {len(cells)} cells for {len(features)} features"]
            values = list(map(int, cells))
            if i < len(row_totals) and sum(values) != row_totals[i]:
                problems.append(f"matrix row {i} sums to {sum(values)}, document has {row_totals[i]} windows")
            sums = list(map(operator.add, sums, values))
    if ids != [p.name for p in paths]:
        problems.append(f"matrix rows are not the {len(paths)} documents in order")
    if len(set(features)) != len(features) or any(len(f) != n for f in features):
        problems.append("matrix features repeat or have the wrong order")
    if dict(zip(features, sums)) != dict(expected):
        problems.append("matrix column sums differ from the per-document counts")
    problems += check_ranked(list(zip(features, sums)), "matrix columns")
    return problems


def check_golden(root: Path) -> list[str]:
    """The doc1 golden tables of tests/golden_doc1.py, in both modes."""
    from igbotext import Mode, PipelineConfig, load_corpus, run_pipeline

    spec = importlib.util.spec_from_file_location("golden_doc1", root / "tests" / "golden_doc1.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    doc = load_corpus([root / "tests" / "fixtures" / "doc1.txt"])[0]
    paper = run_pipeline(doc, PipelineConfig(mode=Mode.PAPER_GOLDEN)).tables
    strict = run_pipeline(doc, PipelineConfig(mode=Mode.STRICT)).tables
    expected = [
        ("paper unigrams", paper[1], golden.GOLDEN_UNIGRAMS),
        ("paper bigrams", paper[2], golden.GOLDEN_BIGRAMS),
        ("paper trigrams", paper[3], golden.GOLDEN_TRIGRAMS),
        ("strict unigrams", strict[1], golden.STRICT_UNIGRAMS),
    ]
    return [f"doc1 {what} differ from the golden table"
            for what, table, want in expected if dict(table.counts) != want]
