"""Full representation pipeline: normalize → tokenize → filter → n-grams.

Also builds document-term matrices over a corpus and serializes results.
All outputs are deterministic: identical inputs and configuration produce
byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

from .errors import IgboTextError, InvalidOrderError, OrderMismatchError, PipelineStageError
from .lexicon import KeyFeature, load_lexicon, match_key_features
from .ngrams import (
    ORDERS, NGram, NGramTable, count_runs, extract_ngrams, is_order, is_whole, rank_features
)
from .normalize import Mode, load_stoplist, normalize, pieces, remove_stopwords, tokenize
from .textio import Document, read_document

# The layout of every JSON output: indent 2, characters as they are.
ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2)

# The shipped stop-word list and lexicon.
DATA = Path(__file__).parent / "data"


@dataclass(frozen=True)
class PipelineConfig:
    mode: Mode
    stoplist_path: str | os.PathLike[str] | None = None
    lexicon_path: str | os.PathLike[str] | None = None
    orders: tuple[int, ...] = ORDERS

    def __post_init__(self) -> None:
        # A plain string names a mode by its value; anything else is a
        # ValueError that names it.
        object.__setattr__(self, "mode", Mode(self.mode))
        # Read once: a one-shot iterable is empty the second time.
        orders = tuple(self.orders)
        if not orders:
            raise ValueError("orders must be non-empty")
        for n in orders:
            if not is_order(n):
                raise InvalidOrderError(n, ORDERS)
        object.__setattr__(self, "orders", tuple(sorted(set(orders))))


@dataclass(frozen=True)
class RepresentationBundle:
    doc_id: str
    tables: dict[int, NGramTable]


@dataclass(frozen=True)
class DocTermMatrix:
    """Documents × n-gram features, stored sparse.

    ``rows[i]`` maps feature index j to document i's count of
    ``features[j]``; features a document lacks have no entry.
    """

    n: int
    doc_ids: tuple[str, ...]
    features: tuple[NGram, ...]
    rows: tuple[dict[int, int], ...]


class Pipeline:
    """The stages of one run, configured once and shared by every document.

    The stop list is loaded here; the lexicon on the first call to
    ``features``. Each is read from its ``cfg`` path, or from the packaged
    file under ``DATA`` when the path is ``None``.
    """

    def __init__(self, cfg: PipelineConfig) -> None:
        self.cfg = cfg
        self.stoplist = _stage("load-stoplist", load_stoplist, cfg.stoplist_path, "stopwords.txt")

    @cached_property
    def lexicon(self) -> list[KeyFeature]:
        return _stage("load-lexicon", load_lexicon, self.cfg.lexicon_path, "lexicon.tsv")

    def _filtered(self, doc: Document) -> tuple[str, ...]:
        """The document's stop-filtered token stream, made one piece of its
        text at a time (``tokens``), with one ``str`` per distinct token
        (``interned``): no whole-text copy is made."""
        mode, stoplist = self.cfg.mode, self.stoplist
        kept = (remove_stopwords(t, stoplist, mode) for t in tokens(doc.text, mode))
        # Made straight into a tuple: a list would be copied into it, and
        # both would be alive at once.
        return tuple(interned(kept))

    def represent(self, doc: Document) -> RepresentationBundle:
        """The document's n-gram table of each configured order."""
        filtered = self._filtered(doc)
        tables = {n: extract_ngrams(filtered, n) for n in self.cfg.orders}
        return RepresentationBundle(doc_id=doc.id, tables=tables)

    def features(self, doc: Document) -> list[KeyFeature]:
        """Lexicon phrases found in the document, by descending count.

        Each phrase is counted as windows of the stop-filtered token
        stream, as the tables count them; ``cfg.orders`` plays no part.
        """
        lexicon = self.lexicon  # a bad lexicon fails before any counting
        return match_key_features(self._filtered(doc), lexicon)


def tokens(text: str, mode: Mode) -> Iterator[tuple[str, ...]]:
    """The tokens of each piece of ``text`` (``normalize.pieces``), in
    order: the one composition of ``normalize`` and ``tokenize``, for
    ``Pipeline`` and the ``normalize`` and ``tokenize`` commands alike.
    ``normalize`` is word-local and leaves whitespace as it falls, so
    spacing ends in ``tokenize``: chained, these are
    ``tokenize(normalize(text, mode))``, and the ``normalize`` command
    prints them joined by single spaces."""
    return (tokenize(normalize(piece, mode)) for piece in pieces(text))


def interned(streams: Iterable[tuple[str, ...]]) -> Iterator[str]:
    """The words of ``streams`` in order, one ``str`` per distinct word, so
    that a stream of them takes memory in proportion to the vocabulary."""
    seen: dict[str, str] = {}
    return chain.from_iterable(map(seen.setdefault, s, s) for s in streams)


def _stage(name, load, path, shipped):
    """``load`` applied to the text and name of a data file, read by
    ``read_document``: ``path``, or the shipped ``DATA / shipped`` when
    ``path`` is None. An error of the toolkit names the stage."""
    try:
        doc = read_document(DATA / shipped if path is None else path)
        return load(doc.text, doc.id)
    except IgboTextError as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(doc: Document, cfg: PipelineConfig) -> RepresentationBundle:
    """One-shot convenience wrapper around Pipeline.represent."""
    return Pipeline(cfg).represent(doc)


def build_doc_term_matrix(bundles: Iterable[RepresentationBundle], n: int) -> DocTermMatrix:
    """Corpus matrix: the feature axis is the documents' order-n counts,
    summed over the corpus, in rank order (``rank_features``).

    Row i maps feature index j to document i's count of feature j, so
    the columns sum to those corpus counts.
    """
    bundles = list(bundles)  # read three times below; a generator only once
    vocabulary: Counter[NGram] = Counter()
    for b in bundles:
        if n not in b.tables:
            raise OrderMismatchError(n, min(b.tables, default=0))
        vocabulary.update(b.tables[n].counts)
    features = tuple(gram for gram, _ in rank_features(vocabulary))
    index = {gram: j for j, gram in enumerate(features)}
    rows = tuple(
        {index[gram]: count for gram, count in b.tables[n].counts.items()} for b in bundles
    )
    return DocTermMatrix(
        n=n,
        doc_ids=tuple(b.doc_id for b in bundles),
        features=features,
        rows=rows,
    )


# --- serialization -----------------------------------------------------

def to_json(payload: object) -> Iterator[str]:
    """The ``ENCODER`` text of ``payload`` and a closing newline, in pieces
    to write as they are made; joined, they are what ``json.dumps`` gives
    with the same settings, plus the newline."""
    return chain(ENCODER.iterencode(payload), ["\n"])


def table_to_tsv(t: NGramTable) -> str:
    """One "gram<TAB>count" row per entry, in rank order: each run of equal
    counts is its grams joined by, and ended with, the same tail."""
    return "".join(_tsv_runs(t.counts))


def _tsv_runs(counts: Mapping[NGram, int]) -> Iterator[str]:
    # A generator, so that its last run's grams are gone before the join.
    for count, grams in count_runs(counts):
        tail = f"\t{count}\n"
        yield tail.join(grams)
        yield tail


def table_to_obj(b: RepresentationBundle, n: int) -> dict:
    """The JSON object of a bundle's order-n table, entries in rank order."""
    t = b.tables[n]
    return {
        "doc_id": b.doc_id,
        "n": n,
        "total": t.total_windows,
        "entries": [
            {"gram": list(gram), "count": count} for gram, count in rank_features(t.counts)
        ],
    }


def bundle_to_tsv(b: RepresentationBundle) -> str:
    """Tables in ascending order, blank-line separated when several."""
    blocks = [table_to_tsv(b.tables[n]) for n in sorted(b.tables)]
    return "\n".join(block for block in blocks if block)


def bundle_to_json(b: RepresentationBundle) -> Iterator[str]:
    """One table object, or a list of them in ascending order when several."""
    objs = [table_to_obj(b, n) for n in sorted(b.tables)]
    return to_json(objs[0] if len(objs) == 1 else objs)


def bundle_from_json(text: str) -> RepresentationBundle:
    """The bundle that ``bundle_to_json`` wrote as ``text``.

    Only what the writer writes is read: one table object or a non-empty
    list of them, each with exactly ``doc_id``, ``n``, ``total`` and
    ``entries``; the same document id in all; each order of ``ORDERS`` at
    most once; entries of exactly ``gram`` and ``count``, each gram a
    list of n strings that no other entry repeats and each count an int
    of at least 1; and a total equal to the sum of the counts. Anything
    else is a ValueError that names the table object and the field.
    """
    payload = json.loads(text)
    objs = payload if isinstance(payload, list) else [payload]
    if not objs:
        raise ValueError("bundle JSON holds no table object")
    doc_ids: set[str] = set()
    tables: dict[int, NGramTable] = {}
    for i, obj in enumerate(objs):
        where = f"table object {i}"
        if not isinstance(obj, dict) or obj.keys() != {"doc_id", "n", "total", "entries"}:
            raise ValueError(f"{where}: fields must be doc_id, n, total and entries")
        doc_id, n, entries = obj["doc_id"], obj["n"], obj["entries"]
        if not isinstance(doc_id, str):
            raise ValueError(f"{where}: doc_id {doc_id!r} is not a string")
        if not is_order(n):
            raise ValueError(f"{where}: n {n!r} is not one of {ORDERS}")
        if n in tables:
            raise ValueError(f"{where}: n {n} repeats an earlier table's order")
        if not isinstance(entries, list):
            raise ValueError(f"{where}: entries is not a list")
        counts: dict[NGram, int] = {}
        for j, entry in enumerate(entries):
            field = f"{where}: entries[{j}]"
            if not isinstance(entry, dict) or entry.keys() != {"gram", "count"}:
                raise ValueError(f"{field}: fields must be gram and count")
            gram, count = entry["gram"], entry["count"]
            if not (isinstance(gram, list) and len(gram) == n
                    and all(isinstance(word, str) for word in gram)):
                raise ValueError(f"{field}.gram {gram!r} is not a list of {n} strings")
            key = tuple(gram)
            if key in counts:
                raise ValueError(f"{field}.gram {gram!r} repeats an earlier entry")
            if not is_whole(count) or count < 1:
                raise ValueError(f"{field}.count {count!r} is not an int of at least 1")
            counts[key] = count
        total, windows = obj["total"], sum(counts.values())
        if not is_whole(total) or total != windows:
            raise ValueError(f"{where}: total {total!r} is not the sum of the counts, {windows}")
        doc_ids.add(doc_id)
        tables[n] = NGramTable(counts=counts, total_windows=total)
    if len(doc_ids) != 1:
        raise ValueError(f"bundle mixes document ids: {sorted(doc_ids)}")
    return RepresentationBundle(doc_id=doc_ids.pop(), tables=tables)


def _dense_rows(
    m: DocTermMatrix, heads: Iterable[str], sep: str, tail: str, skip: int = 0
) -> Iterator[str]:
    """One line per document: its head, ``sep + count`` for every feature,
    then ``tail``, with the first ``skip`` characters after the head left out.

    Every row is cut from one line of zeros, ``(sep + "0") * len(features)``,
    in which cell j is one character at ``j * (len(sep) + 1) + len(sep)``.
    The row's counts go in at its non-zero cells, so the work per row grows
    with those cells, not with the number of features.
    """
    line = (sep + "0") * len(m.features)
    lead = len(sep)
    width = lead + 1
    for head, row in zip(heads, m.rows):
        pieces = [head]
        start = skip
        for j in sorted(row):
            cut = j * width + lead
            pieces.append(line[start:cut])
            pieces.append(str(row[j]))
            start = cut + 1
        pieces.append(line[start:])
        pieces.append(tail)
        yield "".join(pieces)


# The characters that end a TSV cell or row: TAB, and every character at
# which str.splitlines breaks a line.
_TSV_BREAKS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def matrix_to_tsv(m: DocTermMatrix) -> Iterator[str]:
    """TSV lines, made one at a time: a header, then one row per document.

    Every line is ``doc_id`` or a document id followed by ``<TAB>value``
    per feature. Each row is cut from one line of zeros (``_dense_rows``),
    so only one dense row exists at a time and its work follows its
    non-zero cells. An empty matrix yields nothing.

    A document id holding a TAB or a line break (any character at which
    ``str.splitlines`` breaks) would break its row, so it is a ValueError
    that names it, raised here, before any line is made.
    """
    for doc_id in m.doc_ids:
        if not _TSV_BREAKS.isdisjoint(doc_id):
            raise ValueError(
                f"document id {doc_id!r} holds a TAB or line break, "
                "which a TSV row cannot; use --format json"
            )
    if not m.doc_ids and not m.features:
        return iter(())
    header = "\t".join(["doc_id", *(" ".join(gram) for gram in m.features)]) + "\n"
    return chain([header], _dense_rows(m, m.doc_ids, "\t", "\n"))


def matrix_to_json(m: DocTermMatrix) -> Iterator[str]:
    """The bytes ``to_json`` gives for ``{n, docs, features, cells}``, made
    one dense row at a time.

    ``ENCODER`` lays out the rest; ``cells[i]`` is document i's dense row.
    Like a TSV row, it is cut from one line of zeros, ``",\\n      0"`` per
    feature (``_dense_rows``), whose first comma gives way to the row's ``[``.
    """
    head = {"n": m.n, "docs": m.doc_ids, "features": m.features}
    yield ENCODER.encode(head)[:-2]  # up to its closing "\n}"
    yield ',\n  "cells": ['
    heads = chain(["\n    ["], repeat(",\n    ["))
    yield from _dense_rows(m, heads, ",\n      ", "\n    ]" if m.features else "]", skip=1)
    yield "\n  ]" if m.rows else "]"
    yield "\n}\n"


def features_to_tsv(features: list[KeyFeature]) -> str:
    return "".join(
        f"{' '.join(f.gram)}\t{f.count}\t{f.gloss}\t{f.category.value}\n" for f in features
    )


def features_to_json(doc_id: str, features: list[KeyFeature]) -> Iterator[str]:
    return to_json({
        "doc_id": doc_id,
        "features": [
            {
                "gram": list(f.gram),
                "count": f.count,
                "gloss": f.gloss,
                "category": f.category.value,
            }
            for f in features
        ],
    })


def write_output(
    text: str | Iterable[str], destination: str | os.PathLike[str] | None
) -> None:
    """Write the UTF-8 bytes of ``text`` to a file, or to stdout when
    destination is None, whatever stdout's own encoding. A stdout with no
    ``buffer``, such as an ``io.StringIO`` put in its place, is written
    each string itself, once.

    ``text`` is one string or an iterable of strings written as they are
    made, so that only one is alive at a time. Each string's bytes are
    written until all are taken: a pipe whose reader went away takes part
    of a write with no error, and the next write raises BrokenPipeError.
    """
    chunks = [text] if isinstance(text, str) else text
    stdout = getattr(sys.stdout, "buffer", sys.stdout)
    sink = nullcontext(stdout) if destination is None else open(destination, "wb")
    with sink as fh:
        if fh is sys.stdout:
            for chunk in chunks:
                fh.write(chunk)
        else:
            for data in map(str.encode, chunks):  # UTF-8
                written = fh.write(data)
                while written < len(data):
                    written += fh.write(memoryview(data)[written:])
        fh.flush()
