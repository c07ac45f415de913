"""Full representation pipeline: normalize → tokenize → filter → n-grams.

Also builds document-term matrices over a corpus and serializes results.
All outputs are deterministic: identical inputs and configuration produce
byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, filterfalse, repeat
from operator import add, itemgetter, not_
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

    ``rows[i]`` maps each gram of document i to its count, features it
    lacks having no entry: its bundle's own order-n ``counts``, not a copy.
    One row per document id, or a ValueError: the writers pair them by
    ``zip``, which would drop whatever the longer holds past the shorter.
    """

    n: int
    doc_ids: tuple[str, ...]
    features: tuple[NGram, ...]
    rows: tuple[Mapping[NGram, int], ...]

    def __post_init__(self) -> None:
        if len(self.doc_ids) != len(self.rows):
            raise ValueError(f"{len(self.doc_ids)} document ids for {len(self.rows)} rows")


# Words a Pipeline's word memo looks up between two checks of its rate of
# new words (``Pipeline._entries``).
_WINDOW = 1 << 10


class Pipeline:
    """The stages of one run, configured once and shared by every document.

    The stop list is loaded here; the lexicon on the first call to
    ``features``. Each is read from its ``cfg`` path, or from the packaged
    file under ``DATA`` when the path is ``None``.

    From its second document on, a ``Pipeline`` looks each whitespace word
    up in a memo of the words it has met, each mapped to its kept tokens
    (``_filtered``), for as long as the memo pays. The memo holds one entry
    per distinct whitespace word and one per distinct kept token: it grows
    with the distinct surface forms of the corpus, not with its size, and
    is freed only with the ``Pipeline``, or when it stops paying.
    """

    def __init__(self, cfg: PipelineConfig) -> None:
        self.cfg = cfg
        self.stoplist = _stage("load-stoplist", load_stoplist, cfg.stoplist_path, "stopwords.txt")
        # The word memo: None for the first document, and again once dropped.
        self._words: dict[str, tuple[str, ...]] | None = None
        self._tokens: dict[str, tuple[str]] | None = {}  # None once the memo is dropped
        self._looked = self._new = 0  # words looked up in this window, and those new

    @cached_property
    def lexicon(self) -> list[KeyFeature]:
        return _stage("load-lexicon", load_lexicon, self.cfg.lexicon_path, "lexicon.tsv")

    def _filtered(self, doc: Document) -> tuple[str, ...]:
        """The document's stop-filtered token stream, made one piece of its
        text at a time, with one ``str`` per distinct token: no whole-text
        copy is made.

        The first document is normalized piece by piece (``tokens``) and
        interned on its own (``interned``): a ``Pipeline`` that serves one
        document, as ``run_pipeline`` and the ``represent`` and ``features``
        commands do, never fills the memo, whose cold start costs more than
        it saves on a single text. Later documents are the chain of their
        words' memo entries (``_entries``) until the memo is dropped; every
        document after that is served as the first was."""
        if self._words is None:
            mode, stoplist = self.cfg.mode, self.stoplist
            kept = (remove_stopwords(t, stoplist, mode) for t in tokens(doc.text, mode))
            # Made straight into a tuple: a list would be copied into it, and
            # both would be alive at once.
            stream = tuple(interned(kept))
            if self._tokens is not None:  # the first document
                self._words = {}
            return stream
        entries = map(self._entries, pieces(doc.text))
        stream = tuple(chain.from_iterable(chain.from_iterable(entries)))
        if self._words is None:  # dropped during this document
            self._tokens = None
        return stream

    def _entries(self, piece: str) -> Iterator[tuple[str, ...]]:
        """The memo entry of each whitespace word of ``piece``, in order.

        The words not yet in the memo are normalized in one ``normalize``
        call, joined by line feeds and split back at them: ``normalize`` is
        word-local and keeps every line feed. Their tokens are stop-filtered
        in one ``remove_stopwords`` call, whose rules are token by token.
        Each kept token is entered once in the ``Pipeline``, as the
        one-token entry that every word normalized to it shares; a word
        normalized to several tokens gets the chain of theirs
        (``_Entries``). The words are looked up, and the entries made, by
        C ``map``s: no Python code runs per word but for a word of several
        tokens.

        The memo pays only where words repeat. Once a window of
        ``_WINDOW`` words or more has had more than 3 in 8 of them new, the
        memo is dropped for good: on generated ``matrix`` corpora of 150
        documents, it paid where the first window judged had up to 35% of
        its words new, broke even near 40% and lost from 42%. The memo's
        first window, in which every entry was made, is its cold start and
        is not judged. The pieces left of the document are served as the
        first document is, interned as the memo's tokens were.
        """
        memo, mode = self._words, self.cfg.mode
        if memo is None:
            kept = remove_stopwords(tokenize(normalize(piece, mode)), self.stoplist, mode)
            return map(self._tokens.setdefault, kept, zip(kept))
        words = piece.split()
        new = dict.fromkeys(filterfalse(memo.__contains__, words))  # each once, in order
        if new:
            text = normalize("\n".join(new), mode)
            found = tokenize(text)
            kept = remove_stopwords(found, self.stoplist, mode)
            entry = _Entries.fromkeys(found, ())
            entry[""] = ()
            entry.update(zip(kept, map(self._tokens.setdefault, kept, zip(kept))))
            memo.update(zip(new, map(entry.__getitem__, text.split("\n"))))
        self._looked += len(words)
        self._new += len(new)
        if self._looked >= _WINDOW:
            if 8 * self._new > 3 * self._looked and len(memo) > self._new:
                self._words = None
            self._looked = self._new = 0
        return map(memo.__getitem__, words)

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


class _Entries(dict):
    """Each token of some words' normalized text, and the empty text,
    mapped to its memo entry: itself alone if it is kept, else nothing.
    A word's text of several tokens, or with whitespace at an end, is no
    key; its entry is made from its tokens' entries."""

    def __missing__(self, text: str) -> tuple[str, ...]:
        return tuple(chain.from_iterable(map(self.__getitem__, text.split())))


def tokens(text: str, mode: Mode) -> Iterator[tuple[str, ...]]:
    """The tokens of each piece of ``text`` (``normalize.pieces``), in
    order, for a ``Pipeline``'s first document and the ``normalize`` and
    ``tokenize`` commands alike.
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

    Row i is document i's order-n ``counts`` itself, keyed by gram: no
    count is copied, and the columns sum to those corpus counts.
    """
    bundles = list(bundles)  # read three times below; a generator only once
    vocabulary: dict[NGram, int] = {}
    for b in bundles:
        if n not in b.tables:
            raise OrderMismatchError(n, min(b.tables, default=0))
        t = b.tables[n].counts  # summed into the corpus counts in C, not per gram
        vocabulary.update(zip(t, map(add, map(vocabulary.get, t, repeat(0)), t.values())))
    return DocTermMatrix(
        n=n,
        doc_ids=tuple(b.doc_id for b in bundles),
        features=tuple(map(itemgetter(0), rank_features(vocabulary))),
        rows=tuple(b.tables[n].counts for b in bundles),
    )


# --- serialization -----------------------------------------------------

def to_json(payload: object) -> Iterator[bytes]:
    """The UTF-8 of the ``ENCODER`` text of ``payload`` and a closing
    newline, in pieces to write as they are made; joined and decoded, they
    are what ``json.dumps`` gives with the same settings, plus the newline."""
    return map(str.encode, chain(ENCODER.iterencode(payload), ["\n"]))


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


def bundle_to_tsv(b: RepresentationBundle) -> bytes:
    """The UTF-8 "gram<TAB>count" rows of the tables in ascending order,
    blank-line separated when several, made whole by one ``join``: each run
    of equal counts is its grams' bytes (``count_runs``) joined by, and
    ended with, the same tail. No table's TSV is copied into the whole, and
    the whole is never a ``str`` to encode. A table is empty exactly when
    its TSV is. A word holding a lone surrogate, which a table built by
    hand or read by ``bundle_from_json`` can hold and a pipeline's cannot,
    is a ``UnicodeEncodeError`` raised here."""
    pieces: list[bytes] = []
    for n in sorted(b.tables):
        counts = b.tables[n].counts
        if pieces and counts:
            pieces.append(b"\n")
        for count, grams in count_runs(counts):
            tail = b"\t%d\n" % count
            pieces += tail.join(grams), tail
    return b"".join(pieces)


def bundle_to_json(b: RepresentationBundle) -> Iterator[bytes]:
    """``to_json`` of one table object, or of a list in ascending order when several."""
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
    m: DocTermMatrix, heads: Iterable[bytes], sep: bytes, tail: bytes, skip: int = 0
) -> Iterator[bytes]:
    """One line of bytes per document: its head, ``sep + count`` for every
    feature, then ``tail``, with the first ``skip`` bytes after the head left out.

    Each row is a byte copy of one line of zeros, in which gram g's cell
    is the byte at ``at[g]``, with the digit of each count from 0 to 9
    written there by C ``map``s: no Python code runs per cell. A count
    outside 0-9 is spliced in as ``b"%d" % count``, in cell order, so the
    Python work of a row grows only with those cells.

    A row holding a gram that is not a feature is a ValueError that names
    its document and the gram, raised when that row is reached: the lines
    before it have already been yielded.
    """
    lead = len(sep)
    zeros = ((sep + b"0") * len(m.features))[skip:] + tail
    at = dict(zip(m.features, range(lead - skip, len(m.features) * (lead + 1), lead + 1)))
    digit = dict(zip(range(10), b"0123456789"))
    for i, (head, row) in enumerate(zip(heads, m.rows)):
        cells, values = bytearray(zeros), row.values()
        wide: list[tuple[int, int]] = []
        try:
            deque(map(cells.__setitem__, map(at.__getitem__, row),
                      map(digit.__getitem__, values)), maxlen=0)
        except KeyError:  # a count outside 0-9 keeps its 0 here, spliced over below
            stray = next(filterfalse(at.__contains__, row), None)
            if stray is not None:
                raise ValueError(
                    f"the row of document {m.doc_ids[i]!r} holds {stray!r}, "
                    "which is not a feature of the matrix"
                ) from None
            deque(map(cells.__setitem__, map(at.__getitem__, row),
                      map(digit.get, values, repeat(digit[0]))), maxlen=0)
            wide = sorted(compress(zip(map(at.__getitem__, row), values),
                                   map(not_, map(digit.__contains__, values))))
        line, pieces, start = memoryview(cells), [head], 0
        for cell, count in wide:
            pieces += line[start:cell], b"%d" % count
            start = cell + 1
        pieces.append(line[start:])
        yield b"".join(pieces)


# The characters that end a TSV cell or row: TAB, and every character at
# which str.splitlines breaks a line.
_TSV_BREAKS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def matrix_to_tsv(m: DocTermMatrix) -> Iterator[bytes]:
    """UTF-8 TSV lines, made one at a time: a header, then one row per document.

    Every line is ``doc_id`` or a document id followed by ``<TAB>value``
    per feature. Each row is a patched copy of one line of zeros
    (``_dense_rows``), so only one dense row exists at a time. An empty
    matrix yields nothing.

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
    header = ("\t".join(chain(["doc_id"], map(" ".join, m.features))) + "\n").encode()
    return chain([header], _dense_rows(m, map(str.encode, m.doc_ids), b"\t", b"\n"))


def matrix_to_json(m: DocTermMatrix) -> Iterator[bytes]:
    """The bytes ``to_json`` gives for ``{n, docs, features, cells}``, made
    one dense row at a time.

    ``ENCODER`` lays out the rest; ``cells[i]`` is document i's dense row.
    Like a TSV row, it is a patched copy of one line of zeros (``_dense_rows``),
    ``",\\n      0"`` per feature, whose first comma gives way to the row's ``[``.
    """
    head = {"n": m.n, "docs": m.doc_ids, "features": m.features}
    yield ENCODER.encode(head)[:-2].encode()  # up to its closing "\n}"
    yield b',\n  "cells": ['
    heads = chain([b"\n    ["], repeat(b",\n    ["))
    yield from _dense_rows(m, heads, b",\n      ", b"\n    ]" if m.features else b"]", skip=1)
    yield b"\n  ]" if m.rows else b"]"
    yield b"\n}\n"


def features_to_tsv(features: list[KeyFeature]) -> bytes:
    """UTF-8 "gram<TAB>count<TAB>gloss<TAB>category" rows, one per feature, made whole."""
    return "".join(
        f"{' '.join(f.gram)}\t{f.count}\t{f.gloss}\t{f.category.value}\n" for f in features
    ).encode()


def features_to_json(doc_id: str, features: list[KeyFeature]) -> Iterator[bytes]:
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
    data: bytes | Iterable[bytes], destination: str | os.PathLike[str] | None
) -> None:
    """Write UTF-8 ``data`` to a file, or to stdout when destination is
    None, whatever stdout's own encoding: one ``bytes`` object, or an
    iterable of them written as they are made, so that only one is alive at
    a time. Each chunk's bytes are written until all are taken: a pipe
    whose reader went away takes part of a write with no error, and the
    next write raises BrokenPipeError. A stdout with no ``buffer``, such as
    an ``io.StringIO`` put in its place, is written each chunk's decoded
    text, once.
    """
    if isinstance(data, bytes):
        data = [data]
    stdout = getattr(sys.stdout, "buffer", sys.stdout)
    sink = nullcontext(stdout) if destination is None else open(destination, "wb")
    with sink as fh:
        for chunk in data:
            if fh is sys.stdout:
                fh.write(chunk.decode())
                continue
            written = fh.write(chunk)
            while written < len(chunk):
                written += fh.write(memoryview(chunk)[written:])
        fh.flush()
