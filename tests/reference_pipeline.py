"""Slow word-by-word reference of the documented text rules.

Differential tests compare the package's stages and tables with this
module. It spells each rule out one word and one character at a time,
with no regular expression or translate table:

1. lowercase, canonically decompose, drop grave/acute/macron, recompose;
2. drop every whitespace-delimited word that holds an ASCII digit;
3. delete currency signs and the listed punctuation inside each word;
4. turn every apostrophe (and, in strict mode, every hyphen) into a word
   boundary, recompose each word (a deleted character can leave a
   letter next to a combining mark), and drop the combining marks
   (general category Mn, Mc or Me) that start it; a word of marks alone
   vanishes;
5. drop stop-list members (straight and typographic apostrophes folded)
   and, in strict mode, tokens shorter than three characters;
6. count every window of n tokens;
7. rank a table: descending count, ties in code point order of the NFC
   form of the space-joined gram, then in the table's order;
8. for a corpus matrix, merge the documents' tables, rank the merged
   table, and fill every cell of the dense documents × features grid.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter

TONE_MARKS = {"\u0300", "\u0301", "\u0304"}  # grave, acute, macron
DELETED = set("£€₦$" + ":;?!\"{}+&[]<>/@*=^%,.()" + "“”")
DIGITS = set("0123456789")
APOSTROPHES = ("'", "’")


def reference_fold(text: str) -> str:
    decomposed = unicodedata.normalize("NFD", text.lower())
    return unicodedata.normalize("NFC", "".join(ch for ch in decomposed if ch not in TONE_MARKS))


def reference_tokens(text: str, strict: bool) -> list[str]:
    text = reference_fold(text)
    boundaries = APOSTROPHES + ("-",) if strict else APOSTROPHES
    tokens: list[str] = []
    for word in text.split():
        if any(ch in DIGITS for ch in word):
            continue
        word = "".join(ch for ch in word if ch not in DELETED)
        for mark in boundaries:
            word = word.replace(mark, " ")
        for token in word.split():
            token = unicodedata.normalize("NFC", token)
            while token and unicodedata.category(token[0]).startswith("M"):
                token = token[1:]
            if token:
                tokens.append(token)
    return tokens


def reference_filter(tokens: list[str], stopwords: frozenset[str], strict: bool) -> list[str]:
    kept = []
    for token in tokens:
        if token.replace("'", "’") in stopwords:
            continue
        if strict and len(token) < 3:
            continue
        kept.append(token)
    return kept


def reference_table(tokens: list[str], n: int) -> dict[tuple[str, ...], int]:
    windows = Counter()
    for i in range(len(tokens) - n + 1):
        windows[tuple(tokens[i:i + n])] += 1
    return dict(windows)


def reference_rank(table: dict[tuple[str, ...], int]) -> list[tuple[tuple[str, ...], int]]:
    """(gram, count) pairs of ``table`` in rank order, by one tuple-key sort."""
    return sorted(
        table.items(), key=lambda item: (-item[1], unicodedata.normalize("NFC", " ".join(item[0])))
    )


def reference_table_tsv(table: dict[tuple[str, ...], int]) -> str:
    """One "gram<TAB>count" line per entry of ``table``, in rank order."""
    return "".join(f"{' '.join(gram)}\t{count}\n" for gram, count in reference_rank(table))


def reference_matrix(
    tables: list[tuple[str, dict[tuple[str, ...], int]]],
) -> tuple[list[str], list[tuple[str, ...]], list[list[int]]]:
    """Dense matrix of (doc_id, table) pairs: doc ids, ranked features, cells."""
    merged: dict[tuple[str, ...], int] = {}
    for _, table in tables:
        for gram, count in table.items():
            merged[gram] = merged.get(gram, 0) + count
    features = [gram for gram, _ in reference_rank(merged)]
    cells = [[table.get(gram, 0) for gram in features] for _, table in tables]
    return [doc_id for doc_id, _ in tables], features, cells


def reference_matrix_tsv(doc_ids, features, cells) -> str:
    """Header ``doc_id`` plus TAB+feature each, then one such row per document."""
    if not doc_ids:
        return ""
    lines = ["doc_id" + "".join("\t" + " ".join(gram) for gram in features)]
    for doc_id, row in zip(doc_ids, cells):
        lines.append(doc_id + "".join("\t" + str(count) for count in row))
    return "".join(line + "\n" for line in lines)


def reference_matrix_json(n: int, doc_ids, features, cells) -> str:
    payload = {
        "n": n,
        "docs": doc_ids,
        "features": [list(gram) for gram in features],
        "cells": cells,
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
