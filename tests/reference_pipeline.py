"""Slow word-by-word reference of the documented text rules.

Differential tests compare the package's stages and tables with this
module. It spells each rule out one word and one character at a time,
with no regular expression or translate table:

1. lowercase, canonically decompose, drop grave/acute/macron, recompose;
2. drop every whitespace-delimited word that holds an ASCII digit;
3. delete currency signs and the listed punctuation inside each word;
4. turn every apostrophe (and, in strict mode, every hyphen) into a word
   boundary;
5. drop stop-list members (straight and typographic apostrophes folded)
   and, in strict mode, tokens shorter than three characters;
6. count every window of n tokens.
"""

from __future__ import annotations

import unicodedata
from collections import Counter

TONE_MARKS = {"\u0300", "\u0301", "\u0304"}  # grave, acute, macron
DELETED = set("£€₦$" + ":;?!\"{}+&[]<>/@*=^%,.()" + "“”")
DIGITS = set("0123456789")
APOSTROPHES = ("'", "’")


def reference_tokens(text: str, strict: bool) -> list[str]:
    decomposed = unicodedata.normalize("NFD", text.lower())
    text = unicodedata.normalize("NFC", "".join(ch for ch in decomposed if ch not in TONE_MARKS))
    boundaries = APOSTROPHES + ("-",) if strict else APOSTROPHES
    tokens: list[str] = []
    for word in text.split():
        if any(ch in DIGITS for ch in word):
            continue
        word = "".join(ch for ch in word if ch not in DELETED)
        for mark in boundaries:
            word = word.replace(mark, " ")
        tokens.extend(word.split())
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
