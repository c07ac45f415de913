"""Compound-word lexicon: taxonomy, file loading, and key-feature matching.

Compound categories follow the six-way analysis of Igbo compounding.
Only two categories show on the surface, and the loader checks both:
exact word repetition (Duplicated) and the interior conjunction "na"
(Coordinate). The rest are lexical knowledge carried by the lexicon file.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress, count

from .errors import LexiconFormatError, LexiconInvariantError
from .ngrams import ORDERS, NGram, rank_rows
from .normalize import fold


class CompoundCategory(str, Enum):
    NOMINAL = "Nominal"
    AGENTIVE = "Agentive"
    DUPLICATED = "Duplicated"
    COORDINATE = "Coordinate"
    PROPER = "Proper"
    DERIVED = "Derived"


# Proper and Derived compounds are written together (single written word).
_SINGLE_WORD_CATEGORIES = frozenset({CompoundCategory.PROPER, CompoundCategory.DERIVED})


@dataclass(frozen=True)
class KeyFeature:
    """A lexicon entry: its folded phrase as ``gram``, gloss, category and
    ``count``, 0 as loaded. ``match_key_features`` sets ``count`` to the
    number of windows of the stop-filtered token stream that spell it."""

    gram: NGram
    gloss: str
    category: CompoundCategory
    count: int


def _validate_entry(entry: KeyFeature, where: str) -> None:
    n = len(entry.gram)
    # A phrase is counted as the windows of its own length, so its count
    # is also an entry of the n-gram table of that order.
    if n not in ORDERS:
        raise LexiconInvariantError(
            f"{where}: phrase must have {ORDERS[0]}..{ORDERS[-1]} words, got {n}"
        )
    if entry.category in _SINGLE_WORD_CATEGORIES:
        if n != 1:
            raise LexiconInvariantError(
                f"{where}: {entry.category.value} compounds are written together (one word), got {n}"
            )
        return
    if n < 2:
        raise LexiconInvariantError(
            f"{where}: {entry.category.value} compounds have at least two words"
        )
    repeated = len(set(entry.gram)) == 1
    if entry.category is CompoundCategory.DUPLICATED and not repeated:
        raise LexiconInvariantError(f"{where}: Duplicated compounds repeat one word exactly")
    if repeated and entry.category is not CompoundCategory.DUPLICATED:
        raise LexiconInvariantError(f"{where}: repeated words demand category Duplicated")
    if entry.category is CompoundCategory.COORDINATE and "na" not in entry.gram[1:-1]:
        raise LexiconInvariantError(f"{where}: Coordinate compounds join words with interior 'na'")


def load_lexicon(text: str, source_id: str) -> list[KeyFeature]:
    """Parse a lexicon's text: one TAB-separated entry per non-empty line.

    Format: phrase (space-separated words) TAB gloss TAB category name.
    Lines starting with '#' are ignored. Each entry is a ``KeyFeature``
    of count 0 whose gram is the phrase folded as text is
    (``normalize.fold``), so that any spelling of a phrase matches its
    normalized tokens. Violations of the category rules raise
    LexiconInvariantError naming the line.
    """
    entries: list[KeyFeature] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        where = f"{source_id}:{lineno}"
        fields = line.split("\t")
        if len(fields) != 3:
            raise LexiconFormatError(f"{where}: expected 3 tab-separated fields, got {len(fields)}")
        phrase_text, gloss, category_name = (f.strip() for f in fields)
        if not phrase_text:
            raise LexiconFormatError(f"{where}: empty phrase")
        try:
            category = CompoundCategory(category_name)
        except ValueError:
            raise LexiconFormatError(f"{where}: unknown category {category_name!r}") from None
        entry = KeyFeature(
            gram=tuple(fold(phrase_text).split()), gloss=gloss, category=category, count=0
        )
        _validate_entry(entry, where)
        entries.append(entry)
    return entries


def match_key_features(tokens: Sequence[str], lex: list[KeyFeature]) -> list[KeyFeature]:
    """The lexicon entries found in a stop-filtered token stream, each a
    copy of its entry with the count set.

    A phrase of n words counts every window of n tokens that spells it,
    overlapping ones included (``a a a`` holds ``a a`` twice): the count
    of the phrase in the stream's order-n table. Every entry whose phrase
    occurs is reported, a duplicate entry as often as it is listed; an
    entry's own count is not read. Output is in rank order
    (``ngrams.rank_rows``): descending count, then the space-joined gram;
    entries equal on both keep their lexicon order.
    """
    tokens = tuple(tokens)
    by_first: dict[str, set[NGram]] = {}
    for entry in lex:
        by_first.setdefault(entry.gram[0], set()).add(entry.gram)
    found: Counter[NGram] = Counter()
    # Only positions whose token starts some phrase are visited; the walk
    # that finds them runs in C.
    for i in compress(count(), map(by_first.__contains__, tokens)):
        for phrase in by_first[tokens[i]]:
            if tokens[i:i + len(phrase)] == phrase:
                found[phrase] += 1
    rows = [(" ".join(e.gram), found[e.gram], e) for e in lex if e.gram in found]
    return [replace(entry, count=n) for _, n, entry in rank_rows(rows)]
