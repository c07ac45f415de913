"""Compound-word lexicon: taxonomy, file loading, and key-feature matching.

Compound categories follow the six-way analysis of Igbo compounding.
Only two categories show on the surface, and the loader checks both:
exact word repetition (Duplicated) and the interior conjunction "na"
(Coordinate). The rest are lexical knowledge carried by the lexicon file.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count

from .errors import LexiconFormatError, LexiconInvariantError
from .ngrams import ORDERS, NGram, rank_rows
from .normalize import strip_tone_marks
from .textio import decode_utf8


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
class LexiconEntry:
    phrase: tuple[str, ...]
    gloss: str
    category: CompoundCategory


@dataclass(frozen=True)
class KeyFeature:
    """A lexicon phrase found in a document: ``count`` is the number of
    windows of the stop-filtered token stream that spell it."""

    gram: NGram
    gloss: str
    category: CompoundCategory
    count: int


def _validate_entry(entry: LexiconEntry, where: str) -> None:
    n = len(entry.phrase)
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
    repeated = len(set(entry.phrase)) == 1
    if entry.category is CompoundCategory.DUPLICATED and not repeated:
        raise LexiconInvariantError(f"{where}: Duplicated compounds repeat one word exactly")
    if repeated and entry.category is not CompoundCategory.DUPLICATED:
        raise LexiconInvariantError(f"{where}: repeated words demand category Duplicated")
    if entry.category is CompoundCategory.COORDINATE and "na" not in entry.phrase[1:-1]:
        raise LexiconInvariantError(f"{where}: Coordinate compounds join words with interior 'na'")


def load_lexicon(data: bytes, source_id: str) -> list[LexiconEntry]:
    """Parse a lexicon file: one TAB-separated entry per non-empty line.

    Format: phrase (space-separated words) TAB gloss TAB category name.
    Lines starting with '#' are ignored. Phrases are folded as text is
    (lowercase, tone marks stripped, NFC), so that any spelling of a
    phrase matches its normalized tokens. Violations of the category
    rules raise LexiconInvariantError naming the line.
    """
    text = decode_utf8(data, source_id).text
    entries: list[LexiconEntry] = []
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
        entry = LexiconEntry(
            phrase=tuple(strip_tone_marks(phrase_text.lower()).split()),
            gloss=gloss,
            category=category,
        )
        _validate_entry(entry, where)
        entries.append(entry)
    return entries


def match_key_features(tokens: Sequence[str], lex: list[LexiconEntry]) -> list[KeyFeature]:
    """Lexicon phrases found in a stop-filtered token stream, with counts.

    A phrase of n words counts every window of n tokens that spells it,
    overlapping ones included (``a a a`` holds ``a a`` twice): the count
    of the phrase in the stream's order-n table. Every entry whose phrase
    occurs is reported, a duplicate entry as often as it is listed. Output
    is in rank order (``ngrams.rank_rows``): descending count, then the
    space-joined gram; entries equal on both keep their lexicon order.
    """
    tokens = tuple(tokens)
    by_first: dict[str, set[NGram]] = {}
    for entry in lex:
        by_first.setdefault(entry.phrase[0], set()).add(entry.phrase)
    found: Counter[NGram] = Counter()
    # Only positions whose token starts some phrase are visited; the walk
    # that finds them runs in C.
    for i in compress(count(), map(by_first.__contains__, tokens)):
        for phrase in by_first[tokens[i]]:
            if tokens[i:i + len(phrase)] == phrase:
                found[phrase] += 1
    rows = [(" ".join(e.phrase), found[e.phrase], e) for e in lex if e.phrase in found]
    return [
        KeyFeature(gram=entry.phrase, gloss=entry.gloss, category=entry.category, count=n)
        for _, n, entry in rank_rows(rows)
    ]
