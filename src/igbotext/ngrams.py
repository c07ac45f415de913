"""Word n-gram frequency tables and maximum-likelihood probabilities.

N-grams are counted over the stop-word-filtered token stream with gaps
closed: windows run across removed stop words and sentence ends, with no
padding or boundary symbols. Probabilities are raw MLE ratios computed on
demand from integer counts; there is no smoothing, so unseen events are
probability zero and unseen contexts are errors.

Every output is in the rank order stated at ``rank_rows``, in one of three
forms: ``rank_rows`` for lexicon rows that carry their joined gram (the
feature list), ``rank_features`` for ``(gram, count)`` pairs (table JSON,
matrix axis), ``count_runs`` for the UTF-8 bytes of bare joined grams
(table TSV), sorted as bytes where a run is NFC.
"""

from __future__ import annotations

import unicodedata
from collections import _count_elements
from dataclasses import dataclass
from functools import partial
from itertools import groupby, islice
from operator import itemgetter
from typing import Iterator, Mapping, Sequence, TypeVar

from .errors import EmptyModelError, InvalidOrderError, UnknownContextError

NGram = tuple[str, ...]
Row = TypeVar("Row", bound=tuple)

# The supported n-gram orders: tables, configs and lexicon phrases all
# draw on this one range.
ORDERS = (1, 2, 3)


def is_whole(value: object) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_order(n: object) -> bool:
    """Whether ``n`` is an n-gram order: a whole number in ``ORDERS``.
    ``True`` and ``1.0`` both equal 1, yet neither is an order."""
    return is_whole(n) and n in ORDERS


@dataclass(frozen=True)
class NGramTable:
    """Counts of one order's windows and their sum, the number of windows.
    The ``RepresentationBundle`` holding it owns its order and document id."""

    counts: Mapping[NGram, int]
    total_windows: int

    def __post_init__(self) -> None:
        windows = sum(self.counts.values())
        if self.total_windows != windows:
            raise ValueError(
                f"total_windows {self.total_windows!r} is not the sum of the counts, {windows}"
            )


@dataclass(frozen=True)
class LanguageModel:
    """Unigram, bigram and trigram tables built from one token stream."""

    unigrams: NGramTable
    bigrams: NGramTable
    trigrams: NGramTable


def extract_ngrams(tokens: Sequence[str], n: int) -> NGramTable:
    """The table of every contiguous window of n tokens; of T tokens there
    are max(0, T-n+1) windows. Anything but an order (``is_order``) is an
    ``InvalidOrderError``.

    The windows are counted straight into the table's own plain ``dict``,
    keyed in order of first occurrence, by ``collections._count_elements``,
    the C loop behind ``Counter.update``: no ``Counter`` is made and then
    copied. The stream is read through one iterator per position of the
    window, so it is not copied either."""
    if not is_order(n):
        raise InvalidOrderError(n, ORDERS)
    counts: dict[NGram, int] = {}
    _count_elements(counts, zip(*(islice(tokens, i, None) for i in range(n))))
    return NGramTable(counts=counts, total_windows=max(0, len(tokens) - n + 1))


def unigram_probability(m: LanguageModel, w: str) -> float:
    """MLE unigram probability: count(w) over total unigram windows."""
    total = m.unigrams.total_windows
    if total == 0:
        raise EmptyModelError("model has no unigram windows")
    return m.unigrams.counts.get((w,), 0) / total


def bigram_conditional(m: LanguageModel, w1: str, w2: str) -> float:
    """MLE conditional count(w1,w2)/count(w1)."""
    context = m.unigrams.counts.get((w1,), 0)
    if context == 0:
        raise UnknownContextError((w1,))
    return m.bigrams.counts.get((w1, w2), 0) / context


def trigram_conditional(m: LanguageModel, w1: str, w2: str, w3: str) -> float:
    """MLE conditional count(w1,w2,w3)/count(w1,w2)."""
    context = m.bigrams.counts.get((w1, w2), 0)
    if context == 0:
        raise UnknownContextError((w1, w2))
    return m.trigrams.counts.get((w1, w2, w3), 0) / context


_nfc = partial(unicodedata.normalize, "NFC")


def _nfc_gram(row: tuple) -> str:
    return _nfc(row[0])


def rank_rows(rows: list[Row]) -> list[Row]:
    """Sort rows ``(joined gram, count, ...)`` into rank order, in place.

    Rank order is descending count, ties in Unicode code point order of
    the NFC form of the space-joined gram; rows equal on both keep their
    order. Every key is a ``str`` or an ``int``, so neither sort compares
    tuples. The caller makes the joined gram once, for both the sort and
    its output: the feature list (``lexicon.match_key_features``).
    """
    rows.sort(key=_nfc_gram)
    rows.sort(key=itemgetter(1), reverse=True)  # stable, reversed or not
    return rows


def rank_features(counts: Mapping[NGram, int]) -> list[tuple[NGram, int]]:
    """Every ``(gram, count)`` of a count mapping, such as a table's
    ``counts``, in rank order (see ``rank_rows``): a stable sort of the
    items by count, then in each run of equal counts a stable sort of
    indices by the NFC keys of the joined grams. Every step per gram is a
    C callable, and the items are the pairs returned."""
    gram, count = itemgetter(0), itemgetter(1)
    ranked: list[tuple[NGram, int]] = []
    for _, run in groupby(sorted(counts.items(), key=count, reverse=True), key=count):
        run = list(run)
        keys = list(map(_nfc, map(" ".join, map(gram, run))))
        ranked += map(run.__getitem__, sorted(range(len(run)), key=keys.__getitem__))
    return ranked


def count_runs(counts: Mapping[NGram, int]) -> Iterator[tuple[int, list[bytes]]]:
    """``(count, UTF-8 of the joined grams)`` runs of equal counts, in rank
    order (see ``rank_rows``). Every step per gram is a C callable, and no
    tuple is made per gram.

    A run's joined grams are joined by line feeds into one text. When that
    text is NFC and splits back at its line feeds into as many grams, as
    the text of every table that ``normalize`` feeds does, each gram is
    its own NFC key: the text is encoded once, split at the line feeds and
    the bytes sorted. UTF-8 byte order is code point order, and grams of
    equal bytes are equal rows, so no tie can show. Any other run, such as
    one of NFD words or of a word holding a line feed, is sorted stably by
    the NFC keys, then encoded gram by gram. A lone surrogate in a word is
    a ``UnicodeEncodeError``, raised in either case."""
    grams = sorted(counts, key=counts.__getitem__, reverse=True)
    for count, run in groupby(grams, key=counts.__getitem__):
        yield count, _utf8_ranked(list(run))


def _utf8_ranked(run: list[NGram]) -> list[bytes]:
    """The UTF-8 of a run's joined grams in rank order (see ``count_runs``).
    A function of its own, so that the run's text is freed on return."""
    text = "\n".join(map(" ".join, run))
    if _nfc(text) == text:
        rows = text.encode().split(b"\n")
        if len(rows) == len(run):  # no word holds a line feed
            rows.sort()
            return rows
    return list(map(str.encode, sorted(map(" ".join, run), key=_nfc)))
