"""Igbo text normalization, its modes and its fold (shared with the data
files), the whitespace tokenization of its output, the stop-word list and
its filter, and the cutting of a text at whitespace into pieces that can
be normalized one at a time.

The two modes differ in two rules, both in ``_RULES``. Both modes turn
apostrophes into word boundaries; Mode.STRICT turns hyphens into word
boundaries too, while Mode.PAPER_GOLDEN keeps hyphenated words
("ihe-ngosi", "na-akwunye") whole. So by the time the text is tokenized,
a strict-mode clitic prefix is already its own word ("na-ese" → "na ese").
Mode.STRICT then drops tokens shorter than three characters along with
the stop words; Mode.PAPER_GOLDEN keeps a token of any length. Tone marks
(grave, acute, macron) are removed; the dot below ị/ọ/ụ is part of the
letter and always preserved.

The shipped stop-word list transcribes the published sample list;
stop-word inventories are corpus-dependent, so the list is a replaceable
data file, not code.
"""

from __future__ import annotations

import re
import unicodedata
import warnings
from collections.abc import Iterator
from enum import Enum
from itertools import filterfalse

from .errors import EmptyStopListWarning


class Mode(str, Enum):
    """Two documented pipeline behaviours, each valued by its CLI name:
    PAPER_GOLDEN ("paper"), under which the golden doc1 frequency tables
    were produced, and STRICT ("strict"). They differ in the two rules of
    ``_RULES``. Any other value is a ValueError that names it.
    """

    PAPER_GOLDEN = "paper"
    STRICT = "strict"


# Each mode's two rules: the characters that ``normalize`` turns into word
# boundaries, and the fewest characters (Unicode scalar values) of a token
# that ``remove_stopwords`` keeps. Both read the table by ``[mode]``, so a
# mode's value ("strict") has its mode's rules in both, and any other
# value is a KeyError in both.
_RULES = {Mode.PAPER_GOLDEN: ("'’", 1), Mode.STRICT: ("'’-", 3)}

# Combining marks that encode tone, stripped after canonical decomposition.
TONE_MARKS = "\u0300\u0301\u0304"  # grave, acute, macron
# The Igbo dotted letters, each with its NFD spelling (base letter plus
# U+0323 or U+0307), which ``fold`` recomposes by hand.
_DOTTED = tuple((unicodedata.normalize("NFD", c), c) for c in "ịọụṅ")


def _toned() -> dict[str, str]:
    """Each tone mark, and each character whose canonical decomposition
    holds one (ì, é, ǹ, ờ, ǘ …), mapped to its fold by the definition:
    lowered, decomposed, tone marks dropped, recomposed.

    Every such character is in U+00C0..U+04FF or U+1E00..U+1FFF, so only
    these blocks are scanned (a test scans the whole code space)."""
    tones = frozenset(TONE_MARKS)
    table = {}
    for c in map(chr, (*range(0xC0, 0x500), *range(0x1E00, 0x2000))):
        if not tones.isdisjoint(unicodedata.normalize("NFD", c)):
            kept = (ch for ch in unicodedata.normalize("NFD", c.lower()) if ch not in tones)
            table[c] = unicodedata.normalize("NFC", "".join(kept))
    return table


_TONED = _toned()
# The keys of ``_TONED`` as one class, captured, so that ``split`` keeps them.
_TONED_SPLIT = re.compile(f"([{''.join(_TONED)}])")

# Currency signs plus the enumerated punctuation/special characters.
_CURRENCY = "£€₦$"  # £ € ₦ $
_PUNCTUATION = ":;?!\"{}+&[]<>/@*=^%,.()" + "“”"  # incl. “ ”

# The deleted characters are one regex class, one scan; str.translate
# walks a dict per character and is about ten times slower on non-ASCII
# text. For a few characters, though, one str.replace each beats a regex
# class: so the tone marks are stripped, and the apostrophes (and, in
# strict mode, hyphens) turned into word boundaries.
_DELETED = re.compile(f"[{re.escape(_CURRENCY + _PUNCTUATION)}]")

# The two scans of the digit rule (``normalize``).
_DIGIT_TAIL = re.compile(r"[0-9]\S*")
_DIGIT_HEAD = re.compile(r"0\S*")

# A word that starts with a combining mark (general category Mn, Mc or
# Me): the mark was cut off from its letter, or stood alone. The class of
# the first character is a cheap superset, checked character by character
# on each match: no mark is below U+0300 or in U+1E00..U+20CF (Latin
# Extended Additional, the block of ị, ọ, ụ and ṅ, up to the currency
# signs), nor is U+1680 or U+3000, the only whitespace left outside those
# ranges, so a match never starts at whitespace. The lookbehind asks for
# whitespace, or the start of the text, before that character. A pattern
# led by a class is found by a C scan for the class.
_MARK_LED_WORD = re.compile("[^\x00-\u02ff\u1680\u1e00-\u20cf\u3000](?<!\\S.)\\S*")


def _drop_leading_marks(match: re.Match[str]) -> str:
    word = match.group()
    i = 0
    while i < len(word) and unicodedata.category(word[i])[0] == "M":
        i += 1
    return word[i:]


def _strip_tones(text: str) -> str:
    """Lowered ``text`` with each tone mark and toned character replaced
    by its fold (``_TONED``), and ị, ọ, ụ and ṅ spelled in NFD recomposed by
    hand: the input of ``fold``'s NFC."""
    parts = _TONED_SPLIT.split(text.lower())
    text = "".join(map(_TONED.get, parts, parts))
    for spelled, letter in _DOTTED:
        text = text.replace(spelled, letter)
    return text


def fold(text: str) -> str:
    """``text`` lowercased, tone marks stripped, in NFC: the one fold of
    text (``normalize``), stop-word entries and lexicon phrases.

    By definition the lowered text is decomposed canonically, the grave,
    acute and macron marks removed and the rest recomposed, so "È" and
    "E" + U+0300 fold alike. The dot below of ị, ọ and ụ is part of the
    letter and stays.

    The whole text is never decomposed. Each tone mark is deleted, and
    each character whose decomposition holds one is replaced by the NFC of
    that decomposition without it (``_TONED``, one regex class, one scan).
    Each of ị, ọ, ụ and ṅ spelled in NFD is recomposed by hand: a lone
    U+0323 or U+0307 may compose with the letter before it, so NFC cannot
    pass text holding one by its quick check and would recompose all of
    it. Each replacement swaps in a canonically equivalent sequence, so
    the NFC that always follows gives the definition's result for any
    input; on Igbo text, and on text with other precomposed letters (ñ, ẹ,
    ü), it ends at its quick check."""
    return unicodedata.normalize("NFC", _strip_tones(text))


def normalize(text: str, mode: Mode) -> str:
    """Normalized NFC text, whose words are ``tokenize``'s tokens.

    Steps, in order: ``fold`` (lowercase, Ụ→ụ included; strip tone marks);
    drop every word containing an ASCII digit; delete currency signs and
    the listed punctuation; turn apostrophes (and, in strict mode,
    hyphens) into word boundaries; recompose; drop the combining marks
    that start a word. Words emptied by deletion vanish, and so do words
    of marks alone.
    """
    # A word holding an ASCII digit is dropped in two scans. Each pattern
    # starts with a digit, so a C scan finds every match start and no
    # match is tried at every word. The first turns each word's tail,
    # from its first ASCII digit to its end, into the marker "0". "0" is
    # a safe marker: every ASCII digit was in some tail, so each "0" left
    # is a marker, and it is the last character of its word. In the
    # reversed text the second scan finds each marker as the first
    # character of its word and removes it with the rest of that word,
    # the word's reversed head. Whitespace stays where it was.
    text = _DIGIT_TAIL.sub("0", fold(text))
    text = _DIGIT_HEAD.sub("", text[::-1])[::-1]
    text = _DELETED.sub("", text)
    for boundary in _RULES[mode][0]:
        text = text.replace(boundary, " ")
    # A deleted character can leave a letter next to the combining mark
    # that followed it ("ahu.̣" → "ahụ"), so the result is recomposed.
    text = unicodedata.normalize("NFC", text)
    # A mark still at a word start has no letter to belong to ("u'̣lo").
    return _MARK_LED_WORD.sub(_drop_leading_marks, text)


# The fewest characters in a piece of ``pieces`` that is not the last.
_PIECE = 1 << 14

# Whitespace: re's \s and str.isspace agree on every code point, so a cut
# after a match is a cut between the words of str.split.
_SPACE = re.compile(r"\s")


def pieces(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces that rejoin to it, each cut right
    after a whitespace character, so that no word is split.

    A piece ends right after the first whitespace at or past its
    ``_PIECE``-th character, or at the end of the text: every piece but
    the last has at least ``_PIECE`` characters, and outgrows them only by
    the word crossing that character.
    """
    start, end = 0, len(text)
    while start < end:
        space = _SPACE.search(text, start + _PIECE - 1)
        cut = space.end() if space else end
        yield text[start:cut]
        start = cut


def tokenize(text: str) -> tuple[str, ...]:
    """The whitespace-delimited words of normalized ``text``, in order."""
    return tuple(text.split())


def load_stoplist(text: str, source_id: str) -> frozenset[str]:
    """Parse a stop-word file's text: entries split on commas and at every
    line break (``str.splitlines``, as for the lexicon).

    A list is the frozenset of its entries, trimmed, folded as text is
    (``fold``) and deduplicated, so that any spelling of a word removes its
    normalized token. Entries are stored with the typographic apostrophe
    (U+2019), so that "n'" and "n’" name the same entry. A zero-entry
    result emits EmptyStopListWarning rather than failing.
    """
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
    """Drop stop-list members and the tokens shorter than the mode's least
    length (``_RULES``): three characters in strict mode.

    Length is measured in Unicode scalar values, so "ahụ" counts as three
    characters regardless of its byte length. Normalized tokens carry no
    apostrophe, so they are looked up in the list as they are. Every token
    has a character, so a least length of 1 is no rule: the list alone is
    applied by a C iterator (``filterfalse``), with no Python code per
    token. Otherwise one generator applies both rules; the C form of the
    length rule, ``compress`` over ``map(least.__le__, map(len, tokens))``,
    measured 40-95% slower on Python 3.10 to 3.13.
    """
    least = _RULES[mode][1]
    if least > 1:
        return tuple(t for t in tokens if t not in words and len(t) >= least)
    return tuple(filterfalse(words.__contains__, tokens))
