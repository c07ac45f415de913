"""Igbo text normalization, its modes and its fold (shared with the data
files), the whitespace tokenization of its output, and the cutting of a
text at whitespace into pieces that can be normalized one at a time.

Both modes turn apostrophes into word boundaries; Mode.STRICT turns
hyphens into word boundaries too, while Mode.PAPER_GOLDEN keeps
hyphenated words ("ihe-ngosi", "na-akwunye") whole. So by the time the
text is tokenized, a strict-mode clitic prefix is already its own word
("na-ese" → "na ese"). Tone marks (grave, acute, macron) are removed;
the dot below ị/ọ/ụ is part of the letter and always preserved.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Iterator
from enum import Enum


class Mode(str, Enum):
    """Two documented pipeline behaviours, each valued by its CLI name.

    Both modes split words at apostrophes (``_BOUNDARY``). PAPER_GOLDEN
    ("paper") keeps hyphenated tokens whole and applies no minimum token
    length (``stopwords.remove_stopwords``); it is the configuration the
    golden doc1 frequency tables were produced under. STRICT ("strict")
    also splits words at hyphens, which separates clitic prefixes
    ("na-ese" → "na ese"), and drops tokens shorter than three characters.
    Any other value is a ValueError that names it.
    """

    PAPER_GOLDEN = "paper"
    STRICT = "strict"


# Combining marks that encode tone, stripped after canonical decomposition.
TONE_MARKS = "\u0300\u0301\u0304"  # grave, acute, macron
# The Igbo dotted letters, each with its NFD spelling (base letter plus
# U+0323 or U+0307), which ``fold`` recomposes by hand.
_DOTTED = tuple((unicodedata.normalize("NFD", c), c) for c in "ịọụṅ")

# Currency signs plus the enumerated punctuation/special characters.
_CURRENCY = "£€₦$"  # £ € ₦ $
_PUNCTUATION = ":;?!\"{}+&[]<>/@*=^%,.()" + "“”"  # incl. “ ”

# The deleted characters are one regex class, one scan; str.translate
# walks a dict per character and is about ten times slower on non-ASCII
# text. For a few characters, though, one str.replace each beats a regex
# class: so the tone marks are stripped, and the apostrophes (and, in
# strict mode, hyphens) turned into word boundaries.
_DELETED = re.compile(f"[{re.escape(_CURRENCY + _PUNCTUATION)}]")
_BOUNDARY = {Mode.PAPER_GOLDEN: "'’", Mode.STRICT: "'’-"}

# A whitespace-delimited word holding an ASCII digit (numbers, dates,
# times), with the whitespace before it. Matches start only at
# whitespace, so the text is searched with a space in front. The
# lookahead takes the word's digit-free prefix once and is never
# re-entered, so a word is scanned once; this is the atomic group
# ``(?>[^\s0-9]*)`` spelled for Python 3.10.
_DIGIT_WORD = re.compile(r"\s(?=([^\s0-9]*))\1[0-9]\S*")

# A word that starts with a combining mark (general category Mn, Mc or
# Me) and the space before it: the mark was cut off from its letter, or
# stood alone. The class of the first character is a cheap superset,
# checked character by character on each match: no mark is below U+0300
# or in U+1E00..U+20CF (Latin Extended Additional, the block of ị, ọ, ụ
# and ṅ, up to the currency signs).
_MARK_LED_WORD = re.compile(" [\u0300-\u1dff\u20d0-\U0010ffff]\\S*")


def _drop_leading_marks(match: re.Match[str]) -> str:
    word = match.group()
    i = 1
    while i < len(word) and unicodedata.category(word[i])[0] == "M":
        i += 1
    # A word of marks alone goes with its space.
    return " " + word[i:] if i < len(word) else ""


def _strip_tones(text: str) -> str:
    """Lowered ``text`` decomposed, tone marks removed, and ị, ọ, ụ and ṅ
    recomposed by hand: the input of ``fold``'s NFC."""
    text = unicodedata.normalize("NFD", text.lower())
    for mark in TONE_MARKS:
        text = text.replace(mark, "")
    for spelled, letter in _DOTTED:
        text = text.replace(spelled, letter)
    return text


def fold(text: str) -> str:
    """``text`` lowercased, tone marks stripped, in NFC: the one fold of
    text (``normalize``), stop-word entries and lexicon phrases.

    The lowered text is decomposed canonically, the grave, acute and macron
    marks removed and the rest recomposed, so "È" and "E" + U+0300 fold
    alike. The dot below of ị, ọ and ụ is part of the letter and stays.

    Before the NFC, each of ị, ọ, ụ and ṅ is recomposed by hand
    (``_strip_tones``). A lone U+0323 or U+0307 may compose with the letter
    before it, so NFC cannot pass text holding one by its quick check and
    would recompose all of it. Each replacement swaps in a canonically
    equivalent sequence, so the NFC that always follows gives the same
    result for any input; on Igbo text it ends at its quick check."""
    return unicodedata.normalize("NFC", _strip_tones(text))


def normalize(text: str, mode: Mode) -> str:
    """Normalized NFC text, words joined by single spaces.

    Steps, in order: ``fold`` (lowercase, Ụ→ụ included; strip tone marks);
    drop every word containing a digit; delete currency signs and the listed
    punctuation; turn apostrophes (and, in strict mode, hyphens) into
    word boundaries; recompose; drop the combining marks that start a
    word. Words emptied by deletion vanish, and so do words of marks alone.
    """
    # A digit word goes with the whitespace before it, which a space
    # replaces; split() below drops the extra spaces.
    text = _DELETED.sub("", _DIGIT_WORD.sub(" ", " " + fold(text)))
    for boundary in _BOUNDARY[mode]:
        text = text.replace(boundary, " ")
    text = " ".join(text.split())
    # A deleted character can leave a letter next to the combining mark
    # that followed it ("ahu.̣" → "ahụ"), so the result is recomposed.
    text = unicodedata.normalize("NFC", text)
    # A mark still at a word start has no letter to belong to ("u'̣lo").
    # The pattern finds a word by the space before it, so the first word
    # is given one.
    return _MARK_LED_WORD.sub(_drop_leading_marks, " " + text)[1:]


# The fewest characters in a piece of ``pieces`` that is not the last.
_PIECE = 1 << 14

# Whitespace: re's \s and str.isspace agree on every code point, so a cut
# after a match is a cut between the words of str.split.
_SPACE = re.compile(r"\s")


def pieces(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces that rejoin to it, each cut right
    after a whitespace character, so that no word is split.

    ``normalize`` is word-local, so the non-empty ``normalize`` of the
    pieces, joined by single spaces, is that of the whole text, and
    ``tokenize`` of the pieces, chained, is its token stream. A piece ends
    right after the first whitespace at or past its ``_PIECE``-th
    character, or at the end of the text: every piece but the last has at
    least ``_PIECE`` characters, and outgrows them only by the word
    crossing that character.
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
