from __future__ import annotations

import re
import sys
import time
import unicodedata

from igbotext import Mode
from igbotext.normalize import TONE_MARKS, _TONED, _strip_tones, fold, normalize, tokenize
from igbotext.textio import Document

from reference_pipeline import reference_fold

GOLDEN = Mode.PAPER_GOLDEN
STRICT = Mode.STRICT


def test_lowercase_ascii():
    assert normalize("Kpaacharu", GOLDEN) == "kpaacharu"


def test_lowercase_dotted_vowels():
    assert normalize("ỤlỌ", GOLDEN) == "ụlọ"  # Ụ
    assert normalize("Ị", GOLDEN) == "ị"  # Ị → ị


def test_lowercase_all_caps():
    assert normalize("JIKOO", GOLDEN) == "jikoo"


def test_strip_grave():
    assert fold("ihè") == "ihe"


def test_strip_acute():
    assert fold("ájá") == "aja"


def test_strip_macron():
    assert fold("ū") == "u"


def test_dot_below_is_kept():
    assert fold("ụlọ") == "ụlọ"


def test_strip_handles_combining_sequences():
    # decomposed e + grave behaves like the precomposed letter
    assert fold("ihè") == "ihe"


def test_strip_tone_mark_on_dotted_vowel():
    # ụ with grave: tone mark removed, dot below kept
    assert fold("ụ̀") == "ụ"


def test_fold_matches_the_reference_around_every_composing_code_point():
    # Every code point with a canonical decomposition or a non-zero
    # combining class: alone, after a letter that a dot can compose with,
    # and before the dot below, the dot above, a tone mark, or both.
    points = [
        chr(c) for c in range(0x110000)
        if not 0xD800 <= c < 0xE000
        and (unicodedata.combining(chr(c))
             or unicodedata.decomposition(chr(c))[:1] not in ("", "<"))
    ]
    differ = [
        text
        for ch in points
        for before in ("", "o", "i", "u", "n", "O", "N")
        for after in ("", "\u0323", "\u0307", "\u0300", "\u0323\u0300")
        if fold(text := before + ch + after) != reference_fold(text)
    ]
    assert differ == []


def test_fold_of_igbo_letters_ends_at_the_nfc_quick_check():
    # Before fold's NFC, no Igbo letter may be left in a form that NFC
    # must recompose, whatever its case, spelling or tone mark; else NFC
    # recomposes the whole text.
    letters = "abcdefghiịjklmnṅoọprstuụvwyz"
    for letter in letters + letters.upper():
        for tone in ("",) + tuple(TONE_MARKS):
            for form in ("NFC", "NFD"):
                word = unicodedata.normalize(form, letter + tone)
                assert unicodedata.is_normalized("NFC", _strip_tones(word)), ascii(word)


def _nfd(c: str) -> str:
    return unicodedata.normalize("NFD", c)


def test_strip_tones_leaves_letters_with_other_marks_composed():
    # A precomposed letter whose marks are none of the tone marks (ñ, ẹ, ü,
    # ç, ộ …) is left as it is, so fold's NFC passes it by its quick check,
    # alone or in Igbo text, and does not recompose the whole text.
    letters = [
        c for c in map(chr, range(0x110000))
        if unicodedata.category(c)[0] == "L"
        and unicodedata.is_normalized("NFC", c)
        and len(_nfd(c)) > 1
        and all(unicodedata.category(m)[0] == "M" for m in _nfd(c)[1:])
        and set(TONE_MARKS).isdisjoint(_nfd(c))
    ]
    assert {"ñ", "ẹ", "ü", "ç", "ộ"} <= set(letters)
    text = "Ọ̀ nà-àgụ̀ akwụkwọ n’ụ́lọ̀ ahụ̄ "
    for letter in letters:
        assert unicodedata.is_normalized("NFC", _strip_tones(letter)), ascii(letter)
        assert unicodedata.is_normalized("NFC", _strip_tones(text + letter)), ascii(letter)


def test_tone_table_holds_every_toned_character_and_its_fold():
    # The table is built from two blocks; the whole code space shows that
    # they hold every character whose decomposition carries a tone mark in
    # this interpreter's Unicode version.
    toned = {
        c for c in map(chr, range(0x110000))
        if c in TONE_MARKS or not set(TONE_MARKS).isdisjoint(_nfd(c))
    }
    assert set(_TONED) == toned
    for c, folded in _TONED.items():
        assert folded == reference_fold(c), ascii(c)


def test_remove_noise_punctuation():
    assert normalize('ruo oru, pikinye "jikoo".', GOLDEN) == "ruo oru pikinye jikoo"


def test_remove_noise_currency_and_digits():
    assert tokenize(normalize("₦500 efu", GOLDEN)) == ("efu",)


def test_remove_noise_symbols():
    assert tokenize(normalize("a + b = c", GOLDEN)) == ("a", "b", "c")


def test_remove_noise_date_like_words_vanish():
    assert tokenize(normalize("taa 12/05/2016 bu", GOLDEN)) == ("taa", "bu")


def test_remove_noise_keeps_plain_igbo_words():
    text = "nwa akwukwo na ụlọ"
    assert normalize(text, GOLDEN) == text


def test_digit_rule_is_linear_in_word_length():
    # One 200 000-character word: a backtracking digit search would take
    # minutes here.
    word = "a" * 200_000
    start = time.perf_counter()
    assert normalize(word, GOLDEN) == word
    assert normalize(word + "1", GOLDEN) == ""
    assert normalize("1" + word, GOLDEN) == ""
    # 100 000 one-digit words: one match per word in each scan.
    assert tokenize(normalize("7 " * 100_000, GOLDEN)) == ()
    assert time.perf_counter() - start < 5.0


def test_digit_word_after_any_whitespace_vanishes():
    # A line feed, an ideographic space and the file separator all end a
    # word for str.split, so the digit word after each one goes.
    for space in ("\n", "\u3000", "\x1c"):
        assert tokenize(normalize(f"taa{space}12b bu", GOLDEN)) == ("taa", "bu")


def test_digit_word_at_the_start_vanishes():
    assert tokenize(normalize("2016 taa", GOLDEN)) == ("taa",)
    assert tokenize(normalize("ọ2 taa 1 2 bu", STRICT)) == ("taa", "bu")


def test_digit_word_alone_leaves_nothing():
    assert normalize("a1", GOLDEN) == ""
    assert normalize("12/05/2016", STRICT) == ""


def test_split_hyphens_strict():
    assert normalize("nje-ozi", STRICT) == "nje ozi"


def test_split_apostrophes_strict():
    assert normalize("n’ulo akwukwo", STRICT) == "n ulo akwukwo"


def test_hyphens_kept_in_golden_mode():
    assert normalize("ihe-ngosi", GOLDEN) == "ihe-ngosi"


def test_straight_apostrophe_also_splits():
    assert normalize("n'ulo", GOLDEN) == "n ulo"


def test_strict_splits_every_apostrophe():
    # A word starting with the n’ clitic splits at its other apostrophes too.
    assert normalize("n’ulo’s aka'nri", STRICT) == "n ulo s aka nri"
    assert normalize("n'ulo's", STRICT) == "n ulo s"


def test_normalize_doc1_golden(doc1):
    out = normalize(doc1.text, GOLDEN)
    assert "ahụ ihe-ngosi gi oburu na ichoro" in out
    for ch in ',."':
        assert ch not in out


def test_normalize_empty():
    assert normalize("", GOLDEN) == ""


def test_normalize_strict_splits_tone_marked_hyphen_word():
    assert normalize("nje-ozì", STRICT) == "nje ozi"


def test_normalize_idempotent_on_doc1(doc1):
    once = normalize(doc1.text, GOLDEN)
    assert normalize(once, GOLDEN) == once
    once_strict = normalize(doc1.text, STRICT)
    assert normalize(once_strict, STRICT) == once_strict


def test_normalize_output_is_clean(doc1):
    out = normalize(doc1.text, STRICT)
    assert out == out.lower()
    decomposed = unicodedata.normalize("NFD", out)
    assert not any(m in decomposed for m in ("̀", "́", "̄"))
    assert not any(ch.isdigit() for ch in out)
    assert "-" not in out and "'" not in out and "’" not in out


def test_deleted_character_before_dot_below_leaves_nfc():
    # "ahu.\u0323": the listed "." sits between "u" and its dot below.
    # Deleting it must give the NFC stop word "ahụ", not a decomposed twin.
    for mode in (GOLDEN, STRICT):
        assert normalize("ahu.\u0323", mode) == "ahụ"
        assert normalize("u\"\u0323lo(\u0323)", mode) == "ụlọ"


def test_not_equal_sign_is_not_the_listed_equals():
    # "≠" decomposes to "=" + U+0338; neither spelling loses its "=".
    for mode in (GOLDEN, STRICT):
        assert normalize("a\u2260b", mode) == "a\u2260b"
        assert normalize("a=\u0338b", mode) == "a\u2260b"


def test_combining_mark_cut_off_from_its_letter_is_dropped():
    # The apostrophe, and in strict mode the hyphen, between a letter and
    # its dot below leaves the mark at a word start, with no letter.
    assert tokenize(normalize("u'\u0323lo ahu-\u0323", STRICT)) == ("u", "lo", "ahu")
    assert tokenize(normalize("u'\u0323lo ahu-\u0323", GOLDEN)) == ("u", "lo", "ahu-\u0323")


def test_word_of_combining_marks_alone_is_not_counted(golden_pipeline):
    bundle = golden_pipeline.represent(Document("d", "ahu \u0323 ulo"))
    assert bundle.tables[1].counts == {("ahu",): 1, ("ulo",): 1}
    assert bundle.tables[2].counts == {("ahu", "ulo"): 1}


def test_regex_whitespace_is_str_isspace():
    # normalize.pieces cuts after a match of \s; the cut falls between the
    # words of str.split only if the two agree on every code point.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
