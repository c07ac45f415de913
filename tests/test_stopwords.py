from __future__ import annotations

import pytest

from igbotext import EmptyStopListWarning, Mode
from igbotext.normalize import load_stoplist, normalize, remove_stopwords, tokenize

from golden_doc1 import GOLDEN_FILTERED

GOLDEN = Mode.PAPER_GOLDEN
STRICT = Mode.STRICT


def test_load_splits_on_commas_and_newlines():
    sl = load_stoplist("ndi, nke,\na", "mem")
    assert sl == frozenset({"ndi", "nke", "a"})


def test_load_splits_at_every_line_break():
    # Every break of str.splitlines ends an entry, as it ends a lexicon
    # line: an entry holding one could never match a token.
    for brk in ("\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        sl = load_stoplist(f"na ya{brk}nke,{brk}ahụ", "mem")
        assert sl == frozenset({"na ya", "nke", "ahụ"}), ascii(brk)


def test_load_lowercases_and_dedupes():
    sl = load_stoplist("Ndi, NDI, nke", "mem")
    assert sl == frozenset({"ndi", "nke"})


def test_load_folds_entries_like_text():
    # NFD, tone-marked and upper-case spellings of one word are one entry:
    # the token that normalize makes of them.
    sl = load_stoplist("ahu\u0323, Àhụ, A\u0300HU\u0323, àhụ́", "mem")
    assert sl == frozenset({"ahụ"})


@pytest.mark.parametrize("entry", ["ahu\u0323", "Àhụ"])
def test_any_spelling_of_an_entry_removes_its_token(entry):
    sl = load_stoplist(entry, "mem")
    tokens = tokenize(normalize("Ahụ ụlọ àhụ", GOLDEN))
    assert remove_stopwords(tokens, sl, GOLDEN) == ("ụlọ",)


def test_load_empty_warns():
    with pytest.warns(EmptyStopListWarning):
        sl = load_stoplist("", "mem")
    assert sl == frozenset()


def test_builtin_list_contents(golden_pipeline):
    # With no stoplist_path, the pipeline reads the shipped file.
    sl = golden_pipeline.stoplist
    for word in ("makana", "ahụ", "na", "ka", "ha", "n’"):
        assert word in sl
    # the fixture keeps these, so they must not be stop words
    for word in ("gi", "hu", "iji", "oburu"):
        assert word not in sl


def test_apostrophe_forms_unify():
    sl = load_stoplist("n'", "mem")
    assert sl == {"n’"}  # the straight form is stored as the typographic one


def test_filter_drops_list_members(golden_pipeline):
    sl = golden_pipeline.stoplist
    out = remove_stopwords(("anya", "makana", "projekto"), sl, GOLDEN)
    assert out == ("anya", "projekto")


def test_filter_doc1_golden(doc1, golden_pipeline):
    stream = tokenize(normalize(doc1.text, GOLDEN))
    out = remove_stopwords(stream, golden_pipeline.stoplist, GOLDEN)
    assert len(out) == 36
    assert out == GOLDEN_FILTERED
    for word in ("a", "na", "ka", "ha", "ga", "ndi", "makana", "ahụ"):
        assert word not in out


def test_strict_filter_drops_short_tokens(golden_pipeline):
    sl = golden_pipeline.stoplist
    out = remove_stopwords(("hu", "gi", "anya"), sl, STRICT)
    assert out == ("anya",)


def test_length_counts_scalars_not_bytes():
    sl = frozenset()
    out = remove_stopwords(("ahụ",), sl, STRICT)
    assert out == ("ahụ",)  # three scalars, survives


def test_filter_reindexes_from_zero(golden_pipeline):
    sl = golden_pipeline.stoplist
    out = remove_stopwords(("na", "anya", "na", "projekto"), sl, GOLDEN)
    assert out == ("anya", "projekto")


def test_filter_idempotent(doc1, golden_pipeline):
    stream = tokenize(normalize(doc1.text, GOLDEN))
    once = remove_stopwords(stream, golden_pipeline.stoplist, GOLDEN)
    twice = remove_stopwords(once, golden_pipeline.stoplist, GOLDEN)
    assert twice == once


def test_a_mode_value_means_its_mode_in_both_rules():
    # Both rules read one table by the mode, so "strict" is Mode.STRICT in
    # the length rule as in the boundaries, and an unknown value fails alike.
    tokens, words = ("na", "ese", "ab", "ụlọ"), frozenset({"ụlọ"})
    assert remove_stopwords(tokens, words, "strict") == ("ese",)
    for mode in Mode:
        assert normalize("na-ese ab", mode.value) == normalize("na-ese ab", mode)
        kept = remove_stopwords(tokens, words, mode)
        assert remove_stopwords(tokens, words, mode.value) == kept
    with pytest.raises(KeyError, match="bogus"):
        normalize("ab", "bogus")
    with pytest.raises(KeyError, match="bogus"):
        remove_stopwords(tokens, words, "bogus")


def test_empty_list_zero_minlength_is_identity():
    stream = ("a", "na", "anya")
    sl = frozenset()
    assert remove_stopwords(stream, sl, GOLDEN) == stream

