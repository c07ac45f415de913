from __future__ import annotations

import pytest

from igbotext import LexiconFormatError, LexiconInvariantError
from igbotext.lexicon import CompoundCategory, KeyFeature, load_lexicon, match_key_features


def _load(text: str):
    return load_lexicon(text, "mem")


def test_load_nominal_entry():
    entries = _load("komputa nkunaka\tlaptop\tNominal\n")
    assert entries == [
        KeyFeature(("komputa", "nkunaka"), "laptop", CompoundCategory.NOMINAL, count=0)
    ]


def test_load_coordinate_entry():
    entries = _load("ezi na ụlọ\tfamily\tCoordinate\n")
    assert entries[0].gram == ("ezi", "na", "ụlọ")


def test_repeated_words_demand_duplicated():
    with pytest.raises(LexiconInvariantError):
        _load("mmiri mmiri\twatery\tNominal\n")


def test_duplicated_requires_repetition():
    with pytest.raises(LexiconInvariantError):
        _load("mmiri ozuzo\train\tDuplicated\n")


def test_coordinate_requires_interior_na():
    with pytest.raises(LexiconInvariantError):
        _load("ezi ụlọ\tfamily\tCoordinate\n")


def test_proper_must_be_single_word():
    with pytest.raises(LexiconInvariantError):
        _load("uche chukwu\tname\tProper\n")


def test_phrase_longer_than_the_largest_order_is_rejected():
    # Phrases are counted as windows of the n-gram orders, so a four-word
    # phrase would have no table count to agree with.
    with pytest.raises(LexiconInvariantError) as err:
        _load("ezi ulo oma mma\tgood home\tNominal\n")
    assert "1..3 words, got 4" in str(err.value)


def test_multiword_category_needs_two_words():
    with pytest.raises(LexiconInvariantError):
        _load("ugbo\tvessel\tNominal\n")


def test_bad_field_count_names_line():
    with pytest.raises(LexiconFormatError) as err:
        _load("onye nkuzi\tteacher\n")
    assert ":1" in str(err.value)


def test_empty_phrase_is_format_error():
    with pytest.raises(LexiconFormatError, match=r"^mem:2: empty phrase$"):
        _load("onye nkuzi\tteacher\tNominal\n\tgloss\tNominal\n")


def test_unknown_category_is_format_error():
    with pytest.raises(LexiconFormatError):
        _load("onye nkuzi\tteacher\tVerbish\n")


def test_comments_and_blanks_skipped():
    entries = _load("# heading\n\nonye nkuzi\tteacher\tNominal\n")
    assert len(entries) == 1


def test_phrases_are_lowercased():
    entries = _load("Komputa Nkunaka\tlaptop\tNominal\n")
    assert entries[0].gram == ("komputa", "nkunaka")


def test_phrases_are_folded_like_text():
    # Tone marks, an NFD dot below and capitals: the phrase is the tokens
    # that normalize makes of it, and the category rules see those.
    entries = _load("E\u0300zi nà U\u0323lo\u0323\tfamily\tCoordinate\n")
    assert entries[0].gram == ("ezi", "na", "ụlọ")


def test_builtin_lexicon_loads_and_validates(golden_pipeline):
    # With no lexicon_path, the pipeline reads the shipped file.
    entries = golden_pipeline.lexicon
    phrases = {e.gram for e in entries}
    assert ("komputa", "nkunaka") in phrases
    assert ("okwu", "ntughe") in phrases
    assert ("onyonyo", "komputa") in phrases
    assert ("komputa",) in phrases
    assert ("projekto",) in phrases
    assert len(entries) >= 30


# The two surface rules of the categories, as the loader applies them.
def _category_check(phrase: str, category: str):
    """The loaded category, or the invariant error that rejects it."""
    try:
        return _load(f"{phrase}\tgloss\t{category}\n")[0].category
    except LexiconInvariantError as err:
        return err


def test_detect_duplicated():
    # Exact repetition is Duplicated, and only Duplicated.
    for phrase in ("mmiri mmiri", "ocha ocha ocha"):
        assert _category_check(phrase, "Duplicated") is CompoundCategory.DUPLICATED
        for other in ("Nominal", "Agentive", "Coordinate"):
            assert isinstance(_category_check(phrase, other), LexiconInvariantError)


def test_detect_coordinate():
    # An interior "na" is what a Coordinate compound is spelled with.
    for phrase in ("ezi na ụlọ", "okwu na ụka"):
        assert _category_check(phrase, "Coordinate") is CompoundCategory.COORDINATE


def test_detect_unknown():
    # Where neither surface rule fires, the surface names no category:
    # such a phrase is neither Duplicated nor Coordinate, and any other
    # multi-word category is taken from the file.
    for phrase in ("ụlọ akwukwo", "na ese"):  # "na" at the edge is not interior
        for category in ("Duplicated", "Coordinate"):
            assert isinstance(_category_check(phrase, category), LexiconInvariantError)
        assert _category_check(phrase, "Nominal") is CompoundCategory.NOMINAL
        assert _category_check(phrase, "Agentive") is CompoundCategory.AGENTIVE
    # A single written word is only ever Proper or Derived.
    assert _category_check("dinweulo", "Derived") is CompoundCategory.DERIVED
    for category in ("Duplicated", "Coordinate", "Nominal"):
        assert isinstance(_category_check("dinweulo", category), LexiconInvariantError)


def test_match_key_features_doc1(doc1_filtered, golden_pipeline):
    features = match_key_features(doc1_filtered, golden_pipeline.lexicon)
    by_gram = {f.gram: f for f in features}
    laptop = by_gram[("komputa", "nkunaka")]
    assert laptop.count == 2
    assert laptop.gloss == "laptop"
    password = by_gram[("okwu", "ntughe")]
    assert password.count == 1
    assert password.gloss == "password"
    # sorted by count desc, then gram
    assert [f.gram for f in features] == [
        ("projekto",),
        ("komputa",),
        ("komputa", "nkunaka"),
        ("okwu", "ntughe"),
        ("onyonyo", "komputa"),
    ]


def test_match_counts_mirror_tables(doc1_filtered, doc1_model, golden_pipeline):
    tables = {1: doc1_model.unigrams, 2: doc1_model.bigrams, 3: doc1_model.trigrams}
    for f in match_key_features(doc1_filtered, golden_pipeline.lexicon):
        assert tables[len(f.gram)].counts[f.gram] == f.count


def test_match_empty_lexicon(doc1_filtered):
    assert match_key_features(doc1_filtered, []) == []
