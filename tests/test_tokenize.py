from __future__ import annotations

from igbotext import Mode
from igbotext.normalize import normalize, tokenize


def _strict(text):
    return tokenize(normalize(text, Mode.STRICT))


def test_strict_clitic_splitting():
    # Strict normalization turns hyphens and apostrophes into word
    # boundaries, so each clitic prefix reaches the tokenizer as its own word.
    got = _strict("n’aka na-ese ina-eche ana-eme")
    assert got == ("n", "aka", "na", "ese", "ina", "eche", "ana", "eme")


def test_longest_prefix_wins():
    assert _strict("ana-eme") == ("ana", "eme")
    assert _strict("aga-eme") == ("aga", "eme")


def test_straight_apostrophe_matches_clitic():
    assert _strict("n'aka") == _strict("n’aka") == ("n", "aka")


def test_bare_prefix_word_is_one_token():
    assert _strict("na- ga-") == ("na", "ga")


def test_plain_word_starting_like_prefix_is_not_split():
    # "naga" has no hyphen, so no prefix matches
    assert _strict("naga") == ("naga",)


def test_golden_mode_keeps_clitic_words_whole(doc1):
    assert "na-akwunye" in tokenize(normalize(doc1.text, Mode.PAPER_GOLDEN))


def test_whitespace_only_is_empty():
    assert tokenize("   ") == ()


def test_indices_are_contiguous():
    assert tokenize("otu abuo atọ") == ("otu", "abuo", "atọ")


def test_retokenizing_joined_surfaces_is_identity():
    for mode in (Mode.PAPER_GOLDEN, Mode.STRICT):
        first = tokenize(normalize("n’aka na-ese ihe-ngosi ji ofe", mode))
        again = tokenize(normalize(" ".join(first), mode))
        assert again == first


def test_token_count_examples():
    assert len(tokenize("")) == 0
    assert len(tokenize("a b")) == 2


def test_token_invariants():
    # Tokens are non-empty and whitespace-free for any whitespace, ASCII or not.
    tokens = tokenize(" a\tb\u00a0c\u2003d\n\u3000e  ")
    assert tokens == ("a", "b", "c", "d", "e")
    assert all(t and not any(ch.isspace() for ch in t) for t in tokens)
