from __future__ import annotations

import pytest

from igbotext import (
    EmptyModelError,
    InvalidOrderError,
    LanguageModel,
    NGramTable,
    OrderMismatchError,
    UnknownContextError,
    bigram_conditional,
    extract_ngrams,
    merge_tables,
    rank_features,
    sequence_probability_bigram,
    sequence_probability_unigram,
    trigram_conditional,
    unigram_probability,
)

from igbotext.ngrams import ORDERS

from golden_doc1 import (
    GOLDEN_BIGRAMS,
    GOLDEN_FILTERED,
    GOLDEN_TRIGRAMS,
    GOLDEN_UNIGRAMS,
    brute_force_windows,
)


def _stream(words):
    return tuple(words)


def _model(stream):
    return LanguageModel(*(extract_ngrams(stream, n) for n in ORDERS))


@pytest.fixture(scope="module")
def doc1_filtered_stream():
    return _stream(GOLDEN_FILTERED)


@pytest.fixture(scope="module")
def model(doc1_filtered_stream):
    return _model(doc1_filtered_stream)


def test_unigram_table_matches_golden(doc1_filtered_stream):
    t = extract_ngrams(doc1_filtered_stream, 1)
    assert t.counts == GOLDEN_UNIGRAMS
    assert len(t.counts) == 27
    assert t.total_windows == 36
    assert t.counts[("nkuziie",)] == 4
    assert t.counts[("projekto",)] == 4
    assert t.counts[("komputa",)] == 2
    assert t.counts[("iji",)] == 2
    assert t.counts[("nkunaka",)] == 2


def test_bigram_table_matches_golden(doc1_filtered_stream):
    t = extract_ngrams(doc1_filtered_stream, 2)
    assert t.counts == GOLDEN_BIGRAMS
    assert len(t.counts) == 31
    assert t.total_windows == 35
    assert t.counts[("projekto", "nkuziie")] == 4
    assert t.counts[("komputa", "nkunaka")] == 2
    assert t.counts[("ichoro", "iji")] == 1


def test_trigram_table_matches_golden(doc1_filtered_stream):
    t = extract_ngrams(doc1_filtered_stream, 3)
    assert t.counts == GOLDEN_TRIGRAMS
    assert len(t.counts) == 34
    assert t.total_windows == 34
    assert set(t.counts.values()) == {1}
    assert ("projekto", "nkuziie", "komputa") in t.counts
    assert ("onyonyo", "komputa", "nkunaka") in t.counts


def test_invalid_orders_rejected(doc1_filtered_stream):
    for n in (0, 4, -1):
        with pytest.raises(InvalidOrderError):
            extract_ngrams(doc1_filtered_stream, n)


def test_short_stream_has_zero_windows():
    t = extract_ngrams(_stream(["otu", "abuo"]), 3)
    assert t.counts == {}
    assert t.total_windows == 0


def test_unigram_probability(model):
    assert unigram_probability(model, "nkuziie") == pytest.approx(4 / 36, abs=1e-12)
    assert unigram_probability(model, "zzz") == 0.0


def test_unigram_probabilities_normalize(model):
    total = sum(unigram_probability(model, g[0]) for g in model.unigrams.counts)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_unigram_probability_empty_model():
    empty = _model(_stream([]))
    with pytest.raises(EmptyModelError):
        unigram_probability(empty, "x")


def test_sequence_probability_unigram(model):
    assert sequence_probability_unigram(model, ["projekto", "nkuziie"]) == pytest.approx(
        (4 / 36) * (4 / 36), abs=1e-12
    )
    assert sequence_probability_unigram(model, []) == 1.0
    assert sequence_probability_unigram(model, ["anya", "zzz"]) == 0.0


def test_bigram_conditional(model):
    assert bigram_conditional(model, "projekto", "nkuziie") == pytest.approx(1.0, abs=1e-12)
    assert bigram_conditional(model, "komputa", "nkunaka") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UnknownContextError):
        bigram_conditional(model, "zzz", "anya")


def test_sequence_probability_bigram(model):
    assert sequence_probability_bigram(model, ["projekto", "nkuziie"]) == pytest.approx(
        (4 / 36) * 1.0, abs=1e-12
    )
    assert sequence_probability_bigram(model, ["komputa"]) == pytest.approx(2 / 36, abs=1e-12)
    assert sequence_probability_bigram(model, ["zzz", "anya"]) == 0.0
    with pytest.raises(ValueError):
        sequence_probability_bigram(model, [])


def test_trigram_conditional(model):
    assert trigram_conditional(model, "projekto", "nkuziie", "komputa") == pytest.approx(
        0.25, abs=1e-12
    )
    assert trigram_conditional(model, "komputa", "nkunaka", "iji") == pytest.approx(
        0.5, abs=1e-12
    )
    with pytest.raises(UnknownContextError):
        trigram_conditional(model, "zzz", "yyy", "anya")


def test_merge_counts_add():
    a = NGramTable(1, {("a",): 1}, 1, "x")
    b = NGramTable(1, {("a",): 2}, 2, "y")
    merged = merge_tables(a, b)
    assert merged.counts == {("a",): 3}
    assert merged.total_windows == 3
    assert merged.doc_id == "merged"


def test_merge_with_empty_is_identity_on_counts():
    t = NGramTable(2, {("a", "b"): 2}, 2, "x")
    empty = NGramTable(2, {}, 0, "y")
    merged = merge_tables(t, empty)
    assert merged.counts == t.counts
    assert merged.total_windows == t.total_windows


def test_merge_order_mismatch():
    with pytest.raises(OrderMismatchError):
        merge_tables(NGramTable(1, {}, 0, "x"), NGramTable(2, {}, 0, "y"))


def test_split_and_merge_recovers_whole_document_counts():
    # Split the golden stream at every boundary: merged halves equal the
    # whole-document table minus the <= n-1 windows spanning the boundary.
    for n in (1, 2, 3):
        whole = extract_ngrams(_stream(GOLDEN_FILTERED), n)
        for cut in range(len(GOLDEN_FILTERED) + 1):
            left = extract_ngrams(_stream(GOLDEN_FILTERED[:cut]), n)
            right = extract_ngrams(_stream(GOLDEN_FILTERED[cut:]), n)
            merged = dict(merge_tables(left, right).counts)
            spanning = [
                tuple(GOLDEN_FILTERED[i:i + n])
                for i in range(max(0, cut - n + 1), cut)
                if i + n <= len(GOLDEN_FILTERED) and i + n > cut
            ]
            for gram in spanning:
                merged[gram] = merged.get(gram, 0) + 1
            assert merged == whole.counts


def test_rank_features_tie_break(doc1_filtered_stream):
    t = extract_ngrams(doc1_filtered_stream, 1)
    top2 = rank_features(t)[:2]
    assert top2 == [(("nkuziie",), 4), (("projekto",), 4)]


def test_rank_features_edges(doc1_filtered_stream):
    t = extract_ngrams(doc1_filtered_stream, 2)
    assert rank_features(NGramTable(2, {}, 0, "d")) == []
    assert rank_features(t)[0] == (("projekto", "nkuziie"), 4)
    assert len(rank_features(t)) == 31


def test_rank_features_is_stable(doc1_filtered_stream):
    t = extract_ngrams(doc1_filtered_stream, 2)
    assert rank_features(t) == rank_features(t)


def test_window_totals_against_brute_force(doc1_filtered_stream):
    for n in (1, 2, 3):
        t = extract_ngrams(doc1_filtered_stream, n)
        assert t.total_windows == len(brute_force_windows(GOLDEN_FILTERED, n))
        assert sum(t.counts.values()) == t.total_windows
