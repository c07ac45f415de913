from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from igbotext import (
    EmptyModelError,
    InvalidOrderError,
    LanguageModel,
    OrderMismatchError,
    UnknownContextError,
    bigram_conditional,
    trigram_conditional,
    unigram_probability,
)
from igbotext.ngrams import ORDERS, NGramTable, extract_ngrams, rank_features
from igbotext.pipeline import RepresentationBundle, build_doc_term_matrix

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


def test_counting_does_not_copy_the_token_stream():
    # A slice of the stream per order would copy it: 8 MB here.
    tokens = ("a", "b") * 500_000
    tracemalloc.start()
    try:
        table = extract_ngrams(tokens, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.counts == {("a", "b", "a"): 499_999, ("b", "a", "b"): 499_999}
    assert table.total_windows == 999_998
    assert peak < 100_000


def test_counting_makes_no_second_table():
    # A Counter copied into a dict holds two tables at once: a peak near
    # 1.5 times what the one table kept afterwards holds.
    tokens = tuple(map(str, range(100_000)))
    tracemalloc.start()
    try:
        table = extract_ngrams(tokens, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(table.counts) is dict
    assert len(table.counts) == 99_999
    assert peak < 1.3 * held


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


def test_bigram_conditional(model):
    assert bigram_conditional(model, "projekto", "nkuziie") == pytest.approx(1.0, abs=1e-12)
    assert bigram_conditional(model, "komputa", "nkunaka") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UnknownContextError):
        bigram_conditional(model, "zzz", "anya")


def test_sequence_probability_bigram(model):
    # The chain P(w1) * P(w2 | w1) of a two-word sequence is the joint
    # MLE count(w1 w2) / unigram windows, for every bigram of the model.
    def chain(w1, w2):
        return unigram_probability(model, w1) * bigram_conditional(model, w1, w2)

    assert chain("projekto", "nkuziie") == pytest.approx((4 / 36) * 1.0, abs=1e-12)
    for (w1, w2), count in model.bigrams.counts.items():
        assert chain(w1, w2) == pytest.approx(count / 36, abs=1e-12)
    assert chain("komputa", "zzz") == 0.0
    with pytest.raises(UnknownContextError):
        chain("zzz", "anya")


def test_trigram_conditional(model):
    assert trigram_conditional(model, "projekto", "nkuziie", "komputa") == pytest.approx(
        0.25, abs=1e-12
    )
    assert trigram_conditional(model, "komputa", "nkunaka", "iji") == pytest.approx(
        0.5, abs=1e-12
    )
    with pytest.raises(UnknownContextError):
        trigram_conditional(model, "zzz", "yyy", "anya")


# Corpus tables are merged by build_doc_term_matrix: its feature axis
# holds the summed counts, and each row is one document's table.
# Each document is a (doc id, order, table) triple.
def _matrix(n, *docs):
    bundles = [RepresentationBundle(doc_id, {order: t}) for doc_id, order, t in docs]
    return build_doc_term_matrix(bundles, n)


def _column_sums(matrix):
    sums = Counter()
    for row in matrix.rows:
        sums.update(row)
    assert set(sums) <= set(matrix.features)
    return dict(sums)


def test_merge_counts_add():
    a = NGramTable({("a",): 1}, 1)
    b = NGramTable({("a",): 2}, 2)
    matrix = _matrix(1, ("x", 1, a), ("y", 1, b))
    assert matrix.features == (("a",),)
    assert _column_sums(matrix) == {("a",): 3}
    assert [sum(row.values()) for row in matrix.rows] == [a.total_windows, b.total_windows]


def test_merge_with_empty_is_identity_on_counts():
    t = NGramTable({("a", "b"): 2, ("b", "c"): 1}, 3)
    empty = NGramTable({}, 0)
    alone = _matrix(2, ("x", 2, t))
    merged = _matrix(2, ("x", 2, t), ("y", 2, empty))
    assert merged.features == alone.features
    assert _column_sums(merged) == _column_sums(alone) == t.counts
    assert merged.rows == (*alone.rows, {})


def test_merge_order_mismatch():
    with pytest.raises(OrderMismatchError):
        _matrix(2, ("x", 2, NGramTable({}, 0)), ("y", 1, NGramTable({}, 0)))


def test_split_and_merge_recovers_whole_document_counts():
    # Split the golden stream at every boundary: merged halves equal the
    # whole-document table minus the <= n-1 windows spanning the boundary.
    for n in (1, 2, 3):
        whole = extract_ngrams(_stream(GOLDEN_FILTERED), n)
        for cut in range(len(GOLDEN_FILTERED) + 1):
            left = extract_ngrams(_stream(GOLDEN_FILTERED[:cut]), n)
            right = extract_ngrams(_stream(GOLDEN_FILTERED[cut:]), n)
            merged = dict(Counter(left.counts) + Counter(right.counts))
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
    top2 = rank_features(t.counts)[:2]
    assert top2 == [(("nkuziie",), 4), (("projekto",), 4)]


def test_rank_features_edges(doc1_filtered_stream):
    t = extract_ngrams(doc1_filtered_stream, 2)
    assert rank_features({}) == []
    assert rank_features(t.counts)[0] == (("projekto", "nkuziie"), 4)
    assert len(rank_features(t.counts)) == 31


def test_rank_features_is_stable(doc1_filtered_stream):
    t = extract_ngrams(doc1_filtered_stream, 2)
    assert rank_features(t.counts) == rank_features(t.counts)


def test_window_totals_against_brute_force(doc1_filtered_stream):
    for n in (1, 2, 3):
        t = extract_ngrams(doc1_filtered_stream, n)
        assert t.total_windows == len(brute_force_windows(GOLDEN_FILTERED, n))
        assert sum(t.counts.values()) == t.total_windows
