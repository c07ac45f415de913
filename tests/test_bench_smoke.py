"""Smoke-size benchmarks: Pipeline.represent on doc1 in both modes, and
the document-term matrix over a small generated corpus.

Timings are reported by pytest-benchmark and never asserted; the tables
are checked against the doc1 goldens and the matrix against the merged
tables.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from igbotext.ngrams import rank_features
from igbotext.pipeline import build_doc_term_matrix, matrix_to_tsv
from igbotext.textio import Document

from golden_doc1 import (
    GOLDEN_BIGRAMS,
    GOLDEN_TRIGRAMS,
    GOLDEN_UNIGRAMS,
    STRICT_FILTERED,
    STRICT_UNIGRAMS,
    oracle_table,
)

pytest.importorskip("pytest_benchmark")


def test_represent_doc1_paper(benchmark, doc1, golden_pipeline):
    bundle = benchmark(golden_pipeline.represent, doc1)
    assert bundle.tables[1].counts == GOLDEN_UNIGRAMS
    assert bundle.tables[2].counts == GOLDEN_BIGRAMS
    assert bundle.tables[3].counts == GOLDEN_TRIGRAMS


def test_represent_doc1_strict(benchmark, doc1, strict_pipeline):
    bundle = benchmark(strict_pipeline.represent, doc1)
    assert bundle.tables[1].counts == STRICT_UNIGRAMS
    assert bundle.tables[2].counts == oracle_table(STRICT_FILTERED, 2)
    assert bundle.tables[3].counts == oracle_table(STRICT_FILTERED, 3)


def test_matrix_small_corpus(benchmark, doc1, golden_pipeline):
    rng = random.Random(3)
    words = doc1.text.split()
    bundles = [
        golden_pipeline.represent(Document(f"d{i}", " ".join(rng.choices(words, k=60))))
        for i in range(40)
    ]

    def build_and_write():
        matrix = build_doc_term_matrix(bundles, 2)
        return matrix, b"".join(matrix_to_tsv(matrix))

    matrix, tsv = benchmark(build_and_write)
    merged = Counter()
    for b in bundles:
        merged.update(b.tables[2].counts)
    ranked = rank_features(merged)
    assert list(matrix.features) == [gram for gram, _ in ranked]
    sums = Counter()
    for row in matrix.rows:
        sums.update(row)
    assert len(sums) == len(matrix.features)
    assert [sums[gram] for gram in matrix.features] == [count for _, count in ranked]
    assert len(tsv.splitlines()) == 1 + len(bundles)
