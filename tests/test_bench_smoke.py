"""Smoke-size benchmark of Pipeline.represent on doc1 in both modes.

Timings are reported by pytest-benchmark and never asserted; the tables
are checked against the doc1 goldens.
"""

from __future__ import annotations

import pytest

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
