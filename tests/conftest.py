from __future__ import annotations

from pathlib import Path

import pytest

from igbotext import LanguageModel, Mode, Pipeline, PipelineConfig, load_corpus
from igbotext.normalize import normalize, remove_stopwords, tokenize

FIXTURES = Path(__file__).parent / "fixtures"
DOC1_PATH = FIXTURES / "doc1.txt"


@pytest.fixture(scope="session")
def doc1():
    return load_corpus([DOC1_PATH])[0]


@pytest.fixture(scope="session")
def golden_pipeline():
    return Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN))


@pytest.fixture(scope="session")
def strict_pipeline():
    return Pipeline(PipelineConfig(mode=Mode.STRICT))


@pytest.fixture(scope="session")
def doc1_bundle(doc1, golden_pipeline):
    return golden_pipeline.represent(doc1)


@pytest.fixture(scope="session")
def doc1_filtered(doc1, golden_pipeline):
    """doc1's stop-filtered paper-mode token stream: what its tables count."""
    mode = Mode.PAPER_GOLDEN
    stoplist = golden_pipeline.stoplist  # the shipped list
    return remove_stopwords(tokenize(normalize(doc1.text, mode)), stoplist, mode)


@pytest.fixture(scope="session")
def doc1_model(doc1_bundle):
    return LanguageModel(
        unigrams=doc1_bundle.tables[1],
        bigrams=doc1_bundle.tables[2],
        trigrams=doc1_bundle.tables[3],
    )
