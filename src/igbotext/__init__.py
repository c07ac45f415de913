"""Igbo text representation toolkit.

UTF-8 ingestion, normalization, tokenization, stop-word removal and
word-based n-gram representation (orders 1..3) with MLE probabilities,
plus a compound-word lexicon for key-feature extraction.

The package root holds the library contract: the pipeline, its
configuration, the MLE functions and the error types. Every other name
lives in its module (``igbotext.normalize``, ``igbotext.ngrams``, ...).
"""

from .errors import (
    DecodeError,
    EmptyModelError,
    EmptyStopListWarning,
    IgboTextError,
    InvalidOrderError,
    LexiconFormatError,
    LexiconInvariantError,
    OrderMismatchError,
    PipelineStageError,
    UnknownContextError,
)
from .lexicon import KeyFeature
from .ngrams import LanguageModel, bigram_conditional, trigram_conditional, unigram_probability
from .normalize import Mode
from .pipeline import Pipeline, PipelineConfig, bundle_from_json, run_pipeline
from .textio import load_corpus

__version__ = "0.1.0"

__all__ = [
    "Mode",
    "Pipeline",
    "PipelineConfig",
    "run_pipeline",
    "load_corpus",
    "KeyFeature",
    "LanguageModel",
    "unigram_probability",
    "bigram_conditional",
    "trigram_conditional",
    "bundle_from_json",
    "IgboTextError",
    "DecodeError",
    "InvalidOrderError",
    "EmptyModelError",
    "UnknownContextError",
    "OrderMismatchError",
    "LexiconFormatError",
    "LexiconInvariantError",
    "PipelineStageError",
    "EmptyStopListWarning",
]
