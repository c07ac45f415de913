"""Igbo text representation toolkit.

UTF-8 ingestion, normalization, tokenization, stop-word removal and
word-based n-gram representation (orders 1..3) with MLE probabilities,
plus a compound-word lexicon for key-feature extraction.
"""

from .config import Mode
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
from .lexicon import (
    CompoundCategory,
    KeyFeature,
    LexiconEntry,
    builtin_lexicon,
    detect_category,
    dump_lexicon,
    load_lexicon,
    match_key_features,
)
from .ngrams import (
    LanguageModel,
    NGram,
    NGramTable,
    bigram_conditional,
    extract_ngrams,
    merge_tables,
    rank_features,
    sequence_probability_bigram,
    sequence_probability_unigram,
    trigram_conditional,
    unigram_probability,
)
from .normalize import normalize, strip_tone_marks
from .pipeline import (
    DocTermMatrix,
    Pipeline,
    PipelineConfig,
    RepresentationBundle,
    build_doc_term_matrix,
    bundle_from_json,
    bundle_to_json,
    bundle_to_tsv,
    run_pipeline,
    table_to_tsv,
)
from .stopwords import StopList, builtin_stoplist, load_stoplist, remove_stopwords
from .textio import Document, RawBytes, decode_utf8, load_corpus, read_raw
from .tokenize import tokenize

__version__ = "0.1.0"

__all__ = [
    "Mode",
    "Document",
    "RawBytes",
    "decode_utf8",
    "load_corpus",
    "read_raw",
    "normalize",
    "strip_tone_marks",
    "tokenize",
    "StopList",
    "load_stoplist",
    "remove_stopwords",
    "builtin_stoplist",
    "NGram",
    "NGramTable",
    "LanguageModel",
    "extract_ngrams",
    "unigram_probability",
    "sequence_probability_unigram",
    "bigram_conditional",
    "sequence_probability_bigram",
    "trigram_conditional",
    "merge_tables",
    "rank_features",
    "CompoundCategory",
    "LexiconEntry",
    "KeyFeature",
    "load_lexicon",
    "dump_lexicon",
    "detect_category",
    "match_key_features",
    "builtin_lexicon",
    "PipelineConfig",
    "Pipeline",
    "RepresentationBundle",
    "DocTermMatrix",
    "run_pipeline",
    "build_doc_term_matrix",
    "bundle_to_tsv",
    "bundle_to_json",
    "bundle_from_json",
    "table_to_tsv",
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
