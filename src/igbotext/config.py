"""Pipeline mode shared by the normalizer, tokenizer and stop-word filter."""

from __future__ import annotations

from enum import Enum


class Mode(str, Enum):
    """Two documented pipeline behaviours, each valued by its CLI name.

    Both modes split words at apostrophes. PAPER_GOLDEN ("paper") keeps
    hyphenated tokens whole and applies no minimum token length; it is the
    configuration the golden doc1 frequency tables were produced under.
    STRICT ("strict") also splits words at hyphens, which separates clitic
    prefixes ("na-ese" → "na ese"), and drops tokens shorter than three
    characters. Any other value is a ValueError that names it.
    """

    PAPER_GOLDEN = "paper"
    STRICT = "strict"
