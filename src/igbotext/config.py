"""Pipeline mode shared by the normalizer, tokenizer and stop-word filter."""

from __future__ import annotations

from enum import Enum


class Mode(str, Enum):
    """Two documented pipeline behaviours.

    Both modes split words at apostrophes. PAPER_GOLDEN keeps hyphenated
    tokens whole and applies no minimum token length; it is the
    configuration the golden doc1 frequency tables were produced under.
    STRICT also splits words at hyphens, which separates clitic prefixes
    ("na-ese" → "na ese"), and drops tokens shorter than three characters.
    """

    PAPER_GOLDEN = "paper_golden"
    STRICT = "strict"

    @classmethod
    def parse(cls, value: str) -> Mode:
        """The mode a CLI spelling names: 'paper' or 'strict'."""
        if value == "paper":
            return cls.PAPER_GOLDEN
        if value == "strict":
            return cls.STRICT
        raise ValueError(f"unknown mode {value!r} (expected 'paper' or 'strict')")
