"""Whitespace tokenization of normalized text.

Normalization has already turned every word boundary of the mode into
whitespace (apostrophes in both modes, hyphens in strict mode), so in
strict mode a clitic prefix is already its own word ("na-ese" → "na ese").
"""

from __future__ import annotations


def tokenize(text: str) -> tuple[str, ...]:
    """The whitespace-delimited words of ``text``, in order."""
    return tuple(text.split())
