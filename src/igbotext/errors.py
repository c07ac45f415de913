"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class IgboTextError(Exception):
    """Base class for all toolkit errors."""


class DecodeError(IgboTextError):
    """Raised when a byte stream is not valid UTF-8.

    Carries the byte offset of the first invalid sequence and the source
    identifier of the offending input. Decoding is strict: no replacement
    characters are ever substituted.
    """

    def __init__(self, source_id: str, offset: int, reason: str) -> None:
        self.source_id = source_id
        self.offset = offset
        self.reason = reason
        super().__init__(f"{source_id}: invalid UTF-8 at byte offset {offset}: {reason}")


class InvalidOrderError(IgboTextError, ValueError):
    """A value that is not an n-gram order: an int of ``ngrams.ORDERS``."""

    def __init__(self, n: object, orders: tuple[int, ...]) -> None:
        self.n = n
        super().__init__(f"n-gram order must be one of {', '.join(map(str, orders))}, got {n!r}")


class EmptyModelError(IgboTextError):
    """Probability requested from a model with no observed windows."""


class UnknownContextError(IgboTextError):
    """Conditional probability requested for a context with zero count."""

    def __init__(self, context: tuple[str, ...]) -> None:
        self.context = context
        super().__init__(f"context {' '.join(context)!r} has zero count")


class OrderMismatchError(IgboTextError):
    """Operation combining n-gram tables of different orders."""

    def __init__(self, expected: int, got: int) -> None:
        self.expected = expected
        self.got = got
        super().__init__(f"n-gram order mismatch: {expected} vs {got}")


class LexiconFormatError(IgboTextError):
    """Malformed line in a lexicon file."""


class LexiconInvariantError(IgboTextError):
    """Lexicon entry violating a category rule."""


class PipelineStageError(IgboTextError):
    """Module error re-raised with the pipeline stage that produced it."""

    def __init__(self, stage: str, cause: Exception) -> None:
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r}: {cause}")


class EmptyStopListWarning(UserWarning):
    """Signal (not a failure) that a stop-word source yielded zero entries."""
