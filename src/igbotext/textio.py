"""UTF-8 decoding of Igbo text and whole-file corpus ingestion.

Decoding is strict: an invalid byte sequence raises DecodeError with the
byte offset, never a replacement character. A leading byte-order mark is
stripped (editor artifact, not Igbo text).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import DecodeError

_BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


@dataclass(frozen=True)
class Document:
    """A fully decoded Igbo text with a stable identifier."""

    id: str
    text: str


def decode_utf8(data: bytes, source_id: str) -> Document:
    """Strictly decode UTF-8 bytes into a Document named ``source_id``.

    A byte-order mark at the very start is dropped; everywhere else
    U+FEFF is ordinary content.
    """
    # The mark is skipped in the bytes: cutting it from the decoded text
    # would copy the text whole. Offsets count from the start of ``data``.
    skip = len(_BOM) if data.startswith(_BOM) else 0
    try:
        text = str(memoryview(data)[skip:], "utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(source_id, skip + exc.start, exc.reason) from exc
    return Document(id=source_id, text=text)


def load_corpus(paths: list[str | os.PathLike[str]]) -> list[Document]:
    """Load one Document per path, in input order.

    Unreadable paths raise OSError naming the path; invalid UTF-8 raises
    DecodeError naming the path. A file name that is not valid UTF-8 or
    that repeats another breaks the document ids: each is a ValueError.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for path in map(Path, paths):
        name = str(path)
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"file name {name!r} is not valid UTF-8") from None
        doc = decode_utf8(path.read_bytes(), name)
        if doc.id in seen:
            raise ValueError(f"duplicate document id {doc.id!r} in corpus")
        seen.add(doc.id)
        docs.append(doc)
    return docs
