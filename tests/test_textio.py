from __future__ import annotations

import tracemalloc

import pytest

from igbotext import DecodeError, load_corpus
from igbotext.textio import Document, decode_utf8

from conftest import DOC1_PATH


def test_decode_dotted_vowels():
    raw = bytes([0xE1, 0xBB, 0xA5, 0x6C, 0xE1, 0xBB, 0x8D])
    assert decode_utf8(raw, "mem").text == "ụlọ"  # ụlọ


def test_decode_ascii():
    assert decode_utf8(b"anya", "mem").text == "anya"


def test_decode_invalid_start_byte_reports_offset():
    with pytest.raises(DecodeError) as err:
        decode_utf8(b"\xff\x61", "mem")
    assert err.value.offset == 0
    assert err.value.source_id == "mem"


def test_decode_invalid_later_offset():
    with pytest.raises(DecodeError) as err:
        decode_utf8(b"ab\xc3\x28", "mem")
    assert err.value.offset == 2


def test_decode_never_substitutes_replacement_char():
    with pytest.raises(DecodeError):
        decode_utf8(b"\xed\xa0\x80", "mem")  # encoded surrogate


def test_leading_bom_is_stripped():
    raw = b"\xef\xbb\xbfanya"
    assert decode_utf8(raw, "mem").text == "anya"


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("before, offset", [(b"", 0), (b"ab", 2), ("ụ".encode("utf-8"), 3)])
def test_decode_error_offset_counts_every_byte_of_the_file(bom, before, offset):
    with pytest.raises(DecodeError) as err:
        decode_utf8(bom + before + b"\xc3\x28", "mem")
    assert err.value.offset == len(bom) + offset


def test_a_partial_bom_is_a_decode_error_at_its_start():
    with pytest.raises(DecodeError) as err:
        decode_utf8(b"\xef\xbb", "mem")
    assert err.value.offset == 0


def test_bom_is_stripped_without_copying_the_text():
    raw = b"\xef\xbb\xbf" + b"anya " * 200_000
    tracemalloc.start()
    try:
        doc = decode_utf8(raw, "mem")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.text == raw[3:].decode("ascii")
    assert peak < 1.5 * len(raw)


def test_interior_bom_is_content():
    raw = "a﻿b".encode("utf-8")
    assert decode_utf8(raw, "mem").text == "a﻿b"


def test_encode_dotted_vowels():
    doc = Document("mem", "ụlọ")
    raw = doc.text.encode("utf-8")
    assert raw == bytes([0xE1, 0xBB, 0xA5, 0x6C, 0xE1, 0xBB, 0x8D])
    assert decode_utf8(raw, doc.id) == doc


def test_encode_empty():
    doc = Document("mem", "")
    assert doc.text.encode("utf-8") == b""
    assert decode_utf8(doc.text.encode("utf-8"), doc.id) == doc


def test_roundtrip_doc1(doc1):
    assert decode_utf8(doc1.text.encode("utf-8"), doc1.id) == doc1
    assert decode_utf8(doc1.text.encode("utf-8"), doc1.id).text == doc1.text


def test_load_corpus_single(doc1):
    assert doc1.id == str(DOC1_PATH)
    assert doc1.text.startswith("Kpaacharu anya makana")


def test_load_corpus_empty():
    assert load_corpus([]) == []


def test_load_corpus_preserves_order(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("otu", encoding="utf-8")
    b.write_text("abuo", encoding="utf-8")
    docs = load_corpus([b, a])
    assert [d.text for d in docs] == ["abuo", "otu"]


def test_load_corpus_missing_file_names_path(tmp_path):
    missing = tmp_path / "gone.txt"
    with pytest.raises(OSError) as err:
        load_corpus([missing])
    assert "gone.txt" in str(err.value)


def test_load_corpus_decode_error_names_path(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff")
    with pytest.raises(DecodeError) as err:
        load_corpus([bad])
    assert "bad.txt" in str(err.value)


def test_load_corpus_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        load_corpus([DOC1_PATH, DOC1_PATH])
