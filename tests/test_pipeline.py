from __future__ import annotations

import io
import json
import re
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import pytest

from igbotext import (
    DecodeError,
    InvalidOrderError,
    LexiconInvariantError,
    Mode,
    OrderMismatchError,
    PipelineConfig,
    Pipeline,
    PipelineStageError,
    bundle_from_json,
    load_corpus,
    run_pipeline,
)
from igbotext import normalize as normalize_module
from igbotext import pipeline as pipeline_module
from igbotext.ngrams import NGramTable, extract_ngrams
from igbotext.normalize import normalize, pieces
from igbotext.pipeline import (
    DocTermMatrix,
    RepresentationBundle,
    build_doc_term_matrix,
    bundle_to_json,
    bundle_to_tsv,
    matrix_to_json,
    matrix_to_tsv,
    write_output,
)
from igbotext.textio import Document

from golden_doc1 import (
    GOLDEN_BIGRAMS,
    GOLDEN_TRIGRAMS,
    GOLDEN_UNIGRAMS,
    STRICT_UNIGRAMS,
)
from reference_pipeline import reference_matrix_json, reference_matrix_tsv


def test_run_pipeline_reproduces_golden_tables(doc1):
    bundle = run_pipeline(doc1, PipelineConfig(mode=Mode.PAPER_GOLDEN))
    assert bundle.tables[1].counts == GOLDEN_UNIGRAMS
    assert bundle.tables[2].counts == GOLDEN_BIGRAMS
    assert bundle.tables[3].counts == GOLDEN_TRIGRAMS


def test_empty_document_yields_empty_tables():
    bundle = run_pipeline(Document("d", ""), PipelineConfig(mode=Mode.PAPER_GOLDEN))
    for n in (1, 2, 3):
        assert bundle.tables[n].counts == {}
        assert bundle.tables[n].total_windows == 0


def test_strict_mode_diverges_as_documented(doc1, strict_pipeline):
    bundle = strict_pipeline.represent(doc1)
    unigrams = bundle.tables[1].counts
    assert unigrams == STRICT_UNIGRAMS
    # length rule drops the two-character tokens
    assert ("gi",) not in unigrams
    assert ("hu",) not in unigrams
    # hyphen splitting dissolves the hyphenated words
    assert ("na-akwunye",) not in unigrams
    assert ("ihe-ngosi",) not in unigrams
    assert unigrams[("akwunye",)] == 1
    assert unigrams[("ngosi",)] == 1
    # three-character words sit exactly on the length boundary and survive
    assert unigrams[("ihe",)] == 2
    assert sum(unigrams.values()) == 35


def test_strict_mode_splits_every_apostrophe():
    # A word starting with the n’ clitic splits at its other apostrophes
    # like any other word: "n’ulo’s" and "ulo’s" both yield "ulo".
    for text in ("n’ulo’s ulo’s", "n'ulo's ulo's"):
        bundle = run_pipeline(Document("d", text), PipelineConfig(mode=Mode.STRICT))
        assert bundle.tables[1].counts == {("ulo",): 2}


def test_stop_word_spelled_around_a_deleted_character_is_dropped():
    # "ahu.\u0323" normalizes to the NFC stop word "ahụ", in both modes.
    for mode in Mode:
        bundle = run_pipeline(Document("d", "ahu.\u0323 ụlọ ahụ"), PipelineConfig(mode=mode))
        assert bundle.tables[1].counts == {("ụlọ",): 1}


def test_features_use_packaged_lexicon_by_default(doc1, golden_pipeline):
    features = golden_pipeline.features(doc1)
    assert [(f.gram, f.count) for f in features] == [
        (("projekto",), 4),
        (("komputa",), 2),
        (("komputa", "nkunaka"), 2),
        (("okwu", "ntughe"), 1),
        (("onyonyo", "komputa"), 1),
    ]


def test_features_read_the_configured_lexicon(doc1, tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("okwu ntughe\tpassword\tNominal\n", encoding="utf-8")
    pipeline = Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN, lexicon_path=lexicon))
    assert [(f.gram, f.gloss, f.count) for f in pipeline.features(doc1)] == [
        (("okwu", "ntughe"), "password", 1)
    ]


def test_features_match_any_spelling_of_a_lexicon_phrase(doc1, tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("Kòmpu\u0301ta NKUNAKA\tlaptop\tNominal\n", encoding="utf-8")
    pipeline = Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN, lexicon_path=lexicon))
    assert [(f.gram, f.count) for f in pipeline.features(doc1)] == [(("komputa", "nkunaka"), 2)]


def test_features_do_not_depend_on_configured_orders(doc1, golden_pipeline):
    expected = golden_pipeline.features(doc1)
    for orders in ((1,), (2,), (3,), (1, 3)):
        pipeline = Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN, orders=orders))
        assert pipeline.features(doc1) == expected


def test_lexicon_error_names_stage_when_features_run(doc1, tmp_path):
    bad = tmp_path / "lex.tsv"
    bad.write_text("ezi ulo oma mma\tgood home\tNominal\n", encoding="utf-8")
    pipeline = Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN, lexicon_path=bad))
    assert pipeline.represent(doc1).tables[1].counts == GOLDEN_UNIGRAMS
    with pytest.raises(PipelineStageError) as err:
        pipeline.features(doc1)
    assert err.value.stage == "load-lexicon"
    assert isinstance(err.value.cause, LexiconInvariantError)


@pytest.mark.parametrize("load", [
    lambda doc1: Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN, stoplist_path="")),
    lambda doc1: Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN, lexicon_path="")).features(doc1),
    lambda doc1: load_corpus([""]),
], ids=["stoplist_path", "lexicon_path", "load_corpus"])
def test_an_empty_data_file_path_is_a_missing_file(doc1, load):
    # Only None names the shipped file; "" names no file, not "." either.
    with pytest.raises(FileNotFoundError, match="No such file or directory: ''"):
        load(doc1)


def test_mode_isolation(doc1):
    golden = run_pipeline(doc1, PipelineConfig(mode=Mode.PAPER_GOLDEN))
    strict = run_pipeline(doc1, PipelineConfig(mode=Mode.STRICT))
    again = run_pipeline(doc1, PipelineConfig(mode=Mode.PAPER_GOLDEN))
    assert golden.tables[1].counts == again.tables[1].counts
    assert golden.tables[1].counts != strict.tables[1].counts


def test_orders_subset(doc1):
    bundle = run_pipeline(doc1, PipelineConfig(mode=Mode.PAPER_GOLDEN, orders=(2,)))
    assert set(bundle.tables) == {2}


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(mode=Mode.PAPER_GOLDEN, orders=())
    with pytest.raises(ValueError):
        PipelineConfig(mode=Mode.PAPER_GOLDEN, orders=(4,))


def test_config_reads_a_one_shot_iterable_of_orders_once(doc1):
    # Validation once used up a generator, leaving orders == () and a
    # represent that returned no table.
    cfg = PipelineConfig(mode="paper", orders=(n for n in (2, 1)))
    assert cfg.orders == (1, 2)
    assert set(run_pipeline(doc1, cfg).tables) == {1, 2}
    assert PipelineConfig(mode="paper", orders=iter([3])).orders == (3,)


@pytest.mark.parametrize("value", [True, 1.0, 3.0], ids=repr)
@pytest.mark.parametrize("stage", ["config", "extract_ngrams"])
def test_an_order_equal_to_an_int_is_not_one(stage, value):
    # True == 1 and 3.0 == 3, yet a table of order True serializes as
    # "n": true and a float order cannot size a window.
    with pytest.raises(InvalidOrderError, match=re.escape(f"got {value!r}") + "$"):
        if stage == "config":
            PipelineConfig(mode=Mode.PAPER_GOLDEN, orders=(2, value))
        else:
            extract_ngrams(("a", "b", "c"), value)


def test_mode_given_as_its_value_is_that_mode(doc1):
    # Every stage sees the Mode member: a plain "strict" once ran strict
    # boundaries with the paper stop filter, keeping "gi" and "hu".
    cfg = PipelineConfig(mode="strict")
    assert cfg.mode is Mode.STRICT
    assert run_pipeline(doc1, cfg).tables[1].counts == STRICT_UNIGRAMS
    assert PipelineConfig(mode="paper").mode is Mode.PAPER_GOLDEN


def test_unknown_mode_is_a_value_error_naming_it():
    # A mode's value is its CLI name; the member's name is not a value.
    with pytest.raises(ValueError, match="'paper_golden'"):
        PipelineConfig(mode="paper_golden")


def test_stoplist_decode_error_names_stage(tmp_path):
    bad = tmp_path / "stop.txt"
    bad.write_bytes(b"\xff")
    with pytest.raises(PipelineStageError) as err:
        Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN, stoplist_path=bad))
    assert err.value.stage == "load-stoplist"
    assert isinstance(err.value.cause, DecodeError)


def test_a_bom_led_data_file_loads_the_same_entries(tmp_path):
    # Data files are decoded where text files are, so a leading byte-order
    # mark is no part of the first entry.
    stop, lex = tmp_path / "stop.txt", tmp_path / "lex.tsv"
    loaded = []
    for bom in ("", "\ufeff"):
        stop.write_text(bom + "ahụ, na\nya", encoding="utf-8")
        lex.write_text(bom + "komputa nkunaka\tlaptop\tNominal\n", encoding="utf-8")
        cfg = PipelineConfig(mode=Mode.PAPER_GOLDEN, stoplist_path=stop, lexicon_path=lex)
        pipeline = Pipeline(cfg)
        loaded.append((pipeline.stoplist, pipeline.lexicon))
    assert loaded[0] == loaded[1]
    assert loaded[0][0] == {"ahụ", "na", "ya"}
    assert [entry.gram for entry in loaded[0][1]] == [("komputa", "nkunaka")]


def test_matrix_single_doc(doc1, golden_pipeline):
    bundle = golden_pipeline.represent(doc1)
    matrix = build_doc_term_matrix([bundle], 2)
    assert len(matrix.doc_ids) == 1
    assert len(matrix.features) == 31
    assert sum(matrix.rows[0].values()) == 35
    assert matrix.features[0] == ("projekto", "nkuziie")


def test_matrix_empty():
    matrix = build_doc_term_matrix([], 1)
    assert matrix.doc_ids == ()
    assert matrix.features == ()
    assert matrix.rows == ()


def test_matrix_reads_a_generator_of_bundles(doc1, golden_pipeline):
    # A generator once gave the features of its documents but no rows.
    docs = [doc1, Document("other", "komputa nkunaka ocha")]
    listed = build_doc_term_matrix([golden_pipeline.represent(d) for d in docs], 1)
    assert listed.doc_ids == (doc1.id, "other")
    assert build_doc_term_matrix((golden_pipeline.represent(d) for d in docs), 1) == listed


def test_text_stages_hold_a_few_pointers_per_word_not_the_text(doc1):
    # About 2 MB of doc1's words, made before tracing starts. A copy of the
    # whole text costs at least a byte per character, about six per word,
    # and a str per token at least 50 bytes; the stages run piece by piece
    # and keep one str per distinct token, so what grows with the text is
    # the token stream's pointers, 8 bytes per token, and its windows.
    text = (doc1.text + "\n") * (2_000_000 // len(doc1.text.encode("utf-8")) + 1)
    doc = Document("big", text)
    budget = 4 * 8 * len(text.split())
    for mode, stage in ((Mode.STRICT, "features"), (Mode.PAPER_GOLDEN, "represent")):
        pipeline = Pipeline(PipelineConfig(mode=mode))
        pipeline.lexicon  # loaded before tracing, as the data files are
        tracemalloc.start()
        try:
            getattr(pipeline, stage)(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (stage, peak, budget)
        filtered = pipeline._filtered(doc)
        assert len({id(token) for token in filtered}) == len(set(filtered))


def test_a_first_document_is_normalized_piece_by_piece(doc1):
    # A Pipeline that serves one document fills no word memo: normalize
    # gets each piece of the text itself, once.
    doc = Document("d", doc1.text * 3)
    with mock.patch.object(normalize_module, "_PIECE", 200):
        cut = list(pieces(doc.text))
        with mock.patch.object(pipeline_module, "normalize", wraps=normalize) as spy:
            Pipeline(PipelineConfig(mode=Mode.STRICT)).represent(doc)
    assert len(cut) > 1
    assert [call.args[0] for call in spy.call_args_list] == cut


def test_a_later_document_of_seen_words_is_not_normalized(doc1):
    pipeline = Pipeline(PipelineConfig(mode=Mode.STRICT))
    pipeline.represent(doc1)  # the first document: piece by piece
    pipeline.represent(doc1)  # the second: its words fill the memo
    later = Document("later", "\t".join(reversed(doc1.text.split())))
    with mock.patch.object(pipeline_module, "normalize", wraps=normalize) as spy:
        bundle = pipeline.represent(later)
    assert spy.call_count == 0
    assert bundle == Pipeline(PipelineConfig(mode=Mode.STRICT)).represent(later)


def _distinct_words(count: int, start: int = 0) -> list[str]:
    """``count`` distinct lowercase words of five letters, none a stop word."""
    letters = "bdfghjklmprstvwz"
    return [
        "".join(letters[(i >> shift) & 15] for shift in (16, 12, 8, 4, 0))
        for i in range(start, start + count)
    ]


def test_a_memo_that_meets_mostly_new_words_is_dropped():
    # Two windows of words: the memo's first, its cold start, is not
    # judged; in the second every word is new, so the memo is dropped in
    # the middle of the document and its last piece is normalized whole.
    cfg = PipelineConfig(mode=Mode.PAPER_GOLDEN)
    pipeline = Pipeline(cfg)
    pipeline.represent(Document("first", "ụlọ akwụkwọ"))
    later = Document("later", " ".join(_distinct_words(30)) + " ")
    with mock.patch.object(pipeline_module, "_WINDOW", 10), \
            mock.patch.object(normalize_module, "_PIECE", 55):
        cut = list(pieces(later.text))
        with mock.patch.object(pipeline_module, "normalize", wraps=normalize) as spy:
            bundle = pipeline.represent(later)
        assert len(cut) == 3  # ten words a piece
        assert [call.args[0] for call in spy.call_args_list][-1] == cut[-1]
        assert spy.call_count == 3
        assert bundle == Pipeline(cfg).represent(later)
        # Freed, and every later document is served as the first was.
        assert pipeline._words is None and pipeline._tokens is None
        last = Document("last", later.text + "ụlọ")
        with mock.patch.object(pipeline_module, "normalize", wraps=normalize) as spy:
            bundle = pipeline.represent(last)
        assert [call.args[0] for call in spy.call_args_list] == list(pieces(last.text))
        assert bundle == Pipeline(cfg).represent(last)
        filtered = pipeline._filtered(later)
        assert len({id(token) for token in filtered}) == len(set(filtered))


def test_a_memo_that_meets_few_new_words_is_kept(doc1):
    cfg = PipelineConfig(mode=Mode.STRICT)
    pipeline = Pipeline(cfg)
    pipeline.represent(doc1)
    with mock.patch.object(pipeline_module, "_WINDOW", 10):
        for i in range(4):
            # Each document is doc1's words and one new word: new words
            # are far fewer than 3 in 8 of a window.
            doc = Document(f"d{i}", f"{doc1.text} {_distinct_words(1, i)[0]}")
            assert pipeline.represent(doc) == Pipeline(cfg).represent(doc)
    assert pipeline._words is not None


def test_the_word_memo_grows_with_distinct_words_not_with_the_text():
    # 20,000 distinct words, each met eight times in a row, so that one
    # word in eight is new and the memo is kept. It holds an entry per
    # word and one per token, under 512 bytes a word all told (about
    # 200 on Python 3.11); a text twice as long of the same words adds
    # nothing.
    words = _distinct_words(20_000)
    text = " ".join(word for word in words for _ in range(8))
    longer = Document("longer", f"{text} {text}")
    pipeline = Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN))
    pipeline.represent(Document("first", ""))
    tracemalloc.start()
    try:
        pipeline._filtered(Document("d", text))
        held = tracemalloc.get_traced_memory()[0]
        pipeline._filtered(longer)
        held_after_longer = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pipeline._words) == len(words)
    assert held < 512 * len(words), held
    assert held_after_longer - held < 16 * 1024, (held, held_after_longer)


def test_matrix_identical_docs_give_identical_rows(doc1, golden_pipeline):
    bundle = golden_pipeline.represent(doc1)
    copy = golden_pipeline.represent(Document("copy", doc1.text))
    matrix = build_doc_term_matrix([bundle, copy], 1)
    assert matrix.rows[0] == matrix.rows[1]


def test_matrix_column_sums_equal_merged_counts(doc1, golden_pipeline):
    bundle = golden_pipeline.represent(doc1)
    other = golden_pipeline.represent(Document("other", "komputa nkunaka ocha"))
    matrix = build_doc_term_matrix([bundle, other], 1)
    merged = Counter(bundle.tables[1].counts)
    merged.update(other.tables[1].counts)
    sums = Counter()
    for row in matrix.rows:
        sums.update(row)
    assert len(matrix.features) == len(merged)
    assert set(matrix.features) == set(merged)
    assert sums == merged


def test_matrix_rows_are_the_bundles_own_tables(doc1, golden_pipeline):
    # The matrix keeps no copy of the counts: row i is document i's table.
    docs = [doc1, Document("other", "komputa nkunaka ocha"), Document("empty", "")]
    bundles = [golden_pipeline.represent(d) for d in docs]
    for n in (1, 2, 3):
        matrix = build_doc_term_matrix(bundles, n)
        assert len(matrix.rows) == len(bundles)
        for row, b in zip(matrix.rows, bundles):
            assert row is b.tables[n].counts


def _disjoint_bundles() -> list[RepresentationBundle]:
    # 400 documents with 10 bigrams each and no bigram shared: 4000
    # features, so a dense matrix holds 1.6M cells, 12.8 MB of tuple slots.
    bundles = []
    for i in range(400):
        counts = {(f"w{i}", f"x{k}"): 1 + k % 3 for k in range(10)}
        table = NGramTable(counts, sum(counts.values()))
        bundles.append(RepresentationBundle(doc_id=f"d{i}", tables={2: table}))
    return bundles


def _peak_bytes_of_write(serializer, bundles, out) -> int:
    tracemalloc.start()
    try:
        write_output(serializer(build_doc_term_matrix(bundles, 2)), out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_build_and_tsv_write_stay_sparse(tmp_path):
    out = tmp_path / "matrix.tsv"
    peak = _peak_bytes_of_write(matrix_to_tsv, _disjoint_bundles(), out)
    assert peak < 4_000_000
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 401
    assert len(lines[1].split("\t")) == 4001


def test_matrix_json_write_stays_sparse(tmp_path):
    import json

    out = tmp_path / "matrix.json"
    peak = _peak_bytes_of_write(matrix_to_json, _disjoint_bundles(), out)
    assert peak < 4_000_000
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["cells"]) == 400
    assert len(payload["cells"][1]) == len(payload["features"]) == 4000
    assert sum(payload["cells"][1]) == 19


def test_a_stdout_with_no_buffer_is_written_each_piece_once(monkeypatch):
    # A text stream whose write returns None, as an in-process caller may
    # put in stdout's place: each piece goes to it once, as it is made.
    written = []

    class Text:
        def write(self, piece):
            written.append(piece)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Text())
    pieces = ["a\t1\n", "ị" * 70_000, "", "b\n"]
    write_output(iter(pieces), None)
    assert written == pieces


def test_bytes_are_written_as_they_are_or_as_their_text(tmp_path, monkeypatch):
    # A file and a binary stdout get the bytes themselves, in one write; a
    # stdout with no buffer gets their decoded text, once.
    data = "ị b\t2\nụ\t1\n".encode("utf-8") * 10_000
    out = tmp_path / "out.tsv"
    write_output(data, out)
    assert out.read_bytes() == data

    class Binary(io.BytesIO):
        def write(self, chunk):
            writes.append(type(chunk))
            return super().write(chunk)

    class Text:
        buffer = Binary()

    writes = []
    monkeypatch.setattr(sys, "stdout", Text())
    write_output(data, None)
    assert Text.buffer.getvalue() == data
    assert writes == [bytes]

    monkeypatch.setattr(sys, "stdout", io.StringIO())
    write_output(data, None)
    assert sys.stdout.getvalue() == data.decode("utf-8")


def _short_writing_stdout(monkeypatch) -> bytearray:
    """A binary stdout that takes at most 1,000 bytes a write and says so,
    as a pipe whose reader went away may take part of one; the bytes it
    took."""
    taken = bytearray()

    class Binary:
        def write(self, data):
            taken.extend(data[:1000])
            return len(data[:1000])

        def flush(self):
            pass

    class Text:
        buffer = Binary()

    monkeypatch.setattr(sys, "stdout", Text())
    return taken


def test_a_short_write_is_retried_until_every_byte_is_taken(monkeypatch):
    taken = _short_writing_stdout(monkeypatch)
    text = "ị" * 70_000
    write_output(text, None)
    assert taken == text.encode("utf-8")


def test_a_short_write_of_bytes_is_retried_until_every_byte_is_taken(monkeypatch):
    taken = _short_writing_stdout(monkeypatch)
    data = ("ị" * 70_000).encode("utf-8")
    write_output(data, None)
    assert taken == data


def test_matrix_order_mismatch(doc1):
    bundle = run_pipeline(doc1, PipelineConfig(mode=Mode.PAPER_GOLDEN, orders=(1,)))
    with pytest.raises(OrderMismatchError):
        build_doc_term_matrix([bundle], 2)


def test_tsv_first_line(doc1_bundle):
    assert bundle_to_tsv(doc1_bundle).splitlines()[0] == b"nkuziie\t4"


def test_tsv_empty_table():
    empty = NGramTable({}, 0)
    assert bundle_to_tsv(RepresentationBundle("d", {1: empty})) == b""


@pytest.mark.parametrize(
    "counts",
    [{("\ud800",): 1, ("a",): 1}, {("\ud800",): 1, ("e\u0301",): 1}],
    ids=["byte-ranked", "nfc-ranked"],
)
def test_a_word_holding_a_lone_surrogate_is_refused_by_the_tsv(counts):
    # Only a hand-built or bundle_from_json table can hold one; its TSV has
    # no UTF-8, on either ranking path.
    table = NGramTable(counts, sum(counts.values()))
    with pytest.raises(UnicodeEncodeError):
        bundle_to_tsv(RepresentationBundle("d", {1: table}))


def test_bundle_tsv_has_one_row_per_entry(doc1_bundle):
    text = bundle_to_tsv(doc1_bundle)
    rows = [line for line in text.splitlines() if line]
    assert len(rows) == 27 + 31 + 34


def test_bundle_tsv_is_one_bytes_object(doc1_bundle):
    # Made whole, not as pieces: a timer around the call sees all its work,
    # the encode included.
    assert type(bundle_to_tsv(doc1_bundle)) is bytes


def test_json_roundtrip(doc1_bundle):
    text = "".join(bundle_to_json(doc1_bundle))
    parsed = bundle_from_json(text)
    assert parsed.doc_id == doc1_bundle.doc_id
    for n in (1, 2, 3):
        assert parsed.tables[n].counts == doc1_bundle.tables[n].counts
        assert parsed.tables[n].total_windows == doc1_bundle.tables[n].total_windows
    assert "".join(bundle_to_json(parsed)) == text


def _table_obj(**fields) -> dict:
    obj = {
        "doc_id": "d",
        "n": 2,
        "total": 3,
        "entries": [{"gram": ["a", "b"], "count": 2}, {"gram": ["b", "c"], "count": 1}],
    }
    obj.update(fields)
    return obj


def _entries(*pairs) -> list[dict]:
    return [{"gram": gram, "count": count} for gram, count in pairs]


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param(
            _table_obj(n=7, total=-1, entries=_entries((["a"], 5))),
            r"^table object 0: n 7 is not one of \(1, 2, 3\)$",
            id="order-7",
        ),
        pytest.param(
            _table_obj(entries=_entries((["a", "b"], 2), (["a", "b"], 1))),
            r"^table object 0: entries\[1\]\.gram \['a', 'b'\] repeats an earlier entry$",
            id="gram-repeated",
        ),
        pytest.param(
            _table_obj(total=1, entries=_entries(("ab", 1))),
            r"^table object 0: entries\[0\]\.gram 'ab' is not a list of 2 strings$",
            id="gram-a-string",
        ),
        pytest.param(
            _table_obj(total=1, entries=_entries((["a"], 1))),
            r"^table object 0: entries\[0\]\.gram \['a'\] is not a list of 2 strings$",
            id="gram-too-short",
        ),
        pytest.param(
            _table_obj(total=1, entries=_entries((["a", 1], 1))),
            r"^table object 0: entries\[0\]\.gram \['a', 1\] is not a list of 2 strings$",
            id="word-not-a-string",
        ),
        pytest.param(
            [_table_obj(), _table_obj()],
            r"^table object 1: n 2 repeats an earlier table's order$",
            id="order-repeated",
        ),
        pytest.param(
            _table_obj(total=1.9, entries=_entries((["a", "b"], 1.9))),
            r"^table object 0: entries\[0\]\.count 1\.9 is not an int of at least 1$",
            id="count-fraction",
        ),
        pytest.param(
            _table_obj(total=0, entries=_entries((["a", "b"], 0))),
            r"^table object 0: entries\[0\]\.count 0 is not an int of at least 1$",
            id="count-zero",
        ),
        pytest.param(
            _table_obj(total=1, entries=_entries((["a", "b"], True))),
            r"^table object 0: entries\[0\]\.count True is not an int of at least 1$",
            id="count-bool",
        ),
        pytest.param(
            _table_obj(total=4),
            r"^table object 0: total 4 is not the sum of the counts, 3$",
            id="total-not-the-sum",
        ),
        pytest.param(
            {key: value for key, value in _table_obj().items() if key != "total"},
            r"^table object 0: fields must be doc_id, n, total and entries$",
            id="field-missing",
        ),
        pytest.param(
            _table_obj(mode="paper"),
            r"^table object 0: fields must be doc_id, n, total and entries$",
            id="field-extra",
        ),
        pytest.param(
            "d",
            r"^table object 0: fields must be doc_id, n, total and entries$",
            id="object-a-string",
        ),
        pytest.param(
            _table_obj(entries=[["a", "b"]]),
            r"^table object 0: entries\[0\]: fields must be gram and count$",
            id="entry-a-list",
        ),
        pytest.param(
            _table_obj(doc_id=5),
            r"^table object 0: doc_id 5 is not a string$",
            id="doc-id-a-number",
        ),
        pytest.param(
            [],
            r"^bundle JSON holds no table object$",
            id="no-table",
        ),
        pytest.param(
            _table_obj(entries={}),
            r"^table object 0: entries is not a list$",
            id="entries-an-object",
        ),
        pytest.param(
            [_table_obj(n=1, total=1, entries=_entries((["a"], 1))), _table_obj(doc_id="e")],
            r"^bundle mixes document ids: \['d', 'e'\]$",
            id="two-doc-ids",
        ),
    ],
)
def test_bundle_json_reader_names_what_it_rejects(payload, message):
    with pytest.raises(ValueError, match=message):
        bundle_from_json(json.dumps(payload))


def test_json_single_order_shape(doc1, golden_pipeline):
    import json

    bundle = Pipeline(PipelineConfig(mode=Mode.PAPER_GOLDEN, orders=(1,))).represent(doc1)
    payload = json.loads("".join(bundle_to_json(bundle)))
    assert payload["n"] == 1
    assert payload["total"] == 36
    assert payload["entries"][0] == {"gram": ["nkuziie"], "count": 4}


def test_matrix_serialization(doc1, golden_pipeline):
    bundle = golden_pipeline.represent(doc1)
    matrix = build_doc_term_matrix([bundle], 1)
    tsv = "".join(matrix_to_tsv(matrix))
    lines = tsv.splitlines()
    assert lines[0].startswith("doc_id\tnkuziie\tprojekto")
    assert len(lines) == 2
    assert "".join(matrix_to_json(matrix)).endswith("\n")
    assert "".join(matrix_to_tsv(build_doc_term_matrix([], 1))) == ""


def test_matrix_rows_write_every_count_as_its_str():
    # Counts of 0-9 are written as one byte into a copy of the zero line;
    # any other count is spliced in whole, wherever it falls in the row,
    # and in cell order whatever order the row lists its grams in.
    features = (("a",), ("b", "c"), ("ụ",), ("d",), ("e",))
    cells = [[0, 9, 10, 10**12, -1], [10, 9, 0, 0, 1], [-1, 0, 0, 0, 10**12], [0] * 5]
    rows = [{gram: count for gram, count in zip(features, row) if count} for row in cells]
    rows[0] = {features[0]: 0, **rows[0]}  # an explicit 0 renders as an absent one
    rows[2] = dict(reversed(rows[2].items()))
    m = DocTermMatrix(n=1, doc_ids=("x", "ý", "z", "w"), features=features, rows=tuple(rows))
    args = (["x", "ý", "z", "w"], features, cells)
    assert "".join(matrix_to_tsv(m)) == reference_matrix_tsv(*args)
    assert "".join(matrix_to_json(m)) == reference_matrix_json(1, *args)


@pytest.mark.parametrize("serialize", [matrix_to_tsv, matrix_to_json])
def test_matrix_row_with_a_gram_off_the_axis_is_named(serialize):
    m = DocTermMatrix(n=1, doc_ids=("x", "y"), features=(("a",),),
                      rows=({("a",): 1}, {("b",): 2}))
    lines = serialize(m)
    with pytest.raises(ValueError, match=r"document 'y' holds \('b',\)"):
        list(lines)


@pytest.mark.parametrize("serialize", [matrix_to_tsv, matrix_to_json])
@pytest.mark.parametrize("doc_ids, rows, message", [
    (("x", "y", "z"), ({("a",): 1},), "3 document ids for 1 rows"),
    (("x",), ({("a",): 1}, {("a",): 2}), "1 document ids for 2 rows"),
])
def test_matrix_needs_one_doc_id_per_row(serialize, doc_ids, rows, message):
    # Refused when made, before a writer can drop what lies past the shorter.
    with pytest.raises(ValueError, match=f"^{message}$"):
        list(serialize(DocTermMatrix(n=1, doc_ids=doc_ids, features=(("a",),), rows=rows)))


# TAB and every character at which str.splitlines breaks a line.
TSV_BREAKS = ["\t", "\r", "\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("breaker", TSV_BREAKS, ids=repr)
def test_matrix_tsv_rejects_a_document_id_that_would_break_its_row(breaker):
    doc_id = f"corpus/a{breaker}b.txt"
    m = DocTermMatrix(n=1, doc_ids=("ok.txt", doc_id), features=(("a",),),
                      rows=({("a",): 1}, {}))
    with pytest.raises(ValueError, match="--format json") as info:
        matrix_to_tsv(m)
    assert repr(doc_id) in str(info.value)
