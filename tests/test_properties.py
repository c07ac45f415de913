"""Property suites: window identity, monotonicity, MLE normalization,
merge algebra, idempotence, and UTF-8 round-trips.

Each property is a plain hypothesis test so the acceptance module can
invoke the same functions directly and time them.
"""

from __future__ import annotations

import json
import math
import tempfile
import unicodedata
from collections import Counter
from itertools import chain
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from igbotext import (
    KeyFeature,
    LanguageModel,
    Mode,
    Pipeline,
    PipelineConfig,
    bigram_conditional,
    trigram_conditional,
    unigram_probability,
)
from igbotext import ngrams as ngrams_module
from igbotext import normalize as normalize_module
from igbotext import pipeline as pipeline_module
from igbotext.cli import main as cli_main
from igbotext.lexicon import CompoundCategory, match_key_features
from igbotext.ngrams import ORDERS, NGramTable, count_runs, extract_ngrams, rank_features
from igbotext.normalize import fold, normalize, pieces, remove_stopwords, tokenize
from igbotext.pipeline import (
    ENCODER,
    RepresentationBundle,
    build_doc_term_matrix,
    bundle_from_json,
    bundle_to_json,
    bundle_to_tsv,
    matrix_to_json,
    matrix_to_tsv,
    table_to_obj,
    to_json,
    tokens,
)
from igbotext.textio import Document, decode_utf8

from reference_pipeline import (
    reference_filter,
    reference_fold,
    reference_matrix,
    reference_matrix_json,
    reference_matrix_tsv,
    reference_rank,
    reference_table,
    reference_table_tsv,
    reference_tokens,
)

# Letters used in Igbo spellings plus the noise classes the normalizer
# must digest: case, tone-marked vowels, digits, listed symbols, hyphen,
# both apostrophes, whitespace.
IGBO_LETTERS = "abchdefgijklmnoprstuvwyzịọụñ"
NOISY_ALPHABET = (
    IGBO_LETTERS
    + IGBO_LETTERS.upper()
    + "àáèéìíòóùúū"
    + "0123456789"
    + ":;?!\"{}+&[]<>/@*=^%,.()"
    + "£€₦$-'’ \t\n"
)

words = st.text(alphabet=IGBO_LETTERS, min_size=1, max_size=6)
streams = st.lists(words, max_size=50)


def _stream(tokens: list[str]) -> tuple[str, ...]:
    return tuple(tokens)


def _model(tokens: list[str]) -> LanguageModel:
    stream = _stream(tokens)
    return LanguageModel(*(extract_ngrams(stream, n) for n in ORDERS))


@given(streams)
@settings(max_examples=1000, deadline=None)
def test_window_identity_vs_naive_oracle(tokens):
    ts = _stream(tokens)
    t_len = len(ts)
    for n in (1, 2, 3):
        table = extract_ngrams(ts, n)
        naive = Counter(tuple(tokens[i:i + n]) for i in range(t_len - n + 1))
        assert table.total_windows == max(0, t_len - n + 1)
        # Keyed in order of first occurrence, as a Counter is: that order
        # decides the order of NFD/NFC twins in every ranked output.
        assert list(table.counts.items()) == list(naive.items())
        assert sum(table.counts.values()) == table.total_windows


@given(streams)
@settings(max_examples=200, deadline=None)
def test_count_monotonicity(tokens):
    m = _model(tokens)
    for (w1, w2), c in m.bigrams.counts.items():
        assert c <= min(m.unigrams.counts[(w1,)], m.unigrams.counts[(w2,)])
    for (w1, w2, w3), c in m.trigrams.counts.items():
        assert c <= m.bigrams.counts[(w1, w2)]
        assert c <= m.bigrams.counts[(w2, w3)]


@given(streams)
@settings(max_examples=200, deadline=None)
def test_conditionals_sum_to_one(tokens):
    # With no boundary padding, a context occurrence that ends the stream
    # starts no window, so conditionals over observed continuations sum to
    # (count - trailing occurrences) / count. That is exactly 1 for every
    # context that never terminates the stream.
    m = _model(tokens)
    continuations: dict[str, list[str]] = {}
    for (w1, w2) in m.bigrams.counts:
        continuations.setdefault(w1, []).append(w2)
    last_word = tokens[-1] if tokens else None
    for (w1,), count in m.unigrams.counts.items():
        total = sum(bigram_conditional(m, w1, w2) for w2 in continuations.get(w1, []))
        trailing = 1 if w1 == last_word else 0
        assert math.isclose(total, (count - trailing) / count, abs_tol=1e-9)
        if w1 != last_word:
            assert math.isclose(total, 1.0, abs_tol=1e-9)
    tri_continuations: dict[tuple[str, str], list[str]] = {}
    for (w1, w2, w3) in m.trigrams.counts:
        tri_continuations.setdefault((w1, w2), []).append(w3)
    last_pair = tuple(tokens[-2:]) if len(tokens) >= 2 else None
    for (w1, w2), count in m.bigrams.counts.items():
        total = sum(
            trigram_conditional(m, w1, w2, w3) for w3 in tri_continuations.get((w1, w2), [])
        )
        trailing = 1 if (w1, w2) == last_pair else 0
        assert math.isclose(total, (count - trailing) / count, abs_tol=1e-9)
        if (w1, w2) != last_pair:
            assert math.isclose(total, 1.0, abs_tol=1e-9)


@given(streams, streams, streams, st.sampled_from([1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_merge_commutative_and_associative(xs, ys, zs, n):
    # Corpus tables are merged by build_doc_term_matrix: its feature axis
    # and column sums are the merged counts, whatever the document order
    # or grouping.
    # Each document is a (doc id, table) pair.
    a = ("a", extract_ngrams(_stream(xs), n))
    b = ("b", extract_ngrams(_stream(ys), n))
    c = ("c", extract_ngrams(_stream(zs), n))

    def joined(*docs: tuple[str, NGramTable]) -> tuple[str, NGramTable]:
        counts = sum((Counter(t.counts) for _, t in docs), Counter())
        total = sum(t.total_windows for _, t in docs)
        return "+".join(doc_id for doc_id, _ in docs), NGramTable(dict(counts), total)

    def merged(*docs: tuple[str, NGramTable]):
        bundles = [RepresentationBundle(doc_id, {n: t}) for doc_id, t in docs]
        matrix = build_doc_term_matrix(bundles, n)
        for row, (_, t) in zip(matrix.rows, docs):
            assert sum(row.values()) == t.total_windows
        sums = Counter()
        for row in matrix.rows:
            sums.update(row)
        assert set(sums) <= set(matrix.features)
        return matrix.features, dict(sums)

    features, sums = merged(a, b, c)
    assert sums == Counter(a[1].counts) + Counter(b[1].counts) + Counter(c[1].counts)
    assert set(features) == set(sums)
    for order in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        assert merged(*order) == (features, sums)
    assert merged(joined(a, b), c) == merged(a, joined(b, c)) == (features, sums)
    assert merged(joined(a, b, c)) == (features, sums)


@given(st.text(alphabet=NOISY_ALPHABET, max_size=120))
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(text):
    for mode in (Mode.PAPER_GOLDEN, Mode.STRICT):
        once = normalize(text, mode)
        assert normalize(once, mode) == once


@given(st.lists(words, max_size=30), st.sampled_from([Mode.PAPER_GOLDEN, Mode.STRICT]))
@settings(max_examples=200, deadline=None)
def test_stop_filter_idempotent(tokens, mode):
    sl = _PIPELINES[Mode.PAPER_GOLDEN].stoplist  # the shipped list
    once = remove_stopwords(_stream(tokens), sl, mode)
    assert remove_stopwords(once, sl, mode) == once
    assert Counter(once) <= Counter(tokens)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_utf8_roundtrip(text):
    # A leading U+FEFF is stripped as a byte-order mark by design, so it
    # is the one scalar sequence excluded from the round-trip law.
    if text.startswith("﻿"):
        text = "x" + text
    doc = Document("d", text)
    raw = doc.text.encode("utf-8")
    assert decode_utf8(raw, doc.id) == doc
    assert decode_utf8(raw, doc.id).text.encode("utf-8") == raw


# Words that JSON must escape or keep as they are: quotes, backslashes,
# control characters, NFC and NFD spellings, curly apostrophes, spaces.
json_words = st.text(alphabet='ab"\\\n\x01\u00e9e\u0301\u1ee5’ ', min_size=1, max_size=3)


@given(
    st.lists(json_words, max_size=40),
    st.sets(st.sampled_from(ORDERS), min_size=1),
    st.text(max_size=8),
)
@example(["a", "b", "a"], {2}, "d")  # one table object
@example(["a", "b", "a"], {1, 2, 3}, "d")  # a list of them
@example([], {1, 3}, "")
@settings(max_examples=300, deadline=None)
def test_bundle_json_round_trip(tokens, orders, doc_id):
    bundle = RepresentationBundle(doc_id, {n: extract_ngrams(tuple(tokens), n) for n in orders})
    text = "".join(bundle_to_json(bundle))
    assert isinstance(json.loads(text), dict) == (len(orders) == 1)
    parsed = bundle_from_json(text)
    assert parsed.doc_id == doc_id
    assert sorted(parsed.tables) == sorted(orders)
    for n in orders:
        assert parsed.tables[n].counts == bundle.tables[n].counts
        assert parsed.tables[n].total_windows == bundle.tables[n].total_windows
    assert "".join(bundle_to_json(parsed)) == text


json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | json_words,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3) | json_words, inner, max_size=4),
    max_leaves=20,
)


@given(json_payloads)
@example({"a\x01": ["\u1ee5\n", [], {}], "": [[]], "\u00e9": []})
@settings(max_examples=300, deadline=None)
def test_to_json_is_the_standard_encoders_text(payload):
    expected = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    assert "".join(to_json(payload)) == expected


@given(st.lists(st.text(max_size=6) | json_words, max_size=8))
@example(["a\x01", "\u1ee5\\", '"\n', ""])
@settings(max_examples=300, deadline=None)
def test_escaped_pieces_join_to_the_escaped_whole(parts):
    # The normalize command writes a text's JSON string as the escapes of
    # its pieces.
    escaped = "".join(ENCODER.encode(part)[1:-1] for part in parts)
    assert escaped == ENCODER.encode("".join(parts))[1:-1]


@given(streams, st.lists(words, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_unigram_product_matches_log_sum(tokens, query):
    m = _model(tokens)
    if m.unigrams.total_windows == 0:
        return
    probs = [unigram_probability(m, w) for w in query]
    product = math.prod(probs)
    if any(p == 0.0 for p in probs):
        assert product == 0.0
    else:
        via_logs = math.exp(sum(math.log(p) for p in probs))
        assert math.isclose(product, via_logs, rel_tol=1e-9)


@given(st.lists(words, max_size=20))
@settings(max_examples=200, deadline=None)
def test_noise_removal_keeps_plain_letter_words(tokens):
    text = " ".join(tokens)
    for mode in (Mode.PAPER_GOLDEN, Mode.STRICT):
        assert normalize(text, mode) == text


@given(st.text(alphabet=NOISY_ALPHABET, max_size=120))
@settings(max_examples=200, deadline=None)
def test_dot_below_multiset_preserved(text):
    def dots(s: str) -> Counter:
        return Counter(ch for ch in unicodedata.normalize("NFD", s) if ch == "̣")

    assert dots(fold(text)) == dots(text)


# Marks that compose with the letter before them (the tone marks, dot
# below, dot above, circumflex, horn), letters that already carry one
# (ộ, ợ, ά, NFC and NFD ị ọ ụ ṅ in both cases), iota subscript, letters
# whose lowercase is longer or context-dependent (İ, Σ), Hangul jamo that
# compose to a syllable, and "=" + U+0338.
MARK_RICH_ALPHABET = (
    "\u0300\u0301\u0304\u0323\u0307\u0302\u031b"
    "ộợά\u0345İΣ\u1100\u1161\u11a8가=\u0338oiunON "
    "ịọụṅỊỌỤṄ"
    + unicodedata.normalize("NFD", "ịọụṅỊỌỤṄ")
)


@given(st.one_of(st.text(), st.text(alphabet=MARK_RICH_ALPHABET, max_size=40)))
@example("o\u0323\u0300\u0302")
@example("N\u0307\u0323")
@settings(max_examples=500, deadline=None)
def test_fold_matches_the_reference(text):
    assert fold(text) == reference_fold(text)


# Tokens of one to four scalar values, dotted letters in both spellings
# among them, and stop lists of the same short words, so that the strict
# length rule and the list overlap.
short_tokens = st.text(alphabet="ahnuịọụṅ\u0323", min_size=1, max_size=4)


@given(
    st.lists(short_tokens, max_size=30),
    st.frozensets(st.one_of(short_tokens, st.sampled_from(("ahụ", "na", "ụ", "ya"))), max_size=8),
    st.sampled_from(list(Mode)),
)
@settings(max_examples=300, deadline=None)
def test_stop_filter_matches_the_reference(tokens, words, mode):
    kept = remove_stopwords(_stream(tokens), words, mode)
    assert list(kept) == reference_filter(tokens, words, mode is Mode.STRICT)


# Noisy text plus the forms the fast path handles in bulk: NFD sequences
# and stray combining marks, "=" + U+0338 (composes to "≠" under NFC),
# dashes and ellipses, non-ASCII whitespace, clitics and stop words.
NOISY_PIECES = (
    "e\u0300", "u\u0323\u0301", "o\u0323", "\u0304", "\u0323", "=\u0338", "\u0338",
    "—", "…", "\u00a0", "\u2003", "\u3000", "\u2028",
    "n’", "n'", "g'", "na-", "ana-", "’s", "ahụ", "na", "makana", "ka",
)
noisy_texts = st.lists(
    st.one_of(st.text(alphabet=NOISY_ALPHABET, max_size=8), st.sampled_from(NOISY_PIECES)),
    max_size=30,
).map("".join)

_PIPELINES = {mode: Pipeline(PipelineConfig(mode=mode)) for mode in Mode}


# Letters, listed characters and combining marks side by side, so that
# deleting a character often leaves a letter next to a mark.
marked_texts = st.lists(
    st.sampled_from(("u", "o", "N", " ", ".", ",", "(", "$", "'", "-", "=", "≠",
                     "\u0323", "\u0300", "\u0301", "\u0338")),
    max_size=20,
).map("".join)


@given(st.one_of(noisy_texts, marked_texts, st.text(max_size=60)))
@settings(max_examples=500, deadline=None)
def test_normalize_output_is_nfc(text):
    for mode in Mode:
        out = normalize(text, mode)
        assert unicodedata.is_normalized("NFC", out)


# Word pieces the rules act on (tone marks, NFD sequences, stray marks,
# "=" + U+0338, a capital sigma, whose lowercase depends on its
# neighbours, digits, a currency sign, apostrophes, hyphens) and the
# whitespace that str.split splits on: among it U+1680 and U+3000, which
# the class of normalize's mark-led word must leave out, and U+2000, which
# NFC turns into U+2002.
LOCAL_PIECES = (
    "e\u0300", "U\u0323\u0301", "o\u0323", "\u0300", "\u0323", "\u0338", "=\u0338",
    "Σ", "ΑΣ", "7", "20:30", "₦", "'", "’", "-", "na-", "n’",
)
SPLIT_SPACES = (" ", "\t", "\n", "\u00a0", "\u001c", "\u1680", "\u2000", "\u3000")
local_texts = st.lists(
    st.one_of(
        st.sampled_from(LOCAL_PIECES),
        st.sampled_from(SPLIT_SPACES),
        st.text(alphabet=NOISY_ALPHABET, max_size=4),
    ),
    max_size=30,
).map("".join)


@given(local_texts)
@example("ΑΣ\u00a0Σa\u3000aΣ")
@example("a \u0323b\u001c=\u0338\t7a\n₦’s")
# Combining marks after U+3000, U+1680 and TAB, at a word start each.
@example("\u3000\u0323")
@example("a\u1680\u0301\u0323b")
@example("ụ\t\u0300\u0323lọ\t\u0323")
@settings(max_examples=500, deadline=None)
def test_normalize_is_word_local(text):
    # Tokenizing each whitespace word's normalized text alone and chaining
    # the tokens gives the normalized text's tokens: text may be cut at
    # whitespace.
    for mode in Mode:
        words = (tokenize(normalize(word, mode)) for word in text.split())
        assert tokenize(normalize(text, mode)) == tuple(chain.from_iterable(words))


@st.composite
def piece_texts(draw):
    """Texts to cut into pieces: the word-local pieces and lexicon phrases
    between any of the split spaces, or between TAB, LF and U+3000 alone;
    runs with no whitespace longer than a piece; whitespace at either end."""
    spaces = draw(st.sampled_from((SPLIT_SPACES, ("\t", "\n", "\u3000"))))
    long_runs = st.tuples(st.sampled_from(LOCAL_PIECES), st.integers(65, 80))
    items = st.one_of(
        st.sampled_from(LOCAL_PIECES),
        st.sampled_from(spaces),
        st.sampled_from(spaces).map(lambda space: f"ụlọ{space}ọgwụ{space}komputa{space}nkunaka"),
        st.text(alphabet=NOISY_ALPHABET.translate({ord(c): None for c in " \t\n"}), max_size=4),
        long_runs.map(lambda run: run[0] * run[1]),
    )
    ends = st.lists(st.sampled_from(spaces), max_size=2).map("".join)
    return draw(ends) + "".join(draw(st.lists(items, max_size=30))) + draw(ends)


def _cli_output(src: Path, command: str, mode: Mode, *flags: str) -> str:
    out = src.with_suffix(".out")
    assert cli_main([command, str(src), "--mode", mode.value, *flags, "--output", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@given(piece_texts(), st.sampled_from((None, *range(1, 65))))
@example("aΑΣ Σb ΑΣ\tΣ", 4)  # ΑΣ right before a cut, Σ right after one
@example("a \u0323b \u0300\u0323c", 2)  # a combining mark starts a piece
@example("ụ̀lọ na-ese\u3000ΑΣ 20:30\t\u0323n’", None)
@settings(max_examples=100, deadline=None)
def test_pieces_are_exact(text, size):
    # size None is the default piece, which is slower to test; the text is
    # then made long enough to be cut in several.
    if size is None:
        size = normalize_module._PIECE
        text *= 2 * size // max(len(text), 1) + 1
    with mock.patch.object(normalize_module, "_PIECE", size):
        cut = list(pieces(text))
        assert "".join(cut) == text
        for i, piece in enumerate(cut):
            assert piece
            # Every piece but the last ends at the first whitespace at or
            # past its size-th character, which pins each cut exactly.
            assert i == len(cut) - 1 or (len(piece) >= size and piece[-1].isspace())
            assert not any(map(str.isspace, piece[size - 1:-1]))
        # Every output equals that of the whole text in one piece: by the
        # first document's path, and by the word memo of a Pipeline past
        # its first document.
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "doc.txt"
            src.write_bytes(text.encode("utf-8"))
            for mode, shared in _PIPELINES.items():
                whole = normalize(text, mode)
                assert tuple(chain.from_iterable(tokens(text, mode))) == tokenize(whole)
                kept = remove_stopwords(tokenize(whole), shared.stoplist, mode)
                doc = Document("d", text)
                for memo in (False, True):
                    pipeline = Pipeline(shared.cfg)
                    if memo:
                        pipeline.represent(Document("first", ""))
                    bundle = pipeline.represent(doc)
                    for n in ORDERS:
                        assert bundle.tables[n] == extract_ngrams(kept, n)
                    assert pipeline.features(doc) == match_key_features(kept, shared.lexicon)
                assert _cli_output(src, "normalize", mode) == " ".join(tokenize(whole)) + "\n"
                assert _cli_output(src, "tokenize", mode) == "".join(
                    token + "\n" for token in tokenize(whole)
                )
                for command, field, value in (("normalize", "text", " ".join(tokenize(whole))),
                                              ("tokenize", "tokens", list(tokenize(whole)))):
                    payload = {"doc_id": str(src), field: value}
                    assert _cli_output(src, command, mode, "--format", "json") == (
                        json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
                    )


# Whitespace words for a Pipeline's word memo: words that normalize to
# nothing (digits, a currency sign, punctuation alone) or to several tokens
# (apostrophes, strict hyphens), mark-led words, capital sigmas, stop words,
# short words that only strict mode's length rule drops, and Igbo words.
MEMO_WORDS = (
    "7", "20:30", "₦", "?!", "(.)", "n’ulo", "N'a'", "na-ese", "ana-eme",
    "\u0323lọ", "\u0300\u0323a", "ΑΣ", "Σa", "aΣ", "na", "ya", "ab", "ụ", "Ụlọ",
    "ahụ", "komputa", "nkunaka", "ezi", "u\u0323\u0300lo\u0323",
)
memo_texts = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(MEMO_WORDS),
                  st.text(alphabet=NOISY_ALPHABET.translate({ord(c): None for c in " \t\n"}),
                          min_size=1, max_size=4)),
        st.sampled_from((" ", "\t", "\u3000", "\u2028")),
    ),
    max_size=12,
).map(lambda words: "".join(word + space for word, space in words))


def _counts(bundle: RepresentationBundle) -> list:
    """Each table's (gram, count) pairs in ``counts`` order, which decides
    the order of equal ranks in every output."""
    return [list(bundle.tables[n].counts.items()) for n in ORDERS]


@given(st.lists(memo_texts, min_size=1, max_size=4), st.sampled_from(list(Mode)),
       st.integers(1, 24), st.sampled_from((1, 2, 3, 5, 8, 1 << 30)))
@example(["ΑΣ na-ese\t7 n’ulo", "\u0323lọ\u3000ΑΣ\u2028ab ụ N'a'"], Mode.STRICT, 4, 1 << 30)
@example(["komputa ₦ ab", "ab komputa\tya ụ"], Mode.STRICT, 24, 1 << 30)
@example(["ya", "ab ụ ya 7 N'a' ₦ na-ese\tahụ", "n’ulo ΑΣ ab"], Mode.STRICT, 4, 2)
@settings(max_examples=150, deadline=None)
def test_a_shared_pipeline_gives_each_document_what_a_fresh_one_gives(texts, mode, size, window):
    # From its second document on, a Pipeline maps each word through its
    # memo, until a window of its words holds too many new ones; a fresh
    # one runs the document piece by piece. A repeated document meets only
    # words in the memo; an empty one has none. Small windows drop the
    # memo, often in the middle of a document.
    cfg = PipelineConfig(mode=mode)
    shared = Pipeline(cfg)
    with mock.patch.object(normalize_module, "_PIECE", size), \
            mock.patch.object(pipeline_module, "_WINDOW", window):
        for i, text in enumerate([*texts, texts[0], ""]):
            doc = Document(f"d{i}", text)
            assert _counts(shared.represent(doc)) == _counts(Pipeline(cfg).represent(doc)), i
            assert shared.features(doc) == Pipeline(cfg).features(doc), i


@given(st.one_of(noisy_texts, marked_texts, st.text(max_size=60)))
@settings(max_examples=500, deadline=None)
def test_no_token_starts_with_a_combining_mark(text):
    for mode in Mode:
        for token in tokenize(normalize(text, mode)):
            assert not unicodedata.category(token[0]).startswith("M"), token


@given(st.one_of(noisy_texts, marked_texts, st.text(max_size=60)))
@settings(max_examples=300, deadline=None)
def test_every_run_of_a_counted_table_is_ranked_as_bytes(text):
    # A table counted from text has NFC grams whose words hold no line
    # feed, so each of its runs takes count_runs' byte path: one NFC call
    # a run, none a gram.
    for pipeline in _PIPELINES.values():
        for table in pipeline.represent(Document("d", text)).tables.values():
            with mock.patch.object(ngrams_module, "_nfc", wraps=ngrams_module._nfc) as nfc:
                runs = list(count_runs(table.counts))
            assert nfc.call_count == len(runs)


@given(noisy_texts)
@settings(max_examples=500, deadline=None)
def test_tables_match_word_by_word_reference(text):
    for mode, pipeline in _PIPELINES.items():
        strict = mode is Mode.STRICT
        tokens = reference_tokens(text, strict)
        assert tokenize(normalize(text, mode)) == tuple(tokens)
        kept = reference_filter(tokens, pipeline.stoplist, strict)
        bundle = pipeline.represent(Document("d", text))
        for n in (1, 2, 3):
            assert bundle.tables[n].counts == reference_table(kept, n)
            assert bundle.tables[n].total_windows == max(0, len(kept) - n + 1)


# Every character str.isspace accepts (U+1680, U+3000, U+2028, \x1c-\x1f
# and \x85 among them), two combining marks, the ASCII digits 0 (the
# digit rule's own marker) and 1, two non-ASCII digits that must not
# trigger the rule, and letters.
DIGIT_RULE_ALPHABET = (
    "".join(c for c in map(chr, range(0x110000)) if c.isspace())
    + "\u0323\u0300" + "01" + "٣²" + "abụ"
)


@given(st.text(alphabet=DIGIT_RULE_ALPHABET, max_size=40))
@example("0")
@example("a0 b")
@example("0a")
@example("ụ̀0")
@example("x\u30000 y")
@example("1a b\u2028c 0")  # a digit word at the start and at the end
@example("٣ ²a b1\x85\u0323a1")
@settings(max_examples=500, deadline=None)
def test_digit_rule_matches_the_reference(text):
    for mode in Mode:
        expected = tuple(reference_tokens(text, mode is Mode.STRICT))
        assert tokenize(normalize(text, mode)) == expected


# Words for small corpora: a handful of plain words (so counts tie often),
# their tone-marked and NFD spellings, stop words, clitic and hyphen forms,
# and words the digit rule drops.
MATRIX_WORDS = (
    "komputa", "nkunaka", "ocha", "ụlọ", "u\u0323lo\u0323", "Ụ́LỌ̀", "akwụkwọ",
    "akwu\u0323\u0301kwo\u0323", "ézí", "na", "nke", "ahụ", "ya", "n’ụlọ", "n'aka",
    "na-ese", "ana-eme", "2020", "₦500", "—", "ocha.",
)


@st.composite
def matrix_corpora(draw):
    """Up to five documents (some empty), then copies of drawn documents."""
    texts = draw(st.lists(st.lists(st.sampled_from(MATRIX_WORDS), max_size=12).map(" ".join),
                          max_size=5))
    if texts:
        texts += draw(st.lists(st.sampled_from(texts), max_size=2))
    return texts


@given(matrix_corpora(), st.sampled_from((1, 2, 3)), st.sampled_from(("paper", "strict")))
@settings(max_examples=150, deadline=None)
# Rows are copies of one line of zeros with each count of 0-9 written in
# as one byte and any wider count spliced in, so these are pinned: 10 and
# 100 or more in the first and the last feature column, next to a row of
# zeros; a 9 next to a 10; a row non-zero in every column; a wide count in
# the first cell, where a JSON row's leading comma is cut; two wide counts
# that the row's table lists in the reverse of column order; then one
# feature, and no feature at all.
@example(["ocha " * 10 + "komputa " * 100, "ocha " * 110, "na"], 1, "paper")
@example(["komputa nkunaka " * 101, "komputa nkunaka " * 10, "na ahụ"], 2, "strict")
@example(["komputa " * 10 + "ocha " * 9 + "nkunaka", "ocha"], 1, "paper")
@example(["ocha komputa nkunaka ụlọ", "ocha ocha"], 1, "strict")
@example(["akwụkwọ " * 12 + "ocha", "ocha akwụkwọ"], 1, "paper")
@example(["komputa " * 10 + "ocha " * 12, "ocha"], 1, "paper")
@example(["komputa", "na", "komputa komputa"], 1, "paper")
@example(["na ya", ""], 2, "paper")
def test_matrix_output_matches_dense_reference(texts, n, mode):
    strict = mode == "strict"
    stopwords = _PIPELINES[Mode(mode)].stoplist
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        tables = []
        for i, text in enumerate(texts):
            path = root / f"d{i:02d}.txt"
            path.write_text(text, encoding="utf-8")
            kept = reference_filter(reference_tokens(text, strict), stopwords, strict)
            tables.append((str(path), reference_table(kept, n)))
        dense = reference_matrix(tables)
        expected = {"tsv": reference_matrix_tsv(*dense), "json": reference_matrix_json(n, *dense)}
        for fmt, text in expected.items():
            out = root / f"matrix.{fmt}"
            argv = ["matrix", tmp, "--n", str(n), "--mode", mode, "--format", fmt,
                    "--output", str(out)]
            assert cli_main(argv) == 0
            assert out.read_bytes() == text.encode("utf-8")


# Words of arbitrary tables: NFC and NFD spellings of one word, characters
# below U+0020, spaces, so that two grams can join to the same string, and
# line feeds. U+E000 and U+1D11E rank one way in code point (and UTF-8)
# order, the other in UTF-16 order.
rank_words = st.text(
    alphabet="ab \x01\x1f\n\u00e9e\u0301\u0323\u1ee5\ue000\U0001d11e", max_size=3
)


@st.composite
def arbitrary_tables(draw):
    """An order and a table of that order; counts of 1 to 3 tie often."""
    n = draw(st.sampled_from(ORDERS))
    grams = draw(st.lists(st.tuples(*[rank_words] * n), max_size=40, unique=True))
    return n, {gram: draw(st.integers(1, 3)) for gram in grams}


@given(arbitrary_tables())
@example((1, {}))
@example((2, {("a b", "c"): 1, ("a", "b c"): 1, ("b", "a"): 1}))
@example((2, {("a", "b c"): 2, ("a b", "c"): 2, ("a", "\x01"): 2}))
@example((1, {("e\u0301",): 1, ("\u00e9",): 1, ("f",): 1, ("e",): 1}))
# A run of NFD/NFC twins, ranked by their NFC keys.
@example((2, {("u\u0323", "a"): 1, ("a", "\u1ee5"): 1, ("\u1ee5", "a"): 1, ("a", "u\u0323"): 1}))
# Words holding a line feed, also ranked by their NFC keys.
@example((2, {("a\nb", "a"): 2, ("a", "b"): 2, ("a", "\n"): 2, ("", "b\n"): 2}))
# NFC runs, ranked as bytes: UTF-16 order would put U+1D11E first.
@example((1, {("\U0001d11e",): 4, ("\ue000",): 4, ("b",): 4, ("\u00e9",): 1, ("a",): 1}))
@example((1, {("\ue000",): 1}))  # one word
@settings(max_examples=300, deadline=None)
def test_every_ranking_matches_the_reference_sort(n_table):
    n, counts = n_table
    expected = reference_rank(counts)
    table = NGramTable(counts, sum(counts.values()))
    _assert_table_outputs_rank_as(n, table, expected)
    # One lexicon entry per gram, plus one that is not in the stream. Each
    # gram occurs `count` times in the stream, each time followed by n
    # tokens that are in no gram, so no other window spells a gram.
    lexicon = [
        KeyFeature(gram=gram, gloss=str(i), category=CompoundCategory.NOMINAL, count=0)
        for i, gram in enumerate([*counts, ("absent",) * n])
    ]
    gap = ("|",) * n
    stream = tuple(
        word for gram, count in counts.items() for _ in range(count) for word in (*gram, *gap)
    )
    features = match_key_features(stream, lexicon)
    assert [(f.gram, f.count) for f in features] == expected
    assert [int(f.gloss) for f in features] == [list(counts).index(g) for g, _ in expected]


def _assert_table_outputs_rank_as(n, table, expected):
    assert rank_features(table.counts) == expected
    bundle = RepresentationBundle("d", {n: table})
    assert bundle_to_tsv(bundle) == reference_table_tsv(table.counts).encode("utf-8")
    assert table_to_obj(bundle, n)["entries"] == [
        {"gram": list(gram), "count": count} for gram, count in expected
    ]
    # The table split over two and over three documents: the matrix axis
    # ranks the summed counts, and the rows render every count, up to the
    # widest, as the dense reference does.
    for k in (2, 3):
        shares = [_share(table.counts, k, i) for i in range(k)]
        dense = reference_matrix([(f"d{i}", share) for i, share in enumerate(shares)])
        bundles = [
            RepresentationBundle(f"d{i}", {n: NGramTable(share, sum(share.values()))})
            for i, share in enumerate(shares)
        ]
        m = build_doc_term_matrix(bundles, n)
        assert m.features == tuple(dense[1]) == tuple(gram for gram, _ in expected)
        assert "".join(matrix_to_tsv(m)) == reference_matrix_tsv(*dense)
        assert "".join(matrix_to_json(m)) == reference_matrix_json(n, *dense)


def _share(counts, k, i):
    """Document i's share of ``counts`` split over k documents: the shares
    of each gram sum to its count, and a share of 0 is left out."""
    shares = {gram: count // k + (i < count % k) for gram, count in counts.items()}
    return {gram: share for gram, share in shares.items() if share}


def wide_counts(shared):
    """Counts of a few ``shared`` values, so that runs of equal counts are
    long, mixed with counts of any width, so that many runs hold one gram."""
    return st.one_of(st.sampled_from(shared), st.integers(1, 10**12))


@st.composite
def wide_tables(draw):
    """An order and a table of up to a few hundred entries. Each word of a
    gram is two words of a small pool, picked by index: one draw per gram,
    and two words can compose across their seam (e + U+0301)."""
    n = draw(st.sampled_from(ORDERS))
    pool = draw(st.lists(rank_words, min_size=5, max_size=20, unique=True))
    words = [a + b for a in pool for b in pool]
    size = draw(st.integers(50, 300))
    picks = draw(st.lists(st.integers(0, len(words) ** n - 1), min_size=size, max_size=size))
    counts = wide_counts(draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=4)))
    grams = (tuple(words[i // len(words) ** k % len(words)] for k in range(n)) for i in picks)
    return n, {gram: draw(counts) for gram in grams}


@given(wide_tables())
# One entry; every entry at one count; every run of one gram.
@example((2, {("a", "b"): 7}))
@example((1, {("b",): 5, ("e\u0301",): 5, ("a",): 5, ("\u00e9",): 5, ("a b",): 5}))
@example((3, {("a", "a", "a"): 1, ("c", "b", "a"): 10**12, ("b", "b", "b"): 10, ("a", "", "a"): 9}))
@settings(max_examples=100, deadline=None)
def test_table_outputs_rank_wide_counts_as_the_reference_sort(n_table):
    n, counts = n_table
    table = NGramTable(counts, sum(counts.values()))
    _assert_table_outputs_rank_as(n, table, reference_rank(counts))


@st.composite
def arbitrary_bundles(draw):
    """Tables of one to three orders, any of them empty."""
    counts = wide_counts([1, 2, 3])
    tables = {}
    for n in draw(st.lists(st.sampled_from(ORDERS), min_size=1, max_size=3, unique=True)):
        grams = draw(st.lists(st.tuples(*[rank_words] * n), max_size=30))
        tables[n] = {gram: draw(counts) for gram in grams}
    return tables


@given(arbitrary_bundles())
@example({3: {}})
@example({2: {}, 1: {("a",): 2, ("b",): 2}})
@example({1: {("a",): 1}, 2: {}, 3: {("a", "b", "c"): 1}})
@settings(max_examples=150, deadline=None)
def test_bundle_tsv_is_the_reference_tables_blank_line_joined(tables):
    bundle = RepresentationBundle(
        "d", {n: NGramTable(counts, sum(counts.values())) for n, counts in tables.items()}
    )
    blocks = [reference_table_tsv(tables[n]) for n in sorted(tables)]
    assert bundle_to_tsv(bundle) == "\n".join(block for block in blocks if block).encode("utf-8")


# Tokens of a few letters, "ụ" spelled both NFC and NFD, so that phrases
# repeat, overlap and differ only in their spelling.
match_words = st.text(alphabet="abu\u0323\u1ee5", min_size=1, max_size=2)


@st.composite
def streams_and_lexicons(draw):
    """A token stream and phrases of 1-3 words: windows of the stream,
    arbitrary (mostly absent) phrases, and duplicates of both."""
    tokens = tuple(draw(st.lists(match_words, max_size=30)))
    phrases = st.lists(match_words, min_size=1, max_size=len(ORDERS)).map(tuple)
    windows = [tokens[i:i + n] for n in ORDERS for i in range(len(tokens) - n + 1)]
    if windows:
        phrases = st.one_of(phrases, st.sampled_from(windows))
    lexicon = draw(st.lists(phrases, max_size=12))
    if lexicon:
        lexicon += draw(st.lists(st.sampled_from(lexicon), max_size=4))
    return tokens, lexicon


@given(streams_and_lexicons())
@example((("a", "a", "a"), [("a", "a")]))
@example((("b", "a", "b", "c"), [("b", "c"), ("c",), ("a", "b", "c")]))
@example((("a", "u\u0323", "a", "\u1ee5"), [("a", "\u1ee5"), ("u\u0323",), ("a", "\u1ee5")]))
@settings(max_examples=300, deadline=None)
def test_key_features_are_the_table_lookups(stream_and_lexicon):
    tokens, phrases = stream_and_lexicon
    lexicon = [
        KeyFeature(gram=phrase, gloss=str(i), category=CompoundCategory.NOMINAL, count=0)
        for i, phrase in enumerate(phrases)
    ]
    tables = {n: extract_ngrams(tokens, n).counts for n in ORDERS}
    looked_up = [(e, tables[len(e.gram)].get(e.gram, 0)) for e in lexicon]
    # Stable, so entries equal on count and gram keep their lexicon order.
    ranked = sorted(
        ((e, count) for e, count in looked_up if count),
        key=lambda row: (-row[1], unicodedata.normalize("NFC", " ".join(row[0].gram))),
    )
    assert match_key_features(tokens, lexicon) == [
        KeyFeature(gram=e.gram, gloss=e.gloss, category=e.category, count=count)
        for e, count in ranked
    ]
