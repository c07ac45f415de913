from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from igbotext import Mode, PipelineConfig, load_corpus, run_pipeline
from igbotext.ngrams import extract_ngrams
from igbotext.normalize import remove_stopwords

from conftest import DOC1_PATH

DOC1 = str(DOC1_PATH)


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "igbotext", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )


def test_represent_unigram_stdout():
    proc = run_cli("represent", DOC1, "--n", "1", "--mode", "paper")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "nkuziie\t4"
    assert len(lines) == 27


def test_normalize_command():
    proc = run_cli("normalize", DOC1)
    assert proc.returncode == 0
    assert proc.stdout.startswith("kpaacharu anya makana projekto")
    assert '"' not in proc.stdout


def test_tokenize_command():
    proc = run_cli("tokenize", DOC1)
    assert proc.returncode == 0
    tokens = proc.stdout.splitlines()
    assert tokens[0] == "kpaacharu"
    assert len(tokens) == 48


def test_tokenize_json():
    import json

    proc = run_cli("tokenize", DOC1, "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["tokens"][:2] == ["kpaacharu", "anya"]


def test_strict_tokenize_prints_the_stream_the_pipeline_counts(tmp_path, strict_pipeline):
    doc = tmp_path / "clitic.txt"
    doc.write_text("N’ulo’s ana-eme", encoding="utf-8")
    proc = run_cli("tokenize", str(doc), "--mode", "strict")
    assert proc.returncode == 0
    kept = remove_stopwords(tuple(proc.stdout.splitlines()), strict_pipeline.stoplist, Mode.STRICT)
    assert kept == ("ulo", "ana", "eme")
    bundle = run_pipeline(load_corpus([doc])[0], PipelineConfig(mode=Mode.STRICT))
    for n in (1, 2, 3):
        assert bundle.tables[n].counts == extract_ngrams(kept, n).counts


def test_features_command_default_lexicon():
    proc = run_cli("features", DOC1)
    assert proc.returncode == 0
    rows = dict(
        (line.split("\t")[0], line.split("\t")[1:]) for line in proc.stdout.splitlines()
    )
    assert rows["komputa nkunaka"] == ["2", "laptop", "Nominal"]
    assert rows["okwu ntughe"] == ["1", "password", "Nominal"]


def test_matrix_command(tmp_path):
    (tmp_path / "d1.txt").write_text("komputa nkunaka ocha", encoding="utf-8")
    (tmp_path / "d2.txt").write_text("komputa ocha ocha", encoding="utf-8")
    proc = run_cli("matrix", str(tmp_path), "--n", "1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].split("\t")[0] == "doc_id"
    assert len(lines) == 3


def test_matrix_without_features_has_no_empty_column(tmp_path):
    # Neither document has two tokens left after stop-word removal.
    (tmp_path / "a.txt").write_text("na na", encoding="utf-8")
    (tmp_path / "b.txt").write_text("ocha", encoding="utf-8")
    proc = run_cli("matrix", str(tmp_path), "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout == f"doc_id\n{tmp_path / 'a.txt'}\n{tmp_path / 'b.txt'}\n"
    empty = tmp_path / "empty"
    empty.mkdir()
    proc = run_cli("matrix", str(empty), "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "uni.tsv"
    proc = run_cli("represent", DOC1, "--n", "1", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text(encoding="utf-8").splitlines()[0] == "nkuziie\t4"


def test_exit_code_usage_error():
    assert run_cli("bogus").returncode == 1
    assert run_cli("represent", DOC1, "--n", "7").returncode == 1
    assert run_cli().returncode == 1


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("represent", "--help").returncode == 0


def test_exit_code_missing_file():
    assert run_cli("represent", "/no/such/file.txt").returncode == 3


def test_exit_code_decode_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\x61")
    assert run_cli("represent", str(bad)).returncode == 2


def test_exit_code_bad_stoplist(tmp_path):
    bad = tmp_path / "stop.txt"
    bad.write_bytes(b"\xfe")
    assert run_cli("represent", DOC1, "--stopwords", str(bad)).returncode == 2


def test_a_file_name_that_is_not_utf8_is_refused_before_any_output(tmp_path, capsys):
    # Such a name could not be written as a document id: refused at load,
    # before the output file is opened.
    from igbotext.cli import main

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    raw = os.path.join(os.fsencode(corpus), b"b\xff.txt")
    try:
        with open(raw, "wb") as fh:
            fh.write(b"komputa ocha")
    except OSError:
        pytest.skip("the file system refuses a file name that is not UTF-8")
    name = os.fsdecode(raw)
    out = tmp_path / "out"
    for fmt in ("tsv", "json"):
        for argv in (
            ["matrix", str(corpus)], ["represent", name], ["features", name],
            ["normalize", name], ["tokenize", name],
        ):
            assert main([*argv, "--format", fmt, "--output", str(out)]) == 1, argv
            assert not out.exists(), argv
            assert "is not valid UTF-8" in capsys.readouterr().err


def test_stopwords_is_an_option_only_where_stop_words_are_dropped(tmp_path, capsys):
    from igbotext.cli import main

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    missing = str(tmp_path / "no-such-stopwords.txt")
    for argv in (["normalize", DOC1], ["tokenize", DOC1]):
        assert main([*argv, "--stopwords", missing]) == 1
        assert "unrecognized arguments: --stopwords" in capsys.readouterr().err
    for argv in (["represent", DOC1], ["features", DOC1], ["matrix", str(corpus)]):
        assert main([*argv, "--stopwords", missing]) == 3
        assert "no-such-stopwords.txt" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["represent", DOC1, "--stopwords", ""],
    ["features", DOC1, "--stopwords", ""],
    ["features", DOC1, "--lexicon", ""],
    ["normalize", ""],
    ["tokenize", ""],
    ["represent", ""],
    ["features", ""],
    ["matrix", ""],
])
def test_an_empty_data_file_path_is_a_missing_file(tmp_path, capsys, argv):
    # As with --output "": the shipped file is read only when the option
    # is absent, and an empty <file> or <dir> is not the working directory.
    from igbotext.cli import main

    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 3
    assert "No such file or directory: ''" in capsys.readouterr().err
    assert not out.exists()


def test_main_calls_in_one_process_are_independent(tmp_path):
    # The parser is built once per process; no call's options may reach
    # the next call.
    from igbotext.cli import main

    stop = tmp_path / "stop.txt"
    stop.write_text("nkuziie\n", encoding="utf-8")
    narrowed, last, fresh = tmp_path / "narrowed", tmp_path / "last", tmp_path / "fresh"
    assert main(["represent", DOC1, "--n", "7"]) == 1
    assert main(["represent", DOC1, "--n", "2", "--stopwords", str(stop),
                 "--output", str(narrowed)]) == 0
    assert main(["represent", DOC1, "--output", str(last)]) == 0
    assert run_cli("represent", DOC1, "--output", str(fresh)).returncode == 0
    assert narrowed.read_text(encoding="utf-8").count("\n\n") == 0
    assert last.read_bytes() == fresh.read_bytes()
    text = last.read_text(encoding="utf-8")
    assert text.count("\n\n") == 2  # three tables
    assert text.startswith("nkuziie\t4\n")  # the shipped stop list


def test_exit_code_bad_lexicon(tmp_path):
    bad = tmp_path / "lex.tsv"
    bad.write_text("mmiri mmiri\twatery\tNominal\n", encoding="utf-8")
    assert run_cli("features", DOC1, "--lexicon", str(bad)).returncode == 4


@pytest.mark.parametrize(
    "flag, stage", [("--stopwords", "load-stoplist"), ("--lexicon", "load-lexicon")]
)
def test_undecodable_data_file_names_its_stage_and_byte_offset(tmp_path, capsys, flag, stage):
    from igbotext.cli import main

    bad = tmp_path / "data.txt"
    bad.write_bytes(b"\xef\xbb\xbfmmiri\xff")
    assert main(["features", DOC1, flag, str(bad)]) == 2
    # The offset counts from the first byte of the file, the mark included.
    assert f"stage '{stage}': {bad}: invalid UTF-8 at byte offset 8" in capsys.readouterr().err


def _added_peaks(tmp_path, command: str, *flags: str):
    """(mode, bytes) per mode: how far the tracemalloc peak of ``command``
    on about 2 MB of doc1 exceeds that of loading it, which holds its bytes
    and its text."""
    from igbotext.cli import main

    text = DOC1_PATH.read_text(encoding="utf-8") + "\n"
    path = tmp_path / "big.txt"
    path.write_text(text * (2_000_000 // len(text.encode("utf-8")) + 1), encoding="utf-8")
    for mode in ("paper", "strict"):
        tracemalloc.start()
        try:
            load_corpus([path])
            loaded = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            argv = [command, str(path), "--mode", mode, *flags, "--output", str(tmp_path / "out")]
            assert main(argv) == 0
            ran = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        yield mode, ran - loaded


@pytest.mark.parametrize("command", ["normalize", "tokenize"])
def test_text_commands_write_tsv_as_it_is_made(tmp_path, command):
    # The command adds only a piece of output at a time, not the whole
    # output.
    for mode, added in _added_peaks(tmp_path, command):
        assert added < 1_000_000, (mode, added)


@pytest.mark.parametrize("command", ["normalize", "tokenize", "represent"])
def test_json_is_written_as_it_is_made(tmp_path, command):
    # The JSON text is written a piece at a time, and a token list holds
    # one str per distinct word.
    for mode, added in _added_peaks(tmp_path, command, "--format", "json"):
        assert added < 1_000_000, (mode, added)


@pytest.mark.parametrize("encoding", ["latin-1", "utf-16"])
@pytest.mark.parametrize(
    "argv",
    [["normalize", DOC1], ["represent", DOC1, "--format", "json"]],
    ids=["normalize", "represent"],
)
def test_stdout_gets_the_output_files_bytes_whatever_its_encoding(tmp_path, argv, encoding):
    # doc1 holds letters that latin-1 cannot encode.
    out = tmp_path / "out"
    command = [sys.executable, "-m", "igbotext", *argv]
    assert subprocess.run([*command, "--output", str(out)]).returncode == 0
    env = {**os.environ, "PYTHONIOENCODING": encoding}
    proc = subprocess.run(command, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["normalize", DOC1], ["represent", DOC1, "--format", "json"], ["represent", DOC1]],
    ids=["normalize", "represent-json", "represent-tsv"],
)
def test_stdout_without_a_buffer_gets_the_output_files_text(tmp_path, argv):
    # A text stream in stdout's place, as an in-process caller may set.
    from igbotext.cli import main

    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(argv) == 0
    assert stdout.getvalue() == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", ["paper", "strict"])
def test_strict_and_paper_modes_accepted(mode):
    proc = run_cli("represent", DOC1, "--n", "1", "--mode", mode)
    assert proc.returncode == 0


def test_every_command_is_deterministic(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "doc1.txt").write_text(
        DOC1_PATH.read_text(encoding="utf-8"), encoding="utf-8"
    )
    (corpus / "doc2.txt").write_text(
        "Nwa akwukwo na onye nkuzi na komputa nkunaka.", encoding="utf-8"
    )
    command_sets = [
        ("normalize", DOC1),
        ("tokenize", DOC1),
        ("represent", DOC1, "--n", "1,2,3"),
        ("represent", DOC1, "--n", "2", "--format", "json"),
        ("represent", DOC1, "--n", "1", "--mode", "strict"),
        ("matrix", str(corpus), "--n", "2"),
        ("matrix", str(corpus), "--n", "1", "--format", "json"),
        ("features", DOC1),
        ("features", DOC1, "--format", "json"),
    ]
    for argv in command_sets:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0, f"{argv}: {first.stderr}"
        assert first.stdout == second.stdout


def test_matrix_skips_directories_named_like_documents(tmp_path):
    (tmp_path / "a.txt").write_text("komputa ocha", encoding="utf-8")
    (tmp_path / "sub.txt").mkdir()
    proc = run_cli("matrix", str(tmp_path), "--n", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == [f"{tmp_path / 'a.txt'}\t1\t1"]


def test_matrix_tsv_refuses_file_names_holding_a_tab_or_line_break(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    names = ["a\tb.txt", "c\nd.txt", "e.txt"]
    for name in names:
        (corpus / name).write_text("komputa nkunaka", encoding="utf-8")
    out = tmp_path / "out.tsv"
    proc = run_cli("matrix", str(corpus), "--output", str(out))
    assert proc.returncode == 1
    assert repr(str(corpus / "a\tb.txt")) in proc.stderr
    assert "--format json" in proc.stderr
    assert not out.exists() and proc.stdout == ""
    # JSON escapes both names.
    proc = run_cli("matrix", str(corpus), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["docs"] == [str(corpus / name) for name in names]
    # Every other character at which str.splitlines breaks a line.
    for i, breaker in enumerate("\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
        corpus = tmp_path / f"corpus{i}"
        corpus.mkdir()
        for name in (f"a{breaker}b.txt", "e.txt"):
            (corpus / name).write_text("komputa nkunaka", encoding="utf-8")
        proc = run_cli("matrix", str(corpus), "--output", str(out))
        assert proc.returncode == 1, repr(breaker)
        assert repr(str(corpus / f"a{breaker}b.txt")) in proc.stderr
        assert not out.exists() and proc.stdout == ""


def test_bad_order_gives_one_message_for_represent_and_matrix(tmp_path):
    represent = run_cli("represent", DOC1, "--n", "7")
    matrix = run_cli("matrix", str(tmp_path), "--n", "7")
    assert represent.returncode == matrix.returncode == 1
    assert represent.stderr == matrix.stderr != ""


def test_four_word_lexicon_phrase_is_a_data_error(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("ezi ulo oma mma na ezi ulo oma mma", encoding="utf-8")
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("ezi ulo oma mma\tgood home\tNominal\n", encoding="utf-8")
    proc = run_cli("features", str(doc), "--lexicon", str(lexicon))
    assert proc.returncode == 4
    assert "got 4" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["normalize", "{}/big.txt"],
    ["tokenize", "{}/big.txt"],
    ["represent", "{}/big.txt"],
    # 45,000 characters (117,000 bytes) of TSV made as one string: more
    # than a pipe buffers, in one write that the pipe may take in part.
    ["represent", "{}/dotted.txt", "--n", "1"],
    ["matrix", "{}/corpus"],
], ids=["normalize", "tokenize", "represent", "represent-one-write", "matrix"])
def test_closed_pipe_is_reported(tmp_path, argv):
    # About 300 KB of distinct words: far more output than a pipe buffers,
    # so the writer is still writing when the reader goes away.
    letters = "abcdefghijklmnoprstuwyz"
    words = (
        "".join(letters[(i // len(letters) ** k) % len(letters)] for k in range(4)) + "ka"
        for i in range(50_000)
    )
    text = " ".join(words)
    (tmp_path / "big.txt").write_text(text, encoding="utf-8")
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "big.txt").write_text(text, encoding="utf-8")
    dotted = ("".join("ịọụṅ"[(i >> 2 * k) & 3] for k in range(12)) for i in range(3_000))
    (tmp_path / "dotted.txt").write_text(" ".join(dotted), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "igbotext", *(arg.format(tmp_path) for arg in argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(1000)) == 1000
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert "Broken pipe" in stderr.decode("utf-8")
