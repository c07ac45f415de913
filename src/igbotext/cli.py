"""Command-line interface for the Igbo text representation pipeline.

Commands: normalize, tokenize, represent, matrix, features. Exit codes:
0 success, 1 usage error, 2 decode error, 3 I/O error, 4 format or
invariant error in a data file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterator
from itertools import chain, repeat

from .errors import (
    DecodeError,
    IgboTextError,
    LexiconFormatError,
    LexiconInvariantError,
    PipelineStageError,
)
from .ngrams import ORDERS
from .normalize import Mode
from .pipeline import (
    ENCODER,
    Pipeline,
    PipelineConfig,
    build_doc_term_matrix,
    bundle_to_json,
    bundle_to_tsv,
    features_to_json,
    features_to_tsv,
    interned,
    matrix_to_json,
    matrix_to_tsv,
    to_json,
    tokens,
    write_output,
)
from .textio import load_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DECODE = 2
EXIT_IO = 3
EXIT_DATA = 4


def _parse_orders(value: str) -> tuple[int, ...]:
    """``--n``'s ``type``: a bad value is reported as itself, with no usage
    line, and leaves ``parse_args`` with status 2 as argparse's errors do."""
    try:
        return tuple(int(piece) for piece in value.split(",") if piece.strip())
    except ValueError:
        print(f"invalid --n value {value!r}", file=sys.stderr)
        raise SystemExit(2) from None


def _one_of(*values: str) -> dict:
    """``add_argument``'s ``type`` and ``metavar`` for an option that takes
    one of ``values``. Any other value is reported in the words of
    argparse's ``choices`` through Python 3.13.0, each value quoted: later
    releases drop the quotes, so the message is written here."""
    def check(value: str) -> str:
        if value not in values:
            listed = ", ".join(map(repr, values))
            raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {listed})")
        return value
    return {"type": check, "metavar": "{" + ",".join(values) + "}"}


# Built on the first call and kept: parse_args leaves the parser as it
# was, so each call of ``main`` gets a fresh namespace from it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", **_one_of(*(m.value for m in Mode)), default="paper",
                        help="pipeline behaviour (default: paper)")
    common.add_argument("--format", **_one_of("tsv", "json"), default="tsv",
                        help="output format (default: tsv)")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="output file (default: stdout)")

    # Only the commands that drop stop words read a stop-word file.
    counting = argparse.ArgumentParser(add_help=False, parents=[common])
    counting.add_argument("--stopwords", metavar="PATH", default=None,
                          help="stop-word file (default: shipped list)")

    parser = argparse.ArgumentParser(prog="igbotext", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("normalize", parents=[common], help="print normalized text")
    p.add_argument("file")
    p.set_defaults(run=_cmd_normalize)

    p = sub.add_parser("tokenize", parents=[common], help="print the token stream")
    p.add_argument("file")
    p.set_defaults(run=_cmd_tokenize)

    p = sub.add_parser("represent", parents=[counting], help="n-gram frequency tables")
    p.add_argument("file")
    p.add_argument("--n", type=_parse_orders, default=",".join(map(str, ORDERS)),
                   help="comma-separated orders (default: %(default)s)")
    p.set_defaults(run=_cmd_represent)

    p = sub.add_parser("matrix", parents=[counting], help="document-term matrix over a directory")
    p.add_argument("dir")
    p.add_argument("--n", type=int, default=1, help="n-gram order (default: 1)")
    p.set_defaults(run=_cmd_matrix)

    p = sub.add_parser("features", parents=[counting], help="lexicon key features of a document")
    p.add_argument("file")
    p.add_argument("--lexicon", metavar="PATH", default=None,
                   help="lexicon file (default: shipped lexicon)")
    p.set_defaults(run=_cmd_features)
    return parser


def _pipeline_config(args: argparse.Namespace, orders: tuple[int, ...] = ORDERS) -> PipelineConfig:
    return PipelineConfig(
        mode=args.mode,
        stoplist_path=args.stopwords,
        lexicon_path=getattr(args, "lexicon", None),
        orders=orders,
    )


def _cmd_normalize(args: argparse.Namespace) -> Iterator[str]:
    doc = load_corpus([args.file])[0]
    texts = filter(None, map(" ".join, tokens(doc.text, args.mode)))
    # Each piece as it is made, after the space that joins it to the one before.
    joined = map(str.__add__, chain([""], repeat(" ")), texts)
    if args.format == "json":
        # JSON escapes each character on its own, so the text's string is
        # the pieces' escapes, cut into the object of an empty text.
        head, _, tail = "".join(to_json({"doc_id": doc.id, "text": ""})).rpartition('""')
        escaped = (ENCODER.encode(piece)[1:-1] for piece in joined)
        return chain([head + '"'], escaped, ['"' + tail])
    return chain(joined, ["\n"])


def _cmd_tokenize(args: argparse.Namespace) -> Iterator[str]:
    doc = load_corpus([args.file])[0]
    streams = tokens(doc.text, args.mode)
    if args.format == "json":
        return to_json({"doc_id": doc.id, "tokens": list(interned(streams))})
    return ("\n".join(words) + "\n" for words in streams if words)


def _cmd_represent(args: argparse.Namespace) -> bytes | Iterator[str]:
    cfg = _pipeline_config(args, args.n)
    # No name holds the document, so its text is freed before serializing.
    bundle = Pipeline(cfg).represent(load_corpus([args.file])[0])
    return bundle_to_json(bundle) if args.format == "json" else bundle_to_tsv(bundle)


def _cmd_matrix(args: argparse.Namespace) -> str | Iterator[str]:
    # Listed as given: "" names no directory, though ``Path("")`` is ".".
    with os.scandir(args.dir) as entries:
        paths = sorted(e.path for e in entries if e.name.endswith(".txt") and e.is_file())
    pipeline = Pipeline(_pipeline_config(args, (args.n,)))
    bundles = [pipeline.represent(doc) for doc in load_corpus(paths)]
    matrix = build_doc_term_matrix(bundles, args.n)
    return matrix_to_json(matrix) if args.format == "json" else matrix_to_tsv(matrix)


def _cmd_features(args: argparse.Namespace) -> str | Iterator[str]:
    cfg = _pipeline_config(args)
    doc = load_corpus([args.file])[0]
    features = Pipeline(cfg).features(doc)
    if args.format == "json":
        return features_to_json(doc.id, features)
    return features_to_tsv(features)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code, for every ``argv``: 0 for
    ``--help``, 1 for a usage error, which argparse has already reported."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        write_output(args.run(args), args.output)
    except (IgboTextError, OSError, ValueError) as exc:
        print(f"igbotext: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    return EXIT_OK


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, PipelineStageError):
        return _exit_code_for(exc.cause)
    if isinstance(exc, DecodeError):
        return EXIT_DECODE
    if isinstance(exc, (LexiconFormatError, LexiconInvariantError)):
        return EXIT_DATA
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
