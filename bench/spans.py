"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side: the stage functions are
looked up by name in the modules that call them and replaced with
wrappers that time each call. Nothing in the package is edited. This is
the only benchmark module that touches stage internals (``normalize``,
``tokenize``, ``remove_stopwords``, ``extract_ngrams``,
``match_key_features``, ``build_doc_term_matrix`` and the serializers);
the untraced run drives the package only through its CLI.

A stage that no longer exists under its name is reported as missing and
its metrics read zero; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

MB = 1_000_000


@dataclass
class Span:
    name: str
    op_id: int
    span_id: int
    parent_id: int | None
    start_ns: int
    end_ns: int = 0
    base_bytes: int = 0  # traced memory when the span opened
    peak_bytes: int | None = None  # set only while tracemalloc runs
    counts: dict[str, float] = field(default_factory=dict)


def _text(obj: Any) -> str:
    return obj if isinstance(obj, str) else obj.text


def _normalize_counts(args: tuple, result: Any) -> Callable[[], dict]:
    src, out = _text(args[0]), _text(result)
    return lambda: {"words_in": len(src.split()), "words_out": len(out.split())}


def _tokenize_counts(args: tuple, result: Any) -> dict:
    return {"tokens_out": len(result)}


def _stopword_counts(args: tuple, result: Any) -> dict:
    return {"tokens_in": len(args[0]), "tokens_kept": len(result)}


def _ngram_counts(args: tuple, result: Any) -> dict:
    return {"windows": result.total_windows, "distinct": len(result.counts)}


def _match_counts(args: tuple, result: Any) -> dict:
    return {"entries_tried": len(args[1]), "matched": len(result)}


def _matrix_counts(args: tuple, result: Any) -> dict:
    bundles, n = args[0], args[1]
    return {
        "cells": len(result.doc_ids) * len(result.features),
        "nnz": sum(len(b.tables[n].counts) for b in bundles),
    }


def _load_counts(args: tuple, result: Any) -> Callable[[], dict]:
    texts = [doc.text for doc in result]
    return lambda: {"bytes_in": sum(len(t.encode("utf-8")) for t in texts)}


def _ngram_name(args: tuple) -> str:
    return f"ngrams.n{args[1]}"


# (span name, module, attribute path, counter). A counter returns counts
# at once, or a thunk run after the op so that slow counting (splitting a
# large text) is not charged to the enclosing span.
TARGETS: tuple[tuple[Any, str, str, Any], ...] = (
    ("textio", "igbotext.cli", "load_corpus", _load_counts),
    ("pipeline.represent", "igbotext.pipeline", "Pipeline.represent", None),
    ("normalize", "igbotext.pipeline", "normalize", _normalize_counts),
    ("tokenize", "igbotext.pipeline", "tokenize", _tokenize_counts),
    ("stopwords", "igbotext.pipeline", "remove_stopwords", _stopword_counts),
    (_ngram_name, "igbotext.pipeline", "extract_ngrams", _ngram_counts),
    ("lexicon", "igbotext.pipeline", "LanguageModel.from_tokens", None),
    ("lexicon", "igbotext.pipeline", "match_key_features", _match_counts),
    ("pipeline.matrix", "igbotext.cli", "build_doc_term_matrix", _matrix_counts),
    ("pipeline.serialize", "igbotext.cli", "bundle_to_tsv", None),
    ("pipeline.serialize", "igbotext.cli", "bundle_to_json", None),
    ("pipeline.serialize", "igbotext.cli", "matrix_to_tsv", None),
    ("pipeline.serialize", "igbotext.cli", "matrix_to_json", None),
    ("pipeline.serialize", "igbotext.cli", "features_to_tsv", None),
    ("pipeline.serialize", "igbotext.cli", "features_to_json", None),
)


class Tracer:
    """Keeps spans in memory; optionally records tracemalloc peaks per span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self.memory = False
        self._stack: list[Span] = []
        self._deferred: list[tuple[Span, Callable[[], dict]]] = []
        self._op_id = -1

    # -- installing wrappers -------------------------------------------

    def install(self) -> None:
        for name, module, path, counter in TARGETS:
            try:
                owner: Any = importlib.import_module(module)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            # Methods get their instance or class as a first argument that
            # span names and counters skip.
            skip = 1 if inspect.isclass(owner) else 0
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, counter, skip)))
            else:
                setattr(owner, attr, self._wrap(name, raw, counter, skip))

    def _wrap(self, name: Any, fn: Callable, counter: Any, skip: int) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer._open(name(args[skip:]) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                tracer._count(span, counter, args[skip:], result)
            return result

        return wrapper

    def _count(self, span: Span, counter: Callable, args: tuple, result: Any) -> None:
        # Counting reads the stage's arguments and results; a stage whose
        # signature changed loses its counts, not the run.
        try:
            counts = counter(args, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            self.count_errors.append(f"{span.name}: {exc!r}")
            return
        if callable(counts):
            self._deferred.append((span, counts))
        else:
            span.counts.update(counts)

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak_bytes = max(parent.peak_bytes, peak)
            tracemalloc.reset_peak()
        span = Span(name, self._op_id, len(self.spans),
                    parent.span_id if parent else None, 0)
        if self.memory:
            span.base_bytes = span.peak_bytes = current
        self.spans.append(span)
        self._stack.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()
        if self.memory:
            span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1].peak_bytes = max(self._stack[-1].peak_bytes, span.peak_bytes)

    def op(self, fn: Callable[[], Any]) -> Any:
        """Run one op under a root ``cli`` span, appended to ``roots``."""
        self._op_id += 1
        root = self._open("cli")
        try:
            return fn()
        finally:
            self._close(root)
            self.roots.append(root)
            for span, thunk in self._deferred:
                span.counts.update(thunk())
            self._deferred.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "op": s.op_id, "id": s.span_id, "parent": s.parent_id,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "peak_bytes": None if s.peak_bytes is None else s.peak_bytes - s.base_bytes,
                    "counts": s.counts,
                }) + "\n")


# -- per-layer metrics -------------------------------------------------

TIME_METRICS = {
    "textio": "textio.load_s",
    "normalize": "normalize.s",
    "tokenize": "tokenize.s",
    "stopwords": "stopwords.s",
    "ngrams.n1": "ngrams.n1_s",
    "ngrams.n2": "ngrams.n2_s",
    "ngrams.n3": "ngrams.n3_s",
    "lexicon": "lexicon.s",
    "pipeline.represent": "pipeline.represent_s",
    "pipeline.matrix": "pipeline.matrix_s",
    "pipeline.serialize": "pipeline.serialize_s",
    "cli": "cli.self_s",
}

PEAK_METRICS = {
    "textio": "textio.peak_mb",
    "normalize": "normalize.peak_mb",
    "tokenize": "tokenize.peak_mb",
    "stopwords": "stopwords.peak_mb",
    "ngrams": "ngrams.peak_mb",
    "lexicon": "lexicon.peak_mb",
    "pipeline.represent": "pipeline.represent_peak_mb",
    "pipeline.matrix": "pipeline.matrix_peak_mb",
    "pipeline.serialize": "pipeline.serialize_peak_mb",
    "cli": "cli.peak_mb",
}


def op_spans(spans: list[Span], op_id: int) -> list[Span]:
    return [s for s in spans if s.op_id == op_id]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus its children's."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] += s.end_ns - s.start_ns
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end_ns - s.start_ns - child_ns[s.span_id]) / 1e9
    return out


def layer_metrics(spans: list[Span], peak_spans: list[Span], bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced op (timings) and one memory op (peaks)."""
    times = self_times(spans)
    metrics = {metric: times.get(layer, 0.0) for layer, metric in TIME_METRICS.items()}

    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        layer = "ngrams" if s.name.startswith("ngrams.") else s.name
        totals[f"{layer}.calls"] += 1
        for key, value in s.counts.items():
            totals[f"{layer}.{key}"] += value
    tried = totals["lexicon.entries_tried"]
    cells = totals["pipeline.matrix.cells"]
    metrics.update({
        "textio.bytes_in": totals["textio.bytes_in"],
        "normalize.words_in": totals["normalize.words_in"],
        "normalize.words_out": totals["normalize.words_out"],
        "tokenize.tokens_out": totals["tokenize.tokens_out"],
        "stopwords.tokens_kept": totals["stopwords.tokens_kept"],
        "stopwords.kept_ratio": _ratio(totals["stopwords.tokens_kept"], totals["stopwords.tokens_in"]),
        "ngrams.windows": totals["ngrams.windows"],
        "ngrams.distinct": totals["ngrams.distinct"],
        "lexicon.entries_tried": tried,
        "lexicon.matched_ratio": _ratio(totals["lexicon.matched"], tried),
        "pipeline.represent_docs": totals["pipeline.represent.calls"],
        "pipeline.matrix_cells": cells,
        "pipeline.matrix_nnz": totals["pipeline.matrix.nnz"],
        "pipeline.matrix_density": _ratio(totals["pipeline.matrix.nnz"], cells),
        "pipeline.bytes_out": bytes_out,
    })

    peaks: dict[str, int] = defaultdict(int)
    for s in peak_spans:
        layer = "ngrams" if s.name.startswith("ngrams.") else s.name
        peaks[layer] = max(peaks[layer], s.peak_bytes - s.base_bytes)
    metrics.update({metric: peaks.get(layer, 0) / MB for layer, metric in PEAK_METRICS.items()})
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
