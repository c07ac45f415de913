"""One benchmark worker process: set up, then run ops in a closed loop.

Usage (started by run.py, never by hand):

    python worker.py setup   '<config json>'   # print "ready" once set up
    python worker.py measure '<config json>'   # run ops, print a JSON report

Set-up is what a user pays before the first op can run: importing the
package and its CLI, building a Pipeline, and loading the shipped stop list
and lexicon, done here by one ``features`` op on a small warm-up document.

An untraced worker drives the package through ``igbotext.cli.main`` only.
A traced worker runs three phases: untraced ops, ops with spans, and one
op with spans and tracemalloc peaks. Each op's output file is hashed and
compared with the first op's.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any


def _sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _setup(cfg: dict) -> Any:
    from igbotext import cli

    rc = cli.main(["features", cfg["warm_doc"], "--output", cfg["warm_out"]])
    if rc != 0:
        raise SystemExit(f"warm-up op exited with {rc}")
    return cli


class Loop:
    """Runs ops one at a time and keeps one record per op."""

    def __init__(self, cli: Any, cfg: dict) -> None:
        self.cli = cli
        self.argv = cfg["argv"] + ["--output", cfg["op_out"]]
        self.op_out = Path(cfg["op_out"])
        self.first_out = Path(cfg["first_out"])
        self.ops: list[dict] = []

    def _call(self) -> int:
        return self.cli.main(self.argv)

    def run(self, phase: str, op: Any = None) -> dict:
        """One op; ``op`` wraps the call and returns (rc, wall seconds)."""
        self.op_out.unlink(missing_ok=True)
        error = None
        rc = None
        start = time.perf_counter()
        try:
            rc, wall = op(self._call) if op else (self._call(), None)
        except Exception as exc:  # a failing op is counted, not fatal
            error = repr(exc)
            wall = None
        if wall is None:
            wall = time.perf_counter() - start
        if not self.ops:
            if self.op_out.exists():
                os.replace(self.op_out, self.first_out)
            sha = _sha256(self.first_out)
        else:
            sha = _sha256(self.op_out)
        record = {"phase": phase, "wall_s": wall, "rc": rc, "error": error, "sha256": sha}
        self.ops.append(record)
        return record

    def run_for(self, phase: str, seconds: float, op: Any = None) -> list[dict]:
        """Ops until ``seconds`` have passed, at least one."""
        records: list[dict] = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            records.append(self.run(phase, op))
        return records


def _measure(cfg: dict) -> dict:
    cli = _setup(cfg)
    loop = Loop(cli, cfg)
    if not cfg["trace"]:
        loop.run_for("untraced", cfg["seconds"])
        return {"ops": loop.ops}

    import tracemalloc

    import spans

    third = cfg["seconds"] / 3
    plain = loop.run_for("untraced", third)
    tracer = spans.Tracer()
    tracer.install()

    def traced(call: Any) -> tuple[int, float]:
        rc = tracer.op(call)
        root = tracer.roots[-1]
        return rc, (root.end_ns - root.start_ns) / 1e9

    spanned = loop.run_for("spans", third, traced)
    tracemalloc.start()
    tracer.memory = True
    try:
        loop.run("memory", traced)
    finally:
        tracer.memory = False
        tracemalloc.stop()

    spans_path = Path(cfg["spans_out"])
    tracer.write(spans_path)
    # Per-layer times come from the fastest spans op, as the end-to-end
    # figures come from the fastest op; its self times add up exactly to
    # the op wall reported beside them.
    walls = [r["wall_s"] for r in spanned]
    best = walls.index(min(walls))
    metrics = spans.layer_metrics(
        spans.op_spans(tracer.spans, tracer.roots[best].op_id),
        spans.op_spans(tracer.spans, tracer.roots[-1].op_id),
        Path(cfg["first_out"]).stat().st_size if Path(cfg["first_out"]).exists() else 0,
    )
    metrics["trace.op_s"] = walls[best]
    metrics["trace.overhead_s"] = walls[best] - min(r["wall_s"] for r in plain)
    return {
        "ops": loop.ops,
        "metrics": metrics,
        "missing_spans": tracer.missing,
        "count_errors": tracer.count_errors,
        "memory_op_s": loop.ops[-1]["wall_s"],
        "spans_file": str(spans_path),
    }


def _peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    ``VmHWM`` counts only this program's memory. ``ru_maxrss`` also keeps
    the high-water mark of the parent that spawned this process, which is
    the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    mode, cfg = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        _setup(cfg)
        print("ready", flush=True)
        return 0
    report = _measure(cfg)
    report["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
