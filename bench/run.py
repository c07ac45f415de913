"""igbotext benchmark: seeded corpora, closed-loop ops, checked outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs one op at a time on one thread (closed loop, one
client) through the CLI, ``igbotext.cli.main``, in a fresh worker process:

* ``paper-bigdoc``: ``represent --mode paper --n 1,2,3`` TSV on one large
  document of mostly plain words. The text stages (normalize, tokenize,
  stop words, n-grams) do most of the work; lexicon and matrix do none.
* ``strict-features``: ``features --mode strict --format json`` on one
  large document dense in tone-marked, NFD, hyphen, apostrophe and clitic
  forms and in lexicon phrases. Strict tokenizing, real NFD/NFC work and
  the lexicon layer's recount of all three orders.
* ``matrix-corpus``: ``matrix --mode paper --n 2`` TSV over a directory of
  documents of about 200 words. The dense documents x features build and
  the large output dominate; per-document text work is small.

With ``--trace 0`` a run reports the end-to-end metrics: input MB and
whitespace words per second of op wall time, the worker's peak RSS, and
set-up time (median of fresh workers started from scratch). Op time is
that of the fastest op in the run (best of N). On a small shared VM the
CPU speed swings by up to 2x over seconds to minutes with other tenants'
load; no per-run statistic removes that, and the fastest op was the
steadiest on the single-document workloads. The median op and the sample
count go to the result file.
With ``--trace 1`` a run reports per-layer metrics from spans (spans.py).

Outputs are checked (checks.py). An op fails when it raises, exits
non-zero, fails a check or differs from the run's first op. The golden
check and every set-up start count as ops too.

Metric names and units come from BENCHMARK.json. The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record, stamped with the Python version, CPU count,
git SHA, seed and input sizes, goes to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402

SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 10
WORKER_TIMEOUT_S = 140  # with set-up and checks, a run stays under 180 s
MB = 1_000_000

REQUIRED = (
    "BENCHMARK.json",
    "src/igbotext/cli.py",
    "src/igbotext/data/lexicon.tsv",
    "src/igbotext/data/stopwords.txt",
    "tests/fixtures/doc1.txt",
    "tests/golden_doc1.py",
)

# Corpus mix for the matrix workload: a small shared vocabulary with few
# one-off forms, so that the feature axis stays near ten thousand.
TOPICAL = corpus.Mix(stop=0.30, lexicon=0.02, tone=0.01, nfd=0.005, hyphen=0.003,
                     clitic=0.003, digit=0.005, currency=0.002, stray=0.002)


def _tables_json(work: Path, input_path: Path, mode: str) -> str:
    """The input's tables through ``represent --format json``, for checks."""
    from igbotext import cli

    out = work / "tables.json"
    rc = cli.main(["represent", str(input_path), "--mode", mode, "--n", "1,2,3",
                   "--format", "json", "--output", str(out)])
    if rc != 0:
        raise RuntimeError(f"represent --format json exited {rc}")
    return out.read_text(encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    spec: corpus.Spec
    argv: tuple[str, ...]  # "{input}" is replaced by the generated path
    # (work dir, input path, first op's output) -> problems
    check: Callable[[Path, Path, Path], list[str]]


WORKLOADS = {
    "paper-bigdoc": Workload(
        corpus.Spec("doc", corpus.PLAIN, vocab=20_000, size=200_000),
        ("represent", "{input}", "--mode", "paper", "--n", "1,2,3", "--format", "tsv"),
        lambda work, inp, out: checks.check_represent(
            out, _tables_json(work, inp, "paper"), (1, 2, 3)),
    ),
    "strict-features": Workload(
        corpus.Spec("doc", corpus.DENSE, vocab=20_000, size=200_000),
        ("features", "{input}", "--mode", "strict", "--format", "json"),
        lambda work, inp, out: checks.check_features(
            out, _tables_json(work, inp, "strict"), checks.read_lexicon(ROOT)),
    ),
    "matrix-corpus": Workload(
        corpus.Spec("dir", TOPICAL, vocab=150, size=150, words_per_doc=200),
        ("matrix", "{input}", "--mode", "paper", "--n", "2", "--format", "tsv"),
        lambda work, inp, out: checks.check_matrix(out, inp, 2),
    ),
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """Identifies the code under test where there is no git SHA."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "igbotext").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _measure_setup(cfg: dict) -> list[float]:
    """Seconds from starting a fresh worker until it reports ready."""
    samples = []
    cmd = [sys.executable, str(HERE / "worker.py"), "setup", json.dumps(cfg)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait()
            watchdog.cancel()
        if line.strip() != "ready" or proc.returncode != 0:
            break  # the missing samples count as failed starts
        samples.append(elapsed)
    return samples


def _run_worker(cfg: dict) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "measure", json.dumps(cfg)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(),
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    log = proc.stderr.strip()[-2000:]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {log}"
    return json.loads(lines[-1]), log


def _guarded(check: Callable[..., list[str]], *args: object) -> list[str]:
    # A check that crashes on malformed output is a failed check, not a
    # crashed benchmark.
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def run_workload(name: str, seed: int, seconds: int, trace: bool, declared: dict) -> dict:
    wl = WORKLOADS[name]
    work = ROOT / ".bench_build" / name
    input_path, stats = corpus.generate(ROOT, wl.spec, f"{name}:{seed}", work)
    warm_doc = work / "warm.txt"
    warm_doc.write_text(corpus.warm_document(ROOT, f"warm:{seed}"), encoding="utf-8")
    first_out = work / "first.out"
    cfg = {
        "argv": [str(input_path) if a == "{input}" else a for a in wl.argv],
        "seconds": seconds,
        "trace": trace,
        "warm_doc": str(warm_doc),
        "warm_out": str(work / "warm.out"),
        "op_out": str(work / "op.out"),
        "first_out": str(first_out),
        "spans_out": str(work / f"spans_seed{seed}.jsonl"),
    }
    setup = [] if trace else _measure_setup(cfg)
    report, worker_log = _run_worker(cfg)
    ops = report["ops"] if report else []

    problems = []
    if ops:
        problems = (_guarded(wl.check, work, input_path, first_out) if first_out.exists()
                    else ["the first op wrote no output"])
    golden_problems = _guarded(checks.check_golden, ROOT)
    ref = ops[0]["sha256"] if ops else None
    failed_ops = {
        i for i, op in enumerate(ops)
        if op["rc"] != 0 or op["error"] or op["sha256"] != ref or problems
    }
    # A worker that produced nothing counts as one failed op.
    setup_starts = 0 if trace else SETUP_SAMPLES
    attempted = max(len(ops), 1) + 1 + setup_starts
    failed = (len(failed_ops) if ops else 1) + bool(golden_problems) + setup_starts - len(setup)

    if trace:
        values = report["metrics"] if report else {}
    else:
        walls = [op["wall_s"] for i, op in enumerate(ops) if i not in failed_ops]
        best_s = min(walls) if walls else None
        # With no good op or set-up sample a metric reads 0; the run is
        # then incorrect through its failed ops.
        values = {
            "throughput_mb_s": stats["bytes"] / MB / best_s if best_s else 0.0,
            "tokens_per_s": stats["words"] / best_s if best_s else 0.0,
            "peak_rss_mb": report["peak_rss_kb"] * 1024 / MB if report else 0.0,
            "setup_s": statistics.median(setup) if setup else 0.0,
        }
    names = declared["per_layer" if trace else "end_to_end"]
    if report and set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json")
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "input": stats,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems + golden_problems,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": unit} for k, unit in names.items()},
        "worker_log": worker_log,
        "ops": ops,
    }
    if trace:
        result.update({k: report[k] for k in ("missing_spans", "count_errors", "memory_op_s",
                                              "spans_file")} if report else {})
    else:
        result["setup_samples_s"] = setup
        result["op_s"] = {
            "best": best_s,
            "median": statistics.median(walls) if walls else None,
            "samples": len(walls),
        }
    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    result["result_file"] = str(path.relative_to(ROOT))
    return result


def _print_human(res: dict) -> None:
    name = res["workload"]
    inp = res["input"]
    print(f"# {name} seed={res['seed']} trace={res['trace']} bytes={inp['bytes']} "
          f"words={inp['words']} docs={inp['documents']} -> {res['result_file']}")
    if "op_s" in res:
        op = res["op_s"]
        print(f"{name} op_s best {op['best']} s, median {op['median']} s, of {op['samples']} ops")
    for key, m in res["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac {res['failed_frac']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} ops)")
    for problem in res["problems"][:20]:
        print(f"{name} PROBLEM {problem}")


def main(argv: list[str] | None = None) -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not an igbotext checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
        _print_human(res)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
