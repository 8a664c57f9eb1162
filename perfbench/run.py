"""Benchmark runner for the streamgraph engine.

    python3 perfbench/run.py --workload closure-purge --seed 42 --seconds 30 --trace 0

Run from the root of a checkout.  The runner generates the workload's
edge stream from ``--seed`` and writes it, with the query, as text under
``.perfbench_work/``.  Each timed run is then a fresh child process
(``child.py``) that drives the engine through its public functions,
single-threaded and closed-loop: ``Pipeline.feed`` returns only when the
record's work is done.  One child runs at a time.

``--trace 0`` starts untraced children one after another for about
``--seconds`` seconds (at least one; another only if it is expected to
fit) and reports the end-to-end metrics over all of them: medians of
per-child values, and slide-latency percentiles over the pooled slides.
Each child sets up once, in a fresh process, so every set-up is a cold
one; ``SETUP_RUNS`` more children that only set up give ``setup_s`` its
median.  ``--trace 1`` runs one untraced child and one child whose
stages are wrapped by ``stagetrace.Tracer``, and reports the per-layer
metrics.  Metric names and units are read from ``BENCHMARK.json``;
``layers.json`` says what each per-layer metric measures.

Every child's outputs are checked against ``streamgraph.oracle``; a
child that fails counts all of its checks as failed.  A workload that
does not do its work (too few slides, no results, no deletion traffic
where deletions are the point) fails the benchmark instead of reporting
numbers.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_SLIDES = 1000
SETUP_RUNS = 5  # set-up-only children per untraced run
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot report numbers for this run."""


def units(group: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of
    BENCHMARK.json, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = -(-pct * len(sorted_values) // 100)
    return sorted_values[rank - 1]


def code_digest() -> str:
    """Identity of the code under test plus the benchmark's own code."""
    h = hashlib.sha256()
    mine = [p for p in HERE.glob("*.py") if not p.name.startswith("test_")]
    for p in sorted([*SRC.rglob("*.py"), *mine]):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def write_inputs(workload, seed: int) -> tuple[Path, Path]:
    from streamgraph.streams import write_edge_stream

    WORK.mkdir(exist_ok=True)
    stream = WORK / f"{workload.name}-{seed}.edges"
    query = WORK / f"{workload.name}-{seed}.query"
    with open(stream, "w") as fh:
        write_edge_stream(workload.events(seed), fh)
    query.write_text(workload.query_text())
    return stream, query


class Children:
    """Starts child runs one at a time and collects their reports."""

    def __init__(self, stream: Path, query: Path, out: Path, started: float):
        self.argv = [sys.executable, str(HERE / "child.py"),
                     "--stream", str(stream), "--query", str(query),
                     "--out", str(out)]
        self.env = {**os.environ,
                    "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
        self.started = started
        self.attempted = 0
        self.failed = 0

    def _spawn(self, flags: list[str]) -> dict | None:
        """Runs one child; its report, or None if it failed."""
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("no time left for another child run")
        try:
            proc = subprocess.run(self.argv + flags, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired:
            print(f"child run timed out after {left:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(proc.stderr[-4000:], file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_only(self) -> dict:
        doc = self._spawn(["--setup-only"])
        if doc is None:
            raise BenchError("a set-up-only child failed")
        return doc["setup"]

    def run(self, trace: bool) -> dict | None:
        from child import SAMPLED_CHECKS

        doc = self._spawn(["--trace"] if trace else [])
        if doc is None:
            checks = SAMPLED_CHECKS + 1 if trace else 1
            self.attempted += checks
            self.failed += checks
            return None
        self.attempted += doc["checks"]
        self.failed += doc["failed"]
        return doc


def check_reproducible(workload: str, seed: int, docs: list[dict]) -> list[str]:
    """Compares each child's net-result digest and emission count with
    every other run of the same code and seed, recorded in a ledger."""
    ledger_path = WORK / "ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{code_digest()}/{workload}/{seed}"
    problems = []
    for d in docs:
        got = {"net_digest": d["net_digest"], "emissions": d["emissions"]}
        want = ledger.setdefault(key, got)
        if got != want:
            problems.append(f"{key}: {got} differs from an earlier run's {want}")
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return problems


def guard(workload, docs: list[dict], layers: dict | None) -> None:
    for d in docs:
        if d["slides"] < MIN_SLIDES:
            raise BenchError(f"{workload.name}: {d['slides']} slides < {MIN_SLIDES}")
        if d["net_results"] == 0:
            raise BenchError(f"{workload.name}: empty net result set")
        if workload.delete_share > 0 and (d["deletions"] == 0 or d["neg_emissions"] == 0):
            raise BenchError(f"{workload.name}: deletions produced no retractions")
    if layers is not None:
        for name in workload.must_move:
            if layers[name] == 0:
                raise BenchError(f"{workload.name}: {name} is 0")


def end_to_end(docs: list[dict], setups: list[dict]) -> dict[str, float]:
    # The slide tail is read as per-slide CPU time at p95.  On a shared
    # 2-vCPU machine, descheduling bursts land in wall-clock tails: between
    # runs on different seeds of closure-purge, wall-clock p99 spread 0.32
    # (IQR/median, 5 runs), p95 0.28 and p90 0.27 (10 runs each), past the
    # 0.25 bound, while CPU-time p95 spread 0.05 to 0.13 over three sets.
    latencies = sorted(x for d in docs for x in d["latencies"])
    cpu_latencies = sorted(x for d in docs for x in d["cpu_latencies"])
    return {
        "events_per_s": statistics.median(d["events"] / d["run_s"] for d in docs),
        "slide_p50_ms": statistics.median(latencies) * 1e3,
        "slide_cpu_p95_ms": nearest_rank(cpu_latencies, 95) * 1e3,
        "setup_s": statistics.median(
            s["setup_s"] for s in [*setups, *(d["setup"] for d in docs)]),
        "peak_rss_mb": statistics.median(d["rss_mb"] for d in docs),
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    tr = traced["trace"]
    kinds = tr["kinds"]

    def k(kind: str, field: str) -> float:
        return kinds.get(kind, {}).get(field, 0)

    out = {
        "streams.read_s": traced["setup"]["read_s"],
        "streams.write_s": traced["write_s"],
        "streams.events_in": traced["events"],
        "streams.deletions_in": traced["deletions"],
        "query.parse_s": traced["setup"]["parse_s"],
        "query.plan_s": traced["setup"]["plan_s"],
        "runtime.compile_s": traced["setup"]["compile_s"],
        "runtime.run_s": tr["run_s"],
        "runtime.driver_s": tr["run_s"] - sum(a["total_s"] for a in kinds.values()),
        "runtime.slides": traced["slides"],
        "runtime.tail_watermark_share": tr["tail_watermark_share"],
        "runtime.trace_overhead_ratio": tr["run_s"] / untraced["run_s"] - 1,
        "operators.coalesce.retract_ratio":
            k("coalesce", "out_neg") / k("coalesce", "out_pos")
            if k("coalesce", "out_pos") else 0.0,
        "operators.ignored": tr["ignored"]["operators"],
        "pathop.insert_s": k("path", "pos_s"),
        "pathop.delete_s": k("path", "neg_s"),
        "pathop.tree_nodes_max": tr["tree_nodes_max"],
        "pathop.adj_edges_max": tr["adj_edges_max"],
        "pathop.ignored": tr["ignored"]["pathop"],
        "oracle.checks": traced["checks"],
        "oracle.check_s": traced["check_s"],
    }
    for prefix, kind in (("runtime.sink", "sink"), ("operators.wscan", "wscan"),
                         ("operators.coalesce", "coalesce"),
                         ("operators.pattern", "pattern"), ("pathop", "path")):
        for field in ("self_s", "watermark_s", "in_pos", "in_neg", "out_pos",
                      "out_neg", "state_max"):
            out.setdefault(f"{prefix}.{field}", k(kind, field))
    return {name: out[name] for name in units("per_layer")}


def measure(workload, seed: int, seconds: int, trace: bool, started: float):
    stream, query = write_inputs(workload, seed)
    kids = Children(stream, query, WORK / f"{workload.name}-{seed}.out", started)
    docs: list[dict] = []
    if trace:
        untraced, traced = kids.run(False), kids.run(True)
        if untraced is None or traced is None:
            raise BenchError("a child run failed; no per-layer numbers")
        docs = [untraced, traced]
        layers = per_layer(traced, untraced)
        spans = WORK / f"{workload.name}-{seed}.spans.json"
        spans.write_text(json.dumps({"setup": traced["setup"],
                                     "slides": traced["trace"]["slides"]}))
        guard(workload, docs, layers)
        unit = units("per_layer")
        metrics = {n: (v, unit[n]) for n, v in layers.items()}
    else:
        setups = [kids.setup_only() for _ in range(SETUP_RUNS)]
        t0 = time.perf_counter()
        last = 0.0
        while not docs or time.perf_counter() - t0 + last <= seconds:
            c0 = time.perf_counter()
            doc = kids.run(False)
            last = time.perf_counter() - c0
            if doc is not None:
                docs.append(doc)
            elif not docs:
                raise BenchError("the first child run failed")
        guard(workload, docs, None)
        unit = units("end_to_end")
        metrics = {n: (v, unit[n]) for n, v in end_to_end(docs, setups).items()}
    return kids, docs, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    # On SIGTERM, subprocess.run kills and reaps the running child when
    # this SystemExit passes through it, and the finally below cleans up.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (SRC / "streamgraph" / "__init__.py").is_file():
        print(f"no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        kids, docs, metrics = measure(workload, args.seed, args.seconds,
                                      bool(args.trace), started)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        for suffix in ("edges", "query", "out"):
            (WORK / f"{workload.name}-{args.seed}.{suffix}").unlink(missing_ok=True)
    problems = check_reproducible(workload.name, args.seed, docs)
    for p in problems:
        print(f"not reproducible: {p}", file=sys.stderr)

    emissions = sorted({d["emissions"] for d in docs})
    print(f"workload {workload.name}, seed {args.seed}, {len(docs)} child runs, "
          f"{sum(len(d['latencies']) for d in docs)} slides, emissions {emissions}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':34s} {kids.failed / kids.attempted:14.6g} ratio "
          f"({kids.failed} of {kids.attempted} oracle checks)")
    print(json.dumps({
        "correct": kids.failed == 0 and not problems,
        "attempted": kids.attempted,
        "failed": kids.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
