"""One timed run of the engine in a fresh process.

Calls the public functions in the order ``streamgraph run --net`` does,
timing each: read_edge_stream, parse_query, to_plan, compile_plan (the
set-up, done once, as a fresh ``streamgraph run`` does it), then
run_stream and write_result_stream.  The oracle checks run outside every
timed region.  Prints one JSON object on stdout.

    python3 perfbench/child.py --stream S --query Q --out O [--trace | --setup-only]

``--trace`` wraps the stages (``stagetrace.Tracer``) and also checks the
oracle at ``SAMPLED_CHECKS`` slide boundaries; ``--setup-only`` stops
after the set-up and reports only its times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import resource
import time

from streamgraph.oracle import answer_pairs, eval_query_at
from streamgraph.query import parse_query, to_plan
from streamgraph.runtime import compile_plan, run_stream
from streamgraph.streams import format_result, read_edge_stream, write_result_stream

from stagetrace import CountHandler, Tracer


def setup(stream_path: str, query_path: str):
    clock = time.perf_counter
    t0 = clock()
    with open(stream_path) as fh:
        events = read_edge_stream(fh)
    t1 = clock()
    with open(query_path) as fh:
        q = parse_query(fh.read())
    t2 = clock()
    plan = to_plan(q)
    t3 = clock()
    pipe = compile_plan(plan)
    t4 = clock()
    times = {"read_s": t1 - t0, "parse_s": t2 - t1, "plan_s": t3 - t2,
             "compile_s": t4 - t3, "setup_s": t4 - t0}
    return events, q, pipe, times


def final_watermark(events, slide: int) -> int:
    return -(-events[-1].ts // slide) * slide


SAMPLED_CHECKS = 8  # slide boundaries the traced run also checks


def sampled_instants(events, slide: int) -> list[int]:
    base = (events[0].ts // slide) * slide
    slides = (final_watermark(events, slide) - base) // slide
    k = SAMPLED_CHECKS
    return [base + (i * slides // (k + 1)) * slide for i in range(1, k + 1)]


def oracle_check(q, events, pipe, t: int) -> bool:
    got = {(s, d) for s, d, _ in pipe.sink.snapshot(t)}
    return got == answer_pairs(eval_query_at(q, events, t))


def slide_cpu_times(pipe) -> list[float]:
    """Wraps ``pipe.watermark`` to record the process CPU time of each
    slide: the intervals whose wall time run_stream keeps as slide
    latencies.  Call right before run_stream."""
    times: list[float] = []
    inner = pipe.watermark
    last = time.process_time()

    def watermark(w: int) -> None:
        nonlocal last
        inner(w)
        now = time.process_time()
        times.append(now - last)
        last = now

    pipe.watermark = watermark
    return times


def net_digest(results) -> str:
    lines = sorted(format_result(t) for t in results)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--stream", required=True)
    ap.add_argument("--query", required=True)
    ap.add_argument("--out", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    events, q, pipe, setup_times = setup(args.stream, args.query)
    if args.setup_only:
        print(json.dumps({"setup": setup_times}))
        return

    checks: list[bool] = []
    check_s = 0.0

    def check(t: int) -> None:
        nonlocal check_s
        t0 = time.perf_counter()
        checks.append(oracle_check(q, events, pipe, t))
        check_s += time.perf_counter() - t0

    tracer = handlers = None
    instants = on_instant = None
    if args.trace:
        tracer = Tracer(pipe)
        handlers = {}
        for name in ("operators", "pathop"):
            handlers[name] = CountHandler()
            logging.getLogger(f"streamgraph.{name}").addHandler(handlers[name])
        instants = sampled_instants(events, q.slide)

        def on_instant(t: int) -> None:
            tracer.excluded(lambda: check(t))

        tracer.start()

    cpu_latencies = slide_cpu_times(pipe)
    t0 = time.perf_counter()
    m = run_stream(pipe, events, instants, on_instant)
    run_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with open(args.out, "w") as fh:
        write_result_stream(pipe.sink.results(), fh)
    write_s = time.perf_counter() - t0
    # peak memory of what ``streamgraph run --net`` does, before the checks
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check(final_watermark(events, q.slide))

    results = pipe.sink.results()
    doc = {
        "setup": setup_times,
        "run_s": run_s,
        "write_s": write_s,
        "events": m.events_in,
        "deletions": sum(1 for e in events if e.sign < 0),
        "slides": m.slides,
        "latencies": m.slide_latencies,
        "cpu_latencies": cpu_latencies,
        "emissions": m.emissions,
        "neg_emissions": sum(1 for t in pipe.sink.log if t.sign < 0),
        "net_results": len(results),
        "net_digest": net_digest(results),
        "checks": len(checks),
        "failed": checks.count(False),
        "check_s": check_s,
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        doc["trace"] = {
            "run_s": run_s - tracer.excluded_s,
            "kinds": {k: {**vars(a), "self_s": a.self_s, "total_s": a.total_s}
                      for k, a in tracer.kinds.items()},
            "tree_nodes_max": tracer.tree_nodes_max,
            "adj_edges_max": tracer.adj_edges_max,
            "tail_watermark_share": tracer.tail_watermark_share(),
            "ignored": {k: h.count for k, h in handlers.items()},
            "slides": [{"wall_s": s.wall_s,
                        "kinds": {k: {n: v for n, v in vars(a).items()
                                      if n != "state_max"}
                                  for k, a in s.kinds.items()}}
                       for s in tracer.slides],
        }
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
