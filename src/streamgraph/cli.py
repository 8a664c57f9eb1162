"""Command-line front end.

Subcommands:

    run    evaluate a query over an edge-stream file, write the signed
           result stream (or the final net results with --net)
    plan   print the canonical plan, optionally with rewrite variants
    check  compare engine snapshots against the from-scratch reference
    gen    produce a synthetic edge-stream file from a JSON spec

Every command exits 0 on success; ``check`` exits 1 when any instant
differs; usage and input errors print one line to stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from streamgraph import algebra
from streamgraph.oracle import answer_pairs, eval_query_at
from streamgraph.query import QueryError, parse_query, to_plan
from streamgraph.runtime import StreamOrderError, compile_plan, run_stream
from streamgraph.streams import (
    StreamFormatError,
    generate_synthetic,
    read_edge_stream,
    write_edge_stream,
    write_result_stream,
)


def _load_query(args):
    with open(args.query) as fh:
        return parse_query(fh.read(), window=args.window, slide=args.slide)


def _load_events(path: str):
    with open(path) as fh:
        return read_edge_stream(fh)


def _out_handle(path: str | None):
    return open(path, "w") if path else sys.stdout


def cmd_run(args) -> int:
    q = _load_query(args)
    events = _load_events(args.input)
    pipe = compile_plan(to_plan(q), payload=args.payload)
    metrics = run_stream(pipe, events)
    tuples = pipe.sink.results() if args.net else pipe.sink.log
    fh = _out_handle(args.output)
    try:
        write_result_stream(tuples, fh)
    finally:
        if fh is not sys.stdout:
            fh.close()
    if args.metrics:
        doc = {
            "throughput": metrics.throughput,
            "p99_latency": metrics.p99_slide_latency,
            "slides": metrics.slides,
            "tuples_in": metrics.events_in,
            "tuples_out": metrics.emissions,
        }
        with open(args.metrics, "w") as mh:
            json.dump(doc, mh, indent=2)
            mh.write("\n")
    return 0


def cmd_plan(args) -> int:
    plan = to_plan(_load_query(args))
    print(algebra.format_plan(plan))
    if args.rewrites:
        variants = sorted(
            algebra.render_plan(p)
            for p in algebra.enumerate_plans(plan, args.rewrites)
        )
        print(f"\n{len(variants)} plans within {args.rewrites} rewrites:")
        for line in variants:
            print(line)
    return 0


def _boundaries(events, beta: int) -> list[int]:
    base = (events[0].ts // beta) * beta
    final = -(-events[-1].ts // beta) * beta
    return list(range(base, final + 1, beta))


def cmd_check(args) -> int:
    q = _load_query(args)
    events = _load_events(args.input)
    if not events:
        print("ok: empty stream, nothing to check")
        return 0
    if args.instants == "dense":
        final = -(-events[-1].ts // q.slide) * q.slide
        instants = list(range(events[0].ts, final + 1))
    else:
        instants = _boundaries(events, q.slide)
    pipe = compile_plan(to_plan(q))
    got: list[tuple[int, set]] = []
    run_stream(
        pipe,
        events,
        instants=instants,
        on_instant=lambda t: got.append(
            (t, {(s, d) for s, d, lbl in pipe.sink.snapshot(t)})
        ),
    )
    diffs = 0
    for t, engine in got:
        want = answer_pairs(eval_query_at(q, events, t))
        if engine != want:
            diffs += 1
            missing = sorted(want - engine)
            extra = sorted(engine - want)
            print(f"t={t}: missing={missing} extra={extra}")
    if diffs:
        print(f"FAIL: {diffs} of {len(got)} instants differ")
        return 1
    print(f"ok: {len(got)} instants, zero diffs")
    return 0


def cmd_gen(args) -> int:
    with open(args.spec) as fh:
        spec = json.load(fh)
    try:
        events = generate_synthetic(
            vertices=spec["vertices"],
            edges=spec["edges"],
            labels=tuple(spec.get("labels", ("a", "b", "c", "d"))),
            rate=spec.get("rate", 1.0),
            cyclicity=spec.get("cyclicity", 0.3),
            seed=spec.get("seed", 0),
        )
    except KeyError as e:
        raise ValueError(f"spec is missing required key {e.args[0]!r}") from None
    with open(args.out, "w") as fh:
        write_edge_stream(events, fh)
    return 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="streamgraph")
    sub = top.add_subparsers(dest="command", required=True)

    def query_flags(p):
        p.add_argument("--query", required=True, help="query file")
        p.add_argument("--window", type=int, default=None,
                       help="window size override")
        p.add_argument("--slide", type=int, default=None,
                       help="slide override")

    p = sub.add_parser("run", help="evaluate a query over an edge stream")
    query_flags(p)
    p.add_argument("--input", required=True, help="edge stream file")
    p.add_argument("--output", default=None, help="result file (default stdout)")
    p.add_argument("--metrics", default=None, help="write metrics JSON here")
    p.add_argument("--payload", choices=("derived", "expanded"), default="derived")
    p.add_argument("--net", action="store_true",
                   help="write final net results instead of the signed log")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("plan", help="print the canonical plan")
    query_flags(p)
    p.add_argument("--rewrites", type=int, default=0,
                   help="also enumerate plans within this many rewrites")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("check", help="diff engine snapshots against the reference")
    query_flags(p)
    p.add_argument("--input", required=True, help="edge stream file")
    p.add_argument("--instants", choices=("boundary", "dense"), default="boundary")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen", help="generate a synthetic edge stream")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("--out", required=True, help="output stream file")
    p.set_defaults(fn=cmd_gen)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (QueryError, StreamFormatError, StreamOrderError, algebra.PlanError,
            ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
