"""Plan compilation and the streaming executor.

A logical plan compiles into a tree of push-based stages.  Tuples flow
one at a time from label-bound scans toward the sink; watermarks flow
along the same edges and are merged with min semantics at multi-input
stages.  The driver stamps every record with the current event time,
fires a watermark whenever the stream crosses a slide boundary (before
the first record of the new slide) and once more at the end, and keeps
per-slide wall-clock latencies for the metrics report.

Set semantics are restored by a coalescing stage placed behind every
operator that can produce value-equivalent overlapping tuples: windowed
scans, window assignment, unions, joins and path navigation.  Filters
and raw scans preserve disjointness and stay bare.  A raw (unwindowed)
scan is a window scan whose intervals never end.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from streamgraph import algebra
from streamgraph.automata import build_dfa
from streamgraph.model import EdgeEvent, ExpiryIndex, StreamTuple
from streamgraph.operators import (
    CoalesceStage,
    FilterStage,
    PatternStage,
    UnionStage,
    WindowAssign,
    WindowScan,
)
from streamgraph.pathop import PathStage


class CompileError(ValueError):
    pass


class StreamOrderError(ValueError):
    pass


class PipeNode:
    """One stage instance wired into the dataflow tree."""

    def __init__(self, stage, parent: PipeNode | None, port: int, nports: int, label: str):
        self.stage = stage
        self.parent = parent
        self.port = port
        self.label = label
        self.wms = [float("-inf")] * nports
        self.effective = float("-inf")
        self.tap: list[StreamTuple] | None = None

    def push(self, port: int, t, now: int) -> None:
        outs = self.stage.on_tuple(port, t, now)
        if self.tap is not None:
            self.tap.extend(outs)
        if self.parent is not None:
            for o in outs:
                self.parent.push(self.port, o, now)

    def watermark(self, port: int, w: int) -> None:
        """Merge one per-port watermark and, if the effective (minimum)
        one moved, purge and forward it.  A regression is a contract bug."""
        if w < self.wms[port]:
            raise StreamOrderError(
                f"watermark regressed from {self.wms[port]} to {w} at {self.label}"
            )
        if w == self.wms[port]:
            return
        self.wms[port] = w
        eff = min(self.wms)
        if eff <= self.effective:
            return
        self.effective = eff
        self.stage.on_watermark(eff)
        if self.parent is not None:
            self.parent.watermark(self.port, eff)


class OutputSink:
    """Terminal stage: keeps the full signed emission log plus the live
    result set (origin -> latest positive, purged at watermarks through
    an expiry index)."""

    def __init__(self):
        self.log: list[StreamTuple] = []
        self.live: dict[object, StreamTuple] = {}
        self.expiry = ExpiryIndex()

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        self.log.append(t)
        if t.sign > 0:
            self.live[t.origin] = t
            self.expiry.add(t.exp, t.origin)
        else:
            self.live.pop(t.origin, None)
        return []

    def on_watermark(self, w: int) -> None:
        live = self.live
        for origin in self.expiry.expired(w):
            t = live.get(origin)
            if t is not None and t.exp <= w:
                del live[origin]

    def snapshot(self, t: int) -> set[tuple[str, str, str]]:
        return {x.key for x in self.live.values() if x.interval.contains(t)}

    def results(self) -> list[StreamTuple]:
        return sorted(net_results(self.log), key=lambda t: (t.ts, t.key, t.exp))


def net_results(emissions: list[StreamTuple]) -> list[StreamTuple]:
    """Replay a signed emission log: the latest positive per origin wins,
    a negative cancels it."""
    live: dict[object, StreamTuple] = {}
    for t in emissions:
        if t.sign > 0:
            live[t.origin] = t
        else:
            live.pop(t.origin, None)
    return list(live.values())


class Pipeline:
    def __init__(self, plan, payload: str = "derived"):
        algebra.validate_plan(plan)
        self.plan = plan
        self.payload = payload
        self.sink = OutputSink()
        self.sources: dict[str, list[PipeNode]] = {}
        self.nodes: list[PipeNode] = []
        self.slide = min(
            (n.slide for n in algebra.walk(plan)
             if isinstance(n, algebra.Window)
             or (isinstance(n, algebra.Wscan) and n.size is not None)),
            default=1,
        )
        self._ids = 0
        sink_node = PipeNode(self.sink, None, 0, 1, "sink")
        self.nodes.append(sink_node)
        self._build(plan, sink_node, 0)

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def _build(self, node, parent: PipeNode, port: int) -> None:
        lbl = algebra.plan_label(node)
        if isinstance(node, algebra.Wscan):
            if node.size is None:
                # [ts, inf) intervals; the scan still restamps a deletion
                # with its insertion's, for a window stage further up
                entry = PipeNode(WindowScan(math.inf, 1), parent, port, 1, f"scan {lbl}")
                self.nodes.append(entry)
            else:
                co = PipeNode(CoalesceStage(self._next_id()), parent, port, 1, f"coalesce {lbl}")
                entry = PipeNode(WindowScan(node.size, node.slide), co, 0, 1, f"wscan {lbl}")
                self.nodes.extend([co, entry])
            self.sources.setdefault(node.label, []).append(entry)
            return
        if isinstance(node, algebra.Window):
            co = PipeNode(CoalesceStage(self._next_id()), parent, port, 1, f"coalesce {lbl}")
            entry = PipeNode(WindowAssign(node.size, node.slide), co, 0, 1, f"window {lbl}")
            self.nodes.extend([co, entry])
            self._build(node.child, entry, 0)
            return
        if isinstance(node, algebra.Filter):
            entry = PipeNode(FilterStage(node.predicate), parent, port, 1, f"filter {lbl}")
            self.nodes.append(entry)
            self._build(node.child, entry, 0)
            return
        if isinstance(node, algebra.Union):
            kids = node.children
            co = PipeNode(CoalesceStage(self._next_id()), parent, port, 1, f"coalesce {lbl}")
            entry = PipeNode(UnionStage(node.label), co, 0, len(kids), f"union {lbl}")
            self.nodes.extend([co, entry])
            for i, kid in enumerate(kids):
                self._build(kid, entry, i)
            return
        if isinstance(node, algebra.Pattern):
            kids = node.children
            co = PipeNode(CoalesceStage(self._next_id()), parent, port, 1, f"coalesce {lbl}")
            stage = PatternStage(len(kids), node.condition, node.label)
            entry = PipeNode(stage, co, 0, len(kids), f"pattern {lbl}")
            self.nodes.extend([co, entry])
            for i, kid in enumerate(kids):
                self._build(kid, entry, i)
            return
        if isinstance(node, algebra.Path):
            kids = node.children
            co = PipeNode(CoalesceStage(self._next_id()), parent, port, 1, f"coalesce {lbl}")
            stage = PathStage(
                build_dfa(node.regex), node.label, self._next_id(), self.payload
            )
            entry = PipeNode(stage, co, 0, len(kids), f"path {lbl}")
            self.nodes.extend([co, entry])
            for i, kid in enumerate(kids):
                self._build(kid, entry, i)
            return
        raise CompileError(f"cannot compile plan node {type(node).__name__}")

    def tap(self, label: str) -> list[StreamTuple]:
        """Capture the coalesced output stream of every operator whose
        logical label matches."""
        buf: list[StreamTuple] = []
        hits = [n for n in self.nodes if n.label == f"coalesce {label}"]
        if not hits:
            raise KeyError(f"no operator labeled {label!r}")
        for n in hits:
            n.tap = buf
        return buf

    def feed(self, e: EdgeEvent) -> None:
        for src in self.sources.get(e.label, ()):
            src.push(0, e, e.ts)

    def watermark(self, w: int) -> None:
        for nodes in self.sources.values():
            for src in nodes:
                src.watermark(0, w)


@dataclass
class Metrics:
    events_in: int = 0
    emissions: int = 0
    slides: int = 0
    elapsed: float = 0.0
    slide_latencies: list[float] = field(default_factory=list)

    @property
    def p99_slide_latency(self) -> float | None:
        if not self.slide_latencies:
            return None
        ordered = sorted(self.slide_latencies)
        rank = -(-99 * len(ordered) // 100)  # nearest-rank ceil(0.99 n)
        return ordered[rank - 1]

    @property
    def throughput(self) -> float | None:
        if self.elapsed <= 0.0:
            return None
        return self.events_in / self.elapsed


def run_stream(
    pipeline: Pipeline,
    events,
    instants: list[int] | None = None,
    on_instant=None,
) -> Metrics:
    """Drive a pipeline over a time-ordered event stream.

    ``on_instant(t)`` fires once every record with ts <= t has been
    processed, for each requested instant in ascending order.
    """
    beta = pipeline.slide
    instants = sorted(instants) if instants else []
    idx = 0
    m = Metrics()
    prev_ts: int | None = None
    base: int | None = None
    wm: int | None = None
    t0 = time.perf_counter()
    last_mark = t0
    for e in events:
        if prev_ts is not None and e.ts < prev_ts:
            raise StreamOrderError(
                f"out-of-order record at ts={e.ts} after ts={prev_ts}: "
                f"{e.sign:+d} {e.src} {e.trg} {e.label}"
            )
        while idx < len(instants) and instants[idx] < e.ts:
            if on_instant is not None:
                on_instant(instants[idx])
            idx += 1
        boundary = (e.ts // beta) * beta
        if base is None:
            base = boundary
            wm = boundary
        elif boundary > wm:
            pipeline.watermark(boundary)
            wm = boundary
            now_t = time.perf_counter()
            m.slide_latencies.append(now_t - last_mark)
            last_mark = now_t
        prev_ts = e.ts
        pipeline.feed(e)
        m.events_in += 1
    while idx < len(instants):
        # remaining instants precede the final flush: its purge may drop
        # tuples whose intervals still cover an earlier instant
        if on_instant is not None:
            on_instant(instants[idx])
        idx += 1
    if prev_ts is not None:
        final = -(-prev_ts // beta) * beta
        if final > wm:
            pipeline.watermark(final)
            wm = final
            now_t = time.perf_counter()
            m.slide_latencies.append(now_t - last_mark)
    m.elapsed = time.perf_counter() - t0
    m.slides = 0 if base is None else int((wm - base) // beta)
    m.emissions = len(pipeline.sink.log)
    return m


def compile_plan(plan, payload: str = "derived") -> Pipeline:
    return Pipeline(plan, payload=payload)
