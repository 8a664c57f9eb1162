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
and raw scans preserve disjointness and stay bare.

Execution is single-threaded by default.  With ``threads="per-op"``
every stage runs on its own worker thread connected by bounded FIFO
channels; emissions stay ordered per channel (a retraction can never
overtake the insertion it cancels) while tuples of unrelated channels
may interleave, which changes at most the order of emissions inside a
slide, never their net effect.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from streamgraph import algebra
from streamgraph.automata import build_dfa
from streamgraph.model import EdgeEvent, ExpiryIndex, StreamTuple
from streamgraph.operators import (
    CoalesceStage,
    FilterStage,
    PatternStage,
    RawScan,
    UnionStage,
    WindowAssign,
    WindowScan,
)
from streamgraph.pathop import PathStage


class CompileError(ValueError):
    pass


class StreamOrderError(ValueError):
    pass


class _RememberingRawScan(RawScan):
    """Raw scan that restamps deletions with the insertion's timestamp,
    so a window stage further up recomputes the right interval."""

    def __init__(self):
        self.live_ts: dict[int, int] = {}

    def on_tuple(self, port, e, now):
        if e.sign > 0:
            self.live_ts[e.uid] = e.ts
            return super().on_tuple(port, e, now)
        ts = self.live_ts.pop(e.ref, None)
        if ts is None:
            return []
        return super().on_tuple(port, EdgeEvent(e.src, e.trg, e.label, ts, -1, e.uid, e.ref), now)


class PipeNode:
    """One stage instance wired into the dataflow tree."""

    def __init__(self, stage, parent: PipeNode | None, port: int, nports: int, label: str):
        self.stage = stage
        self.parent = parent
        self.port = port
        self.nports = nports
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

    def advance_watermark(self, port: int, w: int) -> int | None:
        """Merge one per-port watermark; returns the new effective value
        if it moved, None otherwise.  A regression is a contract bug."""
        if w < self.wms[port]:
            raise StreamOrderError(
                f"watermark regressed from {self.wms[port]} to {w} at {self.label}"
            )
        if w == self.wms[port]:
            return None
        self.wms[port] = w
        eff = min(self.wms)
        if eff > self.effective:
            self.effective = eff
            return eff
        return None

    def watermark(self, port: int, w: int) -> None:
        eff = self.advance_watermark(port, w)
        if eff is None:
            return
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
        self._lock = threading.Lock()

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        with self._lock:
            self.log.append(t)
            if t.sign > 0:
                self.live[t.origin] = t
                self.expiry.add(t.exp, t.origin)
            else:
                self.live.pop(t.origin, None)
        return []

    def on_watermark(self, w: int) -> None:
        with self._lock:
            live = self.live
            for origin in self.expiry.expired(w):
                t = live.get(origin)
                if t is not None and t.exp <= w:
                    del live[origin]

    def snapshot(self, t: int) -> set[tuple[str, str, str]]:
        with self._lock:
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
                entry = PipeNode(_RememberingRawScan(), parent, port, 1, f"scan {lbl}")
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


class ThreadedPipeline:
    """Runs each stage of a compiled pipeline on its own worker thread.

    Channels are bounded FIFO queues; watermarks travel in-band so a
    stage purges only after draining everything older.  Net results are
    identical to single-threaded execution, emission order within a
    slide is not.
    """

    _END = object()

    def __init__(self, pipeline: Pipeline, channel_size: int = 1024):
        self.pipeline = pipeline
        self.queues: dict[PipeNode, queue.Queue] = {
            n: queue.Queue(maxsize=channel_size) for n in pipeline.nodes
        }
        self.threads = [
            threading.Thread(target=self._work, args=(n,), daemon=True)
            for n in pipeline.nodes
        ]

    def _work(self, node: PipeNode) -> None:
        q = self.queues[node]
        ended = 0
        while True:
            msg = q.get()
            if msg is self._END:
                ended += 1
                if ended < node.nports:
                    continue
                if node.parent is not None:
                    self.queues[node.parent].put(self._END)
                return
            kind, port, payload, now = msg
            if kind == "t":
                outs = node.stage.on_tuple(port, payload, now)
                if node.tap is not None:
                    node.tap.extend(outs)
                if node.parent is not None:
                    pq = self.queues[node.parent]
                    for o in outs:
                        pq.put(("t", node.port, o, now))
            else:
                eff = node.advance_watermark(port, payload)
                if eff is not None:
                    node.stage.on_watermark(eff)
                    if node.parent is not None:
                        self.queues[node.parent].put(("w", node.port, eff, now))

    def run(self, events) -> Metrics:
        for t in self.threads:
            t.start()
        p = self.pipeline
        beta = p.slide
        m = Metrics()
        prev_ts = None
        base = wm = None
        t0 = time.perf_counter()
        last_mark = t0
        try:
            for e in events:
                if prev_ts is not None and e.ts < prev_ts:
                    raise StreamOrderError(
                        f"out-of-order record at ts={e.ts} after ts={prev_ts}: "
                        f"{e.sign:+d} {e.src} {e.trg} {e.label}"
                    )
                boundary = (e.ts // beta) * beta
                if base is None:
                    base = wm = boundary
                elif boundary > wm:
                    self._broadcast(("w", 0, boundary, boundary))
                    wm = boundary
                    now_t = time.perf_counter()
                    m.slide_latencies.append(now_t - last_mark)
                    last_mark = now_t
                prev_ts = e.ts
                for src in p.sources.get(e.label, ()):
                    self.queues[src].put(("t", 0, e, e.ts))
                m.events_in += 1
            if prev_ts is not None:
                final = -(-prev_ts // beta) * beta
                if final > wm:
                    self._broadcast(("w", 0, final, final))
                    wm = final
                    m.slide_latencies.append(time.perf_counter() - last_mark)
        finally:
            for nodes in p.sources.values():
                for src in nodes:
                    self.queues[src].put(self._END)
            for t in self.threads:
                t.join()
        m.elapsed = time.perf_counter() - t0
        m.slides = 0 if base is None else int((wm - base) // beta)
        m.emissions = len(p.sink.log)
        return m

    def _broadcast(self, msg) -> None:
        for nodes in self.pipeline.sources.values():
            for src in nodes:
                self.queues[src].put(msg)


def compile_plan(plan, payload: str = "derived") -> Pipeline:
    return Pipeline(plan, payload=payload)
