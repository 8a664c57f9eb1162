"""Plan compilation and the streaming executor.

A logical plan compiles into a tree of push-based stages.  Tuples flow
one at a time from label-bound scans toward the sink.  The driver stamps
every record with the current event time, fires a watermark whenever the
stream crosses a slide boundary (before the first record of the new
slide) and once more at the end, and keeps per-slide wall-clock
latencies for the metrics report.  A watermark is one purge pass: the
pipeline hands it to every stage once, and since expired state vanishes
silently, no stage emits anything in it and the order does not matter.

Set semantics are restored by a coalescing stage placed behind every
operator that can produce value-equivalent overlapping tuples: scans,
unions, joins and path navigation.  Every scan meets a Coalesce through
filters and unions only: its own, or that of the Window above it.  A
Window compiles into the scans beneath it, which stamp its intervals,
and is left as their Coalesce.  An unwindowed scan outside any Window
stamps intervals that never end.  Scans are stateless; the Coalesce
matches each deletion to the insertion it undoes.

``run_stream`` raises the cyclic collector's generation-0 threshold to
``GC_GEN0_THRESHOLD`` for its own run and restores the caller's after
it.  That is safe because the per-tuple path allocates no reference
cycles; without it, collections keep walking all live window state and
take about a third of the run's CPU.
"""

from __future__ import annotations

import gc
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
    WindowScan,
)
from streamgraph.pathop import PathStage


# generation-0 threshold (allocations between young collections) during
# run_stream; a caller's higher threshold is kept
GC_GEN0_THRESHOLD = 50_000


class CompileError(ValueError):
    pass


class StreamOrderError(ValueError):
    pass


class PipeNode:
    """One stage instance wired into the dataflow tree."""

    def __init__(self, stage, parent: PipeNode | None, port: int, label: str):
        self.stage = stage
        self.parent = parent
        self.port = port
        self.label = label
        self.tap: list[StreamTuple] | None = None

    def push(self, port: int, t, now: int) -> None:
        outs = self.stage.on_tuple(port, t, now)
        if self.tap is not None:
            self.tap.extend(outs)
        if self.parent is not None:
            for o in outs:
                self.parent.push(self.port, o, now)


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
        self._last_watermark = float("-inf")
        self.slide = min(
            (n.slide for n in algebra.walk(plan)
             if isinstance(n, algebra.Window)
             or (isinstance(n, algebra.Wscan) and n.size is not None)),
            default=1,
        )
        self._ids = 0
        self._build(plan, self._add(self.sink, None, 0, "sink"), 0)

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def _add(self, stage, parent: PipeNode | None, port: int, label: str) -> PipeNode:
        node = PipeNode(stage, parent, port, label)
        self.nodes.append(node)
        return node

    def _coalesce(self, parent: PipeNode, port: int, lbl: str) -> PipeNode:
        return self._add(CoalesceStage(self._next_id()), parent, port, f"coalesce {lbl}")

    def _build(self, node, parent: PipeNode, port: int, window=None) -> None:
        """Compile ``node`` below ``parent``.  ``window`` is the (size,
        slide) of an enclosing Window: it compiles into the scans beneath
        it, so that the Window itself is only their Coalesce."""
        lbl = algebra.plan_label(node)
        if window is not None and not (
            isinstance(node, (algebra.Filter, algebra.Union))
            or (isinstance(node, algebra.Wscan) and node.size is None)
        ):
            raise CompileError(
                "a window covers only filters and unions of unwindowed scans, "
                f"not {algebra.render_plan(node)}"
            )
        if isinstance(node, algebra.Wscan):
            if window is None:
                window = (math.inf, 1) if node.size is None else (node.size, node.slide)
                parent, port = self._coalesce(parent, port, lbl), 0
            entry = self._add(WindowScan(*window), parent, port, f"wscan {lbl}")
            self.sources.setdefault(node.label, []).append(entry)
        elif isinstance(node, algebra.Window):
            co = self._coalesce(parent, port, lbl)
            self._build(node.child, co, 0, (node.size, node.slide))
        elif isinstance(node, algebra.Filter):
            entry = self._add(FilterStage(node.predicate), parent, port, f"filter {lbl}")
            self._build(node.child, entry, 0, window)
        elif isinstance(node, (algebra.Union, algebra.Pattern, algebra.Path)):
            kids = node.children
            co = self._coalesce(parent, port, lbl)
            if isinstance(node, algebra.Union):
                stage, kind = UnionStage(node.label), "union"
            elif isinstance(node, algebra.Pattern):
                stage, kind = PatternStage(len(kids), node.condition, node.label), "pattern"
            else:
                stage = PathStage(
                    build_dfa(node.regex), node.label, self._next_id(), self.payload
                )
                kind = "path"
            entry = self._add(stage, co, 0, f"{kind} {lbl}")
            for i, kid in enumerate(kids):
                self._build(kid, entry, i, window)
        else:
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
        """Purge every stage once up to ``w``; a regression is a contract
        bug."""
        if w < self._last_watermark:
            raise StreamOrderError(
                f"watermark regressed from {self._last_watermark} to {w}"
            )
        self._last_watermark = w
        for node in self.nodes:
            node.stage.on_watermark(w)


@dataclass
class Metrics:
    events_in: int = 0
    emissions: int = 0
    slides: int = 0
    elapsed: float = 0.0
    slide_latencies: list[float] = field(default_factory=list)
    gc_collections: list[int] = field(default_factory=list)  # per generation

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
    processed, for each requested instant in ascending order.  The
    collector's generation-0 threshold is at least ``GC_GEN0_THRESHOLD``
    during the run; the caller's thresholds are restored when it ends or
    raises, and a disabled collector stays disabled.
    """
    saved = gc.get_threshold()
    if saved[0]:  # a threshold of 0 disables collection: keep it so
        gc.set_threshold(max(saved[0], GC_GEN0_THRESHOLD), *saved[1:])
    before = gc.get_stats()
    try:
        m = _drive(pipeline, events, instants, on_instant)
    finally:
        gc.set_threshold(*saved)
    m.gc_collections = [
        a["collections"] - b["collections"] for b, a in zip(before, gc.get_stats())
    ]
    return m


def _drive(pipeline: Pipeline, events, instants, on_instant) -> Metrics:
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
