"""Plan compilation and the streaming executor.

A logical plan compiles into a tree of push-based stages.  Tuples flow
one at a time from label-bound scans toward the sink.  The driver stamps
every record with the current event time, and fires a watermark
whenever the stream crosses a multiple of the pipeline's step (before
the first record past it) and once more at the end.  The step,
``Pipeline.slide``, is the greatest common divisor of every window's
size and slide: every finite interval end is a multiple of it, so each
entry is purged at the instant it ends.  It is the smallest slide only
where that slide divides every window's size and slide: windows (12, 4)
and (18, 6) purge every 2 instants.  A watermark is one purge pass: the
pipeline hands it to every stage once, and since expired state vanishes
silently, no stage emits anything in it and the order does not matter.

The metrics report counts slides of the smallest window slide, which
the step divides, not purge steps: one wall-clock latency per crossing
of a multiple of it, and one for the rest of the stream at the end.

The stage contract: ``on_tuple(port, t, now)`` may assume that
``on_watermark(w)`` has run for every end ``w <= now``, so no stage
ever meets state that has ended, and that a positive ``t`` holds
``now``: ``start <= now < end``.  A positive under a held origin
replaces that origin's tuple.  A negative cancels by origin at every
stage; it holds ``now`` too, but a scan stamps a deletion with its own
window, not with the one of the insertion it cancels.

Set semantics are restored once, by the one stage directly below the
sink: a root Path whose automaton has one accepting state writes its
results by key itself (see pathop.py); any other root gets a Coalesce.
Below it, stages take bags: a Path or a join re-emits a result under
the same origin with a new interval or payload, and one key may be live
under several origins.  Each scan stamps its own window's intervals as
edges enter; an unwindowed scan stamps intervals that never end.  Scans
are stateless.  The sink keeps only the emission log, which is
key-addressed (see operators.py): the root's live keys are the live set.

``run_stream`` keeps the cyclic collector off the live window state.
Right after every watermark at a step boundary the driver calls
``gc.freeze()``: it moves every live object into the permanent
generation, out of reach of every collection, and resets the
generation-0 count, so a collection can only walk what one step
allocated.  The generation-0 threshold is still raised to
``GC_GEN0_THRESHOLD`` for the run, which the freeze does not make
redundant: at the default of 700, slides set off 1,803 passes on the
closure-insert benchmark at seed 42 and 1,622 on chain-churn, and median
``run_stream`` CPU over 5 alternating rounds rose from 1.70 to 1.87 s and
from 4.59 to 5.15 s (2-vCPU host); with both, no workload sets off any.
Both are safe because the per-tuple path allocates no reference cycles:
reference counting alone frees what a watermark expires, frozen or not.
The run unfreezes everything when it returns or raises, but only if
nothing was frozen when it began, so that a caller's own freeze is kept;
see ``run_stream``.
"""

from __future__ import annotations

import gc
import itertools
import math
import time
from dataclasses import dataclass, field
from operator import attrgetter

from streamgraph import algebra
from streamgraph.automata import build_dfa
from streamgraph.model import EdgeEvent, StreamTuple
from streamgraph.operators import (
    CoalesceStage,
    FilterStage,
    PatternStage,
    UnionStage,
    WindowScan,
)
from streamgraph.pathop import PathStage


# generation-0 threshold (allocations between young collections) during
# run_stream; a caller's higher threshold is kept.  It bounds the passes
# that one step's allocations set off between two freezes.
GC_GEN0_THRESHOLD = 50_000


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
        # self.stage is looked up per call: tracing swaps it after compile
        outs = self.stage.on_tuple(port, t, now)
        if not outs:
            return
        if self.tap is not None:
            self.tap.extend(outs)
        parent = self.parent
        if parent is not None:
            for o in outs:
                parent.push(self.port, o, now)


class OutputSink:
    """Terminal stage: keeps the signed emission log.  Snapshots read the
    live keys of the ``root`` stage, which restores set semantics: the
    Coalesce, or a root Path with one accepting state."""

    def __init__(self, root: CoalesceStage | PathStage):
        self.log: list[StreamTuple] = []
        self.root = root

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        self.log.append(t)
        return []

    def on_watermark(self, w: int) -> None:
        pass

    def snapshot(self, t: int) -> set[tuple[str, str, str]]:
        return self.root.live_keys(t)

    def results(self) -> list[StreamTuple]:
        """Net results in (ts, src, trg, label, exp) order.  Stable sorts
        from the last field to the first give that order without building
        a key tuple per result."""
        out = net_results(self.log)
        for name in ("interval.end", "label", "trg", "src", "interval.start"):
            out.sort(key=attrgetter(name))
        return out


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
        self.sources: dict[str, list[PipeNode]] = {}
        self.nodes: list[PipeNode] = []
        self._last_watermark = float("-inf")
        windows = [(n.size, n.slide) for n in algebra.walk(plan)
                   if isinstance(n, algebra.Wscan) and n.size is not None]
        # the watermark step: every finite end is k * slide + size of
        # some window, or a min or max of such ends, so a multiple of it
        self.slide = math.gcd(*(v for w in windows for v in w)) or 1
        # the unit of the metrics' slides and latencies
        self.min_slide = min((slide for _size, slide in windows), default=1)
        self._ids = itertools.count(1)  # stage ids, for origins
        top = self._add(None, None, 0, "sink")
        dfa = build_dfa(plan.regex) if isinstance(plan, algebra.Path) else None
        if dfa is not None and len(dfa.accepting) == 1:
            # its results map one-to-one onto keys: it writes the log itself
            self._build(plan, top, 0, dfa, at_root=True)
        else:
            # a filter reads only the key, so root filters commute with
            # the Coalesce and compile below it, like any other filter
            coalesce = self._add(CoalesceStage(next(self._ids)), top, 0,
                                 f"coalesce {algebra.plan_label(plan)}")
            self._build(plan, coalesce, 0, dfa)
        self.sink = top.stage = OutputSink(self.nodes[1].stage)

    def _add(self, stage, parent: PipeNode | None, port: int, label: str) -> PipeNode:
        node = PipeNode(stage, parent, port, label)
        self.nodes.append(node)
        return node

    def _build(self, node, parent: PipeNode, port: int, dfa=None, at_root=False) -> None:
        """Compile ``node`` below ``parent``; a Path node uses ``dfa`` when
        one is given, and writes the log by key ``at_root``."""
        lbl = algebra.plan_label(node)
        if isinstance(node, algebra.Wscan):
            window = (math.inf, 1) if node.size is None else (node.size, node.slide)
            entry = self._add(WindowScan(*window), parent, port, f"wscan {lbl}")
            self.sources.setdefault(node.label, []).append(entry)
        elif isinstance(node, algebra.Filter):
            entry = self._add(FilterStage(node.predicate), parent, port, f"filter {lbl}")
            self._build(node.child, entry, 0)
        else:  # validate_plan admits no other kind of node
            kids = node.children
            if isinstance(node, algebra.Union):
                stage, kind = UnionStage(node.label), "union"
            elif isinstance(node, algebra.Pattern):
                stage, kind = PatternStage(len(kids), node.condition, node.label), "pattern"
            else:
                stage = PathStage(dfa or build_dfa(node.regex), node.label,
                                  next(self._ids), self.payload, at_root)
                kind = "path"
            entry = self._add(stage, parent, port, f"{kind} {lbl}")
            for i, kid in enumerate(kids):
                self._build(kid, entry, i)

    def tap(self, label: str) -> list[StreamTuple]:
        """Capture what the outermost stage of each occurrence of relation
        ``label`` emits.  At the root that is the written log, which the
        Coalesce or the root Path writes by key; below it, a key may be
        live under several origins, and ``net_results`` reads it so."""
        buf: list[StreamTuple] = []
        hits = [n for n in self.nodes[1:] if n.label.partition(" ")[2] == label
                != n.parent.label.partition(" ")[2]]
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
    processed, for each requested instant in ascending order.

    The collector's generation-0 threshold is at least
    ``GC_GEN0_THRESHOLD`` during the run, and every object live at a
    step boundary is frozen (``gc.freeze``), so that no collection walks
    the window state.  When the run ends or raises, the caller's
    thresholds are restored (a disabled collector stays disabled) and,
    if nothing was frozen when the run began, everything is unfrozen.  A
    caller that had frozen objects keeps everything frozen, what the run
    left alive included, until it calls ``gc.unfreeze`` itself.  Cycles
    that ``on_instant`` makes are frozen at the next step boundary and
    can only be collected after the run.
    """
    saved = gc.get_threshold()
    thaw = gc.get_freeze_count() == 0
    if saved[0]:  # a threshold of 0 disables collection: keep it so
        gc.set_threshold(max(saved[0], GC_GEN0_THRESHOLD), *saved[1:])
    before = gc.get_stats()
    try:
        m = _drive(pipeline, events, instants, on_instant)
    finally:
        gc.set_threshold(*saved)
        if thaw:
            gc.unfreeze()
    m.gc_collections = [
        a["collections"] - b["collections"] for b, a in zip(before, gc.get_stats())
    ]
    return m


def _drive(pipeline: Pipeline, events, instants, on_instant) -> Metrics:
    beta, sigma = pipeline.slide, pipeline.min_slide
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
            gc.freeze()  # no collection walks the state live now
            if boundary // sigma > wm // sigma:
                now_t = time.perf_counter()
                m.slide_latencies.append(now_t - last_mark)
                last_mark = now_t
            wm = boundary
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
            gc.freeze()
        # the last slide, cut short or not, ends at the final flush
        last = -(-final // sigma)
        if last > wm // sigma:
            m.slide_latencies.append(time.perf_counter() - last_mark)
        m.slides = int(last - base // sigma)
    m.elapsed = time.perf_counter() - t0
    m.emissions = len(pipeline.sink.log)
    return m


def compile_plan(plan, payload: str = "derived") -> Pipeline:
    return Pipeline(plan, payload=payload)
