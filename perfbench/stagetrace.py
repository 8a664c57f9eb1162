"""Per-stage tracing from outside the engine.

``Tracer`` swaps every node's stage of a compiled ``Pipeline`` for a
``TracedStage`` proxy.  ``PipeNode.push`` calls ``on_tuple`` and
then recurses into the parent itself, and ``PipeNode.watermark`` does the
same for ``on_watermark``, so the time inside either call is the stage's
own (exclusive) time; no child spans need subtracting.

Spans stay in memory: one per slide, holding per stage kind the self
time and counts accumulated during that slide.  Per-call spans are not
kept; a run makes close to a million calls.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from time import perf_counter


@dataclass
class Acc:
    """Self time and tuple counts of every stage instance of one kind."""

    pos_s: float = 0.0  # on_tuple with sign > 0
    neg_s: float = 0.0  # on_tuple with sign < 0
    watermark_s: float = 0.0
    in_pos: int = 0
    in_neg: int = 0
    out_pos: int = 0
    out_neg: int = 0
    state_max: int = 0

    @property
    def self_s(self) -> float:
        return self.pos_s + self.neg_s

    @property
    def total_s(self) -> float:
        return self.pos_s + self.neg_s + self.watermark_s

    def copy(self) -> Acc:
        return Acc(**{f.name: getattr(self, f.name) for f in fields(self)})

    def minus(self, other: Acc) -> Acc:
        """Time and counts accumulated since ``other`` was copied; a
        gauge has no difference, so ``state_max`` is left at 0."""
        return Acc(**{f.name: getattr(self, f.name) - getattr(other, f.name)
                      for f in fields(self) if f.name != "state_max"})


class TracedStage:
    """Proxy for one stage: forwards every call, times it, counts signs.

    Returns exactly what the wrapped stage returns.
    """

    def __init__(self, stage, acc: Acc):
        self.stage = stage
        self.acc = acc

    def on_tuple(self, port, t, now):
        t0 = perf_counter()
        outs = self.stage.on_tuple(port, t, now)
        dt = perf_counter() - t0
        acc = self.acc
        if t.sign > 0:
            acc.pos_s += dt
            acc.in_pos += 1
        else:
            acc.neg_s += dt
            acc.in_neg += 1
        for o in outs:
            if o.sign > 0:
                acc.out_pos += 1
            else:
                acc.out_neg += 1
        return outs

    def on_watermark(self, w):
        t0 = perf_counter()
        self.stage.on_watermark(w)
        self.acc.watermark_s += perf_counter() - t0

    def __getattr__(self, name):
        return getattr(self.stage, name)


def stage_kind(label: str) -> str:
    """Stage kind of a pipeline node: the first word of its label
    (``sink``, ``coalesce``, ``path``, ``pattern``, ``wscan``, ...)."""
    return label.split()[0]


def _entries(table) -> int:
    return sum(len(v) for v in table.values())


def state_size(stage) -> int:
    """Entries a stage holds.  Uses ``stage.state_size()`` when the stage
    has one; otherwise counts the tables known today, each looked up with
    a default so that a refactor removing one does not break the count."""
    if hasattr(stage, "state_size"):
        return stage.state_size()
    n = len(getattr(stage, "live", {}))  # WindowScan, OutputSink
    n += _entries(getattr(stage, "contribs", {}))  # CoalesceStage
    n += _entries(getattr(stage, "advertised", {}))
    for level in (*getattr(stage, "left", {}).values(),
                  *getattr(stage, "right", {}).values()):  # PatternStage
        n += _entries(level)
    n += tree_nodes(stage) + adj_edges(stage)  # PathStage
    return n


def tree_nodes(stage) -> int:
    return sum(len(t.nodes) for t in getattr(stage, "trees", {}).values())


def adj_edges(stage) -> int:
    return sum(_entries(per_src) for per_src in getattr(stage, "adj", {}).values())


class CountHandler(logging.Handler):
    """Counts warning records of one logger (ignored deletions and
    retractions); installed only in traced runs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@dataclass
class Slide:
    """Span of one slide: wall time from the previous watermark's end to
    this one's, minus oracle checks and gauges run inside it, with the
    per-kind self time and counts accumulated in it."""

    wall_s: float
    kinds: dict[str, Acc]

    @property
    def watermark_s(self) -> float:
        return sum(a.watermark_s for a in self.kinds.values())


class Tracer:
    """Wraps a compiled pipeline and records slide spans."""

    def __init__(self, pipe):
        self.kinds: dict[str, Acc] = {}
        self.stages: list[tuple[str, object]] = []
        for node in pipe.nodes:
            kind = stage_kind(node.label)
            acc = self.kinds.setdefault(kind, Acc())
            self.stages.append((kind, node.stage))
            node.stage = TracedStage(node.stage, acc)
        self.slides: list[Slide] = []
        self.tree_nodes_max = 0
        self.adj_edges_max = 0
        self.excluded_s = 0.0  # oracle and gauge time inside run_stream
        self._slide_excluded = 0.0
        self._last = None
        self._mark = {k: a.copy() for k, a in self.kinds.items()}
        inner = pipe.watermark

        def watermark(w):
            inner(w)
            self._close_slide()

        pipe.watermark = watermark

    def start(self) -> None:
        """Opens the first slide; call right before run_stream."""
        self._last = perf_counter()

    def _close_slide(self) -> None:
        now = perf_counter()
        kinds = {}
        for k, a in self.kinds.items():
            kinds[k] = a.minus(self._mark[k])
            self._mark[k] = a.copy()
        self.slides.append(Slide(now - self._last - self._slide_excluded, kinds))
        self._last = now
        self._slide_excluded = 0.0

    def excluded(self, fn) -> None:
        """Run ``fn`` (an oracle check) and read the state gauges, with
        their time kept out of every span."""
        t0 = perf_counter()
        fn()
        sizes: dict[str, int] = {}
        for kind, stage in self.stages:
            sizes[kind] = sizes.get(kind, 0) + state_size(stage)
        for kind, n in sizes.items():
            self.kinds[kind].state_max = max(self.kinds[kind].state_max, n)
        paths = [stage for kind, stage in self.stages if kind == "path"]
        self.tree_nodes_max = max(self.tree_nodes_max,
                                  sum(tree_nodes(s) for s in paths))
        self.adj_edges_max = max(self.adj_edges_max,
                                 sum(adj_edges(s) for s in paths))
        dt = perf_counter() - t0
        self.excluded_s += dt
        self._slide_excluded += dt

    def tail_watermark_share(self) -> float:
        """Share of the slowest 5% of slides' wall time spent in
        on_watermark."""
        if not self.slides:
            return 0.0
        n = -(-len(self.slides) * 5 // 100)
        tail = sorted(self.slides, key=lambda s: s.wall_s)[-n:]
        wall = sum(s.wall_s for s in tail)
        return sum(s.watermark_s for s in tail) / wall if wall > 0 else 0.0
