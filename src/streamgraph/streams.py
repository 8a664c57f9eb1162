"""Reading, writing and generating edge streams.

Input streams are plain text, one record per line:

    src trg label ts        insert an edge at time ts
    src trg label ts -      delete the most recent live insertion of
                            (src, trg, label); ts is the deletion time

The trailing sign is optional and defaults to ``+``.  Timestamps must
be non-decreasing; ``#`` starts a comment.  An insert-only stream is
read without per-key state: the first deletion line builds the stacks
of live insertions per ``(src, trg, label)`` from the insertions read
so far, and they are kept from then on.  Result streams lead with
the sign and append the validity interval and the witness path:

    sign src trg label ts exp payload

where exp may be ``inf`` and payload is ``src:label:trg`` hops joined
by ``;`` (``-`` when empty).
"""

from __future__ import annotations

import math
import random
import sys
from typing import Iterable, TextIO

from streamgraph.model import EdgeEvent, StreamTuple


class StreamFormatError(ValueError):
    pass


def read_edge_stream(lines: Iterable[str]) -> list[EdgeEvent]:
    events: list[EdgeEvent] = []
    # per-key stacks of live insertion uids; built at the first deletion
    open_edges: dict[tuple[str, str, str], list[int]] | None = None
    prev_ts: int | None = None
    intern = sys.intern
    for ln, raw in enumerate(lines, start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        n = len(parts)
        if n == 4:
            src, trg, label, ts_s = parts
            sign = "+"
        elif n == 5 and parts[4] in ("+", "-"):
            src, trg, label, ts_s, sign = parts
        elif n == 0:
            continue
        else:
            raise StreamFormatError(
                f"line {ln}: expected 'src trg label ts [+|-]', got {raw.strip()!r}"
            )
        try:
            ts = int(ts_s)
        except ValueError:
            raise StreamFormatError(f"line {ln}: bad timestamp {ts_s!r}") from None
        if prev_ts is not None and ts < prev_ts:
            raise StreamFormatError(
                f"line {ln}: timestamp {ts} decreases below {prev_ts}"
            )
        prev_ts = ts
        # interned names make tuple keys hash and compare fast
        src, trg, label = intern(src), intern(trg), intern(label)
        uid = len(events)
        if sign == "+":
            events.append(EdgeEvent(src, trg, label, ts, 1, uid))
            if open_edges is not None:
                open_edges.setdefault((src, trg, label), []).append(uid)
            continue
        if open_edges is None:
            # every event so far is an insertion, none of them undone
            open_edges = {}
            for e in events:
                open_edges.setdefault((e.src, e.trg, e.label), []).append(e.uid)
        stack = open_edges.get((src, trg, label))
        if not stack:
            raise StreamFormatError(
                f"line {ln}: deletion of {src} {trg} {label} "
                "matches no live insertion"
            )
        events.append(EdgeEvent(src, trg, label, ts, -1, uid, stack.pop()))
    return events


def write_edge_stream(events: Iterable[EdgeEvent], fh: TextIO) -> None:
    for e in events:
        mark = "" if e.sign > 0 else " -"
        fh.write(f"{e.src} {e.trg} {e.label} {e.ts}{mark}\n")


def format_result(t: StreamTuple) -> str:
    exp = "inf" if t.exp == float("inf") else str(int(t.exp))
    payload = ";".join(f"{s}:{l}:{d}" for s, l, d in t.payload) or "-"
    sign = "+" if t.sign > 0 else "-"
    return f"{sign} {t.src} {t.trg} {t.label} {t.ts} {exp} {payload}"


def write_result_stream(tuples: Iterable[StreamTuple], fh: TextIO) -> None:
    for t in tuples:
        fh.write(format_result(t) + "\n")


def generate_synthetic(
    vertices: int,
    edges: int,
    labels: tuple[str, ...] = ("a", "b", "c", "d"),
    rate: float = 1.0,
    cyclicity: float = 0.3,
    seed: int = 0,
) -> list[EdgeEvent]:
    """Random edge stream over string vertices v0..v{n-1}.

    One edge arrives every 1/rate time units.  Each edge leaves a random
    vertex; with probability ``cyclicity`` it points backwards (to a
    lower-numbered vertex), closing cycles, otherwise forwards.
    """
    if not isinstance(vertices, int) or vertices < 2:
        raise ValueError(f"vertices must be an integer >= 2, got {vertices!r}")
    if not isinstance(edges, int) or edges < 0:
        raise ValueError(f"edges must be an integer >= 0, got {edges!r}")
    if not isinstance(rate, (int, float)) or not (
            rate > 0 and math.isfinite((edges - 1) / rate)):
        raise ValueError(f"rate must be a number > 0 that keeps every "
                         f"timestamp finite, got {rate!r}")
    if not isinstance(cyclicity, (int, float)) or not 0 <= cyclicity <= 1:
        raise ValueError(f"cyclicity must be a number in [0, 1], got {cyclicity!r}")
    if not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not (isinstance(labels, (list, tuple)) and labels and all(
            isinstance(x, str) and "#" not in x and x.split() == [x] for x in labels)):
        raise ValueError("labels must be a non-empty list of names without "
                         f"whitespace or '#', got {labels!r}")
    rng = random.Random(seed)
    names = [sys.intern(f"v{i}") for i in range(vertices)]
    out: list[EdgeEvent] = []
    for i in range(edges):
        ts = int(i / rate)
        u = rng.randrange(vertices)
        back = rng.random() < cyclicity
        if u == 0:
            back = False
        elif u == vertices - 1:
            back = True
        v = rng.randrange(0, u) if back else rng.randrange(u + 1, vertices)
        out.append(
            EdgeEvent(names[u], names[v], rng.choice(labels), ts, 1, uid=i)
        )
    return out

