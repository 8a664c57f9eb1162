"""Reading, writing and generating edge streams.

Input streams are plain text, one record per line:

    src trg label ts        insert an edge at time ts
    src trg label ts -      delete the most recent live insertion of
                            (src, trg, label); ts is the deletion time

The trailing sign is optional and defaults to ``+``.  Timestamps must
be non-decreasing; ``#`` starts a comment.  Result streams lead with
the sign and append the validity interval and the witness path:

    sign src trg label ts exp payload

where exp may be ``inf`` and payload is ``src:label:trg`` hops joined
by ``;`` (``-`` when empty).
"""

from __future__ import annotations

import random
import sys
from typing import Iterable, TextIO

from streamgraph.model import EdgeEvent, StreamTuple


class StreamFormatError(ValueError):
    pass


def read_edge_stream(lines: Iterable[str]) -> list[EdgeEvent]:
    events: list[EdgeEvent] = []
    open_edges: dict[tuple[str, str, str], list[int]] = {}
    prev_ts: int | None = None
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 4:
            sign = "+"
        elif len(parts) == 5 and parts[4] in ("+", "-"):
            sign = parts[4]
            parts = parts[:4]
        else:
            raise StreamFormatError(
                f"line {ln}: expected 'src trg label ts [+|-]', got {raw.strip()!r}"
            )
        src, trg, label, ts_s = parts
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
        src, trg, label = sys.intern(src), sys.intern(trg), sys.intern(label)
        uid = len(events)
        key = (src, trg, label)
        if sign == "+":
            events.append(EdgeEvent(src, trg, label, ts, 1, uid))
            open_edges.setdefault(key, []).append(uid)
        else:
            stack = open_edges.get(key)
            if not stack:
                raise StreamFormatError(
                    f"line {ln}: deletion of {src} {trg} {label} "
                    "matches no live insertion"
                )
            ref = stack.pop()
            events.append(EdgeEvent(src, trg, label, ts, -1, uid, ref))
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
    if vertices < 2:
        raise ValueError("need at least two vertices")
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
