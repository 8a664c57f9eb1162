"""Incremental physical operators over signed streams of graph tuples.

Every emission carries an internal `origin`, an opaque lineage token that
is stable across re-emissions of the same logical contribution.  A
negative tuple with origin o exactly cancels the latest positive with
origin o.  Operators therefore keep their state keyed by origin, which
makes deletion cascades and interval corrections purely mechanical:

    scan      origin = input event id; a deletion's is the id it undoes
    join      origin = tuple of child origins
    path      origin = (op, root, vertex, state)
    coalesce  origin = fresh per advertised interval

The join takes negative tuples through the same code as positive ones:
where a positive is stored, a negative removes the stored entry, and
either then probes the opposite side and cascades with its own sign.

Scans remember nothing.  A scan stamps every event, deletions included,
with the window of the event's own timestamp, so a deletion's interval
is not its insertion's; the coalesce stage behind every scan cancels a
retraction by key and origin alone and never reads that interval.

The coalesce stage restores set semantics after stateful operators: it
tracks one interval per upstream origin and (src, trg, label) key,
merges overlapping-or-adjacent contributions, and republishes the merged
intervals, retracting stale ones.  Contributions that fall inside an
already-advertised interval cause no downstream traffic.

Expiry is handled directly: probes skip and drop entries that can no
longer intersect new input, and every stateful stage files each entry it
stores in an ``ExpiryIndex`` under the entry's end, so a slide-boundary
watermark pops and re-checks only what expired instead of walking all
state.  Expired state vanishes silently, deletions emit negatives.
"""

from __future__ import annotations

import logging
from operator import attrgetter

from streamgraph.algebra import Comparison, JoinCondition, Pos
from streamgraph.model import (
    EdgeEvent,
    ExpiryIndex,
    Interval,
    StreamTuple,
    window_interval,
)

log = logging.getLogger(__name__)


class WindowScan:
    """Leaf stage: edges in, windowed signed tuples out; stateless (see
    the module docstring).  With size ``math.inf`` (and slide 1) it is a
    raw scan: intervals never end."""

    def __init__(self, size: float, slide: int):
        self.size = size
        self.slide = slide

    def on_tuple(self, port: int, e: EdgeEvent, now: int) -> list[StreamTuple]:
        return [
            StreamTuple(
                e.src, e.trg, e.label, window_interval(e.ts, self.size, self.slide),
                payload=((e.src, e.label, e.trg),), sign=e.sign,
                origin=e.uid if e.sign > 0 else e.ref,
            )
        ]

    def on_watermark(self, w: int) -> None:
        pass


def eval_predicate(t: StreamTuple, predicate: tuple[Comparison, ...]) -> bool:
    for c in predicate:
        lhs = getattr(t, c.lhs)
        rhs = getattr(t, c.rhs[1]) if c.rhs[0] == "attr" else c.rhs[1]
        ok = lhs == rhs if c.op == "=" else lhs != rhs
        if not ok:
            return False
    return True


class FilterStage:
    def __init__(self, predicate: tuple[Comparison, ...]):
        self.predicate = predicate

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        return [t] if eval_predicate(t, self.predicate) else []

    def on_watermark(self, w: int) -> None:
        pass


class UnionStage:
    """Merges any number of inputs under one label."""

    def __init__(self, label: str):
        self.label = label

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        if t.label == self.label:
            return [t]
        return [
            StreamTuple(
                t.src, t.trg, self.label, t.interval, t.payload, t.sign, origin=t.origin
            )
        ]

    def on_watermark(self, w: int) -> None:
        pass


def merge_contributions(entries):
    """Group (interval, payload) entries into maximal contiguous intervals.

    Returns [(hull, payload)] sorted by start; the payload of a group is
    the one of its widest contributor (largest exp, then largest ts, then
    first seen).
    """
    entries = sorted(enumerate(entries), key=lambda e: (e[1][0].start, e[1][0].end))
    groups: list[tuple[Interval, tuple]] = []
    best: tuple | None = None
    for idx, (iv, payload) in entries:
        if groups and groups[-1][0].overlaps_or_adjacent(iv):
            hull = groups[-1][0].hull(iv)
            if (iv.end, iv.start, -idx) > best[0]:
                best = ((iv.end, iv.start, -idx), payload)
            groups[-1] = (hull, best[1])
        else:
            best = ((iv.end, iv.start, -idx), payload)
            groups.append((iv, payload))
    return groups


class CoalesceStage:
    """Keeps at most one live advertised tuple per key and instant.

    Contributions are tracked per upstream origin; re-emission with the
    same origin replaces the old interval, a negative drops it.  The
    merged intervals are diffed against what was previously advertised,
    and only the difference is emitted (retract, then replace).  A key
    with at most one contribution and one advertisement, by far the
    common case, skips the merge: the two are compared directly.
    """

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.contribs: dict[tuple, dict[object, tuple[Interval, tuple]]] = {}
        self.advertised: dict[tuple, list[tuple[object, Interval, tuple]]] = {}
        # every advertised hull ends at some contribution's end, so keys
        # filed under their contributions' ends cover both tables
        self.expiry = ExpiryIndex()
        self.counter = 0

    def _fresh(self) -> tuple:
        self.counter += 1
        return ("c", self.op_id, self.counter)

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        key = t.key
        if t.sign > 0:
            self.contribs.setdefault(key, {})[t.origin] = (t.interval, t.payload)
            self.expiry.add(t.interval.end, key)
        elif self.contribs.get(key, {}).pop(t.origin, None) is None:
            log.warning("retraction for unknown contribution %r ignored", t.origin)
            return []
        return self._republish(key)

    def _republish(self, key: tuple) -> list[StreamTuple]:
        per_key = self.contribs.get(key)
        if not per_key:
            self.contribs.pop(key, None)
            per_key = {}
        old = self.advertised.get(key, ())
        src, trg, label = key
        if len(old) <= 1 and len(per_key) <= 1:
            # A lone contribution is its own merge: diff it against the
            # lone advertisement directly.
            want = next(iter(per_key.values())) if per_key else None
            out: list[StreamTuple] = []
            if old:
                origin, iv, payload = old[0]
                if want == (iv, payload):
                    return out
                out.append(StreamTuple(src, trg, label, iv, payload, -1, origin=origin))
            if want is None:
                self.advertised.pop(key, None)
            else:
                iv, payload = want
                origin = self._fresh()
                self.advertised[key] = [(origin, iv, payload)]
                out.append(StreamTuple(src, trg, label, iv, payload, 1, origin=origin))
            return out
        merged = merge_contributions(list(per_key.values()))
        wanted = {(iv, payload) for iv, payload in merged}
        out = []
        kept = []
        for origin, iv, payload in old:
            if (iv, payload) in wanted:
                wanted.discard((iv, payload))
                kept.append((origin, iv, payload))
            else:
                out.append(StreamTuple(src, trg, label, iv, payload, -1, origin=origin))
        for iv, payload in merged:
            if (iv, payload) in wanted:
                origin = self._fresh()
                kept.append((origin, iv, payload))
                out.append(StreamTuple(src, trg, label, iv, payload, 1, origin=origin))
        kept.sort(key=lambda e: e[1])
        if kept:
            self.advertised[key] = kept
        else:
            self.advertised.pop(key, None)
        return out

    def on_watermark(self, w: int) -> None:
        # Expired state disappears without emissions; only keys that own
        # an expired entry are re-filtered.
        for key in set(self.expiry.expired(w)):
            per_key = self.contribs.get(key)
            if per_key is not None:
                live = {o: e for o, e in per_key.items() if e[0].end > w}
                if live:
                    self.contribs[key] = live
                else:
                    del self.contribs[key]
            adverts = self.advertised.get(key)
            if adverts is not None:
                live = [e for e in adverts if e[1].end > w]
                if live:
                    self.advertised[key] = live
                else:
                    del self.advertised[key]


def pos_value(tuples: tuple[StreamTuple, ...], pos: Pos):
    t = tuples[pos.atom]
    return t.src if pos.field == "src" else t.trg


class Row:
    """A partial join result: one tuple per already-joined input."""

    __slots__ = ("tuples", "interval", "origins")

    def __init__(
        self, tuples: tuple[StreamTuple, ...], interval: Interval, origins: tuple
    ) -> None:
        self.tuples = tuples
        self.interval = interval
        self.origins = origins


class PatternStage:
    """Left-deep multiway symmetric hash join.

    Input i joins at level i against the table of rows spanning inputs
    0..i-1; every equality of the condition lands either on the single
    level where both its sides first meet or, for same-input equalities,
    on a per-port entry filter.  Output intervals are the intersection of
    all inputs (ts = max, exp = min) and must be non-empty.

    Both signs take one flow.  A tuple of input k > 0 is stored in (or,
    when negative, removed from) ``right[k]`` and probes ``left[k]``; a
    tuple of input 0 starts a row at level 1.  A row at level k is stored
    in or removed from ``left[k]``, probes ``right[k]`` and cascades every
    match to level k + 1, where a row over all n inputs is projected with
    the input's sign.  A negative of input k > 0 cascades with the tuple
    that was stored for it.
    """

    def __init__(self, n: int, condition: JoinCondition, label: str):
        self.n = n
        self.cond = condition
        self.label = label
        self.local: dict[int, list[tuple[str, str]]] = {}
        self.level_eqs: dict[int, list[tuple[Pos, str]]] = {i: [] for i in range(1, n)}
        for a, b in condition.equalities:
            if a.atom == b.atom:
                self.local.setdefault(a.atom, []).append((a.field, b.field))
            else:
                lo, hi = (a, b) if a.atom < b.atom else (b, a)
                self.level_eqs[hi.atom].append((lo, hi.field))
        self.right_key = {
            level: _fields_getter([f for _, f in eqs])
            for level, eqs in self.level_eqs.items()
        }
        # left[k]: rows over inputs 0..k-1; right[k]: tuples of input k
        self.left: dict[int, dict[tuple, dict[tuple, Row]]] = {
            k: {} for k in range(1, n)
        }
        self.right: dict[int, dict[tuple, dict[object, StreamTuple]]] = {
            k: {} for k in range(1, n)
        }
        # one hint (table, key, origin) per stored row or tuple
        self.expiry = ExpiryIndex()

    def _passes_local(self, port: int, t: StreamTuple) -> bool:
        for a, b in self.local.get(port, ()):
            if getattr(t, a) != getattr(t, b):
                return False
        return True

    def _left_key(self, level: int, tuples: tuple[StreamTuple, ...]) -> tuple:
        return tuple(pos_value(tuples, pos) for pos, _ in self.level_eqs[level])

    def _project(self, row: Row, sign: int) -> StreamTuple:
        payload = tuple(p for t in row.tuples for p in t.payload)
        return StreamTuple(
            pos_value(row.tuples, self.cond.out_src),
            pos_value(row.tuples, self.cond.out_trg),
            self.label,
            row.interval,
            payload,
            sign,
            origin=row.origins,
        )

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        if not self._passes_local(port, t):
            return []
        out: list[StreamTuple] = []
        if port == 0:
            self._row(1, Row((t,), t.interval, (t.origin,)), t.sign, now, out)
            return out
        key = self.right_key[port](t)
        table = self.right[port]
        sign = t.sign
        if sign > 0:
            table.setdefault(key, {})[t.origin] = t
            self.expiry.add(t.interval.end, (table, key, t.origin))
        else:
            stored = _discard(table, key, t.origin)
            if stored is None:
                log.warning("join deletion of absent tuple %r ignored", t.origin)
                return out
            t = stored  # the cascade continues with what was stored
        for row in _probe(self.left[port], key, now):
            self._extend(row, t, port, sign, now, out)
        return out

    def _row(self, level: int, row: Row, sign: int, now: int, out) -> None:
        """Store (sign > 0) or discard a row over inputs 0..level-1, then
        extend it by every live match of input ``level``."""
        if level == self.n:
            out.append(self._project(row, sign))
            return
        key = self._left_key(level, row.tuples)
        table = self.left[level]
        if sign > 0:
            table.setdefault(key, {})[row.origins] = row
            self.expiry.add(row.interval.end, (table, key, row.origins))
        elif _discard(table, key, row.origins) is None and level == 1:
            log.warning("join deletion of absent tuple %r ignored", row.origins)
            return
        for t in _probe(self.right[level], key, now):
            self._extend(row, t, level, sign, now, out)

    def _extend(
        self, row: Row, t: StreamTuple, level: int, sign: int, now: int, out
    ) -> None:
        iv = row.interval.intersect(t.interval)
        if iv is not None:
            bigger = Row(row.tuples + (t,), iv, row.origins + (t.origin,))
            self._row(level + 1, bigger, sign, now, out)

    def on_watermark(self, w: int) -> None:
        for table, key, origin in self.expiry.expired(w):
            entry = table.get(key, {}).get(origin)
            if entry is not None and entry.interval.end <= w:
                _discard(table, key, origin)


def _fields_getter(fields: list[str]):
    """Function from a tuple to the tuple of the named fields' values."""
    if len(fields) == 1:
        get = attrgetter(fields[0])
        return lambda t: (get(t),)
    return attrgetter(*fields) if fields else lambda t: ()


def _probe(table: dict, key: tuple, now: int) -> list:
    """The live entries of one join bucket; entries that can no longer
    match anything new are dropped on the way, and the bucket once empty."""
    bucket = table.get(key)
    if not bucket:
        return []
    for origin in [o for o, e in bucket.items() if e.interval.end <= now]:
        del bucket[origin]
    if not bucket:
        del table[key]
    return list(bucket.values())


def _discard(table: dict, key: tuple, origin):
    """Remove one join entry, and its bucket once empty; returns the
    entry, or None when it was absent."""
    bucket = table.get(key)
    if bucket is None:
        return None
    entry = bucket.pop(origin, None)
    if not bucket:
        del table[key]
    return entry
