"""Incremental physical operators over signed streams of graph tuples.

Every emission carries an internal `origin`, an opaque lineage token that
is stable across re-emissions of the same logical contribution.  A
negative tuple with origin o exactly cancels the latest positive with
origin o.  Operators therefore keep their state keyed by origin, which
makes deletion cascades and interval corrections purely mechanical:

    scan      origin = input event id; a deletion's is the id it undoes
    union     origin = (input port, child origin)
    join      origin = tuple of child origins
    path      origin = (op, root, vertex, state); at the root, fresh per run
    coalesce  origin = fresh per run of a key, kept across replacements

The join takes negative tuples through the same code as positive ones:
where a positive is stored, a negative removes the stored entry, and
either then probes the opposite side and cascades with its own sign.
A positive under a stored origin replaces the entry and re-emits every
row through it: all stored entries hold now, so no row's interval empties.

Scans remember nothing.  A scan stamps every event, deletions included,
with the window of the event's own timestamp, so a deletion's interval
is not its insertion's; the stages above cancel it by origin.

The coalesce stage restores set semantics at the plan's root, unless a
root path does (see pathop.py): it tracks one interval per upstream
origin and (src, trg, label) key, and advertises one tuple per key, the
hull of the key's live contributions, which all hold the current
instant.  A new hull or payload is advertised under the origin of the
line it replaces, so a ``+`` in the written log replaces its key's live
line and a ``-`` means the key is no longer an answer; a contribution
that changes neither causes no downstream traffic.

Expiry is handled directly: every stateful stage files each entry it
stores in an ``ExpiryIndex`` under the entry's end, so a watermark pops
and re-checks only what expired instead of walking all state.  The
driver purges at every instant an interval can end (see runtime.py), so
no stage meets an ended entry outside its purge, and a join probe is a
plain bucket read.  Expired state vanishes silently, deletions emit
negatives.
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
    """Merges any number of inputs under one label, tagging each origin
    with its port: two inputs may use one origin for different tuples."""

    def __init__(self, label: str):
        self.label = label

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        return [StreamTuple(t.src, t.trg, self.label, t.interval, t.payload, t.sign,
                            origin=(port, t.origin))]

    def on_watermark(self, w: int) -> None:
        pass


class CoalesceStage:
    """Keeps one live advertised tuple per key.

    Contributions are tracked per upstream origin; re-emission with the
    same origin replaces the old interval, a negative drops it.  Every
    live contribution of a key holds ``now`` (runtime.py's stage
    contract), so together they span one interval: their hull ``[min
    start, max end)``, advertised with the payload of the widest
    contributor (largest end, then largest start, then first stored).
    A hull or payload that differs from the advertised one replaces it
    under the same origin, from the earlier of the two starts, as the key
    was live throughout: a key draws a fresh origin only when a run of it
    starts, and is retracted only when its last contribution is gone.
    A positive for a key with no state is advertised at once, unfolded.
    """

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.contribs: dict[tuple, dict[object, tuple[Interval, tuple]]] = {}
        self.advertised: dict[tuple, tuple[object, Interval, tuple]] = {}
        # every advertised hull ends at some contribution's end, so keys
        # filed under their contributions' ends cover both tables
        self.expiry = ExpiryIndex()
        self.counter = 0

    def _fresh(self) -> tuple:
        self.counter += 1
        return ("c", self.op_id, self.counter)

    def state_size(self) -> int:
        """Contribution entries plus advertised keys."""
        return sum(map(len, self.contribs.values())) + len(self.advertised)

    def live_keys(self, t: int) -> set[tuple[str, str, str]]:
        """Keys whose advertisement holds instant t."""
        return {key for key, (_origin, iv, _payload) in self.advertised.items()
                if iv.contains(t)}

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        key = t.key
        if t.sign > 0:
            iv = t.interval
            self.expiry.add(iv.end, key)
            if key not in self.advertised:
                # a new run of the key: the contribution is advertised as it is
                self.contribs[key] = {t.origin: (iv, t.payload)}
                origin = self._fresh()
                self.advertised[key] = (origin, iv, t.payload)
                return [StreamTuple(*key, iv, t.payload, 1, origin=origin)]
            self.contribs[key][t.origin] = (iv, t.payload)
        elif self.contribs.get(key, {}).pop(t.origin, None) is None:
            log.warning("retraction for unknown contribution %r ignored", t.origin)
            return []
        return self._republish(key)

    def _republish(self, key: tuple) -> list[StreamTuple]:
        """Fold the key's contributions into one hull and diff it
        against the advertisement, which a key holds exactly while it
        holds contributions."""
        per_key = self.contribs[key]
        origin, old_iv, old_payload = self.advertised[key]
        if not per_key:  # the key's last contribution is gone
            del self.contribs[key], self.advertised[key]
            return [StreamTuple(*key, old_iv, old_payload, -1, origin=origin)]
        entries = iter(per_key.values())
        iv, payload = next(entries)
        start = min(iv.start, old_iv.start)  # the key was live all along
        for other, other_payload in entries:
            if other.start < start:
                start = other.start
            if other.end > iv.end or (other.end == iv.end and other.start > iv.start):
                iv, payload = other, other_payload
        if start != iv.start:
            iv = Interval(start, iv.end)
        if (iv, payload) == (old_iv, old_payload):
            return []
        self.advertised[key] = (origin, iv, payload)
        return [StreamTuple(*key, iv, payload, 1, origin=origin)]

    def on_watermark(self, w: int) -> None:
        # Expired state disappears without emissions; only keys that own
        # an expired entry are re-filtered.
        for key in set(self.expiry.expired(w)):
            advert = self.advertised.get(key)
            if advert is None:
                continue
            per_key = self.contribs[key]
            if advert[1].end <= w:  # the hull ends with the last contribution
                del self.contribs[key], self.advertised[key]
            elif len(per_key) > 1:  # a lone contribution ends with the hull
                self.contribs[key] = {o: e for o, e in per_key.items() if e[0].end > w}


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
            self._row(1, Row((t,), t.interval, (t.origin,)), t.sign, out)
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
        for row in list(self.left[port].get(key, {}).values()):
            self._extend(row, t, port, sign, out)
        return out

    def _row(self, level: int, row: Row, sign: int, out) -> None:
        """Store (sign > 0) or discard a row over inputs 0..level-1, then
        extend it by every match of input ``level``."""
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
        for t in list(self.right[level].get(key, {}).values()):
            self._extend(row, t, level, sign, out)

    def _extend(self, row: Row, t: StreamTuple, level: int, sign: int, out) -> None:
        iv = row.interval.intersect(t.interval)
        if iv is not None:
            bigger = Row(row.tuples + (t,), iv, row.origins + (t.origin,))
            self._row(level + 1, bigger, sign, out)

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
