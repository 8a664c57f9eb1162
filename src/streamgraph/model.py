"""Core data model for windowed graph streams.

The engine works over two kinds of records:

* ``EdgeEvent``: a raw input edge ``(src, trg, label)`` stamped with the time
  it arrived, optionally signed (``-1`` undoes a prior insertion).
* ``StreamTuple``: an edge or path fact annotated with a half-open validity
  interval ``[start, end)`` and a payload listing the input edges (or derived
  hops) that produced it.

A snapshot of a stream at instant ``t`` is the set of tuples whose interval
contains ``t``.  Two tuples are value-equivalent when they agree on
``(src, trg, label)``; set semantics are restored by coalescing the live
value-equivalent tuples, which all hold the current instant, into one tuple
spanning their hull.

Every tuple on the per-event path builds one or more of these records, so
they are slotted rather than dataclasses: ``Interval`` is a ``tuple``
subclass, whose equality, hashing and ``(start, end)`` ordering run in C, and
``EdgeEvent`` and ``StreamTuple`` are plain classes with ``__slots__`` whose
equality and hashing are spelled out.  Records are immutable by convention,
not enforced: no stage mutates a record after creating it, because later
stages, tables and output logs share it.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Hashable

Triple = tuple[str, str, str]  # (src, label, trg)


class Interval(tuple):
    """Half-open validity interval [start, end); end may be math.inf.

    As a tuple it equals, hashes and sorts like ``(start, end)``.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: float) -> Interval:
        if not start < end:
            raise ValueError(f"empty interval [{start}, {end})")
        return tuple.__new__(cls, (start, end))

    start = property(itemgetter(0))
    end = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"Interval(start={self[0]!r}, end={self[1]!r})"

    def contains(self, t: int) -> bool:
        return self.start <= t < self.end

    def intersect(self, other: Interval) -> Interval | None:
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        return Interval(start, end) if start < end else None


class _Record:
    """Equality, hashing and repr for a slotted record, over the values
    its ``_fields`` returns; records of different classes never compare
    equal."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class EdgeEvent(_Record):
    """One line of an input edge stream.

    ``uid`` is the event's position in the stream and doubles as its lineage
    id.  A deletion (``sign == -1``) carries the uid of the insertion it
    undoes in ``ref``; its own ``ts`` is the deletion time.  Events compare
    and hash on all of their fields.
    """

    __slots__ = ("src", "trg", "label", "ts", "sign", "uid", "ref")

    def __init__(
        self,
        src: str,
        trg: str,
        label: str,
        ts: int,
        sign: int = 1,
        uid: int = 0,
        ref: int | None = None,
    ) -> None:
        self.src = src
        self.trg = trg
        self.label = label
        self.ts = ts
        self.sign = sign
        self.uid = uid
        self.ref = ref

    def _fields(self) -> tuple:
        return (self.src, self.trg, self.label, self.ts, self.sign, self.uid, self.ref)


class StreamTuple(_Record):
    """A signed fact ``(src, trg, label)`` valid over ``interval``.

    ``origin`` names the derivation a later retraction must match; it is
    left out of equality and hashing, so two tuples with the same fact,
    interval, payload and sign are equal whatever produced them.
    """

    __slots__ = ("src", "trg", "label", "interval", "payload", "sign", "origin")

    def __init__(
        self,
        src: str,
        trg: str,
        label: str,
        interval: Interval,
        payload: tuple[Triple, ...] = (),
        sign: int = 1,
        origin: Hashable = None,
    ) -> None:
        self.src = src
        self.trg = trg
        self.label = label
        self.interval = interval
        self.payload = payload
        self.sign = sign
        self.origin = origin

    def _fields(self) -> tuple:
        return (self.src, self.trg, self.label, self.interval, self.payload, self.sign)

    @property
    def key(self) -> Triple:
        return (self.src, self.trg, self.label)

    @property
    def ts(self) -> int:
        return self.interval.start

    @property
    def exp(self) -> float:
        return self.interval.end


class ExpiryIndex:
    """Calendar of expiry hints keyed by end value.

    Window ends are slide-aligned, and derived intervals end at mins and
    maxes of them, so for one ``(size, slide)`` at most ``size/slide + 1``
    distinct finite ends are live at once.  A dict from end to the items
    ending there, plus a heap of the distinct ends, pops exactly the
    expired items: a purge costs O(expired), not O(state).

    Items are hints.  An owner adds one whenever it stores an entry and
    re-checks its own state before dropping anything, so entries that
    were deleted, re-emitted or extended since stay correct.
    """

    __slots__ = ("_slots", "_ends")

    def __init__(self) -> None:
        self._slots: dict[float, list] = {}
        self._ends: list[float] = []

    def add(self, end: float, item) -> None:
        slot = self._slots.get(end)
        if slot is not None:
            slot.append(item)
        elif end != math.inf:
            self._slots[end] = [item]
            heapq.heappush(self._ends, end)

    def expired(self, w: float) -> list:
        """Remove and return every item whose end is <= w, in end order
        and then insertion order."""
        out: list = []
        ends = self._ends
        while ends and ends[0] <= w:
            out.extend(self._slots.pop(heapq.heappop(ends)))
        return out

    def __len__(self) -> int:
        return sum(len(slot) for slot in self._slots.values())


def window_interval(ts: int, size: int, slide: int) -> Interval:
    """Validity interval assigned to an input edge arriving at ts.

    The edge is valid from its arrival until the window that starts with the
    slide containing it has fully passed: end = (ts // slide) * slide + size.
    """
    if not (size >= slide >= 1):
        raise ValueError(f"window size {size} must be >= slide {slide} >= 1")
    return Interval(ts, (ts // slide) * slide + size)
