from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamgraph.model import (
    EdgeEvent,
    ExpiryIndex,
    Interval,
    StreamTuple,
    window_interval,
)
from streamgraph.operators import Row


def _covered(iv: Interval, horizon: int = 64) -> set[int]:
    # Independent oracle: the set of integer instants an interval covers.
    return {t for t in range(horizon) if iv.start <= t < iv.end}


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(5, 5)
    with pytest.raises(ValueError):
        Interval(7, 3)


def test_intersect_basic():
    assert Interval(3, 9).intersect(Interval(7, 12)) == Interval(7, 9)
    assert Interval(3, 9).intersect(Interval(9, 12)) is None
    assert Interval(3, 9).intersect(Interval(12, 14)) is None


intervals = st.tuples(st.integers(0, 40), st.integers(1, 20)).map(
    lambda p: Interval(p[0], p[0] + p[1])
)


# record contract: the value semantics callers rely on, on slotted records


@given(intervals, intervals)
def test_interval_equality_hash_and_order_follow_start_then_end(a, b):
    pa, pb = (a.start, a.end), (b.start, b.end)
    assert (a == b) == (pa == pb)
    assert (a < b) == (pa < pb)
    assert (a <= b) == (pa <= pb)
    if a == b:
        assert hash(a) == hash(b)
    assert sorted([a, b]) == sorted([a, b], key=lambda iv: (iv.start, iv.end))


def test_interval_is_a_start_end_pair():
    iv = Interval(1, 5)
    assert iv == (1, 5)
    assert (iv.start, iv.end) == (1, 5)
    assert repr(iv) == "Interval(start=1, end=5)"
    assert repr(Interval(2, float("inf"))) == "Interval(start=2, end=inf)"


def test_stream_tuple_equality_and_hash_ignore_origin():
    a = StreamTuple("u", "v", "a", Interval(0, 5), (("u", "a", "v"),), 1, origin=1)
    b = StreamTuple("u", "v", "a", Interval(0, 5), (("u", "a", "v"),), 1, origin=2)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for other in (
        StreamTuple("u", "w", "a", Interval(0, 5), a.payload, 1),
        StreamTuple("u", "v", "b", Interval(0, 5), a.payload, 1),
        StreamTuple("u", "v", "a", Interval(0, 6), a.payload, 1),
        StreamTuple("u", "v", "a", Interval(0, 5), (), 1),
        StreamTuple("u", "v", "a", Interval(0, 5), a.payload, -1),
    ):
        assert a != other


def test_edge_event_equality_covers_every_field():
    e = EdgeEvent("u", "v", "a", 4, -1, 9, 2)
    assert e == EdgeEvent("u", "v", "a", 4, -1, 9, 2)
    assert hash(e) == hash(EdgeEvent("u", "v", "a", 4, sign=-1, uid=9, ref=2))
    assert EdgeEvent("u", "v", "a", 4) == EdgeEvent("u", "v", "a", 4, 1, 0, None)
    for i, changed in enumerate(["x", "x", "x", 5, 1, 8, 3]):
        fields = ["u", "v", "a", 4, -1, 9, 2]
        fields[i] = changed
        assert e != EdgeEvent(*fields)


@pytest.mark.parametrize("record", [
    Interval(0, 1),
    EdgeEvent("u", "v", "a", 0),
    StreamTuple("u", "v", "a", Interval(0, 1)),
    Row((), Interval(0, 1), ()),
], ids=lambda r: type(r).__name__)
def test_records_are_slotted(record):
    assert not hasattr(record, "__dict__")


@given(intervals, intervals)
def test_intersect_matches_pointwise_oracle(a, b):
    got = a.intersect(b)
    want = _covered(a) & _covered(b)
    assert (_covered(got) if got else set()) == want


def test_window_interval_formula():
    # Slide-aligned expiry: end = (ts // slide) * slide + size.
    assert window_interval(25, 24, 10) == Interval(25, 44)
    assert window_interval(13, 24, 1) == Interval(13, 37)
    assert window_interval(0, 10, 5) == Interval(0, 10)
    with pytest.raises(ValueError):
        window_interval(3, 4, 5)


@given(st.integers(0, 1000), st.integers(1, 50), st.integers(1, 50))
def test_window_interval_bounds(ts, size, slide):
    if size < slide:
        size = slide + size
    iv = window_interval(ts, size, slide)
    assert iv.start == ts
    # Expiry lands in (ts, ts + size] and is slide-aligned plus size.
    assert ts < iv.end <= ts + size
    assert (iv.end - size) % slide == 0


# expiry calendar


def test_expiry_index_pops_exactly_the_expired_items_in_end_then_insertion_order():
    idx = ExpiryIndex()
    for end, item in [(20, "a"), (10, "b"), (30, "c"), (10, "d"), (20, "e")]:
        idx.add(end, item)
    assert idx.expired(20) == ["b", "d", "a", "e"]
    assert len(idx) == 1
    assert idx.expired(20) == []
    assert idx.expired(30) == ["c"]
    assert len(idx) == 0


@given(st.lists(st.tuples(st.integers(0, 30), st.integers()), max_size=40),
       st.integers(-5, 35))
def test_expiry_index_matches_a_sorted_scan(entries, w):
    idx = ExpiryIndex()
    for end, item in entries:
        idx.add(end, item)
    # a stable sort by end keeps insertion order among equal ends
    want = [item for end, item in sorted(entries, key=lambda e: e[0]) if end <= w]
    assert idx.expired(w) == want
    assert len(idx) == len(entries) - len(want)


def test_expiry_index_never_stores_an_infinite_end():
    idx = ExpiryIndex()
    idx.add(float("inf"), "forever")
    idx.add(5, "soon")
    assert len(idx) == 1
    assert idx.expired(10 ** 9) == ["soon"]
    assert idx.expired(float("inf")) == []


def test_expiry_index_below_the_smallest_end_is_untouched():
    idx = ExpiryIndex()
    idx.add(10, "a")
    idx.add(15, "b")
    assert idx.expired(9) == []
    assert len(idx) == 2
    assert idx.expired(15) == ["a", "b"]
