"""Unit tests for the signed-stream operators.

Join results are cross-checked against a nested-loop evaluation over the
operator's visible inputs; coalescing is checked against independently
merged interval sets.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamgraph.algebra import Comparison, JoinCondition, Pos
from streamgraph.model import EdgeEvent, Interval, StreamTuple
from streamgraph.operators import (
    CoalesceStage,
    FilterStage,
    PatternStage,
    UnionStage,
    WindowScan,
    merge_contributions,
)


def sgt(src, trg, label, ts, exp, origin, sign=1):
    return StreamTuple(
        src, trg, label, Interval(ts, exp), ((src, label, trg),), sign, origin=origin
    )


# window scan


def test_wscan_stamps_window_interval():
    ws = WindowScan(24, 10)
    [t] = ws.on_tuple(0, EdgeEvent("a", "b", "l", 25, 1, uid=3), 25)
    assert (t.ts, t.exp, t.sign) == (25, 44, 1)
    assert t.origin == 3
    assert t.payload == (("a", "l", "b"),)


@pytest.mark.parametrize("size, slide, want",
                         [(24, 10, (31, 54)), (math.inf, 1, (31, math.inf))],
                         ids=["windowed", "raw"])
def test_wscan_deletion_carries_its_own_window_and_the_insertions_origin(size, slide, want):
    ws = WindowScan(size, slide)
    ws.on_tuple(0, EdgeEvent("a", "b", "l", 25, 1, uid=3), 25)
    [neg] = ws.on_tuple(0, EdgeEvent("a", "b", "l", 31, -1, uid=4, ref=3), 31)
    assert (neg.ts, neg.exp, neg.sign) == (*want, -1)
    assert neg.origin == 3


# filter and union


def test_filter_evaluates_attribute_and_constant_comparisons():
    f = FilterStage(
        (Comparison("src", "!=", ("attr", "trg")), Comparison("label", "=", ("const", "l")))
    )
    keep = sgt("a", "b", "l", 0, 5, 1)
    assert f.on_tuple(0, keep, 0) == [keep]
    assert f.on_tuple(0, sgt("a", "a", "l", 0, 5, 2), 0) == []
    assert f.on_tuple(0, sgt("a", "b", "m", 0, 5, 3), 0) == []


def test_filter_passes_negatives_matching_the_predicate():
    f = FilterStage((Comparison("label", "=", ("const", "l")),))
    neg = sgt("a", "b", "l", 0, 5, 1, sign=-1)
    assert f.on_tuple(0, neg, 0) == [neg]


def test_union_relabels_and_preserves_origin():
    u = UnionStage("D")
    [out] = u.on_tuple(1, sgt("a", "b", "x", 0, 5, origin=("o", 1)), 0)
    assert out.label == "D"
    assert out.origin == ("o", 1)
    assert out.payload == (("a", "x", "b"),)


# coalescing


def test_merge_contributions_groups_touching_intervals():
    got = merge_contributions(
        [
            (Interval(1, 4), ("p1",)),
            (Interval(4, 6), ("p2",)),
            (Interval(9, 12), ("p3",)),
        ]
    )
    assert [g[0] for g in got] == [Interval(1, 6), Interval(9, 12)]
    # widest contributor (largest end) keeps its payload
    assert got[0][1] == ("p2",)


def test_coalesce_absorbs_subset_contribution_silently():
    c = CoalesceStage(1)
    out1 = c.on_tuple(0, sgt("a", "b", "l", 29, 31, origin=1), 29)
    assert [(t.sign, t.ts, t.exp) for t in out1] == [(1, 29, 31)]
    # second contribution inside the advertised interval: no churn
    assert c.on_tuple(0, sgt("a", "b", "l", 30, 31, origin=2), 30) == []


def test_coalesce_extends_by_retract_then_replace():
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 10, 20, origin=1), 10)
    out = c.on_tuple(0, sgt("a", "b", "l", 15, 30, origin=2), 15)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(-1, 10, 20), (1, 10, 30)]


def test_coalesce_reemission_with_same_origin_replaces():
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 10, 20, origin=1), 10)
    out = c.on_tuple(0, sgt("a", "b", "l", 10, 25, origin=1), 12)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(-1, 10, 20), (1, 10, 25)]


def test_coalesce_retraction_splits_merged_interval():
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1), 0)
    c.on_tuple(0, sgt("a", "b", "l", 8, 20, origin=2), 8)
    out = c.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1, sign=-1), 9)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(-1, 0, 20), (1, 8, 20)]


@pytest.mark.parametrize("start, end", [(10, 20), (31, 41), (0, 1)])
def test_coalesce_cancels_a_retraction_by_key_and_origin_alone(start, end):
    """Whatever interval a retraction carries, it undoes the contribution
    of its key and origin; a scan relies on this for its deletions."""
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 10, 20, origin=1), 10)
    c.on_tuple(0, sgt("a", "b", "l", 12, 22, origin=2), 12)
    # same origin under another key cancels nothing
    assert c.on_tuple(0, sgt("a", "c", "l", start, end, origin=1, sign=-1), 15) == []
    out = c.on_tuple(0, sgt("a", "b", "l", start, end, origin=1, sign=-1), 15)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(-1, 10, 22), (1, 12, 22)]
    assert list(c.contribs[("a", "b", "l")]) == [2]


def test_coalesce_drops_expired_state_silently():
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1), 0)
    c.on_watermark(10)
    assert c.contribs == {} and c.advertised == {}
    # a fresh contribution re-advertises from scratch
    out = c.on_tuple(0, sgt("a", "b", "l", 12, 20, origin=2), 12)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(1, 12, 20)]


def test_coalesce_watermark_leaves_unexpired_keys_untouched():
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1), 0)
    c.on_tuple(0, sgt("c", "d", "l", 0, 20, origin=2), 0)
    contribs = c.contribs[("c", "d", "l")]
    advertised = c.advertised[("c", "d", "l")]
    c.on_watermark(10)
    assert list(c.contribs) == [("c", "d", "l")]
    assert list(c.advertised) == [("c", "d", "l")]
    # the other key's state is the same objects, not rebuilt
    assert c.contribs[("c", "d", "l")] is contribs
    assert c.advertised[("c", "d", "l")] is advertised


def test_coalesce_keys_are_independent():
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1), 0)
    out = c.on_tuple(0, sgt("a", "c", "l", 5, 15, origin=2), 5)
    assert [(t.sign, t.key) for t in out] == [(1, ("a", "c", "l"))]


@st.composite
def interval_batches(draw):
    n = draw(st.integers(1, 8))
    out = []
    for i in range(n):
        start = draw(st.integers(0, 30))
        end = start + draw(st.integers(1, 15))
        out.append((Interval(start, end), (f"p{i}",)))
    return out


@settings(max_examples=100, deadline=None)
@given(interval_batches())
def test_merge_contributions_is_disjoint_and_covers(entries):
    got = merge_contributions(entries)
    # pairwise disjoint and not even adjacent, in ascending order
    for (a, _), (b, _) in itertools.pairwise(got):
        assert a.end < b.start
    # exact cover of the input points
    want = {p for iv, _ in entries for p in range(iv.start, int(iv.end))}
    have = {p for iv, _ in got for p in range(iv.start, int(iv.end))}
    assert want == have


@settings(max_examples=60, deadline=None)
@given(interval_batches(), st.permutations(range(8)))
def test_coalesce_stage_net_matches_batch_merge(entries, order):
    """Feeding contributions one by one, in any order of distinct origins,
    nets out to the same advertised set as a one-shot merge."""
    c = CoalesceStage(1)
    live = {}
    seq = [entries[i % len(entries)] for i in order[: len(entries)]]
    for i, (iv, payload) in enumerate(seq):
        t = StreamTuple("a", "b", "l", iv, payload, 1, origin=i)
        for o in c.on_tuple(0, t, iv.start):
            if o.sign > 0:
                live[o.origin] = o
            else:
                live.pop(o.origin)
    want = {iv for iv, _ in merge_contributions(seq)}
    assert {t.interval for t in live.values()} == want


def reference_republish(contribs, advertised):
    """The diff of one key, written from merge_contributions alone:
    retract each advertisement the merge no longer holds, in advertised
    order, then advertise each new group, in merged order.  Returns the
    emissions as (sign, interval, payload) and the new advertisements."""
    merged = merge_contributions(list(contribs.values()))
    out, kept, wanted = [], [], list(merged)
    for entry in advertised:
        if entry in wanted:
            wanted.remove(entry)
            kept.append(entry)
        else:
            out.append((-1, *entry))
    for entry in merged:
        if entry in wanted:
            wanted.remove(entry)
            kept.append(entry)
            out.append((1, *entry))
    return out, sorted(kept)


def test_coalesce_single_key_matches_reference_republish():
    """Random re-emissions, retractions and watermarks over one key with
    0-3 contributors, so both the lone-contributor diff and the general
    merge run; every step emits what the reference emits, and each
    negative cancels the live advertisement it names."""
    key = ("a", "b", "l")
    for trial in range(200):
        rng = random.Random(trial)
        c = CoalesceStage(1)
        contribs, advertised, live = {}, [], {}
        w = 0
        for _ in range(40):
            roll = rng.random()
            if roll < 0.1:
                w += rng.randint(1, 4)
                c.on_watermark(w)
                contribs = {o: e for o, e in contribs.items() if e[0].end > w}
                advertised = [e for e in advertised if e[0].end > w]
                live = {o: e for o, e in live.items() if e[0].end > w}
                continue
            if roll < 0.4 and contribs:
                origin = rng.choice(sorted(contribs))
                del contribs[origin]
                iv, payload = Interval(w, w + 1), ()  # ignored by a negative
                sign = -1
            else:
                origin = rng.choice([o for o in range(3) if len(contribs) < 3
                                     or o in contribs])
                start = w + rng.randint(0, 6)
                iv = Interval(start, start + rng.randint(1, 5))
                payload = (rng.choice("pq"),)
                contribs[origin] = (iv, payload)
                sign = 1
            t = StreamTuple(*key, iv, payload, sign, origin=origin)
            got = c.on_tuple(0, t, w)
            want, advertised = reference_republish(contribs, advertised)
            assert [(o.sign, o.interval, o.payload) for o in got] == want, trial
            for o in got:
                if o.sign > 0:
                    live[o.origin] = (o.interval, o.payload)
                else:
                    assert live.pop(o.origin) == (o.interval, o.payload)
            assert sorted(live.values()) == advertised


# pattern join


def chain_condition(n):
    eqs = tuple(
        (Pos(i, "trg"), Pos(i + 1, "src")) for i in range(n - 1)
    )
    return JoinCondition(eqs, Pos(0, "src"), Pos(n - 1, "trg"))


def nested_loop_join(inputs: list[list[StreamTuple]], cond, label):
    """Reference: try every combination of currently live inputs; maps
    each match's origins to its (src, trg, interval)."""
    out = {}
    for combo in itertools.product(*inputs):
        ok = all(
            _val(combo, a) == _val(combo, b) for a, b in cond.equalities
        )
        if not ok:
            continue
        iv = combo[0].interval
        for t in combo[1:]:
            iv = iv.intersect(t.interval) if iv else None
        if iv is None:
            continue
        out[tuple(t.origin for t in combo)] = (
            _val(combo, cond.out_src), _val(combo, cond.out_trg), iv
        )
    return out


def _val(tuples, pos):
    t = tuples[pos.atom]
    return t.src if pos.field == "src" else t.trg


def test_join_output_interval_is_max_ts_min_exp():
    j = PatternStage(2, chain_condition(2), "J")
    assert j.on_tuple(0, sgt("a", "b", "l", 5, 20, origin=1), 5) == []
    [out] = j.on_tuple(1, sgt("b", "c", "m", 10, 15, origin=2), 10)
    assert (out.src, out.trg, out.label) == ("a", "c", "J")
    assert (out.ts, out.exp) == (10, 15)
    assert out.origin == (1, 2)
    assert out.payload == (("a", "l", "b"), ("b", "m", "c"))


def test_join_skips_disjoint_intervals():
    j = PatternStage(2, chain_condition(2), "J")
    j.on_tuple(0, sgt("a", "b", "l", 0, 5, origin=1), 0)
    assert j.on_tuple(1, sgt("b", "c", "m", 7, 9, origin=2), 7) == []


def test_join_same_input_equality_filters_at_entry():
    cond = JoinCondition(
        ((Pos(0, "src"), Pos(0, "trg")),), Pos(0, "src"), Pos(0, "trg")
    )
    j = PatternStage(1, cond, "J")
    assert j.on_tuple(0, sgt("a", "b", "l", 0, 5, origin=1), 0) == []
    [out] = j.on_tuple(0, sgt("a", "a", "l", 0, 5, origin=2), 0)
    assert (out.src, out.trg) == ("a", "a")


def test_single_input_projection_can_swap_endpoints():
    cond = JoinCondition((), Pos(0, "trg"), Pos(0, "src"))
    j = PatternStage(1, cond, "Rev")
    [out] = j.on_tuple(0, sgt("a", "b", "l", 0, 5, origin=1), 0)
    assert (out.src, out.trg, out.label) == ("b", "a", "Rev")


def test_join_delete_retracts_every_prior_match():
    j = PatternStage(2, chain_condition(2), "J")
    j.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1), 0)
    j.on_tuple(0, sgt("z", "b", "l", 1, 10, origin=2), 1)
    j.on_tuple(1, sgt("b", "c", "m", 2, 10, origin=3), 2)
    j.on_tuple(1, sgt("b", "d", "m", 3, 10, origin=4), 3)
    outs = j.on_tuple(1, sgt("b", "c", "m", 2, 10, origin=3, sign=-1), 4)
    assert sorted((t.sign, t.src, t.trg) for t in outs) == [
        (-1, "a", "c"),
        (-1, "z", "c"),
    ]
    # the deleted tuple no longer matches new arrivals
    outs = j.on_tuple(0, sgt("q", "b", "l", 5, 10, origin=5), 5)
    assert sorted((t.sign, t.src, t.trg) for t in outs) == [(1, "q", "d")]


def test_join_delete_leaves_no_empty_bucket_even_without_expiry():
    j = PatternStage(2, chain_condition(2), "J")
    inf = float("inf")
    j.on_tuple(0, sgt("a", "b", "l", 0, inf, origin=1), 0)
    j.on_tuple(1, sgt("b", "c", "m", 1, inf, origin=2), 1)
    j.on_tuple(0, sgt("a", "b", "l", 0, inf, origin=1, sign=-1), 2)
    j.on_tuple(1, sgt("b", "c", "m", 1, inf, origin=2, sign=-1), 3)
    assert j.left[1] == {} and j.right[1] == {}
    assert len(j.expiry) == 0


def test_join_delete_of_absent_tuple_is_noop():
    j = PatternStage(2, chain_condition(2), "J")
    assert j.on_tuple(1, sgt("b", "c", "m", 2, 10, origin=9, sign=-1), 2) == []


def _apply(net: dict, emissions) -> None:
    for o in emissions:
        if o.sign > 0:
            net[o.origin] = o
        else:
            net.pop(o.origin)


def _live_rows(stage):
    return {
        (side, level, key, origins)
        for side, tables in (("L", stage.left), ("R", stage.right))
        for level, buckets in tables.items()
        for key, bucket in buckets.items()
        for origins in bucket
    }


def test_join_insert_then_delete_equals_never_inserted():
    j1 = PatternStage(3, chain_condition(3), "J")
    j2 = PatternStage(3, chain_condition(3), "J")
    keep = [
        (0, sgt("a", "b", "l", 0, 20, origin=1)),
        (1, sgt("b", "c", "m", 1, 20, origin=2)),
        (2, sgt("c", "d", "n", 2, 20, origin=3)),
    ]
    extra = (1, sgt("b", "x", "m", 1, 20, origin=9))
    net: dict = {}
    for port, t in keep[:2] + [extra] + keep[2:]:
        _apply(net, j1.on_tuple(port, t, t.ts))
    _apply(net, j1.on_tuple(1, extra[1].negated(), 5))
    base: dict = {}
    for port, t in keep:
        _apply(base, j2.on_tuple(port, t, t.ts))
    assert {(t.key, t.interval) for t in net.values()} == {
        (t.key, t.interval) for t in base.values()
    }
    assert _live_rows(j1) == _live_rows(j2)


def test_join_probe_drops_expired_entries():
    j = PatternStage(2, chain_condition(2), "J")
    j.on_tuple(0, sgt("a", "b", "l", 0, 5, origin=1), 0)
    # probing at 6 skips and removes the expired row
    assert j.on_tuple(1, sgt("b", "c", "m", 6, 10, origin=2), 6) == []
    assert all(not bucket for bucket in j.left[1].values())


def test_join_watermark_purges_only_expired_state():
    j = PatternStage(2, chain_condition(2), "J")
    j.on_tuple(0, sgt("a", "b", "l", 0, 5, origin=1), 0)
    j.on_tuple(0, sgt("a", "b", "l", 0, 9, origin=2), 0)
    j.on_watermark(5)
    rows = [r for bucket in j.left[1].values() for r in bucket.values()]
    assert [r.origins for r in rows] == [(2,)]


class _UnwalkableBucket(dict):
    """A join bucket that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("watermark walked an unexpired bucket")

    items = values = keys = __iter__


def test_join_watermark_leaves_unexpired_keys_untouched():
    j = PatternStage(2, chain_condition(2), "J")
    j.on_tuple(0, sgt("a", "b", "l", 0, 5, origin=1), 0)
    j.on_tuple(0, sgt("a", "c", "l", 0, 9, origin=2), 0)
    kept = j.left[1][("c",)] = _UnwalkableBucket(j.left[1][("c",)])
    j.on_watermark(5)
    assert list(j.left[1].keys()) == [("c",)]
    assert j.left[1][("c",)] is kept
    assert len(kept) == 1


@st.composite
def join_scenarios(draw, deletions=False):
    """(n, inputs, deletes): n inputs of random tuples and, with
    ``deletions``, (time, port, tuple) deletions of some of them, from
    any port and at or after the insertion, expired or not."""
    n = draw(st.integers(1 if deletions else 2, 3))
    # with deletions, denser inputs, so that most of them retract matches
    verts = ["a", "b"] if deletions else ["a", "b", "c", "d"]
    inputs, deletes = [], []
    origin = itertools.count()
    for i in range(n):
        k = draw(st.integers(int(deletions), 4))
        batch = []
        for _ in range(k):
            s, t = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
            ts = draw(st.integers(0, 3 if deletions else 12))
            batch.append(
                sgt(s, t, f"l{i}", ts, ts + draw(st.integers(1, 10)), next(origin))
            )
            if deletions and draw(st.booleans()):
                deletes.append((ts + draw(st.integers(0, 10)), i, batch[-1]))
        inputs.append(batch)
    return n, inputs, deletes


@settings(max_examples=120, deadline=None)
@given(join_scenarios())
def test_join_matches_nested_loop_reference(scenario):
    n, inputs, _ = scenario
    cond = chain_condition(n)
    j = PatternStage(n, cond, "J")
    feed = sorted(
        ((port, t) for port, batch in enumerate(inputs) for t in batch),
        key=lambda e: e[1].ts,
    )
    got = set()
    for port, t in feed:
        for o in j.on_tuple(port, t, t.ts):
            assert o.sign > 0
            got.add((o.src, o.trg, o.interval))
    want = set(nested_loop_join(inputs, cond, "J").values())
    assert got == want


@settings(max_examples=300, deadline=None)
@given(join_scenarios(deletions=True))
def test_join_deletions_match_nested_loop_reference(scenario):
    """Replayed by origin, every retraction cancels a live prior
    positive, and the net result is the join of the surviving inputs,
    plus only results that had expired before one of their inputs was
    deleted: expiry is silent, so those are never retracted."""
    n, inputs, deletes = scenario
    cond = chain_condition(n)
    j = PatternStage(n, cond, "J")
    # insertions first at equal times, each event in drawing order
    feed = sorted(
        [(t.ts, 0, port, t) for port, batch in enumerate(inputs) for t in batch]
        + [(d, 1, port, t.negated()) for d, port, t in deletes],
        key=lambda e: e[:2],
    )
    net: dict = {}
    for now, _, port, t in feed:
        for o in j.on_tuple(port, t, now):
            if o.sign > 0:
                net[o.origin] = (o.src, o.trg, o.interval)
            else:
                assert net.pop(o.origin) == (o.src, o.trg, o.interval)
    deleted_at = {t.origin: d for d, _, t in deletes}
    survivors = [[t for t in batch if t.origin not in deleted_at] for batch in inputs]
    want = nested_loop_join(survivors, cond, "J")
    assert {o: v for o, v in net.items() if o in want} == want
    for origins, (_, _, iv) in net.items():
        if origins not in want:
            assert any(iv.end <= deleted_at.get(o, -1) for o in origins)
