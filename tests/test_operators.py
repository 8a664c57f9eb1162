"""Unit tests for the signed-stream operators.

Join results are cross-checked against a nested-loop evaluation over the
operator's visible inputs; coalescing is checked against an independent
fold of each key's live contributions.
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
)
from streamgraph.runtime import net_results


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


def test_union_tags_each_origin_with_its_input_port():
    """Two inputs may use one origin for different tuples: the outputs
    stay apart, relabeled with their payloads kept, and a negative
    cancels only its own input's tuple."""
    u = UnionStage("D")
    [a] = u.on_tuple(0, sgt("a", "b", "x", 0, 5, origin=("o", 1)), 0)
    [b] = u.on_tuple(1, sgt("a", "c", "y", 0, 5, origin=("o", 1)), 0)
    assert (a.label, b.label) == ("D", "D")
    assert (a.payload, b.payload) == ((("a", "x", "b"),), (("a", "y", "c"),))
    assert a.origin != b.origin
    [neg] = u.on_tuple(1, sgt("a", "c", "y", 0, 5, origin=("o", 1), sign=-1), 1)
    assert neg.origin == b.origin
    assert net_results([a, b, neg]) == [a]


# coalescing


def test_coalesce_absorbs_subset_contribution_silently():
    c = CoalesceStage(1)
    out1 = c.on_tuple(0, sgt("a", "b", "l", 29, 31, origin=1), 29)
    assert [(t.sign, t.ts, t.exp) for t in out1] == [(1, 29, 31)]
    # second contribution inside the advertised interval: no churn
    assert c.on_tuple(0, sgt("a", "b", "l", 30, 31, origin=2), 30) == []


def test_coalesce_extends_by_one_replacing_positive():
    """A wider hull is advertised as one positive under the origin of
    the line it replaces."""
    c = CoalesceStage(1)
    [first] = c.on_tuple(0, sgt("a", "b", "l", 10, 20, origin=1), 10)
    out = c.on_tuple(0, sgt("a", "b", "l", 15, 30, origin=2), 15)
    assert [(t.sign, t.ts, t.exp, t.origin) for t in out] == [(1, 10, 30, first.origin)]


def test_coalesce_reemission_with_same_origin_replaces():
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 10, 20, origin=1), 10)
    out = c.on_tuple(0, sgt("a", "b", "l", 10, 25, origin=1), 12)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(1, 10, 25)]


def test_coalesce_retraction_splits_merged_interval():
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1), 0)
    c.on_tuple(0, sgt("a", "b", "l", 8, 20, origin=2), 8)
    out = c.on_tuple(0, sgt("a", "b", "l", 8, 20, origin=2, sign=-1), 9)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(1, 0, 10)]
    # the key's last contribution gone: only now is the line retracted
    out = c.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1, sign=-1), 9)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(-1, 0, 10)]
    assert c.contribs == {} and c.advertised == {}


def test_coalesce_keeps_the_start_of_a_live_run():
    """A key live throughout keeps its line's start when the earliest
    contribution is gone, by expiry or by deletion: the next change
    replaces the line with one that starts where the run did."""
    c = CoalesceStage(1)
    c.on_tuple(0, sgt("a", "b", "l", 0, 10, origin=1), 0)
    c.on_tuple(0, sgt("a", "b", "l", 5, 20, origin=2), 5)
    c.on_watermark(10)
    out = c.on_tuple(0, sgt("a", "b", "l", 12, 25, origin=3), 12)
    assert [(t.sign, t.ts, t.exp) for t in out] == [(1, 0, 25)]
    # deleting an earlier contribution keeps the start too: nothing changes
    assert c.on_tuple(0, sgt("a", "b", "l", 5, 20, origin=2, sign=-1), 13) == []
    assert c.advertised[("a", "b", "l")][1] == Interval(0, 25)


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
    assert [(t.sign, t.ts, t.exp) for t in out] == []
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


def test_coalesce_payload_is_the_widest_contributors():
    """The hull carries the payload of the contributor with the largest
    end, then the largest start, then the one stored first."""
    c = CoalesceStage(1)

    def feed(start, end, origin, payload):
        t = StreamTuple("a", "b", "l", Interval(start, end), (payload,), 1, origin=origin)
        return [(o.sign, o.ts, o.exp, o.payload) for o in c.on_tuple(0, t, 5)]

    assert feed(0, 10, 1, "p") == [(1, 0, 10, ("p",))]
    # an equal end and a larger start: its payload, the hull's start
    assert feed(3, 10, 2, "q") == [(1, 0, 10, ("q",))]
    # an equal end and an equal start: the first stored keeps its payload
    assert feed(3, 10, 3, "r") == []
    # a larger end wins whatever its start
    assert feed(1, 12, 4, "s") == [(1, 0, 12, ("s",))]


def reference_fold(contribs, run_start=math.inf):
    """The one advertisement of a key, written from its live
    contributions and the start of the key's current run alone: their
    hull, from the run's start, with the payload of the widest (largest
    end, then largest start, then first stored); None when there are
    none."""
    if not contribs:
        return None
    entries = list(contribs.values())
    start = min(run_start, *(iv.start for iv, _ in entries))
    widest = max(range(len(entries)),
                 key=lambda i: (entries[i][0].end, entries[i][0].start, -i))
    iv, payload = entries[widest]
    return Interval(start, iv.end), payload


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6),
                          st.integers(1, 8), st.integers(0, 2)),
                min_size=1, max_size=12))
def test_coalesce_stage_net_matches_batch_merge(steps):
    """Contributions of up to three origins, fed one by one under the
    stage contract (now never decreases, every end <= now is purged
    before the next input, and a positive holds now), net out after
    every step to the one-shot fold of the live contributions, from the
    start of the key's run: the earliest start since it last had none."""
    c = CoalesceStage(1)
    contribs, live, run_start = {}, {}, math.inf
    now = 0
    for i, (advance, back, ahead, origin) in enumerate(steps):
        if advance:
            now += advance
            c.on_watermark(now)
            contribs = {o: e for o, e in contribs.items() if e[0].end > now}
            live = {o: t for o, t in live.items() if t.exp > now}
            if not contribs:
                run_start = math.inf
        iv, payload = Interval(max(0, now - back), now + ahead), (f"p{i}",)
        contribs[origin] = (iv, payload)
        run_start = min(run_start, iv.start)
        for o in c.on_tuple(0, StreamTuple("a", "b", "l", iv, payload, 1, origin=origin), now):
            if o.sign > 0:
                live[o.origin] = o
            else:
                live.pop(o.origin)
        assert [(t.interval, t.payload) for t in live.values()] == [
            reference_fold(contribs, run_start)]


def reference_republish(contribs, advertised):
    """The diff of one key, written from reference_fold alone: nothing
    when the fold is the advertisement, a retraction of the
    advertisement when there is no fold, else the fold, which replaces
    any advertisement and starts no later than it.  Returns the
    emissions as (sign, interval, payload) and the new advertisement."""
    want = reference_fold(contribs, math.inf if advertised is None else advertised[0].start)
    if want == advertised:
        return [], advertised
    return [(-1, *advertised) if want is None else (1, *want)], want


def test_coalesce_single_key_matches_reference_republish():
    """Random re-emissions, retractions and purges over one key with 0-3
    contributors, under the stage contract: now never decreases, every
    end <= now is purged before the next input, and a positive holds
    now.  Both the lone and the multi-contribution fold run; every step
    emits what the reference emits, a positive replaces the line of its
    origin, and each negative cancels the live advertisement it names.
    One origin serves each run of the key."""
    key = ("a", "b", "l")
    folds = 0
    for trial in range(200):
        rng = random.Random(trial)
        c = CoalesceStage(1)
        contribs, advertised, live = {}, None, {}
        now = 0
        for _ in range(40):
            roll = rng.random()
            if roll < 0.1:
                now += rng.randint(1, 4)
                c.on_watermark(now)
                contribs = {o: e for o, e in contribs.items() if e[0].end > now}
                if advertised is not None and advertised[0].end <= now:
                    advertised = None
                live = {o: e for o, e in live.items() if e[0].end > now}
                continue
            if roll < 0.4 and contribs:
                origin = rng.choice(sorted(contribs))
                del contribs[origin]
                iv, payload = Interval(now, now + 1), ()  # ignored by a negative
                sign = -1
            else:
                origin = rng.choice([o for o in range(3) if len(contribs) < 3
                                     or o in contribs])
                iv = Interval(max(0, now - rng.randint(0, 6)), now + rng.randint(1, 5))
                payload = (rng.choice("pq"),)
                contribs[origin] = (iv, payload)
                sign = 1
            folds += len(contribs) > 1
            t = StreamTuple(*key, iv, payload, sign, origin=origin)
            got = c.on_tuple(0, t, now)
            want, advertised = reference_republish(contribs, advertised)
            assert [(o.sign, o.interval, o.payload) for o in got] == want, trial
            for o in got:
                if o.sign > 0:
                    live[o.origin] = (o.interval, o.payload)
                else:
                    assert live.pop(o.origin) == (o.interval, o.payload)
            assert list(live.values()) == ([] if advertised is None else [advertised])
    assert folds > 0


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
    _apply(net, j1.on_tuple(1, sgt("b", "x", "m", 1, 20, origin=9, sign=-1), 5))
    base: dict = {}
    for port, t in keep:
        _apply(base, j2.on_tuple(port, t, t.ts))
    assert {(t.key, t.interval) for t in net.values()} == {
        (t.key, t.interval) for t in base.values()
    }
    assert _live_rows(j1) == _live_rows(j2)


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
    # dense inputs (1-4 tuples per input over two vertices, starts 0-3),
    # so that most 3-input scenarios reach a full match and most
    # deletions retract one
    verts = ["a", "b"]
    inputs, deletes = [], []
    origin = itertools.count()
    for i in range(n):
        k = draw(st.integers(1, 4))
        batch = []
        for _ in range(k):
            s, t = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
            ts = draw(st.integers(0, 3))
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
        + [(d, 1, port, sgt(t.src, t.trg, t.label, t.ts, t.exp, t.origin, sign=-1))
           for d, port, t in deletes],
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
