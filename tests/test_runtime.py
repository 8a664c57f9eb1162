"""Compilation and driver tests: plan wiring, watermark plumbing, the
social-network example end to end, and determinism."""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import example, given, strategies as st

from streamgraph import algebra
from streamgraph.automata import Alt, Concat, Plus, Sym, build_dfa
from streamgraph.model import EdgeEvent, Interval, StreamTuple
from streamgraph.operators import CoalesceStage, eval_predicate
from streamgraph.pathop import PathStage
from streamgraph.query import parse_query, to_plan
from streamgraph.runtime import (
    GC_GEN0_THRESHOLD,
    Metrics,
    StreamOrderError,
    compile_plan,
    net_results,
    run_stream,
)
from streamgraph.streams import generate_synthetic
from test_acceptance import TABLE_QUERIES

NOTIFY_QUERY = """
WINDOW 24 SLIDE 1
RL(u1, u2) <- likes(u1, m1), post(u2, m1), follows+(u1, u2) as FP
Answer(u, m) <- RL+(u, u2) as RLP, post(u2, m)
"""

PART_A = [
    ("u", "b", "likes", 7),
    ("u", "c", "likes", 7),
    ("v", "b", "post", 10),
    ("y", "m1", "likes", 13),
    ("u", "m1", "post", 14),
    ("y", "u", "follows", 28),
    ("u", "v", "follows", 29),
    ("v", "c", "post", 30),
]


def events(rows):
    return [EdgeEvent(s, t, l, ts, 1, i) for i, (s, t, l, ts) in enumerate(rows)]


def sgt(src, trg, label, ts, exp, origin, sign=1, payload=()):
    return StreamTuple(src, trg, label, Interval(ts, exp), payload, sign, origin)


def val(t):
    return (t.src, t.trg, t.label, t.ts, t.exp)


def notify_pipeline(**kw):
    return compile_plan(to_plan(parse_query(NOTIFY_QUERY)), **kw)


# ---------------------------------------------------------------- compilation


@pytest.mark.parametrize("plan, window, slide", [
    (algebra.Wscan("a", 10, 2), (10, 2), 2),
    (algebra.Wscan("a"), (math.inf, 1), 1),
], ids=["windowed", "raw"])
def test_single_windowed_scan_compiles_to_scan_coalesce_sink(plan, window, slide):
    pipe = compile_plan(plan)
    assert [n.label for n in pipe.nodes] == ["sink", "coalesce a", "wscan a"]
    assert pipe.nodes[2].parent is pipe.nodes[1]
    assert pipe.nodes[1].parent is pipe.nodes[0]
    scan = pipe.nodes[2].stage
    assert (scan.size, scan.slide) == window
    assert pipe.slide == slide


def test_window_compiles_into_the_scan_beneath_its_filter():
    pred = (algebra.Comparison("src", "=", ("const", "x")),)
    pipe = compile_plan(algebra.Filter(algebra.Wscan("a", 10, 2), pred))
    assert [n.label for n in pipe.nodes] == [
        "sink", "coalesce a", "filter a", "wscan a",
    ]
    scan = pipe.nodes[3].stage
    assert (scan.size, scan.slide) == (10, 2)


def test_window_over_a_union_keeps_each_inputs_window():
    """The scans under the union stamp the window themselves, so a key
    that arrives again on another input stays live for the later
    window."""
    union = algebra.Union((algebra.Wscan("a", 10, 2), algebra.Wscan("b", 10, 2)), "D")
    pipe = compile_plan(union)
    run_stream(pipe, [EdgeEvent("x", "y", "a", 0, 1, 0), EdgeEvent("x", "y", "b", 5, 1, 1)])
    assert [val(t) for t in pipe.sink.results()] == [("x", "y", "D", 0, 14)]


def test_notify_plan_compiles_one_coalesce_at_its_root():
    pipe = notify_pipeline()
    labels = sorted(n.label for n in pipe.nodes)
    assert labels == sorted([
        "sink", "coalesce Answer",
        "wscan likes", "wscan post", "wscan post", "wscan follows",
        "path FP", "pattern RL", "path RLP", "pattern Answer",
    ])
    assert {lbl: len(nodes) for lbl, nodes in pipe.sources.items()} == {
        "likes": 1, "post": 2, "follows": 1,
    }
    assert pipe.slide == 1


def _catalog_variants():
    """Every ``enumerate_plans(..., 2)`` variant of the catalog shapes,
    and one plan with a filter left at its root."""
    for name, text in TABLE_QUERIES.items():
        plan = to_plan(parse_query(text, window=40, slide=5))
        for variant in sorted(algebra.enumerate_plans(plan, 2), key=algebra.render_plan):
            yield name, variant
    not_q = (algebra.Comparison("src", "!=", ("const", "q")),)
    yield "root filter", algebra.Filter(algebra.Wscan("a", 10, 2), not_q)


def test_every_plan_compiles_one_set_semantics_stage_below_the_sink():
    """Set semantics are restored once, at the root: exactly one stage
    sits directly below the sink, with the plan's root filters compiled
    beneath it, and the sink reads its live keys.  It is the plan's root
    Path when that Path's automaton has one accepting state, so that its
    results map one-to-one onto keys; otherwise it is the only
    CoalesceStage.  Every other Path writes node-addressed results."""
    seen = {"coalesce": 0, "path": 0}
    for name, plan in _catalog_variants():
        pipe = compile_plan(plan)
        where = (name, algebra.render_plan(plan))
        [top] = [n for n in pipe.nodes if n.parent is pipe.nodes[0]]
        assert pipe.sink.root is top.stage, where
        coalesces = [n for n in pipe.nodes if isinstance(n.stage, CoalesceStage)]
        at_root = [n for n in pipe.nodes
                   if isinstance(n.stage, PathStage) and n.stage.at_root]
        if isinstance(plan, algebra.Path) and len(build_dfa(plan.regex).accepting) == 1:
            assert isinstance(top.stage, PathStage) and top.stage.at_root, where
            assert top.label == f"path {plan.label}" and coalesces == [], where
            assert at_root == [top], where
            seen["path"] += 1
        else:
            assert coalesces == [top] and at_root == [], where
            seen["coalesce"] += 1
    assert sum(seen.values()) > len(TABLE_QUERIES) + 1 and min(seen.values()) > 2, seen


def test_a_root_path_with_several_accepting_states_keeps_the_coalesce():
    """Two accepting states can give one key twice, under two origins:
    only a Coalesce restores set semantics there."""
    plan = algebra.Path((algebra.Wscan("a", 10, 2), algebra.Wscan("b", 10, 2)),
                        Alt((Sym("a"), Concat((Sym("a"), Sym("b"))))), "P")
    assert len(build_dfa(plan.regex).accepting) == 2
    pipe = compile_plan(plan)
    assert [n.label for n in pipe.nodes[:3]] == ["sink", "coalesce P", "path P"]
    assert pipe.sink.root is pipe.nodes[1].stage
    assert not pipe.nodes[2].stage.at_root


@pytest.mark.parametrize("plan", [None, object()], ids=["none", "object"])
def test_compiling_anything_but_a_plan_node_is_a_plan_error(plan):
    with pytest.raises(algebra.PlanError, match="not a plan node"):
        compile_plan(plan)


@pytest.mark.parametrize("plan", [
    algebra.Filter(algebra.Wscan("a", 10, 1),
                   (algebra.Comparison("src", "~", ("const", "x")),)),
    algebra.Filter(algebra.Wscan("a", 10, 1),
                   (algebra.Comparison("src", "=", ("lit", "x")),)),
    algebra.Path((algebra.Wscan("a", 10, 1),), "a+", "D"),
    algebra.Wscan("a", None, 5),
    algebra.Wscan("a", True, True),
    algebra.Wscan("a", 10.0, 5),
    algebra.Path((algebra.Wscan("a", 10.5, 1),), Plus(Sym("a")), "P"),
    algebra.Path((algebra.Wscan("a", 10, 2.5),), Plus(Sym("a")), "P"),
    algebra.Path((algebra.Wscan("a", 10, 1),), Concat((Sym("a"),)), "P"),
    algebra.Path((algebra.Wscan("a", 10, 1),), Alt((Sym("a"),)), "P"),
], ids=["filter-op", "filter-rhs-kind", "path-regex-string", "unwindowed-slide",
        "bool-window", "float-size", "float-size-below-path", "float-slide-below-path",
        "one-part-concat", "one-part-alt"])
def test_compiling_a_malformed_comparison_or_regex_is_a_plan_error(plan):
    """A comparison operator other than = and !=, an rhs kind other than
    attr and const, and a path regex that is not a regex tree are all
    rejected, rather than read as != , as a constant, or crashing.  So
    are plans that would render like a different plan: a slide without
    a window, a window size or slide that is not an int (a bool prints
    as True, a float as 10.0, and neither divides a gcd), and a one-part
    Concat or Alt, which prints as its part."""
    with pytest.raises(algebra.PlanError):
        compile_plan(plan)


def _physical(pipe):
    """The compiled pipeline as data: per node, its label, stage type,
    scan window, filter predicate and parent's index."""
    index = {id(n): i for i, n in enumerate(pipe.nodes)}
    return tuple(
        (n.label, type(n.stage).__name__,
         (getattr(n.stage, "size", None), getattr(n.stage, "slide", None)),
         getattr(n.stage, "predicate", None), index.get(id(n.parent)))
        for n in pipe.nodes)


def test_plan_enumeration_yields_no_physical_duplicates():
    """Every rewrite changes what is compiled: the
    ``enumerate_plans(..., 2)`` variants of each catalog shape compile
    to pairwise different pipelines."""
    for name, text in TABLE_QUERIES.items():
        plan = to_plan(parse_query(text, window=40, slide=5))
        variants = algebra.enumerate_plans(plan, 2)
        compiled = {_physical(compile_plan(v)) for v in variants}
        assert len(compiled) == len(variants), name


@pytest.mark.parametrize("a, b, step", [
    ((10, 4), (12, 6), 2),
    ((12, 4), (18, 6), 2),
    ((20, 5), (30, 10), 5),
], ids=["gcd-below-the-slides", "multiples-of-their-slides", "gcd-is-the-smallest-slide"])
def test_slide_is_the_gcd_of_every_window_size_and_slide(a, b, step):
    """Every finite end is a multiple of the step, so it is purged at the
    instant it ends.  The step is the smallest slide only where that
    slide divides every size and slide, even when each window is a
    multiple of its own slide; the metrics count the smallest slide."""
    plan = algebra.Pattern(
        children=(
            algebra.Wscan("a", *a),
            algebra.Wscan("b", *b),
        ),
        condition=algebra.JoinCondition(
            equalities=((algebra.Pos(0, "trg"), algebra.Pos(1, "src")),),
            out_src=algebra.Pos(0, "src"),
            out_trg=algebra.Pos(1, "trg"),
        ),
        label="J",
    )
    pipe = compile_plan(plan)
    assert (pipe.slide, pipe.min_slide) == (step, min(a[1], b[1]))


def test_tap_on_unknown_label_raises():
    pipe = notify_pipeline()
    with pytest.raises(KeyError):
        pipe.tap("nope")


# ------------------------------------------------------------------ plumbing


class _Recording:
    """Stage proxy that records the watermarks its stage is given."""

    def __init__(self, stage):
        self.stage = stage
        self.seen = []

    def on_tuple(self, port, t, now):
        return self.stage.on_tuple(port, t, now)

    def on_watermark(self, w):
        self.seen.append(w)
        self.stage.on_watermark(w)


def test_pipeline_watermark_reaches_every_stage_once():
    union = algebra.Union((algebra.Wscan("a", 10, 2), algebra.Wscan("b", 10, 2)), "D")
    cond = algebra.JoinCondition(
        ((algebra.Pos(0, "trg"), algebra.Pos(1, "src")),),
        algebra.Pos(0, "src"), algebra.Pos(1, "trg"),
    )
    plan = algebra.Pattern((union, algebra.Wscan("c", 10, 2)), cond, "J")
    pipe = compile_plan(plan)
    kinds = [n.label.split()[0] for n in pipe.nodes]
    assert kinds.count("pattern") == 1 and kinds.count("union") == 1
    # swapped after compile, as an outside tracer does
    for node in pipe.nodes:
        node.stage = _Recording(node.stage)
    pipe.watermark(5)
    assert [n.stage.seen for n in pipe.nodes] == [[5]] * len(pipe.nodes)


def test_pipeline_rejects_regressing_watermarks():
    pipe = compile_plan(algebra.Wscan("a", 10, 2))
    pipe.watermark(4)
    with pytest.raises(StreamOrderError):
        pipe.watermark(2)


def test_out_of_order_stream_is_rejected_with_the_offending_record():
    pipe = compile_plan(algebra.Wscan("a", 10, 2))
    bad = [
        EdgeEvent("x", "y", "a", 5, 1, 0),
        EdgeEvent("x", "z", "a", 3, 1, 1),
    ]
    with pytest.raises(
        StreamOrderError,
        match=r"out-of-order record at ts=3 after ts=5: \+1 x z a",
    ):
        run_stream(pipe, bad)


def test_net_results_replays_replacements_and_cancellations():
    out = net_results([
        sgt("x", "y", "a", 0, 5, "o1"),
        sgt("x", "y", "a", 0, 9, "o1"),  # same origin: replaces
        sgt("u", "v", "a", 1, 4, "o2"),
        sgt("u", "v", "a", 1, 4, "o2", sign=-1),  # cancels
    ])
    assert [val(t) for t in out] == [("x", "y", "a", 0, 9)]


def test_sink_snapshot_is_the_live_view_and_results_the_net_log():
    pipe = compile_plan(algebra.Wscan("a", 6, 1))
    sink = pipe.sink
    pipe.feed(EdgeEvent("x", "y", "a", 0, 1, 0))
    pipe.feed(EdgeEvent("u", "v", "a", 3, 1, 1))
    assert sink.snapshot(4) == {("x", "y", "a"), ("u", "v", "a")}
    assert sink.snapshot(7) == {("u", "v", "a")}
    pipe.watermark(6)  # drops the expired tuple from the live view
    assert sink.snapshot(4) == {("u", "v", "a")}
    assert {val(t) for t in sink.results()} == {
        ("x", "y", "a", 0, 6), ("u", "v", "a", 3, 9),
    }
    pipe.feed(EdgeEvent("u", "v", "a", 7, -1, 2, ref=1))
    assert sink.snapshot(7) == set()
    assert [val(t) for t in sink.results()] == [("x", "y", "a", 0, 6)]


def test_coalesce_state_size_is_contributions_plus_advertised_keys():
    """After a run, each Coalesce's state_size() counts one per stored
    contribution and one per advertised key."""
    q = parse_query("Answer(x, y) <- a(x, m), b+(m, y)", window=40, slide=5)
    pipe = compile_plan(to_plan(q))
    run_stream(pipe, generate_synthetic(12, 300, labels=("a", "b"), seed=3))
    stages = [n.stage for n in pipe.nodes if isinstance(n.stage, CoalesceStage)]
    held = [sum(len(per_key) for per_key in s.contribs.values()) + len(s.advertised)
            for s in stages]
    assert [s.state_size() for s in stages] == held
    assert all(held)



TIED = [  # ties in ts, in key and in (ts, key), over two labels and two ends
    sgt("y", "x", "b", 1, 5, "o0"),
    sgt("x", "y", "b", 1, math.inf, "o1"),
    sgt("x", "y", "a", 1, 5, "o2"),
    sgt("x", "y", "b", 1, 5, "o3"),
    sgt("x", "y", "a", 0, math.inf, "o4"),
    sgt("x", "y", "a", 1, 5, "o5", payload=(("x", "a", "y"),)),
    sgt("y", "x", "a", 0, 5, "o6"),
    sgt("x", "y", "a", 1, math.inf, "o7"),
]


@example(log=TIED)
@given(st.lists(
    st.builds(sgt, st.sampled_from("xy"), st.sampled_from("xy"),
              st.sampled_from("ab"), st.integers(0, 1),
              st.sampled_from([5, math.inf]), st.integers(0, 7),
              st.sampled_from([1, 1, -1])),
    max_size=30))
def test_results_order_equals_the_one_key_sort(log):
    """``results()`` sorts field by field; its order must equal one sort
    keyed on (ts, key, exp), full ties kept in log order."""
    sink = compile_plan(algebra.Wscan("a", 6, 1)).sink
    sink.log = list(log)
    want = sorted(net_results(log), key=lambda t: (t.ts, t.key, t.exp))
    got = sink.results()
    assert [(val(t), t.payload, t.origin) for t in got] == [
        (val(t), t.payload, t.origin) for t in want]

NOT_Q = (algebra.Comparison("src", "!=", ("const", "q")),)
NOT_Y = (algebra.Comparison("trg", "!=", ("const", "y")),)


@pytest.mark.parametrize("predicates", [(NOT_Q,), (NOT_Q, NOT_Y)],
                         ids=["filter", "filter-chain"])
def test_root_filter_snapshot_equals_its_hoisted_form(predicates):
    """A plan's root filters shape its live set: at every instant its
    snapshot equals the unfiltered plan's with the predicates applied
    on top, and the predicates drop keys that plan holds."""
    unfiltered = plan = algebra.Wscan("a", 10, 2)
    for pred in predicates:
        plan = algebra.Filter(plan, pred)
    verts = ["q", "x", "y", "z"]
    stream, live = [], []
    for i in range(120):
        if i % 5 == 4 and live:
            ref = live.pop(0)
            stream.append(EdgeEvent(verts[ref % 4], verts[ref % 3], "a", i, -1, i, ref=ref))
        else:
            live.append(i)
            stream.append(EdgeEvent(verts[i % 4], verts[i % 3], "a", i, 1, i))
    instants = list(range(120))
    snaps = []
    for p in (plan, unfiltered):
        pipe = compile_plan(p)
        got = []
        run_stream(pipe, stream, instants,
                   on_instant=lambda t: got.append(pipe.sink.snapshot(t)))
        snaps.append(got)
    kept = lambda key: all(eval_predicate(StreamTuple(*key, Interval(0, 1)), pred)
                           for pred in predicates)
    assert snaps[0] == [{k for k in snap if kept(k)} for snap in snaps[1]]
    assert any(snaps[0]) and snaps[0] != snaps[1]


# -------------------------------------------------------------------- driver


def live_by_key(stream):
    """Per key of a tapped stream, the (ts, exp, payload) of each of its
    net results: a tap is not coalesced, so one key may be live under
    several origins."""
    out = {}
    for t in net_results(stream):
        out.setdefault((t.src, t.trg, t.label), set()).add((t.ts, t.exp, t.payload))
    return out


def test_running_example_end_to_end():
    pipe = notify_pipeline()
    rl, fp, rlp = pipe.tap("RL"), pipe.tap("FP"), pipe.tap("RLP")
    m = run_stream(pipe, events(PART_A))

    assert {k: {iv[:2] for iv in v} for k, v in live_by_key(fp).items()} == {
        ("y", "u", "FP"): {(28, 52)},
        ("u", "v", "FP"): {(29, 53)},
        ("y", "v", "FP"): {(29, 52)},
    }

    # u -> v has two witnesses, one per post u likes, each live under
    # its own join origin
    assert live_by_key(rl) == {
        ("y", "u", "RL"): {(28, 37, (
            ("y", "likes", "m1"), ("u", "post", "m1"), ("y", "follows", "u"),
        ))},
        ("u", "v", "RL"): {
            (29, 31, (("u", "likes", "b"), ("v", "post", "b"), ("u", "follows", "v"))),
            (30, 31, (("u", "likes", "c"), ("v", "post", "c"), ("u", "follows", "v"))),
        },
    }

    # the path keeps one node per pair: the first, widest witness
    assert live_by_key(rlp) == {
        ("y", "u", "RLP"): {(28, 37, (("y", "RL", "u"),))},
        ("u", "v", "RLP"): {(29, 31, (("u", "RL", "v"),))},
        ("y", "v", "RLP"): {(29, 31, (("y", "RL", "u"), ("u", "RL", "v")))},
    }

    assert {val(t) for t in pipe.sink.results()} == {
        ("y", "m1", "Answer", 28, 37),
        ("u", "b", "Answer", 29, 31),
        ("y", "b", "Answer", 29, 31),
        ("u", "c", "Answer", 30, 31),
        ("y", "c", "Answer", 30, 31),
    }

    # an insert-only stream writes no retraction
    assert m.events_in == 8
    assert m.emissions == 5
    assert m.slides == 23
    assert len(m.slide_latencies) == 6
    assert m.throughput > 0


def _rl_hops(payload):
    """The RL hops of an expanded RLP payload, checking each: likes(u1,
    m), post(u2, m), then a follows walk from u1 to u2."""
    hops, rest = [], list(payload)
    while rest:
        (u1, liked, m1), (u2, posted, m2), *rest = rest
        assert (liked, posted, m1) == ("likes", "post", m2), payload
        walk = []
        while rest and rest[0][1] == "follows":
            walk.append(rest.pop(0))
        assert walk and walk[0][0] == u1 and walk[-1][2] == u2, payload
        assert all(a[2] == b[0] for a, b in zip(walk, walk[1:])), payload
        hops.append((u1, u2))
    return hops


def test_expanded_payloads_flatten_paths_to_base_edges():
    """Every expanded RLP payload is a valid witness: a chain of RL
    witnesses from src to trg, each made of base edges live over the
    whole result interval.  Equally wide witnesses may differ, so no
    single one is required."""
    pipe = notify_pipeline(payload="expanded")
    rlp = pipe.tap("RLP")
    run_stream(pipe, events(PART_A))
    window = {(s, l, d): (ts, ts + 24) for s, d, l, ts in PART_A}
    results = net_results(rlp)
    assert {val(t) for t in results} == {
        ("y", "u", "RLP", 28, 37), ("u", "v", "RLP", 29, 31), ("y", "v", "RLP", 29, 31),
    }
    for t in results:
        hops = _rl_hops(t.payload)
        assert hops[0][0] == t.src and hops[-1][1] == t.trg, t
        assert all(a[1] == b[0] for a, b in zip(hops, hops[1:])), t
        for edge in t.payload:
            start, end = window[edge]
            assert start <= t.ts and t.exp <= end, (t, edge)
    [yv] = [t for t in results if (t.src, t.trg) == ("y", "v")]
    assert _rl_hops(yv.payload) == [("y", "u"), ("u", "v")]


def test_deletion_retracts_through_a_windowed_scan():
    pipe = compile_plan(algebra.Wscan("a", 10, 2))
    seen = []
    feed = [
        EdgeEvent("x", "y", "a", 3, 1, 0),
        EdgeEvent("x", "y", "a", 9, -1, 1, ref=0),
    ]
    run_stream(pipe, feed, instants=[5], on_instant=lambda t: seen.append(pipe.sink.snapshot(t)))
    assert seen == [{("x", "y", "a")}]
    assert pipe.sink.results() == []


def test_deletion_retracts_through_a_raw_scan_and_window():
    for plan in (algebra.Wscan("a"), algebra.Wscan("a", 10, 2)):
        pipe = compile_plan(plan)
        run_stream(pipe, [
            EdgeEvent("x", "y", "a", 3, 1, 0),
            EdgeEvent("x", "y", "a", 9, -1, 1, ref=0),
        ])
        assert pipe.sink.results() == []


@pytest.mark.parametrize("plan, end", [
    (algebra.Wscan("a", 10, 2), 12),
    (algebra.Wscan("a"), math.inf),
], ids=["windowed", "raw"])
def test_unknown_deletion_is_a_no_op(plan, end):
    pipe = compile_plan(plan)
    run_stream(pipe, [
        EdgeEvent("x", "y", "a", 3, 1, 0),
        EdgeEvent("q", "r", "a", 4, -1, 1, ref=99),
    ])
    assert [val(t) for t in pipe.sink.results()] == [("x", "y", "a", 3, end)]


def test_slide_count_covers_the_stream_span():
    pipe = compile_plan(algebra.Wscan("a", 10, 5))
    m = run_stream(pipe, [
        EdgeEvent("x", "y", "a", 0, 1, 0),
        EdgeEvent("x", "z", "a", 9, 1, 1),
    ])
    # base boundary 0, crossing at 5, end flush at 10
    assert m.slides == 2
    assert len(m.slide_latencies) == 2


def test_latencies_are_per_slide_not_per_purge_step():
    """At window 101 / slide 50 the driver purges every instant, but the
    metrics still count one slide and one latency per 50 instants."""
    evs = generate_synthetic(200, 2000, labels=("a",), rate=1.0, cyclicity=0.3, seed=42)
    runs = {}
    for window in (100, 101):
        q = parse_query("Answer(x, y) <- a+(x, y)", window=window, slide=50)
        pipe = compile_plan(to_plan(q))
        m = run_stream(pipe, evs)
        runs[window] = (pipe.slide, m.slides, len(m.slide_latencies))
    assert runs == {100: (50, 40, 40), 101: (1, 40, 40)}


def _closure_pipeline_failing_with(err):
    pipe = compile_plan(to_plan(parse_query("Answer(x, y) <- a+(x, y)", window=10, slide=5)))
    [path] = [n for n in pipe.nodes if n.label.startswith("path ")]

    def fail(port, t, now):
        raise err

    path.stage.on_tuple = fail
    return pipe


def test_failing_stage_error_reaches_the_caller():
    err = RuntimeError("stage failed")
    with pytest.raises(RuntimeError) as caught:
        run_stream(_closure_pipeline_failing_with(err),
                   events([("x", "y", "a", 1), ("y", "z", "a", 2)]))
    assert caught.value is err


class _Held:
    pass


def _cycle_holding(target) -> None:
    cycle = [target]
    cycle.append(cycle)


@pytest.mark.parametrize("caller", [
    pytest.param(lambda: None, id="default"),
    pytest.param(lambda: gc.set_threshold(2 * GC_GEN0_THRESHOLD, 3, 4), id="higher"),
    pytest.param(lambda: gc.set_threshold(0, 10, 10), id="threshold-0"),
    pytest.param(gc.disable, id="disabled"),
    pytest.param(gc.freeze, id="frozen"),
])
def test_run_restores_the_callers_collector_state(caller):
    """run_stream raises the generation-0 threshold and freezes for its
    own run only: after a normal run and after a stage that raises past
    a slide boundary, the caller's thresholds and enabled flag are back;
    a higher threshold, a threshold of 0 and a disabled collector are
    left as the caller set them.  With nothing frozen before the run,
    nothing is frozen after it; what the caller froze stays frozen."""
    saved = gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()
    held = _Held()
    _cycle_holding(held)
    ref = weakref.ref(held)
    del held
    try:
        caller()
        expect = gc.get_threshold(), gc.isenabled()
        frozen = gc.get_freeze_count()

        def assert_restored():
            assert (gc.get_threshold(), gc.isenabled()) == expect
            if frozen:
                assert gc.get_freeze_count() >= frozen
            else:
                assert gc.get_freeze_count() == 0

        seen = []
        evs = events([("x", "y", "a", 1), ("y", "z", "a", 2)])
        pipe = compile_plan(to_plan(parse_query("Answer(x, y) <- a+(x, y)", window=10, slide=5)))
        m = run_stream(pipe, evs, instants=[1],
                       on_instant=lambda t: seen.append(gc.get_threshold()))
        assert_restored()
        gen0 = expect[0][0] and max(expect[0][0], GC_GEN0_THRESHOLD)
        assert seen == [(gen0, *expect[0][1:])]
        assert len(m.gc_collections) == len(gc.get_stats())
        with pytest.raises(RuntimeError, match="stage failed"):
            run_stream(_closure_pipeline_failing_with(RuntimeError("stage failed")),
                       events([("x", "y", "b", 1), ("y", "z", "a", 7)]))
        assert_restored()
        gc.collect()
        assert (ref() is not None) == bool(frozen)
    finally:
        gc.set_threshold(*saved[0])
        if saved[1]:
            gc.enable()
        if not saved[2]:
            gc.unfreeze()


def test_run_sets_off_no_collection_and_thaws_what_it_froze():
    """Frozen at every slide boundary, the window state of a few thousand
    events sets off no collection.  Cycles that on_instant makes are
    frozen at the next boundary, and one collection reclaims them once
    the run returns."""
    refs, frozen = [], []

    def on_instant(t):
        frozen.append(gc.get_freeze_count())
        held = _Held()
        _cycle_holding(held)
        refs.append(weakref.ref(held))

    evs = generate_synthetic(200, 3000, labels=("a",), rate=1.0, cyclicity=0.3, seed=3)
    pipe = compile_plan(to_plan(parse_query("Answer(x, y) <- a+(x, y)", window=100, slide=10)))
    m = run_stream(pipe, evs, instants=list(range(0, 3000, 500)), on_instant=on_instant)
    assert m.slides == 300
    assert m.gc_collections == [0, 0, 0]
    assert frozen[0] == 0 and min(frozen[1:]) > 0
    assert all(r() is not None for r in refs)
    gc.collect()
    assert [r() for r in refs] == [None] * 6


def test_empty_stream_yields_zeroed_metrics():
    pipe = compile_plan(algebra.Wscan("a", 10, 5))
    m = run_stream(pipe, [])
    assert (m.events_in, m.emissions, m.slides) == (0, 0, 0)
    assert m.p99_slide_latency is None


def test_instants_fire_after_their_prefix_and_before_any_later_purge():
    pipe = compile_plan(algebra.Wscan("a", 5, 5))
    log = []
    run_stream(
        pipe,
        [EdgeEvent("x", "y", "a", 0, 1, 0), EdgeEvent("x", "z", "a", 7, 1, 1)],
        instants=[3, 6, 8, 20],
        on_instant=lambda t: log.append((t, pipe.sink.snapshot(t))),
    )
    assert log == [
        (3, {("x", "y", "a")}),
        (6, set()),
        (8, {("x", "z", "a")}),  # end-of-stream flush must not purge first
        (20, set()),
    ]


# ------------------------------------------------------------------- metrics


def test_p99_latency_uses_nearest_rank():
    assert Metrics(slide_latencies=[0.005]).p99_slide_latency == 0.005
    assert Metrics(slide_latencies=[0.3, 0.1, 0.2]).p99_slide_latency == 0.3
    hundred = [i / 1000 for i in range(1, 101)]
    assert Metrics(slide_latencies=hundred).p99_slide_latency == 0.099
    assert Metrics().p99_slide_latency is None


def test_throughput_guards_zero_elapsed():
    assert Metrics(events_in=10, elapsed=2.0).throughput == 5.0
    assert Metrics(events_in=10, elapsed=0.0).throughput is None


# --------------------------------------------------------------- determinism


def test_single_threaded_runs_are_deterministic():
    q = parse_query("Answer(x, y) <- a+(x, y)", window=10, slide=5)
    feed = generate_synthetic(10, 250, labels=("a", "b"), seed=7, cyclicity=0.4)
    logs = []
    for _ in range(2):
        pipe = compile_plan(to_plan(q))
        run_stream(pipe, feed)
        logs.append([(t.sign, val(t), t.payload) for t in pipe.sink.log])
    assert logs[0] == logs[1]
