"""Compilation and driver tests: plan wiring, watermark plumbing, the
social-network example end to end, and determinism."""

from __future__ import annotations

import gc
import math

import pytest

from streamgraph import algebra
from streamgraph.model import EdgeEvent, Interval, StreamTuple
from streamgraph.query import parse_query, to_plan
from streamgraph.runtime import (
    GC_GEN0_THRESHOLD,
    CompileError,
    Metrics,
    OutputSink,
    StreamOrderError,
    compile_plan,
    net_results,
    run_stream,
)
from streamgraph.streams import generate_synthetic

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
    (algebra.Window(algebra.Wscan("a"), 10, 2), (10, 2), 2),
    (algebra.Wscan("a"), (math.inf, 1), 1),
], ids=["windowed", "window", "raw"])
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
    plan = algebra.Window(algebra.Filter(algebra.Wscan("a"), pred), 10, 2)
    pipe = compile_plan(plan)
    assert [n.label for n in pipe.nodes] == [
        "sink", "coalesce a", "filter a", "wscan a",
    ]
    scan = pipe.nodes[3].stage
    assert (scan.size, scan.slide) == (10, 2)


def test_window_over_a_union_keeps_each_inputs_window():
    """The scans under the union stamp the window themselves, so a key
    that arrives again on another input stays live for the later
    window."""
    union = algebra.Union((algebra.Wscan("a"), algebra.Wscan("b")), "D")
    pipe = compile_plan(algebra.Window(union, 10, 2))
    run_stream(pipe, [EdgeEvent("x", "y", "a", 0, 1, 0), EdgeEvent("x", "y", "b", 5, 1, 1)])
    assert [val(t) for t in pipe.sink.results()] == [("x", "y", "D", 0, 14)]


@pytest.mark.parametrize("child", [
    algebra.Pattern((algebra.Wscan("a"),), algebra.JoinCondition(
        (), algebra.Pos(0, "src"), algebra.Pos(0, "trg")), "P"),
    algebra.Wscan("a", 10, 2),
], ids=["pattern", "windowed-scan"])
def test_window_over_anything_but_filters_unions_and_raw_scans_is_rejected(child):
    with pytest.raises(CompileError):
        compile_plan(algebra.Window(child, 10, 2))


def test_notify_plan_compiles_with_coalescing_behind_every_stateful_stage():
    pipe = notify_pipeline()
    labels = sorted(n.label for n in pipe.nodes)
    assert labels == sorted([
        "sink",
        "wscan likes", "coalesce likes",
        "wscan post", "coalesce post",
        "wscan post", "coalesce post",
        "wscan follows", "coalesce follows",
        "path FP", "coalesce FP",
        "pattern RL", "coalesce RL",
        "path RLP", "coalesce RLP",
        "pattern Answer", "coalesce Answer",
    ])
    assert {lbl: len(nodes) for lbl, nodes in pipe.sources.items()} == {
        "likes": 1, "post": 2, "follows": 1,
    }
    assert pipe.slide == 1


def test_slide_is_the_minimum_over_all_window_stages():
    plan = algebra.Pattern(
        children=(
            algebra.Window(algebra.Wscan("a"), 10, 4),
            algebra.Wscan("b", 12, 6),
        ),
        condition=algebra.JoinCondition(
            equalities=((algebra.Pos(0, "trg"), algebra.Pos(1, "src")),),
            out_src=algebra.Pos(0, "src"),
            out_trg=algebra.Pos(1, "trg"),
        ),
        label="J",
    )
    assert compile_plan(plan).slide == 4


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
    sink = OutputSink()
    sink.on_tuple(0, sgt("x", "y", "a", 0, 5, "o1"), 0)
    sink.on_tuple(0, sgt("u", "v", "a", 3, 9, "o2"), 3)
    assert sink.snapshot(4) == {("x", "y", "a"), ("u", "v", "a")}
    assert sink.snapshot(7) == {("u", "v", "a")}
    sink.on_watermark(5)  # drops the expired tuple from the live view
    assert sink.snapshot(4) == {("u", "v", "a")}
    assert {val(t) for t in sink.results()} == {
        ("x", "y", "a", 0, 5), ("u", "v", "a", 3, 9),
    }


# -------------------------------------------------------------------- driver


def test_running_example_end_to_end():
    pipe = notify_pipeline()
    rl, fp, rlp = pipe.tap("RL"), pipe.tap("FP"), pipe.tap("RLP")
    m = run_stream(pipe, events(PART_A))

    assert {val(t) for t in net_results(fp)} == {
        ("y", "u", "FP", 28, 52),
        ("u", "v", "FP", 29, 53),
        ("y", "v", "FP", 29, 52),
    }

    rl_net = {val(t): t.payload for t in net_results(rl)}
    assert rl_net == {
        ("y", "u", "RL", 28, 37): (
            ("y", "likes", "m1"), ("u", "post", "m1"), ("y", "follows", "u"),
        ),
        # two witnesses coalesce into one interval; the advertised payload
        # comes from the latest-starting contributor
        ("u", "v", "RL", 29, 31): (
            ("u", "likes", "c"), ("v", "post", "c"), ("u", "follows", "v"),
        ),
    }

    rlp_net = {val(t): t.payload for t in net_results(rlp)}
    assert set(rlp_net) == {
        ("y", "u", "RLP", 28, 37),
        ("u", "v", "RLP", 29, 31),
        ("y", "v", "RLP", 29, 31),
    }
    assert rlp_net[("y", "v", "RLP", 29, 31)] == (
        ("y", "RL", "u"), ("u", "RL", "v"),
    )

    assert {val(t) for t in pipe.sink.results()} == {
        ("y", "m1", "Answer", 28, 37),
        ("u", "b", "Answer", 29, 31),
        ("y", "b", "Answer", 29, 31),
        ("u", "c", "Answer", 30, 31),
        ("y", "c", "Answer", 30, 31),
    }

    assert m.events_in == 8
    assert m.emissions == 9
    assert m.slides == 23
    assert len(m.slide_latencies) == 6
    assert m.throughput > 0


def test_expanded_payloads_flatten_paths_to_base_edges():
    pipe = notify_pipeline(payload="expanded")
    rlp = pipe.tap("RLP")
    run_stream(pipe, events(PART_A))
    by_val = {val(t): t.payload for t in net_results(rlp)}
    assert by_val[("y", "v", "RLP", 29, 31)] == (
        ("y", "likes", "m1"), ("u", "post", "m1"), ("y", "follows", "u"),
        ("u", "likes", "c"), ("v", "post", "c"), ("u", "follows", "v"),
    )


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
    plan = algebra.Window(algebra.Wscan("a"), 10, 2)
    pipe = compile_plan(plan)
    run_stream(pipe, [
        EdgeEvent("x", "y", "a", 3, 1, 0),
        EdgeEvent("x", "y", "a", 9, -1, 1, ref=0),
    ])
    assert pipe.sink.results() == []


@pytest.mark.parametrize("plan", [
    algebra.Wscan("a", 10, 2),
    algebra.Window(algebra.Wscan("a"), 10, 2),
], ids=["windowed", "raw"])
def test_unknown_deletion_is_a_no_op(plan):
    pipe = compile_plan(plan)
    run_stream(pipe, [
        EdgeEvent("x", "y", "a", 3, 1, 0),
        EdgeEvent("q", "r", "a", 4, -1, 1, ref=99),
    ])
    assert [val(t) for t in pipe.sink.results()] == [("x", "y", "a", 3, 12)]


def test_slide_count_covers_the_stream_span():
    pipe = compile_plan(algebra.Wscan("a", 10, 5))
    m = run_stream(pipe, [
        EdgeEvent("x", "y", "a", 0, 1, 0),
        EdgeEvent("x", "z", "a", 9, 1, 1),
    ])
    # base boundary 0, crossing at 5, end flush at 10
    assert m.slides == 2
    assert len(m.slide_latencies) == 2


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


@pytest.mark.parametrize("caller", [
    pytest.param(lambda: None, id="default"),
    pytest.param(lambda: gc.set_threshold(2 * GC_GEN0_THRESHOLD, 3, 4), id="higher"),
    pytest.param(lambda: gc.set_threshold(0, 10, 10), id="threshold-0"),
    pytest.param(gc.disable, id="disabled"),
])
def test_run_restores_the_callers_collector_state(caller):
    """run_stream raises the generation-0 threshold for its own run only:
    after a normal run and after a raising stage, the caller's thresholds
    and enabled flag are back; a higher threshold, a threshold of 0 and
    a disabled collector are left as the caller set them."""
    saved = gc.get_threshold(), gc.isenabled()
    try:
        caller()
        expect = gc.get_threshold(), gc.isenabled()
        seen = []
        evs = events([("x", "y", "a", 1), ("y", "z", "a", 2)])
        pipe = compile_plan(to_plan(parse_query("Answer(x, y) <- a+(x, y)", window=10, slide=5)))
        m = run_stream(pipe, evs, instants=[1],
                       on_instant=lambda t: seen.append(gc.get_threshold()))
        assert (gc.get_threshold(), gc.isenabled()) == expect
        gen0 = expect[0][0] and max(expect[0][0], GC_GEN0_THRESHOLD)
        assert seen == [(gen0, *expect[0][1:])]
        assert len(m.gc_collections) == len(gc.get_stats())
        with pytest.raises(RuntimeError, match="stage failed"):
            run_stream(_closure_pipeline_failing_with(RuntimeError("stage failed")), evs)
        assert (gc.get_threshold(), gc.isenabled()) == expect
    finally:
        gc.set_threshold(*saved[0])
        if saved[1]:
            gc.enable()


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
