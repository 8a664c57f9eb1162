"""Acceptance checks, one test per release criterion.

Each test pins one end-to-end property of the engine: the hand-traced
social-network example, snapshot reducibility against the reference
evaluator over the eight catalog query shapes, the widest-expiry tree
invariant against exhaustive path enumeration, equivalence of direct
expiry and synthesized expiry-deletions, explicit-deletion fuzzing,
plan-rewrite soundness, automaton correctness, a desk-scale performance
budget, set semantics of every coalesced stream, that expiry never
retracts a result, that all operator state drains once every tuple has
expired, that compiling and running a plan leaves no reference cycles,
and reproducible outputs
(independent of the string-hash seed, and pinned per catalog shape).
Time budgets are asserted inside the tests that carry one.

A module-wide hook (autouse fixture) patches the coalescing stage and
the output sink so that every test here also asserts the stage contract
on every coalescing input (a positive holds the instant it arrives at,
which is what lets the stage keep one advertisement per key) and the
written log's contract: no two live value-equivalent tuples with
overlapping intervals ever coexist in the output, a positive under a
held origin changes the line it replaces, and a negative names its
origin's live line.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

import streamgraph
from streamgraph import algebra, operators, runtime
from streamgraph.automata import Alt, Concat, Opt, Plus, Star, Sym, build_dfa
from streamgraph.cli import main as cli_main
from streamgraph.model import EdgeEvent, Interval, StreamTuple, window_interval
from streamgraph.oracle import answer_pairs, eval_query_at, replay_log, widest_validity
from streamgraph.pathop import PathStage
from streamgraph.query import parse_query, to_plan
from streamgraph.runtime import compile_plan, net_results, run_stream
from streamgraph.streams import format_result, generate_synthetic, write_edge_stream

INF = float("inf")

# the eight catalog query shapes over a four-label alphabet
TABLE_QUERIES = {
    "closure": "Answer(x, y) <- a+(x, y)",
    "step_closure": ("Answer(x, y) <- a(x, y)\n"
                     "Answer(x, y) <- a(x, m), b+(m, y)"),
    "union_closures": ("Answer(x, y) <- a(x, y)\n"
                       "Answer(x, y) <- a(x, m), b+(m, y)\n"
                       "Answer(x, y) <- a(x, m), c+(m, y)\n"
                       "Answer(x, y) <- a(x, m), b+(m, n), c+(n, y)"),
    "chain_closure": ("D(x, y) <- a(x, m1), b(m1, m2), c(m2, y)\n"
                      "Answer(x, y) <- D+(x, y) as DP"),
    "square": "Answer(m1, m2) <- a(x, y), b(m1, x), b(m2, y), c(m2, m1)",
    "guarded_closure": "Answer(x, y) <- a+(x, y) as AP, b(x, m), c(m, y)",
    "nested_closure": ("RL(x, y) <- a+(x, y) as AP, b(x, m), c(m, y)\n"
                       "Answer(x, m) <- RL+(x, y) as RLP, c(m, y)"),
    "siblings_closure": ("P(x, y) <- a(x, z), a(y, z)\n"
                         "Answer(x, y) <- P+(x, y) as PP"),
}

_HOOK_STATS = {"coalesce": 0, "sink": 0, "violations": 0}


def _violation(message):
    _HOOK_STATS["violations"] += 1
    raise AssertionError(message)


def _assert_holds_now(t, now):
    """The stage contract on a Coalesce input: a positive holds ``now``."""
    if t.sign > 0 and not t.interval.contains(now):
        _violation(f"coalescer received a positive for {t.key} over {t.interval} at {now}")


@pytest.fixture(autouse=True)
def set_semantics_hook(monkeypatch):
    """Contract and duplicate-detection hook active for every test in
    this module."""
    coalesce_orig = operators.CoalesceStage.on_tuple

    def checked_coalesce(self, port, t, now):
        _assert_holds_now(t, now)
        _HOOK_STATS["coalesce"] += 1
        return coalesce_orig(self, port, t, now)

    sink_orig = runtime.OutputSink.on_tuple

    def checked_sink(self, port, t, now):
        out = sink_orig(self, port, t, now)
        buckets = getattr(self, "_hook_by_key", None)
        if buckets is None:
            buckets = self._hook_by_key = {}
        # origin -> live (interval, payload), per key
        bucket = buckets.setdefault(t.key, {})
        for origin, (iv, _) in list(bucket.items()):
            if iv.end <= now:
                del bucket[origin]
        line, held = (t.interval, t.payload), bucket.get(t.origin)
        if t.sign > 0:
            for origin, (iv, _) in bucket.items():
                if origin != t.origin and t.ts < iv.end and iv.start < t.exp:
                    _violation(f"output holds two live tuples for {t.key}: "
                               f"{iv} and {t.interval}")
            if held == line:
                _violation(f"output replaced {t.key}'s line by itself: {t.interval}")
            bucket[t.origin] = line
        elif held != line:
            _violation(f"output retracted {t.key} over {t.interval}, "
                       f"but its origin's live line is {held}")
        else:
            del bucket[t.origin]
        _HOOK_STATS["sink"] += 1
        return out

    monkeypatch.setattr(operators.CoalesceStage, "on_tuple", checked_coalesce)
    monkeypatch.setattr(runtime.OutputSink, "on_tuple", checked_sink)
    yield


def boundary_instants(events, beta):
    base = (events[0].ts // beta) * beta
    final = -(-events[-1].ts // beta) * beta
    return list(range(base, final + 1, beta))


# ------------------------------------------------- 1. running example


NOTIFY_QUERY = """
WINDOW 24 SLIDE 1
RL(u1, u2) <- likes(u1, m1), post(u2, m1), follows+(u1, u2) as FP
Answer(u, m) <- RL+(u, u2) as RLP, post(u2, m)
"""

NOTIFY_EVENTS = [
    ("u", "b", "likes", 7),
    ("u", "c", "likes", 7),
    ("v", "b", "post", 10),
    ("y", "m1", "likes", 13),
    ("u", "m1", "post", 14),
    ("y", "u", "follows", 28),
    ("u", "v", "follows", 29),
    ("v", "c", "post", 30),
]

# hand-traced derived-edge stream feeding one navigation tree
TRACE_EDGES = [
    ("x", "y", 20, 44),
    ("y", "w", 21, 33),
    ("y", "z", 22, 31),
    ("z", "u", 23, 35),
    ("z", "t", 24, 31),
    ("y", "u", 28, 37),
    ("u", "v", 28, 37),
    ("u", "s", 29, 38),
    ("w", "v", 30, 39),
]


def _trace_tree(upto):
    st = PathStage(build_dfa(Plus(Sym("RL"))), "RLP", op_id=1)
    for i, (s, d, ts, exp) in enumerate(TRACE_EDGES):
        if ts > upto:
            break
        t = StreamTuple(s, d, "RL", Interval(ts, exp), ((s, "RL", d),), 1, origin=i)
        st.on_tuple(0, t, ts)
    return {
        pair: ((n.ts, n.exp), n.parent)
        for pair, n in st.trees["x"].nodes.items()
    }


def test_running_example_matches_hand_trace():
    start = time.perf_counter()
    pipe = compile_plan(to_plan(parse_query(NOTIFY_QUERY)))
    rl, rlp = pipe.tap("RL"), pipe.tap("RLP")
    events = [EdgeEvent(s, d, l, ts, 1, i)
              for i, (s, d, l, ts) in enumerate(NOTIFY_EVENTS)]
    run_stream(pipe, events)

    # taps are not coalesced: per key, the intervals live under its
    # origins.  The pattern has one witness of y -> u and two of u -> v.
    def live(stream):
        out = {}
        for t in net_results(stream):
            out.setdefault((t.src, t.trg), set()).add((t.ts, t.exp))
        return out

    assert live(rl) == {("y", "u"): {(28, 37)}, ("u", "v"): {(29, 31), (30, 31)}}

    # navigation outputs, one per pair, including the path y -> u -> v
    assert live(rlp) == {
        ("y", "u"): {(28, 37)},
        ("u", "v"): {(29, 31)},
        ("y", "v"): {(29, 31)},
    }
    [yv] = [t for t in net_results(rlp) if (t.src, t.trg) == ("y", "v")]
    assert yv.payload == (("y", "RL", "u"), ("u", "RL", "v"))

    assert {(t.src, t.trg, t.ts, t.exp) for t in pipe.sink.results()} == {
        ("y", "m1", 28, 37),
        ("u", "b", 29, 31),
        ("y", "b", 29, 31),
        ("u", "c", 30, 31),
        ("y", "c", 30, 31),
    }

    # spanning tree halfway through the trace, node for node
    assert _trace_tree(27) == {
        ("x", 0): ((-INF, INF), None),
        ("y", 1): ((20, 44), ("x", 0)),
        ("w", 1): ((21, 33), ("y", 1)),
        ("z", 1): ((22, 31), ("y", 1)),
        ("u", 1): ((23, 31), ("z", 1)),
        ("t", 1): ((24, 31), ("z", 1)),
    }

    # and after all nine edges: (u,1) re-parented onto the wider path
    assert _trace_tree(30) == {
        ("x", 0): ((-INF, INF), None),
        ("y", 1): ((20, 44), ("x", 0)),
        ("w", 1): ((21, 33), ("y", 1)),
        ("z", 1): ((22, 31), ("y", 1)),
        ("u", 1): ((23, 37), ("y", 1)),
        ("t", 1): ((24, 31), ("z", 1)),
        ("v", 1): ((28, 37), ("u", 1)),
        ("s", 1): ((29, 37), ("u", 1)),
    }

    assert time.perf_counter() - start < 1.0


# --------------------------------------- 2. snapshot reducibility


def _stream_params(i):
    size, beta = [(10, 1), (10, 5), (50, 1), (50, 5)][i % 4]
    if size == 50:
        vertices = 18 + (i % 7) * 2
        edges = 5 * vertices
    else:
        vertices = 6 + (i % 13) * 2
        edges = 8 * vertices
    return vertices, edges, size, beta, 0.15 * (i % 5)


def test_snapshot_reducibility_on_catalog_queries(tmp_path):
    """`check --instants boundary` reports zero diffs on 50 seeded
    streams for each of the eight catalog query shapes."""
    start = time.perf_counter()
    query_files = {}
    for name, text in TABLE_QUERIES.items():
        qf = tmp_path / f"{name}.rq"
        qf.write_text(text + "\n")
        query_files[name] = str(qf)

    runs = 0
    for i in range(50):
        vertices, edges, size, beta, cyc = _stream_params(i)
        events = generate_synthetic(vertices, edges, rate=2.0,
                                    cyclicity=cyc, seed=100 + i)
        sf = tmp_path / f"s{i}.stream"
        with open(sf, "w") as fh:
            write_edge_stream(events, fh)
        for name in TABLE_QUERIES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli_main([
                    "check", "--query", query_files[name],
                    "--window", str(size), "--slide", str(beta),
                    "--input", str(sf), "--instants", "boundary",
                ])
            assert rc == 0, f"stream {i} {name}: {out.getvalue()}"
            assert "zero diffs" in out.getvalue()
            runs += 1
    assert runs == 400
    assert time.perf_counter() - start < 120.0


# ------------------------------ 3. widest-expiry tree invariant


def random_regex(rng, alphabet, depth):
    if depth == 0 or rng.random() < 0.3:
        return Sym(rng.choice(alphabet))
    k = rng.randrange(6)
    if k <= 1:
        return Concat(tuple(random_regex(rng, alphabet, depth - 1)
                            for _ in range(rng.randint(2, 3))))
    if k == 2:
        return Alt(tuple(random_regex(rng, alphabet, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    if k == 3:
        return Star(random_regex(rng, alphabet, depth - 1))
    if k == 4:
        return Plus(random_regex(rng, alphabet, depth - 1))
    return Opt(random_regex(rng, alphabet, depth - 1))


def exhaustive_widest(edges, dfa, root):
    """Max over all automaton paths of the minimum edge expiry, found by
    enumerating simple paths in the product graph (a repeated product
    node never widens the minimum)."""
    adj = {}
    for src, trg, lab, exp in edges:
        adj.setdefault(src, []).append((trg, lab, exp))
    best = {(root, dfa.start): INF}

    def walk(vertex, state, width, onpath):
        for trg, lab, exp in adj.get(vertex, ()):
            nxt = dfa.transitions.get((state, lab))
            if nxt is None or (trg, nxt) in onpath:
                continue
            w = min(width, exp)
            if w > best.get((trg, nxt), -INF):
                best[(trg, nxt)] = w
            onpath.add((trg, nxt))
            walk(trg, nxt, w, onpath)
            onpath.discard((trg, nxt))

    walk(root, dfa.start, INF, {(root, dfa.start)})
    return best


def test_tree_expiries_match_exhaustive_enumeration():
    start = time.perf_counter()
    checked = 0
    for trial in range(200):
        rng = random.Random(7000 + trial)
        alphabet = ["a", "b", "c"][: 2 + trial % 2]
        dfa = build_dfa(random_regex(rng, alphabet, rng.randint(1, 3)))
        n = rng.randint(3, 12)
        verts = [f"v{i}" for i in range(n)]
        st = PathStage(dfa, "R")
        edges = []
        for j in range(rng.randint(n, 2 * n)):
            src, trg = rng.choice(verts), rng.choice(verts)
            lab = rng.choice(alphabet)
            exp = rng.randint(1, 50)
            edges.append((src, trg, lab, exp))
            st.insert(StreamTuple(src, trg, lab, Interval(0, exp),
                                  ((src, lab, trg),), 1, origin=j))
        for root, tree in st.trees.items():
            table = exhaustive_widest(edges, dfa, root)
            for pair, node in tree.nodes.items():
                if pair == tree.root_pair:
                    continue
                assert node.exp == table.get(pair), (trial, root, pair)
                checked += 1
            for pair, width in table.items():
                if pair != tree.root_pair and width > 0:
                    assert pair in tree.nodes, (trial, root, pair)
    assert checked > 1000
    assert time.perf_counter() - start < 120.0


# --------------------- 4. direct expiry vs synthesized deletions


def _with_expiry_deletions(events, size, beta):
    merged = list(events)
    uid = max(e.uid for e in events) + 1
    for e in events:
        end = window_interval(e.ts, size, beta).end
        merged.append(EdgeEvent(e.src, e.trg, e.label, end, -1, uid, ref=e.uid))
        uid += 1
    merged.sort(key=lambda e: (e.ts, e.sign, e.uid))
    return merged


def _instant_snapshots(text, window, slide, events, instants):
    pipe = compile_plan(to_plan(parse_query(text, window=window, slide=slide)))
    got = []
    run_stream(pipe, events, instants=instants,
               on_instant=lambda t: got.append((t, pipe.sink.snapshot(t))))
    return got


def test_direct_expiry_equals_synthesized_deletions():
    """Windowed runs and unbounded runs fed explicit deletions at each
    tuple's expiry instant agree on every snapshot."""
    size = 10
    for i in range(20):
        beta = (1, 5)[i % 2]
        text = (TABLE_QUERIES["closure"], TABLE_QUERIES["guarded_closure"])[i % 2]
        events = generate_synthetic(6 + (i % 5) * 2, 80, rate=2.0,
                                    cyclicity=0.2 * (i % 4), seed=400 + i)
        instants = list(range(events[0].ts,
                              -(-events[-1].ts // beta) * beta + 1))
        direct = _instant_snapshots(text, size, beta, events, instants)
        synth = _instant_snapshots(
            text, 10 ** 6, beta, _with_expiry_deletions(events, size, beta),
            instants)
        assert direct == synth, f"stream {i}"


# ----------------------------------- 5. explicit-deletion fuzzing


def _fuzz_events(seed, ops=500, vertices=12):
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(vertices)]
    events, live, uid = [], {}, 0
    for ts in range(ops):
        if live and rng.random() < 0.35:
            ref = rng.choice(sorted(live))
            e0 = live.pop(ref)
            uid += 1
            events.append(EdgeEvent(e0.src, e0.trg, e0.label, ts, -1, uid, ref=ref))
        else:
            uid += 1
            e = EdgeEvent(rng.choice(verts), rng.choice(verts),
                          rng.choice("abc"), ts, 1, uid)
            live[uid] = e
            events.append(e)
    return events


def _check_tree_attachment(st, now):
    # after a repair, every node must sit at the brute-force widest
    # expiry reachable over the stage's live adjacency
    edges = []
    for buckets in st.adj.values():
        for bucket in buckets.values():
            edges += [(t.src, t.trg, t.label, t.exp)
                      for t in bucket.values() if t.exp > now]
    for root, tree in st.trees.items():
        table = widest_validity(edges, st.dfa, root)
        for pair, node in tree.nodes.items():
            if pair == tree.root_pair or node.exp <= now:
                continue
            assert node.exp == table.get(pair), (root, pair)
        for pair, width in table.items():
            if pair != tree.root_pair and width > now:
                assert pair in tree.nodes, (root, pair)


def _record_nows(monkeypatch) -> list[int]:
    """The now of every emission any sink receives from here on, in
    order; clear it before each run."""
    nows: list[int] = []
    inner = runtime.OutputSink.on_tuple

    def recording(self, port, t, now):
        nows.append(now)
        return inner(self, port, t, now)

    monkeypatch.setattr(runtime.OutputSink, "on_tuple", recording)
    return nows


def _assert_replay_matches(name, pipe, nows, snaps):
    """The written log, replayed as a consumer reads it, retracts only
    live results and gives the engine's snapshot at every instant."""
    assert len(nows) == len(pipe.sink.log), name
    for t, written, bad in replay_log(zip(nows, pipe.sink.log), sorted(snaps)):
        assert bad == [], (name, t)
        assert written == snaps[t], (name, t)


def test_insert_delete_fuzz_matches_from_scratch_oracle(monkeypatch):
    nows = _record_nows(monkeypatch)
    for seed_shift, name in enumerate(("closure", "chain_closure",
                                       "siblings_closure")):
        events = _fuzz_events(seed=500 + seed_shift)
        q = parse_query(TABLE_QUERIES[name], window=10 ** 6, slide=1)
        pipe = compile_plan(to_plan(q))
        stages = [n.stage for n in pipe.nodes if isinstance(n.stage, PathStage)]
        snaps = {}
        nows.clear()

        def at(t):
            snaps[t] = snap = pipe.sink.snapshot(t)
            got = {(s, d) for s, d, _ in snap}
            want = answer_pairs(eval_query_at(q, events, t))
            assert got == want, (name, t, got - want, want - got)
            if t % 25 == 24:
                for st in stages:
                    _check_tree_attachment(st, t)

        run_stream(pipe, events, instants=list(range(len(events))), on_instant=at)
        _assert_replay_matches(name, pipe, nows, snaps)


def _fuzz_against_oracle(name, text, events, window, slide, nows):
    """Run ``text`` over ``events`` and check it at every instant: the
    snapshot equals the oracle, every tree sits at the widest validity
    its stage's live adjacency gives, no ended edge lingers in any
    adjacency, and the written log replays to the snapshot."""
    q = parse_query(text, window=window, slide=slide)
    pipe = compile_plan(to_plan(q))
    stages = [n.stage for n in pipe.nodes if isinstance(n.stage, PathStage)]
    snaps = {}
    nows.clear()

    def at(t):
        snaps[t] = snap = pipe.sink.snapshot(t)
        got = {(s, d) for s, d, _ in snap}
        want = answer_pairs(eval_query_at(q, events, t))
        assert got == want, (name, t, got - want, want - got)
        for st in stages:
            _check_tree_attachment(st, t)
            assert not any(e.exp <= t for per_src in st.adj.values()
                           for bucket in per_src.values()
                           for e in bucket.values()), (name, t)

    run_stream(pipe, events, instants=list(range(len(events))), on_instant=at)
    _assert_replay_matches(name, pipe, nows, snaps)


def test_mid_slide_expiry_fuzz_matches_from_scratch_oracle(monkeypatch):
    """A window that is not a multiple of its slide ends edges between
    slide boundaries, and some deletions retract already-ended edges;
    the watermark step is the gcd of size and slide, so no ended edge
    lingers in any adjacency, and on every catalog shape trees, results
    and the replayed log match the oracle at every instant."""
    nows = _record_nows(monkeypatch)
    for seed_shift, (name, text) in enumerate(TABLE_QUERIES.items()):
        events = _fuzz_events(seed=600 + seed_shift, ops=600, vertices=6)
        _fuzz_against_oracle(name, text, events, 7, 3, nows)


# two rules that give one relation equal join origins for different keys
TWO_RULE_CLOSURE = ("P(x, y) <- a(x, z), b(z, y)\n"
                    "P(x, z) <- a(x, z), b(z, y)\n"
                    "Answer(x, y) <- P+(x, y)")


@pytest.mark.parametrize("queries, seed, window, slide", [
    (TABLE_QUERIES, 501, 100, 10),
    ({"two-rule closure": TWO_RULE_CLOSURE}, 300, 10 ** 6, 1),
    ({"two-rule closure": TWO_RULE_CLOSURE}, 300, 40, 5),
], ids=["catalog", "union-origins-unwindowed", "union-origins-windowed"])
def test_bag_inputs_below_the_root_match_the_oracle(monkeypatch, queries, seed,
                                                    window, slide):
    """Only the root coalesces, so the stages below it take bags.  A
    Path whose input re-emits a result under the same origin with a new
    interval must replace that edge (nested_closure at window 100, slide
    10, among the catalog shapes), and a union must keep its inputs'
    equal origins apart (two rules of one relation whose joins give
    equal origins for different keys)."""
    nows = _record_nows(monkeypatch)
    events = _fuzz_events(seed=seed, ops=300, vertices=6)
    for name, text in queries.items():
        _fuzz_against_oracle(name, text, events, window, slide, nows)


# a plan whose two windows purge on different slides (10/5 and 9/3)
MIXED_SLIDE_PLAN = algebra.Union(
    (algebra.Path((algebra.Wscan("a", 10, 5),), Plus(Sym("a")), "P"),
     algebra.Wscan("b", 9, 3)), "D")
MIXED_SLIDE_TEXT = ("union[D](path[a+ -> P](wscan[a size=10 slide=5]),"
                    " wscan[b size=9 slide=3])")


def test_expiry_never_retracts(monkeypatch):
    """Expiry drops state silently; only explicit deletions retract.  At
    window 10, slide 3, where ends fall between slide boundaries, and in
    a plan that mixes slides, no retraction in the replayed log names a
    result that had ended by the instant it was emitted, or one the log
    never wrote, and no two net results of one key overlap."""
    nows = _record_nows(monkeypatch)
    events = _fuzz_events(seed=7, ops=3000)
    plans = {name: to_plan(parse_query(text, window=10, slide=3))
             for name, text in TABLE_QUERIES.items()}
    plans["mixed slides"] = MIXED_SLIDE_PLAN
    retractions = 0
    for name, plan in plans.items():
        nows.clear()
        pipe = compile_plan(plan)
        run_stream(pipe, events)
        log = pipe.sink.log
        assert len(nows) == len(log), name
        retractions += sum(t.sign < 0 for t in log)
        [(_, _, bad)] = replay_log(zip(nows, log), [nows[-1]])
        assert bad == [], name
        spans: dict[tuple, list[Interval]] = {}
        for t in net_results(log):
            spans.setdefault(t.key, []).append(t.interval)
        for key, ivs in spans.items():
            ivs.sort()
            assert all(a.end <= b.start for a, b in zip(ivs, ivs[1:])), (name, key, ivs)
    assert retractions > 0


@pytest.mark.parametrize("window, slide", [(40, 5), (100, 10), (7, 3)])
def test_insert_only_streams_write_no_retraction(window, slide):
    """Negative lines carry explicit deletions only: a replacement is
    one positive line, and expiry writes nothing, so over the insertions
    of the fuzz stream no catalog shape writes a ``-`` line, while
    closure over the whole stream does."""
    events = _fuzz_events(seed=7, ops=3000)
    inserts = [e for e in events if e.sign > 0]
    lines = 0
    for name, text in TABLE_QUERIES.items():
        pipe = compile_plan(to_plan(parse_query(text, window=window, slide=slide)))
        run_stream(pipe, inserts)
        lines += len(pipe.sink.log)
        assert not any(t.sign < 0 for t in pipe.sink.log), name
    assert lines > 0
    pipe = compile_plan(to_plan(parse_query(TABLE_QUERIES["closure"], window=window,
                                            slide=slide)))
    run_stream(pipe, events)
    assert any(t.sign < 0 for t in pipe.sink.log)


@pytest.mark.parametrize("plan, lines, want", [
    (to_plan(parse_query(TABLE_QUERIES["closure"], window=10, slide=3)),
     [("r", "x", "a", 4), ("r", "x", "a", 13)],
     ["+ r x $a_plus 4 13 r:a:x", "+ r x $a_plus 13 22 r:a:x"]),
    (MIXED_SLIDE_PLAN,
     [("r", "x", "a", 0), ("q", "q", "b", 1), ("r", "x", "a", 11)],
     ["+ r x D 0 10 r:a:x", "+ q q D 1 9 q:b:q", "+ r x D 11 20 r:a:x"]),
], ids=["one-query", "mixed-slides"])
def test_a_result_that_comes_back_after_its_end_is_not_retracted(plan, lines, want):
    """The same result again, after the first one ended and before a
    slide boundary, is a new result; the ended one stays in the log."""
    pipe = compile_plan(plan)
    run_stream(pipe, [EdgeEvent(*line, 1, uid) for uid, line in enumerate(lines)])
    assert [format_result(t) for t in pipe.sink.log] == want


# -------------------------------------- 6. plan-rewrite soundness


CHAIN_QUERY_WINDOWED = ("WINDOW 10 SLIDE 5\n"
                        "D(x, y) <- a(x, m1), b(m1, m2), c(m2, y)\n"
                        "Answer(x, y) <- D+(x, y) as DP")

CHAIN_REWRITES = [
    "path[(a.b.c)+ -> DP](wscan[a size=10 slide=5], wscan[b size=10 slide=5],"
    " wscan[c size=10 slide=5])",
    "path[(a.$tmp1)+ -> DP](wscan[a size=10 slide=5],"
    " pattern[trg1=src2 -> (src1, trg2) $tmp1](wscan[b size=10 slide=5],"
    " wscan[c size=10 slide=5]))",
    "path[($tmp1.c)+ -> DP](pattern[trg1=src2 -> (src1, trg2) $tmp1]("
    "wscan[a size=10 slide=5], wscan[b size=10 slide=5]),"
    " wscan[c size=10 slide=5])",
]


def _chain_scan(label):
    return algebra.Wscan(label, 10, 5)


def _chain_pair(first, second):
    """The two-way chain join of two scans, labelled $tmp1."""
    cond = algebra.JoinCondition(((algebra.Pos(0, "trg"), algebra.Pos(1, "src")),),
                                 algebra.Pos(0, "src"), algebra.Pos(1, "trg"))
    return algebra.Pattern((_chain_scan(first), _chain_scan(second)), cond, "$tmp1")


# the plans that CHAIN_REWRITES render
CHAIN_REWRITE_PLANS = [
    algebra.Path(tuple(map(_chain_scan, "abc")),
                 Plus(Concat((Sym("a"), Sym("b"), Sym("c")))), "DP"),
    algebra.Path((_chain_scan("a"), _chain_pair("b", "c")),
                 Plus(Concat((Sym("a"), Sym("$tmp1")))), "DP"),
    algebra.Path((_chain_pair("a", "b"), _chain_scan("c")),
                 Plus(Concat((Sym("$tmp1"), Sym("c")))), "DP"),
]


def test_hand_built_plans_render_to_their_texts():
    for plan in [MIXED_SLIDE_PLAN] + CHAIN_REWRITE_PLANS:
        algebra.validate_plan(plan)
    assert algebra.render_plan(MIXED_SLIDE_PLAN) == MIXED_SLIDE_TEXT
    assert [algebra.render_plan(p) for p in CHAIN_REWRITE_PLANS] == CHAIN_REWRITES


def test_plan_rewrites_produce_identical_outputs(tmp_path):
    canonical = to_plan(parse_query(CHAIN_QUERY_WINDOWED))
    plans = [canonical] + CHAIN_REWRITE_PLANS

    for i in range(20):
        events = generate_synthetic(8 + (i % 5) * 2, 120, rate=2.0,
                                    cyclicity=0.2 * (i % 4), seed=300 + i)
        instants = boundary_instants(events, 5)
        outs = []
        for plan in plans:
            pipe = compile_plan(plan)
            snaps = []
            run_stream(pipe, events, instants=instants,
                       on_instant=lambda t: snaps.append((t, pipe.sink.snapshot(t))))
            net = sorted((t.src, t.trg, t.ts, t.exp) for t in pipe.sink.results())
            outs.append((snaps, net))
        for k, got in enumerate(outs[1:], 1):
            assert got == outs[0], f"stream {i} rewrite {k}"

    # the rewrite enumerator must surface the canonical plan and all
    # three variants
    qf = tmp_path / "chain.rq"
    qf.write_text(CHAIN_QUERY_WINDOWED + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["plan", "--query", str(qf), "--rewrites", "3"])
    assert rc == 0
    lines = out.getvalue().splitlines()
    for render in [algebra.render_plan(canonical)] + CHAIN_REWRITES:
        assert render in lines


# ------------------------------------------- 7. automaton correctness


def _reachable(node, word, i):
    """Positions reachable from i after consuming one match of node."""
    if isinstance(node, Sym):
        return {i + 1} if i < len(word) and word[i] == node.label else set()
    if isinstance(node, Concat):
        cur = {i}
        for part in node.parts:
            cur = set().union(*(_reachable(part, word, j) for j in cur)) if cur else set()
        return cur
    if isinstance(node, Alt):
        return set().union(*(_reachable(p, word, i) for p in node.parts))
    if isinstance(node, Opt):
        return {i} | _reachable(node.inner, word, i)
    if isinstance(node, (Star, Plus)):
        seen = {i} if isinstance(node, Star) else set()
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for k in _reachable(node.inner, word, j):
                if k not in seen:
                    seen.add(k)
                    frontier.append(k)
        return seen
    raise TypeError(f"not a regex node: {node!r}")


def _dfa_accepts(dfa, word):
    s = dfa.start
    for c in word:
        s = dfa.transitions.get((s, c))
        if s is None:
            return False
    return s in dfa.accepting


def test_dfa_equals_brute_force_matching():
    start = time.perf_counter()
    total = 0
    for trial in range(105):
        rng = random.Random(9000 + trial)
        alphabet = ["a", "b", "c", "d"][: 1 + trial % 4]
        ast = random_regex(rng, alphabet, rng.randint(1, 4))
        dfa = build_dfa(ast)
        letters = alphabet + (["z"] if len(alphabet) < 4 else [])
        for n in range(7):
            for word in itertools.product(letters, repeat=n):
                assert _dfa_accepts(dfa, word) == (len(word) in _reachable(ast, word, 0)), \
                    (trial, ast, word)
                total += 1
    assert total > 300_000
    assert time.perf_counter() - start < 30.0


# ------------------------------------------- 8. performance budget


def test_performance_budget_on_cyclic_stream(tmp_path):
    """Single-threaded closure query over a 100k-edge cyclic stream:
    under 20 seconds, with live metrics.  Slide purges that walk all
    state instead of only what expired blow this budget."""
    events = generate_synthetic(20000, 100000, rate=1.0, cyclicity=0.3, seed=42)
    sf = tmp_path / "large.stream"
    with open(sf, "w") as fh:
        write_edge_stream(events, fh)
    qf = tmp_path / "closure.rq"
    qf.write_text(TABLE_QUERIES["closure"] + "\n")
    mf = tmp_path / "metrics.json"
    of = tmp_path / "results.out"

    start = time.perf_counter()
    rc = cli_main([
        "run", "--query", str(qf), "--window", "10000", "--slide", "100",
        "--input", str(sf), "--output", str(of), "--metrics", str(mf),
    ])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 20.0

    metrics = json.loads(mf.read_text())
    assert metrics["slides"] > 0
    assert metrics["p99_latency"] > 0
    assert metrics["tuples_in"] == 100000
    assert metrics["tuples_out"] > 0


# ------------------------------------------------- 9. set semantics


def test_set_semantics_hook_covers_all_runs():
    """The contract and duplicate-detection hook is live on every test
    in this module; a churn-heavy run keeps the root stream duplicate
    free, whether a Coalesce or a root Path writes it, while a stream
    tapped below the root is a bag, and a positive that does not hold
    its instant is caught."""
    before = (_HOOK_STATS["coalesce"], _HOOK_STATS["sink"])

    events = _fuzz_events(seed=900, ops=400)
    # union_closures' root is a union of joins: a Coalesce writes its log
    q = parse_query(TABLE_QUERIES["union_closures"], window=40, slide=5)
    coalesced = compile_plan(to_plan(q))
    run_stream(coalesced, events)
    assert isinstance(coalesced.sink.root, operators.CoalesceStage)
    assert coalesced.sink.log

    q = parse_query(TABLE_QUERIES["siblings_closure"], window=40, slide=5)
    pipe = compile_plan(to_plan(q))
    answers, pairs = pipe.tap("PP"), pipe.tap("P")
    run_stream(pipe, events)

    # the PP tap reads the root Path, which writes the log itself: per
    # key, live intervals stay pairwise disjoint at every prefix
    live = {}
    for t in answers:
        if t.sign > 0:
            for origin, (key, iv) in live.items():
                if key == t.key and origin != t.origin:
                    assert not (t.ts < iv.end and iv.start < t.exp), (t.key, iv, t.interval)
            live[t.origin] = (t.key, t.interval)
        else:
            live.pop(t.origin, None)

    # the P tap reads the join below it: one key may hold several
    # overlapping intervals at once, one per origin
    per_key = {}
    for t in net_results(pairs):
        per_key.setdefault(t.key, []).append(t.interval)
    assert any(len(ivs) > 1 and ivs[0].start < ivs[1].end and ivs[1].start < ivs[0].end
               for ivs in per_key.values())

    after = (_HOOK_STATS["coalesce"], _HOOK_STATS["sink"])
    assert after[0] > before[0] and after[1] > before[1]
    assert _HOOK_STATS["violations"] == 0

    # the hook is not vacuous: a positive that does not hold now trips it
    stage = operators.CoalesceStage(op_id=99)
    for iv in (Interval(6, 15), Interval(0, 5)):  # starts later, ended
        with pytest.raises(AssertionError, match="received a positive"):
            stage.on_tuple(0, StreamTuple("x", "y", "R", iv, origin="o1"), 5)
    assert stage.contribs == {} and stage.advertised == {}
    # nor is it on the sink: a no-op line, and a negative that does not
    # name its origin's live line
    sink = runtime.OutputSink(stage)
    line = StreamTuple("x", "y", "R", Interval(0, 10), origin="o1")
    sink.on_tuple(0, line, 0)
    with pytest.raises(AssertionError, match="by itself"):
        sink.on_tuple(0, line, 1)
    for wrong in (StreamTuple("x", "y", "R", Interval(0, 9), (), -1, origin="o1"),
                  StreamTuple("x", "y", "R", Interval(0, 10), (), -1, origin="o2")):
        with pytest.raises(AssertionError, match="retracted"):
            sink.on_tuple(0, wrong, 2)


# --------------------------------------------------- 10. state drains


def _held_state(stage) -> dict[str, int]:
    """Entries one stage still holds, by table; stateless stages hold
    none."""
    if isinstance(stage, operators.CoalesceStage):
        tables = {"contribs": len(stage.contribs),
                  "advertised": len(stage.advertised),
                  "expiry": len(stage.expiry)}
    elif isinstance(stage, operators.PatternStage):
        tables = {"left": sum(map(len, stage.left.values())),
                  "right": sum(map(len, stage.right.values())),
                  "expiry": len(stage.expiry)}
    elif isinstance(stage, PathStage):
        tables = {"trees": len(stage.trees), "inverted": len(stage.inverted),
                  "adj": sum(map(len, stage.adj.values())),
                  "adj_expiry": len(stage.adj_expiry)}
    else:
        assert isinstance(stage, (runtime.OutputSink, operators.WindowScan,
                                  operators.FilterStage, operators.UnionStage)), stage
        tables = {}
    return {name: n for name, n in tables.items() if n}


def _drain_cases(ops):
    """Every catalog shape over the fuzz stream; then 1000 insertions,
    none deleted, through a filter at the root of a windowed scan."""
    events = _fuzz_events(seed=7, ops=ops)
    for name, text in TABLE_QUERIES.items():
        yield name, to_plan(parse_query(text, window=40, slide=5)), events
    not_q = (algebra.Comparison("src", "!=", ("const", "q")),)
    inserts = [EdgeEvent(f"v{i % 12}", f"v{i % 7}", "a", i, 1, i) for i in range(1000)]
    yield "root filter", algebra.Filter(algebra.Wscan("a", 10, 2), not_q), inserts


@pytest.mark.parametrize("ops", [600, 3000])
def test_all_state_drains_after_the_last_expiry(ops):
    """Once a watermark passes every finite end, every stateful stage,
    its expiry index included, holds nothing, whatever the churn of
    insertions and deletions before it."""
    for name, plan, events in _drain_cases(ops):
        pipe = compile_plan(plan)
        run_stream(pipe, events)
        pipe.watermark(10 ** 9)
        held = [(n.label, _held_state(n.stage)) for n in pipe.nodes]
        assert [(label, h) for label, h in held if h] == [], name


def test_compiling_and_running_a_plan_creates_no_reference_cycles():
    """run_stream keeps the cyclic collector off the per-tuple path and
    the window state, which is safe only while nothing there allocates
    cycles: with the collector disabled, compiling and running each
    catalog shape leaves nothing frozen, and dropping the pipeline
    leaves nothing for a collection to reclaim."""
    events = _fuzz_events(seed=7, ops=600)
    plans = {name: to_plan(parse_query(text, window=40, slide=5))
             for name, text in TABLE_QUERIES.items()}
    enabled, flags = gc.isenabled(), gc.get_debug()
    reclaimed = {}
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name, plan in plans.items():
            pipe = compile_plan(plan)
            run_stream(pipe, events)
            # a frozen cycle would hide from the collection below
            assert gc.get_freeze_count() == 0, name
            del pipe
            reclaimed[name] = gc.collect()
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert reclaimed == dict.fromkeys(TABLE_QUERIES, 0)


# ------------------------------------------- 11. reproducible outputs


def _log_digest(log) -> str:
    lines = (f"{format_result(t)} {t.origin!r}" for t in log)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _net_digest(results) -> str:
    lines = sorted(format_result(t) for t in results)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _end_digest(results) -> str:
    """Digest of the net results by (src, trg, label, end): what is
    answered, and until when, whatever the starts and payloads."""
    lines = sorted(f"{t.src} {t.trg} {t.label} {t.exp}" for t in results)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


_EMISSION_LOGS = """
import sys
sys.path.insert(0, sys.argv[1])
from test_acceptance import TABLE_QUERIES, _fuzz_events, _log_digest
from streamgraph.query import parse_query, to_plan
from streamgraph.runtime import compile_plan, run_stream

events = _fuzz_events(seed=7, ops=3000)
for name in ("step_closure", "union_closures"):
    pipe = compile_plan(to_plan(parse_query(TABLE_QUERIES[name], window=40, slide=5)))
    run_stream(pipe, events)
    print(name, len(pipe.sink.log), _log_digest(pipe.sink.log))
"""


def test_emission_logs_do_not_depend_on_the_string_hash_seed():
    """The ordered signed emission log, origins included, is the same
    under every string-hash seed: no stage lets set or hash order pick
    the order of its work.  Two shapes with several closures over one
    source are run in fresh interpreters under three hash seeds."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(streamgraph.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    logs = []
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", _EMISSION_LOGS, here],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        logs.append(proc.stdout)
    assert logs[0].count("\n") == 2
    assert logs[1] == logs[0] and logs[2] == logs[0]


# emission count and net-result digest of every catalog shape over
# _fuzz_events(seed=7, ops=3000), window 40, slide 5
PINNED_OUTPUTS = {
    "closure": (2006, "c239f6bf0ec4deae"),
    "step_closure": (2405, "21432ce29a009978"),
    "union_closures": (5161, "b50f564e63079512"),
    "chain_closure": (774, "e5affbc6608a0805"),
    "square": (66, "e28442ec16c0d21d"),
    "guarded_closure": (102, "b1032b94ebfb9385"),
    "nested_closure": (166, "0596c6ca10762c74"),
    "siblings_closure": (2475, "861817a0dce5e0a8"),
}


# net-result digest by (src, trg, label, end) (``_end_digest``) of every
# catalog shape over the same stream; where a Coalesce sits may move
# starts, payloads and the log, but never these
PINNED_ENDS = {
    "closure": "69f3665ace92c007",
    "step_closure": "a3387ff1ef0e9813",
    "union_closures": "86027fff4b5e29a9",
    "chain_closure": "1ba431f7bff1eaba",
    "square": "552cc48a9d1bfc05",
    "guarded_closure": "835050e5035f39f5",
    "nested_closure": "bca69e890cc74be0",
    "siblings_closure": "11c647caf4f4c793",
}


# ordered signed emission log digest (``_log_digest``, origins included)
# of every catalog shape over the same stream, in the "derived" and
# "expanded" payload modes; where the root Path writes the log (closure,
# chain_closure, siblings_closure), its runs' origins are ("p", 1, n)
PINNED_LOG_DIGESTS = {
    "closure": ("178a94ebf29da116", "178a94ebf29da116"),
    "step_closure": ("ebf39bb96fed4c8d", "ebf39bb96fed4c8d"),
    "union_closures": ("4b30770613318b7c", "4b30770613318b7c"),
    "chain_closure": ("bc789669cc8c47b5", "6fe4f5ffc68b157b"),
    "square": ("6cb3128c9d113d23", "6cb3128c9d113d23"),
    "guarded_closure": ("38958c54bcb04698", "38958c54bcb04698"),
    "nested_closure": ("54bc21c2e86243d0", "584d6b91e8774918"),
    "siblings_closure": ("e58905803aaf79f3", "b87e23f3f7833e4a"),
}


def test_catalog_outputs_are_pinned():
    """A speed-up must not change what the engine emits, nor in what
    order, with which payloads or under which origins.  When a change
    alters semantics on purpose (say, what ``*`` means), update these
    values deliberately in that change and say why."""
    events = _fuzz_events(seed=7, ops=3000)
    got, logs, ends = {}, {}, {}
    for name, text in TABLE_QUERIES.items():
        plan = to_plan(parse_query(text, window=40, slide=5))
        pipe = compile_plan(plan)
        run_stream(pipe, events)
        got[name] = (len(pipe.sink.log), _net_digest(pipe.sink.results()))
        ends[name] = _end_digest(pipe.sink.results())
        pipe_x = compile_plan(plan, payload="expanded")
        run_stream(pipe_x, events)
        logs[name] = (_log_digest(pipe.sink.log), _log_digest(pipe_x.sink.log))
    assert ends == PINNED_ENDS
    assert got == PINNED_OUTPUTS
    # derived plan, expanded plan
    assert logs == PINNED_LOG_DIGESTS
