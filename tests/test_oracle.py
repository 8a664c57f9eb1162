"""Tests for the from-scratch reference evaluator.

Expectations here are small enough to verify by hand; the reference is
what the incremental engine is judged against elsewhere, so it gets its
own independent checks.
"""

from __future__ import annotations

from streamgraph.automata import build_dfa, parse_regex
from streamgraph.model import EdgeEvent, Interval, StreamTuple
from streamgraph.oracle import (
    answer_pairs,
    closure_pairs,
    eval_query_at,
    live_edges,
    replay_log,
    snapshot_graph,
    widest_validity,
)
from streamgraph.query import parse_query

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
    out = []
    for i, row in enumerate(rows):
        if len(row) == 4:
            s, t, l, ts = row
            out.append(EdgeEvent(s, t, l, ts, 1, i))
        else:
            s, t, l, ts, ref = row
            out.append(EdgeEvent(s, t, l, ts, -1, i, ref))
    return out


def test_live_edges_applies_deletions_up_to_the_instant():
    ev = events([
        ("x", "y", "a", 0),
        ("x", "y", "a", 2),
        ("x", "y", "a", 5, 1),  # deletes the second insertion
        ("u", "v", "b", 7),
    ])
    assert {e.uid for e in live_edges(ev, 1)} == {0}
    assert {e.uid for e in live_edges(ev, 4)} == {0, 1}
    assert {e.uid for e in live_edges(ev, 5)} == {0}
    assert {e.uid for e in live_edges(ev, 10)} == {0, 3}


def test_snapshot_graph_windows_each_edge_from_its_slide():
    ev = events([("x", "y", "a", 7), ("y", "z", "b", 8)])
    # size 10, slide 3: the edge at 7 is valid on [7, 16)
    assert snapshot_graph(ev, 10, 3, 6) == {}
    at7 = snapshot_graph(ev, 10, 3, 7)
    assert at7 == {"a": {("x", "y")}}
    at15 = snapshot_graph(ev, 10, 3, 15)
    assert at15 == {"a": {("x", "y")}, "b": {("y", "z")}}
    assert "a" not in snapshot_graph(ev, 10, 3, 16)


def test_closure_is_one_or_more_steps():
    assert closure_pairs(set()) == set()
    assert closure_pairs({("a", "b"), ("b", "c")}) == {
        ("a", "b"), ("a", "c"), ("b", "c"),
    }
    cycle = {("a", "b"), ("b", "c"), ("c", "a")}
    assert closure_pairs(cycle) == {
        (x, y) for x in "abc" for y in "abc"
    }


def test_notify_query_snapshots_match_the_hand_trace():
    q = parse_query(NOTIFY_QUERY)
    ev = events(PART_A)
    expected = {
        29: {("y", "m1"), ("u", "b"), ("y", "b")},
        30: {("y", "m1"), ("u", "b"), ("y", "b"), ("u", "c"), ("y", "c")},
        31: {("y", "m1")},  # both likes of u expire at 31, killing RL(u,v)
        36: {("y", "m1")},
        37: set(),
    }
    for t, want in expected.items():
        assert answer_pairs(eval_query_at(q, ev, t)) == want, f"instant {t}"


def test_notify_intermediate_predicates_at_29():
    q = parse_query(NOTIFY_QUERY)
    env = eval_query_at(q, events(PART_A), 29)
    assert env["FP"] == {("y", "u"), ("u", "v"), ("y", "v")}
    assert env["RL"] == {("y", "u"), ("u", "v")}
    assert env["RLP"] == {("y", "u"), ("u", "v"), ("y", "v")}


def test_rule_union_and_repeated_variables():
    q = parse_query(
        "Answer(x, y) <- a(x, y)\nAnswer(x, y) <- b(x, y)", window=10
    )
    ev = events([("p", "q", "a", 0), ("r", "s", "b", 1)])
    assert answer_pairs(eval_query_at(q, ev, 1)) == {("p", "q"), ("r", "s")}

    q2 = parse_query("Answer(x, y) <- a(x, x), b(x, y)", window=10)
    ev2 = events([("p", "p", "a", 0), ("r", "s", "a", 0), ("p", "q", "b", 1)])
    assert answer_pairs(eval_query_at(q2, ev2, 1)) == {("p", "q")}


def test_widest_validity_prefers_the_longer_but_fresher_path():
    dfa = build_dfa(parse_regex("a+"))
    edges = [
        ("r", "x", "a", 10.0),
        ("x", "y", "a", 5.0),
        ("r", "y", "a", 3.0),
    ]
    best = widest_validity(edges, dfa, "r")
    accepting = next(iter(dfa.accepting))
    assert best[("r", dfa.start)] == float("inf")
    assert best[("x", accepting)] == 10.0
    # direct edge expires at 3; via x the minimum along the path is 5
    assert best[("y", accepting)] == 5.0


def test_widest_validity_handles_cycles():
    dfa = build_dfa(parse_regex("a+"))
    accepting = next(iter(dfa.accepting))
    edges = [
        ("r", "x", "a", 8.0),
        ("x", "r", "a", 6.0),
    ]
    best = widest_validity(edges, dfa, "r")
    assert best[("x", accepting)] == 8.0
    assert best[("r", accepting)] == 6.0


def test_closure_pairs_equals_enumerated_paths_on_small_graphs():
    # independent cross-check: one-or-more-step reachability by explicit
    # path enumeration (simple paths suffice; a repeat adds no new pair)
    import itertools
    import random

    for seed in range(30):
        rng = random.Random(seed)
        verts = [f"v{i}" for i in range(rng.randint(2, 6))]
        pairs = {
            (rng.choice(verts), rng.choice(verts))
            for _ in range(rng.randint(1, 10))
        }
        want = set()
        for k in range(1, len(verts) + 1):
            for hops in itertools.product(sorted(pairs), repeat=k):
                if all(a[1] == b[0] for a, b in zip(hops, hops[1:])):
                    want.add((hops[0][0], hops[-1][1]))
        assert closure_pairs(pairs) == want


# replaying a written log: one line per key


def line(sign, start, end, hop="p"):
    """A written line of key (x, y, R), over one edge labeled ``hop``."""
    return StreamTuple("x", "y", "R", Interval(start, end), (("x", hop, "y"),), sign)


XY = {("x", "y", "R")}


def test_replay_log_a_plus_replaces_its_keys_live_line():
    log = [(0, line(1, 0, 10)), (2, line(1, 0, 15, "q")), (12, line(-1, 0, 15, "q"))]
    assert replay_log(log, [1, 11, 12]) == [(1, XY, []), (11, XY, []), (12, set(), [])]
    # the replaced line is no longer live: retracting it is unknown
    [(_, live, bad)] = replay_log(log[:2] + [(3, line(-1, 0, 10))], [3])
    assert live == XY
    assert bad == ["retracted an unknown result - x y R 0 10 x:p:y"]


def test_replay_log_a_minus_must_equal_the_live_line():
    for wrong in (line(-1, 0, 12), line(-1, 1, 10), line(-1, 0, 10, "q")):
        [(_, live, bad)] = replay_log([(0, line(1, 0, 10)), (3, wrong)], [3])
        assert live == XY, wrong
        assert len(bad) == 1 and bad[0].startswith("retracted an unknown result"), wrong


def test_replay_log_a_plus_after_the_line_ended_starts_a_new_line():
    log = [(0, line(1, 0, 5)), (6, line(1, 6, 12)), (7, line(-1, 0, 5))]
    got = replay_log(log, [4, 5, 6, 7])
    assert got == [(4, XY, []), (5, set(), []), (6, XY, []),
                   (7, XY, ["retracted an ended result - x y R 0 5 x:p:y"])]
    # the new line is the key's line: it is what a - must name
    [(_, live, bad)] = replay_log(log[:2] + [(8, line(-1, 6, 12))], [8])
    assert (live, bad) == (set(), [])
