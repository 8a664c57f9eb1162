"""Tests for the incremental path navigation index.

The hand-traced fixture drives a one-or-more-steps navigation over a
small derived-edge stream and freezes the full spanning tree at two
instants.  Randomized checks compare the index against an independent
widest-validity fixpoint (oracle) after every few operations.
"""

from __future__ import annotations

import random
import zlib

import pytest

from streamgraph.automata import Alt, Concat, Plus, Star, Sym, build_dfa, render_regex
from streamgraph.model import Interval, StreamTuple, window_interval
from streamgraph.operators import CoalesceStage
from streamgraph.oracle import widest_validity
from streamgraph.pathop import PathStage
from streamgraph.runtime import net_results
from streamgraph.streams import format_result

INF = float("inf")


def sgt(src, trg, label, ts, exp, origin, sign=1, payload=None):
    if payload is None:
        payload = ((src, label, trg),)
    return StreamTuple(src, trg, label, Interval(ts, exp), payload, sign, origin=origin)


A, B, C = Sym("a"), Sym("b"), Sym("c")


def stage(regex=Plus(Sym("RL")), label="RLP", payload="derived", at_root=False):
    return PathStage(build_dfa(regex), label, op_id=1, payload=payload,
                     at_root=at_root)


def tree_table(st, root):
    return {
        pair: ((n.ts, n.exp), n.parent)
        for pair, n in st.trees[root].nodes.items()
    }


# hand-traced fixture: nine derived edges, one source tree

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


def feed_trace(st, upto):
    out = []
    for i, (s, d, ts, exp) in enumerate(TRACE_EDGES):
        if ts > upto:
            break
        out += st.on_tuple(0, sgt(s, d, "RL", ts, exp, origin=i), ts)
    return out


def test_tree_after_first_five_edges():
    st = stage()
    feed_trace(st, 27)
    assert tree_table(st, "x") == {
        ("x", 0): ((-INF, INF), None),
        ("y", 1): ((20, 44), ("x", 0)),
        ("w", 1): ((21, 33), ("y", 1)),
        ("z", 1): ((22, 31), ("y", 1)),
        ("u", 1): ((23, 31), ("z", 1)),
        ("t", 1): ((24, 31), ("z", 1)),
    }


def test_tree_after_all_edges_reparents_onto_wider_path():
    st = stage()
    feed_trace(st, 30)
    table = tree_table(st, "x")
    # (u,1) moved under (y,1); its start is kept, its expiry grew
    assert table[("u", 1)] == ((23, 37), ("y", 1))
    assert table[("v", 1)] == ((28, 37), ("u", 1))
    assert table[("s", 1)] == ((29, 37), ("u", 1))
    # the last edge offers a narrower path to (v,1): no modification
    assert table[("w", 1)] == ((21, 33), ("y", 1))


def test_reparenting_reemits_grown_result():
    st = stage()
    out = feed_trace(st, 30)
    xu = [(t.ts, t.exp) for t in out if (t.src, t.trg) == ("x", "u") and t.sign > 0]
    assert xu == [(23, 31), (23, 37)]


def test_result_payload_lists_the_witness_path():
    st = stage()
    out = feed_trace(st, 30)
    yv = [t for t in out if (t.src, t.trg) == ("y", "v") and t.sign > 0]
    assert [t.payload for t in yv] == [(("y", "RL", "u"), ("u", "RL", "v"))]


def test_expanded_payload_concatenates_hop_payloads():
    st = stage(payload="expanded")
    base = (("p", "likes", "q"), ("r", "post", "q"))
    st.on_tuple(0, sgt("x", "y", "RL", 0, 9, 1, payload=base), 0)
    out = st.on_tuple(0, sgt("y", "z", "RL", 1, 9, 2, payload=(("m", "f", "n"),)), 1)
    xz = [t for t in out if (t.src, t.trg) == ("x", "z")]
    assert xz[0].payload == base + (("m", "f", "n"),)


def test_unknown_payload_mode_rejected():
    with pytest.raises(ValueError):
        stage(payload="verbose")


def test_empty_path_never_emitted():
    st = stage(Star(A), "P")
    out = st.on_tuple(0, sgt("x", "y", "a", 0, 9, 1), 0)
    assert {(t.src, t.trg) for t in out} == {("x", "y")}


def test_labels_outside_alphabet_are_ignored():
    st = stage(Plus(A), "P")
    assert st.on_tuple(0, sgt("x", "y", "zzz", 0, 9, 1), 0) == []
    assert st.adj == {}


# deletions


def test_deleting_non_tree_edge_changes_nothing():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "a", "a", 0, 30, 1), 0)
    st.on_tuple(0, sgt("a", "b", "a", 0, 20, 2), 0)
    st.on_tuple(0, sgt("r", "b", "a", 0, 10, 3), 0)  # narrower, not a tree edge
    before = tree_table(st, "r")
    assert st.on_tuple(0, sgt("r", "b", "a", 0, 10, 3, sign=-1), 5) == []
    assert tree_table(st, "r") == before


def test_deleting_tree_edge_reattaches_on_widest_alternative():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "a", "a", 0, 30, 1), 0)
    st.on_tuple(0, sgt("a", "b", "a", 0, 20, 2), 0)
    st.on_tuple(0, sgt("r", "b", "a", 0, 10, 3), 0)
    out = st.on_tuple(0, sgt("a", "b", "a", 0, 20, 2, sign=-1), 5)
    table = tree_table(st, "r")
    assert table[("b", 1)] == ((0, 10), ("r", 0))
    # the tree rooted at a loses its only witness; the shrunk result of
    # the tree rooted at r is re-advertised under its stable identity
    assert [(t.sign, t.src, t.trg, t.ts, t.exp) for t in out] == [
        (-1, "a", "b", 0, 20),
        (1, "r", "b", 0, 10),
    ]


def test_deleting_last_witness_retracts_the_result():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "a", "a", 0, 30, 1), 0)
    st.on_tuple(0, sgt("a", "b", "a", 0, 20, 2), 0)
    out = st.on_tuple(0, sgt("a", "b", "a", 0, 20, 2, sign=-1), 5)
    assert sorted((t.sign, t.src, t.trg) for t in out) == [
        (-1, "a", "b"),
        (-1, "r", "b"),
    ]
    assert ("b", 1) not in st.trees["r"].nodes


def test_delete_cascades_through_severed_subtree():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "a", "a", 0, 30, 1), 0)
    st.on_tuple(0, sgt("a", "b", "a", 0, 30, 2), 0)
    st.on_tuple(0, sgt("b", "c", "a", 0, 30, 3), 0)
    out = st.on_tuple(0, sgt("r", "a", "a", 0, 30, 1, sign=-1), 5)
    assert sorted((t.sign, t.trg) for t in out) == [(-1, "a"), (-1, "b"), (-1, "c")]
    assert ("r" not in st.trees) or len(st.trees["r"].nodes) == 1


def _net_payloads(outs):
    return {(t.src, t.trg): t.payload for t in net_results(outs)}


def test_repair_reemits_a_result_whose_witness_moved_on_the_same_interval():
    st = stage(Plus(A), "P")
    outs = []
    for o, (s, d) in enumerate([("r", "a"), ("a", "b"), ("r", "x"), ("x", "b")]):
        outs += st.on_tuple(0, sgt(s, d, "a", 0, 20, o), 0)
    outs += st.on_tuple(0, sgt("a", "b", "a", 0, 20, 1, sign=-1), 5)
    assert tree_table(st, "r")[("b", 1)] == ((0, 20), ("x", 1))
    assert _net_payloads(outs)[("r", "b")] == (("r", "a", "x"), ("x", "a", "b"))


def test_repair_reemits_results_below_a_moved_witness():
    """(c,1) keeps its parent, edge and interval, but its witness ran
    through the deleted edge too."""
    st = stage(Plus(A), "P")
    outs = []
    for o, (s, d) in enumerate([("r", "a"), ("a", "b"), ("b", "c"), ("r", "x"),
                                ("x", "b")]):
        outs += st.on_tuple(0, sgt(s, d, "a", 0, 20, o), 0)
    outs += st.on_tuple(0, sgt("a", "b", "a", 0, 20, 1, sign=-1), 5)
    assert _net_payloads(outs)[("r", "c")] == (
        ("r", "a", "x"), ("x", "a", "b"), ("b", "a", "c"))


def test_reparenting_reemits_results_below_the_moved_node():
    """(s,1) keeps its interval, capped by its own edge, when (u,1)
    moves under r; its witness moved with it, so once z->u is deleted
    the net result no longer runs through it."""
    st = stage(Plus(A), "P")
    outs = []
    for o, (s, d, exp) in enumerate([("r", "z", 10), ("z", "u", 20), ("u", "s", 5),
                                     ("r", "u", 15)]):
        outs += st.on_tuple(0, sgt(s, d, "a", 0, exp, o), 0)
    outs += st.on_tuple(0, sgt("z", "u", "a", 0, 20, 1, sign=-1), 1)
    assert _net_payloads(outs)[("r", "s")] == (("r", "a", "u"), ("u", "a", "s"))


def test_repair_keeps_the_first_witness_offered_on_equal_expiry():
    """(b,1) regrows over a->b and c->b, both of expiry 20: the edge
    offered first, from the node that entered the tree first, wins."""
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "b", "a", 0, 25, 1), 0)   # tree edge, widest
    st.on_tuple(0, sgt("r", "a", "a", 2, 20, 2), 2)
    st.on_tuple(0, sgt("r", "c", "a", 3, 20, 3), 3)
    st.on_tuple(0, sgt("a", "b", "a", 4, 20, 4), 4)
    st.on_tuple(0, sgt("c", "b", "a", 4, 20, 5), 4)
    st.on_tuple(0, sgt("r", "b", "a", 0, 25, 1, sign=-1), 5)
    (ts, exp), parent = tree_table(st, "r")[("b", 1)]
    assert exp == 20
    assert ts == 4 and parent == ("a", 1)


def test_deleting_an_edge_shared_by_several_trees_repairs_each():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "a", "a", 0, 30, 1), 0)
    st.on_tuple(0, sgt("q", "a", "a", 0, 30, 2), 0)
    st.on_tuple(0, sgt("a", "b", "a", 0, 25, 3), 0)  # tree edge of r, q and a
    st.on_tuple(0, sgt("b", "c", "a", 0, 25, 4), 0)
    st.on_tuple(0, sgt("r", "b", "a", 0, 10, 5), 0)  # narrower detour for r only
    assert all(st.trees[root].nodes[("b", 1)].via.origin == 3 for root in "rqa")
    out = st.on_tuple(0, sgt("a", "b", "a", 0, 25, 3, sign=-1), 5)
    # r reattaches b (and c below it) on its detour; q and a lose both
    assert tree_table(st, "r") == {
        ("r", 0): ((-INF, INF), None),
        ("a", 1): ((0, 30), ("r", 0)),
        ("b", 1): ((0, 10), ("r", 0)),
        ("c", 1): ((0, 10), ("b", 1)),
    }
    assert set(tree_table(st, "q")) == {("q", 0), ("a", 1)}
    assert "a" not in st.trees
    assert sorted((t.sign, t.src, t.trg, t.exp) for t in out) == [
        (-1, "a", "b", 25), (-1, "a", "c", 25),
        (-1, "q", "b", 25), (-1, "q", "c", 25),
        (1, "r", "b", 10), (1, "r", "c", 10),
    ]


def test_deleting_unknown_edge_warns_and_is_noop(caplog):
    st = stage(Plus(A), "P")
    with caplog.at_level("WARNING"):
        assert st.on_tuple(0, sgt("r", "a", "a", 0, 30, 7, sign=-1), 0) == []
    assert "ignored" in caplog.text


def test_deleting_an_unwindowed_edge_leaves_no_empty_bucket():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("x", "y", "a", 0, INF, origin=1), 0)
    st.on_tuple(0, sgt("x", "y", "a", 1, INF, origin=1, sign=-1), 1)
    st.on_watermark(10 ** 9)
    assert st.adj == {}
    assert st.trees == {} and st.inverted == {}
    assert len(st.adj_expiry) == 0


def test_insert_then_delete_equals_never_inserted():
    a = stage(Plus(Concat((A, B))), "P")
    b = stage(Plus(Concat((A, B))), "P")
    ops = [sgt("r", "u", "a", 0, 30, 1), sgt("u", "v", "b", 1, 25, 2),
           sgt("v", "w", "a", 2, 28, 3), sgt("w", "q", "b", 3, 26, 4)]
    extra = sgt("u", "q", "b", 1, 27, 9)
    for t in ops[:2] + [extra] + ops[2:]:
        a.on_tuple(0, t, t.ts)
        if t.origin != 9:
            b.on_tuple(0, t, t.ts)
    a.on_tuple(0, sgt("u", "q", "b", 1, 27, 9, sign=-1), 4)
    assert {r: tree_table(a, r) for r in a.trees} == {
        r: tree_table(b, r) for r in b.trees
    }


def _tree_state(st):
    return {
        root: {pair: (n.ts, n.exp, n.parent, n.payload,
                      None if n.via is None else n.via.origin)
               for pair, n in tree.nodes.items()}
        for root, tree in st.trees.items()
    }


@pytest.mark.parametrize("payload, new", [
    ("derived", sgt("y", "z", "a", 2, 10, 1)),
    ("expanded", sgt("y", "z", "a", 2, 10, 1, payload=(("y", "new", "z"),))),
    ("expanded", sgt("y", "z", "a", 0, 30, 1, payload=(("y", "new", "z"),))),
], ids=["derived-narrower", "expanded-narrower", "expanded-payload-only"])
def test_a_positive_under_a_held_origin_replaces_that_edge(payload, new):
    """An input below the root re-emits a result under the same origin
    with a new interval or payload.  The stage then holds the new edge
    alone: its trees and net results equal those of a fresh stage that
    was fed the new edge instead of the old one."""
    base = [sgt("x", "y", "a", 0, 20, 0), sgt("y", "z", "a", 1, 15, 2),
            sgt("z", "w", "a", 0, 25, 3)]
    old = sgt("y", "z", "a", 0, 30, 1, payload=(("y", "old", "z"),))
    st, fresh = stage(Plus(A), "P", payload), stage(Plus(A), "P", payload)
    outs = []
    for t in [old] + base + [new]:
        outs += st.on_tuple(0, t, 2)
    fresh_outs = []
    for t in base + [new]:
        fresh_outs += fresh.on_tuple(0, t, 2)
    assert _tree_state(st) == _tree_state(fresh)
    assert sorted(map(repr, net_results(outs))) == sorted(map(repr, net_results(fresh_outs)))
    assert st.adj == fresh.adj


def test_a_held_origin_replacement_regrows_its_results_without_retracting_them():
    """Replacing a held edge deletes it, with the repair, and inserts
    the new one.  The results that the deletion retracts and the
    insertion regrows are only re-emitted, under their origins, which
    replaces them downstream; a plain deletion still retracts them."""
    st = stage(Plus(A), "P")
    for t in (sgt("x", "y", "a", 0, 30, 1), sgt("y", "z", "a", 0, 30, 2)):
        st.on_tuple(0, t, 0)
    out = st.on_tuple(0, sgt("x", "y", "a", 0, 20, 1), 1)
    assert [(r.sign, r.src, r.trg, r.exp) for r in out] == [
        (1, "x", "y", 20), (1, "x", "z", 20)]
    out = st.on_tuple(0, sgt("x", "y", "a", 0, 20, 1, sign=-1), 2)
    assert [(r.sign, r.src, r.trg) for r in out] == [(-1, "x", "y"), (-1, "x", "z")]


# the root path: it writes the key-addressed log that a Coalesce above
# a path below the root would write


def _lines(outs):
    return [(format_result(t), t.origin) for t in outs]


def test_a_held_origin_replacement_at_the_root_continues_the_lines():
    """The results that the replacement's deletion retracts and its
    insertion regrows continue their lines: same origins, earlier starts
    kept, no ``-``."""
    st = stage(Plus(A), "P", at_root=True)
    first = st.on_tuple(0, sgt("x", "y", "a", 0, 30, 1), 0)
    first += st.on_tuple(0, sgt("y", "z", "a", 0, 30, 2), 0)
    origin = {(t.src, t.trg): t.origin for t in first}
    out = st.on_tuple(0, sgt("x", "y", "a", 1, 20, 1), 1)
    assert _lines(out) == [("+ x y P 0 20 x:a:y", origin["x", "y"]),
                           ("+ x z P 0 20 x:a:y;y:a:z", origin["x", "z"])]


def test_a_reparent_onto_a_parallel_edge_writes_no_line_in_derived_mode():
    """In derived mode a parallel edge gives the same payload, so a
    result regrown over it with the same interval changes nothing: the
    root writes no line, where a path below the root re-emits it."""
    below, root = stage(Plus(A), "P"), stage(Plus(A), "P", at_root=True)
    for st in (below, root):
        st.on_tuple(0, sgt("x", "y", "a", 0, 20, 1), 0)
        st.on_tuple(0, sgt("x", "y", "a", 1, 20, 2), 1)
    assert [(t.sign, t.ts, t.exp) for t in
            below.on_tuple(0, sgt("x", "y", "a", 2, 20, 1, sign=-1), 2)] == [(1, 1, 20)]
    assert root.on_tuple(0, sgt("x", "y", "a", 2, 20, 1, sign=-1), 2) == []
    assert root.trees["x"].nodes[("y", 1)].via.origin == 2


def _regrown_on_a_later_parallel_edge():
    st = stage(Plus(A), "P", at_root=True)
    [line] = st.on_tuple(0, sgt("x", "y", "a", 0, 20, 1), 0)
    st.on_tuple(0, sgt("x", "y", "a", 5, 15, 2), 5)
    out = st.on_tuple(0, sgt("x", "y", "a", 6, 20, 1, sign=-1), 6)
    return st, line, out


def test_a_regrown_result_keeps_its_lines_start():
    """The key was live throughout, so its line keeps its start, 0, and
    not its new witness's, 5, under the same origin."""
    st, line, out = _regrown_on_a_later_parallel_edge()
    assert _lines(out) == [("+ x y P 0 15 x:a:y", line.origin)]
    assert st.trees["x"].nodes[("y", 1)].ts == 5


def test_a_retraction_at_the_root_equals_the_live_line():
    """A ``-`` repeats the key's line as written, start and payload
    included, not the node's own interval."""
    st, _line, (regrown,) = _regrown_on_a_later_parallel_edge()
    out = st.on_tuple(0, sgt("x", "y", "a", 7, 15, 2, sign=-1), 7)
    assert _lines(out) == [("- x y P 0 15 x:a:y", regrown.origin)]
    assert (out[0].interval, out[0].payload) == (regrown.interval, regrown.payload)


def test_a_keys_second_run_gets_a_fresh_origin():
    """A run that ends by expiry and a later run of the same key are two
    lines under two origins, so a replay by origin keeps both."""
    st = stage(Plus(A), "P", at_root=True)
    first = st.on_tuple(0, sgt("x", "y", "a", 0, 10, 1), 0)
    st.on_watermark(10)
    second = st.on_tuple(0, sgt("x", "y", "a", 12, 22, 2), 12)
    assert first[0].origin != second[0].origin
    assert sorted(format_result(t) for t in net_results(first + second)) == [
        "+ x y P 0 10 x:a:y", "+ x y P 12 22 x:a:y"]


def _churn(seed, size, slide, payload, ops=600, vertices=7):
    """(now, tuple) pairs for one path input: windowed insertions,
    deletions of live ones, and positives under a held origin with a new
    interval or payload, as a join below the path re-emits them; a
    replacement's interval holds now and ends at the window's end of now
    or of its own start, if that is later than now."""
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(vertices)]
    live = {}
    for now in range(ops):
        live = {o: t for o, t in live.items() if t.exp > now}
        r = rng.random()
        if live and r < 0.35:
            t = live.pop(rng.choice(sorted(live)))
            yield now, sgt(t.src, t.trg, t.label, now, t.exp, t.origin, -1, t.payload)
            continue
        if live and r < 0.5:
            t = live[rng.choice(sorted(live))]
            src, trg, lab, o = t.src, t.trg, t.label, t.origin
            start = rng.choice([t.ts, now])
        else:
            src, trg = rng.sample(verts, 2)
            lab, o, start = rng.choice("ab"), now, now
        end = max(window_interval(rng.choice([start, now]), size, slide).end, now + 1)
        hop = (src, lab, trg) if payload == "derived" else (src, f"e{rng.randint(0, 2)}", trg)
        live[o] = sgt(src, trg, lab, start, end, o, payload=(hop,))
        yield now, live[o]


@pytest.mark.parametrize("payload", ["derived", "expanded"])
@pytest.mark.parametrize("window", [(40, 5), (7, 3)], ids=["40-5", "7-3"])
@pytest.mark.parametrize("regex", [
    Plus(A), Plus(Concat((A, B))), Plus(Alt((A, B))), Plus(Concat((A, A, B))),
], ids=render_regex)
def test_a_root_path_writes_what_a_coalesce_above_a_path_writes(regex, window, payload):
    """Differential: over deletion-heavy streams with held-origin
    replacements, a root path writes exactly the lines that a path below
    the root followed by a Coalesce writes, and its origins map one to
    one onto the Coalesce's, so a replay by origin agrees too.  In
    (a.a.b)+, label a leads to two states."""
    dfa = build_dfa(regex)
    retracted = suppressed = 0
    for seed in range(4):
        below = PathStage(dfa, "P", 1, payload)
        coalesce = CoalesceStage(2)
        root = PathStage(dfa, "P", 1, payload, at_root=True)
        want, got = [], []
        for now, t in _churn(seed, *window, payload):
            for st in (below, coalesce, root):
                st.on_watermark(now)
            results = below.on_tuple(0, t, now)
            for r in results:
                want += coalesce.on_tuple(0, r, now)
            suppressed += len(results)
            got += root.on_tuple(0, t, now)
            assert root.live_keys(now) == coalesce.live_keys(now)
        assert [format_result(t) for t in got] == [format_result(t) for t in want]
        renamed = {}
        assert all(renamed.setdefault(w.origin, g.origin) == g.origin
                   for w, g in zip(want, got))
        assert len(set(renamed.values())) == len(renamed)
        retracted += sum(t.sign < 0 for t in got)
        suppressed -= len(got)
    assert retracted > 0 and suppressed > 0


# expiry


def test_expired_nodes_are_treated_as_absent_and_rebuilt():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "a", "a", 0, 10, 1), 0)
    st.on_tuple(0, sgt("a", "b", "a", 0, 10, 2), 0)
    # the purge at 10 drops both trees and both edges; only the new tree
    # rooted at a emits
    st.on_watermark(10)
    assert st.trees == {} and st.adj == {}
    out = st.on_tuple(0, sgt("a", "c", "a", 12, 20, 3), 12)
    assert {(t.src, t.trg) for t in out} == {("a", "c")}
    # a fresh witness rebuilds (a,1) and reaches only live edges
    out = st.on_tuple(0, sgt("r", "a", "a", 12, 25, 4), 12)
    assert {(t.trg, t.ts, t.exp) for t in out} == {("a", 12, 25), ("c", 12, 20)}
    assert ("b", 1) not in st.trees["r"].nodes


def test_purge_removes_only_ended_state():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "a", "a", 0, 10, 1), 0)
    st.on_tuple(0, sgt("r", "b", "a", 0, 20, 2), 0)
    st.on_watermark(10)
    assert set(st.trees["r"].nodes) == {("r", 0), ("b", 1)}
    st.on_watermark(20)
    assert "r" not in st.trees
    assert st.adj.get("a", {}) == {}


def test_purge_is_silent_and_idempotent():
    st = stage(Plus(A), "P")
    st.on_tuple(0, sgt("r", "a", "a", 0, 10, 1), 0)
    st.on_watermark(10)
    st.on_watermark(10)
    st.on_watermark(12)
    assert "r" not in st.trees


# witness payloads


def walk_payload(st, tree, node):
    """Reference payload: a fresh walk up the parent chain."""
    hops = []
    while node.parent is not None:
        hops.append(node.via)
        node = tree.nodes[node.parent]
    hops.reverse()
    if st.payload_mode == "derived":
        return tuple((h.src, h.label, h.trg) for h in hops)
    return tuple(p for h in hops for p in h.payload)


def assert_payloads_fresh(st):
    """Every non-root node's payload equals the fresh walk, and its end
    is the earlier of its parent's and its witness edge's, which is what
    lets expiry find every ended node below an ended edge."""
    for root, tree in st.trees.items():
        for pair, node in tree.nodes.items():
            if pair != tree.root_pair:
                assert node.payload == walk_payload(st, tree, node), (root, pair)
                parent = tree.nodes[node.parent]
                assert node.exp == min(parent.exp, node.via.exp), (root, pair)


def test_reparenting_refreshes_cached_payloads_below():
    st = stage()
    for i, (s, d, ts, exp) in enumerate(TRACE_EDGES):
        st.on_tuple(0, sgt(s, d, "RL", ts, exp, origin=i), ts)
        assert_payloads_fresh(st)
    # (u,1) moved from under (z,1) to under (y,1) after (s,1) below it
    # took its payload; both now follow the wider path
    tree = st.trees["x"]
    assert tree.nodes[("s", 1)].payload == (
        ("x", "RL", "y"), ("y", "RL", "u"), ("u", "RL", "s"))


def test_repair_refreshes_cached_payloads_below():
    st = stage(Plus(A), "P", payload="expanded")
    for o, (s, d, exp) in enumerate([("r", "a", 30), ("a", "b", 25), ("b", "c", 25),
                                     ("r", "x", 20), ("x", "b", 20)]):
        st.on_tuple(0, sgt(s, d, "a", 0, exp, o, payload=((f"p{o}", "e", "q"),)), 0)
    assert_payloads_fresh(st)
    out = st.on_tuple(0, sgt("a", "b", "a", 0, 25, 1, sign=-1), 5)
    assert_payloads_fresh(st)
    rc = [t.payload for t in out if (t.src, t.trg, t.sign) == ("r", "c", 1)]
    assert rc == [(("p3", "e", "q"), ("p4", "e", "q"), ("p2", "e", "q"))]


@pytest.mark.parametrize("payload", ["derived", "expanded"])
@pytest.mark.parametrize("regex", [Plus(A), Plus(Concat((A, B))), Plus(Alt((A, B)))],
                         ids=render_regex)
def test_cached_payloads_match_parent_chain_walk(regex, payload):
    """Seeded insert/delete streams whose edges expire at varied
    instants, with a watermark before every operation."""
    for trial in range(6):
        rng = random.Random(100 * trial + zlib.crc32(render_regex(regex).encode()) % 100)
        st = stage(regex, "P", payload=payload)
        verts = [f"n{i}" for i in range(rng.randint(3, 6))]
        live, now = {}, 0
        for op in range(80):
            now += rng.randint(0, 2)
            st.on_watermark(now)
            live = {o: t for o, t in live.items() if t.exp > now}
            if live and rng.random() < 0.3:
                o = rng.choice(sorted(live))
                st.on_tuple(0, live.pop(o), now)
            else:
                s, d = rng.sample(verts, 2)
                lab, exp = rng.choice("ab"), now + rng.randint(1, 15)
                hop = ((f"{s}'", f"{lab}{op}", f"{d}'"),) * rng.randint(1, 2)
                t = sgt(s, d, lab, now, exp, op, payload=hop)
                live[op] = sgt(s, d, lab, now, exp, op, sign=-1, payload=hop)
                st.on_tuple(0, t, now)
            assert_payloads_fresh(st)


# randomized cross-check against the widest-validity fixpoint


def _oracle_state(live, dfa, trees, now):
    snap = [(s, d, lab, exp) for (s, d, lab, ts, exp) in live.values() if exp > now]
    expected_results = set()
    for root, tree in trees.items():
        best = widest_validity(snap, dfa, root)
        for pair, n in tree.nodes.items():
            if pair != tree.root_pair:
                assert best.get(pair) == n.exp, (root, pair)
        for pair, w in best.items():
            if pair != tree.root_pair and w > now:
                assert pair in tree.nodes, (root, pair)
        for (v, q), w in best.items():
            if q in dfa.accepting and w > now and (v, q) != tree.root_pair:
                expected_results.add((root, v))
    return expected_results


@pytest.mark.parametrize(
    "regex", [Plus(A), Plus(Concat((A, B))), Plus(Concat((A, B, C))), Plus(Alt((A, B))),
              Plus(Concat((A, Alt((B, C)))))],
    ids=render_regex,
)
def test_random_ops_preserve_widest_validity_invariant(regex):
    dfa = build_dfa(regex)
    for trial in range(8):
        rng = random.Random(1000 * trial + zlib.crc32(render_regex(regex).encode()) % 1000)
        st = PathStage(dfa, "P", 1)
        verts = [f"n{i}" for i in range(rng.randint(3, 8))]
        live, emitted, now = {}, {}, 0
        for op in range(60):
            now += rng.randint(0, 2)
            st.on_watermark(now)
            # expiry through ended edges leaves no ended node behind
            assert not [(r, p) for r, tree in st.trees.items()
                        for p, n in tree.nodes.items() if n.exp <= now]
            if live and rng.random() < 0.35:
                o = rng.choice(sorted(live))
                s, d, lab, ts, exp = live.pop(o)
                outs = st.on_tuple(0, sgt(s, d, lab, ts, exp, o, sign=-1), now)
            else:
                s, d = rng.sample(verts, 2)
                lab, exp, o = rng.choice("abc"), now + rng.randint(1, 15), op
                live[o] = (s, d, lab, now, exp)
                outs = st.on_tuple(0, sgt(s, d, lab, now, exp, o), now)
            assert len({r.origin for r in outs}) == len(outs)
            assert_payloads_fresh(st)
            for r in outs:
                if r.sign > 0:
                    emitted[r.origin] = r
                else:
                    emitted.pop(r.origin, None)
            for r in emitted.values():
                if r.exp > now:
                    _p, _id, root, v, q = r.origin
                    tree = st.trees[root]
                    assert r.payload == walk_payload(st, tree, tree.nodes[(v, q)])
            if op % 6 == 0 or op == 59:
                want = _oracle_state(live, dfa, st.trees, now)
                got = {
                    (r.src, r.trg)
                    for r in emitted.values()
                    if r.exp > now and r.ts <= now
                }
                assert got == want
