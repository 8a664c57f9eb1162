"""Incremental evaluation of regular path navigation.

For every source vertex x the stage maintains a spanning tree over
(vertex, automaton state) pairs: pair (u, s) is in the tree of x exactly
when some path x -> u in the current snapshot spells a word driving the
automaton from its start state to s.  Each tree node records the widest
validity interval over such paths, where a path is valid while all of
its edges are: its interval starts at the latest edge start and ends at
the earliest edge expiry.  Nodes in accepting states are results.

The tree keeps, via parent links, one witness path per node, always a
widest one.  Every node n and edge e out of it satisfy
child.exp >= min(n.exp, e.exp), so an insertion relaxes only the new
edge, from each node (src, s) it leaves, through the transition its
label takes from s.  A child that is missing is added; one whose
recorded expiry grows is re-parented onto the better path; either is
expanded over all of its out-edges, and so on down.  A re-parented
node's witness changes, and so do those of all the nodes below it, even
where their intervals stay.  Once the relaxation ends, each node whose
witness changed is emitted once, if it is accepting.

Deleting a tree edge severs a subtree.  A node reached over edge e sits
at (e.trg, the state e's label leads to), so the pair index finds every
tree that uses e.  The subtree is removed and regrown by the relaxation
insertions use: every edge from an intact node into a removed pair is
offered, widest first.  Removing the subtree leaves exactly those edges
breaking the invariant above, so relaxing them yields the widest tree
again.  Every regrown node is new, so its result is emitted once with
its new witness; a removed result that does not come back is retracted.

An input below the plan's root may re-emit an edge under a held origin
with a new interval or payload: the held edge is deleted, with the
repair above, and the new one inserted; a result retracted and regrown
so is only re-emitted, as every consumer replaces by origin.

A root Path with one accepting state (``at_root``) maps its accepting
nodes one-to-one onto keys and writes the key-addressed log itself.  Each
accepting node keeps ``line``, the last tuple written for its key, and
writes a result only if interval or payload differ, from the earlier
start, under the line's origin; a key draws a fresh origin only when a
run of it starts.  A node regrown by a repair or a held-origin
replacement continues its line; a result that does not come back
retracts the line as written.

Expiry is a deletion that does not regrow.  The driver purges at every
instant an interval can end, before any input at that instant (see
runtime.py), so nothing here meets a node or an edge that has ended.
The one calendar index (``ExpiryIndex``, keyed by end value) hands back
exactly the adjacency edges filed under an end the watermark has
passed.  Once a relaxation ends, every node keeps
node.exp == min(parent.exp, via.exp), so a node that has ended came in
over an ended edge or hangs below one that did: dropping the subtree
below every node reached over an ended edge drops exactly the ended
nodes, silently, at a cost of O(expired), not O(state).  Only explicit
deletions retract results.

A node's start is its witness's start when it enters the tree, and the
earlier of its old start and the new witness's start when an insertion
re-parents it onto a wider path.

Every node carries the payload of its witness path: its parent's
payload plus the hop its own edge adds.  It is set whenever the witness
is: when the node is added, and on a re-parent, for the node and every
node below it, parents before children.  A removed node takes its
subtree with it, so no payload outlives its path, and siblings share
their parent's hops.
"""

from __future__ import annotations

import logging

from streamgraph.automata import Dfa
from streamgraph.model import ExpiryIndex, Interval, StreamTuple

log = logging.getLogger(__name__)

Pair = tuple[str, int]


class TreeNode:
    """A (vertex, state) pair of one spanning tree, with its widest
    interval and witness: the edge ``via`` from ``parent``, and the
    witness path's ``payload``."""

    __slots__ = (
        "vertex", "state", "pair", "ts", "exp", "parent", "via", "children",
        "payload", "line",
    )

    def __init__(
        self, vertex: str, state: int, ts: float, exp: float,
        parent: Pair | None = None, via: StreamTuple | None = None,
        payload: tuple = (),
    ) -> None:
        self.vertex = vertex
        self.state = state
        self.pair: Pair = (vertex, state)
        self.ts = ts
        self.exp = exp
        self.parent = parent
        self.via = via
        self.children: set[Pair] = set()
        self.payload = payload
        self.line: StreamTuple | None = None  # at the root: interval, payload, origin


class SpanningTree:
    def __init__(self, root: str, start_state: int):
        self.root = root
        self.root_pair: Pair = (root, start_state)
        self.nodes: dict[Pair, TreeNode] = {
            self.root_pair: TreeNode(root, start_state, float("-inf"), float("inf"))
        }


class PathStage:
    """Signed-stream operator evaluating one automaton over its inputs."""

    def __init__(self, dfa: Dfa, label: str, op_id: int = 0,
                 payload: str = "derived", at_root: bool = False):
        if payload not in ("derived", "expanded"):
            raise ValueError(f"unknown payload mode {payload!r}")
        if at_root and len(dfa.accepting) != 1:
            raise ValueError("a root path needs exactly one accepting state")
        self.dfa = dfa
        self.label = label
        self.op_id = op_id
        self.payload_mode = payload
        self.at_root = at_root
        self.runs = 0  # fresh origins drawn at the root, one per run of a key
        self.out_trans: dict[int, list[tuple[str, int]]] = {}
        self.by_label: dict[str, list[tuple[int, int]]] = {}
        for (s, lab), t in sorted(dfa.transitions.items()):
            self.out_trans.setdefault(s, []).append((lab, t))
            self.by_label.setdefault(lab, []).append((s, t))
        # label -> the states it leads to, where a node reached over it sits
        self.targets = {lab: sorted({t for _s, t in pairs})
                        for lab, pairs in self.by_label.items()}
        # adjacency over the automaton alphabet: label -> src -> origin -> sgt
        self.adj: dict[str, dict[str, dict[object, StreamTuple]]] = {}
        self.trees: dict[str, SpanningTree] = {}
        # pair -> root -> the node at pair in the tree of root, in
        # insertion order, so that relaxation order never follows string
        # hashing
        self.inverted: dict[Pair, dict[str, TreeNode]] = {}
        # (label, src, origin) per adjacency edge, by end
        self.adj_expiry = ExpiryIndex()

    # Bookkeeping helpers keep nodes and the pair index in lockstep.

    def _add_node(self, tree: SpanningTree, node: TreeNode) -> None:
        tree.nodes[node.pair] = node
        self.inverted.setdefault(node.pair, {})[tree.root] = node
        tree.nodes[node.parent].children.add(node.pair)

    def _drop_subtree(self, tree: SpanningTree, pair: Pair) -> dict[Pair, TreeNode]:
        """Remove the node at pair and everything below it, silently;
        returns the removed nodes by pair."""
        nodes, inverted, root = tree.nodes, self.inverted, tree.root
        parent = nodes.get(nodes[pair].parent)  # None at the root
        if parent is not None:
            parent.children.discard(pair)
        removed: dict[Pair, TreeNode] = {}
        stack = [pair]
        while stack:
            p = stack.pop()
            node = removed[p] = nodes.pop(p)
            stack += node.children
            roots = inverted[p]
            del roots[root]
            if not roots:
                del inverted[p]
        return removed

    def _reached_over(self, e: StreamTuple) -> list[tuple[str, Pair]]:
        """(root, pair) of every tree node whose witness ends in edge e:
        each sits at (e.trg, a state e's label leads to)."""
        found = []
        for t2 in self.targets[e.label]:
            pair = (e.trg, t2)
            for root, node in self.inverted.get(pair, {}).items():
                via = node.via
                if via is not None and via.origin == e.origin:
                    found.append((root, pair))
        return found

    def _hop(self, e: StreamTuple) -> tuple:
        """What edge e adds to the payload of a path through it."""
        return ((e.src, e.label, e.trg),) if self.payload_mode == "derived" else e.payload

    def _result(self, tree: SpanningTree, node: TreeNode, sign: int) -> StreamTuple:
        if (line := node.line) is not None:  # at the root: retract the line as written
            return StreamTuple(*line.key, line.interval, line.payload, -1, line.origin)
        return StreamTuple(
            tree.root,
            node.vertex,
            self.label,
            Interval(node.ts, node.exp),
            node.payload if sign > 0 else (),
            sign,
            origin=("p", self.op_id, tree.root, node.vertex, node.state),
        )

    # Insertion: relax the new edge from every tree node it can extend;
    # only nodes whose interval grows are expanded further.

    def insert(self, t: StreamTuple, lines: dict | None = None) -> list[StreamTuple]:
        if t.label not in self.by_label:
            return []
        bucket = self.adj.setdefault(t.label, {}).setdefault(t.src, {})
        bucket[t.origin] = t
        self.adj_expiry.add(t.exp, (t.label, t.src, t.origin))
        changed: dict[TreeNode, SpanningTree] = {}
        for s, t2 in self.by_label[t.label]:
            if s == self.dfa.start and t.src not in self.trees:
                tree = self.trees[t.src] = SpanningTree(t.src, s)
                self.inverted.setdefault((t.src, s), {})[t.src] = tree.nodes[(t.src, s)]
            for root, node in list(self.inverted.get((t.src, s), {}).items()):
                self._relax(self.trees[root], node, t, t2, changed)
        return self._emit(changed, lines)

    def _relax(
        self, tree: SpanningTree, node: TreeNode, t: StreamTuple, t2: int,
        changed: dict[TreeNode, SpanningTree],
    ) -> None:
        """Offer edge t out of a node, then expand every node whose
        interval grows over all of its out-edges.  The other edges out of
        a node whose interval did not grow are no-ops: nodes keep
        child.exp >= min(node.exp, e.exp) for every edge e.

        An offer of edge e adds the child it reaches or, when its
        interval grows, re-parents it; either way the child is pushed for
        expansion.  Every node whose witness changed is recorded in
        changed, with its tree: an added or re-parented node, and every
        node below a re-parented one, whose witness runs through it.
        Each of them takes its parent's payload plus its own hop, parents
        before children."""
        nodes = tree.nodes
        out_trans, adj = self.out_trans, self.adj
        stack: list[Pair] = []
        offers = (((t,), t2),)
        while True:
            ts, exp = node.ts, node.exp
            for edges, t2 in offers:
                for e in edges:
                    e_ts, e_exp = e.interval
                    cand_exp = e_exp if e_exp < exp else exp
                    cand_ts = e_ts if e_ts > ts else ts
                    child_pair = (e.trg, t2)
                    child = nodes.get(child_pair)
                    if child is None:
                        child = TreeNode(e.trg, t2, cand_ts, cand_exp, node.pair, e,
                                         node.payload + self._hop(e))
                        self._add_node(tree, child)
                        changed[child] = tree
                    elif child.exp < cand_exp:
                        nodes[child.parent].children.discard(child_pair)
                        node.children.add(child_pair)
                        child.parent, child.via = node.pair, e
                        child.exp = cand_exp
                        if cand_ts < child.ts:
                            child.ts = cand_ts
                        below = [child_pair]
                        while below:
                            n = nodes[below.pop()]
                            n.payload = nodes[n.parent].payload + self._hop(n.via)
                            changed[n] = tree
                            below += sorted(n.children, reverse=True)
                    else:
                        continue
                    stack.append(child_pair)
            if not stack:
                return
            node = nodes[stack.pop()]
            offers = []
            for lab, t2 in out_trans.get(node.state, ()):
                bucket = adj.get(lab, {}).get(node.vertex)
                if bucket:
                    offers.append((bucket.values(), t2))

    def _emit(self, changed: dict[TreeNode, SpanningTree], lines=None) -> list[StreamTuple]:
        """The result of each changed node that is accepting, once, with
        the witness it has after the whole relaxation.  At the root, only
        a changed line is written, and a node without a line continues
        the one ``lines`` holds for its key, if any, taking it out."""
        accepting = self.dfa.accepting
        if not self.at_root:
            return [self._result(tree, node, 1) for node, tree in changed.items()
                    if node.state in accepting]
        out = []
        for node, tree in changed.items():
            if node.state not in accepting:
                continue
            line = node.line or (lines or {}).pop((tree.root, node.vertex), None)
            if line is None:  # a run of the key starts
                self.runs += 1
                iv, origin = Interval(node.ts, node.exp), ("p", self.op_id, self.runs)
            else:
                iv = Interval(min(node.ts, line.interval.start), node.exp)
                origin = line.origin
                if iv == line.interval and node.payload == line.payload:
                    node.line = line
                    continue
            node.line = StreamTuple(tree.root, node.vertex, self.label, iv,
                                    node.payload, 1, origin)
            out.append(node.line)
        return out

    # Deletion: non-tree edges only leave the adjacency; tree edges sever
    # a subtree that is then removed and regrown by relaxation.

    def delete(self, t: StreamTuple) -> list[StreamTuple]:
        per_src = self.adj.get(t.label, {})
        bucket = per_src.get(t.src)
        if bucket is None or bucket.pop(t.origin, None) is None:
            if t.label in self.by_label:
                log.warning("deletion of unknown path edge %r ignored", t.origin)
            return []
        # unwindowed edges are never filed for expiry, so no purge would
        # come back for an emptied bucket
        self._drop_if_empty(t.label, per_src, t.src)
        out: list[StreamTuple] = []
        for root, pair in sorted(self._reached_over(t)):
            # an earlier repair may have removed the tree, or the node,
            # or regrown it over another edge
            tree = self.trees.get(root)
            node = tree.nodes.get(pair) if tree is not None else None
            if node is not None and node.via.origin == t.origin:
                self._repair(tree, pair, out)
        return out

    def _repair(self, tree: SpanningTree, severed: Pair, out) -> None:
        """Remove the severed subtree, then regrow it by relaxing every
        edge from an intact node into a removed pair, widest first;
        removed results that do not come back are retracted."""
        removed = self._drop_subtree(tree, severed)
        seeds = []
        for node in tree.nodes.values():
            for lab, t2 in self.out_trans.get(node.state, ()):
                for e in self.adj.get(lab, {}).get(node.vertex, {}).values():
                    if (e.trg, t2) in removed:
                        seeds.append((min(node.exp, e.exp), node, e, t2))
        seeds.sort(key=lambda seed: seed[0], reverse=True)
        changed: dict[TreeNode, SpanningTree] = {}
        for _w, node, e, t2 in seeds:
            self._relax(tree, node, e, t2, changed)
        for pair in sorted(removed):
            node = removed[pair]
            if node.state in self.dfa.accepting:
                back = tree.nodes.get(pair)
                if back is None:
                    out.append(self._result(tree, node, -1))
                else:  # at the root, a regrown result continues its line
                    back.line = node.line
        out += self._emit(changed)
        if len(tree.nodes) == 1:
            self._remove_tree(tree)

    def _remove_tree(self, tree: SpanningTree) -> None:
        roots = self.inverted[tree.root_pair]
        del roots[tree.root]
        if not roots:
            del self.inverted[tree.root_pair]
        del self.trees[tree.root]

    # Watermark sweep: drops only state that ended at or before the
    # watermark, silently: every ended edge, and the subtree below every
    # node reached over it, and then any tree left with only its root.

    def on_watermark(self, w: int) -> None:
        for lab, src, origin in self.adj_expiry.expired(w):
            per_src = self.adj.get(lab)
            bucket = per_src.get(src) if per_src is not None else None
            if bucket is None:
                continue
            e = bucket.get(origin)
            if e is not None and e.exp <= w:
                del bucket[origin]
                for root, pair in self._reached_over(e):
                    # an earlier drop may have taken the node and its tree
                    tree = self.trees.get(root)
                    if tree is not None and pair in tree.nodes:
                        self._drop_subtree(tree, pair)
                        if len(tree.nodes) == 1:
                            self._remove_tree(tree)
            self._drop_if_empty(lab, per_src, src)

    def _drop_if_empty(self, label: str, per_src: dict, src: str) -> None:
        """Drop an adjacency bucket once empty, and its label's dict too."""
        if not per_src[src]:
            del per_src[src]
            if not per_src:
                del self.adj[label]

    # Stage protocol.

    def live_keys(self, t: int) -> set[tuple[str, str, str]]:
        """Keys whose written line holds instant t; at the root only."""
        return {line.key for tree in self.trees.values() for node in tree.nodes.values()
                if (line := node.line) is not None and line.interval.contains(t)}

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        if t.sign < 0:
            return self.delete(t)
        if t.origin not in self.adj.get(t.label, {}).get(t.src, ()):
            return self.insert(t)
        # a positive under a held origin replaces that edge; a result it
        # retracts and regrows is only re-emitted, which replaces it
        gone = self.delete(t)
        if self.at_root:  # a regrown result continues its retracted line
            lines = {(r.src, r.trg): r for r in gone if r.sign < 0}
            grown = self.insert(t, lines)
            return [r for r in gone if r.sign > 0 or (r.src, r.trg) in lines] + grown
        grown = self.insert(t)
        back = {r.origin for r in grown}
        return [r for r in gone if r.sign > 0 or r.origin not in back] + grown
