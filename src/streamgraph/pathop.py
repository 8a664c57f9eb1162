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

The driver purges at every instant an interval can end, before any
input at that instant (see runtime.py), so nothing here meets a node or
an edge that has ended.  Two calendar indexes (``ExpiryIndex``, keyed
by end value) hand back exactly the tree nodes and adjacency edges filed
under an end the watermark has passed, so the sweep costs O(expired),
not O(state).  Expiry drops state silently; only explicit deletions
retract results.

Deleting a tree edge severs a subtree.  A node reached over edge e sits
at (e.trg, the state e's label leads to), so the pair index finds every
tree that uses e.  The subtree is removed, as expiry removes one, and
regrown by the relaxation insertions use: every edge from an intact
node into a removed pair is offered, widest first.  Removing the
subtree leaves exactly those edges breaking the invariant above, so
relaxing them yields the widest tree again.  Every regrown node is new,
so its result is emitted once with its new witness; a removed result
that does not come back is retracted.

A node's start is its witness's start when it enters the tree, and the
earlier of its old start and the new witness's start when an insertion
re-parents it onto a wider path.

Every node caches the payload of its witness path, stamped with the
version of its tree; the tree's version goes up on every re-parent,
which is the only way an existing node's path can change, and a stale
stamp makes the payload be rebuilt from the nearest ancestor whose stamp
is current.  Nothing else can leave a stale cache behind: a new node is
a leaf, a removed node takes its subtree with it, and since no node
outlives its parent (child.exp <= parent.exp), an expired node's subtree
expires with it.  So a result whose parent's stamp is current costs one
new payload tuple, the parent's one hop longer, and siblings share the
parent's hops.
"""

from __future__ import annotations

import logging

from streamgraph.automata import Dfa
from streamgraph.model import ExpiryIndex, Interval, StreamTuple

log = logging.getLogger(__name__)

Pair = tuple[str, int]


class TreeNode:
    """A (vertex, state) pair of one spanning tree, with its widest
    interval and witness: the edge ``via`` from ``parent``.  ``payload``
    is the witness path's payload when ``pver`` equals the tree's
    version."""

    __slots__ = (
        "vertex", "state", "pair", "ts", "exp", "parent", "via", "children",
        "payload", "pver",
    )

    def __init__(
        self, vertex: str, state: int, ts: float, exp: float,
        parent: Pair | None = None, via: StreamTuple | None = None,
    ) -> None:
        self.vertex = vertex
        self.state = state
        self.pair: Pair = (vertex, state)
        self.ts = ts
        self.exp = exp
        self.parent = parent
        self.via = via
        self.children: set[Pair] = set()
        self.payload: tuple = ()
        self.pver = -1


class SpanningTree:
    def __init__(self, root: str, start_state: int):
        self.root = root
        self.root_pair: Pair = (root, start_state)
        self.nodes: dict[Pair, TreeNode] = {
            self.root_pair: TreeNode(root, start_state, float("-inf"), float("inf"))
        }
        # bumped on every re-parent; stamps cached payloads
        self.version = 0


class PathStage:
    """Signed-stream operator evaluating one automaton over its inputs."""

    def __init__(self, dfa: Dfa, label: str, op_id: int = 0, payload: str = "derived"):
        if payload not in ("derived", "expanded"):
            raise ValueError(f"unknown payload mode {payload!r}")
        self.dfa = dfa
        self.label = label
        self.op_id = op_id
        self.payload_mode = payload
        self.out_trans: dict[int, list[tuple[str, int]]] = {}
        self.by_label: dict[str, list[tuple[int, int]]] = {}
        for (s, lab), t in sorted(dfa.transitions.items()):
            self.out_trans.setdefault(s, []).append((lab, t))
            self.by_label.setdefault(lab, []).append((s, t))
        # adjacency over the automaton alphabet: label -> src -> origin -> sgt
        self.adj: dict[str, dict[str, dict[object, StreamTuple]]] = {}
        self.trees: dict[str, SpanningTree] = {}
        # pair -> roots of the trees holding it, in insertion order, so
        # that relaxation order never follows string hashing
        self.inverted: dict[Pair, dict[str, None]] = {}
        # expiry hints: (root, pair) per node expiry, (label, src, origin)
        # per adjacency edge
        self.node_expiry = ExpiryIndex()
        self.adj_expiry = ExpiryIndex()

    # Bookkeeping helpers keep nodes and the pair index in lockstep.

    def _add_node(self, tree: SpanningTree, node: TreeNode) -> None:
        tree.nodes[node.pair] = node
        self.inverted.setdefault(node.pair, {})[tree.root] = None
        if node.parent is not None:
            tree.nodes[node.parent].children.add(node.pair)
        self.node_expiry.add(node.exp, (tree.root, node.pair))

    def _set_parent(
        self, tree: SpanningTree, node: TreeNode, parent: Pair, via: StreamTuple
    ) -> None:
        tree.nodes[node.parent].children.discard(node.pair)
        node.parent = parent
        node.via = via
        tree.nodes[parent].children.add(node.pair)
        tree.version += 1

    def _remove_node(self, tree: SpanningTree, pair: Pair) -> None:
        node = tree.nodes.pop(pair)
        if node.parent is not None:
            parent = tree.nodes.get(node.parent)
            if parent is not None:
                parent.children.discard(pair)
        roots = self.inverted.get(pair)
        if roots is not None:
            roots.pop(tree.root, None)
            if not roots:
                del self.inverted[pair]

    def _drop_subtree(self, tree: SpanningTree, pair: Pair) -> dict[Pair, TreeNode]:
        """Remove the node at pair and everything below it, silently;
        returns the removed nodes by pair."""
        removed: dict[Pair, TreeNode] = {}
        stack = [pair]
        while stack:
            p = stack.pop()
            node = tree.nodes.get(p)
            if node is None:
                continue
            stack.extend(node.children)
            self._remove_node(tree, p)
            removed[p] = node
        return removed

    def _path_payload(self, tree: SpanningTree, node: TreeNode) -> tuple:
        """The payload of node's witness path, from the nearest cached
        ancestor (the root's payload is empty), caching it on the way."""
        version = tree.version
        chain: list[TreeNode] = []
        while node.pver != version and node.parent is not None:
            chain.append(node)
            node = tree.nodes[node.parent]
        payload = node.payload
        derived = self.payload_mode == "derived"
        for node in reversed(chain):
            h = node.via
            payload += ((h.src, h.label, h.trg),) if derived else h.payload
            node.payload = payload
            node.pver = version
        return payload

    def _result(self, tree: SpanningTree, node: TreeNode, sign: int) -> StreamTuple:
        return StreamTuple(
            tree.root,
            node.vertex,
            self.label,
            Interval(node.ts, node.exp),
            self._path_payload(tree, node) if sign > 0 else (),
            sign,
            origin=("p", self.op_id, tree.root, node.vertex, node.state),
        )

    # Insertion: relax the new edge from every tree node it can extend;
    # only nodes whose interval grows are expanded further.

    def insert(self, t: StreamTuple) -> list[StreamTuple]:
        if t.label not in self.by_label:
            return []
        bucket = self.adj.setdefault(t.label, {}).setdefault(t.src, {})
        bucket[t.origin] = t
        self.adj_expiry.add(t.exp, (t.label, t.src, t.origin))
        changed: dict[TreeNode, SpanningTree] = {}
        for s, t2 in self.by_label[t.label]:
            if s == self.dfa.start and t.src not in self.trees:
                self.trees[t.src] = SpanningTree(t.src, self.dfa.start)
                self.inverted.setdefault((t.src, s), {})[t.src] = None
            for root in list(self.inverted.get((t.src, s), ())):
                tree = self.trees[root]
                self._relax(tree, tree.nodes[(t.src, s)], t, t2, changed)
        return self._emit(changed)

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
        node below a re-parented one, whose witness runs through it."""
        nodes = tree.nodes
        root = tree.root
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
                        child = TreeNode(e.trg, t2, cand_ts, cand_exp, node.pair, e)
                        self._add_node(tree, child)
                        changed[child] = tree
                    elif child.exp < cand_exp:
                        self._set_parent(tree, child, node.pair, e)
                        child.exp = cand_exp
                        if cand_ts < child.ts:
                            child.ts = cand_ts
                        self.node_expiry.add(cand_exp, (root, child_pair))
                        below = [child_pair]
                        while below:
                            n = nodes[below.pop()]
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

    def _emit(self, changed: dict[TreeNode, SpanningTree]) -> list[StreamTuple]:
        """The result of each changed node that is accepting, once, with
        the witness it has after the whole relaxation."""
        accepting = self.dfa.accepting
        return [
            self._result(tree, node, 1) for node, tree in changed.items()
            if node.state in accepting
        ]

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
        # a node reached over t sits at (t.trg, a state t's label leads to)
        severed = []
        for t2 in {t2 for _s, t2 in self.by_label[t.label]}:
            pair = (t.trg, t2)
            for root in self.inverted.get(pair, ()):
                via = self.trees[root].nodes[pair].via
                if via is not None and via.origin == t.origin:
                    severed.append((root, pair))
        out: list[StreamTuple] = []
        for root, pair in sorted(severed):
            tree = self.trees.get(root)
            if tree is None:
                continue
            node = tree.nodes.get(pair)
            if node is None or node.via is None or node.via.origin != t.origin:
                continue
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
            if pair not in tree.nodes and node.state in self.dfa.accepting:
                out.append(self._result(tree, node, -1))
        out += self._emit(changed)
        if len(tree.nodes) == 1:
            self._remove_tree(tree)

    def _remove_tree(self, tree: SpanningTree) -> None:
        roots = self.inverted.get(tree.root_pair)
        if roots is not None:
            roots.pop(tree.root, None)
            if not roots:
                del self.inverted[tree.root_pair]
        del self.trees[tree.root]

    # Watermark sweep; drops only state that ended at or before the
    # watermark, silently, in end order and then filing order.

    def on_watermark(self, w: int) -> None:
        touched: set[str] = set()
        for root, pair in self.node_expiry.expired(w):
            tree = self.trees.get(root)
            if tree is None:
                continue
            node = tree.nodes.get(pair)
            if node is not None and node.exp <= w:
                self._remove_node(tree, pair)
                touched.add(root)
        for root in touched:
            tree = self.trees.get(root)
            if tree is not None and len(tree.nodes) == 1:
                self._remove_tree(tree)
        for lab, src, origin in self.adj_expiry.expired(w):
            per_src = self.adj.get(lab)
            bucket = per_src.get(src) if per_src is not None else None
            if bucket is None:
                continue
            e = bucket.get(origin)
            if e is not None and e.exp <= w:
                del bucket[origin]
            self._drop_if_empty(lab, per_src, src)

    def _drop_if_empty(self, label: str, per_src: dict, src: str) -> None:
        """Drop an adjacency bucket once empty, and its label's dict too."""
        if not per_src[src]:
            del per_src[src]
            if not per_src:
                del self.adj[label]

    # Stage protocol.

    def on_tuple(self, port: int, t: StreamTuple, now: int) -> list[StreamTuple]:
        if t.sign > 0:
            return self.insert(t)
        return self.delete(t)
