"""Incremental evaluation of regular path navigation.

For every source vertex x the stage maintains a spanning tree over
(vertex, automaton state) pairs: pair (u, s) is in the tree of x exactly
when some path x -> u in the current snapshot spells a word driving the
automaton from its start state to s.  Each tree node records the widest
validity interval over such paths, where a path is valid while all of
its edges are: its interval starts at the latest edge start and ends at
the earliest edge expiry.  Nodes in accepting states are results.

The tree keeps, via parent links, one witness path per node, always a
widest one.  Every live node n and live edge e out of it satisfy
child.exp >= min(n.exp, e.exp), so an insertion relaxes only the new
edge, from each node (src, s) it leaves, through the transition its
label takes from s.  A child that is missing is added; one whose
recorded expiry grows is re-parented onto the better path; either is
re-emitted and then expanded over all of its out-edges, and so on down.
Expired nodes are treated as absent wherever they are touched, and
expired edges are skipped where they are met: both linger until the
next slide boundary, where two calendar indexes (``ExpiryIndex``, keyed
by end value) hand back exactly the tree nodes and adjacency edges filed
under an end the watermark has passed, so the sweep costs O(expired),
not O(state).  Expiry drops state silently; only explicit deletions
retract results.

Deleting a tree edge severs a subtree.  A node reached over edge e sits
at (e.trg, the state e's label leads to), so the pair index finds every
tree that uses e.  The subtree is recomputed with a widest-expiry first
search seeded from the intact remainder of the tree (largest expiry
first, ties by smaller start, then vertex, then state).  Reattached
nodes keep their identity; unreachable nodes are removed and, when
accepting, retracted.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field

from streamgraph.automata import Dfa
from streamgraph.model import ExpiryIndex, Interval, StreamTuple

log = logging.getLogger(__name__)

Pair = tuple[str, int]


@dataclass(slots=True)
class TreeNode:
    vertex: str
    state: int
    ts: float
    exp: float
    parent: Pair | None = None
    via: StreamTuple | None = None
    children: set[Pair] = field(default_factory=set)

    @property
    def pair(self) -> Pair:
        return (self.vertex, self.state)


class SpanningTree:
    def __init__(self, root: str, start_state: int):
        self.root = root
        self.root_pair: Pair = (root, start_state)
        self.nodes: dict[Pair, TreeNode] = {
            self.root_pair: TreeNode(root, start_state, float("-inf"), float("inf"))
        }


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
        self._seq = 0

    # Bookkeeping helpers keep nodes and the pair index in lockstep.

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def _add_node(self, tree: SpanningTree, node: TreeNode) -> None:
        tree.nodes[node.pair] = node
        self.inverted.setdefault(node.pair, {})[tree.root] = None
        if node.parent is not None:
            tree.nodes[node.parent].children.add(node.pair)
        self.node_expiry.add(node.exp, (tree.root, node.pair))

    def _set_parent(
        self, tree: SpanningTree, node: TreeNode, parent: Pair, via: StreamTuple
    ) -> None:
        if node.parent is not None:
            # the old parent may already be gone (removed earlier in the
            # same repair)
            old_parent = tree.nodes.get(node.parent)
            if old_parent is not None:
                old_parent.children.discard(node.pair)
        node.parent = parent
        node.via = via
        tree.nodes[parent].children.add(node.pair)

    def _remove_node(self, tree: SpanningTree, pair: Pair) -> None:
        node = tree.nodes.pop(pair, None)
        if node is None:
            return
        if node.parent is not None:
            parent = tree.nodes.get(node.parent)
            if parent is not None:
                parent.children.discard(pair)
        roots = self.inverted.get(pair)
        if roots is not None:
            roots.pop(tree.root, None)
            if not roots:
                del self.inverted[pair]

    def _drop_subtree(self, tree: SpanningTree, pair: Pair) -> None:
        # Direct expiry: an expired node and everything below it (their
        # expiries are no larger) vanish without retraction.
        stack = [pair]
        while stack:
            p = stack.pop()
            node = tree.nodes.get(p)
            if node is None:
                continue
            stack.extend(node.children)
            self._remove_node(tree, p)

    def _path_payload(self, tree: SpanningTree, pair: Pair):
        hops: list[StreamTuple] = []
        cur = pair
        while cur != tree.root_pair:
            node = tree.nodes[cur]
            hops.append(node.via)
            cur = node.parent
        hops.reverse()
        if self.payload_mode == "derived":
            return tuple((h.src, h.label, h.trg) for h in hops)
        return tuple(p for h in hops for p in h.payload)

    def _result(self, tree: SpanningTree, node: TreeNode, sign: int) -> StreamTuple:
        return StreamTuple(
            tree.root,
            node.vertex,
            self.label,
            Interval(node.ts, node.exp),
            self._path_payload(tree, node.pair) if sign > 0 else (),
            sign,
            origin=("p", self.op_id, tree.root, node.vertex, node.state),
        )

    # Insertion: relax the new edge from every tree node it can extend;
    # only nodes whose interval grows are expanded further.

    def insert(self, t: StreamTuple, now: int) -> list[StreamTuple]:
        if t.label not in self.by_label:
            return []
        bucket = self.adj.setdefault(t.label, {}).setdefault(t.src, {})
        bucket[t.origin] = t
        self.adj_expiry.add(t.exp, (t.label, t.src, t.origin))
        out: list[StreamTuple] = []
        for s, t2 in self.by_label[t.label]:
            if s == self.dfa.start and t.src not in self.trees:
                self.trees[t.src] = SpanningTree(t.src, self.dfa.start)
                self.inverted.setdefault((t.src, s), {})[t.src] = None
            for root in list(self.inverted.get((t.src, s), ())):
                tree = self.trees.get(root)
                if tree is None:
                    continue
                node = tree.nodes.get((t.src, s))
                if node is None:
                    continue
                if node.exp <= now:
                    self._drop_subtree(tree, node.pair)
                    continue
                self._relax(tree, node, t, t2, now, out)
        return out

    def _relax(
        self, tree: SpanningTree, node: TreeNode, t: StreamTuple, t2: int,
        now: int, out,
    ) -> None:
        """Offer edge t out of a live node, then expand every node whose
        interval grows over all of its out-edges.  The other edges out of
        a node whose interval did not grow are no-ops: live nodes keep
        child.exp >= min(node.exp, e.exp) for every live edge e."""
        stack: list[Pair] = []
        self._offer(tree, node, t, t2, now, out, stack)
        adj = self.adj
        while stack:
            node = tree.nodes.get(stack.pop())
            if node is None or node.exp <= now:
                continue
            for lab, t2 in self.out_trans.get(node.state, ()):
                bucket = adj.get(lab, {}).get(node.vertex)
                if bucket:
                    for e in bucket.values():
                        self._offer(tree, node, e, t2, now, out, stack)

    def _offer(
        self, tree: SpanningTree, node: TreeNode, e: StreamTuple, t2: int,
        now: int, out, stack: list[Pair],
    ) -> None:
        """Relax edge e out of a live node; the child it reaches is pushed
        onto the stack when its interval grew."""
        cand_exp = min(node.exp, e.exp)
        if cand_exp <= now:
            return
        cand_ts = max(node.ts, e.ts)
        child_pair = (e.trg, t2)
        child = tree.nodes.get(child_pair)
        if child is not None and child.exp <= now:
            self._drop_subtree(tree, child_pair)
            child = None
        if child is None:
            child = TreeNode(e.trg, t2, cand_ts, cand_exp, parent=node.pair, via=e)
            self._add_node(tree, child)
        elif child.exp < cand_exp:
            self._set_parent(tree, child, node.pair, e)
            child.exp = cand_exp
            child.ts = min(child.ts, cand_ts)
            self.node_expiry.add(child.exp, (tree.root, child_pair))
        else:
            return
        if t2 in self.dfa.accepting and child_pair != tree.root_pair:
            out.append(self._result(tree, child, 1))
        stack.append(child_pair)

    # Deletion: non-tree edges only leave the adjacency; tree edges sever
    # a subtree that is then reattached by a widest-expiry search.

    def delete(self, t: StreamTuple, now: int) -> list[StreamTuple]:
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
            self._repair(tree, pair, now, out)
        return out

    def _repair(self, tree: SpanningTree, severed: Pair, now: int, out) -> None:
        marked: set[Pair] = set()
        stack = [severed]
        while stack:
            p = stack.pop()
            if p in marked:
                continue
            marked.add(p)
            stack.extend(tree.nodes[p].children)

        heap: list[tuple[tuple[float, float, str, int], int, Pair, Pair, StreamTuple]] = []
        settled: dict[Pair, tuple[Pair, StreamTuple, float, float]] = {}

        def relax_from(pair: Pair, state: int, vertex: str, ts: float, exp: float):
            for lab, t2 in self.out_trans.get(state, ()):
                for e in self.adj.get(lab, {}).get(vertex, {}).values():
                    child = (e.trg, t2)
                    if child not in marked or child in settled:
                        continue
                    cand_exp = min(exp, e.exp)
                    if cand_exp <= now:
                        continue
                    cand_ts = max(ts, e.ts)
                    key = (-cand_exp, cand_ts, child[0], child[1])
                    heapq.heappush(heap, (key, self._tick(), child, pair, e))

        for pair, node in tree.nodes.items():
            if pair not in marked and node.exp > now:
                relax_from(pair, node.state, node.vertex, node.ts, node.exp)

        while heap:
            (negexp, ts, _v, _s), _, child, parent, e = heapq.heappop(heap)
            if child in settled:
                continue
            settled[child] = (parent, e, ts, -negexp)
            relax_from(child, child[1], child[0], ts, -negexp)

        reattached: list[TreeNode] = []
        for pair in sorted(marked):
            node = tree.nodes[pair]
            hit = settled.get(pair)
            accepting = (
                node.state in self.dfa.accepting and pair != tree.root_pair
            )
            if hit is None:
                was_live = node.exp > now
                self._remove_node(tree, pair)
                if accepting and was_live:
                    out.append(self._result(tree, node, -1))
                continue
            parent, e, ts, exp = hit
            changed = (ts, exp) != (node.ts, node.exp)
            self._set_parent(tree, node, parent, e)
            node.ts = ts
            node.exp = exp
            self.node_expiry.add(exp, (tree.root, pair))
            if accepting and changed:
                reattached.append(node)
        # Payloads walk parent pointers, so emit only once every settled
        # node has been re-parented; mid-loop the chain can still thread
        # through stale pointers inside the severed region.
        for node in reattached:
            out.append(self._result(tree, node, 1))
        if len(tree.nodes) == 1:
            self._remove_tree(tree)

    def _remove_tree(self, tree: SpanningTree) -> None:
        roots = self.inverted.get(tree.root_pair)
        if roots is not None:
            roots.pop(tree.root, None)
            if not roots:
                del self.inverted[tree.root_pair]
        del self.trees[tree.root]

    # Slide-boundary sweep; drops only state that ended at or before the
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
            return self.insert(t, now)
        return self.delete(t, now)
