"""From-scratch reference evaluation.

Everything here recomputes results directly from the raw event list,
sharing no state or algorithms with the incremental engine: snapshots
are rebuilt per instant, rule bodies are joined by backtracking over
relation extents, closures are breadth-first reachability, and widest
path validity is a Bellman-Ford style fixpoint.  Slow on purpose and
used to cross-check the engine in tests and in the ``check`` command.
``replay_log`` reads the engine's written log the way a consumer does,
so that it can be checked against these snapshots.
"""

from __future__ import annotations

from streamgraph.model import EdgeEvent
from streamgraph.automata import Dfa
from streamgraph.query import ClosureAtom, Query
from streamgraph.streams import format_result

Pair = tuple[str, str]


def live_edges(events: list[EdgeEvent], t: int) -> list[EdgeEvent]:
    """Insertions with arrival <= t that were not deleted by then."""
    alive: dict[int, EdgeEvent] = {}
    for e in events:
        if e.ts > t:
            break
        if e.sign > 0:
            alive[e.uid] = e
        else:
            alive.pop(e.ref, None)
    return list(alive.values())


def snapshot_graph(
    events: list[EdgeEvent], size: int, slide: int, t: int
) -> dict[str, set[Pair]]:
    """Base relations valid at instant t under the sliding window."""
    rels: dict[str, set[Pair]] = {}
    for e in live_edges(events, t):
        end = (e.ts // slide) * slide + size
        if e.ts <= t < end:
            rels.setdefault(e.label, set()).add((e.src, e.trg))
    return rels


def closure_pairs(pairs: set[Pair]) -> set[Pair]:
    """Reachability in one or more steps."""
    adj: dict[str, set[str]] = {}
    for s, d in pairs:
        adj.setdefault(s, set()).add(d)
    out: set[Pair] = set()
    for src in adj:
        seen: set[str] = set()
        frontier = [src]
        while frontier:
            nxt: list[str] = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        out.update((src, v) for v in seen)
    return out


def _eval_rule(rule, env: dict[str, set[Pair]]) -> set[Pair]:
    out: set[Pair] = set()
    body = rule.body
    x, y = rule.head_vars

    def rec(i: int, bind: dict[str, str]) -> None:
        if i == len(body):
            out.add((bind[x], bind[y]))
            return
        atom = body[i]
        rel = atom.alias if isinstance(atom, ClosureAtom) else atom.label
        for s, d in env.get(rel, ()):
            nb = dict(bind)
            if nb.setdefault(atom.src, s) == s and nb.setdefault(atom.trg, d) == d:
                rec(i + 1, nb)

    rec(0, {})
    return out


def eval_query_at(
    q: Query, events: list[EdgeEvent], t: int
) -> dict[str, set[Pair]]:
    """One-time evaluation of every predicate of q at instant t.

    The result maps base labels, closure aliases and rule heads to their
    extents.  Navigation atoms denote one or more steps; zero-step cases
    are expressed by extra rules, never by empty paths.
    """
    env = snapshot_graph(events, q.window, q.slide, t)
    closures = {
        a.alias: a.label
        for r in q.rules
        for a in r.body
        if isinstance(a, ClosureAtom)
    }
    by_head: dict[str, list] = {}
    for r in q.rules:
        by_head.setdefault(r.head, []).append(r)
    # The dependency graph is acyclic, so this many rounds reach fixpoint.
    for _ in range(len(by_head) + len(closures) + 1):
        for alias, base in closures.items():
            env[alias] = closure_pairs(env.get(base, set()))
        for head, rules in by_head.items():
            env[head] = set().union(*(_eval_rule(r, env) for r in rules))
    return env


def widest_validity(
    edges: list[tuple[str, str, str, float]], dfa: Dfa, root: str
) -> dict[tuple[str, int], float]:
    """For each (vertex, state): the best over paths from (root, start)
    of the smallest edge expiry along the path.

    Edges are (src, trg, label, exp) and must all be currently valid.
    Plain relaxation to fixpoint; cycles cannot improve a minimum.
    """
    best: dict[tuple[str, int], float] = {(root, dfa.start): float("inf")}
    by_label: dict[str, list[tuple[int, int]]] = {}
    for (s, lab), t2 in dfa.transitions.items():
        by_label.setdefault(lab, []).append((s, t2))
    changed = True
    while changed:
        changed = False
        for u, v, lab, exp in edges:
            for s, t2 in by_label.get(lab, ()):
                cur = best.get((u, s))
                if cur is None:
                    continue
                cand = min(cur, exp)
                if cand > best.get((v, t2), float("-inf")):
                    best[(v, t2)] = cand
                    changed = True
    return best


def answer_pairs(env: dict[str, set[Pair]]) -> set[Pair]:
    return env.get("Answer", set())


def replay_log(emissions, instants: list[int]) -> list[tuple[int, set, list[str]]]:
    """Replay a written result log the way a consumer reads it.

    ``emissions`` are ``(now, tuple)`` pairs in log order, ``now`` being
    the instant the tuple was logged at.  Lines carry no origin: a key
    has at most one live line, a ``+`` sets it, replacing any it had,
    and a ``-`` must name it, with the same interval and payload, and,
    since expiry never retracts, must not have ended by its ``now``.
    Returns, for each ascending instant ``t``, ``(t, keys whose live
    line holds t, one message per bad - line logged since the instant
    before)``.
    """
    live: dict[tuple, tuple] = {}  # key -> (interval, payload) of its line
    emissions = iter(emissions)
    pending = next(emissions, None)
    out = []
    for t in instants:
        problems = []
        while pending is not None and pending[0] <= t:
            now, x = pending
            if x.sign > 0:
                live[x.key] = (x.interval, x.payload)
            elif x.exp <= now:
                problems.append(f"retracted an ended result {format_result(x)}")
            elif live.get(x.key) == (x.interval, x.payload):
                del live[x.key]
            else:
                problems.append(f"retracted an unknown result {format_result(x)}")
            pending = next(emissions, None)
        # a line that has ended holds no later instant, and a later - of
        # it is flagged as ended
        live = {key: line for key, line in live.items() if line[0].end > t}
        out.append((t, {key for key, (iv, _) in live.items() if iv.start <= t}, problems))
    return out
