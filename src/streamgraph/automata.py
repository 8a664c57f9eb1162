"""Label regexes and their compilation to minimal DFAs.

Path expressions range over edge labels (multi-character identifiers), so
concatenation is written with an explicit ``.``:

    atom      := label | '(' expr ')'
    postfix   := atom ('*' | '+' | '?')*
    concat    := postfix ('.' postfix)*
    expr      := concat ('|' concat)*

Compilation is the classic pipeline: Thompson construction to an epsilon-NFA,
subset construction, then Hopcroft minimization.  ``x+`` is built as
``x . x*``.  The resulting DFA keeps a partial transition map (no dead state)
and its states are renumbered breadth-first from the start state over
alphabetically sorted labels, so equal regexes always yield the identical
automaton.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class RegexError(ValueError):
    pass


@dataclass(frozen=True)
class Sym:
    label: str


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Alt:
    parts: tuple


@dataclass(frozen=True)
class Star:
    inner: object


@dataclass(frozen=True)
class Plus:
    inner: object


@dataclass(frozen=True)
class Opt:
    inner: object


def _is_label_char(c: str) -> bool:
    # "$" admits the reserved derived-label namespace used by plan rewrites.
    return c.isalnum() or c == "_" or c == "$"


def parse_regex(text: str):
    """Parse a label regex into its AST; raises RegexError on bad input."""
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def peek() -> str:
        skip_ws()
        return text[pos] if pos < n else ""

    def parse_expr():
        parts = [parse_concat()]
        while peek() == "|":
            nonlocal pos
            pos += 1
            parts.append(parse_concat())
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    def parse_concat():
        parts = [parse_postfix()]
        while peek() == ".":
            nonlocal pos
            pos += 1
            parts.append(parse_postfix())
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_postfix():
        nonlocal pos
        node = parse_atom()
        while peek() in ("*", "+", "?"):
            op = text[pos]
            pos += 1
            node = {"*": Star, "+": Plus, "?": Opt}[op](node)
        return node

    def parse_atom():
        nonlocal pos
        c = peek()
        if c == "(":
            pos += 1
            node = parse_expr()
            if peek() != ")":
                raise RegexError(f"unbalanced parenthesis in {text!r}")
            pos += 1
            return node
        if not _is_label_char(c):
            raise RegexError(f"expected label at position {pos} in {text!r}")
        start = pos
        while pos < n and _is_label_char(text[pos]):
            pos += 1
        return Sym(text[start:pos])

    node = parse_expr()
    skip_ws()
    if pos != n:
        raise RegexError(f"trailing input at position {pos} in {text!r}")
    return node


def regex_alphabet(node) -> frozenset[str]:
    if isinstance(node, Sym):
        return frozenset((node.label,))
    if isinstance(node, (Concat, Alt)):
        out: frozenset[str] = frozenset()
        for p in node.parts:
            out |= regex_alphabet(p)
        return out
    return regex_alphabet(node.inner)


def nullable(node) -> bool:
    """True when the regex accepts the empty word."""
    if isinstance(node, Sym):
        return False
    if isinstance(node, Concat):
        return all(nullable(p) for p in node.parts)
    if isinstance(node, Alt):
        return any(nullable(p) for p in node.parts)
    if isinstance(node, Plus):
        return nullable(node.inner)
    return True  # Star, Opt


def render_regex(node) -> str:
    """Deterministic text form; parse_regex(render_regex(x)) == x."""
    if isinstance(node, Sym):
        return node.label
    if isinstance(node, (Star, Plus, Opt)):
        op = {Star: "*", Plus: "+", Opt: "?"}[type(node)]
        inner = render_regex(node.inner)
        if isinstance(node.inner, (Concat, Alt)):
            inner = f"({inner})"
        return inner + op
    if isinstance(node, Concat):
        return ".".join(
            f"({render_regex(p)})" if isinstance(p, (Concat, Alt)) else render_regex(p)
            for p in node.parts
        )
    return "|".join(
        f"({render_regex(p)})" if isinstance(p, Alt) else render_regex(p)
        for p in node.parts
    )


class Dfa:
    """Deterministic automaton over edge labels with a partial delta."""

    def __init__(
        self,
        start: int,
        accepting: frozenset[int],
        transitions: dict[tuple[int, str], int],
    ) -> None:
        self.start = start
        self.accepting = accepting
        self.transitions = transitions
        self.states = {start} | accepting
        for (s, _), t in transitions.items():
            self.states.add(s)
            self.states.add(t)

    def delta(self, state: int, label: str) -> int | None:
        return self.transitions.get((state, label))

    def delta_star(self, state: int, word) -> int | None:
        for label in word:
            state = self.transitions.get((state, label))
            if state is None:
                return None
        return state

    def accepts(self, word) -> bool:
        s = self.delta_star(self.start, word)
        return s is not None and s in self.accepting

    def accepts_empty(self) -> bool:
        return self.start in self.accepting


def build_dfa(node) -> Dfa:
    """Compile a regex AST to its canonical minimal DFA."""
    nfa_start, nfa_accept, eps, sym = _thompson(node)
    dstart, daccepting, dtrans = _subset(nfa_start, nfa_accept, eps, sym)
    mstart, maccepting, mtrans = _hopcroft(dstart, daccepting, dtrans)
    return _canonical(mstart, maccepting, mtrans)


def _thompson(node):
    eps: dict[int, list[int]] = {}
    sym: dict[int, list[tuple[str, int]]] = {}
    start, accept = _thompson_build(node, eps, sym, itertools.count())
    return start, accept, eps, sym


def _thompson_build(nd, eps, sym, ids) -> tuple[int, int]:
    """Thompson fragment for ``nd``: its (start, accept) states, with its
    transitions added to ``eps`` and ``sym``.  Module-level rather than a
    closure over itself, which would leave a reference cycle per regex."""
    if isinstance(nd, Sym):
        a, b = next(ids), next(ids)
        sym.setdefault(a, []).append((nd.label, b))
        return a, b
    if isinstance(nd, Concat):
        first, last = _thompson_build(nd.parts[0], eps, sym, ids)
        for part in nd.parts[1:]:
            s, e = _thompson_build(part, eps, sym, ids)
            eps.setdefault(last, []).append(s)
            last = e
        return first, last
    if isinstance(nd, Alt):
        a, b = next(ids), next(ids)
        for part in nd.parts:
            s, e = _thompson_build(part, eps, sym, ids)
            eps.setdefault(a, []).append(s)
            eps.setdefault(e, []).append(b)
        return a, b
    if isinstance(nd, Star):
        a, b = next(ids), next(ids)
        s, e = _thompson_build(nd.inner, eps, sym, ids)
        eps.setdefault(a, []).extend((s, b))
        eps.setdefault(e, []).extend((s, b))
        return a, b
    if isinstance(nd, Plus):
        return _thompson_build(Concat((nd.inner, Star(nd.inner))), eps, sym, ids)
    if isinstance(nd, Opt):
        a, b = _thompson_build(nd.inner, eps, sym, ids)
        eps.setdefault(a, []).append(b)
        return a, b
    raise TypeError(f"not a regex node: {nd!r}")


def _eclose(states: frozenset[int], eps) -> frozenset[int]:
    out = set(states)
    stack = list(states)
    while stack:
        s = stack.pop()
        for t in eps.get(s, ()):
            if t not in out:
                out.add(t)
                stack.append(t)
    return frozenset(out)


def _subset(start, accept, eps, sym):
    init = _eclose(frozenset((start,)), eps)
    ids = {init: 0}
    work = [init]
    trans: dict[tuple[int, str], int] = {}
    accepting = set()
    if accept in init:
        accepting.add(0)
    while work:
        cur = work.pop()
        cid = ids[cur]
        moves: dict[str, set[int]] = {}
        for s in cur:
            for label, t in sym.get(s, ()):
                moves.setdefault(label, set()).add(t)
        for label in sorted(moves):
            nxt = _eclose(frozenset(moves[label]), eps)
            if nxt not in ids:
                ids[nxt] = len(ids)
                work.append(nxt)
                if accept in nxt:
                    accepting.add(ids[nxt])
            trans[(cid, label)] = ids[nxt]
    return 0, frozenset(accepting), trans


def _hopcroft(start, accepting, trans):
    states = {start} | set(accepting)
    for (s, _), t in trans.items():
        states.add(s)
        states.add(t)
    labels = sorted({lab for (_, lab) in trans})
    dead = -1
    states.add(dead)  # complete the delta so refinement is uniform

    def step(s: int, lab: str) -> int:
        return trans.get((s, lab), dead)

    back: dict[tuple[int, str], set[int]] = {}
    for s in states:
        for lab in labels:
            back.setdefault((step(s, lab), lab), set()).add(s)

    non_accepting = frozenset(states - set(accepting))
    partition = {p for p in (frozenset(accepting), non_accepting) if p}
    work = set(partition)
    while work:
        target = work.pop()
        for lab in labels:
            movers = set()
            for t in target:
                movers |= back.get((t, lab), set())
            if not movers:
                continue
            for block in list(partition):
                inside = block & movers
                if not inside or inside == block:
                    continue
                outside = block - inside
                partition.remove(block)
                partition.add(frozenset(inside))
                partition.add(frozenset(outside))
                if block in work:
                    work.remove(block)
                    work.add(frozenset(inside))
                    work.add(frozenset(outside))
                else:
                    work.add(min(frozenset(inside), frozenset(outside), key=len))
    block_of = {}
    for block in partition:
        for s in block:
            block_of[s] = block
    # States equivalent to the added dead state can never reach acceptance,
    # so the whole block is dropped along with its transitions.
    dropped = block_of[dead]
    block_ids = {}
    for block in partition:
        if block != dropped:
            block_ids[block] = len(block_ids)
    out_trans = {}
    for (s, lab), t in trans.items():
        bs, bt = block_of[s], block_of[t]
        if bs == dropped or bt == dropped:
            continue
        out_trans[(block_ids[bs], lab)] = block_ids[bt]
    out_accepting = frozenset(
        block_ids[block_of[s]] for s in accepting if block_of[s] != dropped
    )
    if block_of[start] == dropped:
        # Language is empty: single non-accepting start state, no transitions.
        return 0, frozenset(), {}
    return block_ids[block_of[start]], out_accepting, out_trans


def _canonical(start, accepting, trans) -> Dfa:
    labels = sorted({lab for (_, lab) in trans})
    order = {start: 0}
    queue = [start]
    while queue:
        s = queue.pop(0)
        for lab in labels:
            t = trans.get((s, lab))
            if t is not None and t not in order:
                order[t] = len(order)
                queue.append(t)
    new_trans = {
        (order[s], lab): order[t] for (s, lab), t in trans.items() if s in order and t in order
    }
    new_accepting = frozenset(order[s] for s in accepting if s in order)
    return Dfa(0, new_accepting, new_trans)
