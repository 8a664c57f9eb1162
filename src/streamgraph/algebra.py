"""Logical plan algebra for windowed graph queries.

A plan is an immutable tree built from five node kinds:

    Wscan    leaf scan of one input edge label; its window, if any, stamps
             each edge's validity interval as the edge enters
    Filter   predicate over the distinguished attributes (src, trg, label)
    Union    merge of same-schema subplans under a new label
    Pattern  multi-way join with positional equality condition
    Path     regular-expression navigation over child labels

Every node carries the label its output tuples will wear (plan_label).
Plans are built with the node constructors (to_plan does so for a
query) and checked by validate_plan; compile_plan runs it. Plans render
to a deterministic one-line text form, which `streamgraph plan` prints.

Rewrites turn an alternation of labels into a union and a concatenation
into a chain join, and move between "join inside the loop" and "labels
inside the regex" shapes by grouping and inlining; enumerate_plans
closes a plan under single rewrite steps.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

from streamgraph.automata import (
    Alt,
    Concat,
    Opt,
    Plus,
    Star,
    Sym,
    nullable,
    regex_alphabet,
    render_regex,
)

TMP_PREFIX = "$tmp"


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class Pos:
    """One endpoint position of one join input, 0-based."""

    atom: int
    field: str  # "src" or "trg"

    def __post_init__(self):
        if self.field not in ("src", "trg"):
            raise PlanError(f"bad position field {self.field!r}")

    def render(self) -> str:
        return f"{self.field}{self.atom + 1}"


@dataclass(frozen=True)
class JoinCondition:
    """Positional equalities plus the (src, trg) output selection."""

    equalities: tuple[tuple[Pos, Pos], ...]
    out_src: Pos
    out_trg: Pos


@dataclass(frozen=True)
class Comparison:
    # lhs is an attribute name; rhs is ("attr", name) or ("const", value)
    lhs: str
    op: str  # "=" or "!="
    rhs: tuple[str, str]


@dataclass(frozen=True)
class Wscan:
    label: str
    size: int | None = None
    slide: int = 1


@dataclass(frozen=True)
class Filter:
    child: "PlanNode"
    predicate: tuple[Comparison, ...]


@dataclass(frozen=True)
class Union:
    children: tuple["PlanNode", ...]
    label: str


@dataclass(frozen=True)
class Pattern:
    children: tuple["PlanNode", ...]
    condition: JoinCondition
    label: str


@dataclass(frozen=True)
class Path:
    children: tuple["PlanNode", ...]
    regex: object
    label: str


PlanNode = Wscan | Filter | Union | Pattern | Path


def plan_label(node: PlanNode) -> str:
    """Label worn by the node's output tuples."""
    if isinstance(node, Filter):
        return plan_label(node.child)
    return node.label


def children_of(node: PlanNode) -> tuple[PlanNode, ...]:
    if isinstance(node, Wscan):
        return ()
    if isinstance(node, Filter):
        return (node.child,)
    return node.children


def walk(node: PlanNode):
    """Yield every node of the tree, parents before children."""
    yield node
    for c in children_of(node):
        yield from walk(c)


def _with_children(node: PlanNode, kids: tuple[PlanNode, ...]) -> PlanNode:
    if isinstance(node, Wscan):
        return node
    if isinstance(node, Filter):
        return dataclasses.replace(node, child=kids[0])
    return dataclasses.replace(node, children=kids)


def validate_plan(node: PlanNode) -> None:
    """Reject trees whose conditions or regexes reference missing inputs,
    malformed filter comparisons, windows or regexes, and anything that is
    not a plan node."""
    if not isinstance(node, PlanNode):
        raise PlanError(f"not a plan node: {type(node).__name__}")
    kids = children_of(node)
    for c in kids:
        validate_plan(c)
    if isinstance(node, Pattern):
        n = len(kids)
        positions = list(node.condition.equalities)
        for a, b in positions:
            for p in (a, b):
                if not 0 <= p.atom < n:
                    raise PlanError(f"condition references input {p.atom + 1} of {n}")
        for p in (node.condition.out_src, node.condition.out_trg):
            if not 0 <= p.atom < n:
                raise PlanError(f"output references input {p.atom + 1} of {n}")
    elif isinstance(node, Path):
        if not _is_regex(node.regex):
            raise PlanError(f"malformed path regex: {node.regex!r}")
        have = {plan_label(c) for c in kids}
        used = regex_alphabet(node.regex)
        if not used:
            raise PlanError("path regex matches no labels")
        missing = used - have
        if missing:
            raise PlanError(f"path regex references absent inputs {sorted(missing)}")
    elif isinstance(node, Union):
        if not kids:
            raise PlanError("union needs at least one input")
    elif isinstance(node, Filter):
        for cmp_ in node.predicate:
            if cmp_.op not in ("=", "!=") or cmp_.rhs[0] not in ("attr", "const"):
                raise PlanError(f"bad filter comparison {cmp_!r}")
            names = [cmp_.lhs] + ([cmp_.rhs[1]] if cmp_.rhs[0] == "attr" else [])
            for a in names:
                if a not in ("src", "trg", "label"):
                    raise PlanError(f"filter references unknown attribute {a!r}")
    elif isinstance(node, Wscan) and node.size is None:
        if node.slide != 1:
            raise PlanError(f"an unwindowed scan has no slide, got {node.slide!r}")
    elif isinstance(node, Wscan):
        if type(node.size) is not int or type(node.slide) is not int:
            raise PlanError(f"window size and slide must be ints: {node!r}")
        if node.size < node.slide or node.slide < 1:
            raise PlanError("window size must be >= slide >= 1")


def _is_regex(rx) -> bool:
    """A regex tree that render_regex prints apart from every other: each
    Concat and Alt has two parts or more."""
    if isinstance(rx, Sym):
        return True
    if isinstance(rx, (Concat, Alt)):
        return len(rx.parts) >= 2 and all(_is_regex(p) for p in rx.parts)
    return isinstance(rx, (Star, Plus, Opt)) and _is_regex(rx.inner)


# ---------------------------------------------------------------------------
# Rendering


def _render_cond(cond: JoinCondition) -> str:
    eqs = " & ".join(f"{a.render()}={b.render()}" for a, b in cond.equalities)
    out = f"({cond.out_src.render()}, {cond.out_trg.render()})"
    return f"{eqs} -> {out}" if eqs else f"-> {out}"


def _render_cmp(c: Comparison) -> str:
    rhs = c.rhs[1] if c.rhs[0] == "attr" else f'"{c.rhs[1]}"'
    return f"{c.lhs} {c.op} {rhs}"


def _header(node: PlanNode) -> str:
    if isinstance(node, Wscan):
        if node.size is None:
            return f"wscan[{node.label}]"
        return f"wscan[{node.label} size={node.size} slide={node.slide}]"
    if isinstance(node, Filter):
        pred = " & ".join(_render_cmp(c) for c in node.predicate)
        return f"filter[{pred}]"
    if isinstance(node, Union):
        return f"union[{node.label}]"
    if isinstance(node, Pattern):
        return f"pattern[{_render_cond(node.condition)} {node.label}]"
    if isinstance(node, Path):
        return f"path[{render_regex(node.regex)} -> {node.label}]"
    raise PlanError(f"unknown node {node!r}")


def render_plan(node: PlanNode) -> str:
    """Deterministic one-line plan text."""
    kids = children_of(node)
    if not kids:
        return _header(node)
    return f"{_header(node)}({', '.join(render_plan(c) for c in kids)})"


def format_plan(node: PlanNode, indent: int = 0) -> str:
    """Indented multi-line rendering of render_plan's text, for human eyes."""
    pad = "  " * indent
    kids = children_of(node)
    if not kids:
        return pad + _header(node)
    inner = ",\n".join(format_plan(c, indent + 1) for c in kids)
    return f"{pad}{_header(node)}(\n{inner})"


# ---------------------------------------------------------------------------
# Rewrites


def _alt_to_union(node: PlanNode) -> PlanNode:
    if not isinstance(node, Path) or not isinstance(node.regex, Alt):
        return node
    if not all(isinstance(p, Sym) for p in node.regex.parts):
        return node
    by_label = {plan_label(c): c for c in node.children}
    labels = [p.label for p in node.regex.parts]
    if len(set(labels)) != len(labels) or set(labels) != set(by_label):
        return node
    return Union(tuple(by_label[l] for l in labels), node.label)


def _chain_condition(n: int) -> JoinCondition:
    eqs = tuple((Pos(i, "trg"), Pos(i + 1, "src")) for i in range(n - 1))
    return JoinCondition(eqs, Pos(0, "src"), Pos(n - 1, "trg"))


def _is_chain_join(node: PlanNode) -> bool:
    return (
        isinstance(node, Pattern)
        and len(node.children) >= 2
        and node.condition == _chain_condition(len(node.children))
    )


def _concat_to_join(node: PlanNode) -> PlanNode:
    if not isinstance(node, Path) or not isinstance(node.regex, Concat):
        return node
    parts = node.regex.parts
    if len(parts) < 2 or any(nullable(p) for p in parts):
        # A piece matching the empty path would drop its zero-length case.
        return node
    by_label = {plan_label(c): c for c in node.children}
    if len(by_label) != len(node.children):
        return node
    kids: list[PlanNode] = []
    counter = _tmp_counter(node)
    for part in parts:
        if isinstance(part, Sym):
            if part.label not in by_label:
                return node
            kids.append(by_label[part.label])
            continue
        used = regex_alphabet(part)
        if not used <= set(by_label):
            return node
        sub = tuple(c for c in node.children if plan_label(c) in used)
        kids.append(Path(sub, part, f"{TMP_PREFIX}{next(counter)}"))
    return Pattern(tuple(kids), _chain_condition(len(kids)), node.label)


def _tmp_counter(node: PlanNode):
    used = {
        int(m.group(1))
        for n in walk(node)
        if not isinstance(n, (Wscan, Filter))
        for m in [re.fullmatch(re.escape(TMP_PREFIX) + r"(\d+)", plan_label(n))]
        if m
    }
    k = max(used, default=0)
    while True:
        k += 1
        yield k


def _renumber_tmps(node: PlanNode) -> PlanNode:
    order: dict[str, str] = {}
    for n in walk(node):
        if isinstance(n, (Union, Pattern, Path)):
            lbl = n.label
            if lbl.startswith(TMP_PREFIX) and lbl not in order:
                order[lbl] = f"{TMP_PREFIX}{len(order) + 1}"

    def rename(n: PlanNode) -> PlanNode:
        kids = tuple(rename(c) for c in children_of(n))
        n = _with_children(n, kids)
        if isinstance(n, (Union, Pattern, Path)) and n.label in order:
            n = dataclasses.replace(n, label=order[n.label])
        if isinstance(n, Path):
            rx = _rename_regex(n.regex, order)
            n = dataclasses.replace(n, regex=rx)
        return n

    return rename(node)


def _rename_regex(rx, table):
    if isinstance(rx, Sym):
        return Sym(table.get(rx.label, rx.label))
    if isinstance(rx, (Concat, Alt)):
        return type(rx)(tuple(_rename_regex(p, table) for p in rx.parts))
    return type(rx)(_rename_regex(rx.inner, table))


def _loop_body(regex):
    """Concat parts of a plus/star body, or of a bare concatenation."""
    if isinstance(regex, (Plus,)) and isinstance(regex.inner, Concat):
        return regex.inner.parts, lambda parts: Plus(_concat_or_sym(parts))
    if isinstance(regex, Concat):
        return regex.parts, _concat_or_sym
    return None, None


def _concat_or_sym(parts):
    return parts[0] if len(parts) == 1 else Concat(tuple(parts))


def _group_variants(node: Path):
    """Replace a run of bare labels in the loop body by a fresh derived
    label computed with a chain join (join-inside-the-loop shapes)."""
    parts, rebuild = _loop_body(node.regex)
    if parts is None:
        return
    by_label = {plan_label(c): c for c in node.children}
    if len(by_label) != len(node.children):
        return
    counter = _tmp_counter(node)
    for i in range(len(parts)):
        for j in range(i + 2, len(parts) + 1):
            run = parts[i:j]
            if not all(isinstance(p, Sym) and p.label in by_label for p in run):
                continue
            if len({p.label for p in run}) != len(run):
                continue
            fresh = f"{TMP_PREFIX}{next(counter)}"
            joined = Pattern(
                tuple(by_label[p.label] for p in run),
                _chain_condition(len(run)),
                fresh,
            )
            new_parts = parts[:i] + (Sym(fresh),) + parts[j:]
            # Child order: the fresh join replaces the first grouped child,
            # everything else stays where it was.
            ordered: list[PlanNode] = []
            placed = False
            for c in node.children:
                if plan_label(c) in {p.label for p in run}:
                    if not placed:
                        ordered.append(joined)
                        placed = True
                else:
                    ordered.append(c)
            yield dataclasses.replace(
                node, children=tuple(ordered), regex=rebuild(new_parts)
            )


def _inline_variants(node: Path):
    """Inverse of grouping: a child computed by a chain join over uniquely
    labelled inputs melts into the regex as a concatenation."""
    by_label = {plan_label(c): c for c in node.children}
    if len(by_label) != len(node.children):
        return
    for child in node.children:
        if not _is_chain_join(child):
            continue
        label = plan_label(child)
        sub_labels = [plan_label(k) for k in child.children]
        if len(set(sub_labels)) != len(sub_labels):
            continue
        if set(sub_labels) & (set(by_label) - {label}):
            continue
        replacement = Concat(tuple(Sym(l) for l in sub_labels))
        new_regex = _substitute_symbol(node.regex, label, replacement)
        if new_regex == node.regex:
            continue
        ordered: list[PlanNode] = []
        for c in node.children:
            if c is child:
                ordered.extend(child.children)
            else:
                ordered.append(c)
        yield dataclasses.replace(node, children=tuple(ordered), regex=new_regex)


def _substitute_symbol(rx, label, replacement):
    if isinstance(rx, Sym):
        return replacement if rx.label == label else rx
    if isinstance(rx, Concat):
        parts = []
        for p in rx.parts:
            q = _substitute_symbol(p, label, replacement)
            if isinstance(q, Concat):
                parts.extend(q.parts)
            else:
                parts.append(q)
        return Concat(tuple(parts))
    if isinstance(rx, Alt):
        return Alt(tuple(_substitute_symbol(p, label, replacement) for p in rx.parts))
    return type(rx)(_substitute_symbol(rx.inner, label, replacement))


def _local_variants(node: PlanNode):
    if isinstance(node, Path):
        alt = _alt_to_union(node)
        if alt != node:
            yield alt
        joined = _concat_to_join(node)
        if joined != node:
            yield joined
        yield from _group_variants(node)
        yield from _inline_variants(node)


def _step_variants(node: PlanNode):
    yield from _local_variants(node)
    kids = children_of(node)
    for i, c in enumerate(kids):
        for v in _step_variants(c):
            yield _with_children(node, kids[:i] + (v,) + kids[i + 1 :])


def enumerate_plans(node: PlanNode, budget: int) -> set[PlanNode]:
    """All plans reachable from node by up to budget single rewrite steps."""
    seen = {_renumber_tmps(node)}
    frontier = list(seen)
    for _ in range(budget):
        nxt = []
        for plan in frontier:
            for v in _step_variants(plan):
                v = _renumber_tmps(v)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return seen
