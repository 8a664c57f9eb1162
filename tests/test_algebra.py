from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamgraph.algebra import (
    Comparison,
    Filter,
    JoinCondition,
    Path,
    Pattern,
    PlanError,
    Pos,
    Union,
    Wscan,
    enumerate_plans,
    plan_label,
    render_plan,
    validate_plan,
    walk,
)
from streamgraph.automata import Alt, Concat, Plus, Star, Sym
from streamgraph.query import parse_query, to_plan


def scan(label, size=10):
    return Wscan(label, size, 1)


def chain(children, label):
    n = len(children)
    eqs = tuple((Pos(i, "trg"), Pos(i + 1, "src")) for i in range(n - 1))
    return Pattern(tuple(children), JoinCondition(eqs, Pos(0, "src"), Pos(n - 1, "trg")), label)


A, B, C = Sym("a"), Sym("b"), Sym("c")

Q4_TEXT = "d(x, y) <- a(x, m), b(m, n), c(n, y)\nAnswer(x, y) <- d+(x, y)"


def test_plan_label():
    assert plan_label(scan("a")) == "a"
    assert plan_label(Filter(scan("a"), (Comparison("src", "!=", ("attr", "trg")),))) == "a"
    assert plan_label(Wscan("a")) == "a"
    assert plan_label(Union((scan("a"),), "D")) == "D"


FIXED_TEXTS = [
    (Wscan("a", 24, 1), "wscan[a size=24 slide=1]"),
    (Wscan("a"), "wscan[a]"),
    (Wscan("a", 24, 2), "wscan[a size=24 slide=2]"),
    (Filter(scan("a", 5), (Comparison("src", "!=", ("attr", "trg")),
                           Comparison("label", "=", ("const", "likes")))),
     'filter[src != trg & label = "likes"](wscan[a size=5 slide=1])'),
    (Union((scan("a", 5), scan("b", 5)), "D"),
     "union[D](wscan[a size=5 slide=1], wscan[b size=5 slide=1])"),
    (chain([scan("a", 5), scan("b", 5)], "D"),
     "pattern[trg1=src2 -> (src1, trg2) D](wscan[a size=5 slide=1], wscan[b size=5 slide=1])"),
    (Pattern((scan("a", 5),), JoinCondition((), Pos(0, "trg"), Pos(0, "src")), "D"),
     "pattern[-> (trg1, src1) D](wscan[a size=5 slide=1])"),
    (Path((scan("a", 5), scan("b", 5), scan("c", 5)), Alt((Plus(Concat((A, B))), C)), "D"),
     "path[(a.b)+|c -> D](wscan[a size=5 slide=1], wscan[b size=5 slide=1], wscan[c size=5 slide=1])"),
]


def test_render_plan_fixed_texts():
    for plan, text in FIXED_TEXTS:
        validate_plan(plan)
        assert render_plan(plan) == text


def test_validate_plan_rejects_malformed():
    for bad in [
        Union((), "D"),
        Pattern((scan("a", 5),),
                JoinCondition(((Pos(0, "trg"), Pos(8, "src")),), Pos(0, "src"), Pos(0, "trg")),
                "D"),
        Path((scan("a", 5),), Plus(Sym("z")), "D"),
        Wscan("a", 0, 0),
        Wscan("a", 2, 5),
    ]:
        with pytest.raises(PlanError):
            validate_plan(bad)


def test_alternation_rewrite():
    path = Path((scan("a"), scan("b")), Alt((A, B)), "D")
    assert Union((scan("a"), scan("b")), "D") in enumerate_plans(path, 1)
    kept = Path((scan("a"),), Plus(A), "D")
    assert enumerate_plans(kept, 1) == {kept}
    mixed = Path((scan("a"), scan("b")), Alt((A, Plus(B))), "D")
    assert enumerate_plans(mixed, 1) == {mixed}


def test_concatenation_rewrite_plain_chain():
    path = Path((scan("a"), scan("b")), Concat((A, B)), "D")
    assert chain([scan("a"), scan("b")], "D") in enumerate_plans(path, 1)


def test_concatenation_rewrite_nullable_part_is_kept():
    path = Path((scan("a"), scan("b")), Concat((A, Star(B))), "D")
    assert enumerate_plans(path, 1) == {path}


def test_concatenation_rewrite_nests_composite_parts():
    path = Path((scan("a"), scan("b"), scan("c")), Concat((A, Alt((B, C)))), "D")
    assert chain(
        [scan("a"), Path((scan("b"), scan("c")), Alt((B, C)), "$tmp1")], "D"
    ) in enumerate_plans(path, 1)


def test_enumerate_budget_zero_is_identity():
    plan = to_plan(parse_query(Q4_TEXT, window=10))
    assert enumerate_plans(plan, 0) == {plan}


def test_enumerate_q4_family():
    plan = to_plan(parse_query(Q4_TEXT, window=10))
    rendered = {render_plan(p) for p in enumerate_plans(plan, 3)}
    w = lambda l: f"wscan[{l} size=10 slide=1]"
    assert render_plan(plan) in rendered  # canonical: join cached inside loop
    assert f"path[(a.b.c)+ -> $d_plus]({w('a')}, {w('b')}, {w('c')})" in rendered
    assert (
        f"path[(a.$tmp1)+ -> $d_plus]({w('a')}, "
        f"pattern[trg1=src2 -> (src1, trg2) $tmp1]({w('b')}, {w('c')}))"
    ) in rendered
    assert (
        f"path[($tmp1.c)+ -> $d_plus]("
        f"pattern[trg1=src2 -> (src1, trg2) $tmp1]({w('a')}, {w('b')}), {w('c')})"
    ) in rendered


def test_enumerate_renders_distinctly():
    plan = to_plan(parse_query(Q4_TEXT, window=10))
    plans = enumerate_plans(plan, 2)
    assert len({render_plan(p) for p in plans}) == len(plans)


def test_validate_rejects_inconsistent_trees():
    with pytest.raises(PlanError, match="absent inputs"):
        validate_plan(Path((scan("b", 5),), Plus(A), "D"))
    with pytest.raises(PlanError, match="references input"):
        validate_plan(
            Pattern((scan("a", 5),), JoinCondition((), Pos(1, "src"), Pos(0, "trg")), "D"))


label_st = st.sampled_from(["a", "b", "c", "RL", "$tmp1"])


def plans(depth):
    windows = st.sampled_from([(None, 1), (8, 1), (16, 2), (24, 1)])
    leaf = st.builds(lambda label, w: Wscan(label, *w), label_st, windows)
    if depth == 0:
        return leaf
    sub = plans(depth - 1)

    def mk_pattern(kids, label):
        return chain(list(kids), label)

    def mk_path(kids, label):
        labels = [plan_label(k) for k in kids]
        if len(set(labels)) != len(labels):
            return Path((kids[0],), Plus(Sym(labels[0])), label)
        syms = tuple(map(Sym, labels))
        return Path(tuple(kids), Plus(Concat(syms) if len(syms) > 1 else syms[0]), label)

    return st.one_of(
        leaf,
        st.builds(
            Filter,
            sub,
            st.tuples(
                st.builds(
                    Comparison,
                    st.sampled_from(["src", "trg", "label"]),
                    st.sampled_from(["=", "!="]),
                    st.one_of(
                        st.tuples(st.just("attr"), st.sampled_from(["src", "trg"])),
                        st.tuples(st.just("const"), st.sampled_from(["u", "likes"])),
                    ),
                )
            ),
        ),
        st.builds(lambda ks, l: Union(tuple(ks), l), st.lists(sub, min_size=1, max_size=3), label_st),
        st.builds(mk_pattern, st.lists(sub, min_size=1, max_size=3), label_st),
        st.builds(mk_path, st.lists(sub, min_size=1, max_size=3), label_st),
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(plans(3), min_size=2, max_size=4))
def test_render_distinguishes_exactly_the_unequal_plans(drawn):
    for p in drawn:
        validate_plan(p)
    for p in drawn:
        for q in drawn:
            assert (p == q) == (render_plan(p) == render_plan(q))


@settings(max_examples=60, deadline=None)
@given(plans(2), st.integers(min_value=0, max_value=2))
def test_enumerate_contains_input_and_dedups(plan, budget):
    out = enumerate_plans(plan, budget)
    assert plan in out or any(render_plan(p) == render_plan(plan) for p in out)
    assert len({render_plan(p) for p in out}) == len(out)


@settings(max_examples=60, deadline=None)
@given(plans(2))
def test_rewrites_preserve_output_label(plan):
    for rewritten in enumerate_plans(plan, 1):
        assert plan_label(rewritten) == plan_label(plan)
