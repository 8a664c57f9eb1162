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
    parse_plan,
    plan_label,
    render_plan,
    rewrite_path_alternation,
    rewrite_path_concatenation,
    walk,
)
from streamgraph.automata import parse_regex
from streamgraph.query import parse_query, to_plan


def scan(label, size=10):
    return Wscan(label, size, 1)


def chain(children, label):
    n = len(children)
    eqs = tuple((Pos(i, "trg"), Pos(i + 1, "src")) for i in range(n - 1))
    return Pattern(tuple(children), JoinCondition(eqs, Pos(0, "src"), Pos(n - 1, "trg")), label)


Q4_TEXT = "d(x, y) <- a(x, m), b(m, n), c(n, y)\nAnswer(x, y) <- d+(x, y)"


def test_plan_label():
    assert plan_label(scan("a")) == "a"
    assert plan_label(Filter(scan("a"), (Comparison("src", "!=", ("attr", "trg")),))) == "a"
    assert plan_label(Wscan("a")) == "a"
    assert plan_label(Union((scan("a"),), "D")) == "D"


def test_render_parse_round_trip_fixed():
    texts = [
        "wscan[a size=24 slide=1]",
        "wscan[a]",
        "wscan[a size=24 slide=2]",
        'filter[src != trg & label = "likes"](wscan[a size=5 slide=1])',
        "union[D](wscan[a size=5 slide=1], wscan[b size=5 slide=1])",
        "pattern[trg1=src2 -> (src1, trg2) D](wscan[a size=5 slide=1], wscan[b size=5 slide=1])",
        "pattern[-> (trg1, src1) D](wscan[a size=5 slide=1])",
        "path[(a.b)+|c -> D](wscan[a size=5 slide=1], wscan[b size=5 slide=1], wscan[c size=5 slide=1])",
    ]
    for text in texts:
        assert render_plan(parse_plan(text)) == text


def test_parse_plan_rejects_malformed():
    for bad in [
        "wscan[a size=24]",
        "mystery[a]",
        "union[D]",
        "pattern[trg1=src9 -> (src1, trg1) D](wscan[a size=5 slide=1])",
        "path[z+ -> D](wscan[a size=5 slide=1])",
        "window[size=24 slide=2](wscan[a])",
        "wscan[a size=0 slide=0]",
        "wscan[a size=2 slide=5]",
        "filter[src ~ trg](wscan[a size=5 slide=1])",
        "wscan[a] trailing",
    ]:
        with pytest.raises(PlanError):
            parse_plan(bad)


def test_alternation_rewrite():
    path = Path((scan("a"), scan("b")), parse_regex("a|b"), "D")
    assert rewrite_path_alternation(path) == Union((scan("a"), scan("b")), "D")
    kept = Path((scan("a"),), parse_regex("a+"), "D")
    assert rewrite_path_alternation(kept) == kept
    mixed = Path((scan("a"), scan("b")), parse_regex("a|b+"), "D")
    assert rewrite_path_alternation(mixed) == mixed


def test_concatenation_rewrite_plain_chain():
    path = Path((scan("a"), scan("b")), parse_regex("a.b"), "D")
    assert rewrite_path_concatenation(path) == chain([scan("a"), scan("b")], "D")


def test_concatenation_rewrite_nullable_part_is_kept():
    path = Path((scan("a"), scan("b")), parse_regex("a.b*"), "D")
    assert rewrite_path_concatenation(path) == path


def test_concatenation_rewrite_nests_composite_parts():
    path = Path((scan("a"), scan("b"), scan("c")), parse_regex("a.(b|c)"), "D")
    got = rewrite_path_concatenation(path)
    assert got == chain(
        [scan("a"), Path((scan("b"), scan("c")), parse_regex("b|c"), "$tmp1")], "D"
    )


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
        parse_plan("path[a+ -> D](wscan[b size=5 slide=1])")
    with pytest.raises(PlanError, match="references input"):
        parse_plan("pattern[-> (src2, trg1) D](wscan[a size=5 slide=1])")


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
            return Path((kids[0],), parse_regex(f"{plan_label(kids[0])}+"), label)
        body = ".".join(labels)
        return Path(tuple(kids), parse_regex(f"({body})+"), label)

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
@given(plans(3))
def test_render_parse_round_trip_random(plan):
    text = render_plan(plan)
    assert parse_plan(text) == plan
    assert render_plan(parse_plan(text)) == text


@settings(max_examples=60, deadline=None)
@given(plans(2), st.integers(min_value=0, max_value=2))
def test_enumerate_contains_input_and_dedups(plan, budget):
    out = enumerate_plans(plan, budget)
    assert plan in out or any(render_plan(p) == render_plan(plan) for p in out)
    assert len({render_plan(p) for p in out}) == len(out)


@settings(max_examples=60, deadline=None)
@given(plans(2))
def test_rewrites_preserve_output_label(plan):
    for rewrite in (rewrite_path_alternation, rewrite_path_concatenation):
        assert plan_label(rewrite(plan)) == plan_label(plan)
