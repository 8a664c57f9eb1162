from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamgraph.automata import (
    Alt,
    Concat,
    Dfa,
    Opt,
    Plus,
    Star,
    Sym,
    build_dfa,
    nullable,
    regex_alphabet,
    render_regex,
)

A, B, C = Sym("a"), Sym("b"), Sym("c")


@functools.lru_cache(maxsize=None)
def brute_match(node, word: tuple[str, ...]) -> bool:
    # Independent oracle: structural matcher trying every split point.
    # Memoized on (node, word); nested quantifiers explode otherwise.
    if isinstance(node, Sym):
        return len(word) == 1 and word[0] == node.label
    if isinstance(node, Concat):
        if len(node.parts) == 1:
            return brute_match(node.parts[0], word)
        head, rest = node.parts[0], Concat(node.parts[1:])
        return any(
            brute_match(head, word[:i]) and brute_match(rest, word[i:])
            for i in range(len(word) + 1)
        )
    if isinstance(node, Alt):
        return any(brute_match(p, word) for p in node.parts)
    if isinstance(node, Star):
        if not word:
            return True
        return any(
            brute_match(node.inner, word[:i]) and brute_match(node, word[i:])
            for i in range(1, len(word) + 1)
        )
    if isinstance(node, Plus):
        return brute_match(Concat((node.inner, Star(node.inner))), word)
    if isinstance(node, Opt):
        return not word or brute_match(node.inner, word)
    raise TypeError(node)


def all_words(alphabet: list[str], max_len: int):
    for k in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=k)


def live_states(dfa: Dfa) -> set[int]:
    # States from which acceptance is reachable (all kept states should be).
    back: dict[int, set[int]] = {}
    for (s, _), t in dfa.transitions.items():
        back.setdefault(t, set()).add(s)
    seen = set(dfa.accepting)
    work = list(dfa.accepting)
    while work:
        for p in back.get(work.pop(), ()):
            if p not in seen:
                seen.add(p)
                work.append(p)
    return seen


def test_alphabet_and_nullable():
    node = Concat((A, Star(Alt((B, C)))))
    assert regex_alphabet(node) == {"a", "b", "c"}
    assert not nullable(node)
    assert nullable(Star(A))
    assert nullable(Concat((Opt(A), Star(B))))
    assert not nullable(Plus(A))
    assert nullable(Alt((Star(Concat((A, B))), C)))


def test_render_regex_fixed_texts():
    # Parentheses only where a postfix, Concat or Alt would read otherwise.
    for node, text in [
        (A, "a"),
        (Concat((A, B)), "a.b"),
        (Alt((A, Concat((B, C)))), "a|b.c"),
        (Concat((Alt((A, B)), C)), "(a|b).c"),
        (Plus(A), "a+"),
        (Star(Concat((A, B))), "(a.b)*"),
        (Concat((Sym("knows"), Opt(Sym("likes")))), "knows.likes?"),
        (Concat((A, B, C)), "a.b.c"),
        (Plus(Concat((A, B))), "(a.b)+"),
        (Alt((A, B, C)), "a|b|c"),
        (Concat((Alt((A, B)), Plus(C))), "(a|b).c+"),
        (Concat((Opt(A), Star(B))), "a?.b*"),
    ]:
        assert render_regex(node) == text


# Expected values below were computed with the brute-force matcher first.

def test_dfa_single_label_closure():
    dfa = build_dfa(Plus(A))
    assert dfa.start == 0
    assert len(dfa.states) == 2
    assert dfa.accepting == {1}
    assert dfa.transitions == {(0, "a"): 1, (1, "a"): 1}
    assert not dfa.accepts_empty()


def test_dfa_star_differs_only_on_empty():
    plus = build_dfa(Plus(A))
    star = build_dfa(Star(A))
    assert star.accepts_empty() and not plus.accepts_empty()
    for w in all_words(["a"], 5):
        if w:
            assert plus.accepts(w) == star.accepts(w) is True


def test_dfa_three_step_loop_state_count():
    # Residual languages of (a.b.c)+ are pairwise distinct for prefixes
    # "", "a", "ab", "abc": the minimal live-state DFA has 4 states.
    dfa = build_dfa(Plus(Concat((A, B, C))))
    assert len(dfa.states) == 4
    assert dfa.accepting == {3}
    assert dfa.delta_star(0, ("a", "b", "c")) == 3
    assert dfa.transitions.get((3, "a")) == 1
    assert dfa.transitions.get((3, "b")) is None


def test_dfa_canonical_numbering_is_bfs_from_start():
    dfa = build_dfa(Alt((Concat((A, B)), Concat((A, C)))))
    # BFS over sorted labels: 0 -a-> 1, then 1 -b-> 2, 1 -c-> 2 (merged by
    # minimization since both continuations accept exactly the empty rest).
    assert dfa.start == 0
    assert dfa.transitions.get((0, "a")) == 1
    assert dfa.transitions.get((1, "b")) == dfa.transitions.get((1, "c")) == 2
    assert dfa.accepting == {2}
    # Breadth first, not depth first: 1's successors are numbered before 2's.
    dfa = build_dfa(Alt((Concat((A, Alt((Concat((C, Sym("e"))), Sym("d"))))),
                          Concat((B, Sym("f"))))))
    assert dfa.transitions == {
        (0, "a"): 1, (0, "b"): 2, (1, "c"): 3, (1, "d"): 4, (2, "f"): 4, (3, "e"): 4
    }


PINNED_DFAS = [
    ("a*", Star(A), {0}, {(0, "a"): 0}),
    ("(a.b.c)+", Plus(Concat((A, B, C))), {3},
     {(0, "a"): 1, (1, "b"): 2, (2, "c"): 3, (3, "a"): 1}),
    ("(a.$tmp1)+", Plus(Concat((A, Sym("$tmp1")))), {2},
     {(0, "a"): 1, (1, "$tmp1"): 2, (2, "a"): 1}),
    ("($tmp1.c)+", Plus(Concat((Sym("$tmp1"), C))), {2},
     {(0, "$tmp1"): 1, (1, "c"): 2, (2, "$tmp1"): 1}),
]


# Each case is named by its text; pytest would name a tree "node0".
@pytest.mark.parametrize("text, node, accepting, transitions", PINNED_DFAS, ids=[
    f"{text}-accepting{i}-transitions{i}" for i, (text, *_) in enumerate(PINNED_DFAS)])
def test_dfa_state_numbers_are_pinned(text, node, accepting, transitions):
    # The automata that catalog and plan-variant runs compile; their state
    # ids enter path origins and the order of relaxation.
    assert render_regex(node) == text
    dfa = build_dfa(node)
    assert (dfa.start, dfa.accepting, dfa.transitions) == (0, accepting, transitions)


def test_dfa_minimal_beyond_brute_force_reach():
    # The first needs the last 9 letters read: 2^9 distinct residuals.  The
    # mirror counts 0..8 letters (8 also waits for an "a"), then accepts.
    ab = Alt((A, B))
    assert len(build_dfa(Concat((Star(ab), A) + (ab,) * 8)).states) == 512
    assert len(build_dfa(Concat((ab,) * 8 + (A, Star(ab)))).states) == 10


def test_dfa_empty_language():
    # Nothing matches a label that must be followed by an impossible branch.
    dfa = build_dfa(Concat((Sym("a"), Alt(()))))
    assert not any(dfa.accepts(w) for w in all_words(["a", "b"], 4))
    # One non-accepting start state and no transitions.
    assert (dfa.start, dfa.accepting, dfa.transitions) == (0, set(), {})


# bounded size: determinization and the brute matcher both degrade on
# pathologically nested quantifiers
regex_ast = st.recursive(
    st.sampled_from([Sym("a"), Sym("b"), Sym("c")]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: Concat(p)),
        st.tuples(inner, inner).map(lambda p: Alt(p)),
        inner.map(Star),
        inner.map(Plus),
        inner.map(Opt),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(regex_ast, st.lists(st.sampled_from(["a", "b", "c"]), max_size=6))
def test_dfa_agrees_with_brute_matcher(node, word):
    assert build_dfa(node).accepts(tuple(word)) == brute_match(node, tuple(word))


@settings(max_examples=60, deadline=None)
@given(regex_ast)
def test_dfa_minimal_and_all_states_live(node):
    dfa = build_dfa(node)
    assert live_states(dfa) | {dfa.start} == dfa.states
    # No two states may accept the same residual language over short words.
    words = list(all_words(sorted(regex_alphabet(node) or {"a"}), 5))
    sigs = {}
    for s in dfa.states:
        sig = tuple(
            (lambda q: q is not None and q in dfa.accepting)(dfa.delta_star(s, w))
            for w in words
        )
        assert sig not in sigs, f"states {sigs.get(sig)} and {s} indistinguishable"
        sigs[sig] = s
    # Numbered breadth first from the start over sorted labels.
    order = [dfa.start]
    for s in order:
        for label in sorted(regex_alphabet(node)):
            t = dfa.transitions.get((s, label))
            if t is not None and t not in order:
                order.append(t)
    assert order == list(range(len(dfa.states)))


@settings(max_examples=60, deadline=None)
@given(regex_ast)
def test_language_equal_regexes_compile_to_the_same_dfa(r):
    def fields(node):
        dfa = build_dfa(node)
        return dfa.start, dfa.accepting, dfa.transitions

    assert fields(Alt((r, r))) == fields(r)
    assert fields(Concat((r, Star(r)))) == fields(Plus(r))
    assert fields(Star(Star(r))) == fields(Star(r))
    assert fields(Opt(Plus(r))) == fields(Star(r))


@settings(max_examples=80, deadline=None)
@given(st.lists(regex_ast, min_size=2, max_size=4))
@example([Concat((Concat((A, B)), C)), Concat((A, Concat((B, C)))), Concat((A, B, C)),
          Alt((Alt((A, B)), C)), Alt((A, B, C)), Star(Plus(A)), Plus(Star(A))])
def test_render_regex_distinguishes_exactly_the_unequal_trees(drawn):
    for p in drawn:
        for q in drawn:
            assert (p == q) == (render_regex(p) == render_regex(q))
