"""Stream file format and synthetic generator tests."""

from __future__ import annotations

import io
import re

import pytest
from hypothesis import example, given, strategies as st

from streamgraph.model import EdgeEvent, Interval, StreamTuple
from streamgraph.streams import (
    StreamFormatError,
    format_result,
    generate_synthetic,
    read_edge_stream,
    write_edge_stream,
    write_result_stream,
)

SAMPLE = """\
# social fixture
u b likes 7

v b post 10 +   # trailing comment
u b likes 12 -
"""


def test_read_parses_signs_comments_and_blanks():
    ev = read_edge_stream(io.StringIO(SAMPLE))
    assert [(e.sign, e.src, e.trg, e.label, e.ts) for e in ev] == [
        (1, "u", "b", "likes", 7),
        (1, "v", "b", "post", 10),
        (-1, "u", "b", "likes", 12),
    ]
    assert ev[2].ref == 0
    assert [e.uid for e in ev] == [0, 1, 2]


def test_roundtrip_preserves_records():
    ev = read_edge_stream(io.StringIO(SAMPLE))
    buf = io.StringIO()
    write_edge_stream(ev, buf)
    assert buf.getvalue() == "u b likes 7\nv b post 10\nu b likes 12 -\n"
    assert read_edge_stream(io.StringIO(buf.getvalue())) == ev


def test_deletions_resolve_to_the_most_recent_live_insertion():
    text = "x y a 0\nx y a 1\nx y a 2 -\nx y a 3 -\n"
    ev = read_edge_stream(io.StringIO(text))
    assert ev[2].ref == 1
    assert ev[3].ref == 0


def test_dangling_deletion_reports_the_line():
    text = "# header\nx y a 0\nx y a 1 -\nx y a 2 -\n"
    with pytest.raises(StreamFormatError, match="line 4: .*matches no live insertion"):
        read_edge_stream(io.StringIO(text))


def test_decreasing_timestamps_are_rejected():
    with pytest.raises(StreamFormatError, match="line 2: timestamp 3 decreases below 5"):
        read_edge_stream(io.StringIO("a b l 5\nc d l 3\n"))


def test_malformed_lines_are_rejected():
    with pytest.raises(StreamFormatError, match="line 1: expected"):
        read_edge_stream(io.StringIO("x y a\n"))
    with pytest.raises(StreamFormatError, match="line 1: expected"):
        read_edge_stream(io.StringIO("x y a 1 2 3\n"))
    with pytest.raises(StreamFormatError, match="bad timestamp 'zz'"):
        read_edge_stream(io.StringIO("x y a zz\n"))



def test_malformed_line_reports_the_raw_line_and_counts_every_line():
    text = "\n# header\n   \nx y a # c\n"
    msg = "line 4: expected 'src trg label ts [+|-]', got 'x y a # c'"
    with pytest.raises(StreamFormatError, match=f"^{re.escape(msg)}$"):
        read_edge_stream(io.StringIO(text))


TINY_KEY = st.tuples(st.sampled_from("uv"), st.sampled_from("uv"),
                     st.sampled_from("ab"))


@example(prefix=[("u", "v", "a")], first=("v", "u", "b"), repeats=0, rest=[])
@example(prefix=[("u", "v", "a")], first=("u", "v", "a"), repeats=1,
         rest=[(("u", "v", "a"), True)] * 3)
@given(
    prefix=st.lists(TINY_KEY, max_size=8),
    first=TINY_KEY,
    repeats=st.integers(min_value=0, max_value=3),
    rest=st.lists(st.tuples(TINY_KEY, st.booleans()), max_size=30),
)
def test_deletions_match_a_naive_latest_live_insertion(prefix, first, repeats, rest):
    """Insertions of a tiny key space, ``repeats`` more of ``first``, the
    first deletion (of ``first``), then mixed lines.  Each deletion's
    ``ref`` is the latest insertion of its key not yet deleted; a
    deletion with none raises with its line number, whether it is the
    first deletion or comes after it."""
    ops = ([(k, False) for k in prefix] + [(first, False)] * repeats
           + [(first, True)] + rest)
    text = "".join(f"{s} {t} {l} {ts}{' -' if neg else ''}\n"
                   for ts, ((s, t, l), neg) in enumerate(ops))
    want: list[tuple] = []
    undone: set[int] = set()
    for ln, (key, neg) in enumerate(ops, start=1):
        if not neg:
            want.append((key, 1, None))
            continue
        live = [uid for uid, (k, sign, _) in enumerate(want)
                if sign > 0 and k == key and uid not in undone]
        if not live:
            msg = f"line {ln}: deletion of {' '.join(key)} matches no live insertion"
            with pytest.raises(StreamFormatError, match=f"^{re.escape(msg)}$"):
                read_edge_stream(io.StringIO(text))
            return
        undone.add(live[-1])
        want.append((key, -1, live[-1]))
    ev = read_edge_stream(io.StringIO(text))
    assert [((e.src, e.trg, e.label), e.sign, e.ref) for e in ev] == want
    assert [e.uid for e in ev] == list(range(len(ops)))

def test_format_result_covers_inf_and_payloads():
    t = StreamTuple(
        "y", "v", "RLP", Interval(29, 31),
        (("y", "RL", "u"), ("u", "RL", "v")),
    )
    assert format_result(t) == "+ y v RLP 29 31 y:RL:u;u:RL:v"
    raw = StreamTuple("x", "y", "a", Interval(13, float("inf")), ())
    assert format_result(raw) == "+ x y a 13 inf -"
    neg = StreamTuple("x", "y", "a", Interval(0, 5), (), sign=-1)
    assert format_result(neg) == "- x y a 0 5 -"


def test_write_result_stream_is_line_per_tuple():
    buf = io.StringIO()
    write_result_stream(
        [StreamTuple("x", "y", "a", Interval(0, 5), ())], buf
    )
    assert buf.getvalue() == "+ x y a 0 5 -\n"


def test_generator_is_seed_deterministic():
    a = generate_synthetic(10, 50, seed=3)
    b = generate_synthetic(10, 50, seed=3)
    c = generate_synthetic(10, 50, seed=4)
    assert a == b
    assert a != c


def test_generator_shape():
    ev = generate_synthetic(8, 40, labels=("a", "b"), rate=2.0, seed=1)
    assert len(ev) == 40
    assert [e.uid for e in ev] == list(range(40))
    assert all(e.ts == i // 2 for i, e in enumerate(ev))
    assert all(e.label in ("a", "b") for e in ev)
    assert all(e.src != e.trg for e in ev)
    assert all(e.sign == 1 for e in ev)


def test_cyclicity_zero_never_points_backwards_except_from_the_sink():
    ev = generate_synthetic(6, 200, cyclicity=0.0, seed=2)
    for e in ev:
        u, v = int(e.src[1:]), int(e.trg[1:])
        assert u < v or u == 5


def test_generator_rejects_degenerate_graphs():
    with pytest.raises(ValueError):
        generate_synthetic(1, 10)


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=40),
)
def test_write_read_roundtrip_on_generated_streams(seed, vertices, edges):
    ev = generate_synthetic(vertices, edges, seed=seed)
    buf = io.StringIO()
    write_edge_stream(ev, buf)
    assert read_edge_stream(io.StringIO(buf.getvalue())) == ev
