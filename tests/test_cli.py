"""Command-line interface tests, run in-process through main()."""

from __future__ import annotations

import json

import pytest

from streamgraph import cli, runtime
from streamgraph.model import Interval, StreamTuple

NOTIFY_QUERY = """\
WINDOW 24 SLIDE 1
RL(u1, u2) <- likes(u1, m1), post(u2, m1), follows+(u1, u2) as FP
Answer(u, m) <- RL+(u, u2) as RLP, post(u2, m)
"""

PART_A_STREAM = """\
u b likes 7
u c likes 7
v b post 10
y m1 likes 13
u m1 post 14
y u follows 28
u v follows 29
v c post 30
"""

Q4_QUERY = """\
WINDOW 10 SLIDE 5
D(x, y) <- a(x, m1), b(m1, m2), c(m2, y)
Answer(x, y) <- D+(x, y) as DP
"""

NET_LINES = [
    "+ y m1 Answer 28 37 y:RL:u;u:post:m1",
    "+ u b Answer 29 31 u:RL:v;v:post:b",
    "+ y b Answer 29 31 y:RL:u;u:RL:v;v:post:b",
    "+ u c Answer 30 31 u:RL:v;v:post:c",
    "+ y c Answer 30 31 y:RL:u;u:RL:v;v:post:c",
]


def fixture(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def notify_args(tmp_path):
    return (
        fixture(tmp_path, "notify.sgq", NOTIFY_QUERY),
        fixture(tmp_path, "parta.stream", PART_A_STREAM),
    )


def test_run_net_writes_the_final_results(tmp_path, capsys):
    qf, sf = notify_args(tmp_path)
    assert cli.main(["run", "--query", qf, "--input", sf, "--net"]) == 0
    assert capsys.readouterr().out.splitlines() == NET_LINES


def test_run_writes_the_signed_log_by_default(tmp_path):
    qf, sf = notify_args(tmp_path)
    out = tmp_path / "results.txt"
    assert cli.main(["run", "--query", qf, "--input", sf, "--output", str(out)]) == 0
    # insertions only: every result is written once, and none retracted
    assert out.read_text().splitlines() == NET_LINES


def test_run_metrics_json_has_the_flat_schema(tmp_path):
    qf, sf = notify_args(tmp_path)
    mf = tmp_path / "m.json"
    assert cli.main([
        "run", "--query", qf, "--input", sf, "--net", "--metrics", str(mf),
    ]) == 0
    doc = json.loads(mf.read_text())
    assert sorted(doc) == [
        "gc_collections", "p99_latency", "slides", "throughput", "tuples_in",
        "tuples_out",
    ]
    assert doc["slides"] == 23
    assert doc["tuples_in"] == 8
    assert doc["tuples_out"] == 5
    assert doc["throughput"] > 0
    assert doc["p99_latency"] > 0
    assert len(doc["gc_collections"]) == 3
    assert all(n >= 0 for n in doc["gc_collections"])


def test_run_payload_expanded_flattens_witnesses(tmp_path, capsys):
    qf, sf = notify_args(tmp_path)
    assert cli.main([
        "run", "--query", qf, "--input", sf, "--net", "--payload", "expanded",
    ]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == (
        "+ y m1 Answer 28 37 y:likes:m1;u:post:m1;y:follows:u;u:post:m1"
    )


def test_plan_prints_the_canonical_translation(tmp_path, capsys):
    qf = fixture(tmp_path, "notify.sgq", NOTIFY_QUERY)
    assert cli.main(["plan", "--query", qf]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pattern[trg1=src2 -> (src1, trg2) Answer](")
    assert "path[RL+ -> RLP](" in out
    assert "pattern[trg1=trg2 & src1=src3 & src2=trg3 -> (src1, src2) RL](" in out
    assert "wscan[likes size=24 slide=1]" in out
    assert "path[follows+ -> FP](" in out


def test_plan_rewrites_enumerates_the_chain_family(tmp_path, capsys):
    qf = fixture(tmp_path, "q4.sgq", Q4_QUERY)
    assert cli.main(["plan", "--query", qf, "--rewrites", "3"]) == 0
    out = capsys.readouterr().out
    assert "7 plans within 3 rewrites:" in out
    scans = "wscan[a size=10 slide=5], wscan[b size=10 slide=5], wscan[c size=10 slide=5]"
    assert f"path[(a.b.c)+ -> DP]({scans})" in out
    assert "path[(a.$tmp1)+ -> DP](wscan[a size=10 slide=5], pattern[" in out
    assert "path[($tmp1.c)+ -> DP](pattern[" in out


def test_plan_rejects_a_negative_rewrite_budget(tmp_path, capsys):
    qf = fixture(tmp_path, "q4.sgq", Q4_QUERY)
    assert cli.main(["plan", "--query", qf, "--rewrites", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --rewrites must be >= 0, got -1\n"


def test_check_passes_on_the_example(tmp_path, capsys):
    qf, sf = notify_args(tmp_path)
    assert cli.main(["check", "--query", qf, "--input", sf]) == 0
    assert "ok: 24 instants, zero diffs" in capsys.readouterr().out
    assert cli.main([
        "check", "--query", qf, "--input", sf, "--instants", "dense",
    ]) == 0


def test_check_fails_when_the_reference_disagrees(tmp_path, capsys, monkeypatch):
    qf, sf = notify_args(tmp_path)
    monkeypatch.setattr(cli, "eval_query_at", lambda q, ev, t: {})
    assert cli.main(["check", "--query", qf, "--input", sf]) == 1
    out = capsys.readouterr().out
    assert "extra=" in out
    assert "FAIL:" in out


def test_dense_check_fails_when_the_log_retracts_an_ended_result(
        tmp_path, capsys, monkeypatch):
    qf, sf = notify_args(tmp_path)
    inner = runtime.OutputSink.on_tuple

    def with_ended_retraction(self, port, t, now):
        # after each emission, log a retraction of a result that ended at now
        out = inner(self, port, t, now)
        self.log.append(StreamTuple(t.src, t.trg, t.label, Interval(now - 1, now),
                                    sign=-1, origin="ended"))
        return out

    monkeypatch.setattr(runtime.OutputSink, "on_tuple", with_ended_retraction)
    assert cli.main([
        "check", "--query", qf, "--input", sf, "--instants", "dense",
    ]) == 1
    out = capsys.readouterr().out
    assert "t=28: retracted an ended result - y m1 Answer 27 28 -\n" in out
    assert "missing=" not in out and "FAIL:" in out


@pytest.mark.parametrize("instants", ["boundary", "dense"])
@pytest.mark.parametrize("sign, message", [
    (1, "t=3: retracted an unknown result - x y $a_plus 1 11 x:a:y\n"),
    (-1, "t=3: written log missing=[] extra=[('x', 'y')]\n"),
], ids=["lost-insertion", "lost-retraction"])
def test_check_replays_the_written_log(tmp_path, capsys, monkeypatch, sign, message, instants):
    """The engine's tables stay right when the sink loses a line, so only
    the replay of the written log can see it."""
    qf = fixture(tmp_path, "q.rq", "WINDOW 10 SLIDE 1\nAnswer(x, y) <- a+(x, y)\n")
    sf = fixture(tmp_path, "s.stream", "x y a 1\nx y a 3 -\n")
    inner = runtime.OutputSink.on_tuple
    lost = []

    def losing_one(self, port, t, now):
        if t.sign == sign and not lost:
            lost.append(t)
            return []
        return inner(self, port, t, now)

    monkeypatch.setattr(runtime.OutputSink, "on_tuple", losing_one)
    assert cli.main(["check", "--query", qf, "--input", sf, "--instants", instants]) == 1
    out = capsys.readouterr().out
    assert message in out and "FAIL:" in out
    assert ": missing=" not in out


def test_gen_is_deterministic_and_parseable(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"vertices": 6, "edges": 40, "labels": ["a", "b"], "seed": 9}
    ))
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    assert cli.main(["gen", "--spec", str(spec), "--out", str(out1)]) == 0
    assert cli.main(["gen", "--spec", str(spec), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 40

    from streamgraph.streams import read_edge_stream
    with open(out1) as fh:
        assert len(read_edge_stream(fh)) == 40


@pytest.mark.parametrize("spec, message", [
    pytest.param({"vertices": 6}, "spec is missing required key 'edges'",
                 id="missing-edges"),
    pytest.param([6, 10], "spec must be a JSON object", id="list"),
    pytest.param({"vertices": "10", "edges": 5}, "vertices must be", id="vertices-str"),
    pytest.param({"vertices": 1, "edges": 5}, "vertices must be", id="vertices-1"),
    pytest.param({"vertices": 6, "edges": -1}, "edges must be", id="edges-negative"),
    pytest.param({"vertices": 6, "edges": 5, "rate": -1}, "rate must be", id="rate-negative"),
    pytest.param({"vertices": 6, "edges": 5, "rate": 0}, "rate must be", id="rate-0"),
    pytest.param({"vertices": 3, "edges": 3, "rate": 5e-324}, "rate must be",
                 id="rate-overflows-timestamps"),
    pytest.param({"vertices": 6, "edges": 5, "cyclicity": 1.5}, "cyclicity must be",
                 id="cyclicity-above-1"),
    pytest.param({"vertices": 6, "edges": 5, "seed": [1]}, "seed must be", id="seed-list"),
    pytest.param({"vertices": 6, "edges": 5, "labels": []}, "labels must be",
                 id="labels-empty"),
    pytest.param({"vertices": 6, "edges": 5, "labels": "ab"}, "labels must be",
                 id="labels-str"),
    pytest.param({"vertices": 6, "edges": 5, "labels": ["a", ""]}, "labels must be",
                 id="label-empty"),
    pytest.param({"vertices": 6, "edges": 5, "labels": ["a b"]}, "labels must be",
                 id="label-space"),
    pytest.param({"vertices": 6, "edges": 5, "labels": ["a#"]}, "labels must be",
                 id="label-hash"),
])
def test_gen_rejects_incomplete_specs(tmp_path, capsys, spec, message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "x"
    assert cli.main(["gen", "--spec", str(spec_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_window_flags_override_the_query_file(tmp_path, capsys):
    qf = fixture(tmp_path, "plain.sgq", "Answer(x, y) <- a(x, y)\n")
    assert cli.main(["plan", "--query", qf, "--window", "24"]) == 0
    assert "wscan[a size=24 slide=1]" in capsys.readouterr().out
    assert cli.main(["plan", "--query", qf]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_inputs_exit_2_with_one_line_diagnostics(tmp_path, capsys):
    qf, sf = notify_args(tmp_path)
    assert cli.main(["run", "--query", str(tmp_path / "nope.sgq"), "--input", sf]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1

    bad = fixture(tmp_path, "bad.stream", "x y a 5\nx z a 3\n")
    assert cli.main(["run", "--query", qf, "--input", bad]) == 2
    assert "timestamp 3 decreases below 5" in capsys.readouterr().err

    badq = fixture(tmp_path, "bad.sgq", "WINDOW 10\nAnswer(x, y) <- a(x,\n")
    assert cli.main(["plan", "--query", badq]) == 2
    assert capsys.readouterr().err.startswith("error:")
