"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from child import SAMPLED_CHECKS  # noqa: E402
from stagetrace import Acc, TracedStage, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, churn_stream  # noqa: E402

from streamgraph.model import window_interval  # noqa: E402
from streamgraph.query import parse_query, to_plan  # noqa: E402
from streamgraph.runtime import compile_plan, run_stream  # noqa: E402
from streamgraph.streams import generate_synthetic, read_edge_stream, write_edge_stream  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL_CHURN = Workload("small-churn", WORKLOADS["chain-churn"].query, 30, 5, 8,
                       3000, ("a", "b", "c"), delete_share=0.35)


def small_stream(seed: int):
    return churn_stream(8, 3000, ("a", "b", "c"), 30, 5, 0.35, seed)


def test_generation_is_deterministic_per_seed():
    assert small_stream(3) == small_stream(3)
    assert small_stream(3) != small_stream(4)
    w = WORKLOADS["closure-insert"]
    assert w.events(5) == w.events(5)


def test_closure_purge_is_the_demo_benchmark_stream():
    # demos/benchmark.py's defaults; its run gives 32,248 emissions at seed 42
    assert WORKLOADS["closure-purge"].events(42) == generate_synthetic(
        20_000, 100_000, cyclicity=0.3, seed=42)


def test_every_deletion_refs_a_live_in_window_insertion():
    events = small_stream(11)
    live: dict[tuple, list[int]] = {}
    deletions = 0
    for e in events:
        key = (e.src, e.trg, e.label)
        if e.sign > 0:
            live.setdefault(key, []).append(e.uid)
            continue
        deletions += 1
        # read_edge_stream resolves a deletion to the newest live insertion
        assert live[key] and live[key][-1] == e.ref
        live[key].pop()
        ins = events[e.ref]
        assert ins.sign > 0 and (ins.src, ins.trg, ins.label) == key
        assert window_interval(ins.ts, 30, 5).end > e.ts
    assert 0.25 < deletions / len(events) < 0.36


def test_stream_text_round_trips_with_the_same_refs():
    events = small_stream(2)
    buf = io.StringIO()
    write_edge_stream(events, buf)
    assert read_edge_stream(io.StringIO(buf.getvalue())) == events


class _Fixed:
    def __init__(self, outs):
        self.outs = outs
        self.marks = []

    def on_tuple(self, port, t, now):
        return self.outs

    def on_watermark(self, w):
        self.marks.append(w)


def test_traced_stage_returns_the_stage_outputs_unchanged():
    events = small_stream(1)
    outs = events[:3]
    stage = _Fixed(outs)
    proxy = TracedStage(stage, Acc())
    assert proxy.on_tuple(0, events[0], 0) is outs
    assert outs == small_stream(1)[:3]
    proxy.on_watermark(7)
    assert stage.marks == [7] and proxy.marks == [7]


def _pipe():
    return compile_plan(to_plan(parse_query(SMALL_CHURN.query_text())))


def test_traced_pipeline_emits_exactly_what_the_plain_one_does():
    events = small_stream(5)
    plain, traced = _pipe(), _pipe()
    tracer = Tracer(traced)
    tracer.start()
    m = run_stream(traced, events)
    run_stream(plain, events)
    shown = [(t.key, t.interval, t.payload, t.sign) for t in traced.sink.log]
    assert shown == [(t.key, t.interval, t.payload, t.sign) for t in plain.sink.log]
    assert len(tracer.slides) == len(m.slide_latencies)
    assert tracer.kinds["path"].in_neg > 0
    assert tracer.kinds["sink"].in_pos + tracer.kinds["sink"].in_neg == len(plain.sink.log)


def test_metric_and_workload_names_are_well_formed_and_described():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    names = [*run.units("end_to_end"), *run.units("per_layer"), *WORKLOADS]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    # layers.json says, for every per-layer metric, what it should move where
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert list(layers) == list(run.units("per_layer"))
    for m in layers.values():
        assert set(m["moves"]) <= {*run.units("end_to_end"), "failed_ratio"}
        assert m["workloads"] == "all" or set(m["workloads"]) <= set(WORKLOADS)


def test_traced_child_reports_every_per_layer_metric(tmp_path):
    stream, query = tmp_path / "s.edges", tmp_path / "s.query"
    with open(stream, "w") as fh:
        write_edge_stream(SMALL_CHURN.events(9), fh)
    query.write_text(SMALL_CHURN.query_text())
    kids = run.Children(stream, query, tmp_path / "s.out", time.perf_counter())
    untraced, traced = kids.run(False), kids.run(True)
    assert kids.failed == 0 and kids.attempted == 1 + SAMPLED_CHECKS + 1
    assert traced["net_digest"] == untraced["net_digest"]
    layers = run.per_layer(traced, untraced)
    assert list(layers) == list(run.units("per_layer"))
    stage_s = layers["runtime.run_s"] - layers["runtime.driver_s"]
    assert 0 < stage_s <= layers["runtime.run_s"]
    assert layers["pathop.in_neg"] > 0 and layers["operators.pattern.out_pos"] > 0
    setup = kids.setup_only()
    assert setup["setup_s"] == pytest.approx(
        sum(setup[k] for k in ("read_s", "parse_s", "plan_s", "compile_s")))


def test_runner_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure-insert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("pct,want", [(50, 5), (99, 10), (100, 10)])
def test_nearest_rank(pct, want):
    assert run.nearest_rank(list(range(1, 11)), pct) == want
