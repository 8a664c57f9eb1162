"""Smoke tests for the scripts in demos/: each runs in a fresh interpreter
against the source tree and prints what it promises."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    (["running_example.py"], "8 events in, 5 results out, 23 window slides"),
    (["plan_family.py"], "canonical: 4 emissions, net [('v2', 'v7', 38, 40), "
                         "('v5', 'v3', 3, 10), ('v7', 'v9', 11, 15), ('v8', 'v3', 4, 10)]"),
    (["benchmark.py", "--edges", "2000", "--vertices", "200", "--window", "100",
      "--slide", "10"], '"tuples_out": 644'),
]


@pytest.mark.parametrize("argv, expected", DEMOS, ids=[argv[0] for argv, _ in DEMOS])
def test_demo_runs(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in [line.strip() for line in proc.stdout.splitlines()]
