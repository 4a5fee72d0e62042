"""Smoke test of the benchmark harness at desk scale.

It lives outside ``tests/`` so the tier-1 suite does not collect it. Run it
from the root of a checkout with

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"contain": (8, 10, 12), "analyze": (16, 24, 32),
        "sat-roundtrip": (3, 6, 9), "generate": (8, 12, 16)}


@pytest.fixture
def harness(monkeypatch):
    """The harness modules, imported in-process, with desk-scale workloads
    and the alarm handler set."""
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    tiny = {}
    for name, workload in workloads.WORKLOADS.items():
        copy = type(workload)()
        copy.classes, copy.pool, copy.warmup = TINY[name], 2, 2
        tiny[name] = copy
    monkeypatch.setattr(workloads, "WORKLOADS", tiny)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield run, workloads
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_declared_metric(harness, capsys, workload, trace):
    run, _ = harness
    assert run.main(["--seconds", "0.5", "--workload", workload, "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_an_op_past_the_cap_is_a_timeout(harness):
    run, _ = harness

    def spin(_):
        while True:
            pass

    status, out, elapsed = run.run_capped(spin, None, 0.01)
    assert (status, out) == ("timeout", None)
    assert 0.01 <= elapsed < 5


def test_failed_ops_are_charged_the_cap(harness, monkeypatch):
    run, workloads = harness
    monkeypatch.setattr(run, "CAP_S", 0.0005)
    workload = workloads.WORKLOADS["contain"]
    cycles, _ = run.set_up(workload, 1)
    records = run.measure(workload, cycles, 0.2)
    assert {r["status"] for r in records} == {"timeout"}
    assert all(r["charged_s"] >= run.CAP_S + r["elapsed_s"] for r in records)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "contain"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert proc.stdout == ""
