"""Fast tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from layers import TARGETS
from spans import Span, Target, Tracer, install, self_times

assert run.library_present()


def test_self_times_subtract_children_once() -> None:
    spans = [
        Span(0, "cell", "op", None, 0.0, 10.0),
        Span(1, "dram.sched", "op", 0, 1.0, 7.0),
        Span(2, "mapping.addr", "op", 1, 2.0, 3.0),
        Span(3, "mapping.addr", "op", 1, 4.0, 4.5),
        Span(4, "energy", "op", 0, 8.0, 9.0),
        # Overlapping children are merged, never double-subtracted.
        Span(5, "store.read", "op", 4, 8.0, 8.6),
        Span(6, "store.read", "op", 4, 8.4, 8.8),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert selfs[1] == pytest.approx(6.0 - 1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0 - 0.8)
    # Without overlapping siblings, self times add up to the root span.
    assert sum(self_times(spans[:5]).values()) == pytest.approx(spans[0].duration)
    only_dram = self_times(spans, lambda kid: kid.name.startswith("dram."))
    assert only_dram[0] == pytest.approx(4.0)


def test_tracer_nests_spans_under_one_operation() -> None:
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op = "007.cell"
    with tracer.span("cell"):
        with tracer.span("dram.sched"):
            pass
    root, child = tracer.spans
    assert (root.parent, child.parent) == (None, root.span_id)
    assert root.op == child.op == "007.cell"
    assert (root.duration, child.duration) == (3.0, 1.0)


def test_missing_targets_are_reported_not_raised() -> None:
    tracer = Tracer()
    uninstall = install(tracer, [
        Target("repro.no_such_module:run", "x"),
        Target("repro.dram.engine:NoSuchEngine.run", "x"),
        Target("repro.dram.engine:SchedulingEngine.no_such_method", "x"),
    ])
    uninstall()
    assert tracer.missing == ["repro.no_such_module:run", "repro.dram.engine:NoSuchEngine.run",
                              "repro.dram.engine:SchedulingEngine.no_such_method"]


def test_install_wraps_and_restores_public_entry_points() -> None:
    import repro.system.downlink as downlink
    from repro.channel import codeword
    from repro.dram.engine import SchedulingEngine

    originals = (SchedulingEngine.run, codeword.report_from_counts, downlink.report_from_counts)
    tracer = Tracer()
    uninstall = install(tracer, TARGETS)
    try:
        assert SchedulingEngine.run is not originals[0]
        # A function imported by name elsewhere is replaced there too.
        assert downlink.report_from_counts is codeword.report_from_counts
        assert downlink.report_from_counts is not originals[1]
    finally:
        uninstall()
    assert (SchedulingEngine.run, codeword.report_from_counts,
            downlink.report_from_counts) == originals
    assert tracer.missing == []


def test_tail_keeps_ten_cells_beyond() -> None:
    pct, value = run.tail([float(v) for v in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0 / 3, 1.0)


@pytest.fixture
def tiny(monkeypatch: pytest.MonkeyPatch, tmp_path: object) -> str:
    monkeypatch.setattr(workloads, "TABLE1_N", 24)
    monkeypatch.setattr(workloads, "POLICY_N", 16)
    monkeypatch.setattr(workloads.Workload, "cells", lambda self: ["DDR4-3200", "LPDDR4-4266"])
    return str(tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_checks_traced_and_untraced(name: str, tiny: str) -> None:
    workload = workloads.make(name, seed=3, scratch=tiny)
    if name == "campaign":
        workload.grid = workload.grid[:12]  # two report rows
    checks = workloads.Checks()
    cal = run.Calibrator()
    workload.warm_up(checks)
    plain = run.run_pass(workload, checks, cal, None, 0)
    traced = run.run_pass(workload, checks, cal, Tracer(), 1)
    workload.final_checks(checks)
    assert checks.failed == 0, checks.messages
    assert checks.attempted > 0
    assert plain.digest == traced.digest
    assert plain.run_s > 0 and len(plain.cells) == 2
    layers = traced.layers
    assert layers["self_sum_s"] == pytest.approx(layers["pass_s"], rel=1e-6)
    if name == "campaign":
        assert layers["channel.frames"] == sum(cell.frames for cell in workload.grid)
        assert layers["store.hits"] == len(workload.grid)
        assert layers["dram.bursts"] == 0
    else:
        assert layers["dram.bursts"] == sum(outcome.bursts for outcome, _ in plain.cells)
        assert layers["dram.sched_s"] > 0
    if name == "e2e":
        assert layers["dram.commands_recorded"] > 0
        assert 0 < layers["e2e.self_s"] < layers["e2e.cell_s"]
    if name == "policy-mixed":
        assert layers["mixed.turnarounds"] > 0


def test_refuses_to_run_without_the_library(tmp_path: object) -> None:
    bench = os.path.join(str(tmp_path), "perfbench")
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, os.path.join(bench, "run.py"), "--workload",
                           "table1", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_metrics_match_the_printed_ones() -> None:
    import json

    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("BENCHMARK.json is not in this checkout")
    with open(path) as stream:
        declared = json.load(stream)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.UNITS)
    assert [m["name"] for m in declared["per_layer"]] == list(run.LAYER_NAMES)
    for metric in declared["end_to_end"]:
        assert metric["unit"] == run.UNITS[metric["name"]]
    for metric in declared["per_layer"]:
        assert metric["unit"] == run.LAYER_UNITS[metric["name"]]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS)
