#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

The run sets up the library several times in fresh processes
(``setup_s``), warms up in its own process, then repeats full passes
over the workload until ``--seconds`` have elapsed, checking every
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer
metrics, with the tracing overhead.  The last line of standard output
is one JSON object; the lines before it, prefixed ``#``, say what each
number is.

Host times are scaled to a reference host speed.  Before and after
every cell the run times a fixed interpreter-bound calibration loop;
each interval is multiplied by ``CAL_REF_S`` over the loop's median
time around it.  On a shared host whose speed drifts by tens of
percent over seconds, this keeps figures comparable between runs while
any change in the library's own speed still shows in full.  The raw
figures are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import workloads
from layers import COUNT_METRICS, TARGETS, pass_layers
from spans import Tracer, install

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Iterations of the calibration loop (a few milliseconds).
CAL_LOOPS = 20000
#: Calibration-loop time that defines the reference host speed.
CAL_REF_S = 0.003
#: Calibration samples taken at each calibration point.
CAL_REPEAT = 2
#: Cells that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: End-to-end metrics and their units, in ``BENCHMARK.json`` order.
UNITS = {"setup_s": "s", "run_s": "s", "events_per_s": "1/s", "cell_p50_ms": "ms",
         "cell_tail_ms": "ms", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "dram.ns_per_burst":
        return "ns"
    if name in ("dram.row_hit_ratio", "pool.busy_ratio", "dram.opt_util_worst"):
        return "ratio"
    return "count"


LAYER_NAMES = (
    "cli.import_s", "mapping.addr_s", "mapping.bursts", "dram.sched_s",
    "dram.ns_per_burst", "dram.bursts", "dram.row_hit_ratio", "dram.activates",
    "dram.refreshes", "dram.fallback_phases", "dram.commands_recorded",
    "dram.opt_util_worst", "mixed.turnarounds", "energy.recount_s", "e2e.cell_s",
    "e2e.self_s", "e2e.bridge_s", "channel.downlink_s", "channel.sample_s",
    "channel.decode_s", "channel.frames", "store.write_s", "store.read_s",
    "store.hits", "store.misses", "pool.workers", "pool.busy_ratio",
    "sweep.other_s", "trace.overhead_s",
)
#: Per-layer metrics and their units, in ``BENCHMARK.json`` order.
LAYER_UNITS = {name: _layer_unit(name) for name in LAYER_NAMES}


def calibration_work() -> int:
    """Fixed interpreter-bound work whose duration tracks host speed."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(CAL_LOOPS):
        table[i & 255] = acc
        acc = (acc * 31 + table.get((i * 7) & 255, 0) + i) & 0xFFFFF
    return acc


class Calibrator:
    """Host-speed samples, and the scale they give an interval."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def sample(self, repeat: int = CAL_REPEAT) -> None:
        """Time the calibration loop ``repeat`` times."""
        for _ in range(repeat):
            start = time.perf_counter()
            calibration_work()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))

    def loop_s(self, start: float, end: float) -> float:
        """Median loop time inside ``[start, end]`` and at its two edges."""
        before = [d for t, d in self.samples if t < start][-CAL_REPEAT:]
        inside = [d for t, d in self.samples if start <= t <= end]
        after = [d for t, d in self.samples if t > end][:CAL_REPEAT]
        return statistics.median(before + inside + after)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns host seconds in ``[start, end]`` into reference seconds."""
        return CAL_REF_S / self.loop_s(start, end)


def library_present() -> bool:
    """Put ``src`` on the import path; ``False`` if the library is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library at {SRC}/repro; run from the root of a checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    os.environ.setdefault("REPRO_KERNELC_CACHE", os.path.join(ROOT, ".bench_build", "kernelc"))
    return True


@dataclass
class PassRecord:
    """One full pass over the workload.

    Attributes:
        traced: whether layer wrappers were installed.
        cells: per cell its outcome and scaled host seconds.
        run_s: scaled host seconds of the whole pass.
        raw_s: the same, unscaled.
        digest: hash of the pass's simulated statistics.
        layers: per-layer metrics (traced passes only).
        spans: the spans, for the trace file (traced passes only).
    """

    traced: bool
    cells: List[Tuple[workloads.CellOutcome, float]]
    run_s: float
    raw_s: float
    digest: str
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[Any] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)


def run_pass(workload: workloads.Workload, checks: workloads.Checks, cal: Calibrator,
             tracer: Optional[Tracer], number: int) -> PassRecord:
    """Run, check and time one pass; trace it when ``tracer`` is given."""
    uninstall = None
    if tracer is not None:
        tracer.reset()
        uninstall = install(tracer, TARGETS)
    try:
        result = workload.run_pass(checks, cal.sample, tracer, number)
    finally:
        if uninstall is not None:
            uninstall()
    cells = [(outcome, (end - start) * cal.scale(start, end))
             for outcome, start, end in result.cells]
    intervals = [(start, end) for _, start, end in result.cells] + result.extra
    run_s = sum((end - start) * cal.scale(start, end) for start, end in intervals)
    raw_s = sum(end - start for start, end in intervals)
    record = PassRecord(tracer is not None, cells, run_s, raw_s,
                        workloads.digest_of([outcome.digest for outcome, _ in cells]))
    if tracer is not None:
        roots = {span.op: cal.scale(span.start, span.end)
                 for span in tracer.spans if span.parent is None}
        record.layers = pass_layers(tracer.spans, tracer.counts, roots.__getitem__)
        record.spans = list(tracer.spans)
        record.counts = dict(tracer.counts)
    return record


def probe(args: argparse.Namespace) -> int:
    """One fresh-process set-up: import, build the workload, one warm-up cell."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the set-up being timed)
    import_s = time.perf_counter() - start
    checks = workloads.Checks()
    workload = workloads.make(args.workload, args.seed, workloads.scratch_dir(ROOT))
    workload.warm_up(checks)
    ready = time.monotonic()
    cal = Calibrator()
    cal.sample(5)
    print(json.dumps({"ready": ready, "import_s": import_s, "failed": checks.failed,
                      "loop_s": statistics.median(d for _, d in cal.samples)}))
    return 0


def run_probes(args: argparse.Namespace, checks: workloads.Checks) -> List[Dict[str, float]]:
    """Time ``SETUP_PROBES`` set-ups, each from process start to ready."""
    results = []
    command = [sys.executable, os.path.abspath(__file__), "--probe", "--workload",
               args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        ok = proc.returncode == 0
        if ok:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = report["failed"] == 0
        if not checks.expect(ok, f"set-up probe failed: {proc.stderr.strip()[-500:]}"):
            continue
        scale = CAL_REF_S / report["loop_s"]
        results.append({"setup_s": (report["ready"] - spawned) * scale,
                        "raw_s": report["ready"] - spawned,
                        "import_s": report["import_s"] * scale})
    return results


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` with at least ``TAIL_BEYOND`` values beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as stream:
            head = stream.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as stream:
                return stream.read().strip()
        with open(os.path.join(git, "packed-refs")) as stream:
            for line in stream:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> Dict[str, Any]:
    """Provenance of a run."""
    import numpy

    loaded = workloads.native_loaded()
    return {
        "git": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "native_loaded": "unknown" if loaded is None else ("yes" if loaded else "no"),
        "env": {key: value for key, value in sorted(os.environ.items())
                if key.startswith("REPRO_")},
    }


def end_to_end(records: Sequence[PassRecord], probes: Sequence[Dict[str, float]],
               rss_mb: float) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics over the untraced passes, and their notes."""
    plain = [record for record in records if not record.traced]
    cells = [seconds for record in plain for _, seconds in record.cells]
    run_s = statistics.median(record.run_s for record in plain)
    outcomes = [outcome for outcome, _ in plain[0].cells]
    events = sum(outcome.bursts or outcome.frames for outcome in outcomes)
    kind = "DRAM bursts" if any(outcome.bursts for outcome in outcomes) else "channel frames"
    pct, tail_s = tail(cells)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "run_s": run_s,
        "events_per_s": events / run_s,
        "cell_p50_ms": statistics.median(cells) * 1000,
        "cell_tail_ms": tail_s * 1000,
        "peak_rss_mb": rss_mb,
    }
    notes = [
        f"setup_s       host, scaled; median of {len(probes)} fresh-process set-ups "
        f"(raw median {statistics.median(p['raw_s'] for p in probes):.4f} s)",
        f"run_s         host, scaled; median of {len(plain)} passes "
        f"(raw median {statistics.median(r.raw_s for r in plain):.4f} s)",
        f"events_per_s  simulated {kind} per scaled host second ({events} per pass)",
        f"cell_p50_ms   host, scaled; median of {len(cells)} cells",
        f"cell_tail_ms  host, scaled; p{pct:.1f} of {len(cells)} cells "
        f"({TAIL_BEYOND} cells beyond it)",
        "peak_rss_mb   host; high-water resident set of the workload process",
    ]
    frames = sum(outcome.frames for outcome in outcomes)
    if frames and kind == "DRAM bursts":
        notes.append(f"frames_per_s  {frames / run_s:.1f}: simulated channel frames per scaled "
                     f"host second ({frames} per pass)")
    return metrics, notes


def per_layer(workload: workloads.Workload, records: Sequence[PassRecord],
              probes: Sequence[Dict[str, float]], checks: workloads.Checks,
              missing: Sequence[str]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics over the traced passes, and their notes."""
    from repro.system.parallel import resolve_jobs

    traced = [record for record in records if record.traced]
    plain = [record for record in records if not record.traced]
    layers = [record.layers for record in traced]
    first = traced[0].counts
    checks.expect(all(record.counts == first for record in traced),
                  "layer counts differ between traced passes")
    expected = sum(outcome.bursts for outcome, _ in traced[0].cells)
    checks.expect(first.get("dram.bursts", 0) == expected,
                  f"scheduled {first.get('dram.bursts', 0)} bursts in a pass, expected {expected}")

    def median(key: str) -> float:
        return statistics.median(layer.get(key, 0.0) for layer in layers)

    metrics = {name: median(name) for name in (
        "mapping.addr_s", "dram.sched_s", "dram.ns_per_burst", "energy.recount_s",
        "e2e.cell_s", "e2e.self_s", "e2e.bridge_s", "channel.downlink_s",
        "channel.sample_s", "channel.decode_s", "store.write_s", "store.read_s",
        "sweep.other_s")}
    for name in COUNT_METRICS + ("dram.row_hit_ratio",):
        metrics[name] = traced[0].layers[name]
    workers = min(resolve_jobs(workload.jobs), len(workload.cells())) if workload.jobs else 0
    serial = median("serial_cells_s")
    wall = median("pool_wall_s")
    metrics["pool.workers"] = workers
    metrics["pool.busy_ratio"] = serial / (workers * wall) if workers and wall else 0.0
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    util = workloads.opt_util_worst([outcome for outcome, _ in traced[0].cells])
    metrics["dram.opt_util_worst"] = util if util is not None else 0.0
    traced_s = statistics.median(record.run_s for record in traced)
    untraced_s = statistics.median(record.run_s for record in plain)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    notes = [
        f"traced passes {len(traced)}, untraced passes {len(plain)}; host times scaled",
        f"self times of a traced pass sum to {median('self_sum_s'):.4f} s; traced run_s "
        f"{traced_s:.4f} s, untraced run_s {untraced_s:.4f} s, overhead "
        f"{traced_s - untraced_s:+.4f} s",
        "simulated, exact: dram.bursts dram.activates dram.refreshes dram.row_hit_ratio "
        "mixed.turnarounds dram.opt_util_worst",
    ]
    if missing:
        notes.append("wrapper targets missing: " + ", ".join(sorted(set(missing))))
    return metrics, notes


def write_trace(args: argparse.Namespace, records: Sequence[PassRecord],
                info: Dict[str, Any]) -> str:
    """Write every traced pass's spans, ordered by operation id."""
    path = os.path.join(workloads.scratch_dir(ROOT),
                        f"trace-{args.workload}-seed{args.seed}.json")
    passes = []
    for number, record in enumerate(records):
        if not record.traced:
            continue
        spans = sorted(record.spans, key=lambda span: (span.op, span.span_id))
        passes.append({
            "pass": number,
            "counts": dict(sorted(record.counts.items())),
            "spans": [{"op": s.op, "id": s.span_id, "parent": s.parent, "name": s.name,
                       "start": s.start, "end": s.end} for s in spans],
        })
    with open(path, "w") as stream:
        json.dump({"workload": args.workload, "seed": args.seed, "stamp": info,
                   "passes": passes}, stream, indent=1)
    return path


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not library_present():
        return 2
    if args.probe:
        return probe(args)
    checks = workloads.Checks()
    probes = run_probes(args, checks)
    if not probes:
        print("perfbench: every set-up probe failed", file=sys.stderr)
        for message in checks.messages:
            print("  " + message, file=sys.stderr)
        return 1
    import repro.cli  # noqa: F401  (same set-up as the probes)

    workload = workloads.make(args.workload, args.seed, workloads.scratch_dir(ROOT))
    workload.warm_up(checks)
    cal = Calibrator()
    tracer = Tracer() if args.trace else None
    records: List[PassRecord] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer if len(records) % 2 == 1 else None
        try:
            records.append(run_pass(workload, checks, cal, traced, len(records)))
        except Exception:  # a raised operation counts as a failure; stop
            traceback.print_exc()
            checks.expect(False, f"pass {len(records)} raised")
            break
        enough = len(records) >= (2 if args.trace else 1)
        if enough and time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not any(not record.traced for record in records) or (
            args.trace and not any(record.traced for record in records)):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    try:
        workload.final_checks(checks)
    except Exception:
        traceback.print_exc()
        checks.expect(False, "final checks raised")
    digests = sorted({record.digest for record in records})
    checks.expect(len(digests) == 1, f"simulated statistics differ between passes: {digests}")
    checks.attempted += sum(len(record.cells) for record in records)

    info = stamp()
    if tracer is not None:
        metrics, notes = per_layer(workload, records, probes, checks, tracer.missing)
        notes.append("trace file: " + write_trace(args, records, info))
    else:
        metrics, notes = end_to_end(records, probes, rss_mb)
    util = workloads.opt_util_worst([outcome for outcome, _ in records[0].cells])
    error_rate = checks.failed / checks.attempted
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}: {workload.why}")
    print("# stamp " + json.dumps(info, sort_keys=True))
    loops = [d for _, d in cal.samples]
    print(f"# calibration: reference loop {CAL_REF_S} s, this run's median "
          f"{statistics.median(loops):.5f} s over {len(loops)} samples")
    for note in notes:
        print("# " + note)
    print(f"# opt_util_worst {'n/a (no DRAM cells)' if util is None else f'{util:.6f}'} "
          "(simulated, lowest optimized-mapping min(write, read))")
    print(f"# digest {digests[0]} (simulated statistics; identical on every pass)")
    print(f"# error_rate {checks.failed}/{checks.attempted} = {error_rate:.6f}")
    for message in checks.messages:
        print("# FAILED " + message)
    units = UNITS if tracer is None else LAYER_UNITS
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
