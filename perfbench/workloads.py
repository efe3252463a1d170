"""The benchmark's four workloads, run through the library's public API.

Each workload splits one pass into *cells* (the unit a user waits
for), runs them through the default code path, checks every output and
folds the simulated statistics into a digest that must repeat exactly
from pass to pass.  Nothing here selects a scheduler backend or calls a
private name, so a change of the library's defaults shows up in the
numbers without touching this file.

* ``table1`` — the paper's Table I: ten devices x two mappings x two
  phases, serial, no store.
* ``e2e`` — the default joint downlink -> DRAM grid, serial.
* ``policy-mixed`` — closed-page, frfcfs-cap and bank-partition policy
  tables plus the mixed read/write table, on every device.
* ``campaign`` — the default Monte Carlo campaign grid at two worker
  processes: a cold pass into a fresh result store, then a warm resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Triangle size of ``table1``.  The paper's artifact uses 512; at 256
#: a pass takes about 3 s on a 2-core host, so a run holds several.
TABLE1_N = 256
#: Triangle size of ``policy-mixed`` (both tables).
POLICY_N = 128
#: The disciplines ``policy-mixed`` runs (open-page is ``table1``).
POLICY_DISCIPLINES = ("closed-page", "frfcfs-cap", "bank-partition")
#: Worker processes of ``campaign`` (the host's core count).
CAMPAIGN_JOBS = 2


class Checks:
    """Counts checks and failed operations toward ``error_rate``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        """Count one check; remember ``message`` when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def unit_interval(self, value: float, what: str) -> bool:
        """Check that a utilization lies in (0, 1]."""
        return self.expect(0.0 < value <= 1.0, f"{what}: utilization {value!r} not in (0, 1]")


@dataclass
class CellOutcome:
    """What one cell produced, as the benchmark accounts it.

    Attributes:
        label: cell name (device, or campaign cell index).
        bursts: simulated DRAM bursts scheduled.
        frames: channel frames simulated.
        opt_utils: throughput-limiting utilizations of the cell's
            optimized-mapping results (simulated).
        digest: canonical text of the cell's simulated statistics.
    """

    label: str
    bursts: int = 0
    frames: int = 0
    opt_utils: List[float] = field(default_factory=list)
    digest: str = ""


def _phase_digest(stats: Any) -> str:
    """Canonical text of one phase's simulated counters."""
    return repr((stats.requests, stats.page_hits, stats.page_misses,
                 stats.page_empties, stats.activates, stats.precharges,
                 stats.refreshes, stats.data_time_ps, stats.makespan_ps,
                 sorted(stats.command_counts.items())))


def digest_of(texts: Sequence[str]) -> str:
    """Short hash over the digests of one pass, in cell order."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def _triangle(n: int) -> int:
    """Cells of a triangular interleaver of dimension ``n``."""
    return n * (n + 1) // 2


def _replay_clean(checks: Checks, config: Any, commands: Sequence[Any], what: str) -> None:
    """Replay a recorded schedule through the independent JEDEC checker."""
    from repro.dram.trace import check_phase_commands

    checks.expect(len(commands) > 0, f"{what}: no commands recorded")
    violations = check_phase_commands(config, commands)
    checks.expect(not violations, f"{what}: {len(violations)} JEDEC violations, "
                  f"first: {violations[:1]}")


def _mapping(name: str, n: int, config: Any) -> Any:
    """The sweep's own mapping factory for ``name`` at size ``n``."""
    from repro.interleaver.triangular import TriangularIndexSpace
    from repro.system.sweep import default_mappings

    return default_mappings()[name](TriangularIndexSpace(n), config.geometry)


@dataclass
class PassResult:
    """Clock readings of one pass.

    Attributes:
        cells: per cell its outcome and ``(start, end)`` clock readings.
        extra: further measured intervals that belong to no cell.
    """

    cells: List[Tuple[CellOutcome, float, float]] = field(default_factory=list)
    extra: List[Tuple[float, float]] = field(default_factory=list)


def root_span(tracer: Optional[Any], name: str, op: str) -> Any:
    """A root span for operation ``op``, or nothing when not tracing."""
    if tracer is None:
        return nullcontext()
    tracer.op = op
    return tracer.span(name)


class Workload:
    """One named workload; subclasses fill in the cells.

    Args:
        seed: workload seed (drives the channel RNG where one exists).
        scratch: directory inside the checkout for temporary files.
    """

    name = ""
    why = ""
    #: Worker processes the workload asks for (0 = no process pool).
    jobs = 0

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        #: The most recent library result of each cell, for final checks.
        self.last: Dict[str, Any] = {}

    def cells(self) -> List[str]:
        """Cell labels of one pass, in order."""
        from repro.dram.presets import TABLE1_CONFIG_NAMES

        return list(TABLE1_CONFIG_NAMES)

    def warm_up(self, checks: Checks) -> None:
        """Run one cell untimed, so lazy set-up finishes before timing."""
        self.run_cell(self.cells()[0], checks)

    def run_cell(self, label: str, checks: Checks) -> CellOutcome:
        """Run and check one cell."""
        raise NotImplementedError

    def run_pass(self, checks: Checks, between: Callable[[], None],
                 tracer: Optional[Any], number: int) -> PassResult:
        """Run every cell once.

        ``between`` runs before each cell and after the last one (the
        host-speed calibration); it is not part of any cell's time.
        With a ``tracer``, each cell runs inside a root span whose
        operation id orders it by pass and cell.
        """
        result = PassResult()
        for index, label in enumerate(self.cells()):
            between()
            start = time.perf_counter()
            with root_span(tracer, "cell", f"{number:03d}.{index:03d}.{label}"):
                outcome = self.run_cell(label, checks)
            result.cells.append((outcome, start, time.perf_counter()))
        between()
        return result

    def final_checks(self, checks: Checks) -> None:
        """Untimed checks after the measured passes (replays)."""


class Table1(Workload):
    """Table I, one device per cell, at :data:`TABLE1_N`."""

    name = "table1"
    why = "Table I grid: long homogeneous phases where the scheduler does nearly all the work"

    def run_cell(self, label: str, checks: Checks) -> CellOutcome:
        from repro.system.sweep import run_table1

        (row,) = run_table1(n=TABLE1_N, config_names=[label])
        outcome = CellOutcome(label)
        digests = []
        for mapping_name, result in (("row-major", row.row_major),
                                     ("optimized", row.optimized)):
            for phase, stats in (("write", result.write), ("read", result.read)):
                what = f"{label} {mapping_name} {phase}"
                checks.expect(stats.requests == _triangle(TABLE1_N),
                              f"{what}: {stats.requests} bursts, expected {_triangle(TABLE1_N)}")
                checks.unit_interval(stats.utilization, what)
                outcome.bursts += stats.requests
                digests.append(_phase_digest(stats))
        outcome.opt_utils.append(row.optimized.min_utilization)
        outcome.digest = "|".join(digests)
        self.last[label] = row
        return outcome

    def final_checks(self, checks: Checks) -> None:
        """Record one optimized-mapping phase, replay it, compare stats."""
        from repro.dram.controller import ControllerConfig
        from repro.dram.presets import get_config
        from repro.dram.simulator import simulate_phase_result

        labels = self.cells()
        label = labels[self.seed % len(labels)]
        op = "WR" if self.seed % 2 == 0 else "RD"
        config = get_config(label)
        result = simulate_phase_result(config, _mapping("optimized", TABLE1_N, config), op,
                                       ControllerConfig(record_commands=True))
        _replay_clean(checks, config, result.commands, f"table1 replay {label} {op}")
        row = self.last[label]
        table_stats = row.optimized.write if op == "WR" else row.optimized.read
        checks.expect(result.stats == table_stats,
                      f"table1 replay {label} {op}: recorded stats differ from the table's")


class E2E(Workload):
    """The default joint co-simulation grid, one device per cell."""

    name = "e2e"
    why = "many short phases with command recording, latency folding and energy per cell"

    def run_cell(self, label: str, checks: Checks) -> CellOutcome:
        from repro.system.sweep import run_e2e_table

        rows = run_e2e_table(config_names=[label], seed=2024 + self.seed)
        outcome = CellOutcome(label)
        digests = []
        for row in rows:
            result = row.result
            what = f"{label} {row.mapping_name}"
            expected = result.cell.frames * result.cell.interleaver.elements_per_frame
            for phase, stats, latencies in (("write", result.write, result.write_latencies_ps),
                                            ("read", result.read, result.read_latencies_ps)):
                checks.expect(stats.requests == expected,
                              f"{what} {phase}: {stats.requests} bursts, expected {expected}")
                checks.expect(sum(latencies) == stats.makespan_ps,
                              f"{what} {phase}: frame latencies sum to {sum(latencies)}, "
                              f"makespan {stats.makespan_ps}")
                checks.unit_interval(stats.utilization, f"{what} {phase}")
                outcome.bursts += stats.requests
                digests.append(_phase_digest(stats))
                digests.append(repr(latencies))
            outcome.frames += result.cell.frames
            digests.append(repr((result.downlink.interleaved, result.downlink.baseline,
                                 result.energy.total_nj)))
            if row.mapping_name == "optimized":
                outcome.opt_utils.append(result.min_utilization)
        outcome.digest = "|".join(digests)
        self.last[label] = rows
        return outcome

    def final_checks(self, checks: Checks) -> None:
        """Record one optimized phase of an e2e device and replay it."""
        from repro.dram.controller import ControllerConfig
        from repro.dram.presets import get_config
        from repro.dram.simulator import simulate_phase_result

        labels = self.cells()
        label = labels[self.seed % len(labels)]
        op = "WR" if self.seed % 2 == 0 else "RD"
        config = get_config(label)
        n = self.last[label][0].result.cell.interleaver.triangle_n
        result = simulate_phase_result(config, _mapping("optimized", n, config), op,
                                       ControllerConfig(record_commands=True))
        checks.expect(result.stats.requests == _triangle(n),
                      f"e2e replay {label}: {result.stats.requests} bursts")
        _replay_clean(checks, config, result.commands, f"e2e replay {label} {op}")


class PolicyMixed(Workload):
    """Policy and mixed-traffic tables, one device per cell."""

    name = "policy-mixed"
    why = "same scheduler under auto-precharge, streak caps, bank partitions and read/write turnarounds"

    def run_cell(self, label: str, checks: Checks) -> CellOutcome:
        from repro.system.sweep import run_mixed_table, run_policy_table

        policy_rows = run_policy_table(n=POLICY_N, config_names=[label],
                                       disciplines=POLICY_DISCIPLINES)
        mixed_rows = run_mixed_table(n=POLICY_N, config_names=[label])
        outcome = CellOutcome(label)
        digests = []
        for row in policy_rows:
            what = f"{label} {row.discipline}"
            checks.unit_interval(row.write_utilization, what + " write")
            checks.unit_interval(row.read_utilization, what + " read")
            outcome.bursts += 2 * _triangle(POLICY_N)
            outcome.opt_utils.append(row.min_utilization)
            digests.append(repr((row.discipline, row.write_utilization, row.read_utilization)))
        for row in mixed_rows:
            what = f"{label} mixed {row.mapping_name}"
            checks.expect(row.reads == row.writes == _triangle(POLICY_N),
                          f"{what}: {row.reads} reads / {row.writes} writes, "
                          f"expected {_triangle(POLICY_N)} each")
            checks.unit_interval(row.utilization, what)
            outcome.bursts += row.reads + row.writes
            if row.mapping_name == "optimized":
                outcome.opt_utils.append(row.utilization)
            digests.append(repr((row.mapping_name, row.utilization, row.turnarounds)))
        outcome.digest = "|".join(digests)
        self.last[label] = (policy_rows, mixed_rows)
        return outcome

    def final_checks(self, checks: Checks) -> None:
        """Re-run one device's policy phases and replay a mixed schedule."""
        from repro.dram.controller import ControllerConfig
        from repro.dram.presets import get_config
        from repro.dram.simulator import simulate_mixed_interleaver, simulate_phase

        labels = self.cells()
        label = labels[self.seed % len(labels)]
        config = get_config(label)
        policy_rows, mixed_rows = self.last[label]
        mapping = _mapping("optimized", POLICY_N, config)
        for row in policy_rows:
            policy = ControllerConfig(discipline=row.discipline)
            for op, util in (("WR", row.write_utilization), ("RD", row.read_utilization)):
                stats = simulate_phase(config, mapping, op, policy)
                what = f"policy-mixed recheck {label} {row.discipline} {op}"
                checks.expect(stats.requests == _triangle(POLICY_N),
                              f"{what}: {stats.requests} bursts")
                checks.expect(stats.utilization == util, f"{what}: utilization differs")
        mixed = simulate_mixed_interleaver(config, mapping, group=16,
                                           policy=ControllerConfig(record_commands=True))
        _replay_clean(checks, config, mixed.commands, f"policy-mixed replay {label} mixed")
        table_util = [row.utilization for row in mixed_rows if row.mapping_name == "optimized"]
        checks.expect(table_util == [mixed.utilization],
                      f"policy-mixed replay {label}: mixed utilization differs from the table's")


def _row_key(cell: Any) -> Tuple[Any, Any, Any]:
    """The campaign report row of a cell: its configuration without the seed."""
    return (cell.channel, cell.interleaver, cell.code)


class Campaign(Workload):
    """The default campaign grid: cold pass into a fresh store, warm resume.

    A result cell is one row of the campaign report: one configuration
    over all its seeds, which the grid lists back to back.
    """

    name = "campaign"
    why = "channel, result store and process pool; no DRAM code runs"
    jobs = CAMPAIGN_JOBS

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        from repro.store.jobs import grid_from_spec

        self.grid = grid_from_spec({"seed_base": 2024 + 6 * seed})

    def cells(self) -> List[str]:
        return [str(index) for index in range(len(self.grid))]

    def warm_up(self, checks: Checks) -> None:
        from repro.system.campaign import run_campaign

        run_campaign(self.grid[:1], jobs=self.jobs)

    def run_pass(self, checks: Checks, between: Callable[[], None],
                 tracer: Optional[Any], number: int) -> PassResult:
        """Cold pass, then warm resume; a row ends when its last result is stored.

        Results arrive in grid order, so a report row's time is the gap
        since the previous row's last result was stored (the first
        row's since the pass began): the host time a user waits per
        row of streamed results.  With
        a ``tracer``, a serial cold pass follows, untimed, so that the
        channel layer (which runs in the workers otherwise) and the
        serial cell-time sum of ``pool.busy_ratio`` are seen.
        """
        from repro.store.store import ResultStore
        from repro.system.campaign import run_campaign

        arrivals: List[float] = []

        class StampedStore(ResultStore):
            def store_campaign(self, result: Any) -> None:
                super().store_campaign(result)
                arrivals.append(time.perf_counter())

        with tempfile.TemporaryDirectory(prefix="store-", dir=self.scratch) as root:
            between()
            store = StampedStore(root)
            start = time.perf_counter()
            with root_span(tracer, "campaign.cold", f"{number:03d}.0.cold"):
                cold = run_campaign(self.grid, jobs=self.jobs, store=store)
            with root_span(tracer, "campaign.warm", f"{number:03d}.1.warm"):
                warm = run_campaign(self.grid, jobs=self.jobs, store=store, resume=True)
            end = time.perf_counter()
            between()
        if tracer is not None:
            with tempfile.TemporaryDirectory(prefix="store-", dir=self.scratch) as root:
                with root_span(tracer, "campaign.serial", f"{number:03d}.2.serial"):
                    serial = run_campaign(self.grid, jobs=1, store=ResultStore(root))
                between()
            checks.expect(serial == cold, "campaign: serial pass differs from the pooled one")
        checks.expect(len(cold) == len(self.grid),
                      f"campaign: {len(cold)} results for {len(self.grid)} cells")
        checks.expect(len(arrivals) == len(self.grid),
                      f"campaign: {len(arrivals)} results stored for {len(self.grid)} cells")
        checks.expect(warm == cold, "campaign: warm resume differs from the cold pass")
        result = PassResult()
        previous = start
        row: List[Any] = []
        for index, (cell, cell_result, stamp) in enumerate(zip(self.grid, cold, arrivals)):
            checks.expect(cell_result.cell == cell, f"campaign cell {index}: result out of order")
            checks.expect(0 <= cell_result.failed_interleaved <= cell_result.codewords
                          and 0 <= cell_result.failed_baseline <= cell_result.codewords,
                          f"campaign cell {index}: failures exceed code words")
            row.append(cell_result)
            following = self.grid[index + 1] if index + 1 < len(self.grid) else None
            if following is not None and _row_key(following) == _row_key(cell):
                continue
            outcome = CellOutcome(str(len(result.cells)), frames=sum(r.cell.frames for r in row),
                                  digest=json.dumps([r.to_dict() for r in row], sort_keys=True))
            result.cells.append((outcome, previous, stamp))
            previous = stamp
            row = []
        result.extra.append((previous, end))  # pool shutdown and the warm resume
        return result


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (Table1, E2E, PolicyMixed, Campaign)
}


def make(name: str, seed: int, scratch: str) -> Workload:
    """Build the workload called ``name``."""
    return WORKLOADS[name](seed, scratch)


def scratch_dir(root: str) -> str:
    """The benchmark's temporary directory inside the checkout."""
    path = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def native_loaded() -> Optional[bool]:
    """Whether a compiled scheduler object is mapped into this process.

    Read from the process's own memory map, so no library internals are
    touched; ``None`` where the map is not readable.
    """
    try:
        with open("/proc/self/maps") as stream:
            maps = stream.read()
    except OSError:
        return None
    return "kernelc" in maps


def opt_util_worst(outcomes: Sequence[CellOutcome]) -> Optional[float]:
    """Lowest optimized-mapping utilization over ``outcomes`` (simulated)."""
    values = [value for outcome in outcomes for value in outcome.opt_utils]
    return min(values) if values else None
