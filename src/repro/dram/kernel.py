"""Batch-advance scheduling kernel and the scheduler selection.

:func:`make_scheduler` is the one place that picks the scheduler: the
native :class:`KernelEngine` when its compiled segment loop loads
(:mod:`repro.dram._kernelc`), the general
:class:`repro.dram.engine.SchedulingEngine` otherwise.  Both produce
bit-identical results, so the choice is invisible in every table,
payload and store key; it only changes the wall clock.

The kernel is the raw-speed counterpart of the general engine.  Both
are event-driven (no clock ticking; issue slots are computed directly
and quantized to the command clock), but the general engine pays a
per-command price that has nothing to do with the schedule itself:
every pop maintains a sorted ``ready_order`` list (``insort`` +
positional delete) and every arbitration walks the ready heads
oldest-first.  On the Table I phase workload those two account for
most of the wall clock.

:class:`KernelEngine` removes both costs for every source and
discipline while producing **bit-identical** schedules:

* **columnar intake** — the whole request stream is materialized up
  front into flat NumPy int64 columns, validated and partitioned per
  bank in bulk (a stable radix argsort of the bank ids as the
  narrowest unsigned integers + bincount prefix sums), so the
  scheduling loop reads flat timestamp/queue tables and never builds a
  Python tuple per request;
* **timestamp table** — per-bank next-ready timestamps
  (``cas_allowed``/``pre_allowed``/``act_allowed``/``act_time``) are
  copied from the wrapped general engine's table on entry and written
  back on exit, so consecutive phases see warm bank state exactly as
  the general engine would leave it;
* **min-reduction arbitration** — the sorted ready list and the
  oldest-first walk are replaced by one unsorted pass over the bank
  columns computing the walk's outcome directly.  Homogeneous: the
  oldest head whose earliest slot achieves the global bound
  (``max(last_cas + tCCD_S, bus_free - latency)``, quantized) wins at
  the bound, otherwise the head with the strictly earliest slot (ties
  to the oldest) wins at its own slot.  Mixed: each head's quantized
  slot also charges CL/CWL by its direction and the turnaround rules
  (tRTW after the last read command, tWTR_S/L after the last write
  data), and the lexicographic minimum of (slot, sequence number)
  wins.  Either is exactly the general engine's decision rule, reached
  without maintaining any ordered structure per pop;
* **auto-close** — closed-page (cap 1) and FR-FCFS-cap (cap ``k``)
  count column accesses per bank since its ACT; the CAS reaching the
  cap closes the row with a PRE at its precharge-ready time, in the
  general engine's order;
* **one compiled call per phase** — the admit / refresh / eval /
  commit / arbitrate / pop cycle, the initial intake included, runs
  as a single compiled loop over the same int64 tables.  It applies
  REFab and REFpb itself from the
  :class:`~repro.dram.refresh.RefreshScheduler`'s interval, duration,
  next deadline and round-robin bank, and hands the advanced deadline
  and bank back to that object at the end of the phase.  It returns
  to Python early only to have a full command-record buffer drained.

Eager row management is byte-for-byte the general engine's: misses and
empties park in the same deferred-activation structure with fixed
``(act_ready, bank, t_pre, is_empty, row)`` entries, commit in bank
order once the bus frontier reaches them, and charge tRRD_S/L and the
tFAW ring identically.  Refresh, intake windowing (``queue_depth`` /
``per_bank_depth``) and command recording are likewise ports, so
``PhaseStats``, ``EnergyTally``, ``command_counts``, the direction
counters and recorded command tapes all match the general engine
exactly — proven by the differential batteries in
``tests/dram/test_kernel_differential.py`` across random scenarios,
every discipline, mixed sources and the full Table I grid.
:meth:`KernelEngine.run` never hands a phase to the general engine it
wraps; that engine only holds the shared per-bank state.

One intake difference is deliberate: the general engine validates bank
indices lazily, batch by batch, so an invalid request deep in a stream
raises only after the earlier requests were scheduled.  The kernel
validates the whole stream up front (same exception, same message) and
raises before mutating any state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.dram import _kernelc
from repro.dram.bank import BankSnapshot
from repro.dram.commands import CommandType, TapeBuilder
from repro.dram.engine import (OP_READ, OP_WRITE, EngineResult,
                               SchedulingEngine, WorkloadSource,
                               _PartitionedSource)
from repro.dram.policy import (
    POLICY_BANK_PARTITION,
    POLICY_CLOSED_PAGE,
    POLICY_FRFCFS_CAP,
    partition_banks,
)
from repro.dram.presets import REFRESH_ALL_BANK, DramConfig
from repro.dram.refresh import RefreshState
from repro.dram.stats import EnergyTally, PhaseStats

if TYPE_CHECKING:
    from repro.dram.controller import ControllerConfig

_FAR_PAST = -(10**15)

#: Rows of the fixed-size command-record buffer the compiled loop writes.
#: Whenever it fills, its rows are copied out as one int64 block (codes
#: remapped to :data:`~repro.dram.commands.CODE_OF`) and it is reset, so
#: the buffer itself does not grow with the phase length.
_TAPE_ROWS = 4096


def make_scheduler(
        config: DramConfig,
        policy: "ControllerConfig") -> "Union[KernelEngine, SchedulingEngine]":
    """The scheduler for one DRAM configuration and controller policy.

    Returns a :class:`KernelEngine` when the native segment loop loads
    (built on the first call, then cached for the process) and a
    :class:`~repro.dram.engine.SchedulingEngine` otherwise.  Both have
    the same ``run`` / ``bank_snapshot`` surface and produce
    bit-identical results.
    """
    if _kernelc.available():
        return KernelEngine(config, policy)
    return SchedulingEngine(config, policy)


class KernelEngine:
    """Drop-in fast scheduler sharing the general engine's bank state.

    Exposes the same surface as
    :class:`~repro.dram.engine.SchedulingEngine` (``run`` /
    ``bank_snapshot`` and warm per-bank state across runs) and wraps a
    general engine internally: the per-bank timestamp table and the
    refresh scheduler are shared **by reference**, so a phase run on
    the wrapped engine and the next native phase see exactly the warm
    rows either would have left behind.  Build one through
    :func:`make_scheduler`; constructing it directly raises
    :class:`RuntimeError` when the native object does not load.

    Args:
        config: DRAM configuration (geometry + timing + refresh mode).
        policy: controller policy
            (:class:`~repro.dram.controller.ControllerConfig`).
    """

    def __init__(self, config: DramConfig, policy: "ControllerConfig") -> None:
        if not _kernelc.available():
            raise RuntimeError(
                "native kernel backend unavailable (no C toolchain or a "
                "failed build); use make_scheduler() to fall back")
        self.config = config
        self.policy = policy
        self._general = SchedulingEngine(config, policy)
        # Warm per-bank state lives in the general engine's table; the
        # native loop copies it in and writes it back.
        self._open_row = self._general._open_row
        self._act_time = self._general._act_time
        self._cas_allowed = self._general._cas_allowed
        self._pre_allowed = self._general._pre_allowed
        self._act_allowed = self._general._act_allowed
        self._refresh = self._general._refresh
        self._banks = self._general._banks
        self._bank_groups = self._general._bank_groups

    def bank_snapshot(self, bank: int) -> BankSnapshot:
        """Readable state of one bank (testing/debugging)."""
        return self._general.bank_snapshot(bank)

    def _materialize(
            self, source: WorkloadSource) -> Tuple[NDArray[np.int64], ...]:
        """Drain ``source`` into flat int64 columns, validating shape.

        Returns ``(banks, rows, columns, directions)``; directions
        (1 = read, 0 = write) are filled for mixed sources only and are
        an empty column, which the loop never reads, otherwise.  Batch
        boundaries are invisible to scheduling, so concatenating them
        up front is observationally equivalent to the general engine's
        incremental loads for any valid stream.
        """
        mixed = source.mixed
        parts: Tuple[List[NDArray[np.int64]], ...] = ([], [], [], [])
        for banks_col, rows_col, cols_col, dirs_col in source.batches():
            m = len(banks_col)
            if not m:
                continue
            if len(rows_col) != m or len(cols_col) != m:
                raise ValueError(
                    f"request chunk columns disagree in length: "
                    f"{m} banks, {len(rows_col)} rows, {len(cols_col)} columns"
                )
            columns = [banks_col, rows_col, cols_col]
            if mixed:
                if dirs_col is None or len(dirs_col) != m:
                    raise ValueError(
                        f"mixed request chunk needs {m} directions, got "
                        f"{'none' if dirs_col is None else len(dirs_col)}")
                columns.append(dirs_col)
            for part, column in zip(parts, columns):
                part.append(np.ascontiguousarray(column, dtype=np.int64))
        return tuple(
            np.empty(0, dtype=np.int64) if not part
            else part[0] if len(part) == 1 else np.concatenate(part)
            for part in parts)

    def run(self, source: WorkloadSource, op: str = OP_READ) -> EngineResult:
        """Schedule one workload source to completion.

        Same contract as
        :meth:`repro.dram.engine.SchedulingEngine.run`; every
        discipline and every source shape runs in the compiled segment
        loop.  Bank partitioning is an intake remap; the auto-close cap
        (closed-page, FR-FCFS-cap) and, for mixed sources, the
        turnaround rules are rule sets of the loop itself.

        One C call runs the phase: intake, refresh (REFab or REFpb,
        with the shared refresh scheduler's state in scalar slots) and
        the eval / commit / arbitrate / pop cycle over flat int64 state
        tables.  The call returns early only when the fixed-size
        command-record buffer fills; this wrapper drains it and
        re-enters, so a phase costs one call plus one per drain.  Bank
        state is copied from the shared per-bank lists on entry and the
        bank and refresh state are written back on exit, so a later
        phase on either engine sees the same warm state.
        """
        if op not in (OP_READ, OP_WRITE):
            raise ValueError(f"op must be {OP_READ!r} or {OP_WRITE!r}, got {op!r}")
        discipline = self.policy.discipline
        if discipline == POLICY_BANK_PARTITION:
            partition_banks(self._banks)  # even bank count required
            source = _PartitionedSource(source, self._banks, op == OP_READ)
        if discipline == POLICY_CLOSED_PAGE:
            cap = 1
        elif discipline == POLICY_FRFCFS_CAP:
            cap = self.policy.cap
        else:
            cap = 0
        mixed = source.mixed
        run_segment = _kernelc.load()
        assert run_segment is not None  # checked in __init__
        config = self.config
        policy = self.policy
        timing = config.timing
        burst = config.burst_duration_ps
        tck = timing.tck if burst % timing.tck == 0 else 1
        is_read = op == OP_READ
        n_banks = self._banks
        record = policy.record_commands
        refresh = self._refresh
        all_bank_refresh = config.refresh_mode == REFRESH_ALL_BANK

        banks_arr, rows_arr, cols_arr, dirs_arr = self._materialize(source)
        n = len(banks_arr)
        if n:
            bad = (banks_arr < 0) | (banks_arr >= n_banks)
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    f"request #{k} (bank={int(banks_arr[k])}, "
                    f"row={int(rows_arr[k])}, column={int(cols_arr[k])}): "
                    f"bank out of range [0, {n_banks})"
                )
        # Bank ids are in range, so the narrowest unsigned key holds
        # them; NumPy radix-sorts such keys, with the same permutation.
        qseqs = np.argsort(banks_arr.astype(np.min_scalar_type(n_banks - 1)),
                           kind="stable").astype(np.int64, copy=False)
        counts = np.bincount(banks_arr, minlength=n_banks)
        qstart = np.zeros(n_banks, dtype=np.int64)
        np.cumsum(counts[:-1], out=qstart[1:])

        head = np.zeros(n_banks, dtype=np.int64)
        adm = np.zeros(n_banks, dtype=np.int64)
        bstate = np.zeros(n_banks, dtype=np.int64)
        open_arr = np.array(
            [-1 if r is None else r for r in self._open_row], dtype=np.int64)
        act_time = np.array(self._act_time, dtype=np.int64)
        cas_allowed = np.array(self._cas_allowed, dtype=np.int64)
        pre_allowed = np.array(self._pre_allowed, dtype=np.int64)
        act_allowed = np.array(self._act_allowed, dtype=np.int64)
        streak = np.zeros(n_banks, dtype=np.int64)
        bg_of = np.arange(n_banks, dtype=np.int64) % self._bank_groups
        last_cas_bg = np.full(self._bank_groups, _FAR_PAST, dtype=np.int64)
        faw_ring = np.full(4, _FAR_PAST, dtype=np.int64)
        fresh = np.zeros(2 * n_banks + 4, dtype=np.int64)
        heap = np.zeros((n_banks + 2) * 5, dtype=np.int64)
        commit = np.zeros(n_banks + 2, dtype=np.int64)
        # Headroom: one segment iteration records at most 2 * n_banks + 2
        # commands, one refresh event at most n_banks + 1.
        rec_cap = (_TAPE_ROWS + 2 * n_banks + 2) if record else 1
        rec = np.zeros(rec_cap * 6, dtype=np.int64)

        sc = np.zeros(_kernelc.N_SCALARS, dtype=np.int64)
        sc[_kernelc.S_LAST_CAS] = _FAR_PAST
        sc[_kernelc.S_LAST_ACT] = _FAR_PAST
        sc[_kernelc.S_LAST_ACT_BG] = -1
        sc[_kernelc.S_LAST_DIR] = -1
        sc[_kernelc.S_LAST_RD_CMD] = _FAR_PAST
        sc[_kernelc.S_LAST_WR_DATA_END] = _FAR_PAST
        sc[_kernelc.S_LAST_WR_BG] = -1
        sc[_kernelc.S_REF_DEADLINE], sc[_kernelc.S_REF_BANK] = refresh.state()

        cfg = np.zeros(_kernelc.N_CFG, dtype=np.int64)
        cfg[_kernelc.C_N_BANKS] = n_banks
        cfg[_kernelc.C_BANK_GROUPS] = self._bank_groups
        cfg[_kernelc.C_TCK] = tck
        cfg[_kernelc.C_QUANT] = 1 if tck > 1 else 0
        cfg[_kernelc.C_TRP] = timing.trp
        cfg[_kernelc.C_TRCD] = timing.trcd
        cfg[_kernelc.C_TRAS] = timing.tras
        cfg[_kernelc.C_TRRD_S] = timing.trrd_s
        cfg[_kernelc.C_TRRD_L] = timing.trrd_l
        cfg[_kernelc.C_TFAW] = timing.tfaw
        cfg[_kernelc.C_TCCD_S] = timing.tccd_s
        cfg[_kernelc.C_TCCD_L] = timing.tccd_l
        cfg[_kernelc.C_TWR] = timing.twr
        cfg[_kernelc.C_TRTP] = timing.trtp
        cfg[_kernelc.C_IS_READ] = 1 if is_read else 0
        cfg[_kernelc.C_CL] = timing.cl
        cfg[_kernelc.C_CWL] = timing.cwl
        cfg[_kernelc.C_BURST] = burst
        cfg[_kernelc.C_QUEUE_DEPTH] = policy.queue_depth
        cfg[_kernelc.C_PER_BANK_DEPTH] = policy.per_bank_depth
        cfg[_kernelc.C_RECORD] = 1 if record else 0
        cfg[_kernelc.C_N] = n
        cfg[_kernelc.C_REC_CAP] = rec_cap
        cfg[_kernelc.C_CAP] = cap
        cfg[_kernelc.C_MIXED] = 1 if mixed else 0
        cfg[_kernelc.C_TRTW] = timing.trtw
        cfg[_kernelc.C_TWTR_S] = timing.twtr_s
        cfg[_kernelc.C_TWTR_L] = timing.twtr_l
        if not refresh.enabled:
            cfg[_kernelc.C_REF_MODE] = _kernelc.REF_OFF
        elif all_bank_refresh:
            cfg[_kernelc.C_REF_MODE] = _kernelc.REF_ALL_BANK
        else:
            cfg[_kernelc.C_REF_MODE] = _kernelc.REF_PER_BANK
        cfg[_kernelc.C_TREFI] = refresh.interval_ps
        cfg[_kernelc.C_TRFC] = refresh.duration_ps

        # Every argument is a C-contiguous int64 array that stays alive
        # for the whole run.
        args = [a.ctypes.data for a in (
            cfg, sc, banks_arr, rows_arr, cols_arr, dirs_arr, qseqs, qstart,
            head, adm, bstate, open_arr, act_time, cas_allowed, pre_allowed,
            act_allowed, streak, bg_of, last_cas_bg, faw_ring, fresh, heap,
            commit, rec)]

        tape = TapeBuilder()

        def drain_tape() -> None:
            """Move the recorded rows out and empty the record buffer."""
            rec_count = int(sc[_kernelc.S_REC_COUNT])
            if rec_count:
                tape.add_rows(rec[:rec_count * 6].copy())
            sc[_kernelc.S_REC_COUNT] = 0

        # One call runs the whole phase; the loop returns early only
        # to have its full record buffer drained.
        while True:
            reason = run_segment(*args)
            if reason == _kernelc.EXIT_DONE:
                break
            if reason == _kernelc.EXIT_DEADLOCK:
                raise RuntimeError("scheduler deadlock: no prepared bank head")
            drain_tape()
        refresh.restore(RefreshState(int(sc[_kernelc.S_REF_DEADLINE]),
                                     int(sc[_kernelc.S_REF_BANK])))

        # ---- finalize: stats, commands, shared-state writeback ---------
        n_requests = int(sc[_kernelc.S_N_REQUESTS])
        hits = int(sc[_kernelc.S_HITS])
        misses = int(sc[_kernelc.S_MISSES])
        empties = int(sc[_kernelc.S_EMPTIES])
        acts = int(sc[_kernelc.S_ACTS])
        pres = int(sc[_kernelc.S_PRES])
        refs = int(sc[_kernelc.S_REFS])
        last_data_end = int(sc[_kernelc.S_LAST_DATA_END])

        self._open_row[:] = [
            None if v < 0 else v for v in open_arr.tolist()]
        self._act_time[:] = act_time.tolist()
        self._cas_allowed[:] = cas_allowed.tolist()
        self._pre_allowed[:] = pre_allowed.tolist()
        self._act_allowed[:] = act_allowed.tolist()

        if record:
            drain_tape()
        commands = tape.build()

        stats = PhaseStats()
        stats.requests = n_requests
        stats.page_hits = hits
        stats.page_misses = misses
        stats.page_empties = empties
        stats.activates = acts
        stats.precharges = pres
        stats.refreshes = refs
        stats.data_time_ps = n_requests * burst
        stats.makespan_ps = last_data_end
        ref_key = (CommandType.REF_ALL if all_bank_refresh
                   else CommandType.REF_BANK).value
        if mixed:
            reads = int(sc[_kernelc.S_READS])
            writes = int(sc[_kernelc.S_WRITES])
            turnarounds = int(sc[_kernelc.S_TURNAROUNDS])
            # The general engine's dict: a CAS key only for directions
            # that occurred, after the REF key.
            counts = {
                CommandType.ACT.value: acts,
                CommandType.PRE.value: pres,
                ref_key: refs,
            }
            if reads:
                counts[CommandType.RD.value] = reads
            if writes:
                counts[CommandType.WR.value] = writes
            stats.command_counts = counts
        else:
            reads = n_requests if is_read else 0
            writes = 0 if is_read else n_requests
            turnarounds = 0
            stats.command_counts = {
                CommandType.ACT.value: acts,
                CommandType.PRE.value: pres,
                (CommandType.RD if is_read else CommandType.WR).value:
                    n_requests,
                ref_key: refs,
            }
        stats.energy_tally = EnergyTally(act_pre=acts, rd=reads, wr=writes,
                                         ref=refs, makespan_ps=last_data_end)
        return EngineResult(stats=stats, commands=commands, reads=reads,
                            writes=writes, turnarounds=turnarounds)
