"""Mixed read/write traffic: the interleaver's steady-state operation.

The paper reports write and read phases separately (their minimum sets
throughput), because in the real system the two phases run on *separate
devices* in double-buffer fashion or alternate in large blocks.  A
single-device design could also interleave the streams request by
request — writing frame k+1 while reading frame k — at the price of
data-bus turnaround penalties (tRTW between a read and a write command,
tWTR between write data and a read command).

:func:`run_mixed_phase` schedules such a mixed stream on the scheduler
:func:`~repro.dram.kernel.make_scheduler` picks — the same per-bank
queues, eager row management and age-fair CAS arbiter as the
homogeneous :meth:`~repro.dram.controller.MemoryController.run_phase`,
with the direction-turnaround rule set active (the native segment loop
and the general engine carry it alike);
:func:`steady_state_interleaver` builds the canonical 1:1 write/read
interleaving of two frames as columns (the two frames' address arrays
merged by one stable sort) and reports the utilization split.  The
result quantifies how much turnaround a fine-grained single-device
design would pay, and thereby why the per-phase (block-alternating)
methodology of the paper is the right operating model.

Since the unified-engine refactor mixed runs also fill
``stats.command_counts`` and honor ``policy.record_commands``, so a
mixed schedule can be dumped with
:func:`repro.dram.trace.write_trace` and independently validated with
:class:`repro.dram.trace.TraceChecker` exactly like a homogeneous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.dram.commands import CommandTape, ScheduledCommand
from repro.dram.controller import ControllerConfig
from repro.dram.engine import MixedSource
from repro.dram.kernel import make_scheduler
from repro.dram.presets import DramConfig
from repro.dram.stats import PhaseStats
from repro.mapping.base import AddressArrays, InterleaverMapping

#: A mixed request: (is_read, bank, row, column).
MixedRequest = Tuple[bool, int, int, int]


@dataclass(frozen=True)
class MixedResult:
    """Outcome of a mixed-traffic run.

    Attributes:
        stats: aggregate phase statistics (both directions combined).
        reads: number of read bursts.
        writes: number of write bursts.
        turnarounds: bus direction switches that occurred.
        commands: the recorded schedule (empty unless the policy sets
            ``record_commands``): a columnar
            :class:`~repro.dram.commands.CommandTape`, which is also a
            lazy sequence of
            :class:`~repro.dram.commands.ScheduledCommand`.
    """

    stats: PhaseStats
    reads: int
    writes: int
    turnarounds: int
    commands: Sequence[ScheduledCommand] = field(
        default_factory=CommandTape.empty)

    @property
    def utilization(self) -> float:
        """Data-bus utilization of the whole mixed run."""
        return self.stats.utilization


def run_mixed_phase(
    config: DramConfig,
    requests: Iterable[MixedRequest],
    policy: Optional[ControllerConfig] = None,
) -> MixedResult:
    """Schedule a mixed read/write request stream.

    Same engine as
    :meth:`repro.dram.controller.MemoryController.run_phase` (per-bank
    queues, eager row management, age-fair CAS arbiter) plus the
    direction-turnaround rules:

    * read -> write: ``WR`` command at least ``tRTW`` after the ``RD``;
    * write -> read: ``RD`` command at least ``tWTR_S``/``tWTR_L``
      (bank-group-discriminated) after the end of write data.

    The scheduler is :func:`~repro.dram.kernel.make_scheduler`'s pick,
    like every other phase: the native segment loop when it loads.
    """
    return _run_mixed_source(config, MixedSource(requests), policy)


def _run_mixed_source(config: DramConfig, source: MixedSource,
                      policy: Optional[ControllerConfig]) -> MixedResult:
    """Schedule one mixed source on a fresh scheduler."""
    policy = policy or ControllerConfig()
    result = make_scheduler(config, policy).run(source)
    return MixedResult(stats=result.stats, reads=result.reads,
                       writes=result.writes, turnarounds=result.turnarounds,
                       commands=result.commands)


class RowShiftedMapping(InterleaverMapping):
    """Places a mapping's frame at a different DRAM row region.

    Used to double-buffer two frames on one device: the frame being
    read lives ``row_offset`` rows above the frame being written, so
    the two streams never share pages.
    """

    def __init__(self, inner: InterleaverMapping, row_offset: int) -> None:
        super().__init__(inner.space, inner.geometry)
        if row_offset < 0:
            raise ValueError(f"row_offset must be >= 0, got {row_offset}")
        self.inner = inner
        self.row_offset = row_offset
        self.name = inner.name
        self.vectorized = inner.vectorized
        if row_offset + inner.rows_used() > inner.geometry.rows:
            raise ValueError(
                f"shifted frame needs rows up to {row_offset + inner.rows_used()} "
                f"but the device has {inner.geometry.rows}"
            )

    def address_tuple(self, i: int, j: int) -> Tuple[int, int, int]:
        """The inner mapping's address, shifted ``row_offset`` rows up."""
        bank, row, column = self.inner.address_tuple(i, j)
        return bank, row + self.row_offset, column

    def address_arrays(self, i: Any, j: Any) -> AddressArrays:
        """The inner mapping's address arrays, shifted ``row_offset`` rows up."""
        banks, rows, columns = self.inner.address_arrays(i, j)
        return banks, rows + self.row_offset, columns

    def rows_used(self) -> int:
        """Rows of the *unshifted* frame (the shift is capacity-checked)."""
        return self.inner.rows_used()


def _concatenated(
        chunks: Iterable[AddressArrays]) -> Tuple[NDArray[np.int64], ...]:
    """One frame's ``(banks, rows, columns)`` chunks as three int64 columns."""
    parts = list(chunks)
    return tuple(
        np.concatenate([np.asarray(part[k], dtype=np.int64) for part in parts])
        if parts else np.empty(0, dtype=np.int64)
        for k in range(3))


def _interleaved_columns(
    write_mapping: InterleaverMapping,
    read_mapping: InterleaverMapping,
    group: int = 1,
) -> Tuple[Any, Any, Any, Any]:
    """The :func:`interleaved_stream` order as columns.

    Round ``k`` issues write requests ``k*group .. (k+1)*group - 1`` and
    then the same read requests; once one frame runs out, the other's
    remaining rounds follow alone.  Both frames' address arrays are
    merged by one stable sort on the key ``(round, direction)``.

    Returns:
        ``(is_read, banks, rows, columns)``: a bool column and three
        int64 columns, in issue order.
    """
    if group < 1:
        raise ValueError(f"group must be >= 1, got {group}")
    writes = _concatenated(write_mapping.write_addresses_array())
    reads = _concatenated(read_mapping.read_addresses_array())
    n_writes = len(writes[0])
    keys = np.concatenate([
        np.arange(n_writes, dtype=np.int64) // group * 2,
        np.arange(len(reads[0]), dtype=np.int64) // group * 2 + 1])
    order = np.argsort(keys, kind="stable")
    banks, rows, columns = (np.concatenate([w, r])[order]
                            for w, r in zip(writes, reads))
    return order >= n_writes, banks, rows, columns


def interleaved_stream(
    write_mapping: InterleaverMapping,
    read_mapping: InterleaverMapping,
    group: int = 1,
) -> Iterator[MixedRequest]:
    """1:1 interleaving of a write frame and a read frame.

    An iterator of ``(is_read, bank, row, column)`` tuples over the
    columnar interleaving :func:`steady_state_interleaver` schedules:
    round ``k`` issues write requests ``k*group .. (k+1)*group - 1``,
    then the same read requests, until both frames run out.

    Args:
        write_mapping: mapping of the frame being written (row-wise).
        read_mapping: mapping of the frame being read (column-wise);
            usually the same mapping at a different base region.
        group: number of same-direction requests issued back to back
            before switching direction (larger groups amortize the
            turnaround penalty).
    """
    is_read, banks, rows, columns = _interleaved_columns(
        write_mapping, read_mapping, group)
    return zip(is_read.tolist(), banks.tolist(), rows.tolist(),
               columns.tolist())


def steady_state_interleaver(
    config: DramConfig,
    mapping: InterleaverMapping,
    group: int = 1,
    policy: Optional[ControllerConfig] = None,
) -> MixedResult:
    """Simulate the steady-state write(k+1)/read(k) operation.

    The read frame is double-buffered ``mapping.rows_used()`` rows above
    the write frame so the two streams never share pages.
    """
    read_mapping = RowShiftedMapping(mapping, mapping.rows_used())
    columns = _interleaved_columns(mapping, read_mapping, group)
    return _run_mixed_source(config, MixedSource.from_columns(*columns),
                             policy)
