"""Scheduling-policy zoo: named page-management disciplines.

The engine's arbiter (see :mod:`repro.dram.engine`) has always run one
discipline — open-page FR-FCFS: rows stay open after a column access,
ready row-hits issue before older row-misses, and among candidates that
achieve the earliest legal slot the oldest request wins.  This module
names that behavior (:data:`POLICY_OPEN_PAGE`, the default on
:class:`~repro.dram.controller.ControllerConfig`) and adds three more
disciplines selectable through the same hook:

* :data:`POLICY_CLOSED_PAGE` — auto-precharge after **every** column
  access.  Each CAS closes its row immediately (the PRE is charged at
  the request's precharge-ready time, exactly where an eager row-miss
  PRE would land), so every request is a page-empty: zero page hits,
  zero page misses, and exactly one PRE per ACT.
* :data:`POLICY_FRFCFS_CAP` — FR-FCFS with a row-hit streak cap: after
  ``cap`` consecutive column accesses to one bank's open row, the row
  is auto-precharged so older row-miss requests on that bank cannot
  starve.  ``cap=1`` is exactly closed-page (pinned by a differential
  test); ``cap`` -> infinity approaches open-page.
* :data:`POLICY_BANK_PARTITION` — static bank partitioning: write
  traffic owns the lower half of the bank address space, read traffic
  the upper half (``partition_bank``).  Scheduling *within* a
  partition is plain open-page FR-FCFS, so the discipline is
  implemented as an intake transformation — the engine remaps each
  request's bank to its stream class's partition and then schedules
  exactly as open-page would on the remapped stream.  This makes its
  equivalence argument trivial: the frozen open-page oracle run on the
  remapped stream *is* the scalar reference.  Requires an even bank
  count (two equal partitions).

Equivalence argument (why open-page stays bit-identical): the three new
disciplines are strictly additive mechanisms.  Closed-page and
FR-FCFS-cap share one auto-close mechanism — a per-bank
column-access streak counter that, once it reaches the cap (1 for
closed-page), charges a PRE at the bank's precharge-ready time and
closes the row; with the mechanism disabled (open-page) not a single
branch in the arbiter's hot loop changes its outcome.  Bank
partitioning wraps the workload source before intake and leaves the
scheduler untouched.  The differential battery in
``tests/dram/test_policy_differential.py`` proves the default
discipline bit-identical to the pre-policy engine, the native kernel
and the frozen seed oracles, and each new discipline equal to a scalar
reference; ``tests/dram/test_policy_properties.py`` replay-checks every
discipline's schedules against the independent
:class:`~repro.dram.trace.TraceChecker` with zero violations.

Which scheduler runs what: the native batch-advance kernel
(:mod:`repro.dram.kernel`) runs every discipline in its compiled loop.
Bank partitioning is an intake remap, invisible to its arbiter;
closed-page and FR-FCFS-cap set the loop's auto-close cap (1 and
``cap``), a per-bank streak counter that closes the row on the CAS
reaching it, exactly as the general engine does.  The schedules are
identical on either scheduler.
"""

from __future__ import annotations

from typing import Tuple

#: Open-page FR-FCFS — the engine's original (and default) discipline.
POLICY_OPEN_PAGE = "open-page"

#: Auto-precharge after every column access.
POLICY_CLOSED_PAGE = "closed-page"

#: FR-FCFS with the row-hit streak capped at ``cap`` per bank.
POLICY_FRFCFS_CAP = "frfcfs-cap"

#: Static bank partitioning: writes own the lower half of the banks,
#: reads the upper half; open-page FR-FCFS within each partition.
POLICY_BANK_PARTITION = "bank-partition"

#: All disciplines the ``discipline=`` hook accepts.
POLICY_NAMES = (POLICY_OPEN_PAGE, POLICY_CLOSED_PAGE, POLICY_FRFCFS_CAP,
                POLICY_BANK_PARTITION)


def check_discipline(discipline: str) -> None:
    """Reject unknown discipline names with the known set named.

    Raises:
        ValueError: if ``discipline`` is not in :data:`POLICY_NAMES`.
    """
    if discipline not in POLICY_NAMES:
        raise ValueError(
            f"discipline must be one of {POLICY_NAMES}, got {discipline!r}")


def partition_banks(n_banks: int) -> int:
    """Banks per partition under :data:`POLICY_BANK_PARTITION`.

    Raises:
        ValueError: if ``n_banks`` cannot split into two equal
            partitions (fewer than two banks, or an odd count).
    """
    if n_banks < 2 or n_banks % 2:
        raise ValueError(
            f"bank partitioning needs an even bank count >= 2, "
            f"got {n_banks} banks")
    return n_banks // 2


def partition_bank(bank: int, n_banks: int, is_read: bool) -> int:
    """The partitioned bank index of one request.

    Write traffic maps onto banks ``[0, n_banks/2)``, read traffic onto
    ``[n_banks/2, n_banks)``; within a partition the original bank
    index folds modulo the partition size, preserving program order and
    relative bank locality.  The map is idempotent on streams already
    confined to their partition modulo the fold.

    Args:
        bank: original bank index, already validated in
            ``[0, n_banks)``.
        n_banks: device bank count (even, >= 2).
        is_read: the request's stream class.
    """
    half = n_banks // 2
    return bank % half + (half if is_read else 0)


def partition_bounds(n_banks: int, is_read: bool) -> Tuple[int, int]:
    """Half-open bank range ``[lo, hi)`` owned by one stream class."""
    half = n_banks // 2
    return (half, n_banks) if is_read else (0, half)
