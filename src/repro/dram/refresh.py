"""Refresh scheduling policies.

Two policies cover the five standards in the paper:

* **All-bank refresh** (DDR3, DDR4): every ``tREFI`` the controller
  precharges the whole rank and issues REFab, stalling all banks for
  ``tRFC``.  This steals a fixed few percent of bandwidth — visible in
  the paper's optimized-mapping results, which top out around 92–96 %
  on DDR3/DDR4 with refresh enabled.
* **Per-bank refresh** (DDR5 REFsb, LPDDR4/LPDDR5 REFpb): banks are
  refreshed one at a time in round-robin order every per-bank interval;
  traffic to the other banks continues, so a mapping that spreads
  accesses over all banks hides refresh almost completely (the paper's
  ~100 % DDR5/LPDDR5 results).

The policy objects only decide *which* banks to quiesce and *when*; the
scheduler applies the timing.  :class:`RefreshScheduler` is the general
engine's refresh source and the oracle for the native segment loop
(:mod:`repro.dram._kernelc`), which carries the same two rules as
config and state slots: the kernel reads
:meth:`RefreshScheduler.state` on entry to a phase and writes it back
with :meth:`RefreshScheduler.restore` on exit, so the next phase on
either scheduler sees the same next deadline and round-robin bank.
Refresh can be disabled entirely, which is legal whenever interleaver
data lives shorter than the DRAM retention period (32–64 ms) — the
paper's ">99 % consistently" experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from repro.dram.presets import REFRESH_ALL_BANK, REFRESH_PER_BANK, DramConfig


@dataclass
class RefreshEvent:
    """One refresh decision handed to the controller.

    Attributes:
        deadline_ps: nominal time the refresh is due.
        banks: flat bank indices to quiesce (all banks for REFab).
        duration_ps: time the affected banks are unavailable (tRFC or
            tRFCpb).
    """

    deadline_ps: int
    banks: List[int]
    duration_ps: int


class RefreshState(NamedTuple):
    """Where a refresh event stream stands between phases.

    Attributes:
        next_deadline_ps: nominal time of the next refresh.
        next_bank: the bank the next per-bank refresh targets (stays 0
            under all-bank refresh).
    """

    next_deadline_ps: int
    next_bank: int


class RefreshScheduler:
    """Generates the refresh event stream for one configuration.

    Args:
        config: the DRAM configuration (interval/duration/policy).
        enabled: when ``False``, :meth:`due` never fires.

    Raises:
        ValueError: refresh is enabled and the interval (tREFI) is not
            positive; the deadline could never advance.
    """

    def __init__(self, config: DramConfig, enabled: bool = True) -> None:
        if enabled and config.timing.trefi <= 0:
            raise ValueError(
                f"{config.name}: refresh is enabled but tREFI is "
                f"{config.timing.trefi} ps; it must be positive "
                f"(or disable refresh)")
        self.config = config
        self.enabled = enabled
        self._interval = config.timing.trefi
        self._next_deadline = self._interval
        self._rr_bank = 0
        if config.refresh_mode == REFRESH_PER_BANK:
            self._duration = config.timing.trfc_pb
        else:
            self._duration = config.timing.trfc

    @property
    def interval_ps(self) -> int:
        """Time between consecutive refresh deadlines (tREFI)."""
        return self._interval

    @property
    def duration_ps(self) -> int:
        """Time one event blocks its banks (tRFC, or tRFCpb per bank)."""
        return self._duration

    def state(self) -> RefreshState:
        """The next deadline and round-robin bank (see :meth:`restore`)."""
        return RefreshState(self._next_deadline, self._rr_bank)

    def restore(self, state: RefreshState) -> None:
        """Continue the event stream from ``state``.

        Used by a scheduler that applied the events itself (the native
        segment loop) to leave this object exactly where :meth:`due`
        calls would have.
        """
        self._next_deadline = state.next_deadline_ps
        self._rr_bank = state.next_bank

    @property
    def next_deadline_ps(self) -> Optional[int]:
        """Next refresh deadline, or ``None`` when refresh is disabled."""
        return self._next_deadline if self.enabled else None

    def due(self, now_ps: int) -> Optional[RefreshEvent]:
        """Return the pending refresh event if one is due at ``now_ps``.

        Consumes the deadline: the caller must apply the event.  Call in
        a loop until ``None`` in case the simulation jumped over several
        intervals at once.
        """
        if not self.enabled or now_ps < self._next_deadline:
            return None
        deadline = self._next_deadline
        self._next_deadline += self._interval
        if self.config.refresh_mode == REFRESH_ALL_BANK:
            banks = list(range(self.config.geometry.banks))
        else:
            banks = [self._rr_bank]
            self._rr_bank = (self._rr_bank + 1) % self.config.geometry.banks
        return RefreshEvent(deadline_ps=deadline, banks=banks, duration_ps=self._duration)

    def overhead_bound(self) -> float:
        """Upper bound on the bandwidth fraction refresh can steal.

        For all-bank refresh this is ``tRFC / tREFI``; for per-bank
        refresh the same ratio applies per bank but is usually hidden by
        bank parallelism, so the bound is loose there.
        """
        if not self.enabled:
            return 0.0
        return self._duration / self._interval
