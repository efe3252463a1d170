"""DRAM command vocabulary, scheduled-command records and the command tape.

The controller's output is a time-ordered schedule — the same
information a cycle-accurate simulator would drive onto the command
bus.  A recorded schedule is a :class:`CommandTape`: six int64 columns
(issue time, command code, bank, row, column, request id) built by the
schedulers in bulk, so consumers that only need numbers (the energy
recount, the e2e latency fold) read the columns directly.  The tape is
also a lazy ``Sequence`` of :class:`ScheduledCommand` records: indexing
and iterating build one record per access and nothing is built
otherwise.  Tests replay these records to check that every JEDEC
constraint was honored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Sequence, Tuple, Union,
                    overload)

import numpy as np
from numpy.typing import NDArray


class CommandType(enum.Enum):
    """Commands the controller can issue."""

    ACT = "ACT"            #: activate a row (open the page)
    PRE = "PRE"            #: precharge (close the page)
    RD = "RD"              #: burst read from the open page
    WR = "WR"              #: burst write to the open page
    REF_ALL = "REFab"      #: all-bank refresh
    REF_BANK = "REFpb"     #: per-bank / same-bank refresh


#: Command types that move data over the bus.
CAS_COMMANDS = (CommandType.RD, CommandType.WR)

#: Command types by integer code — the ``code`` column of a
#: :class:`CommandTape` and the energy recount's bincount index.
COMMAND_OF: Tuple[CommandType, ...] = (
    CommandType.ACT,
    CommandType.PRE,
    CommandType.RD,
    CommandType.WR,
    CommandType.REF_ALL,
    CommandType.REF_BANK,
)

#: Integer code of each command type (inverse of :data:`COMMAND_OF`).
CODE_OF: Dict[CommandType, int] = {
    kind: code for code, kind in enumerate(COMMAND_OF)}

CODE_ACT = CODE_OF[CommandType.ACT]
CODE_PRE = CODE_OF[CommandType.PRE]
CODE_RD = CODE_OF[CommandType.RD]
CODE_WR = CODE_OF[CommandType.WR]
CODE_REF_ALL = CODE_OF[CommandType.REF_ALL]
CODE_REF_BANK = CODE_OF[CommandType.REF_BANK]


@dataclass(frozen=True)
class ScheduledCommand:
    """One command placed on the command bus.

    Attributes:
        time_ps: issue time on the command-clock grid.
        command: the command type.
        bank: flat bank index (``-1`` for all-bank refresh).
        row: row address (``-1`` when not applicable).
        column: burst-granular column address (``-1`` when not applicable).
        request_id: index of the originating request in the access
            sequence (``-1`` for refresh and other autonomous commands).
    """

    time_ps: int
    command: CommandType
    bank: int = -1
    row: int = -1
    column: int = -1
    request_id: int = -1

    def __post_init__(self) -> None:
        if self.time_ps < 0:
            raise ValueError(f"command time must be non-negative, got {self.time_ps}")

    @property
    def moves_data(self) -> bool:
        """Whether this command occupies the data bus."""
        return self.command in CAS_COMMANDS

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        parts = [f"{self.time_ps:>12d} ps  {self.command.value:<6s}"]
        if self.bank >= 0:
            parts.append(f"bank={self.bank}")
        if self.row >= 0:
            parts.append(f"row={self.row}")
        if self.column >= 0:
            parts.append(f"col={self.column}")
        return " ".join(parts)


#: Fields per tape row, in column order.
TAPE_FIELDS = 6


class CommandTape(Sequence[ScheduledCommand]):
    """A recorded schedule as six read-only int64 columns.

    Columns, one entry per command in recording order: ``time_ps``,
    ``code`` (see :data:`COMMAND_OF`), ``bank``, ``row``, ``column``
    and ``request_id`` — the fields of :class:`ScheduledCommand`.  They
    are views into one row-major ``(n, TAPE_FIELDS)`` table, the layout
    the schedulers record in, so wrapping their records copies nothing.

    As a ``Sequence[ScheduledCommand]`` the tape is a lazy view:
    ``len`` is free, and ``tape[i]`` / iteration build records only on
    access (a slice is a tape).  Equality is element-wise against
    another tape or any sequence of :class:`ScheduledCommand`, so a
    tape equals the plain list an oracle recorded for the same
    schedule.
    """

    __slots__ = ("_table",)

    def __init__(self, rows: "NDArray[np.int64]") -> None:
        """Wrap flat row-major int64 records, :data:`TAPE_FIELDS` per
        command (made read-only, not copied)."""
        if rows.dtype != np.int64 or rows.ndim != 1 \
                or len(rows) % TAPE_FIELDS:
            raise ValueError(
                f"command tape needs flat int64 records, {TAPE_FIELDS} per "
                f"command; got {rows.dtype} of shape {rows.shape}")
        rows.setflags(write=False)
        self._table = rows.reshape(-1, TAPE_FIELDS)

    @classmethod
    def empty(cls) -> "CommandTape":
        """A tape with no commands."""
        return cls(np.empty(0, dtype=np.int64))

    @classmethod
    def from_commands(cls, commands: Iterable[ScheduledCommand]) -> "CommandTape":
        """The columnar form of any iterable of :class:`ScheduledCommand`."""
        if isinstance(commands, CommandTape):
            return commands
        flat: List[int] = []
        for c in commands:
            flat += (c.time_ps, CODE_OF[c.command], c.bank, c.row, c.column,
                     c.request_id)
        return cls(np.array(flat, dtype=np.int64))

    @property
    def time_ps(self) -> "NDArray[np.int64]":
        """Issue times (ps)."""
        return self._table[:, 0]

    @property
    def code(self) -> "NDArray[np.int64]":
        """Command codes (index into :data:`COMMAND_OF`)."""
        return self._table[:, 1]

    @property
    def bank(self) -> "NDArray[np.int64]":
        """Flat bank indices (``-1`` for all-bank refresh)."""
        return self._table[:, 2]

    @property
    def row(self) -> "NDArray[np.int64]":
        """Row addresses (``-1`` when not applicable)."""
        return self._table[:, 3]

    @property
    def column(self) -> "NDArray[np.int64]":
        """Burst-granular column addresses (``-1`` when not applicable)."""
        return self._table[:, 4]

    @property
    def request_id(self) -> "NDArray[np.int64]":
        """Originating request indices (``-1`` for autonomous commands)."""
        return self._table[:, 5]

    def __len__(self) -> int:
        return len(self._table)

    @overload
    def __getitem__(self, index: int) -> ScheduledCommand: ...

    @overload
    def __getitem__(self, index: slice) -> "CommandTape": ...

    def __getitem__(
            self, index: Union[int, slice]
    ) -> Union[ScheduledCommand, "CommandTape"]:
        if isinstance(index, slice):
            return CommandTape(self._table[index].ravel())
        t, code, bank, row, column, request_id = self._table[index].tolist()
        return ScheduledCommand(t, COMMAND_OF[code], bank, row, column,
                                request_id)

    def __iter__(self) -> Iterator[ScheduledCommand]:
        command_of = COMMAND_OF
        for t, code, bank, row, column, request_id in self._table.tolist():
            yield ScheduledCommand(t, command_of[code], bank, row, column,
                                   request_id)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CommandTape):
            return bool(np.array_equal(self._table, other._table))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"CommandTape({len(self)} commands)"


class TapeBuilder:
    """Collects recorded commands and builds one :class:`CommandTape`.

    Schedulers write single commands with :meth:`add` (six ints, no
    object) or whole blocks of canonical rows with :meth:`add_rows`;
    :meth:`build` concatenates everything once.
    """

    __slots__ = ("_flat", "_chunks")

    def __init__(self) -> None:
        self._flat: List[int] = []
        self._chunks: List["NDArray[np.int64]"] = []

    def add(self, time_ps: int, code: int, bank: int = -1, row: int = -1,
            column: int = -1, request_id: int = -1) -> None:
        """Record one command (``code`` from :data:`CODE_OF`)."""
        self._flat += (time_ps, code, bank, row, column, request_id)

    def add_rows(self, rows: "NDArray[np.int64]") -> None:
        """Record a block of flat row-major records (kept, not copied)."""
        self._flush()
        self._chunks.append(rows)

    def _flush(self) -> None:
        if self._flat:
            self._chunks.append(np.array(self._flat, dtype=np.int64))
            self._flat = []

    def build(self) -> CommandTape:
        """The tape of everything recorded so far, in recording order."""
        self._flush()
        if not self._chunks:
            return CommandTape.empty()
        if len(self._chunks) == 1:
            return CommandTape(self._chunks[0])
        return CommandTape(np.concatenate(self._chunks))
