"""The columnar command tape: lazy view, equality, lowering and the
no-objects guarantee of the recorded-schedule path."""

import pickle

import numpy as np
import pytest

from repro.dram._reference import reference_run_phase
from repro.dram.commands import (CODE_OF, CODE_RD, COMMAND_OF, CommandTape,
                                 CommandType, ScheduledCommand, TapeBuilder)
from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.energy import command_arrays
from repro.dram.engine import SchedulingEngine, as_workload
from repro.dram.kernel import make_scheduler
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.row_major import RowMajorMapping
from repro.system.e2e import _frame_latencies

RECORDING = ControllerConfig(record_commands=True)

SAMPLE = [
    ScheduledCommand(0, CommandType.ACT, bank=1, row=7),
    ScheduledCommand(13750, CommandType.RD, bank=1, row=7, column=3,
                     request_id=0),
    ScheduledCommand(20000, CommandType.WR, bank=2, row=4, column=0,
                     request_id=1),
    ScheduledCommand(40000, CommandType.PRE, bank=1),
    ScheduledCommand(50000, CommandType.REF_ALL),
    ScheduledCommand(60000, CommandType.REF_BANK, bank=3),
]


def _recorded(config, op=OP_READ, n=48, scheduler=None):
    """One recorded phase: (result, plain list from the frozen oracle)."""
    mapping = RowMajorMapping(TriangularIndexSpace(n), config.geometry)
    requests = (mapping.read_addresses_array() if op == OP_READ
                else mapping.write_addresses_array())
    scheduler = scheduler or make_scheduler(config, RECORDING)
    result = scheduler.run(as_workload(requests), op=op)
    requests = (mapping.read_addresses_array() if op == OP_READ
                else mapping.write_addresses_array())
    oracle = reference_run_phase(config, requests, op, RECORDING)
    return result, oracle.commands


def _old_command_arrays(commands):
    """The per-object lowering :func:`command_arrays` used to run."""
    n = len(commands)
    codes = np.fromiter((CODE_OF[c.command] for c in commands),
                        dtype=np.int8, count=n)
    times = np.fromiter((c.time_ps for c in commands),
                        dtype=np.int64, count=n)
    return codes, times


def _old_frame_latencies(commands, frames, elements_per_frame, config, op):
    """The per-object latency fold ``_frame_latencies`` used to run."""
    timing = config.timing
    latency = timing.cl if op == OP_READ else timing.cwl
    completion = [0] * frames
    for command in commands:
        if command.moves_data:
            end = command.time_ps + latency + config.burst_duration_ps
            frame = command.request_id // elements_per_frame
            completion[frame] = max(completion[frame], end)
    latencies, previous = [], 0
    for end in completion:
        end = max(end, previous)
        latencies.append(end - previous)
        previous = end
    return tuple(latencies)


class TestCommandTape:
    def test_codes_follow_the_command_table(self):
        assert [CODE_OF[kind] for kind in COMMAND_OF] == list(range(6))
        assert COMMAND_OF[CODE_RD] is CommandType.RD

    def test_round_trips_objects(self):
        tape = CommandTape.from_commands(SAMPLE)
        assert len(tape) == len(SAMPLE)
        assert list(tape) == SAMPLE
        assert tape == SAMPLE
        assert SAMPLE == tape
        assert tape[1] == SAMPLE[1]
        assert tape[-1] == SAMPLE[-1]
        assert tape[1:4] == SAMPLE[1:4]
        assert isinstance(tape[1:4], CommandTape)
        with pytest.raises(IndexError):
            tape[len(SAMPLE)]

    def test_columns(self):
        tape = CommandTape.from_commands(SAMPLE)
        assert tape.time_ps.tolist() == [c.time_ps for c in SAMPLE]
        assert tape.code.tolist() == [CODE_OF[c.command] for c in SAMPLE]
        assert tape.bank.tolist() == [c.bank for c in SAMPLE]
        assert tape.row.tolist() == [c.row for c in SAMPLE]
        assert tape.column.tolist() == [c.column for c in SAMPLE]
        assert tape.request_id.tolist() == [c.request_id for c in SAMPLE]
        assert tape.time_ps.dtype == np.int64

    def test_is_frozen(self):
        tape = CommandTape.from_commands(SAMPLE)
        with pytest.raises(ValueError):
            tape.time_ps[0] = 1
        with pytest.raises(TypeError):
            hash(tape)

    def test_empty_tape_equals_empty_list(self):
        assert CommandTape.empty() == []
        assert [] == CommandTape.empty()
        assert CommandTape.empty() == CommandTape.from_commands([])
        assert not CommandTape.empty()
        assert list(CommandTape.empty()) == []

    def test_inequality(self):
        tape = CommandTape.from_commands(SAMPLE)
        assert tape != SAMPLE[:-1]
        assert tape != list(reversed(SAMPLE))
        assert tape != CommandTape.from_commands(SAMPLE[1:])
        assert tape != "not a schedule"
        assert tape != 3

    def test_pickles(self):
        tape = CommandTape.from_commands(SAMPLE)
        assert pickle.loads(pickle.dumps(tape)) == tape

    def test_rejects_ragged_records(self):
        with pytest.raises(ValueError, match="6 per command"):
            CommandTape(np.zeros(7, dtype=np.int64))

    def test_builder_keeps_recording_order(self):
        builder = TapeBuilder()
        builder.add(0, CODE_OF[CommandType.ACT], 1, 7)
        builder.add_rows(np.array(
            [(c.time_ps, CODE_OF[c.command], c.bank, c.row, c.column,
              c.request_id) for c in SAMPLE[1:3]], dtype=np.int64).ravel())
        for c in SAMPLE[3:]:
            builder.add(c.time_ps, CODE_OF[c.command], c.bank, c.row,
                        c.column, c.request_id)
        assert builder.build() == SAMPLE


class TestRecordedSchedules:
    """Both schedulers record tapes that equal the frozen oracle's list."""

    @pytest.mark.parametrize("op", (OP_READ, OP_WRITE))
    def test_tape_round_trips_oracle_objects(self, ddr4, op,
                                             scheduler_backend):
        result, oracle = _recorded(ddr4, op)
        assert isinstance(result.commands, CommandTape)
        assert list(result.commands) == oracle
        assert CommandTape.from_commands(oracle) == result.commands

    def test_general_engine_tape_equals_oracle(self, lpddr4):
        result, oracle = _recorded(
            lpddr4, scheduler=SchedulingEngine(lpddr4, RECORDING))
        assert list(result.commands) == oracle

    def test_unrecorded_run_has_empty_tape(self, ddr4, scheduler_backend):
        result = make_scheduler(ddr4, ControllerConfig()).run(
            as_workload([(0, 0, 0)]))
        assert isinstance(result.commands, CommandTape)
        assert result.commands == []

    @pytest.mark.parametrize("op", (OP_READ, OP_WRITE))
    def test_command_arrays_equal_per_object_lowering(self, ddr4, op,
                                                      scheduler_backend):
        result, oracle = _recorded(ddr4, op)
        codes, times = command_arrays(result.commands)
        old_codes, old_times = _old_command_arrays(oracle)
        assert codes.tolist() == old_codes.tolist()
        assert np.array_equal(times, old_times)
        list_codes, list_times = command_arrays(oracle)
        assert np.array_equal(list_codes, codes)
        assert np.array_equal(list_times, times)

    @pytest.mark.parametrize("op", (OP_READ, OP_WRITE))
    def test_latency_fold_equals_per_object_fold(self, ddr4, op,
                                                 scheduler_backend):
        result, oracle = _recorded(ddr4, op)
        elements = 97
        frames = -(-result.stats.requests // elements)
        fold = _frame_latencies(result.commands, frames, elements, ddr4, op)
        assert fold == _old_frame_latencies(oracle, frames, elements, ddr4, op)
        assert all(type(v) is int for v in fold)
        assert sum(fold) == result.stats.makespan_ps

