"""Differential battery: native batch-advance kernel vs the general engine.

The event-wheel kernel (:mod:`repro.dram.kernel`) must be bit-identical
to the general :class:`~repro.dram.engine.SchedulingEngine` — same
:class:`~repro.dram.stats.PhaseStats`, same ``command_counts``, same
:class:`~repro.dram.stats.EnergyTally`, same recorded command list —
on every Table I (configuration, mapping) pair, in both phases, and on
geometries beyond the Table I devices, under every discipline and for
mixed read/write sources, which all run in the compiled loop; its
schedules must independently satisfy the JEDEC replay checker
(:mod:`repro.dram.trace`) for homogeneous and mixed traffic.  Refresh
runs inside the compiled loop, so both refresh modes are also driven
at short intervals, and each phase must cost one compiled call plus
one per record-tape drain.  The
selection itself
(:func:`~repro.dram.kernel.make_scheduler`) is covered with the native
object both present and forced absent, including a failed build.
"""

import random
import subprocess
from dataclasses import replace

import numpy as np
import pytest

from repro.dram import _kernelc
from repro.dram import kernel as kernel_module
from repro.dram._reference import reference_run_phase
from repro.dram.controller import (
    OP_READ,
    OP_WRITE,
    ControllerConfig,
    MemoryController,
)
from repro.dram.commands import (CODE_ACT, CODE_PRE, CODE_RD, CODE_REF_ALL,
                                 CODE_REF_BANK, CODE_WR)
from repro.dram.engine import MixedSource, SchedulingEngine, as_workload
from repro.dram.geometry import Geometry
from repro.dram.kernel import KernelEngine, make_scheduler
from repro.dram.mixed import (RowShiftedMapping, interleaved_stream,
                              steady_state_interleaver)
from repro.dram.policy import (POLICY_BANK_PARTITION, POLICY_CLOSED_PAGE,
                               POLICY_FRFCFS_CAP, POLICY_OPEN_PAGE)
from repro.dram.presets import (REFRESH_ALL_BANK, REFRESH_PER_BANK,
                                TABLE1_CONFIG_NAMES, get_config)
from repro.dram.simulator import simulate_phase_result
from repro.dram.trace import check_phase_commands
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.mapping.row_major import RowMajorMapping

N = 48

RECORDING_POLICY = ControllerConfig(record_commands=True)

#: Every discipline, FR-FCFS-cap at several caps (cap 1 == closed-page).
DISCIPLINE_POLICIES = [
    ControllerConfig(record_commands=True, discipline=POLICY_OPEN_PAGE),
    ControllerConfig(record_commands=True, discipline=POLICY_CLOSED_PAGE),
    *(ControllerConfig(record_commands=True, discipline=POLICY_FRFCFS_CAP,
                       cap=cap) for cap in (1, 2, 3, 8)),
    ControllerConfig(record_commands=True, discipline=POLICY_BANK_PARTITION),
]

DISCIPLINE_IDS = [
    f"{p.discipline}-{p.cap}" if p.discipline == POLICY_FRFCFS_CAP
    else p.discipline for p in DISCIPLINE_POLICIES]

MAPPING_FACTORIES = {
    "row-major": lambda space, geometry: RowMajorMapping(space, geometry),
    "optimized": lambda space, geometry: OptimizedMapping(
        space, geometry, prefer_tall=False),
}

TABLE1_PAIRS = [
    (config_name, mapping_name)
    for config_name in TABLE1_CONFIG_NAMES
    for mapping_name in MAPPING_FACTORIES
]

PAIR_IDS = [f"{c}-{m}" for c, m in TABLE1_PAIRS]


def _mapping(config, mapping_name, n=N):
    space = TriangularIndexSpace(n)
    return MAPPING_FACTORIES[mapping_name](space, config.geometry)


def _chunks(mapping, op):
    return (mapping.write_addresses_array() if op == OP_WRITE
            else mapping.read_addresses_array())


def _run_engines(config, mapping, op, policy=None):
    """One phase through general engine and kernel; returns both results."""
    policy = policy or ControllerConfig()
    general = SchedulingEngine(config, policy).run(
        as_workload(_chunks(mapping, op)), op=op)
    kernel = KernelEngine(config, policy).run(
        as_workload(_chunks(mapping, op)), op=op)
    return general, kernel


def _assert_identical(general, kernel):
    """Full bit-identity, including the compare=False energy tally, the
    command-count key order and the direction counters."""
    assert kernel.stats == general.stats
    assert kernel.stats.command_counts == general.stats.command_counts
    assert (list(kernel.stats.command_counts)
            == list(general.stats.command_counts))
    assert kernel.stats.energy_tally == general.stats.energy_tally
    assert kernel.commands == general.commands
    assert (kernel.reads, kernel.writes, kernel.turnarounds) == (
        general.reads, general.writes, general.turnarounds)


def _snapshots(engine, config):
    return [engine.bank_snapshot(b) for b in range(config.geometry.banks)]


@pytest.mark.usefixtures("native_kernel")
class TestTable1Grid:
    """Kernel == engine on the full production grid."""

    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=PAIR_IDS)
    def test_phase_bit_identical(self, config_name, mapping_name, op):
        config = get_config(config_name)
        mapping = _mapping(config, mapping_name)
        general, kernel = _run_engines(config, mapping, op, RECORDING_POLICY)
        _assert_identical(general, kernel)


def _wide_config(tiny_config, bank_groups, banks_per_group):
    """``tiny_config``'s timing on a geometry with many more banks.

    The page holds one burst per bank, the least the optimized
    mapping's balanced tiling accepts.
    """
    banks = bank_groups * banks_per_group
    geometry = Geometry(bank_groups=bank_groups,
                        banks_per_group=banks_per_group, rows=64,
                        columns=8 * banks, bus_width_bits=64, burst_length=8)
    return replace(tiny_config, name=f"WIDE-{geometry.banks}",
                   geometry=geometry)


@pytest.mark.usefixtures("native_kernel")
class TestWideGeometry:
    """The native loop has no bank-count limit (128 banks here)."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("op", (OP_WRITE, OP_READ))
    def test_random_stream_bit_identical(self, tiny_config, op, seed):
        config = _wide_config(tiny_config, 8, 16)
        assert config.geometry.banks == 128
        rng = random.Random(0x128 * 100 + seed)
        requests = [(rng.randrange(128), rng.randrange(8), rng.randrange(8))
                    for _ in range(3000)]
        policy = ControllerConfig(queue_depth=rng.choice([64, 256]),
                                  per_bank_depth=rng.choice([2, 16]),
                                  record_commands=True)
        general = SchedulingEngine(config, policy).run(
            as_workload(iter(requests)), op=op)
        kernel = KernelEngine(config, policy).run(
            as_workload(iter(requests)), op=op)
        _assert_identical(general, kernel)
        assert check_phase_commands(config, kernel.commands) == []

    @pytest.mark.parametrize("mapping_name", sorted(MAPPING_FACTORIES))
    def test_mapping_bit_identical(self, tiny_config, mapping_name):
        config = _wide_config(tiny_config, 8, 16)
        mapping = _mapping(config, mapping_name, n=64)
        for op in (OP_WRITE, OP_READ):
            general, kernel = _run_engines(config, mapping, op,
                                           RECORDING_POLICY)
            _assert_identical(general, kernel)


@pytest.mark.usefixtures("native_kernel")
class TestWarmState:
    """Warm bank state carries across native and general phases.

    The kernel shares the per-bank timestamp table with its wrapped
    general engine, so rows left open by one must be visible — and
    identically charged — by the other.
    """

    @pytest.mark.parametrize("native_first", (True, False),
                             ids=("native-then-general",
                                  "general-then-native"))
    def test_alternation_matches_general(self, ddr4, native_first):
        mapping = _mapping(ddr4, "optimized")
        policy = ControllerConfig()
        kernel = KernelEngine(ddr4, policy)
        # The wrapped engine shares the kernel's per-bank table.
        general = kernel._general
        first, second = (kernel, general) if native_first else (general, kernel)
        alternated = (
            first.run(as_workload(_chunks(mapping, OP_WRITE)), op=OP_WRITE).stats,
            second.run(as_workload(_chunks(mapping, OP_READ)), op=OP_READ).stats,
        )
        plain = SchedulingEngine(ddr4, policy)
        reference = (
            plain.run(as_workload(_chunks(mapping, OP_WRITE)), op=OP_WRITE).stats,
            plain.run(as_workload(_chunks(mapping, OP_READ)), op=OP_READ).stats,
        )
        assert alternated == reference

    def test_controller_two_phases_match_general(self, ddr4):
        mapping = _mapping(ddr4, "row-major")
        controller = MemoryController(ddr4, ControllerConfig())
        native = tuple(controller.run_phase(_chunks(mapping, op), op).stats
                       for op in (OP_WRITE, OP_READ))
        plain = SchedulingEngine(ddr4, ControllerConfig())
        reference = tuple(
            plain.run(as_workload(_chunks(mapping, op)), op=op).stats
            for op in (OP_WRITE, OP_READ))
        assert native == reference

    @pytest.mark.parametrize("policy", DISCIPLINE_POLICIES,
                             ids=DISCIPLINE_IDS)
    def test_phase_sequence_matches_general(self, ddr4, policy):
        """Write, read and mixed phases on one warm scheduler: every
        result and every bank's state after every phase match."""
        mapping = _mapping(ddr4, "optimized", n=32)
        mixed = _mixed_requests(ddr4, n=24, group=3)
        kernel = KernelEngine(ddr4, policy)
        general = SchedulingEngine(ddr4, policy)
        for phase in (OP_WRITE, "mixed", OP_READ, "mixed"):
            if phase == "mixed":
                results = [engine.run(MixedSource(mixed))
                           for engine in (general, kernel)]
            else:
                results = [engine.run(as_workload(_chunks(mapping, phase)),
                                      phase)
                           for engine in (general, kernel)]
            _assert_identical(*results)
            assert _snapshots(kernel, ddr4) == _snapshots(general, ddr4)


def _mixed_requests(config, n=24, group=4):
    mapping = _mapping(config, "optimized", n=n)
    read_mapping = RowShiftedMapping(mapping, mapping.rows_used())
    return list(interleaved_stream(mapping, read_mapping, group))


def _random_mixed(rng, n_banks, count):
    """Random mixed requests over few rows (plenty of hits and misses)."""
    read_share = rng.choice([0.1, 0.5, 0.9])
    n_rows = rng.choice([2, 8, 64])
    return [(rng.random() < read_share, rng.randrange(n_banks),
             rng.randrange(n_rows), rng.randrange(16))
            for _ in range(count)]


@pytest.mark.usefixtures("native_kernel")
class TestMixedTraffic:
    """Mixed streams run the compiled loop's turnaround rules."""

    @pytest.mark.parametrize("policy", DISCIPLINE_POLICIES,
                             ids=DISCIPLINE_IDS)
    def test_mixed_phase_bit_identical(self, ddr4, policy):
        requests = _mixed_requests(ddr4)
        general_engine = SchedulingEngine(ddr4, policy)
        kernel_engine = KernelEngine(ddr4, policy)
        general = general_engine.run(MixedSource(requests))
        kernel = kernel_engine.run(MixedSource(requests))
        _assert_identical(general, kernel)
        assert kernel.turnarounds > 0
        assert _snapshots(kernel_engine, ddr4) == _snapshots(general_engine,
                                                             ddr4)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("policy", DISCIPLINE_POLICIES,
                             ids=DISCIPLINE_IDS)
    def test_random_mixed_bit_identical(self, policy, seed):
        salt = DISCIPLINE_POLICIES.index(policy)
        rng = random.Random(0x5EED * 100 + salt * 10 + seed)
        config = get_config(rng.choice(TABLE1_CONFIG_NAMES))
        policy = replace(policy, queue_depth=rng.choice([1, 8, 64]),
                         per_bank_depth=rng.choice([1, 4, 16]))
        requests = _random_mixed(rng, config.geometry.banks, 1500)
        general_engine = SchedulingEngine(config, policy)
        kernel_engine = KernelEngine(config, policy)
        _assert_identical(general_engine.run(MixedSource(requests)),
                          kernel_engine.run(MixedSource(requests)))
        assert (_snapshots(kernel_engine, config)
                == _snapshots(general_engine, config))

    def test_steady_state_matches_general(self, ddr4, request):
        """The columnar steady-state source: native == general engine."""
        mapping = _mapping(ddr4, "optimized", n=32)
        native = steady_state_interleaver(ddr4, mapping, group=16,
                                          policy=RECORDING_POLICY)
        request.getfixturevalue("general_only")
        general = steady_state_interleaver(ddr4, mapping, group=16,
                                           policy=RECORDING_POLICY)
        assert native.stats == general.stats
        assert native.commands == general.commands
        assert (native.reads, native.writes, native.turnarounds) == (
            general.reads, general.writes, general.turnarounds)

    def test_small_mixed_stream(self, tiny_config):
        requests = [(False, 0, 0, 0), (False, 1, 0, 0),
                    (True, 0, 0, 0), (True, 2, 1, 3)]
        general = SchedulingEngine(tiny_config, ControllerConfig()).run(
            MixedSource(requests))
        kernel = KernelEngine(tiny_config, ControllerConfig()).run(
            MixedSource(requests))
        assert kernel.stats == general.stats


@pytest.mark.usefixtures("native_kernel")
class TestTraceReplay:
    """Kernel-produced schedules satisfy the independent JEDEC oracle."""

    @pytest.mark.parametrize("config_name,mapping_name", TABLE1_PAIRS,
                             ids=PAIR_IDS)
    def test_read_phase_replay_is_clean(self, config_name, mapping_name):
        config = get_config(config_name)
        mapping = _mapping(config, mapping_name)
        result = simulate_phase_result(config, mapping, OP_READ,
                                       RECORDING_POLICY)
        assert result.commands, "recording policy produced no commands"
        violations = check_phase_commands(config, result.commands)
        assert violations == [], violations[:5]

    def test_write_phase_replay_is_clean(self, ddr4):
        mapping = _mapping(ddr4, "row-major")
        result = simulate_phase_result(ddr4, mapping, OP_WRITE,
                                       RECORDING_POLICY)
        violations = check_phase_commands(ddr4, result.commands)
        assert violations == [], violations[:5]

    def test_mixed_replay_is_clean(self, ddr4):
        result = KernelEngine(ddr4, RECORDING_POLICY).run(
            MixedSource(_mixed_requests(ddr4)))
        assert result.commands, "recording policy produced no commands"
        violations = check_phase_commands(ddr4, result.commands)
        assert violations == [], violations[:5]


class TestSchedulerSelection:
    """``make_scheduler`` picks native when it loads, general otherwise."""

    def test_native_when_available(self, ddr4, native_kernel):
        assert isinstance(make_scheduler(ddr4, ControllerConfig()),
                          KernelEngine)
        assert isinstance(MemoryController(ddr4)._engine, KernelEngine)

    def test_general_when_unavailable(self, ddr4, general_only):
        assert type(make_scheduler(ddr4, ControllerConfig())) is SchedulingEngine
        mapping = _mapping(ddr4, "row-major", n=16)
        result = MemoryController(ddr4).run_phase(
            mapping.write_addresses_array(), OP_WRITE)
        assert result.stats.requests == mapping.space.num_elements

    def test_kernel_refuses_without_native(self, ddr4, general_only):
        with pytest.raises(RuntimeError, match="unavailable"):
            KernelEngine(ddr4, ControllerConfig())

    def test_failed_build_warns_and_falls_back(self, ddr4, tmp_path,
                                               monkeypatch):
        """A compiler that fails is loud; the schedule is unchanged."""
        mapping = _mapping(ddr4, "optimized", n=24)
        expected = SchedulingEngine(ddr4, ControllerConfig()).run(
            as_workload(mapping.read_addresses_array()), op=OP_READ).stats

        def failing_build(command, **kwargs):
            return subprocess.CompletedProcess(
                command, 1, stdout=b"",
                stderr=b"kernel.c:1: error: simulated failure\n")

        monkeypatch.setenv("REPRO_KERNELC_CACHE", str(tmp_path))
        monkeypatch.setattr(_kernelc, "which", lambda name: "/usr/bin/cc")
        monkeypatch.setattr(_kernelc.subprocess, "run", failing_build)
        monkeypatch.setattr(_kernelc, "_loaded", None)
        monkeypatch.setattr(_kernelc, "_load_attempted", False)
        with pytest.warns(RuntimeWarning) as caught:
            controller = MemoryController(ddr4)
        assert len(caught) == 1
        message = str(caught[0].message)
        assert _kernelc._cache_path() in message
        assert "simulated failure" in message
        assert type(controller._engine) is SchedulingEngine
        stats = controller.run_phase(mapping.read_addresses_array(),
                                     OP_READ).stats
        assert stats == expected
        assert stats.energy_tally == expected.energy_tally


class TestCacheTrust:
    """A cached object another user could have written is never loaded."""

    @pytest.fixture
    def fresh_load(self, tmp_path, monkeypatch):
        """Point the cache at ``tmp_path/cache`` and record every load."""
        if _kernelc.which("cc") is None and _kernelc.which("gcc") is None:
            pytest.skip("no C compiler")
        cache = tmp_path / "cache"
        private_root = tmp_path / "private"
        private_root.mkdir()
        monkeypatch.setenv("REPRO_KERNELC_CACHE", str(cache))
        monkeypatch.setattr(_kernelc.tempfile, "tempdir", str(private_root))
        monkeypatch.setattr(_kernelc, "_loaded", None)
        monkeypatch.setattr(_kernelc, "_load_attempted", False)
        loaded_paths = []
        real_cdll = _kernelc.ctypes.CDLL

        def recording_cdll(path, *args, **kwargs):
            loaded_paths.append(str(path))
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(_kernelc.ctypes, "CDLL", recording_cdll)
        return cache, private_root, loaded_paths

    def _plant(self, cache):
        cache.mkdir(mode=0o700, exist_ok=True)
        planted = cache / _kernelc._so_name()
        planted.write_bytes(b"not a shared object")
        return planted

    def _assert_built_privately(self, planted, private_root, loaded_paths):
        assert _kernelc.load() is not None
        assert str(planted) not in loaded_paths
        assert len(loaded_paths) == 1
        assert loaded_paths[0].startswith(str(private_root))
        assert planted.read_bytes() == b"not a shared object"
        assert list(private_root.iterdir()) == []  # private build removed

    def test_foreign_owned_cache_dir_not_loaded(self, fresh_load,
                                                monkeypatch):
        cache, private_root, loaded_paths = fresh_load
        planted = self._plant(cache)
        real_uid = _kernelc.os.getuid()
        monkeypatch.setattr(_kernelc.os, "getuid", lambda: real_uid + 1)
        self._assert_built_privately(planted, private_root, loaded_paths)

    def test_group_writable_object_not_loaded(self, fresh_load):
        cache, private_root, loaded_paths = fresh_load
        planted = self._plant(cache)
        planted.chmod(0o664)
        self._assert_built_privately(planted, private_root, loaded_paths)

    def test_world_writable_cache_dir_not_loaded(self, fresh_load):
        cache, private_root, loaded_paths = fresh_load
        planted = self._plant(cache)
        cache.chmod(0o777)
        self._assert_built_privately(planted, private_root, loaded_paths)

    def test_symlinked_object_not_loaded(self, fresh_load, tmp_path):
        cache, private_root, loaded_paths = fresh_load
        cache.mkdir(mode=0o700)
        target = tmp_path / "elsewhere.so"
        target.write_bytes(b"not a shared object")
        link = cache / _kernelc._so_name()
        link.symlink_to(target)
        assert _kernelc.load() is not None
        assert str(link) not in loaded_paths
        assert loaded_paths[0].startswith(str(private_root))

    def test_own_private_cache_is_built_and_reused(self, fresh_load,
                                                   monkeypatch):
        cache, private_root, loaded_paths = fresh_load
        assert _kernelc.load() is not None
        so_path = cache / _kernelc._so_name()
        assert loaded_paths == [str(so_path)]
        assert cache.stat().st_mode & 0o077 == 0
        monkeypatch.setattr(_kernelc, "_loaded", None)
        monkeypatch.setattr(_kernelc, "_load_attempted", False)
        monkeypatch.setattr(_kernelc, "_compile", lambda path: pytest.fail(
            "a trusted cached object must be reused, not rebuilt"))
        assert _kernelc.load() is not None
        assert loaded_paths == [str(so_path)] * 2


@pytest.mark.usefixtures("native_kernel")
class TestRecordTape:
    """The fixed-size record tape drains without changing the commands."""

    @pytest.mark.parametrize("tape_rows", (1, 5, 64))
    def test_tiny_tape_matches_general(self, ddr4, monkeypatch, tape_rows):
        monkeypatch.setattr(kernel_module, "_TAPE_ROWS", tape_rows)
        mapping = _mapping(ddr4, "row-major", n=128)
        general, kernel = _run_engines(ddr4, mapping, OP_READ,
                                       RECORDING_POLICY)
        assert kernel.stats.refreshes > 0
        _assert_identical(general, kernel)
        # The tape was drained many times; the concatenated blocks
        # equal the frozen oracle's object list command for command.
        assert len(kernel.commands) > 8 * (tape_rows + 2 * ddr4.geometry.banks)
        oracle = reference_run_phase(ddr4, _chunks(mapping, OP_READ),
                                     OP_READ, RECORDING_POLICY)
        assert list(kernel.commands) == oracle.commands

    @pytest.mark.parametrize("tape_rows", (1, 5))
    def test_tiny_tape_mixed_auto_close(self, ddr4, monkeypatch, tape_rows):
        """Many drains in one phase holding auto-PREs and both CAS kinds."""
        monkeypatch.setattr(kernel_module, "_TAPE_ROWS", tape_rows)
        policy = ControllerConfig(record_commands=True,
                                  discipline=POLICY_FRFCFS_CAP, cap=2)
        requests = _mixed_requests(ddr4, n=64, group=8)
        general = SchedulingEngine(ddr4, policy).run(MixedSource(requests))
        kernel = KernelEngine(ddr4, policy).run(MixedSource(requests))
        _assert_identical(general, kernel)
        codes = set(kernel.commands.code.tolist())
        assert {CODE_RD, CODE_WR, CODE_PRE, CODE_ACT} <= codes
        assert kernel.stats.refreshes > 0
        assert len(kernel.commands) > 8 * (tape_rows + 2 * ddr4.geometry.banks)


#: Short refresh intervals with a refresh cycle shorter than the
#: interval: deadlines fall everywhere in a phase, and a row cycle
#: (tRP + tRCD, about 28 ns on DDR4-3200) spans several of them.
REFRESH_TIMINGS = {"medium": (20_000, 5_000), "dense": (3_000, 1_000)}

REFRESH_MODES = (REFRESH_ALL_BANK, REFRESH_PER_BANK)


def _refresh_config(mode, trefi, trfc, base="DDR4-3200"):
    """``base`` with the given refresh mode, tREFI and tRFC (= tRFCpb)."""
    config = get_config(base)
    timing = replace(config.timing, trefi=trefi, trfc=trfc, trfc_pb=trfc)
    return replace(config, timing=timing, refresh_mode=mode)


def _ref_contexts(commands):
    """Where the refreshes of a recorded schedule fell.

    ``streak``: the CAS before the REF and the next one hit the same
    bank and row; ``turnaround``: those two CAS differ in direction;
    ``jump``: two REFs with no CAS between them (one CAS gap passed
    both deadlines).
    """
    codes = commands.code.tolist()
    banks = commands.bank.tolist()
    rows = commands.row.tolist()
    found = set()
    last_cas = None
    pending_ref = False
    for i, code in enumerate(codes):
        if code in (CODE_REF_ALL, CODE_REF_BANK):
            if pending_ref:
                found.add("jump")
            pending_ref = True
        elif code in (CODE_RD, CODE_WR):
            if pending_ref and last_cas is not None:
                if (banks[last_cas], rows[last_cas]) == (banks[i], rows[i]):
                    found.add("streak")
                if codes[last_cas] != code:
                    found.add("turnaround")
            pending_ref = False
            last_cas = i
    return found


@pytest.fixture
def drained_blocks(monkeypatch):
    """Every block of record rows the kernel drains, as ``(k, 6)`` rows."""
    blocks = []
    real_add_rows = kernel_module.TapeBuilder.add_rows

    def spy(builder, rows):
        blocks.append(rows.reshape(-1, 6))
        return real_add_rows(builder, rows)

    monkeypatch.setattr(kernel_module.TapeBuilder, "add_rows", spy)
    return blocks


@pytest.mark.usefixtures("native_kernel")
class TestNativeRefresh:
    """REFab and REFpb applied by the compiled loop match the general
    engine and leave its :class:`~repro.dram.refresh.RefreshScheduler`
    exactly where the general engine leaves its own."""

    @pytest.mark.parametrize("density", sorted(REFRESH_TIMINGS))
    @pytest.mark.parametrize("mode", REFRESH_MODES)
    def test_deadlines_inside_row_hit_streaks(self, mode, density):
        config = _refresh_config(mode, *REFRESH_TIMINGS[density])
        mapping = _mapping(config, "row-major", n=48)
        general, kernel = _run_engines(config, mapping, OP_READ,
                                       RECORDING_POLICY)
        _assert_identical(general, kernel)
        assert "streak" in _ref_contexts(kernel.commands)
        assert check_phase_commands(config, kernel.commands) == []

    @pytest.mark.parametrize("mode", REFRESH_MODES)
    def test_several_deadlines_in_one_cas_gap(self, mode):
        config = _refresh_config(mode, *REFRESH_TIMINGS["dense"])
        mapping = _mapping(config, "optimized", n=24)
        for op in (OP_WRITE, OP_READ):
            general, kernel = _run_engines(config, mapping, op,
                                           RECORDING_POLICY)
            _assert_identical(general, kernel)
            assert "jump" in _ref_contexts(kernel.commands)

    @pytest.mark.parametrize("policy", DISCIPLINE_POLICIES,
                             ids=DISCIPLINE_IDS)
    @pytest.mark.parametrize("mode", REFRESH_MODES)
    def test_deadlines_inside_mixed_turnarounds(self, mode, policy):
        config = _refresh_config(mode, 10_000, 3_000)
        requests = _mixed_requests(config, n=24, group=3)
        general = SchedulingEngine(config, policy).run(MixedSource(requests))
        kernel = KernelEngine(config, policy).run(MixedSource(requests))
        _assert_identical(general, kernel)
        assert "turnaround" in _ref_contexts(kernel.commands)

    @pytest.mark.parametrize("mode", REFRESH_MODES)
    def test_deadlines_at_forced_commits(self, mode):
        """One bank, a new row per request, closed-page: no bank is
        ever ready when the loop commits, so every ACT is the forced
        single commit, and refresh deadlines land between them."""
        config = _refresh_config(mode, *REFRESH_TIMINGS["dense"])
        policy = ControllerConfig(record_commands=True,
                                  discipline=POLICY_CLOSED_PAGE)
        requests = [(0, k % 7, k % 5) for k in range(200)]
        for op in (OP_WRITE, OP_READ):
            general = SchedulingEngine(config, policy).run(
                as_workload(iter(requests)), op)
            kernel = KernelEngine(config, policy).run(
                as_workload(iter(requests)), op)
            _assert_identical(general, kernel)
            assert kernel.stats.activates == len(requests)
            assert kernel.stats.refreshes > len(requests)

    @pytest.mark.parametrize("base", ("DDR4-3200", "LPDDR4-4266"))
    def test_refresh_disabled(self, base):
        config = _refresh_config(get_config(base).refresh_mode,
                                 *REFRESH_TIMINGS["dense"], base=base)
        policy = ControllerConfig(record_commands=True, refresh_enabled=False)
        mapping = _mapping(config, "row-major", n=24)
        general, kernel = _run_engines(config, mapping, OP_READ, policy)
        _assert_identical(general, kernel)
        assert kernel.stats.refreshes == 0
        codes = set(kernel.commands.code.tolist())
        assert not codes & {CODE_REF_ALL, CODE_REF_BANK}

    @pytest.mark.parametrize("refresh_enabled", (True, False),
                             ids=("refresh-on", "refresh-off"))
    @pytest.mark.parametrize("mode", REFRESH_MODES)
    def test_warm_refresh_state_matches_general(self, mode, refresh_enabled):
        """Write, mixed and read phases on one warm scheduler: the
        refresh scheduler's next deadline and round-robin bank and
        every bank's state match after every phase."""
        config = _refresh_config(mode, 20_000, 5_000)
        policy = ControllerConfig(refresh_enabled=refresh_enabled)
        mapping = _mapping(config, "optimized", n=24)
        mixed = _mixed_requests(config, n=16, group=3)
        kernel = KernelEngine(config, policy)
        general = SchedulingEngine(config, policy)
        for phase in (OP_WRITE, "mixed", OP_READ, OP_WRITE):
            if phase == "mixed":
                results = [engine.run(MixedSource(mixed))
                           for engine in (general, kernel)]
            else:
                results = [engine.run(as_workload(_chunks(mapping, phase)),
                                      phase)
                           for engine in (general, kernel)]
            _assert_identical(*results)
            assert kernel._refresh.state() == general._refresh.state()
            assert _snapshots(kernel, config) == _snapshots(general, config)
            assert (results[1].stats.refreshes > 0) == refresh_enabled

    @pytest.mark.parametrize("tape_rows", (1, 5))
    @pytest.mark.parametrize("mode", REFRESH_MODES)
    def test_refresh_records_cross_tape_drains(self, monkeypatch,
                                               drained_blocks, mode,
                                               tape_rows):
        """The drained blocks concatenate to the general engine's tape,
        and no refresh event's PREs and REF split across two blocks.
        Under REFab an event needs up to n_banks + 1 rows, so drains
        also land right before events."""
        monkeypatch.setattr(kernel_module, "_TAPE_ROWS", tape_rows)
        config = _refresh_config(mode, *REFRESH_TIMINGS["dense"])
        mapping = _mapping(config, "row-major", n=24)
        general, kernel = _run_engines(config, mapping, OP_READ,
                                       RECORDING_POLICY)
        _assert_identical(general, kernel)
        assert len(drained_blocks) > 8
        ref_codes = (CODE_REF_ALL, CODE_REF_BANK)
        opens_with_refresh = 0
        for block in drained_blocks:
            codes = block[:, 1].tolist()
            ref_at = next((i for i, c in enumerate(codes) if c in ref_codes),
                          None)
            if ref_at is not None and set(codes[:ref_at]) <= {CODE_PRE}:
                opens_with_refresh += 1
            # A block never ends inside a refresh event: the rows after
            # its last CAS or ACT hold whole events (PREs, then a REF).
            tail = codes[max((i for i, c in enumerate(codes)
                              if c in (CODE_RD, CODE_WR, CODE_ACT)),
                             default=-1) + 1:]
            if tail and set(tail) != {CODE_PRE}:
                assert tail[-1] in ref_codes
        assert opens_with_refresh > 0 or mode == REFRESH_PER_BANK


@pytest.mark.usefixtures("native_kernel")
class TestOneCallPerPhase:
    """A phase costs one ``run_segment`` call plus one per tape drain."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        real = _kernelc.load()

        def counting(*args):
            reason = real(*args)
            log.append(reason)
            return reason

        monkeypatch.setattr(_kernelc, "load", lambda: counting)
        return log

    @pytest.mark.parametrize("mode", REFRESH_MODES)
    def test_quiet_phases_make_one_call(self, calls, mode):
        config = _refresh_config(mode, *REFRESH_TIMINGS["dense"])
        mapping = _mapping(config, "optimized", n=32)
        kernel = KernelEngine(config, ControllerConfig())
        for op in (OP_WRITE, OP_READ):
            del calls[:]
            result = kernel.run(as_workload(_chunks(mapping, op)), op)
            assert result.stats.refreshes > 100
            assert calls == [_kernelc.EXIT_DONE]
        del calls[:]
        kernel.run(MixedSource(_mixed_requests(config)))
        assert calls == [_kernelc.EXIT_DONE]

    def test_empty_phase_makes_one_call(self, calls, ddr4):
        result = KernelEngine(ddr4, ControllerConfig()).run(
            as_workload([]), OP_READ)
        assert result.stats.requests == 0
        assert calls == [_kernelc.EXIT_DONE]

    @pytest.mark.parametrize("tape_rows", (1, 64, 4096))
    @pytest.mark.parametrize("mode", REFRESH_MODES)
    def test_recording_adds_one_call_per_drain(self, calls, monkeypatch,
                                               drained_blocks, mode,
                                               tape_rows):
        monkeypatch.setattr(kernel_module, "_TAPE_ROWS", tape_rows)
        config = _refresh_config(mode, 20_000, 5_000)
        mapping = _mapping(config, "row-major", n=32)
        result = KernelEngine(config, RECORDING_POLICY).run(
            as_workload(_chunks(mapping, OP_READ)), OP_READ)
        assert result.stats.refreshes > 0
        # Every early return is a drain; the final drain follows the
        # last call.
        assert calls[-1] == _kernelc.EXIT_DONE
        assert calls[:-1] == [_kernelc.EXIT_RECORD_FULL] * (len(calls) - 1)
        assert len(calls) == len(drained_blocks)
        if tape_rows == 1:
            assert len(calls) > 10


@pytest.mark.usefixtures("native_kernel")
class TestNoHandOff:
    """Every discipline and mixed source runs in the compiled loop: the
    wrapped general engine's ``run`` is never called."""

    @pytest.fixture
    def kernel_for(self, monkeypatch):
        def build(config, policy):
            kernel = KernelEngine(config, policy)

            def refuse(*args, **kwargs):
                raise AssertionError("phase handed to the general engine")

            monkeypatch.setattr(kernel._general, "run", refuse)
            return kernel
        return build

    @pytest.mark.parametrize("policy", DISCIPLINE_POLICIES,
                             ids=DISCIPLINE_IDS)
    def test_every_discipline_runs_natively(self, ddr4, kernel_for, policy):
        mapping = _mapping(ddr4, "optimized", n=24)
        kernel = kernel_for(ddr4, policy)
        for op in (OP_WRITE, OP_READ):
            result = kernel.run(as_workload(_chunks(mapping, op)), op)
            assert result.stats.requests == mapping.space.num_elements
        result = kernel.run(MixedSource(_mixed_requests(ddr4)))
        assert result.turnarounds > 0

    def test_public_entry_points_run_natively(self, ddr4, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("phase run on the general engine")

        monkeypatch.setattr(SchedulingEngine, "run", refuse)
        mapping = _mapping(ddr4, "optimized", n=24)
        for policy in DISCIPLINE_POLICIES:
            steady_state_interleaver(ddr4, mapping, group=4, policy=policy)
            simulate_phase_result(ddr4, mapping, OP_READ, policy)


def _scalar_interleaved_stream(write_mapping, read_mapping, group=1):
    """The per-element interleaving generator the columns replaced."""
    if group < 1:
        raise ValueError(f"group must be >= 1, got {group}")
    writers = iter(write_mapping.write_addresses())
    readers = iter(read_mapping.read_addresses())
    live = True
    while live:
        live = False
        for _ in range(group):
            item = next(writers, None)
            if item is not None:
                live = True
                yield (False,) + item
        for _ in range(group):
            item = next(readers, None)
            if item is not None:
                live = True
                yield (True,) + item


class TestColumnarInterleave:
    """The columnar stream equals the scalar generator, element-wise."""

    @pytest.mark.parametrize("group", (1, 3, 16))
    @pytest.mark.parametrize("sizes", ((12, 12), (12, 7), (5, 12)),
                             ids=("equal", "reads-run-out", "writes-run-out"))
    def test_matches_scalar_generator(self, ddr4, group, sizes):
        write_mapping = _mapping(ddr4, "optimized", n=sizes[0])
        inner = _mapping(ddr4, "row-major", n=sizes[1])
        read_mapping = RowShiftedMapping(inner, write_mapping.rows_used())
        columnar = list(interleaved_stream(write_mapping, read_mapping, group))
        scalar = list(_scalar_interleaved_stream(write_mapping, read_mapping,
                                                 group))
        assert columnar == scalar
        assert [type(value) for value in columnar[0]] == [bool, int, int, int]

    def test_row_shifted_arrays_match_tuples(self, ddr4):
        inner = _mapping(ddr4, "optimized", n=20)
        shifted = RowShiftedMapping(inner, 37)
        assert shifted.vectorized == inner.vectorized
        i, j = map(np.asarray, zip(*inner.space.read_order()))
        banks, rows, cols = shifted.address_arrays(i, j)
        assert list(zip(banks.tolist(), rows.tolist(), cols.tolist())) == [
            shifted.address_tuple(int(a), int(b)) for a, b in zip(i, j)]
