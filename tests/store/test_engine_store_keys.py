"""The scheduler backend never enters the store key space.

The native kernel and the general engine are bit-identical by the
kernel's equivalence contract, and :func:`~repro.dram.kernel.make_scheduler`
picks between them per host.  A store written on a host with the
native object must therefore serve a host without it (and vice versa)
with zero engine invocations: a sweep interrupted on one resumes on the
other without recomputing.
"""

from dataclasses import replace

import pytest

from repro.dram import _kernelc
from repro.dram.controller import OP_READ, OP_WRITE
from repro.store.records import KIND_PHASE, derive_key, phase_task_config
from repro.store.store import ResultStore
from repro.system import parallel as parallel_module
from repro.system.parallel import PhaseTask
from repro.system.sweep import run_table1

N = 16


def test_distinct_cells_still_distinct():
    task = PhaseTask(config_name="DDR4-3200", mapping="optimized",
                     op=OP_READ, n=N)
    other = replace(task, op=OP_WRITE)
    assert (derive_key(KIND_PHASE, phase_task_config(task))
            != derive_key(KIND_PHASE, phase_task_config(other)))


class TestCrossBackendCacheHits:
    @pytest.fixture
    def phase_counter(self, monkeypatch):
        """Count entries into the phase worker."""
        counts = {"phase": 0}
        inner = parallel_module.execute_phase_task

        def counting(task):
            counts["phase"] += 1
            return inner(task)

        monkeypatch.setattr(parallel_module, "execute_phase_task", counting)
        return counts

    def _sweep(self, store):
        return run_table1(n=N, config_names=("DDR4-3200",), jobs=1,
                          store=store)

    def test_general_sweep_hits_native_warmed_store(
            self, tmp_path, phase_counter, native_kernel, monkeypatch):
        store = ResultStore(str(tmp_path))
        cold = self._sweep(store)
        cold_entries = phase_counter["phase"]
        assert cold_entries > 0
        monkeypatch.setattr(_kernelc, "available", lambda: False)
        warm = self._sweep(store)
        # zero engine invocations: every general-engine cell is a hit
        assert phase_counter["phase"] == cold_entries
        assert warm == cold

    def test_native_sweep_hits_general_warmed_store(
            self, tmp_path, phase_counter, native_kernel, monkeypatch):
        store = ResultStore(str(tmp_path))
        with monkeypatch.context() as forced:
            forced.setattr(_kernelc, "available", lambda: False)
            cold = self._sweep(store)
        cold_entries = phase_counter["phase"]
        assert cold_entries > 0
        warm = self._sweep(store)
        assert phase_counter["phase"] == cold_entries
        assert warm == cold
