"""Parallel sweep engine: task execution, fan-out, serial equivalence."""

from functools import partial

import pytest

from repro.dram.controller import OP_READ, OP_WRITE, ControllerConfig
from repro.dram.presets import get_config
from repro.dram.simulator import simulate_phase
from repro.interleaver.triangular import TriangularIndexSpace
from repro.mapping.optimized import OptimizedMapping
from repro.store.store import ResultStore
from repro.system import parallel as parallel_module
from repro.system.parallel import (
    PhaseTask,
    execute_phase_task,
    resolve_jobs,
    run_phase_tasks,
)


class TestPhaseTask:
    def test_rejects_bad_op(self):
        with pytest.raises(ValueError):
            PhaseTask(config_name="DDR3-800", mapping="optimized", op="RMW", n=32)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            PhaseTask(config_name="DDR3-800", mapping="optimized", op=OP_READ, n=0)

    def test_is_picklable(self):
        import pickle

        task = PhaseTask(config_name="DDR3-800", mapping="optimized", op=OP_READ,
                         n=32, policy=ControllerConfig(refresh_enabled=False))
        assert pickle.loads(pickle.dumps(task)) == task


class TestExecute:
    def test_matches_direct_simulation(self):
        config = get_config("DDR4-3200")
        space = TriangularIndexSpace(48)
        mapping = OptimizedMapping(space, config.geometry, prefer_tall=False)
        direct = simulate_phase(config, mapping, OP_READ)
        task = PhaseTask(config_name="DDR4-3200", mapping="optimized",
                         op=OP_READ, n=48)
        assert execute_phase_task(task) == direct

    def test_honors_policy(self):
        task = PhaseTask(config_name="DDR3-800", mapping="row-major", op=OP_WRITE,
                         n=32, policy=ControllerConfig(refresh_enabled=False))
        assert execute_phase_task(task).refreshes == 0

    def test_unknown_mapping(self):
        task = PhaseTask(config_name="DDR3-800", mapping="no-such-mapping",
                         op=OP_READ, n=32)
        with pytest.raises(KeyError, match="no-such-mapping"):
            execute_phase_task(task)

    def test_unknown_config(self):
        task = PhaseTask(config_name="DDR9-9999", mapping="optimized",
                         op=OP_READ, n=32)
        with pytest.raises(KeyError):
            execute_phase_task(task)

    def test_ablation_variants_dispatchable(self):
        task = PhaseTask(config_name="DDR4-3200", mapping="no-tiling",
                         op=OP_READ, n=32)
        stats = execute_phase_task(task)
        assert stats.requests == 32 * 33 // 2


class TestResolveJobs:
    def test_none_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_explicit(self):
        assert resolve_jobs(3) == 3


class TestRunPhaseTasks:
    TASKS = [
        PhaseTask(config_name=name, mapping=mapping, op=op, n=40)
        for name in ("DDR3-800", "DDR4-3200")
        for mapping in ("row-major", "optimized")
        for op in (OP_WRITE, OP_READ)
    ]

    def test_serial_results_in_order(self):
        results = run_phase_tasks(self.TASKS, jobs=1)
        assert len(results) == len(self.TASKS)
        assert all(r.requests == 40 * 41 // 2 for r in results)

    def test_parallel_matches_serial(self):
        serial = run_phase_tasks(self.TASKS, jobs=1)
        parallel = run_phase_tasks(self.TASKS, jobs=2)
        assert parallel == serial

    def test_empty_task_list(self):
        assert run_phase_tasks([], jobs=4) == []

    def test_single_task_stays_serial(self):
        results = run_phase_tasks(self.TASKS[:1], jobs=8)
        assert len(results) == 1


def _logged_task(log, fail_op, task):
    """Log one line per execution; the task whose op is ``fail_op`` raises.

    An :class:`OSError` on purpose: before failures inside a task were
    told apart from a pool that cannot spawn, this one was answered by
    re-running the grid in-process.
    """
    with open(log, "a") as stream:
        stream.write(f"{task.config_name}/{task.mapping}/{task.op}\n")
    if task.op == fail_op:
        raise OSError(f"task {task.mapping}/{task.op} failed")
    return execute_phase_task(task)


class _UnspawnablePool:
    """A process pool whose workers cannot start (a sandbox, say)."""

    def __init__(self, max_workers):
        pass

    def submit(self, fn, *args):
        raise PermissionError("fork not permitted")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestPoolFailures:
    @pytest.mark.parametrize("stored", (False, True),
                             ids=("storeless", "stored"))
    def test_task_error_raised_once_not_rerun(self, tmp_path, monkeypatch,
                                              stored):
        log = tmp_path / "runs.log"
        tasks = [PhaseTask(config_name="DDR3-800", mapping="row-major",
                           op=op, n=24) for op in (OP_WRITE, OP_WRITE, OP_READ)]
        monkeypatch.setattr(parallel_module, "execute_phase_task",
                            partial(_logged_task, str(log), OP_READ))
        store = ResultStore(str(tmp_path / "store")) if stored else None
        with pytest.raises(OSError, match="failed"):
            run_phase_tasks(tasks, jobs=2, store=store)
        runs = log.read_text().splitlines()
        assert len(runs) == len(tasks)  # every task ran exactly once
        assert runs.count(f"DDR3-800/row-major/{OP_READ}") == 1

    def test_unspawnable_pool_runs_serially(self, tmp_path, monkeypatch):
        log = tmp_path / "runs.log"
        tasks = [PhaseTask(config_name="DDR3-800", mapping=mapping, op=OP_READ,
                           n=24) for mapping in ("row-major", "optimized")]
        expected = run_phase_tasks(tasks, jobs=1)
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            _UnspawnablePool)
        monkeypatch.setattr(parallel_module, "execute_phase_task",
                            partial(_logged_task, str(log), None))
        assert run_phase_tasks(tasks, jobs=2) == expected
        assert len(log.read_text().splitlines()) == len(tasks)
