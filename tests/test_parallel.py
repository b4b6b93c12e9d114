"""Tests for the process-pool series executor (repro.parallel)."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.config import Scenario
from repro.errors import ConfigurationError, ParallelError
from repro.obs import RunJournal, canonical_events
from repro.parallel import resolve_jobs, run_series_jobs
from repro.perf import PerfRegistry
from repro.workload.apps import NEP_PROFILES
from repro.workload.series import NEP_RECIPE, SeriesJob

SCENARIO = Scenario.smoke_scale()


def _jobs(count: int) -> list[SeriesJob]:
    return [SeriesJob(app_id=f"app-{i:03d}",
                      profile=NEP_PROFILES[i % len(NEP_PROFILES)],
                      vm_count=2 + i % 3)
            for i in range(count)]


class TestResolveJobs:
    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        import os
        expected = os.cpu_count() or 1
        assert resolve_jobs(0) == expected
        assert resolve_jobs(None) == expected

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)


class TestRunSeriesJobs:
    def test_blocks_arrive_in_submission_order(self):
        jobs = _jobs(6)
        blocks = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE, n_jobs=3))
        assert [b.app_id for b in blocks] == [j.app_id for j in jobs]

    def test_parallel_rows_match_serial(self):
        jobs = _jobs(5)
        serial = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE, n_jobs=1))
        parallel = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE, n_jobs=4))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.mean_bws, b.mean_bws)
            assert np.array_equal(a.cpu_rows, b.cpu_rows)
            assert np.array_equal(a.bw_rows, b.bw_rows)
            if a.private_rows is not None:
                assert np.array_equal(a.private_rows, b.private_rows)

    def test_worker_perf_merged_into_parent(self):
        jobs = _jobs(4)
        perf = PerfRegistry()
        blocks = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE, n_jobs=2,
                                      perf=perf))
        assert all(block.perf is None for block in blocks)
        assert perf.counters["series_vms"] == sum(j.vm_count for j in jobs)
        assert perf.spans["series_render"].calls == len(jobs)

    def test_single_job_stays_inline(self):
        jobs = _jobs(1)
        perf = PerfRegistry()
        blocks = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE, n_jobs=8,
                                      perf=perf))
        assert len(blocks) == 1
        assert perf.spans["series_render"].calls == 1


def _block_rows(blocks):
    return [(b.app_id, b.cpu_rows.tobytes(), b.bw_rows.tobytes(),
             None if b.private_rows is None else b.private_rows.tobytes())
            for b in blocks]


class TestShmHandoff:
    """Inline and pooled execution differ in speed, never in bytes.

    The class keeps the name it had when pooled rows travelled through
    a shared-memory ring, so these two tests keep their ids; the pipe
    transport that replaced the ring is covered by :class:`TestTransport`.
    """

    def test_canonical_journal_invariant_across_transports(self):
        def run(**kwargs):
            journal = RunJournal(None)
            perf = PerfRegistry(journal=journal)
            list(run_series_jobs(_jobs(4), SCENARIO, NEP_RECIPE,
                                 perf=perf, **kwargs))
            return canonical_events(journal.events)

        assert run(n_jobs=1) == run(n_jobs=2)

    def test_serial_fallback_warns_when_fork_unavailable(self, monkeypatch):
        monkeypatch.setattr("repro.parallel._pool_context", lambda: None)
        jobs = _jobs(3)
        journal = RunJournal(None)
        perf = PerfRegistry(journal=journal)
        blocks = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE,
                                      n_jobs=2, perf=perf))
        serial = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE, n_jobs=1))
        assert _block_rows(blocks) == _block_rows(serial)
        warning = next(e for e in journal.events if e["type"] == "warning")
        assert "fork" in warning["message"]
        # The fallback still renders in-process: same job_complete trail.
        assert sum(1 for e in journal.events
                   if e["type"] == "job_complete") == len(jobs)


class TestTransport:
    """Pooled rows arrive intact; failures surface once, at any --jobs."""

    def test_rows_are_writable_arrays_of_their_own(self):
        blocks = list(run_series_jobs(_jobs(3), SCENARIO, NEP_RECIPE,
                                      n_jobs=2))
        for block in blocks:
            for rows in (block.cpu_rows, block.bw_rows, block.private_rows):
                assert rows.dtype == np.float32 and rows.flags.writeable
                assert rows.flags.c_contiguous

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_non_transient_error_fails_on_first_attempt(self, monkeypatch,
                                                        n_jobs):
        def broken(*_args, **_kwargs):
            raise ValueError("render bug")

        monkeypatch.setattr("repro.parallel.render_series_job", broken)
        journal = RunJournal(None)
        perf = PerfRegistry(journal=journal)
        with pytest.raises(ValueError, match="render bug"):
            list(run_series_jobs(_jobs(4), SCENARIO, NEP_RECIPE,
                                 n_jobs=n_jobs, perf=perf))
        assert not [e for e in journal.events if e["type"] == "job_retry"]

    def test_unpicklable_worker_error_becomes_parallel_error(self,
                                                             monkeypatch):
        def broken(*_args, **_kwargs):
            raise _TwoArgError("render", "bug")

        monkeypatch.setattr("repro.parallel.render_series_job", broken)
        with pytest.raises(ParallelError, match="_TwoArgError"):
            list(run_series_jobs(_jobs(4), SCENARIO, NEP_RECIPE, n_jobs=2))

    def test_zip_consumed_pool_leaves_no_children(self):
        """The generators zip() over the block iterator and never resume
        it after the last block, so the workers must already be gone
        while the caller still holds the iterator."""
        import multiprocessing

        jobs = _jobs(4)
        blocks = run_series_jobs(jobs, SCENARIO, NEP_RECIPE, n_jobs=2)
        pairs = list(zip(jobs, blocks))
        assert len(pairs) == len(jobs)
        assert multiprocessing.active_children() == []


class _TwoArgError(Exception):
    """An exception whose pickle cannot be loaded back (two-arg init)."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def _square(x):
    return x * x


def _explode(x):
    raise ValueError(f"bad cell {x}")


def _nested_series(n_jobs):
    blocks = run_series_jobs(_jobs(4), SCENARIO, NEP_RECIPE, n_jobs=n_jobs)
    return _block_rows(blocks)


#: Weak references to the results a worker returned (worker-side list).
_REPLIES: list = []


class _Reply:
    """A task result the worker can hold a weak reference to."""


def _remember_reply(_):
    reply = _Reply()
    _REPLIES.append(weakref.ref(reply))
    return reply


def _replies_alive(_):
    return sum(ref() is not None for ref in _REPLIES)


def _die_silently(_):
    import os
    import signal
    os.kill(os.getpid(), signal.SIGKILL)


class TestTaskFarm:
    def test_serial_runs_inline_in_fifo_order(self):
        from repro.parallel import TaskFarm
        with TaskFarm(1) as farm:
            for i in range(3):
                farm.submit(f"t{i}", _square, i)
            seen = []
            while farm.outstanding:
                outcome = farm.next_outcome()
                assert outcome.ok
                seen.append((outcome.task_id, outcome.value))
        assert seen == [("t0", 0), ("t1", 1), ("t2", 4)]

    def test_serial_relays_errors_as_outcomes(self):
        from repro.parallel import TaskFarm
        with TaskFarm(1) as farm:
            farm.submit("boom", _explode, 7)
            outcome = farm.next_outcome()
        assert not outcome.ok
        assert outcome.error == "ValueError: bad cell 7"

    def test_pooled_collects_every_outcome(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            for i in range(5):
                farm.submit(f"t{i}", _square, i)
            values = {}
            while farm.outstanding:
                outcome = farm.next_outcome()
                assert outcome.ok
                values[outcome.task_id] = outcome.value
        assert values == {f"t{i}": i * i for i in range(5)}

    def test_pooled_relays_worker_exceptions(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            farm.submit("ok", _square, 3)
            farm.submit("boom", _explode, 9)
            results = {}
            while farm.outstanding:
                outcome = farm.next_outcome()
                results[outcome.task_id] = outcome
        assert results["ok"].ok and results["ok"].value == 9
        assert not results["boom"].ok
        assert "ValueError: bad cell 9" in results["boom"].error

    def test_silently_dead_worker_reported_failed(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            farm.submit("doomed", _die_silently, None)
            outcome = farm.next_outcome()
        assert not outcome.ok
        assert "worker died without reporting" in outcome.error

    def test_duplicate_outstanding_id_rejected(self):
        from repro.parallel import TaskFarm
        with TaskFarm(1) as farm:
            farm.submit("a", _square, 1)
            with pytest.raises(ConfigurationError, match="already"):
                farm.submit("a", _square, 2)

    def test_next_outcome_without_tasks_rejected(self):
        from repro.parallel import TaskFarm
        with TaskFarm(1) as farm:
            with pytest.raises(ConfigurationError, match="outstanding"):
                farm.next_outcome()

    def test_queue_beyond_worker_count_drains(self):
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            for i in range(6):
                farm.submit(f"t{i}", _square, i)
            done = sum(1 for _ in iter(
                lambda: farm.next_outcome() if farm.outstanding else None,
                None))
        assert done == 6

    def test_nested_series_pool_in_a_farm_task(self):
        """A farm worker is not daemonic, so its task may fork a pool."""
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            farm.submit("nested", _nested_series, 2)
            farm.submit("plain", _square, 5)
            outcomes = {}
            while farm.outstanding:
                outcome = farm.next_outcome()
                outcomes[outcome.task_id] = outcome
        assert outcomes["nested"].ok, outcomes["nested"].error
        assert outcomes["nested"].value == _nested_series(1)
        assert outcomes["plain"].value == 25

    def test_in_order_yields_in_submission_order(self):
        from repro.parallel import TaskFarm
        import multiprocessing

        tasks = [(f"t{i}", _square, i) for i in range(7)]
        farm = TaskFarm(2)
        assert list(farm.in_order(tasks)) == [i * i for i in range(7)]
        assert multiprocessing.active_children() == []

    def test_in_order_names_the_failed_task(self):
        from repro.parallel import TaskFarm
        farm = TaskFarm(2)
        with pytest.raises(ParallelError, match="t1 failed.*bad cell 1"):
            list(farm.in_order([("t0", _square, 0), ("t1", _explode, 1)]))
        farm.close()

    def test_worker_frees_a_result_once_sent(self):
        # One task at a time: both run on the same (first) worker, and
        # the second looks at what the first one returned.
        from repro.parallel import TaskFarm
        with TaskFarm(2) as farm:
            farm.submit("make", _remember_reply, None)
            assert farm.next_outcome().ok
            farm.submit("probe", _replies_alive, None)
            outcome = farm.next_outcome()
        assert outcome.ok, outcome.error
        assert outcome.value == 0


class TestInOrder:
    def test_keeps_no_yielded_result(self):
        # Results 1 and 2 arrive before 0; once the consumer drops a
        # yielded result, nothing in the generator may keep it alive.
        from repro.parallel import _in_order

        results = {i: _Reply() for i in range(4)}
        refs = {i: weakref.ref(r) for i, r in results.items()}
        arrivals = iter([1, 2, 0, 3])

        def collect():
            key = next(arrivals)
            return key, results.pop(key)

        ordered = _in_order(4, 4, lambda index: None, collect, lambda: None)
        for index in range(4):
            assert isinstance(next(ordered), _Reply)
            assert refs[index]() is None
