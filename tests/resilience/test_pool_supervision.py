"""Supervised-pool behaviour under injected chaos (repro.parallel).

The contract pinned here: recovery changes *when* work happens, never
*what* it produces.  Every retried/restarted run must yield bit-identical
results and a canonical journal equal to a clean run's, with the
recovery story told only through volatile events.

Both public fronts share one pool, so each supervision test runs the
same scenario through both: the ordered series front
(:func:`run_series_jobs`, chaos site ``series.render``) and the task
front (:class:`TaskFarm`, chaos site ``qoe.chunk``).  Watchdog limits
come from the environment (:meth:`SupervisionConfig.from_env`), which
both fronts read.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

import repro.parallel as parallel
from repro.config import Scenario
from repro.errors import InjectedFault, QuarantineError
from repro.obs import RunJournal, canonical_events
from repro.parallel import TaskFarm, run_series_jobs
from repro.perf import PerfRegistry
from repro.resilience import (
    RetryPolicy,
    SupervisionConfig,
    failpoint,
    install,
    reset,
)
from repro.workload.apps import NEP_PROFILES
from repro.workload.series import NEP_RECIPE, SeriesJob

SCENARIO = Scenario.smoke_scale()

#: A patient watchdog with fast, bounded retries for chaos tests.
FAST_RETRY = SupervisionConfig(
    job_timeout_s=60.0, heartbeat_timeout_s=60.0,
    retry=RetryPolicy(max_attempts=3, backoff_s=0.01))


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    for name in ("REPRO_JOB_TIMEOUT_S", "REPRO_HEARTBEAT_TIMEOUT_S",
                 "REPRO_JOB_ATTEMPTS"):
        monkeypatch.delenv(name, raising=False)
    reset()
    yield
    reset()


def _jobs(count: int) -> list[SeriesJob]:
    return [SeriesJob(app_id=f"app-{i:03d}",
                      profile=NEP_PROFILES[i % len(NEP_PROFILES)],
                      vm_count=2 + i % 3)
            for i in range(count)]


def _rows(blocks):
    return [(b.app_id, b.cpu_rows.tobytes(), b.bw_rows.tobytes())
            for b in blocks]


def _run(jobs, n_jobs, supervision=FAST_RETRY):
    """One journaled series run; returns (rows, journal, perf)."""
    journal = RunJournal(None)
    perf = PerfRegistry(journal=journal)
    blocks = list(run_series_jobs(jobs, SCENARIO, NEP_RECIPE, n_jobs=n_jobs,
                                  perf=perf, supervision=supervision))
    return _rows(blocks), journal, perf


def _before_task(label: str) -> None:
    """Runs first in every task of both fronts; tests patch it to hang,
    freeze or crash one attempt (forked workers inherit the patch)."""


_REAL_RENDER = parallel.render_series_job


def _hooked_render(job, *args, **kwargs):
    _before_task(job.app_id)
    return _REAL_RENDER(job, *args, **kwargs)


def _farm_task(label: str) -> np.ndarray:
    """A task-front unit: the chaos hook, a chaos site, a pure result."""
    _before_task(label)
    failpoint("qoe.chunk", label)
    return np.frombuffer(label.encode(), dtype=np.uint8).astype(np.float32)


class _FarmFailed(Exception):
    """A failed :class:`TaskOutcome`, raised so both fronts fail alike."""


class SeriesFront:
    """The ordered front: series blocks through :func:`run_series_jobs`."""

    name = "series"
    site = "series.render"
    failure = QuarantineError

    def __init__(self, count: int = 4) -> None:
        self.jobs = _jobs(count)
        self.labels = [job.app_id for job in self.jobs]

    def hook(self, monkeypatch) -> None:
        monkeypatch.setattr(parallel, "render_series_job", _hooked_render)

    def run(self, n_jobs):
        """(rows, journal, perf) under the environment's supervision."""
        return _run(self.jobs, n_jobs, supervision=None)


class FarmFront:
    """The completion-order front: tasks through :class:`TaskFarm`."""

    name = "farm"
    site = "qoe.chunk"
    failure = _FarmFailed

    def __init__(self, count: int = 4) -> None:
        self.labels = [f"t{i}" for i in range(count)]

    def hook(self, monkeypatch) -> None:
        """Nothing to patch: :func:`_farm_task` calls the hook itself."""

    def run(self, n_jobs):
        """(values by task, journal, None); the first failure raises."""
        journal = RunJournal(None)
        values = {}
        with TaskFarm(n_jobs, journal=journal) as farm:
            for label in self.labels:
                farm.submit(label, _farm_task, label)
            while farm.outstanding:
                outcome = farm.next_outcome()
                if not outcome.ok:
                    raise _FarmFailed(outcome.error)
                values[outcome.task_id] = outcome.value.tobytes()
        return sorted(values.items()), journal, None


FRONTS = (SeriesFront, FarmFront)


def _events(journal, etype: str) -> list[dict]:
    return [e for e in journal.events if e["type"] == etype]


class TestInjectedRenderFaults:
    def test_serial_retry_is_bit_identical_to_clean(self):
        for front in (cls() for cls in FRONTS):
            clean, clean_journal, _ = front.run(1)
            install(f"{front.site}:nth=1")
            chaotic, chaos_journal, perf = front.run(1)
            reset()
            assert chaotic == clean, front.name
            retries = _events(chaos_journal, "job_retry")
            assert len(retries) == 1, front.name
            field = "app_id" if front.name == "series" else "task"
            assert retries[0][field] == front.labels[0]
            assert "InjectedFault" in retries[0]["error"]
            if perf is not None:
                # Only the accepted render counts: telemetry stays
                # deterministic.
                assert perf.spans["series_render"].calls == len(front.jobs)
            assert canonical_events(chaos_journal.events) \
                == canonical_events(clean_journal.events)

    def test_pooled_retry_is_bit_identical_to_clean(self):
        for front in (cls(6) for cls in FRONTS):
            clean, clean_journal, _ = front.run(2)
            # Each forked worker inherits hit=0, so each fires at most
            # once: between 1 and 2 retries, all absorbed by the budget.
            install(f"{front.site}:nth=1")
            chaotic, chaos_journal, perf = front.run(2)
            reset()
            assert chaotic == clean, front.name
            assert 1 <= len(_events(chaos_journal, "job_retry")) <= 2
            if perf is not None:
                assert perf.spans["series_render"].calls == len(front.jobs)
            assert canonical_events(chaos_journal.events) \
                == canonical_events(clean_journal.events)

    def test_serial_quarantine_after_budget(self):
        for front in (cls(3) for cls in FRONTS):
            install(f"{front.site}:nth=1,times=99")  # every attempt fails
            with pytest.raises(front.failure,
                               match=f"{front.labels[0]}.*3 attempts"):
                front.run(1)
            reset()

    def test_pooled_quarantine_after_budget(self):
        for front in (cls(3) for cls in FRONTS):
            install(f"{front.site}:nth=1,times=99")
            with pytest.raises(front.failure,
                               match="failed after 3 attempts"):
                front.run(2)
            reset()

    def test_quarantine_event_precedes_the_raise(self):
        for front in (cls(2) for cls in FRONTS):
            install(f"{front.site}:nth=1,times=99")
            journal = RunJournal(None)
            with pytest.raises(front.failure):
                if front.name == "series":
                    perf = PerfRegistry(journal=journal)
                    list(run_series_jobs(front.jobs, SCENARIO, NEP_RECIPE,
                                         n_jobs=1, perf=perf,
                                         supervision=FAST_RETRY))
                else:
                    with TaskFarm(1, journal=journal) as farm:
                        farm.submit("t0", _farm_task, "t0")
                        outcome = farm.next_outcome()
                    raise _FarmFailed(outcome.error)
            reset()
            quarantined = _events(journal, "job_quarantined")
            assert len(quarantined) == 1, front.name
            assert quarantined[0]["attempts"] == 3


class TestWorkerDeath:
    def test_killed_worker_restarts_and_output_is_identical(self):
        for front in (cls(6) for cls in FRONTS):
            clean, clean_journal, _ = front.run(2)
            install("pool.kill_worker:nth=2,times=1")
            chaotic, chaos_journal, _ = front.run(2)
            reset()
            assert chaotic == clean, front.name
            restarts = _events(chaos_journal, "worker_restart")
            assert len(restarts) == 1, front.name
            assert "-9" in restarts[0]["reason"]  # SIGKILL exit code
            assert canonical_events(chaos_journal.events) \
                == canonical_events(clean_journal.events)


class TestWatchdog:
    def test_hung_job_killed_and_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "0.75")
        for front in (cls() for cls in FRONTS):
            clean, _, _ = front.run(2)
            flag = tmp_path / f"hung-once-{front.name}"
            first = front.labels[0]

            def hang_once(label, flag=flag, first=first):
                # Hangs the first attempt of the first task only: the
                # flag file is shared across forked workers, so the
                # retry (and every other task) runs normally.
                if label == first and not flag.exists():
                    flag.write_text("hung")
                    time.sleep(60)

            monkeypatch.setattr(f"{__name__}._before_task", hang_once)
            front.hook(monkeypatch)
            chaotic, journal, _ = front.run(2)
            assert chaotic == clean, front.name
            restarts = _events(journal, "worker_restart")
            assert [e["reason"] for e in restarts] == ["job timeout"]
            field = "app_id" if front.name == "series" else "task"
            assert restarts[0][field] == first

    def test_wedged_worker_detected_by_stale_heartbeat(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT_S", "1.0")
        for front in (cls() for cls in FRONTS):
            clean, _, _ = front.run(2)
            flag = tmp_path / f"wedged-once-{front.name}"
            first = front.labels[0]

            def freeze_once(label, flag=flag, first=first):
                if label == first and not flag.exists():
                    flag.write_text("frozen")
                    # SIGSTOP freezes the whole process, heartbeat
                    # thread included -- the job-timeout path cannot see
                    # it wedge, only heartbeat staleness can.
                    os.kill(os.getpid(), signal.SIGSTOP)

            monkeypatch.setattr(f"{__name__}._before_task", freeze_once)
            front.hook(monkeypatch)
            chaotic, journal, _ = front.run(2)
            assert chaotic == clean, front.name
            restarts = _events(journal, "worker_restart")
            assert restarts and restarts[0]["reason"] == "heartbeat stale"


def _flaky_once(flag_path: str) -> str:
    """Fails with an injected fault until its flag file exists.

    The flag lives on disk, so the retry (on any worker in pooled mode)
    sees the first attempt happened and succeeds.
    """
    from pathlib import Path

    flag = Path(flag_path)
    if not flag.exists():
        flag.write_text("tried")
        raise InjectedFault("first attempt fails")
    return "recovered"


def _farm_square(value: int) -> int:
    return value * value


class TestTaskFarmRetry:
    def test_serial_injected_fault_retried(self, tmp_path):
        journal = RunJournal(None)
        with TaskFarm(1, journal=journal) as farm:
            farm.submit("flaky", _flaky_once, str(tmp_path / "flag"))
            outcome = farm.next_outcome()
        assert outcome.ok and outcome.value == "recovered"
        retries = _events(journal, "job_retry")
        assert len(retries) == 1 and retries[0]["task"] == "flaky"

    def test_pooled_injected_fault_retried(self, tmp_path):
        journal = RunJournal(None)
        with TaskFarm(2, journal=journal) as farm:
            farm.submit("flaky", _flaky_once, str(tmp_path / "flag"))
            farm.submit("plain", _farm_square, 4)
            outcomes = {}
            while farm.outstanding:
                outcome = farm.next_outcome()
                outcomes[outcome.task_id] = outcome
        assert outcomes["flaky"].ok
        assert outcomes["flaky"].value == "recovered"
        assert outcomes["plain"].value == 16
        assert any(e["type"] == "job_retry" for e in journal.events)

    def test_injected_worker_kill_retried_as_restart(self):
        install("pool.kill_worker:nth=1,times=1")
        journal = RunJournal(None)
        with TaskFarm(2, journal=journal) as farm:
            farm.submit("victim", _farm_square, 3)
            outcome = farm.next_outcome()
        assert outcome.ok and outcome.value == 9
        restarts = _events(journal, "worker_restart")
        assert len(restarts) == 1
        assert restarts[0]["task"] == "victim"

    def test_genuine_exception_not_retried(self):
        for n_jobs in (1, 2):
            journal = RunJournal(None)
            with TaskFarm(n_jobs, journal=journal) as farm:
                farm.submit("boom", _raise_value_error, 1)
                outcome = farm.next_outcome()
            assert not outcome.ok
            assert outcome.error == "ValueError: genuine bug 1"
            assert not _events(journal, "job_retry")


def _raise_value_error(value: int) -> None:
    raise ValueError(f"genuine bug {value}")
