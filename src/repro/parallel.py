"""One supervised worker pool behind two fronts: series blocks and tasks.

At paper scale (20k VMs, 92 days at 1-minute resolution) the study
spends most of its wall time rendering CPU/bandwidth series.  Placement
is sequential, but every app's series block draws from its own named
substream (:mod:`repro.workload.series`), so the blocks are mutually
independent, as are sweep cells and QoE session chunks.  All three run
on one private executor, :class:`_Pool`, through two thin fronts:

* :func:`run_series_jobs` yields rendered blocks **in submission
  order** through a bounded window, so the parent inserts results
  deterministically regardless of worker count or completion order;
* :class:`TaskFarm` delivers outcomes in **completion order** (a sweep
  scheduler unlocks dependent cells the moment a leader finishes), and
  :meth:`TaskFarm.in_order` gives the QoE fold the same ordered
  delivery as the series front.

Pool
----

Workers are persistent, non-daemonic forked processes, so a task may
start its own pool (a sweep cell renders its workload in parallel).  A
task is a ``(fn, arg)`` pair sent to an idle worker; a series task ships
the seed, recipe, time knobs and one :class:`SeriesJob`, and the worker
memoises the time axes and season curves.  Worker-side spans go into a
private :class:`~repro.perf.PerfRegistry` that the parent merges
(merged ``cpu_s`` sums across processes and may exceed wall time).

``n_jobs == 1``, a single task, or a platform without the ``fork``
start method (journal warning) runs tasks inline through the *same*
scheduler and the same task functions, which is what makes serial and
parallel output bit-identical by construction.  A pool that fails to
*start* raises :class:`~repro.errors.ParallelError`.

Transport
---------

Each worker owns a task pipe and a result pipe.  A message is pickled
with protocol 5, numpy buffers out of band: a small frame carries the
pickle and the buffer sizes, and the reader ``os.readv``\\ s the raw
buffers that follow straight into ``np.empty`` arrays, the final rows.
The parent waits on every result pipe and process sentinel at once
(:func:`multiprocessing.connection.wait`): a death is seen at once, and
no shared pipe exists for a killed worker to tear.

Supervision
-----------

One watchdog, one retry scheduler and one transient-error rule
(:data:`~repro.resilience.DEFAULT_TRANSIENT`) serve both fronts.  Every
worker's heartbeat thread stamps a shared clock slot; the watchdog
detects workers that exited (OOM kill, SIGKILL, crash), jobs past the
per-job timeout, and wedged workers whose heartbeat went stale.  It
kills the worker, forks a fresh one on the next dispatch, and retries
the job with seeded exponential backoff.  A transient error (an
:class:`~repro.errors.InjectedFault`, an ``OSError``) is retried the
same way; any other exception fails its task on the first attempt.  A
backoff is a ready time the wait loop honours, never a sleep while a
worker could report.  A task past its attempt budget is quarantined
(:class:`~repro.errors.QuarantineError`).  Every task is a pure function
of its argument, so supervision changes timings, never results, and the
volatile retry/restart events (:data:`repro.obs.VOLATILE_EVENT_TYPES`)
let chaos runs canonicalise bit-identical to clean runs.  The
``pool.kill_worker`` chaos site SIGKILLs the worker just handed a task.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import util
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import Scenario
from .errors import ConfigurationError, ParallelError, QuarantineError
from .perf import PerfRegistry
from .resilience import DEFAULT_TRANSIENT, SupervisionConfig, fire
from .workload.patterns import time_axis_minutes
from .workload.series import (
    SeasonCache,
    SeriesBlock,
    SeriesJob,
    SeriesRecipe,
    job_rng,
    render_series_job,
)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPU cores.

    Raises:
        ConfigurationError: on negative values.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(
            f"jobs must be >= 0 (0 = all CPU cores), got {jobs}")
    return int(jobs)


def _pool_context() -> multiprocessing.context.BaseContext | None:
    """The fork context, or ``None`` where fork is unavailable.

    The pool requires fork: workers inherit their pipes and the
    heartbeat array without pickling, and start cheaply without
    re-importing the package.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


# ---- transport -------------------------------------------------------------


def _send(conn, message: object) -> None:
    """Write one message: a pickle frame, then its raw out-of-band buffers.

    Pickling happens before anything is written, so an unpicklable
    message raises without leaving a partial frame in the pipe.
    """
    buffers: list = []
    payload = pickle.dumps(message, protocol=5,
                           buffer_callback=buffers.append)
    raws = [buffer.raw() for buffer in buffers]
    sizes = struct.pack(f"<{len(raws) + 1}Q", len(raws),
                        *(raw.nbytes for raw in raws))
    conn.send_bytes(sizes + payload)
    fd = conn.fileno()
    for raw in raws:
        while raw.nbytes:
            raw = raw[os.write(fd, raw):]


def _recv(conn, stall_s: float | None = None) -> object:
    """Read one :func:`_send` message, buffers straight into new arrays.

    ``stall_s`` bounds the wait for each piece of a buffer, so a writer
    frozen mid-message surfaces as :class:`EOFError` instead of hanging
    the reader.

    Raises:
        EOFError: when the writer closed or died mid-message, or stalled.
    """
    frame = conn.recv_bytes()
    (count,) = struct.unpack_from("<Q", frame)
    sizes = struct.unpack_from(f"<{count}Q", frame, 8)
    fd = conn.fileno()
    buffers = []
    for size in sizes:
        buffer = np.empty(size, dtype=np.uint8)
        view = memoryview(buffer)
        while view.nbytes:
            if stall_s is not None \
                    and not select.select([fd], [], [], stall_s)[0]:
                raise EOFError("writer stalled mid-message")
            read = os.readv(fd, [view])
            if not read:
                raise EOFError("writer closed mid-message")
            view = view[read:]
        buffers.append(buffer)
    return pickle.loads(memoryview(frame)[8 * (count + 1):],
                        buffers=buffers)


# ---- workers ---------------------------------------------------------------


#: Worker heartbeat stamp interval and the parent's longest wait between
#: watchdog passes (seconds).
_HEARTBEAT_STAMP_S = 0.2
_POLL_S = 0.25


def _one_line(error: BaseException | str) -> str:
    """``Type: message`` for an exception; text passes through."""
    if isinstance(error, str):
        return error
    return f"{type(error).__name__}: {error}"


def _portable_error(exc: Exception) -> Exception:
    """``exc`` itself if it survives a pickle round trip, else a
    :class:`ParallelError` carrying its one-line text."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure means "not portable"
        return ParallelError(_one_line(exc))
    return exc


def _worker_main(index: int, tasks, results, heartbeats,
                 inherited: list) -> None:
    """Worker loop: run ``(fn, arg)`` tasks until the stop message.

    A daemon thread stamps ``heartbeats[index]`` so the parent can tell
    a busy worker from a wedged one.  A task's exception is reported as
    ``(False, (transient, error))``, never raised: the worker survives a
    failed task and stays available for the next dispatch.
    """
    for conn in inherited:  # other workers' pipe ends, copied by fork
        conn.close()

    def stamp() -> None:  # pragma: no cover - timing-dependent thread
        while True:
            heartbeats[index] = time.monotonic()
            time.sleep(_HEARTBEAT_STAMP_S)

    threading.Thread(target=stamp, daemon=True).start()
    while True:
        try:
            message = _recv(tasks)
        except EOFError:
            return
        if message is None:
            return
        fn, arg = message
        try:
            reply = (True, fn(arg))
        except Exception as exc:  # noqa: BLE001 - relayed to the parent
            reply = (False, (isinstance(exc, DEFAULT_TRANSIENT),
                             _portable_error(exc)))
        try:
            _send(results, reply)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            _send(results, (False, (False, ParallelError(
                f"task result cannot be pickled: {_one_line(exc)}"))))
        # The parent has the result now; free it before blocking for the
        # next task, which the parent sends only after using this one.
        del reply


@dataclass
class _Task:
    """Scheduler-side lifecycle of one submitted task."""

    key: object
    label: str
    fn: Callable
    arg: object
    seq: int
    attempts: int = 0
    ready_at: float = 0.0
    deadline: float | None = None


class _Worker:
    """One forked worker: its process, its two pipe ends, its task."""

    __slots__ = ("index", "proc", "tasks", "results", "task")

    def __init__(self, index: int, proc, tasks, results) -> None:
        self.index = index
        self.proc = proc
        self.tasks = tasks
        self.results = results
        self.task: _Task | None = None

    def close(self) -> None:
        """Kill the process if it still runs and release both pipes."""
        if self.proc.exitcode is None:
            self.proc.kill()
        self.proc.join()
        self.tasks.close()
        self.results.close()


def _stop_workers(workers: dict[int, _Worker]) -> None:
    """Ask every worker to exit, give them a second, then kill the rest.

    Registered as a :class:`multiprocessing.util.Finalize` callback, so
    it also runs when the pool is garbage-collected and at interpreter
    exit, before multiprocessing joins its non-daemonic children.
    """
    for worker in workers.values():
        try:
            _send(worker.tasks, None)
        except OSError:
            pass
    deadline = time.monotonic() + 1.0
    for worker in workers.values():
        worker.proc.join(max(0.0, deadline - time.monotonic()))
        worker.close()
    workers.clear()


class _Pool:
    """The supervised executor behind both public fronts.

    :meth:`submit` queues a task; :meth:`next_result` returns finished
    tasks in completion order as ``(key, value, error)``, with ``error``
    ``None`` on success, the task's own exception on a non-transient
    failure, or a :class:`~repro.errors.QuarantineError` once a task
    spent its retry budget on transient failures and worker deaths.
    ``kind`` names a task in errors ("series job") and ``field`` names
    its label in journal events ("app_id").
    """

    def __init__(self, n_workers: int, journal,
                 supervision: SupervisionConfig, kind: str,
                 field: str) -> None:
        self.journal = journal
        self.supervision = supervision
        self.kind = kind
        self.field = field
        ctx = _pool_context() if n_workers > 1 else None
        if n_workers > 1 and ctx is None and journal is not None:
            journal.warn("fork start method unavailable on this "
                         "platform; running tasks serially", jobs=n_workers)
        self._ctx = ctx
        self._capacity = n_workers if ctx is not None else 1
        self._heartbeats = (ctx.RawArray("d", n_workers)
                            if ctx is not None else None)
        self._workers: dict[int, _Worker] = {}
        self._new: deque[_Task] = deque()
        self._retry: list[_Task] = []
        self._done: deque = deque()
        self._seq = 0
        self._stop: util.Finalize | None = None

    def submit(self, key: object, fn: Callable, arg: object,
               label: str | None = None) -> None:
        """Queue ``fn(arg)``; ``label`` (default ``str(key)``) names it
        in events and seeds its retry backoff."""
        self._new.append(_Task(key, str(key) if label is None else label,
                               fn, arg, self._seq))
        self._seq += 1

    def next_result(self) -> tuple[object, object, BaseException | None]:
        """Block until any task finishes; return ``(key, value, error)``.

        Raises:
            ParallelError: when nothing is outstanding, or a worker
                cannot be forked.
        """
        while not self._done:
            if not (self._new or self._retry or self._busy()):
                raise ParallelError("no outstanding tasks to wait for")
            task = self._next_task(time.monotonic())
            if task is None:
                self._wait()
            elif self._ctx is None:
                self._run_inline(task)
            else:
                self._dispatch(task)
        return self._done.popleft()

    def close(self) -> None:
        """Stop every worker and drop unfinished tasks; idempotent."""
        if self._stop is not None:
            self._stop()
        self._new.clear()
        self._retry.clear()
        self._done.clear()

    # -- scheduling ----------------------------------------------------------

    def _busy(self) -> list[_Worker]:
        return [w for w in self._workers.values() if w.task is not None]

    def _next_task(self, now: float) -> _Task | None:
        """The next task to start: a due retry first, then a new task.

        A task waiting on its backoff holds its capacity slot, so at
        ``n_jobs == 1`` tasks still finish in submission order.
        """
        running = len(self._busy())
        if running >= self._capacity:
            return None
        due = [task for task in self._retry if task.ready_at <= now]
        if due:
            task = min(due, key=lambda t: t.seq)
            self._retry.remove(task)
            return task
        if self._new and running + len(self._retry) < self._capacity:
            return self._new.popleft()
        return None

    def _failed(self, task: _Task, transient: bool,
                error: BaseException | str) -> None:
        """Schedule a retry of a transient failure, or finish the task."""
        policy = self.supervision.retry
        if transient and task.attempts < policy.max_attempts:
            delay = policy.delay(task.label, task.attempts)
            task.ready_at = time.monotonic() + delay
            self._retry.append(task)
            self._emit("job_retry", task, attempt=task.attempts,
                       delay_s=round(delay, 6), error=_one_line(error))
            return
        if transient:
            self._emit("job_quarantined", task, attempts=task.attempts,
                       error=_one_line(error))
            error = QuarantineError(
                f"{self.kind} {task.label!r} failed after {task.attempts} "
                f"attempts; last error: {_one_line(error)}")
        self._done.append((task.key, None, error))

    def _emit(self, etype: str, task: _Task | None, **fields) -> None:
        if self.journal is not None:
            self.journal.emit(etype, **{
                self.field: task.label if task is not None else ""},
                **fields)

    def _run_inline(self, task: _Task) -> None:
        task.attempts += 1
        try:
            value = task.fn(task.arg)
        except Exception as exc:  # noqa: BLE001 - same rule as a worker
            self._failed(task, isinstance(exc, DEFAULT_TRANSIENT), exc)
        else:
            self._done.append((task.key, value, None))

    # -- workers -------------------------------------------------------------

    def _spawn(self) -> _Worker:
        if self._stop is None or not self._stop.still_active():
            self._stop = util.Finalize(self, _stop_workers,
                                       args=(self._workers,),
                                       exitpriority=10)
        index = next(i for i in range(self._capacity)
                     if i not in self._workers)
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        inherited = [task_send, result_recv] + [
            conn for w in self._workers.values()
            for conn in (w.tasks, w.results)]
        self._heartbeats[index] = time.monotonic()
        proc = self._ctx.Process(
            target=_worker_main, name=f"repro-pool-{index}",
            args=(index, task_recv, result_send, self._heartbeats,
                  inherited))
        try:
            proc.start()
        except OSError as exc:
            raise ParallelError(
                f"could not fork pool worker {index} of {self._capacity}: "
                f"{exc}") from exc
        finally:
            task_recv.close()
            result_send.close()
        worker = _Worker(index, proc, task_send, result_recv)
        self._workers[index] = worker
        return worker

    def _dispatch(self, task: _Task) -> None:
        worker = next((w for w in self._workers.values() if w.task is None),
                      None) or self._spawn()
        task.attempts += 1
        timeout = self.supervision.job_timeout_s
        task.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        worker.task = task
        try:
            _send(worker.tasks, (task.fn, task.arg))
        except OSError:
            self._lost(worker)
            return
        if fire("pool.kill_worker"):
            # Supervisor-side chaos: kill the worker just handed a task.
            worker.proc.kill()

    def _wait(self) -> None:
        """Wait for a result, a death or a retry; then run the watchdog."""
        timeout = _POLL_S
        if self._retry:
            earliest = min(task.ready_at for task in self._retry)
            timeout = min(timeout, max(0.0, earliest - time.monotonic()))
        if self._ctx is None:
            time.sleep(timeout)
            return
        owners = {}
        for worker in self._workers.values():
            if worker.task is not None:
                owners[worker.results] = worker
            owners[worker.proc.sentinel] = worker
        ready = wait_ready(list(owners), timeout)
        # Results before sentinels: a worker that reported and then died
        # keeps its result.
        for handle in sorted(ready, key=lambda h: isinstance(h, int)):
            worker = owners[handle]
            if self._workers.get(worker.index) is not worker:
                continue  # already replaced this round
            if handle is worker.results:
                self._receive(worker)
            else:
                if worker.task is not None and worker.results.poll(0):
                    self._receive(worker)
                if self._workers.get(worker.index) is worker:
                    self._lost(worker)
        self._watchdog(time.monotonic())

    def _receive(self, worker: _Worker) -> None:
        try:
            ok, payload = _recv(worker.results,
                                self.supervision.heartbeat_timeout_s)
        except (EOFError, OSError):
            worker.proc.join(_POLL_S)
            self._lost(worker)
            return
        task, worker.task = worker.task, None
        if ok:
            self._done.append((task.key, payload, None))
        else:
            self._failed(task, *payload)

    def _watchdog(self, now: float) -> None:
        stale_s = self.supervision.heartbeat_timeout_s
        for worker in list(self._workers.values()):
            task = worker.task
            if task is not None and task.deadline is not None \
                    and now > task.deadline:
                self._lost(worker, "job timeout")
            elif stale_s is not None \
                    and now - self._heartbeats[worker.index] > stale_s:
                self._lost(worker, "heartbeat stale")

    def _lost(self, worker: _Worker, reason: str | None = None) -> None:
        """Reap a dead or condemned worker and retry its task.

        ``reason`` defaults to the exit code, read after the reap.
        """
        worker.close()
        reason = reason or f"exit code {worker.proc.exitcode}"
        del self._workers[worker.index]
        task = worker.task
        self._emit("worker_restart", task, worker=worker.index,
                   reason=reason)
        if task is not None:
            self._failed(task, True,
                         f"worker died without reporting ({reason})")


def _in_order(count: int, window: int, submit: Callable[[int], None],
              collect: Callable[[], tuple[int, object]],
              stop: Callable[[], None]) -> Iterator:
    """Deliver the results of tasks ``0..count-1`` in submission order.

    ``submit(i)`` hands task ``i`` to a pool; ``collect()`` blocks for the
    next finished ``(i, value)``.  At most ``window`` tasks run ahead of
    the one awaited, which bounds the results buffered out of order.  ``stop()`` runs once the last
    result has arrived, before the final yield: consumers such as
    ``zip()`` never resume a generator after its last item.
    """
    buffered: dict[int, object] = {}
    submitted = 0
    for index in range(count):
        while submitted < min(count, index + window):
            submit(submitted)
            submitted += 1
        while index not in buffered:
            # No local name may keep a result alive: once the consumer
            # drops a yielded result it is freed, even while later
            # results are still served from ``buffered``.
            buffered.update([collect()])
        if index == count - 1:
            stop()
        yield buffered.pop(index)


# ---- series front ----------------------------------------------------------


@dataclass(frozen=True)
class _WorkerSetup:
    """Everything a series task needs besides the job itself."""

    seed: int
    recipe: SeriesRecipe
    trace_days: int
    cpu_interval_minutes: int
    bw_interval_minutes: int


#: ``(setup, cpu axis, bw axis, season cache)`` memoised by
#: :func:`_render_task`.
_SERIES_STATE: tuple | None = None


def _render_task(arg: tuple[_WorkerSetup, SeriesJob]) -> SeriesBlock:
    """Render one series job with a private perf registry.

    Rebuilds the app's RNG substream from (seed, recipe, app id), so a
    retried render is bit-identical to a first-try success and counts
    exactly once.  The time axes and season curves are memoised per
    setup, once per worker.
    """
    global _SERIES_STATE
    setup, job = arg
    if _SERIES_STATE is None or _SERIES_STATE[0] != setup:
        _SERIES_STATE = (
            setup,
            time_axis_minutes(setup.trace_days, setup.cpu_interval_minutes),
            time_axis_minutes(setup.trace_days, setup.bw_interval_minutes),
            SeasonCache())
    _, cpu_minutes, bw_minutes, seasons = _SERIES_STATE
    perf = PerfRegistry()
    rng = job_rng(setup.seed, setup.recipe, job.app_id)
    block = render_series_job(job, setup.recipe, cpu_minutes, bw_minutes,
                              rng, seasons=seasons, perf=perf)
    block.perf = perf
    return block


def run_series_jobs(jobs_list: Sequence[SeriesJob], scenario: Scenario,
                    recipe: SeriesRecipe, n_jobs: int = 1,
                    perf: PerfRegistry | None = None,
                    supervision: SupervisionConfig | None = None,
                    ) -> Iterator[SeriesBlock]:
    """Render series jobs, yielding blocks in submission order.

    ``n_jobs == 1`` (or a single job) renders inline; otherwise
    ``min(n_jobs, len(jobs_list))`` supervised workers render
    concurrently, at most ``workers + 2`` jobs ahead of the block being
    yielded, so the caller sees the same sequence of bit-identical
    blocks.  The workers stop as soon as the last block has arrived.
    ``supervision`` bundles the watchdog timeouts and retry budget
    (default: :meth:`SupervisionConfig.from_env`).

    Raises:
        ConfigurationError: on a bad ``n_jobs`` value.
        ParallelError: when a worker cannot be forked, or a job's
            exception cannot be pickled (its one-line text is kept).
        QuarantineError: when one job exhausts its retry budget.
        Exception: a job's own non-transient exception, re-raised on
            its first attempt.
    """
    n_jobs = resolve_jobs(n_jobs)
    if supervision is None:
        supervision = SupervisionConfig.from_env()
    journal = perf.journal if perf is not None else None
    setup = _WorkerSetup(scenario.seed, recipe, scenario.trace_days,
                         scenario.cpu_interval_minutes,
                         scenario.bw_interval_minutes)
    if journal is not None:
        # Dispatch events come first at every --jobs, so journals are
        # identical across settings.
        for job in jobs_list:
            journal.emit("job_dispatch", app_id=job.app_id,
                         vm_count=job.vm_count)
    workers = min(n_jobs, len(jobs_list))
    pool = _Pool(workers, journal, supervision, kind="series job",
                 field="app_id")

    def submit(index: int) -> None:
        job = jobs_list[index]
        pool.submit(index, _render_task, (setup, job), label=job.app_id)

    def collect() -> tuple[int, SeriesBlock]:
        index, block, error = pool.next_result()
        if error is not None:
            raise error
        return index, block

    def stop() -> None:
        global _SERIES_STATE
        pool.close()
        _SERIES_STATE = None

    try:
        blocks = _in_order(len(jobs_list), workers + 2, submit, collect,
                           stop)
        for job, block in zip(jobs_list, blocks):
            _account_block(job, block.perf, perf, journal)
            block.perf = None
            yield block
            # Unbind before waiting for the next block: a streaming
            # caller has copied this one out, so its rows can go now.
            del block
    finally:
        stop()


def _account_block(job: SeriesJob, worker_perf: PerfRegistry,
                   perf: PerfRegistry | None, journal) -> None:
    """Fold one rendered job's telemetry into the parent's registry.

    Inline and pooled renders both merge their private registry and
    emit ``job_complete`` in submission order, which keeps serial and
    pooled journals identical.
    """
    if perf is not None:
        perf.merge(worker_perf)
    if journal is not None:
        journal.emit("job_complete", app_id=job.app_id, vms=job.vm_count,
                     wall_s=round(worker_perf.wall_s("series_render"), 6))


# ---- task front (sweep cells, QoE chunks) ----------------------------------


@dataclass(frozen=True)
class TaskOutcome:
    """The result of one farmed task: a value or a one-line error."""

    task_id: str
    ok: bool
    value: object = None
    error: str | None = None


class TaskFarm:
    """Run independent heavyweight tasks on the supervised pool.

    Tasks are submitted as ``(task_id, fn, arg)`` and collected with
    :meth:`next_outcome` in completion order, which lets a scheduler
    unlock dependent work (a sweep group's followers) the moment its
    prerequisite finishes.  At ``n_jobs == 1`` — or where fork is
    unavailable — :meth:`next_outcome` runs the next queued task inline,
    so scheduling semantics are identical either way.  ``fn`` and
    ``arg`` must be picklable (``fn`` a module-level function).

    Workers are not daemonic: a farmed task may start its own series
    pool (nested parallelism).  Supervision is the series pool's
    (:meth:`SupervisionConfig.from_env`): transient errors, worker
    deaths, job timeouts and stale heartbeats are retried; a task that
    spends its budget, or raises anything else, becomes a failed
    :class:`TaskOutcome` with a one-line error.
    """

    def __init__(self, n_jobs: int = 1, journal=None) -> None:
        self.n_jobs = resolve_jobs(n_jobs)
        self.journal = journal
        self._pool = _Pool(self.n_jobs, journal,
                           SupervisionConfig.from_env(), kind="task",
                           field="task")
        self._outstanding: set[str] = set()

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet returned by :meth:`next_outcome`."""
        return len(self._outstanding)

    def submit(self, task_id: str, fn: Callable, arg: object) -> None:
        """Queue one task; it starts as soon as a worker is free.

        Raises:
            ConfigurationError: when ``task_id`` is already outstanding.
        """
        if task_id in self._outstanding:
            raise ConfigurationError(
                f"task id {task_id!r} is already outstanding")
        self._outstanding.add(task_id)
        self._pool.submit(task_id, fn, arg)

    def next_outcome(self) -> TaskOutcome:
        """Block until any outstanding task finishes; return its outcome.

        Raises:
            ConfigurationError: when no task is outstanding.
        """
        if not self._outstanding:
            raise ConfigurationError("no outstanding tasks to wait for")
        task_id, value, error = self._pool.next_result()
        self._outstanding.discard(task_id)
        if error is None:
            return TaskOutcome(task_id, True, value=value)
        return TaskOutcome(task_id, False, error=_one_line(error))

    def in_order(self, tasks: Sequence[tuple[str, Callable, object]]
                 ) -> Iterator:
        """Run ``(task_id, fn, arg)`` tasks, yielding values in order.

        The series front's ordered delivery over :meth:`next_outcome`:
        at most ``n_jobs + 2`` tasks run ahead of the value being
        yielded, and the farm is closed once the last value arrives.

        Raises:
            ParallelError: naming the first task that failed.
        """
        position = {task_id: index
                    for index, (task_id, _, _) in enumerate(tasks)}

        def collect() -> tuple[int, object]:
            outcome = self.next_outcome()
            if not outcome.ok:
                raise ParallelError(
                    f"task {outcome.task_id} failed: {outcome.error}")
            return position[outcome.task_id], outcome.value

        return _in_order(len(tasks), self.n_jobs + 2,
                         lambda index: self.submit(*tasks[index]),
                         collect, self.close)

    def close(self) -> None:
        """Stop every worker and drop queued tasks."""
        self._pool.close()
        self._outstanding.clear()

    def __enter__(self) -> "TaskFarm":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
