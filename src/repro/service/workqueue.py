"""Persistent warm worker pools and the one consumer policy over them.

:class:`WorkStealingPool` runs N worker processes that each build their
engine once (warming from the shared kernel-spectra store) and then pull
:class:`Task` records off a **shared task queue**: a worker takes its
next clip the moment it finishes the previous one, so a skewed suite
(mixed grid sizes, early-exiting clips) balances itself.  Because each
``optimize(clip)`` is deterministic from the spec alone and verification
is batch-composition independent, moving a clip between workers changes
wall-clock, never a number.  A pool outlives any one suite, so the
always-on daemon (:mod:`repro.service.daemon`) keeps warm workers across
requests.

Consumer policy
---------------

Both front doors — the synchronous sweep
(:class:`~repro.service.sharding.ShardedSuiteRunner`) and the daemon's
collector thread — consume pools through one function, :func:`drive`.
Each call folds at most one relayed worker message and then sweeps the
pools; what comes back is a list of :class:`Resolution` records, one per
task that ended, each carrying either the task's outcome or a typed
:class:`~repro.errors.ServiceError` naming its clip.  The policy:

* ``ok`` / ``error`` resolve their task.  Engine exceptions are never
  retried: a deterministic engine would fail identically.
* ``fatal`` (a worker could not build its engine) and ``corrupt`` (a
  torn pipe frame) **retire** the pool: every task it still holds is
  resolved with an error, and the workers are terminated.
* A worker that died without a clean ``exit`` has its claimed task
  re-enqueued (up to ``task.retries`` extra attempts, exponential
  backoff), or resolved with :class:`~repro.errors.RetriesExhausted`
  (or a plain :class:`~repro.errors.ServiceError` for a task with no
  retry budget).  The slot is then revived, until the pool's revive
  budget of ``3 × workers`` is spent; the next death retires the pool.
* A task past its wall-clock ``deadline_s`` is resolved with
  :class:`~repro.errors.DeadlineExceeded`; a claim held unchanged for
  longer than ``stall_timeout_s`` gets its worker killed, which then
  flows through the death path like any crash.

Sweeps run on every idle poll and at least every
:data:`POLL_INTERVAL_S` under steady traffic.  Delivery is
**at-least-once with exactly-once results**: once a task resolved, any
late ``ok``/``error`` for it (a retry's sibling, a result that outlived
its deadline) is dropped and counted in ``duplicates_dropped``.

Threading contract
------------------

* ``submit`` may be called from any thread.
* Exactly one consumer thread calls :func:`drive` (or
  :meth:`WorkStealingPool.poll`) and ``shutdown``; it owns all liveness,
  retry and in-flight state.

Liveness
--------

A worker whose process has an exit code but which never sent its clean
``exit`` message is *suspected* dead; because its final messages may
still be buffered in the pipe, the suspicion only becomes a verdict
after a grace window with no message from that worker.  **Any** message
from the worker resets the window, so a healthy worker slowly draining
large mask payloads is never declared crashed.  The window also orders
crash-after-result correctly: the completed payload drains off the pipe
and resolves its task before the death verdict lands, so the verdict
carries no task and triggers no recompute.

Dispatch modes
--------------

``dispatch="steal"`` (the default) is the shared queue described above.
``dispatch="static"`` gives each worker a private queue and deals
submitted tasks to the slots round-robin — the pinned-placement baseline
that ``benchmarks/bench_daemon.py`` measures stealing against.  A
retried task goes back to its original slot under static dispatch, and
to the shared queue under stealing.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

import numpy as np

from repro.errors import DeadlineExceeded, RetriesExhausted, ServiceError
from repro.geometry.layout import Clip
from repro.service.faults import install_fault_plan, maybe_fault

DEFAULT_START_METHOD = "spawn"
DISPATCH_MODES = ("steal", "static")

POLL_INTERVAL_S = 0.05
CRASH_GRACE_S = 1.0
"""A dead worker's last messages may still be in the pipe; only after
this long with *no* message from that worker is it declared crashed."""

PARENT_CHECK_S = 1.0
"""How long an idle worker waits on the task queue before checking that
its parent is still alive.  A parent killed without a shutdown (SIGKILL)
sends no sentinel, so without this check its workers would block on the
queue forever, orphaned."""

RETRY_BACKOFF_S = 0.25
"""Base delay before a crashed task's first re-dispatch; doubles per
attempt (0.25, 0.5, 1.0, ...) so a systematically-crashing clip cannot
hot-loop the pool."""


@dataclass(frozen=True)
class Task:
    """One unit of pool work: optimize ``clip`` and stream the outcome.

    ``task_id`` is the caller's correlation key (the sharded runner uses
    the clip's suite index; the daemon uses the request ticket) — it
    comes back on the task's :class:`Resolution` and is the dedup key
    for retries.  ``retries`` is the number of *extra* attempts the pool
    may make after an infrastructure fault (worker crash or stall kill);
    ``attempt`` counts from 0 and is bumped on each re-enqueue.
    ``deadline_s`` is a wall-clock budget from submission; once elapsed
    the task fails whether queued, running, or waiting out a backoff.
    """

    task_id: int
    clip: Clip
    optimize_kwargs: dict = field(default_factory=dict)
    capture_mask: bool = True
    attempt: int = 0
    retries: int = 0
    deadline_s: float | None = None


@dataclass(frozen=True)
class Resolution:
    """How one task ended: its ``outcome`` (an
    :class:`~repro.service.sharding.OptOutcome`), or the ``error`` that
    failed it, a :class:`~repro.errors.ServiceError` naming the clip."""

    task: Task
    outcome: Any = None
    error: ServiceError | None = None


def check_delivery(
    workers: int,
    dispatch: str = "steal",
    retries: int = 0,
    deadline_s: float | None = None,
    stall_timeout_s: float | None = None,
) -> None:
    """Validate the pool and delivery arguments every front door takes."""
    if workers < 1:
        raise ServiceError(f"workers must be >= 1, got {workers}")
    if dispatch not in DISPATCH_MODES:
        raise ServiceError(
            f"dispatch must be one of {DISPATCH_MODES}, got {dispatch!r}"
        )
    if retries < 0:
        raise ServiceError(f"retries must be >= 0, got {retries}")
    if deadline_s is not None and not deadline_s > 0:
        raise ServiceError(f"deadline_s must be > 0, got {deadline_s}")
    if stall_timeout_s is not None and not stall_timeout_s > 0:
        raise ServiceError(
            f"stall_timeout_s must be > 0, got {stall_timeout_s}"
        )


def drive(
    relay: queue_mod.Queue,
    pools: Iterable[WorkStealingPool],
    timeout: float = POLL_INTERVAL_S,
) -> list[Resolution]:
    """One step of the consumer policy over ``pools``, which all feed
    ``relay``: fold the next message (if one arrives within ``timeout``)
    into the pool that sent it, then sweep every pool.  An idle poll
    always sweeps; under traffic each pool sweeps at most once per
    :data:`POLL_INTERVAL_S`.  Returns the tasks that ended."""
    try:
        source, message = relay.get(timeout=timeout)
    except queue_mod.Empty:
        source = None
    resolutions = [] if source is None else source._fold(message)
    for pool in pools:
        resolutions += pool._sweep(force=source is None)
    return resolutions


def describe_error(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


NO_CLAIM = -1
"""Sentinel in the shared claims array: this worker holds no task."""


def _pool_worker(
    worker_id: int, spec, task_queue, out_queue, claims,
    generation: int = 0, fault_plan=None,
) -> None:
    """Worker entry point: build the engine once, then serve the queue.

    Runs in a spawned child process.  Every message is a 4-tuple
    ``(kind, worker_id, task_id, payload)`` with kind one of ``"ready"``
    / ``"ok"`` / ``"error"`` / ``"fatal"`` / ``"exit"``.  A ``None`` on
    the task queue is the shutdown sentinel.  Task failures are streamed
    as ``error`` and the worker moves on — one bad clip must not take a
    persistent pool down with it.

    ``claims`` is the lock-free shared int64 array: slot ``worker_id``
    holds the task id this worker is running (or :data:`NO_CLAIM`).  It
    is written *directly to shared memory* before the optimize starts,
    so the parent can still name the in-flight clip when this process
    dies abruptly — an abrupt death sends no message at all, but the
    memory write is already visible.

    A worker outlives a parent killed without a shutdown only briefly:
    an idle one checks :func:`multiprocessing.parent_process` every
    :data:`PARENT_CHECK_S`, and a busy one fails its next send, because
    the worker closes its own copy of the result pipe's read end — once
    the parent is gone nobody holds it, so the write raises
    ``BrokenPipeError`` instead of blocking on a pipe nobody drains.

    ``generation`` counts revivals of this slot (0 = first start), and
    ``fault_plan`` is the pool's explicit fault plan, installed before
    anything can fail; injection contexts carry the generation
    (``worker.build``) and the task attempt (everything else) so a rule
    can target "the first revival" or "attempt 0 of clip X" exactly.
    """
    out_queue._reader.close()
    try:
        _serve_tasks(
            worker_id, spec, task_queue, out_queue, claims, generation,
            fault_plan,
        )
    except BrokenPipeError:
        pass  # the parent is gone: nobody is left to read a result


def _serve_tasks(
    worker_id: int, spec, task_queue, out_queue, claims, generation: int,
    fault_plan,
) -> None:
    from repro.service.registry import engine_epe_search_nm
    from repro.service.sharding import OptOutcome

    if fault_plan is not None:
        install_fault_plan(fault_plan)
    try:
        maybe_fault("worker.build", f"w{worker_id}g{generation}")
        if spec.seed is not None:
            np.random.seed(spec.seed)
        engine, simulator = spec.build()
        search_nm = engine_epe_search_nm(engine)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        out_queue.put(("fatal", worker_id, None, describe_error(exc)))
        return
    out_queue.put(("ready", worker_id, None, None))
    parent = mp.parent_process()
    while True:
        try:
            task = task_queue.get(timeout=PARENT_CHECK_S)
        except queue_mod.Empty:
            if parent is not None and not parent.is_alive():
                return
            continue
        if task is None:
            claims[worker_id] = NO_CLAIM
            out_queue.put(("exit", worker_id, None, None))
            return
        claims[worker_id] = task.task_id
        context = f"{task.clip.name}@{task.attempt}"
        try:
            maybe_fault("worker.optimize", context)
            raw = engine.optimize(task.clip, **task.optimize_kwargs)
            payload = OptOutcome.from_raw(
                raw, task.clip, simulator, search_nm, worker=worker_id,
                capture_mask=task.capture_mask,
            )
            maybe_fault("worker.before_result", context)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
            out_queue.put(
                ("error", worker_id, task.task_id, describe_error(exc))
            )
            claims[worker_id] = NO_CLAIM
            continue
        torn = maybe_fault("pipe.frame", context)
        if torn is not None:
            # A worker SIGKILLed mid-payload-write leaves a frame on the
            # pipe that cannot unpickle; model it exactly, then die.
            out_queue._writer.send_bytes(b"repro-torn-frame")
            os._exit(torn.exit_code)
        out_queue.put(("ok", worker_id, task.task_id, payload))
        maybe_fault("worker.after_result", context)
        claims[worker_id] = NO_CLAIM


class WorkStealingPool:
    """N persistent worker processes pulling from a shared task queue.

    The pool owns the processes, the task/result queues, the revive
    budget, and the relay thread that drains the multiprocessing queue
    onto an in-process one (so a worker SIGKILLed mid-payload-write — a
    torn pipe frame — can only wedge the abandonable relay thread, never
    the consumer; the consumer's polls keep reaching the liveness sweep
    and the failure surfaces instead of hanging).  Every relayed message
    is tagged with its pool, so several pools can share one ``relay``
    and one consumer (:func:`drive`).
    """

    def __init__(
        self,
        spec,
        workers: int,
        dispatch: str = "steal",
        relay: queue_mod.Queue | None = None,
        grace_s: float = CRASH_GRACE_S,
        fault_plan=None,
        stall_timeout_s: float | None = None,
        retry_backoff_s: float = RETRY_BACKOFF_S,
    ) -> None:
        from repro.service.sharding import EngineSpec

        if not isinstance(spec, EngineSpec):
            raise ServiceError(
                f"WorkStealingPool needs an EngineSpec, got "
                f"{type(spec).__name__}"
            )
        check_delivery(workers, dispatch, stall_timeout_s=stall_timeout_s)
        self.spec = spec
        self.workers = int(workers)
        self.dispatch = dispatch
        self.grace_s = float(grace_s)
        self.stall_timeout_s = stall_timeout_s
        self.retry_backoff_s = float(retry_backoff_s)
        # A worker that keeps dying (e.g. during bootstrap, before it can
        # even send a "fatal") would otherwise be revived forever.
        self.max_revives = 3 * self.workers
        self._fault_plan = fault_plan
        self._ctx = mp.get_context(DEFAULT_START_METHOD)
        self._relay: queue_mod.Queue = relay if relay is not None \
            else queue_mod.Queue()
        # SimpleQueue, not Queue, for the worker->parent channel: its
        # put() writes synchronously to the pipe, so once a worker's put
        # returns the message is in OS buffers and survives the process
        # dying immediately afterwards.  A buffered Queue hands the
        # payload to a feeder thread that dies (payload and all) on
        # os._exit — which silently lost the result of a *completed*
        # task whenever the worker crashed on its next one.
        self._out_queue = self._ctx.SimpleQueue()
        n_queues = 1 if dispatch == "steal" else self.workers
        self._task_queues = [self._ctx.Queue() for _ in range(n_queues)]
        # Lock-free on purpose: a worker SIGKILLed mid-write under a
        # locked Array would leave the lock held and deadlock the
        # parent's read; a single aligned int64 store cannot tear.
        self._claims = self._ctx.Array("q", self.workers, lock=False)
        for wid in range(self.workers):
            self._claims[wid] = NO_CLAIM
        self._procs: list = [None] * self.workers
        self._generation = [0] * self.workers
        self._drainer: threading.Thread | None = None
        self._stop_draining = threading.Event()
        self._started = False
        self._closed = False
        # Task registry: submit() writes from any thread, the consumer
        # thread removes on resolution.  A message for an id no longer
        # here is a stale duplicate.
        self._tasks_lock = threading.Lock()
        self._tasks: dict[int, Task] = {}
        self._deadline_at: dict[int, float] = {}
        self._slots: dict[int, int] = {}
        self._next_slot = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._revived = 0
        self._retried = 0
        self._deadline_failed = 0
        self._stalled = 0
        self._duplicates = 0
        # Consumer-thread-owned liveness / retry / progress state.
        self._ready: set[int] = set()
        self._exited: set[int] = set()
        self._dead_since: dict[int, float] = {}
        self._per_worker_done = [0] * self.workers
        self._retry_heap: list[tuple[float, int, Task]] = []
        self._retry_seq = 0
        self._claim_seen: dict[int, tuple[int, float]] = {}
        self._last_sweep = 0.0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise ServiceError("pool already started")
        self._started = True
        for wid in range(self.workers):
            self._procs[wid] = self._spawn(wid)
        self._drainer = threading.Thread(
            target=self._drain, daemon=True, name="repro-pool-drain"
        )
        self._drainer.start()

    def _spawn(self, wid: int):
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(wid, self.spec, self._queue_for(wid), self._out_queue,
                  self._claims, self._generation[wid], self._fault_plan),
            daemon=True,
            name=f"repro-pool-{self.spec.label}-{wid}",
        )
        proc.start()
        return proc

    def _queue_for(self, wid: int):
        return self._task_queues[0 if self.dispatch == "steal" else wid]

    def _drain(self) -> None:
        """Relay thread: multiprocessing queue -> in-process queue."""
        while not self._stop_draining.is_set():
            try:
                # SimpleQueue has no timed get; poll the reader pipe so
                # the stop flag is still honoured between messages.
                if not self._out_queue._reader.poll(POLL_INTERVAL_S):
                    continue
                message = self._out_queue.get()
            except BaseException as exc:  # noqa: BLE001 - relayed
                # Closed queue on shutdown, or a misframed payload from
                # a killed writer failing to unpickle.
                if not self._stop_draining.is_set():
                    self._relay.put(
                        (self, ("corrupt", None, None, describe_error(exc)))
                    )
                return
            self._relay.put((self, message))

    # -- submission ----------------------------------------------------------
    def submit(self, task: Task) -> int:
        """Queue a task: on the shared queue under ``dispatch="steal"``,
        or on the next slot's private queue (round-robin) under
        ``"static"``.  Thread-safe."""
        with self._tasks_lock:
            if not self._started or self._closed:
                raise ServiceError("pool is not running")
            if task.task_id in self._tasks:
                raise ServiceError(
                    f"task id {task.task_id} is already outstanding"
                )
            self._tasks[task.task_id] = task
            self._submitted += 1
            if task.deadline_s is not None:
                self._deadline_at[task.task_id] = (
                    time.monotonic() + task.deadline_s
                )
            slot = self._next_slot % self.workers
            self._next_slot += 1
            self._slots[task.task_id] = slot
        self._queue_for(slot).put(task)
        return task.task_id

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet resolved."""
        with self._tasks_lock:
            return len(self._tasks)

    @property
    def closed(self) -> bool:
        """Shut down, or retired by the consumer policy."""
        return self._closed

    # -- the consumer policy (single consumer thread) ------------------------
    def poll(self, timeout: float = POLL_INTERVAL_S) -> list[Resolution]:
        """:func:`drive` for a pool that owns its relay."""
        return drive(self._relay, [self], timeout)

    def _fold(self, message) -> list[Resolution]:
        """Fold one worker message; any message resets its sender's
        crash-suspicion window."""
        if self._closed:
            return []
        kind, wid, task_id, payload = message
        if kind == "fatal":
            return self._retire(f"could not build its engine: {payload}")
        if kind == "corrupt":
            return self._retire(f"corrupted its result stream: {payload}")
        self._dead_since.pop(wid, None)
        if kind == "ready":
            self._ready.add(wid)
        elif kind == "exit":
            self._exited.add(wid)
        else:
            task = self._settle(task_id, failed=kind == "error")
            if task is None:
                self._duplicates += 1
            elif kind == "ok":
                self._per_worker_done[wid] += 1
                return [Resolution(task, outcome=payload)]
            else:
                return [Resolution(task, error=ServiceError(
                    f"worker {wid} ({self.spec.label}) failed optimizing "
                    f"clip {task.clip.name!r}: {payload}"
                ))]
        return []

    def _settle(self, task_id: int, failed: bool) -> Task | None:
        """Take a task out of the registry; ``None`` if it already
        resolved."""
        with self._tasks_lock:
            task = self._tasks.pop(task_id, None)
            if task is None:
                return None
            self._deadline_at.pop(task_id, None)
            self._slots.pop(task_id, None)
            if failed:
                self._failed += 1
            else:
                self._completed += 1
        return task

    def _sweep(self, force: bool) -> list[Resolution]:
        """Dispatch retries whose backoff elapsed, resolve missed
        deadlines, kill stalled workers, and bury dead ones."""
        now = time.monotonic()
        if self._closed or (
            not force and now - self._last_sweep < POLL_INTERVAL_S
        ):
            return []
        self._last_sweep = now
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, task = heapq.heappop(self._retry_heap)
            with self._tasks_lock:
                live = self._tasks.get(task.task_id) is task
                slot = self._slots.get(task.task_id, 0)
            if live:  # not deadlined (or otherwise resolved) meanwhile
                self._queue_for(slot).put(task)
        resolutions = self._expire_deadlines(now)
        if self.stall_timeout_s is not None:
            self._kill_stalled(now)
        for wid, proc in enumerate(self._procs):
            if proc is None or wid in self._exited or proc.exitcode is None:
                continue
            if now - self._dead_since.setdefault(wid, now) < self.grace_s:
                continue
            resolutions += self._requeue_claim(wid, proc.exitcode)
            if self._revived >= self.max_revives:
                return resolutions + self._retire(
                    f"lost its workers repeatedly: workers died "
                    f"{self._revived + 1} times (last: worker {wid}, exit "
                    f"code {proc.exitcode})"
                )
            self._revive(wid)
        return resolutions

    def _expire_deadlines(self, now: float) -> list[Resolution]:
        with self._tasks_lock:
            due = [tid for tid, at in self._deadline_at.items() if now >= at]
            self._deadline_failed += len(due)
        resolutions = []
        for task_id in due:
            task = self._settle(task_id, failed=True)
            resolutions.append(Resolution(task, error=DeadlineExceeded(
                f"clip {task.clip.name!r} ({self.spec.label}) missed its "
                f"{task.deadline_s}s deadline"
            )))
        return resolutions

    def _kill_stalled(self, now: float) -> None:
        """Kill workers whose claim sat unchanged past the stall timeout;
        the death then flows through the crash path."""
        for wid, proc in enumerate(self._procs):
            if proc is None or proc.exitcode is not None:
                continue
            claimed = self._claims[wid]
            if claimed == NO_CLAIM:
                self._claim_seen.pop(wid, None)
                continue
            seen = self._claim_seen.get(wid)
            if seen is None or seen[0] != claimed:
                self._claim_seen[wid] = (claimed, now)
                continue
            if now - seen[1] < self.stall_timeout_s:
                continue
            with self._tasks_lock:
                live = claimed in self._tasks
            if live:
                proc.kill()
                self._stalled += 1
            self._claim_seen.pop(wid, None)

    def _requeue_claim(self, wid: int, exitcode: int) -> list[Resolution]:
        """The task a dead worker held goes back on the queue after a
        backoff, or — out of retry budget — fails naming its clip."""
        claimed = self._claims[wid]
        with self._tasks_lock:
            task = self._tasks.get(claimed)
            requeue = task is not None and task.attempt < task.retries
            if requeue:
                self._retried += 1
                # One object for both registry and heap: the retry
                # dispatch's identity check drops a heap entry whose
                # task was superseded (deadline, later retry).
                bumped = replace(task, attempt=task.attempt + 1)
                self._tasks[claimed] = bumped
        if task is None:
            return []  # idle death, or it died after its result landed
        if requeue:
            delay = self.retry_backoff_s * (2 ** task.attempt)
            self._retry_seq += 1
            heapq.heappush(
                self._retry_heap,
                (time.monotonic() + delay, self._retry_seq, bumped),
            )
            return []
        self._settle(claimed, failed=True)
        where = (
            f"worker {wid} ({self.spec.label}) died with exit code "
            f"{exitcode} while optimizing clip {task.clip.name!r}"
        )
        if task.retries > 0:
            return [Resolution(task, error=RetriesExhausted(
                f"{where}; retries exhausted after {task.attempt + 1} "
                "attempts"
            ))]
        return [Resolution(task, error=ServiceError(where))]

    def _revive(self, wid: int) -> None:
        """Replace a dead worker's process.  The replacement rebuilds its
        engine from the same spec (warming from the shared spectra store,
        so the rebuild is cheap) and pulls from the same queue(s)."""
        self._dead_since.pop(wid, None)
        self._exited.discard(wid)
        self._ready.discard(wid)
        self._claim_seen.pop(wid, None)
        self._claims[wid] = NO_CLAIM
        self._generation[wid] += 1
        self._procs[wid] = self._spawn(wid)
        self._revived += 1

    def _retire(self, reason: str) -> list[Resolution]:
        """This pool cannot serve: resolve every task it holds with one
        error naming the reason, and terminate its workers."""
        with self._tasks_lock:
            held = list(self._tasks.values())
            self._tasks.clear()
            self._deadline_at.clear()
            self._slots.clear()
            self._failed += len(held)
            self._closed = True
        self._stop(graceful=False, timeout=1.0)
        error = ServiceError(f"engine pool {self.spec.label!r} {reason}")
        return [Resolution(task, error=error) for task in held]

    # -- teardown ------------------------------------------------------------
    def shutdown(self, graceful: bool = True, timeout: float = 5.0) -> None:
        """Stop the pool.  ``graceful=True`` sends one shutdown sentinel
        per worker (FIFO after all queued tasks, so workers drain the
        queue first) and waits; either way every process is down and the
        queues are closed when this returns.  Idempotent."""
        with self._tasks_lock:
            if self._closed:
                return
            self._closed = True
        self._stop(graceful, timeout)

    def _stop(self, graceful: bool, timeout: float) -> None:
        if graceful and self._started:
            for wid in range(self.workers):
                if wid not in self._exited:
                    self._queue_for(wid).put(None)
            deadline = time.monotonic() + timeout
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
        self._stop_draining.set()
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=timeout)
        for task_queue in self._task_queues:
            task_queue.close()
        self._out_queue.close()

    # -- introspection -------------------------------------------------------
    def alive_workers(self) -> int:
        return sum(
            1 for proc in self._procs
            if proc is not None and proc.exitcode is None
        )

    def stats(self) -> dict[str, Any]:
        with self._tasks_lock:
            submitted = self._submitted
            completed = self._completed
            failed = self._failed
            retried = self._retried
            deadline_failed = self._deadline_failed
            duplicates = self._duplicates
            outstanding = len(self._tasks)
        return {
            "engine": self.spec.label,
            "dispatch": self.dispatch,
            "workers": self.workers,
            "workers_alive": self.alive_workers(),
            "workers_ready": len(self._ready),
            "workers_revived": self._revived,
            "workers_stalled": self._stalled,
            "tasks_submitted": submitted,
            "tasks_completed": completed,
            "tasks_failed": failed,
            "tasks_retried": retried,
            "tasks_deadline_failed": deadline_failed,
            "tasks_outstanding": outstanding,
            "duplicates_dropped": duplicates,
            "per_worker_completed": list(self._per_worker_done),
        }
