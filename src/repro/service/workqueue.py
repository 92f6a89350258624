"""Shared work-stealing task queue + persistent warm worker pools.

PR 5's :class:`~repro.service.sharding.ShardedSuiteRunner` dealt clips
round-robin at start-up: worker ``w`` owned ``clips[w::N]`` for the whole
sweep.  That is perfectly balanced only when every clip costs the same;
a heterogeneous suite (mixed grid sizes, early-exiting clips) leaves one
worker grinding through the expensive tail while its siblings idle.
:class:`WorkStealingPool` replaces the static deal with one **shared
task queue**: every worker pulls its next :class:`Task` the moment it
finishes the previous one, so load balances itself no matter how skewed
the suite is.  Because the service's results are order-independent (each
``optimize(clip)`` is deterministic from the spec alone, and
verification measurements are batch-composition independent), moving a
clip from one worker to another changes *wall-clock*, never a number —
the bit-for-bit contract survives unchanged.

The pool is also **persistent**: unlike the per-sweep fleets of PR 5, a
pool outlives any one suite.  Workers build their engine once (warming
from the shared kernel-spectra store) and then block on the queue, so an
always-on daemon (:mod:`repro.service.daemon`) keeps warm workers across
requests instead of paying spawn + engine build per sweep.

Delivery semantics (PR 7)
-------------------------

The pool is **at-least-once with exactly-once results**.  A task whose
worker dies mid-run is *re-enqueued* (up to ``task.retries`` extra
attempts, with exponential backoff), not failed; because every engine is
deterministic from its :class:`~repro.service.sharding.EngineSpec`, the
retried clip produces a bit-for-bit identical outcome on whichever
worker picks it up.  Results are deduplicated by task id: once a task
has completed, failed, or missed its deadline, any late ``ok``/``error``
for the same id is dropped (``observe`` returns ``False``), so a retry
can never double-report and a deadline failure can never be followed by
a surprise success.  Per-task deadlines and a stall detector (a claim
held unchanged for longer than ``stall_timeout_s`` gets its worker
killed) convert hung workers into the same retriable fault as a crash.

Threading contract
------------------

* ``submit`` may be called from any thread (it only touches the task
  registry under a lock and the queue's feeder thread).
* Exactly **one** consumer thread drives ``get_message`` / ``observe`` /
  ``check_dead`` / ``pump`` / ``revive`` / ``shutdown`` — the sweep loop
  in :class:`~repro.service.sharding.ShardedSuiteRunner`, or the
  daemon's collector thread.  All liveness, retry, and in-flight state
  is owned by that thread.

Liveness
--------

A worker whose process has an exit code but which never sent its clean
``exit`` message is *suspected* dead; because its final messages may
still be buffered in the pipe, the suspicion only becomes a verdict
after a grace window with no message from that worker.  **Any** message
from the worker resets the window (PR 5 started the window at the first
dry poll and never reset it, so a cleanly-finished worker whose large
mask payloads took longer than the grace period to drain was declared
crashed mid-sweep — the false positive this module fixes).  The grace
window also orders crash-after-result correctly: the completed payload
drains off the pipe (and dedup-registers its task as finished) before
the death verdict lands, so the verdict carries no task and triggers no
recompute.

Dispatch modes
--------------

``dispatch="steal"`` (the default) is the shared queue described above.
``dispatch="static"`` gives each worker a private queue and routes tasks
to an explicit worker slot — PR 5's round-robin deal, retained as the
baseline the work-stealing benchmark (``benchmarks/bench_daemon.py``)
measures against and as an escape hatch for workloads that want
placement pinned.  A retried task goes back to its original slot under
static dispatch, and to the shared queue under stealing.
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
from typing import Any

import numpy as np

from repro.errors import ServiceError
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
    comes back verbatim on the ``ok``/``error`` message and is the dedup
    key for retries.  ``retries`` is the number of *extra* attempts the
    pool may make after an infrastructure fault (worker crash or stall
    kill — engine exceptions are never retried, determinism makes that
    futile); ``attempt`` counts from 0 and is bumped on each re-enqueue.
    ``deadline_s`` is a wall-clock budget from submission; once elapsed
    the task fails with a deadline event whether queued, running, or
    waiting out a backoff.
    """

    task_id: int
    clip: Clip
    optimize_kwargs: dict = field(default_factory=dict)
    capture_mask: bool = True
    attempt: int = 0
    retries: int = 0
    deadline_s: float | None = None


@dataclass(frozen=True)
class DeadWorker:
    """A worker declared crashed: exit code + whatever it was running.

    ``requeued`` says what happened to the claimed task: ``True`` — it
    had retry budget left and is back on the queue (the consumer should
    revive the worker and move on); ``False`` — it is failed for good
    (no task, or retries exhausted).
    """

    worker_id: int
    exitcode: int | None
    task: Task | None
    requeued: bool = False


@dataclass(frozen=True)
class TaskEvent:
    """A task-level verdict surfaced by :meth:`WorkStealingPool.pump`.

    ``kind`` is currently only ``"deadline"``: the task's wall-clock
    budget elapsed and it has been failed (late results are deduped)."""

    kind: str
    task: Task


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

    The pool owns the processes, the task/result queues, and the relay
    thread that drains the multiprocessing queue onto an in-process one
    (so a worker SIGKILLed mid-payload-write — a torn pipe frame — can
    only wedge the abandonable relay thread, never the consumer; the
    consumer's polls keep reaching the liveness check and the failure
    surfaces instead of hanging).
    """

    def __init__(
        self,
        spec,
        workers: int,
        start_method: str = DEFAULT_START_METHOD,
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
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if dispatch not in DISPATCH_MODES:
            raise ServiceError(
                f"dispatch must be one of {DISPATCH_MODES}, got {dispatch!r}"
            )
        if stall_timeout_s is not None and stall_timeout_s <= 0:
            raise ServiceError(
                f"stall_timeout_s must be > 0, got {stall_timeout_s}"
            )
        self.spec = spec
        self.workers = int(workers)
        self.dispatch = dispatch
        self.grace_s = float(grace_s)
        self.stall_timeout_s = stall_timeout_s
        self.retry_backoff_s = float(retry_backoff_s)
        self._fault_plan = fault_plan
        self._ctx = mp.get_context(start_method)
        self._external_relay = relay is not None
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
        # thread removes on completion.  ``_finished`` is the dedup set:
        # ids that completed, failed, or deadlined — late messages for
        # them are dropped.
        self._tasks_lock = threading.Lock()
        self._tasks: dict[int, Task] = {}
        self._finished: set[int] = set()
        self._deadline_at: dict[int, float] = {}
        self._slots: dict[int, int] = {}
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
        self._dead_handled: set[int] = set()
        self._per_worker_done = [0] * self.workers
        self._retry_heap: list[tuple[float, int, Task]] = []
        self._retry_seq = 0
        self._claim_seen: dict[int, tuple[int, float]] = {}

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
        return self._task_queues[0 if self.dispatch == "steal"
                                 else wid]

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
                    self._put_relay(
                        ("corrupt", None, None, describe_error(exc))
                    )
                return
            self._put_relay(message)

    def _put_relay(self, message) -> None:
        self._relay.put((self, message) if self._external_relay
                        else message)

    # -- submission ----------------------------------------------------------
    def submit(self, task: Task, worker: int | None = None) -> int:
        """Queue a task; with ``dispatch="static"`` it goes to ``worker``'s
        private queue (required), with ``"steal"`` to the shared one
        (``worker`` must be omitted).  Thread-safe.
        """
        if not self._started or self._closed:
            raise ServiceError("pool is not running")
        if self.dispatch == "static":
            if worker is None:
                raise ServiceError(
                    "static dispatch needs an explicit worker slot"
                )
            if not 0 <= worker < self.workers:
                raise ServiceError(
                    f"worker must be in [0, {self.workers}), got {worker}"
                )
        elif worker is not None:
            raise ServiceError(
                "work-stealing dispatch does not pin tasks to workers"
            )
        with self._tasks_lock:
            if task.task_id in self._tasks:
                raise ServiceError(
                    f"task id {task.task_id} is already outstanding"
                )
            self._finished.discard(task.task_id)
            self._tasks[task.task_id] = task
            self._submitted += 1
            if task.deadline_s is not None:
                self._deadline_at[task.task_id] = (
                    time.monotonic() + task.deadline_s
                )
            if self.dispatch == "static":
                self._slots[task.task_id] = worker
        target = self._task_queues[0 if self.dispatch == "steal" else worker]
        target.put(task)
        return task.task_id

    def task_for(self, task_id: int) -> Task | None:
        with self._tasks_lock:
            return self._tasks.get(task_id)

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet completed or failed."""
        with self._tasks_lock:
            return len(self._tasks)

    # -- message consumption (single consumer thread) ------------------------
    def get_message(self, timeout: float = POLL_INTERVAL_S):
        """Next relayed message, or ``None`` on timeout (only valid for
        pools that own their relay; daemon pools share an external one
        and the collector reads it directly)."""
        if self._external_relay:
            raise ServiceError(
                "pool uses an external relay; read messages from it"
            )
        try:
            return self._relay.get(timeout=timeout)
        except queue_mod.Empty:
            return None

    def observe(self, message) -> bool:
        """Fold one message into liveness/progress state.  The consumer
        must call this for every message before acting on it.

        Returns ``False`` when the message is a *stale duplicate*: an
        ``ok``/``error`` for a task that already finished, failed, or
        deadlined (a retry's late sibling, or a result that outlived its
        deadline).  The consumer must not act on a stale message — this
        is the exactly-once half of the at-least-once contract.

        Any message from a worker resets its crash-suspicion window —
        a finished worker slowly draining large mask payloads is alive,
        not crashed.
        """
        kind, wid, task_id, _ = message
        if wid is None:
            return True
        self._dead_since.pop(wid, None)
        if kind == "ready":
            self._ready.add(wid)
        elif kind in ("ok", "error"):
            with self._tasks_lock:
                task = self._tasks.pop(task_id, None)
                if task is None:
                    self._duplicates += 1
                    return False
                self._finished.add(task_id)
                self._deadline_at.pop(task_id, None)
                self._slots.pop(task_id, None)
                if kind == "ok":
                    self._completed += 1
                else:
                    self._failed += 1
            if kind == "ok" and 0 <= wid < self.workers:
                self._per_worker_done[wid] += 1
        elif kind == "exit":
            self._exited.add(wid)
        return True

    def check_dead(self) -> list[DeadWorker]:
        """Workers whose processes died without a clean ``exit`` and
        whose grace window (since their *last* message) has elapsed.
        Each dead worker is reported exactly once (``revive`` re-arms
        its slot).

        A claimed task with retry budget left is **re-enqueued** (after
        an exponential backoff, via :meth:`pump`) and the verdict says
        ``requeued=True``; out of budget, the task is failed for good.
        """
        now = time.monotonic()
        verdicts = []
        for wid, proc in enumerate(self._procs):
            if (
                proc is None
                or wid in self._exited
                or wid in self._dead_handled
                or proc.exitcode is None
            ):
                continue
            first_seen = self._dead_since.setdefault(wid, now)
            if now - first_seen < self.grace_s:
                continue
            self._dead_handled.add(wid)
            self._claim_seen.pop(wid, None)
            claimed = self._claims[wid]
            task = None
            requeued = False
            if claimed != NO_CLAIM:
                with self._tasks_lock:
                    task = self._tasks.get(claimed)
                    if task is not None and task.attempt < task.retries:
                        requeued = True
                        self._retried += 1
                        # One object for both registry and heap: pump's
                        # identity check drops a heap entry whose task
                        # was superseded (deadline, later retry).
                        bumped = replace(task, attempt=task.attempt + 1)
                        self._tasks[claimed] = bumped
                    elif task is not None:
                        self._tasks.pop(claimed)
                        self._finished.add(claimed)
                        self._deadline_at.pop(claimed, None)
                        self._slots.pop(claimed, None)
                        self._failed += 1
                if requeued:
                    delay = self.retry_backoff_s * (2 ** task.attempt)
                    self._retry_seq += 1
                    heapq.heappush(
                        self._retry_heap,
                        (now + delay, self._retry_seq, bumped),
                    )
            verdicts.append(
                DeadWorker(worker_id=wid, exitcode=proc.exitcode,
                           task=task, requeued=requeued)
            )
        return verdicts

    def pump(self) -> list[TaskEvent]:
        """Advance retry and deadline state; the consumer calls this on
        every loop iteration (messages and timeouts alike).

        Three scans, all cheap when idle:

        1. Re-dispatch retried tasks whose backoff elapsed.
        2. Fail tasks whose wall-clock deadline elapsed (returned as
           ``TaskEvent("deadline", task)``; late results are deduped).
        3. Kill workers whose claim has sat unchanged for longer than
           ``stall_timeout_s`` — the death then flows through
           :meth:`check_dead` and the retry path like any crash.
        """
        now = time.monotonic()
        events: list[TaskEvent] = []
        # 1. backoffs that came due
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, task = heapq.heappop(self._retry_heap)
            with self._tasks_lock:
                live = self._tasks.get(task.task_id) is task
                slot = self._slots.get(task.task_id, 0)
            if not live:
                continue  # deadlined (or otherwise finished) while waiting
            target = self._task_queues[
                0 if self.dispatch == "steal" else slot
            ]
            target.put(task)
        # 2. elapsed deadlines
        expired: list[Task] = []
        with self._tasks_lock:
            for task_id, due_at in list(self._deadline_at.items()):
                if now < due_at:
                    continue
                task = self._tasks.pop(task_id, None)
                del self._deadline_at[task_id]
                self._slots.pop(task_id, None)
                if task is None:
                    continue
                self._finished.add(task_id)
                self._deadline_failed += 1
                self._failed += 1
                expired.append(task)
        events.extend(TaskEvent("deadline", task) for task in expired)
        # 3. stalled claims
        if self.stall_timeout_s is not None:
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
        return events

    def revive(self, worker_id: int) -> None:
        """Replace a dead worker's process so the pool keeps serving.

        The replacement rebuilds its engine from the same spec (warming
        from the shared spectra store, so the rebuild is cheap) and
        pulls from the same queue(s) — queued tasks are unaffected.
        """
        if not 0 <= worker_id < self.workers:
            raise ServiceError(f"no worker slot {worker_id}")
        old = self._procs[worker_id]
        if old is not None and old.exitcode is None:
            raise ServiceError(
                f"worker {worker_id} is still alive; nothing to revive"
            )
        self._dead_since.pop(worker_id, None)
        self._dead_handled.discard(worker_id)
        self._exited.discard(worker_id)
        self._ready.discard(worker_id)
        self._claim_seen.pop(worker_id, None)
        self._claims[worker_id] = NO_CLAIM
        self._generation[worker_id] += 1
        self._procs[worker_id] = self._spawn(worker_id)
        self._revived += 1

    # -- teardown ------------------------------------------------------------
    def shutdown(self, graceful: bool = True, timeout: float = 5.0) -> None:
        """Stop the pool.  ``graceful=True`` sends one shutdown sentinel
        per worker (FIFO after all queued tasks, so workers drain the
        queue first) and waits; either way every process is down and the
        queues are closed when this returns.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if graceful and self._started:
            if self.dispatch == "steal":
                for wid in range(self.workers):
                    if wid not in self._exited:
                        self._task_queues[0].put(None)
            else:
                for wid, task_queue in enumerate(self._task_queues):
                    if wid not in self._exited:
                        task_queue.put(None)
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
