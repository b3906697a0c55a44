"""Persistent worker-pool fan-out for experiment sweeps.

Sweeps, policy suites and fault matrices run many *independent*
simulations — one per fan level, one per policy, one per scenario. Each
is CPU-bound in LAPACK/SuperLU calls, so processes (not threads) are the
right isolation. The runtime is a **persistent process pool**
(:class:`WorkerPool`) with one contract:

* **Workers live across a whole sweep** (and across ``map`` calls when
  the pool is shared): one spawn + import per worker, amortized over
  every task it runs. ``spawn`` start method always — fork would
  duplicate parent state (telemetry sessions, factorization caches) and
  is unavailable on some platforms.
* **Warm shared context**: a task function may be split into
  ``fn(context, payload)``. The context (typically the engine + system,
  whose thermal caches key on the exact actuator keys of
  :mod:`repro.thermal.keys`) ships to each worker **once** and is
  reused, object-identical, by every subsequent task on that worker —
  so propagator and LU caches stay warm between tasks exactly as
  they do across a serial loop. Context mutations must therefore be
  result-invariant (memoization only); that is the same contract the
  serial path already imposes, which shares one context object across
  all tasks.
* **Results ride the pipe**: a worker pickles its result inside the
  task's ``try`` (so an unpicklable result fails that task, not the
  worker) and the parent unpickles it into arrays it owns and may
  write.
* Results come back **in payload order** regardless of completion
  order, and serial (``jobs=1``) results are bit-identical to pooled
  results — the drop-in-replacement contract every driver relies on.
* **Failures raise**: ``timeout_s`` kills an attempt at its deadline and
  replaces the worker (the pool keeps its capacity; other tasks are
  unaffected), ``retries`` re-dispatches failed or timed-out attempts
  with exponential backoff, and once every task has settled the pool
  raises one :class:`ParallelExecutionError` naming each task that
  exhausted its attempts, with its worker traceback (a custom exception
  type may fail to unpickle in the parent; a traceback string never
  does). ``parallel.retries`` and ``parallel.timeouts`` count the
  degraded attempts.
* ``jobs=None`` or ``jobs=1`` runs serially in-process (no pool, no
  pickling) so the flag can be threaded through unconditionally; there
  a task whose attempts run out re-raises its original exception.

Telemetry: when the parent has an active session, each worker keeps one
long-lived session object reused across tasks
(:class:`repro.obs.merge.PersistentWorkerSession`) and ships per-task
aggregate captures back alongside results; the parent folds them in
deterministically, in task-index order, under ``worker=<task index>``
labels (:mod:`repro.obs.merge`). A ``--jobs N`` sweep's merged counters
equal the serial run's exactly for every deterministic counter. Worker
*events* are not shipped (aggregates only); they are accounted in
``parallel.worker_events_dropped``, and each merged capture increments
``parallel.worker_sessions``. The pool itself counts
``parallel.pool_tasks`` (tasks settled by a pool) and
``parallel.worker_cache_warm_hits`` (tasks that found their context
already materialized on the worker).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import multiprocessing.connection
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exceptions import ParallelExecutionError
from repro.obs import telemetry as obs

__all__ = [
    "ParallelExecutionError",
    "WorkerPool",
    "parallel_map",
    "resolve_jobs",
]

#: Environment override for the default worker count (CLI ``--jobs 0``
#: and drivers called with ``jobs=0`` resolve through this, then the
#: process's CPU affinity mask).
JOBS_ENV_VAR = "TECFAN_JOBS"

#: Environment defaults for the resilience knobs, so deep drivers that
#: only thread ``jobs`` through still honor a sweep-wide policy (the CLI
#: ``--job-timeout-s`` / ``--job-retries`` flags set these).
TIMEOUT_ENV_VAR = "TECFAN_JOB_TIMEOUT_S"
RETRIES_ENV_VAR = "TECFAN_JOB_RETRIES"

#: Delay before a task's first retry [s]; each later retry doubles it.
BACKOFF_S = 0.1

#: The pool scheduler's clock: every deadline and backoff read in
#: :meth:`WorkerPool.map` goes through it, so tests can substitute a
#: fake clock instead of waiting on real deadlines.
_clock = time.monotonic


def _env_number(name: str, cast, minimum=None):
    """Environment variable ``name`` as a ``cast`` number, or ``None``
    when unset or blank. A value that does not parse, or lies below
    ``minimum``, is a configuration error naming the variable."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = cast(raw)
    except ValueError:
        value = None
    if value is None or (minimum is not None and value < minimum):
        raise ParallelExecutionError([(-1, f"invalid {name}={raw!r}")])
    return value


def _resolve_timeout(timeout_s: float | None) -> float | None:
    if timeout_s is not None:
        return float(timeout_s)
    value = _env_number(TIMEOUT_ENV_VAR, float)
    return value if value is not None and value > 0 else None


def _resolve_retries(retries: int | None) -> int:
    if retries is not None:
        return max(0, int(retries))
    return _env_number(RETRIES_ENV_VAR, int, minimum=0) or 0


def available_cpus() -> int:
    """CPUs this *process* may use: the affinity mask where the OS has
    one (cgroup/container-limited CI included), else ``os.cpu_count()``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux platforms
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value to an effective worker count.

    ``None`` or ``1`` mean serial (returns 1). ``0`` means "auto": the
    ``TECFAN_JOBS`` environment variable if set, else the process's CPU
    affinity mask (:func:`available_cpus` — not raw ``os.cpu_count()``,
    so a cgroup-limited container never oversubscribes the pool).
    Negative values, in the argument or in ``TECFAN_JOBS``, are a
    configuration error.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ParallelExecutionError([(-1, f"invalid jobs value {jobs}")])
    if jobs == 0:
        env = _env_number(JOBS_ENV_VAR, int, minimum=0)
        return available_cpus() if env is None else max(1, env)
    return jobs


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Long-lived worker loop: recv tasks, keep context + session warm.

    Protocol (parent -> worker):

    - ``("ctx", token, blob)`` — install a shared context (unpickled
      once, reused by every subsequent task carrying ``token``);
    - ``("task", task_id, fn, payload, token, capture)`` — run one task
      (``fn(context, payload)`` when ``token`` is not None, else
      ``fn(payload)``); ``capture`` asks for a telemetry capture;
    - ``("stop",)`` — exit cleanly.

    Worker -> parent:

    - ``("ok", task_id, pickled_result, wtel, warm)``;
    - ``("err", task_id, traceback_text, warm)``.
    """
    from repro.obs.merge import PersistentWorkerSession

    session = PersistentWorkerSession()
    ctx_token = None
    ctx_obj = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = msg[0]
        if op == "stop":
            break
        if op == "ctx":
            ctx_token = msg[1]
            ctx_obj = pickle.loads(msg[2])
            continue
        _, task_id, fn, payload, token, capture = msg
        warm = token is not None and token == ctx_token
        try:
            if token is not None and token != ctx_token:
                raise RuntimeError(
                    f"pool protocol error: context {token} not installed"
                )
            if token is not None:
                bound_fn, bound_payload = fn, payload

                def call(f=bound_fn, p=bound_payload, c=ctx_obj):
                    return f(c, p)

            else:

                def call(f=fn, p=payload):
                    return f(p)

            if capture:
                result, wtel = session.run(call)
            else:
                result, wtel = call(), None
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            reply = ("ok", task_id, blob, wtel, warm)
        except BaseException:
            reply = ("err", task_id, traceback.format_exc(), warm)
        try:
            conn.send(reply)
        except BaseException:  # parent went away
            break
    conn.close()


def _prime_task(_payload) -> None:
    """No-op task used by :meth:`WorkerPool.prime` to force imports."""
    return None


def _merge_worker(index: int, wtel) -> None:
    """Fold one worker capture into the parent's active session."""
    tel = obs.get_telemetry()
    if tel is None or wtel is None:
        return
    tel.merge(wtel, label=f"worker={index}")
    tel.metrics.counter("parallel.worker_sessions").inc(1)
    tel.metrics.counter("parallel.worker_events_dropped").inc(
        wtel.events_discarded
    )


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
@dataclass
class _PoolWorker:
    """One live worker process and its dispatch state."""

    proc: mp.process.BaseProcess
    conn: mp.connection.Connection
    #: Context token currently materialized in the worker.
    ctx_token: int | None = None
    #: In-flight dispatch: ``(task_id, index, attempt, deadline)``.
    task: tuple | None = field(default=None)


class WorkerPool:
    """Persistent spawn-process pool with warm context reuse.

    Workers are spawned lazily (at most ``jobs``), live until
    :meth:`close`, and keep both their interpreter (imports) and any
    installed shared context — with all its thermal caches — warm
    between tasks and between :meth:`map` calls. Use as a context
    manager, or pass an instance to :func:`parallel_map` via ``pool=``
    to share one fleet across several batches::

        with WorkerPool(16) as pool:
            pool.prime()                     # spawn + import now
            a = pool.map(fn, batch_a, context=engine_a)
            b = pool.map(fn, batch_b, context=engine_b)
    """

    def __init__(self, jobs: int = 0):
        self.jobs = resolve_jobs(jobs)
        self._mp = mp.get_context("spawn")
        self._idle: list[_PoolWorker] = []
        self._busy: list[_PoolWorker] = []
        self._ctx_tokens = itertools.count(1)
        self._task_ids = itertools.count()
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def n_workers(self) -> int:
        """Live worker processes (idle + busy)."""
        return len(self._idle) + len(self._busy)

    def _spawn(self) -> _PoolWorker:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        proc = self._mp.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return _PoolWorker(proc=proc, conn=parent_conn)

    def _ensure_workers(self, want: int) -> None:
        while self.n_workers < min(want, self.jobs):
            self._idle.append(self._spawn())

    def _retire(self, worker: _PoolWorker, kill: bool = False) -> None:
        """Remove a worker from the pool (killing it if asked)."""
        if worker in self._busy:
            self._busy.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)
        if kill:
            worker.proc.kill()
        worker.proc.join()
        if not worker.conn.closed:
            worker.conn.close()

    def prime(self) -> int:
        """Spawn every worker now and round-trip a no-op task through
        each, so interpreter start-up and package imports are paid
        before the first real batch. Returns the worker count."""
        self._ensure_workers(self.jobs)
        self.map(_prime_task, list(range(self.n_workers)), capture=False)
        return self.n_workers

    def close(self) -> None:
        """Stop every worker. Idle workers get a polite stop and a
        join-with-timeout; stragglers (and any still-busy worker) are
        killed, and each pipe closes exactly once — so a mid-sweep
        ``KeyboardInterrupt`` arriving through ``__exit__`` leaves no
        worker behind. Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        busy = list(self._busy)
        idle = list(self._idle)
        self._busy.clear()
        self._idle.clear()
        for worker in busy:
            worker.proc.kill()
        for worker in idle:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in busy + idle:
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - defensive
                worker.proc.kill()
                worker.proc.join()
            if not worker.conn.closed:
                worker.conn.close()

    # -- scheduling ----------------------------------------------------
    def map(
        self,
        fn: Callable,
        payloads: Sequence,
        *,
        context=None,
        timeout_s: float | None = None,
        retries: int | None = None,
        capture: bool | None = None,
        on_result: Callable | None = None,
        status=None,
    ) -> list:
        """``[fn(p) for p in payloads]`` (or ``fn(context, p)``) across
        the pool's workers; results in payload order.

        See :func:`parallel_map` for parameter semantics — this is its
        pooled engine. ``capture`` overrides the telemetry-capture
        decision (default: capture iff the parent has a session).
        ``on_result(index, value)`` fires the moment each task's result
        is decoded — in *completion* order, not payload order — so a
        journal can persist progress before the batch finishes.

        ``status`` is an optional ``pool``
        :class:`repro.obs.live.StatusReporter`; its heartbeats
        piggyback the pipes the scheduler already watches (every
        dispatch and every reply feeds the per-worker rows — no extra
        protocol messages), and the scheduler's wait is capped at the
        status cadence so a heartbeat lands even while every worker is
        deep in a long task.
        """
        if self._closed:
            raise ParallelExecutionError([(-1, "pool is closed")])
        payloads = list(payloads)
        timeout_s = _resolve_timeout(timeout_s)
        retries = _resolve_retries(retries)
        if capture is None:
            capture = obs.get_telemetry() is not None

        token = None
        ctx_blob = None
        if context is not None:
            token = next(self._ctx_tokens)
            ctx_blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)

        results: list = [None] * len(payloads)
        failures: list[tuple[int, str]] = []
        # Captures keyed by task index: completion order is
        # nondeterministic, so merging is deferred to task-index order.
        captured: dict[int, object] = {}
        # (index, attempt, not_before) — FIFO except for backoff holds.
        queue: deque = deque((i, 0, 0.0) for i in range(len(payloads)))
        pending = len(payloads)

        def settle(index: int, attempt: int, kind: str, detail: str) -> None:
            """A failed attempt: schedule a retry or record the failure."""
            nonlocal pending
            if attempt < retries:
                obs.incr("parallel.retries")
                if status is not None:
                    status.tasks["retries"] += 1
                not_before = _clock() + BACKOFF_S * (2.0**attempt)
                queue.append((index, attempt + 1, not_before))
                return
            pending -= 1
            obs.incr("parallel.pool_tasks")
            if status is not None:
                status.tasks["failed"] += 1
            failures.append((index, f"[{kind}] {detail}"))

        def dispatch(worker: _PoolWorker, index: int, attempt: int) -> bool:
            """Send one task; False (and re-queue) if the worker died."""
            try:
                if token is not None and worker.ctx_token != token:
                    worker.conn.send(("ctx", token, ctx_blob))
                    worker.ctx_token = token
                task_id = next(self._task_ids)
                worker.conn.send(
                    ("task", task_id, fn, payloads[index], token, capture)
                )
            except (BrokenPipeError, OSError):
                if status is not None:
                    status.worker_retired(worker.proc.pid)
                self._retire(worker, kill=True)
                queue.appendleft((index, attempt, 0.0))
                return False
            worker.task = (
                task_id,
                index,
                attempt,
                _clock() + timeout_s if timeout_s is not None else None,
            )
            self._busy.append(worker)
            if status is not None:
                status.worker_dispatch(worker.proc.pid, index)
            return True

        try:
            while pending > 0:
                self._ensure_workers(len(queue) + len(self._busy))
                now = _clock()
                held = []
                while queue and self._idle:
                    index, attempt, not_before = queue.popleft()
                    if not_before > now:
                        held.append((index, attempt, not_before))
                        continue
                    dispatch(self._idle.pop(), index, attempt)
                queue.extend(held)

                if status is not None and status.due():
                    status.report(in_flight=len(self._busy), queued=len(queue))

                if not self._busy:
                    if not queue:  # pragma: no cover - settled via retire
                        break
                    # Everything pending is in a backoff hold.
                    next_up = min(nb for _, _, nb in queue)
                    time.sleep(max(0.0, next_up - _clock()))
                    continue

                # Wake at the next deadline or the end of the next hold.
                wake = [w.task[3] for w in self._busy if w.task[3] is not None]
                wake += [nb for _, _, nb in queue if nb > now]
                wait_s = max(0.0, min(wake) - _clock()) if wake else None
                if status is not None:
                    # Cap the block so a heartbeat still lands while
                    # every worker is deep inside a long task.
                    wait_s = (
                        status.cadence.every_s
                        if wait_s is None
                        else min(wait_s, status.cadence.every_s)
                    )
                ready = mp.connection.wait(
                    [w.conn for w in self._busy], timeout=wait_s
                )

                now = _clock()
                for worker in list(self._busy):
                    task_id, index, attempt, deadline = worker.task
                    if worker.conn in ready:
                        try:
                            msg = worker.conn.recv()
                        except (EOFError, OSError):
                            msg = None
                        if msg is None:
                            if status is not None:
                                status.worker_retired(worker.proc.pid)
                            self._retire(worker)
                            settle(
                                index,
                                attempt,
                                "died",
                                f"worker exited with code "
                                f"{worker.proc.exitcode} before reporting "
                                "a result",
                            )
                            continue
                        worker.task = None
                        self._busy.remove(worker)
                        self._idle.append(worker)
                        if status is not None:
                            status.worker_reply(worker.proc.pid)
                        if msg[0] == "ok":
                            _, _, blob, wtel, warm = msg
                            results[index] = pickle.loads(blob)
                            if on_result is not None:
                                on_result(index, results[index])
                            pending -= 1
                            obs.incr("parallel.pool_tasks")
                            if status is not None:
                                status.tasks["done"] += 1
                            if warm:
                                obs.incr("parallel.worker_cache_warm_hits")
                            if wtel is not None:
                                captured[index] = wtel
                        else:
                            settle(index, attempt, "error", msg[2])
                    elif deadline is not None and now >= deadline:
                        obs.incr("parallel.timeouts")
                        if status is not None:
                            status.tasks["timeouts"] += 1
                            status.worker_retired(worker.proc.pid)
                        self._retire(worker, kill=True)
                        settle(
                            index,
                            attempt,
                            "timeout",
                            f"attempt exceeded {timeout_s:g} s deadline",
                        )
        except BaseException:
            # Unexpected escape: drop in-flight workers so a stale reply
            # can never leak into a later map() on a reused pool.
            for worker in list(self._busy):
                self._retire(worker, kill=True)
            raise

        for index in sorted(captured):
            _merge_worker(index, captured[index])
        if failures:
            failures.sort(key=lambda f: f[0])
            raise ParallelExecutionError(failures)
        return results


# ----------------------------------------------------------------------
# The drop-in map front end
# ----------------------------------------------------------------------
def parallel_map(
    fn: Callable,
    payloads: Sequence,
    jobs: int | None = None,
    *,
    context=None,
    timeout_s: float | None = None,
    retries: int | None = None,
    pool: WorkerPool | None = None,
    journal=None,
    status_path=None,
    status_every_s: float = 1.0,
    status_meta: dict | None = None,
) -> list:
    """``[fn(p) for p in payloads]`` across persistent worker processes.

    Parameters
    ----------
    fn:
        A module-level (spawn-picklable) function. Called ``fn(payload)``
        without a context, ``fn(context, payload)`` with one.
    payloads:
        Picklable task inputs; one worker call each.
    jobs:
        Worker count: ``None``/``1`` serial in-process, ``0`` auto
        (``TECFAN_JOBS`` env var, else the CPU affinity mask), ``N > 1``
        that many pooled workers.
    context:
        Optional shared input shipped to each worker **once** and
        reused warm across its tasks (see the module docstring's
        cache-reuse contract). The serial path shares the same context
        object across all tasks, so semantics match exactly.
    timeout_s:
        Per-attempt wall-clock deadline measured from dispatch; an
        attempt still running at the deadline is killed with its worker
        (``parallel.timeouts`` counter) — the pool replaces the worker
        and carries on. ``None`` defers to ``TECFAN_JOB_TIMEOUT_S``
        (unset or <= 0 means no deadline). Serial runs cannot be
        interrupted, so the deadline only applies with ``jobs > 1``.
    retries:
        Extra attempts per task after the first fails or times out, with
        exponential backoff (:data:`BACKOFF_S` ``* 2**attempt``); each
        re-dispatch increments ``parallel.retries``. ``None`` defers to
        ``TECFAN_JOB_RETRIES`` (default 0).
    pool:
        An existing :class:`WorkerPool` to run on (kept open, so its
        workers — and their warm contexts — survive for the next call).
        Without one, a private pool is created and closed around this
        call.
    journal:
        A :class:`repro.journal.TaskJournal`. Payload indices already
        present in the journal are skipped (their journaled results are
        returned directly, ``journal.tasks_skipped`` counts them) and
        every fresh success is journaled the moment it lands — so a
        driver killed mid-sweep, or a fan-out that raised, re-runs only
        the missing tasks on resume.
    status_path:
        Optional live-status sidecar for ``tecfan top``
        (:mod:`repro.obs.live`): the fan-out writes heartbeat snapshots
        there every ``status_every_s`` wall-seconds — per-worker rows,
        settled/in-flight/queued counts, and (with a journal) which
        cells were replayed rather than re-run. ``status_meta``
        annotates the snapshot: its ``label`` is the display name and
        its ``journal`` the journal path shown.

    Returns
    -------
    Results in payload order — bit-identical to the serial run.

    Raises
    ------
    ParallelExecutionError
        Pooled: after every task settled, if any task exhausted its
        attempts; it names each such task with its traceback. Serial: a
        task whose attempts run out re-raises its original exception.
    """
    payloads = list(payloads)
    todo = range(len(payloads))
    done: dict = {}
    on_result = None
    if journal is not None:
        done = {
            k: v
            for k, v in journal.tasks.items()
            if isinstance(k, int) and 0 <= k < len(payloads)
        }
        todo = [i for i in todo if i not in done]
        obs.incr("journal.tasks_skipped", len(done))

        def on_result(sub_index: int, value) -> None:
            journal.record_task(todo[sub_index], value)

    status = None
    if status_path is not None:
        from repro.obs.live import StatusReporter

        meta = status_meta or {}
        # Only the ``todo`` cells are dispatched; ``cells`` maps each
        # dispatched index back to the caller's cell numbering.
        status = StatusReporter(
            status_path,
            "pool",
            every_s=status_every_s,
            label=meta.get("label", "pool"),
            total=len(payloads),
            journal=meta.get("journal"),
            cells=todo,
            replayed=sorted(done),
        )
    batch = [payloads[i] for i in todo]
    n = pool.jobs if pool is not None else resolve_jobs(jobs)
    timeout_s = _resolve_timeout(timeout_s)
    retries = _resolve_retries(retries)

    try:
        if n <= 1 or len(batch) <= 1:
            ran = _serial_map(fn, batch, retries, context, on_result, status)
        else:
            kwargs = dict(
                context=context,
                timeout_s=timeout_s,
                retries=retries,
                on_result=on_result,
                status=status,
            )
            if pool is not None:
                ran = pool.map(fn, batch, **kwargs)
            else:
                with WorkerPool(n) as private:
                    ran = private.map(fn, batch, **kwargs)
    finally:
        if status is not None:
            status.report(done=True)
    if journal is None:
        return ran
    results = [None] * len(payloads)
    for index, value in done.items():
        results[index] = value
    for index, value in zip(todo, ran):
        results[index] = value
    return results


def _serial_map(
    fn: Callable,
    payloads: list,
    retries: int,
    context=None,
    on_result: Callable | None = None,
    status=None,
) -> list:
    """In-process execution: retries apply, deadlines cannot. A task
    whose attempts run out re-raises its original exception.

    With a ``status`` reporter the parent process itself shows up as
    the single "worker" row, so ``tecfan top`` works identically on
    serial and pooled fan-outs.
    """
    pid = os.getpid()
    results: list = []
    for i, p in enumerate(payloads):
        if status is not None:
            status.worker_dispatch(pid, i)
            if status.due():
                status.report(in_flight=1, queued=len(payloads) - i - 1)
        for attempt in range(retries + 1):
            try:
                value = fn(p) if context is None else fn(context, p)
                break
            except Exception:
                if attempt == retries:
                    if status is not None:
                        status.worker_reply(pid)
                        status.tasks["failed"] += 1
                    raise
                obs.incr("parallel.retries")
                if status is not None:
                    status.tasks["retries"] += 1
                time.sleep(BACKOFF_S * (2.0**attempt))
        results.append(value)
        if status is not None:
            status.worker_reply(pid)
            status.tasks["done"] += 1
        if on_result is not None:
            on_result(i, value)
    return results
