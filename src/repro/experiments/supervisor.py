"""Supervised worker pool: the Runner's one parallel execution backend.

A :class:`SupervisedPool` keeps up to ``workers`` long-lived child
processes.  Each is forked lazily and runs jobs one at a time over its
own pipe, so one death affects exactly one job while the next job lands
on a warm worker.  A worker is replaced only when it crashes, is killed
at the wall-clock limit, or reports a ``MemoryError`` from its
address-space cap.  Around that fleet the pool adds:

* **resource limits** — a wall-clock deadline per job (over-budget
  workers are SIGTERM/SIGKILLed and reaped) and an optional ``RLIMIT_AS``
  cap per worker, which turns a runaway allocation into a clean
  ``MemoryError`` result;
* **crash/hang handling with a bounded retry budget** — a job whose
  worker dies without reporting is retried on a fresh worker with
  exponential backoff up to ``retries`` times (crashes are
  nondeterministic from the job's point of view); a job past its wall
  budget is reported as a structured ``Timeout``, never retried;
* **a per-spec circuit breaker** — ``breaker_threshold`` consecutive
  worker deaths for one spec key short-circuit further attempts to a
  structured ``CircuitOpen`` error *without dispatching the job*; after
  ``breaker_cooldown_s`` one half-open probe is admitted;
* **health-gated degradation** — when the worker-death ratio over a
  window of outcomes crosses ``degrade_crash_ratio`` the pool halves
  its concurrency and reports itself unhealthy (``/healthz?ready=1`` →
  503); a clean window grows it back one step.

Any thread may :meth:`~SupervisedPool.submit` a spec and get a
:class:`concurrent.futures.Future` back.  One scheduler thread runs the
loop: it blocks in :func:`multiprocessing.connection.wait` on the job
pipes, the process sentinels and a wake pipe that every submit writes
to, woken early only by the nearest wall deadline or retry time.
:meth:`SupervisedPool.run_wave` submits a batch and waits for all of
it.  :meth:`SupervisedPool.close` reaps the idle workers.

Determinism: supervision decides *whether and when* a job runs, never
how — a completed job's result is bit-identical to the serial path's.
Chaos arguments and the trace context travel with each job, not with
the worker, so :mod:`repro.faults.harness` profiles inject seeded
crashes/hangs per (job, attempt) for the recovery tests and the CI
harness-chaos smoke.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
import os
import signal
import stat
import threading
import time
import weakref
from collections import Counter, deque, namedtuple
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.driver import RunResult
from repro.faults.harness import HarnessChaos

#: breaker states (also the label values of the serve-layer gauges)
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervised pool (never part of cache keys —
    supervision shapes scheduling, not results)."""

    #: max concurrent worker processes (0 = the Runner's CPU-capped
    #: ``jobs``; a bare pool uses one per available CPU)
    workers: int = 0
    #: per-job wall-clock budget in seconds (None = unlimited)
    wall_limit_s: Optional[float] = 300.0
    #: per-worker address-space cap in MiB, applied in the child via
    #: ``RLIMIT_AS`` (None = unlimited)
    rss_limit_mb: Optional[int] = None
    #: crash retries per job (hangs and deterministic errors never retry)
    retries: int = 2
    #: first-retry backoff in seconds; doubles per attempt
    retry_backoff_s: float = 0.25
    #: consecutive worker deaths on one spec key that open its breaker
    breaker_threshold: int = 3
    #: seconds an open breaker waits before admitting a half-open probe
    breaker_cooldown_s: float = 30.0
    #: sliding window of final outcomes feeding the health gate
    degrade_window: int = 8
    #: worker-death ratio over a full window that triggers degradation
    degrade_crash_ratio: float = 0.5
    #: harness chaos profile + seed (tests / chaos smokes only)
    chaos_profile: Optional[str] = None
    chaos_seed: int = 1

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = auto)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.degrade_window < 1:
            raise ValueError("degrade_window must be >= 1")
        if not 0.0 < self.degrade_crash_ratio <= 1.0:
            raise ValueError("degrade_crash_ratio must be in (0, 1]")
        for name in ("retry_backoff_s", "breaker_cooldown_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.wall_limit_s is not None and self.wall_limit_s <= 0:
            raise ValueError("wall_limit_s must be > 0 (or None)")
        if self.rss_limit_mb is not None and self.rss_limit_mb < 1:
            raise ValueError("rss_limit_mb must be >= 1 (or None)")

    def chaos(self) -> Optional[HarnessChaos]:
        if self.chaos_profile is None:
            return None
        return HarnessChaos.from_profile(self.chaos_profile,
                                         seed=self.chaos_seed)


class CircuitBreaker:
    """Per-key closed → open → half-open breaker.

    ``allow(key)`` gates execution; ``record_failure``/``record_success``
    drive transitions.  The clock is injectable so tests can step time.
    """

    def __init__(self, threshold: int, cooldown_s: float,
                 clock: Callable[[], float] = time.monotonic):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self._failures: Dict[str, int] = {}
        self._opened_at: Dict[str, float] = {}
        self.trips = 0

    def state(self, key: str) -> str:
        opened_at = self._opened_at.get(key)
        if opened_at is None:
            return CLOSED
        if self.clock() - opened_at >= self.cooldown_s:
            return HALF_OPEN
        return OPEN

    def allow(self, key: str) -> bool:
        """May this key run now?  Closed and half-open admit; open
        blocks.  Side-effect free: callers run at most one attempt per
        key at a time, so a half-open probe needs no reservation."""
        return self.state(key) != OPEN

    def record_failure(self, key: str) -> bool:
        """Count one worker death; returns True when this call trips
        (or, for a failed half-open probe, re-trips) the breaker."""
        if key in self._opened_at:       # failed probe: straight back open
            self._opened_at[key] = self.clock()
            self.trips += 1
            return True
        count = self._failures.get(key, 0) + 1
        self._failures[key] = count
        if count >= self.threshold:
            self._opened_at[key] = self.clock()
            self.trips += 1
            return True
        return False

    def record_success(self, key: str) -> None:
        self._failures.pop(key, None)
        self._opened_at.pop(key, None)

    def state_counts(self) -> Dict[str, int]:
        counts = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        for key in list(self._opened_at):
            counts[OPEN if self.state(key) == OPEN else HALF_OPEN] += 1
        return counts

    @property
    def open_keys(self) -> List[str]:
        return [key for key in list(self._opened_at)
                if self.state(key) == OPEN]


def error_result(spec, kind: str, message: str,
                 attempts: int = 1) -> RunResult:
    """Structured per-spec failure record, in-process or pooled (never
    cached or memoized upstream)."""
    return RunResult(
        workload=spec.workload, mode=spec.mode, n_cmps=spec.n_cmps,
        exec_cycles=0, policy=spec.policy,
        error={"type": kind, "message": message, "attempts": attempts,
               "spec": spec.label()})


# ----------------------------------------------------------------------
# Worker child
# ----------------------------------------------------------------------
def _detach_inherited_sockets(keep: int) -> None:
    """Point every socket the fork copied, except ``keep``, at /dev/null.

    Held for a worker's lifetime, the parent's sockets (a service's
    client connections, other workers' pipes, the parent's end of this
    one's) would keep a connection open after the parent closes it and
    hide the parent's death from this pipe.  ``dup2`` rather than close
    keeps the numbers taken, so a stale socket object cannot close a
    descriptor the worker opens later.
    """
    null = os.open(os.devnull, os.O_RDWR)
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        if fd in (keep, null):
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:                # the listing's own, now closed, fd
            pass
    os.close(null)


def _worker_main(conn, rss_limit_mb: Optional[int]) -> None:
    """Child entry: apply limits once, then run jobs until told to stop.

    Each message is ``(spec, key, attempt, chaos_args, span_ctx)`` and
    gets one ``(kind, payload)`` reply (see :func:`_run_job`); ``None``
    or EOF ends the loop.
    """
    _detach_inherited_sockets(keep=conn.fileno())
    # The parent may run an event loop with its own signal handlers:
    # restore the default so the supervisor's SIGTERM ends this worker,
    # and leave Ctrl-C to the parent, which reaps its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if rss_limit_mb is not None:
        import resource
        limit = rss_limit_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    while True:
        try:
            job = conn.recv()
            if job is None:
                return
            conn.send(_run_job(*job, rss_limit_mb=rss_limit_mb))
        except (EOFError, OSError):
            return
        # Free the finished run's reference cycles while idle, so they
        # do not pile up under the next job's peak.
        gc.collect()


def _run_job(spec, key: str, attempt: int,
             chaos_args: Optional[Dict[str, object]],
             span_ctx: Optional[Dict[str, object]],
             rss_limit_mb: Optional[int] = None):
    """Run one job inside a worker; returns the ``(kind, payload)`` reply.

    ``span_ctx`` (a serialized :class:`~repro.obs.trace.SpanContext`)
    reconstitutes the parent request's trace in this process: the run
    executes under a ``worker.run`` span nested below it, the engine
    driver's phase spans nest below that (via the ambient trace scope),
    and the finished spans ship home *inside* the reply —
    ``("ok", {"result": ..., "spans": [...]})`` instead of the plain
    ``("ok", result)`` shape used when tracing is off, so untraced
    waves stay byte-identical to the pre-tracing protocol.
    """
    tracer = span = None
    if span_ctx is not None:
        from repro.obs.trace import SpanContext, Tracer, trace_scope
        tracer = Tracer(track=f"worker-{os.getpid()}")
        span = tracer.start_span(
            "worker.run", parent=SpanContext.from_dict(span_ctx),
            pid=os.getpid(), attempt=attempt + 1, spec=spec.label())
    try:
        if chaos_args is not None:
            fault = HarnessChaos(**chaos_args).worker_fault(key, attempt)
            if fault == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            elif fault == "hang":
                while True:
                    time.sleep(3600)
        from repro.experiments.runner import execute_spec
        if tracer is None:
            return ("ok", execute_spec(spec).to_dict())
        with trace_scope(tracer, span):
            reply = ("ok", {"result": execute_spec(spec).to_dict()})
    except MemoryError:
        reply = ("error", {"type": "MemoryError",
                           "message": f"address-space limit of "
                                      f"{rss_limit_mb} MiB exceeded"})
    except Exception as exc:
        reply = ("error", {"type": type(exc).__name__, "message": str(exc)})
    if tracer is not None:
        span.end()
        reply[1]["spans"] = tracer.span_dicts()
    return reply


def _mp_context():
    """Fork where available (cheap, and the child starts with the
    parent's imports); the platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:                                 # pragma: no cover
        return multiprocessing.get_context()


#: one long-lived child process and the parent's end of its pipe
_Worker = namedtuple("_Worker", "process conn")


def _kill(worker: _Worker) -> None:
    """SIGTERM, then SIGKILL if needed; always reaps."""
    worker.process.terminate()
    worker.process.join(timeout=0.5)
    if worker.process.is_alive():                      # pragma: no cover
        worker.process.kill()
        worker.process.join(timeout=5)
    worker.conn.close()


def _retire(worker: _Worker) -> None:
    """Ask a worker to exit, close its pipe and reap it (a worker that
    does not exit promptly is killed)."""
    try:
        worker.conn.send(None)
    except OSError:                    # already dead: nothing to tell
        pass
    worker.conn.close()
    worker.process.join(timeout=5)
    if worker.process.is_alive():                      # pragma: no cover
        _kill(worker)


def _retire_all(idle: List[_Worker]) -> None:
    while idle:
        _retire(idle.pop())


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass
class WaveStats:
    """What the jobs of one :meth:`SupervisedPool.run_wave` call (or of
    any :meth:`SupervisedPool.submit` calls sharing it) observed."""

    jobs: int = 0
    completed: int = 0        #: jobs that produced a real result
    failed: int = 0           #: jobs resolved to a structured error
    crashes: int = 0          #: worker deaths observed
    hangs: int = 0            #: workers killed at the wall-clock limit
    retried: int = 0          #: re-dispatches after a crash
    breaker_short_circuits: int = 0


class _JobState:
    __slots__ = ("spec", "key", "future", "stats", "tracer", "span",
                 "attempt", "ready_at", "worker", "deadline")

    def __init__(self, spec, key: str, future: Future, stats: WaveStats,
                 tracer=None, span=None):
        self.spec = spec
        self.key = key
        self.future = future
        self.stats = stats
        #: the submitter's tracer, which adopts the worker's spans, and
        #: the supervisor.job span (both None when tracing is off);
        #: dispatch/crash/hang/retry/breaker transitions are recorded on
        #: the span
        self.tracer = tracer
        self.span = span
        self.attempt = 0
        self.ready_at = 0.0
        self.worker: Optional[_Worker] = None
        self.deadline: Optional[float] = None


def _shut_down(idle: List[_Worker], fds: Tuple[int, int]) -> None:
    _retire_all(idle)
    for fd in fds:
        os.close(fd)


class SupervisedPool:
    """Long-lived supervisor executing jobs of unique specs.

    Workers, breaker and health state persist across jobs (that is the
    point: a warm worker serves the next job, a poison spec stays
    quarantined for the pool's lifetime, and health reflects recent
    history, not one batch).  Thread-safe: any thread may
    :meth:`submit`.  One scheduler thread owns the workers and every
    job; the first submit starts it and it ends when no job is left, so
    a dropped pool is never kept alive by an idle thread.
    """

    def __init__(self, config: Optional[SupervisorConfig] = None,
                 workers: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config if config is not None else SupervisorConfig()
        limit = workers if workers is not None else self.config.workers
        if limit <= 0:
            limit = os.cpu_count() or 1
        self.configured_workers = limit
        self.workers = limit              #: current (possibly degraded) size
        self.clock = clock
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown_s, clock)
        self.chaos = self.config.chaos()
        self.counts: Counter = Counter()
        self._recent: deque = deque(maxlen=self.config.degrade_window)
        self.degraded = False
        self._ctx = _mp_context()
        #: guards the fields below, which submitters and close() share
        #: with the scheduler thread
        self._lock = threading.Lock()
        #: submitted jobs the scheduler has not taken yet
        self._inbox: List[_JobState] = []
        self._scheduler: Optional[threading.Thread] = None
        #: workers waiting for a job; busy ones belong to their job
        self._idle: List[_Worker] = []
        #: close() ran since the last submit (see close)
        self._closed = False
        #: a byte written here wakes the scheduler out of its wait
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        # A pool dropped without close() still reaps its idle workers.
        weakref.finalize(self, _shut_down, self._idle,
                         (self._wake_r, self._wake_w))

    # ------------------------------------------------------------------
    # Health gate
    # ------------------------------------------------------------------
    def _note_outcome(self, worker_died: bool) -> None:
        self._recent.append(1 if worker_died else 0)
        if len(self._recent) < self._recent.maxlen:
            return
        ratio = sum(self._recent) / len(self._recent)
        if ratio >= self.config.degrade_crash_ratio and self.workers > 1:
            self.workers = max(1, self.workers // 2)
            self.degraded = True
            self.counts["degradations"] += 1
            self._recent.clear()
        elif ratio == 0.0 and self.workers < self.configured_workers:
            self.workers += 1
            if self.workers >= self.configured_workers:
                self.degraded = False
            self._recent.clear()

    def healthy(self) -> bool:
        """False while degraded or while any breaker is open — the
        serving layer turns this into readiness."""
        return not self.degraded and not self.breaker.open_keys

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _fork(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.config.rss_limit_mb),
            daemon=True)
        process.start()
        child_conn.close()
        self.counts["worker_starts"] += 1
        return _Worker(process, parent_conn)

    def _release(self, worker: _Worker) -> None:
        """Return a worker that reported back to the idle set."""
        with self._lock:
            if not self._closed:
                self._idle.append(worker)
                return
        _retire(worker)                # closed while its job ran

    def close(self) -> None:
        """End and join every idle worker.  The pool stays usable (the
        next submit forks afresh); a job still running (one the serve
        watchdog abandoned) retires its worker when it reports back."""
        with self._lock:
            self._closed = True
            idle = self._idle[:]
            self._idle.clear()
        _retire_all(idle)

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def submit(self, spec, parent=None, *, key: Optional[str] = None,
               tracer=None, stats: Optional[WaveStats] = None) -> Future:
        """Queue ``spec`` for the next free worker; returns a
        :class:`concurrent.futures.Future` of its :class:`RunResult`.

        The future always gets a result: real, or a structured error
        (``WorkerCrash`` / ``Timeout`` / ``CircuitOpen`` / the child's
        own exception type).  Cancelling it before a worker takes the
        job drops the job.  ``key`` is ``spec.key()`` when the caller
        already has it; ``stats`` accumulates what happened to the job.

        ``parent`` (a :class:`~repro.obs.trace.SpanContext`) and
        ``tracer`` arm tracing: the job gets a ``supervisor.job`` span
        nested under ``parent``, the span's context is serialized into
        the worker process, and spans finished worker-side are adopted
        back onto ``tracer`` when the result arrives.
        """
        span = None
        if tracer is not None:
            span = tracer.start_span("supervisor.job", parent=parent,
                                     spec=spec.label())
        job = _JobState(spec, key if key is not None else spec.key(),
                        Future(), stats if stats is not None else WaveStats(),
                        tracer, span)
        with self._lock:
            self._closed = False
            self._inbox.append(job)
            if self._scheduler is None:
                self._scheduler = threading.Thread(
                    target=self._schedule, name="repro-supervisor",
                    daemon=True)
                self._scheduler.start()
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:        # the pipe is full: already awake
            pass
        return job.future

    def run_wave(self, specs, parents=None, tracer=None, keys=None
                 ) -> Tuple[Dict[object, RunResult], WaveStats]:
        """Submit every one of the unique ``specs`` and wait for all;
        returns ``(results_by_spec, stats)``.  ``parents`` and ``keys``
        map a spec to its :meth:`submit` ``parent`` and ``key``."""
        stats = WaveStats(jobs=len(specs))
        parents = parents or {}
        keys = keys or {}
        futures = {spec: self.submit(spec, parents.get(spec),
                                     key=keys.get(spec), tracer=tracer,
                                     stats=stats)
                   for spec in specs}
        return ({spec: future.result() for spec, future in futures.items()},
                stats)

    # ------------------------------------------------------------------
    # The scheduler thread
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        inbox: List[_JobState] = []
        pending: List[_JobState] = []
        running: List[_JobState] = []
        try:
            while True:
                with self._lock:
                    inbox, self._inbox = self._inbox, []
                    if not (inbox or pending or running):
                        self._scheduler = None
                        return
                for job in inbox:
                    self._accept(job, pending)
                self._dispatch_ready(pending, running)
                self._wait(pending, running)
                self._poll_running(running, pending)
        except BaseException as exc:   # a bug: fail every job, not hang it
            for job in running:
                _kill(job.worker)
            with self._lock:
                orphans = inbox + pending + running + self._inbox
                self._inbox = []
                self._scheduler = None
            for job in orphans:
                if not job.future.done():
                    job.future.set_exception(exc)
            raise

    def _accept(self, job: _JobState, pending: List[_JobState]) -> None:
        """Queue a submitted job, unless its spec's breaker is open."""
        if self.breaker.allow(job.key):
            pending.append(job)
            return
        job.stats.breaker_short_circuits += 1
        self.counts["breaker_short_circuits"] += 1
        if job.span is not None:
            job.span.event("breaker_short_circuit", key=job.key)
            job.span.set(outcome="CircuitOpen").end()
        if job.future.set_running_or_notify_cancel():
            self._finish(job, error_result(
                job.spec, "CircuitOpen",
                f"circuit breaker open for {job.spec.label()} after "
                f"{self.config.breaker_threshold} consecutive worker "
                f"deaths; job quarantined", job.attempt + 1))

    def _finish(self, job: _JobState, result: RunResult) -> None:
        if result.error is None:
            job.stats.completed += 1
            self.counts["completed"] += 1
        else:
            job.stats.failed += 1
            self.counts["failed"] += 1
        job.future.set_result(result)

    def _dispatch_ready(self, pending: List[_JobState],
                        running: List[_JobState]) -> None:
        now = self.clock()
        chaos_args = self.chaos.to_args() if self.chaos else None
        for job in list(pending):
            if len(running) >= self.workers:
                return
            if job.ready_at > now:
                continue
            pending.remove(job)
            if job.attempt == 0 \
                    and not job.future.set_running_or_notify_cancel():
                if job.span is not None:       # cancelled while queued
                    job.span.set(outcome="cancelled").end()
                continue
            span_ctx = (job.span.context.to_dict()
                        if job.span is not None else None)
            message = (job.spec, job.key, job.attempt, chaos_args, span_ctx)
            with self._lock:
                worker = self._idle.pop() if self._idle else None
            if worker is None:
                worker = self._fork()
            try:
                worker.conn.send(message)
            except OSError:            # the idle worker died since its last job
                _retire(worker)
                worker = self._fork()
                worker.conn.send(message)
            if job.span is not None:
                job.span.event("dispatch", pid=worker.process.pid,
                               attempt=job.attempt + 1)
            job.worker = worker
            if self.config.wall_limit_s is not None:
                job.deadline = self.clock() + self.config.wall_limit_s
            running.append(job)

    def _wait(self, pending: List[_JobState],
              running: List[_JobState]) -> None:
        """Block until a running job's worker reports or dies, a job is
        submitted, or the nearest wall deadline or retry ``ready_at``
        comes due."""
        wake_at = [job.deadline for job in running
                   if job.deadline is not None]
        if len(running) < self.workers:
            wake_at += [job.ready_at for job in pending]
        timeout = (max(0.0, min(wake_at) - self.clock()) if wake_at
                   else None)
        handles = [self._wake_r]
        handles += [job.worker.conn for job in running]
        handles += [job.worker.process.sentinel for job in running]
        multiprocessing.connection.wait(handles, timeout)
        try:
            os.read(self._wake_r, 4096)
        except BlockingIOError:
            pass

    def _poll_running(self, running: List[_JobState],
                      pending: List[_JobState]) -> None:
        for job in list(running):
            outcome = self._check_job(job)
            if outcome is None:
                continue
            running.remove(job)
            kind, payload = outcome
            if kind == "ok":
                self.breaker.record_success(job.key)
                self._note_outcome(False)
                payload = self._unwrap_traced(job, payload)
                if job.span is not None:
                    job.span.set(outcome="ok").end()
                self._finish(job, RunResult.from_dict(payload))
            elif kind == "error":
                # Deterministic child exception: no retry, and not a
                # worker death — the worker itself behaved, so the
                # breaker ignores it and the health gate counts it as a
                # clean outcome.
                self._note_outcome(False)
                payload = self._unwrap_traced(job, payload, key="type")
                if job.span is not None:
                    job.span.event("worker_error",
                                   type=payload.get("type", "Error"))
                    job.span.set(outcome="error").end()
                self._finish(job, error_result(
                    job.spec, payload.get("type", "Error"),
                    payload.get("message", ""), job.attempt + 1))
            else:                         # "crash" | "hang"
                died_hanging = kind == "hang"
                if died_hanging:
                    job.stats.hangs += 1
                    self.counts["worker_hangs"] += 1
                else:
                    job.stats.crashes += 1
                    self.counts["worker_crashes"] += 1
                tripped = self.breaker.record_failure(job.key)
                if tripped:
                    self.counts["breaker_trips"] += 1
                if job.span is not None:
                    job.span.event("hang" if died_hanging else "crash",
                                   attempt=job.attempt + 1)
                    if tripped:
                        job.span.event("breaker_open", key=job.key)
                self._note_outcome(True)
                if died_hanging:
                    # A hang consumed its full wall budget; retrying
                    # risks consuming another — report and move on.
                    if job.span is not None:
                        job.span.set(outcome="Timeout").end()
                    self._finish(job, error_result(
                        job.spec, "Timeout",
                        f"worker exceeded the {self.config.wall_limit_s}s "
                        f"wall-clock limit and was killed",
                        job.attempt + 1))
                else:
                    allowed = self.breaker.allow(job.key)
                    if job.attempt < self.config.retries and allowed:
                        job.attempt += 1
                        job.stats.retried += 1
                        self.counts["retries"] += 1
                        backoff_s = (self.config.retry_backoff_s
                                     * 2 ** (job.attempt - 1))
                        job.ready_at = self.clock() + backoff_s
                        job.worker = job.deadline = None
                        if job.span is not None:
                            job.span.event("retry", attempt=job.attempt + 1,
                                           backoff_s=backoff_s)
                        pending.append(job)
                    else:
                        reason = ("circuit breaker opened" if not allowed
                                  else "retry budget exhausted")
                        if job.span is not None:
                            job.span.set(outcome="WorkerCrash",
                                         reason=reason).end()
                        self._finish(job, error_result(
                            job.spec, "WorkerCrash",
                            f"worker died {job.attempt + 1} time(s) running "
                            f"{job.spec.label()} ({reason})",
                            job.attempt + 1))

    def _unwrap_traced(self, job: _JobState, payload, key: str = "result"):
        """Undo the traced pipe-payload wrapping: adopt the worker's
        shipped spans onto the job's tracer and return the inner payload.
        Untraced jobs pass through untouched (old wire shape)."""
        if job.span is None or not isinstance(payload, dict):
            return payload
        spans = payload.pop("spans", None)
        if spans and job.tracer is not None:
            job.tracer.adopt(spans)
        if key == "result" and "result" in payload:
            return payload["result"]
        return payload

    def _check_job(self, job: _JobState):
        """``None`` while still running, else ``(kind, payload)``.  A
        worker that reported is released, unless it hit its address-
        space cap (``MemoryError``): that one is retired."""
        worker = job.worker
        if worker.conn.poll():
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                message = None
            if not (isinstance(message, tuple) and len(message) == 2
                    and isinstance(message[1], dict)):
                _retire(worker)
                return ("crash", None)
            if message[0] == "error" \
                    and message[1].get("type") == "MemoryError":
                _retire(worker)
            else:
                self._release(worker)
            return message
        if not worker.process.is_alive():
            # Exited without (or racing) a message: one last poll.
            if worker.conn.poll():
                return self._check_job(job)
            _retire(worker)
            return ("crash", None)
        if job.deadline is not None and self.clock() >= job.deadline:
            _kill(worker)
            return ("hang", None)
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters + breaker/health state for ``/metrics`` re-export."""
        data: Dict[str, object] = dict(self.counts)
        data.update(workers=self.workers,
                    configured_workers=self.configured_workers,
                    degraded=int(self.degraded),
                    breaker=self.breaker.state_counts())
        return data

    def __repr__(self) -> str:
        return (f"<SupervisedPool workers={self.workers}/"
                f"{self.configured_workers} degraded={self.degraded} "
                f"counts={dict(self.counts)}>")
