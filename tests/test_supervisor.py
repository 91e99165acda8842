"""Supervised worker pool: config validation, the circuit breaker,
crash/hang/poison handling, limits, and Runner integration
(``repro.experiments.supervisor``)."""

from __future__ import annotations

import multiprocessing
import threading

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.runner import Runner, RunSpec
from repro.experiments.supervisor import (CLOSED, HALF_OPEN, OPEN,
                                          CircuitBreaker, SupervisedPool,
                                          SupervisorConfig)
from repro.faults.harness import HarnessChaos
from repro.obs.trace import Tracer
from repro.serve.service import deterministic_dict

SMALL = RunSpec(workload="sor", mode="single", n_cmps=2)


def crash_once(spec) -> HarnessChaos:
    """Seeded sub-1.0 crash rate whose first draw for ``spec`` crashes
    and whose retry draw is clean."""
    def chaos(seed):
        return HarnessChaos(seed=seed, worker_crash_rate=0.5)
    key = spec.key()
    return chaos(next(s for s in range(1000)
                      if chaos(s).worker_fault(key, 0) == "crash"
                      and chaos(s).worker_fault(key, 1) is None))


def pool(**kwargs):
    kwargs.setdefault("retry_backoff_s", 0.01)
    kwargs.setdefault("wall_limit_s", 120.0)
    workers = kwargs.pop("workers_override", 2)
    return SupervisedPool(SupervisorConfig(**kwargs), workers=workers)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    dict(workers=-1), dict(retries=-1), dict(breaker_threshold=0),
    dict(degrade_window=0), dict(degrade_crash_ratio=0.0),
    dict(degrade_crash_ratio=1.5), dict(retry_backoff_s=-1),
    dict(wall_limit_s=0), dict(rss_limit_mb=0),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SupervisorConfig(**kwargs)


def test_config_chaos_profile_resolution():
    assert SupervisorConfig().chaos() is None
    chaos = SupervisorConfig(chaos_profile="poison", chaos_seed=5).chaos()
    assert isinstance(chaos, HarnessChaos)
    assert chaos.seed == 5
    with pytest.raises(ValueError):
        SupervisorConfig(chaos_profile="bogus").chaos()


# ----------------------------------------------------------------------
# Circuit breaker (injected clock: no sleeping)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_breaker_trips_after_threshold_and_cools_down():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=3, cooldown_s=10.0, clock=clock)
    assert breaker.state("k") == CLOSED
    assert not breaker.record_failure("k")
    assert not breaker.record_failure("k")
    assert breaker.allow("k")                 # still closed at 2 failures
    assert breaker.record_failure("k")        # third death trips it
    assert breaker.state("k") == OPEN
    assert not breaker.allow("k")
    clock.t = 10.0                            # cooldown elapsed
    assert breaker.state("k") == HALF_OPEN
    assert breaker.allow("k")                 # one probe admitted
    breaker.record_success("k")
    assert breaker.state("k") == CLOSED


def test_breaker_failed_probe_reopens_immediately():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=clock)
    breaker.record_failure("k")
    breaker.record_failure("k")
    clock.t = 5.0
    assert breaker.state("k") == HALF_OPEN
    assert breaker.record_failure("k")        # probe died: re-trip
    assert breaker.state("k") == OPEN         # full cooldown again
    clock.t = 9.9
    assert not breaker.allow("k")
    assert breaker.trips == 2


def test_breaker_success_resets_the_failure_count():
    breaker = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=FakeClock())
    breaker.record_failure("k")
    breaker.record_success("k")
    assert not breaker.record_failure("k")    # count restarted from 0
    assert breaker.state("k") == CLOSED


def test_breaker_keys_are_independent():
    breaker = CircuitBreaker(threshold=1, cooldown_s=99.0, clock=FakeClock())
    breaker.record_failure("poison")
    assert not breaker.allow("poison")
    assert breaker.allow("healthy")
    assert breaker.state_counts() == {CLOSED: 0, OPEN: 1, HALF_OPEN: 0}
    assert breaker.open_keys == ["poison"]


# ----------------------------------------------------------------------
# Wave execution (real child processes — slow-ish but bounded)
# ----------------------------------------------------------------------
def test_wave_results_are_bit_identical_to_serial():
    supervised = pool()
    results, stats = supervised.run_wave([SMALL])
    assert stats.completed == 1 and stats.failed == 0
    direct = Runner(cache=None).run(SMALL)
    supervised_dict = results[SMALL].to_dict()
    direct_dict = direct.to_dict()
    supervised_dict.pop("wall_seconds")
    direct_dict.pop("wall_seconds")
    assert supervised_dict == direct_dict


def test_poison_spec_trips_breaker_then_short_circuits():
    # rate-1.0 crash profile: every attempt SIGKILLs itself.
    supervised = pool(chaos_profile="poison", retries=2,
                      breaker_threshold=3, breaker_cooldown_s=3600.0)
    results, stats = supervised.run_wave([SMALL])
    result = results[SMALL]
    assert result.error is not None
    assert result.error["type"] == "WorkerCrash"
    assert result.error["attempts"] == 3          # initial + 2 retries
    assert stats.crashes == 3
    # three consecutive deaths opened the breaker ...
    assert not supervised.breaker.allow(SMALL.key())
    assert not supervised.healthy()
    # ... so the next wave never spawns a process for it
    results2, stats2 = supervised.run_wave([SMALL])
    assert results2[SMALL].error["type"] == "CircuitOpen"
    assert stats2.breaker_short_circuits == 1
    assert supervised.counts["worker_crashes"] == 3   # unchanged


def test_crash_retry_recovers_on_a_clean_redraw():
    supervised = pool(retries=2)
    supervised.chaos = crash_once(SMALL)
    results, stats = supervised.run_wave([SMALL])
    assert results[SMALL].error is None
    assert stats.crashes == 1 and stats.retried == 1
    assert supervised.counts["retries"] == 1
    # the success closed the breaker bookkeeping for the key
    assert supervised.breaker.allow(SMALL.key())


def test_hang_is_killed_at_the_wall_limit_without_retry():
    supervised = pool(chaos_profile="worker-hang", wall_limit_s=0.5,
                      retries=2)
    # force the hang decision deterministically
    supervised.chaos = HarnessChaos(seed=1, worker_hang_rate=1.0)
    results, stats = supervised.run_wave([SMALL])
    result = results[SMALL]
    assert result.error is not None
    assert result.error["type"] == "Timeout"
    assert stats.hangs == 1 and stats.retried == 0
    assert supervised.counts["worker_hangs"] == 1


def test_rss_limit_turns_runaway_allocation_into_memory_error():
    # 64 MiB address space cannot even finish interpreter+sim imports
    # allocating a big buffer; the child reports MemoryError cleanly.
    supervised = pool(rss_limit_mb=64, retries=0)
    results, stats = supervised.run_wave([SMALL])
    result = results[SMALL]
    # Either the sim fit (tiny workload) or it reported MemoryError —
    # never a crash. Accept both, but assert the *shape* is structured.
    if result.error is not None:
        assert result.error["type"] == "MemoryError"
        assert stats.failed == 1
    assert stats.crashes == 0


def test_workers_are_reused_and_replaced_only_after_a_failure(monkeypatch):
    """One warm worker runs job after job; a crash, or a MemoryError at
    the address-space cap, moves the next job to a new worker.  Results
    stay bit-identical to serial."""
    other = RunSpec(workload="sor", mode="double", n_cmps=2)
    hog = RunSpec(workload="sor", mode="single", n_cmps=4)
    real = runner_mod.execute_spec

    def execute(spec):
        if spec == hog:           # far beyond the cap set below
            bytearray(512 * 1024 * 1024)
        return real(spec)

    monkeypatch.setattr(runner_mod, "execute_spec", execute)
    with open("/proc/self/status") as status:
        vm_mib = next(int(line.split()[1]) // 1024 for line in status
                      if line.startswith("VmSize:"))
    supervised = pool(workers_override=1, rss_limit_mb=vm_mib + 256)
    serial = Runner(cache=None)

    def run(spec):
        """One traced wave: (deterministic result, worker pid)."""
        tracer = Tracer()
        root = tracer.start_span("request")
        results, _ = supervised.run_wave([spec], tracer=tracer,
                                         parents={spec: root.context})
        return deterministic_dict(results[spec]), next(
            s.attrs["pid"] for s in tracer.spans() if s.name == "worker.run")

    first, pid = run(SMALL)
    second, same = run(other)
    assert same == pid and supervised.counts["worker_starts"] == 1
    assert first == deterministic_dict(serial.run(SMALL))
    assert second == deterministic_dict(serial.run(other))
    supervised.chaos = crash_once(SMALL)
    again, retried = run(SMALL)
    supervised.chaos = None
    assert retried != pid and again == first     # the crash cost the worker
    hogged, hog_pid = run(hog)
    assert hog_pid == retried                    # the replacement stayed warm
    assert hogged["error"]["type"] == "MemoryError"
    last, fresh = run(other)
    assert fresh != hog_pid and last == second   # MemoryError retired it
    assert supervised.counts["worker_starts"] == 3
    supervised.close()
    assert fresh not in {c.pid for c in multiprocessing.active_children()}


def test_health_gate_degrades_and_recovers():
    supervised = pool(degrade_window=4, degrade_crash_ratio=0.5,
                      workers_override=4)
    # four straight worker deaths: ratio 1.0 >= 0.5 -> halve the pool
    for _ in range(4):
        supervised._note_outcome(True)
    assert supervised.workers == 2
    assert supervised.degraded
    assert not supervised.healthy()
    assert supervised.counts["degradations"] == 1
    # clean windows grow it back one step per window
    for _ in range(8):
        supervised._note_outcome(False)
    assert supervised.workers == 4
    assert supervised.degraded is False
    assert supervised.healthy()


def test_submit_from_two_threads_keeps_retry_breaker_and_wall_limit():
    """Jobs submitted from two threads at once share one scheduler,
    yet each crash retry, breaker trip and wall-limit kill comes out as
    it does in a wave of its own; close() then reaps every worker."""
    flaky, poison = SMALL, RunSpec(workload="sor", mode="double", n_cmps=2)
    stuck = RunSpec(workload="sor", mode="single", n_cmps=4)
    keys = {spec: spec.key() for spec in (flaky, poison, stuck)}

    def chaos(seed):
        return HarnessChaos(seed=seed, worker_crash_rate=0.5,
                            worker_hang_rate=0.5)

    def draws(seed, spec, attempts):
        return [chaos(seed).worker_fault(keys[spec], attempt)
                for attempt in range(attempts)]

    seed = next(s for s in range(10_000)
                if draws(s, flaky, 2) == ["crash", None]
                and draws(s, poison, 2) == ["crash", "crash"]
                and draws(s, stuck, 1) == ["hang"])
    supervised = pool(retries=1, breaker_threshold=2,
                      breaker_cooldown_s=3600.0, wall_limit_s=2.0)
    supervised.chaos = chaos(seed)
    tracer = Tracer()
    results = {}

    def submit_all(specs):
        futures = {spec: supervised.submit(spec, tracer=tracer)
                   for spec in specs}
        results.update((spec, f.result(timeout=60))
                       for spec, f in futures.items())

    threads = [threading.Thread(target=submit_all, args=(specs,))
               for specs in ([flaky, poison], [stuck])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert deterministic_dict(results[flaky]) == \
        deterministic_dict(Runner(cache=None).run(flaky))
    assert results[poison].error["type"] == "WorkerCrash"
    assert results[poison].error["attempts"] == 2
    assert results[stuck].error["type"] == "Timeout"
    assert supervised.counts["worker_crashes"] == 3
    assert supervised.counts["worker_hangs"] == 1
    assert supervised.counts["retries"] == 2
    assert not supervised.breaker.allow(keys[poison])
    assert supervised.breaker.allow(keys[flaky])
    # the open breaker short-circuits a later submit without a worker
    again = supervised.submit(poison).result(timeout=60)
    assert again.error["type"] == "CircuitOpen"
    assert supervised.counts["worker_crashes"] == 3
    pids = {s.attrs["pid"] for s in tracer.spans() if s.name == "worker.run"}
    assert pids
    supervised.close()
    assert not pids & {c.pid for c in multiprocessing.active_children()}


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
def test_runner_supervised_backend_matches_serial():
    supervised = Runner(cache=None, supervisor=SupervisorConfig(
        workers=2, retry_backoff_s=0.01))
    serial = Runner(cache=None)
    specs = [RunSpec(workload="sor", mode="single", n_cmps=2),
             RunSpec(workload="sor", mode="double", n_cmps=2)]
    got = supervised.run_batch(specs)
    want = serial.run_batch(specs)
    for a, b in zip(got, want):
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_seconds")
        db.pop("wall_seconds")
        assert da == db
    assert supervised.pool.counts["completed"] == 2


def test_runner_supervisor_true_uses_defaults():
    runner = Runner(cache=None, supervisor=True)
    assert runner.pool is not None
    assert runner.pool.config == SupervisorConfig()


def test_runner_fail_fast_raises_on_supervised_error():
    runner = Runner(cache=None, fail_fast=True, supervisor=SupervisorConfig(
        workers=1, retries=0, retry_backoff_s=0.01,
        chaos_profile="poison"))
    with pytest.raises(RuntimeError, match="WorkerCrash"):
        runner.run_batch([SMALL])


def test_supervised_errors_are_not_memoized():
    config = SupervisorConfig(workers=1, retries=0, retry_backoff_s=0.01,
                              chaos_profile="poison")
    runner = Runner(cache=None, supervisor=config)
    first = runner.run(SMALL)
    assert first.error is not None
    # disarm the chaos: the spec must be re-attempted (not served from
    # memo) and now succeed — modulo the breaker, which we keep closed
    # by using a threshold above the failure count.
    runner.pool.chaos = None
    runner.pool.breaker.record_success(SMALL.key())
    second = runner.run(SMALL)
    assert second.error is None
