"""End-to-end crash-safety of the serving layer: journal replay across
restarts, kill -9 recovery with bit-identical results, readiness /
drain 503 semantics, Retry-After jitter, and atomic cache writes."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.config import ServiceConfig
from repro.experiments.cache import ResultCache
from repro.experiments.runner import Runner, RunSpec
from repro.serve import (Client, JobJournal, ServerThread, ServiceError,
                         deterministic_dict, spec_from_dict)

SMALL = {"workload": "sor", "mode": "single", "n_cmps": 2}
OTHER = {"workload": "cg", "mode": "double", "n_cmps": 2}
#: about three times SMALL's simulation (~1 s on a 2-CPU box): real work
#: that keeps a job unresolved while a test acts on it
LONG = {"workload": "ocean", "mode": "single", "n_cmps": 4}


def serve(tmp_path, **config_kwargs):
    """Journal-enabled in-process service; cache and journal live under
    ``tmp_path`` so a second instance recovers the first's state."""
    defaults = dict(port=0, journal_dir=str(tmp_path / "wal"),
                    journal_fsync=False)
    defaults.update(config_kwargs)
    runner = defaults.pop("runner", None)
    if runner is None:
        runner = Runner(cache=ResultCache(tmp_path / "cache"))
    return ServerThread(runner=runner, config=ServiceConfig(**defaults))


# ----------------------------------------------------------------------
# In-process restart recovery
# ----------------------------------------------------------------------
def test_restart_replays_unresolved_jobs(tmp_path):
    # First life: accept a job but die (stop()) before resolving it —
    # a long simulation keeps it running.
    with serve(tmp_path) as harness:
        client = Client(harness.host, harness.port)
        assert client.wait_ready(10)
        accepted = client.submit(LONG, wait=False)
        assert accepted["status"] == "running"
        # the write-ahead record is on disk before the 202 went out
        snap = client.healthz()
        assert snap["journal"]["live"] == 1

    # Second life over the same directories: the job is re-admitted,
    # executed, and its resolution lands in the result cache.
    with serve(tmp_path) as harness:
        client = Client(harness.host, harness.port)
        assert client.wait_ready(30)
        service = harness.server.service
        assert service.recovered == 1
        deadline = time.monotonic() + 60
        while service.depth > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service.depth == 0
        metrics = client.metrics()
        assert metrics["serve.recovered"] == 1
        assert metrics["serve.replay_ms_count"] == 1
        assert metrics["serve.journal{stat=live}"] == 0

    # Third life: nothing left to recover.
    with serve(tmp_path) as harness:
        assert harness.server.service.recovered == 0


def test_recovered_result_is_bit_identical_to_direct(tmp_path):
    with serve(tmp_path) as harness:
        client = Client(harness.host, harness.port)
        assert client.wait_ready(10)
        client.submit(LONG, wait=False)

    with serve(tmp_path) as harness:
        client = Client(harness.host, harness.port)
        assert client.wait_ready(30)
        # a fresh request for the same spec coalesces/caches onto the
        # recovered execution; its payload must match a direct run
        served = client.submit(LONG)["result"]
        served.pop("wall_seconds", None)
        direct = deterministic_dict(Runner(cache=None).run(
            spec_from_dict(LONG)))
        assert served == direct


def test_resolved_jobs_are_not_replayed(tmp_path):
    with serve(tmp_path) as harness:
        client = Client(harness.host, harness.port)
        assert client.wait_ready(10)
        assert client.submit(SMALL)["status"] == "done"
    with serve(tmp_path) as harness:
        assert harness.server.service.recovered == 0
        # ... and the result is still served straight from the cache
        client = Client(harness.host, harness.port)
        assert client.wait_ready(10)
        out = client.submit(SMALL)
        assert out["status"] == "done"
        assert client.metrics()["serve.cache_hits"] == 1


def test_journal_disabled_service_has_no_journal_series(tmp_path):
    with serve(tmp_path, journal_dir=None) as harness:
        client = Client(harness.host, harness.port)
        assert client.wait_ready(10)
        client.submit(SMALL)
        metrics = client.metrics()
        assert not any(name.startswith("serve.journal") for name in metrics)
        assert "journal" not in client.healthz()


# ----------------------------------------------------------------------
# Readiness and drain
# ----------------------------------------------------------------------
def test_not_ready_before_start_sheds_503(tmp_path):
    from repro.serve.service import Shed, SimulationService
    service = SimulationService(runner=Runner(cache=None),
                                config=ServiceConfig(port=0))

    async def scenario():
        with pytest.raises(Shed) as excinfo:
            service.submit_nowait(spec_from_dict(SMALL))
        assert excinfo.value.status == 503
        assert "replay" in excinfo.value.reason
        await service.start()
        job, coalesced = service.submit_nowait(spec_from_dict(SMALL))
        assert not coalesced
        result = await job.future
        assert result.error is None
        await service.stop()

    import asyncio
    asyncio.run(scenario())
    assert service.registry.value("serve.unavailable") == 1


def test_readiness_probe_and_drain_sheds(tmp_path):
    with serve(tmp_path) as harness:
        client = Client(harness.host, harness.port)
        assert client.wait_ready(10)
        status, _, body = client._request("GET", "/healthz?ready=1")
        assert status == 200 and body["ready"] is True
        # liveness stays 200 regardless of the ready flag
        service = harness.server.service
        service.draining = True
        try:
            status, _, body = client._request("GET", "/healthz?ready=1")
            assert status == 503 and body["status"] == "not-ready"
            status, _, _ = client._request("GET", "/healthz")
            assert status == 200
            with pytest.raises(ServiceError) as excinfo:
                client.submit(SMALL)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
        finally:
            service.draining = False
        assert client.ready()


def test_graceful_drain_finishes_inflight_work(tmp_path):
    harness = serve(tmp_path).start()
    try:
        client = Client(harness.host, harness.port)
        assert client.wait_ready(10)
        done = {}

        def submit():
            done.update(client.submit(LONG))
        thread = threading.Thread(target=submit)
        thread.start()
        service = harness.server.service
        deadline = time.monotonic() + 30
        while service.depth == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        harness.drain(timeout_s=120.0)
        thread.join(timeout=30)
        assert done.get("status") == "done"
        # a drained stop resolves everything: no replay work next life
        with serve(tmp_path) as second:
            assert second.server.service.recovered == 0
    finally:
        harness.stop()


def test_retry_after_jitter_spreads(tmp_path):
    from repro.serve.service import SimulationService
    service = SimulationService(runner=Runner(cache=None),
                                config=ServiceConfig(
                                    port=0, retry_after_s=10.0,
                                    retry_jitter=0.3))
    values = {service._retry_after() for _ in range(64)}
    assert all(7.0 <= v <= 13.0 for v in values)
    assert len(values) > 1                    # actually jittered
    flat = SimulationService(runner=Runner(cache=None),
                             config=ServiceConfig(port=0, retry_after_s=2.0,
                                                  retry_jitter=0.0))
    assert flat._retry_after() == 2.0


# ----------------------------------------------------------------------
# Atomic, durable cache writes
# ----------------------------------------------------------------------
def test_cache_put_leaves_no_tmp_and_survives_interrupted_write(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec(**SMALL)
    result = Runner(cache=None).run(spec)
    cache.put("k" * 64, result)
    files = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert files == ["k" * 64 + ".json"]      # no tmp residue
    # simulate a crash mid-write of a *second* entry: the tmp file of a
    # dead writer must never shadow or corrupt a readable entry
    tmp_file = (tmp_path / "cache" / ("x" * 64 + ".tmp.999999"))
    tmp_file.write_text("{\"torn\":")
    assert cache.get("x" * 64) is None        # miss, not a crash
    assert cache.get("k" * 64) is not None    # good entry unaffected


# ----------------------------------------------------------------------
# Full kill -9 integration (subprocess service)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_kill9_mid_wave_loses_no_accepted_work(tmp_path):
    """The tentpole drill: SIGKILL the serving process while accepted
    jobs are queued/running; restart it over the same journal + cache;
    every job resolves with results bit-identical to direct runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    args = [sys.executable, "-m", "repro.serve", "--port", "0",
            "--journal-dir", str(tmp_path / "wal"),
            "--cache-dir", str(tmp_path / "cache")]

    def launch():
        process = subprocess.Popen(args, env=env, stderr=subprocess.PIPE,
                                   text=True)
        # the CLI prints "listening on http://host:port" once bound
        # (possibly after a journal-replay log line)
        line = ""
        for _ in range(20):
            line = process.stderr.readline()
            if "listening on" in line or not line:
                break
        assert "listening on" in line, line
        address = line.split("http://", 1)[1].split()[0].rstrip(",")
        host, port = address.rsplit(":", 1)
        return process, host, int(port)

    process, host, port = launch()
    specs = [SMALL, OTHER]
    try:
        client = Client(host, port, timeout=30.0)
        assert client.wait_ready(30)
        for spec in specs:
            accepted = client.submit(spec, wait=False)
            assert accepted["status"] in ("queued", "running")
        # accepted (and fsync'd): now kill -9 mid-wave
        assert client.healthz()["journal"]["live"] >= 1
    finally:
        process.kill()                       # SIGKILL: no cleanup runs
        process.wait(timeout=30)
        process.stderr.close()

    # restart over the same directories
    process, host, port = launch()
    try:
        client = Client(host, port, timeout=300.0)
        assert client.wait_ready(60)
        # replay re-admitted the unresolved jobs
        snap = client.healthz()
        assert snap["recovered"] >= 1
        # requesting the same specs returns completed results — served
        # from the recovered executions (or their cached resolutions)
        for spec in specs:
            out = client.submit(spec)
            assert out["status"] == "done", out
            served = out["result"]
            served.pop("wall_seconds", None)
            direct = deterministic_dict(Runner(cache=None).run(
                spec_from_dict(spec)))
            assert served == direct
        assert client.metrics()["serve.journal{stat=live}"] == 0
    finally:
        process.send_signal(signal.SIGTERM)   # exercise graceful drain
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)
        process.stderr.close()
    # a third recovery finds nothing unresolved
    journal = JobJournal(tmp_path / "wal", fsync=False)
    replay = journal.recover()
    journal.close()
    assert replay.unresolved == {}
