"""Per-layer measurement for the traced run.

Three sources, all driven from outside the program:

* :class:`Instrumentation` wraps public entry points of each layer —
  ``ResultCache.get``/``put``, ``JobJournal.accepted``/``started``/
  ``resolved``, ``TapeCache.tape_for``, ``compile_program`` and
  ``Engine.run`` — with spans while it is active.  A span goes to the
  ambient tracer when one is bound (inside a traced worker process, so
  the span ships home with the result), else to the benchmark's own.
* The program's own spans: the ``engine.*`` phases under an ambient
  ``trace_scope``, and ``serve.*``/``supervisor.job``/``worker.run``
  under ``ServiceConfig(trace=True)``.
* :class:`PackageSampler`, a statistical profiler for the simulation
  loop, whose layers interleave as generators and cannot be wrapped: a
  thread samples the measured thread's innermost frame and counts the
  package it belongs to.

:func:`span_metrics` and :func:`result_metrics` turn spans and
simulation results into the per-layer numbers.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.experiments.cache import ResultCache
from repro.obs.trace import Span, Tracer, current_scope
from repro.serve.journal import JobJournal
from repro.sim.engine import Engine
from repro.workloads import tape as tape_module

from perfbench.measure import fraction, median

#: (path fragment, layer) in match order: proto before the rest of memory
SAMPLED_PACKAGES = (("repro/memory/proto/", "proto"),
                    ("repro/memory/", "memory"),
                    ("repro/sim/", "sim"),
                    ("repro/runtime/", "runtime"),
                    ("repro/slipstream/", "slipstream"))
SAMPLE_INTERVAL_S = 0.001


class Instrumentation:
    """Context manager that wraps each layer's entry points with spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[tuple] = []
        self._tape_key: Optional[tuple] = None

    def _span(self, name: str, **attrs) -> Span:
        scope = current_scope()
        if scope is None:
            return self.tracer.start_span(name, **attrs)
        tracer, parent = scope
        return tracer.start_span(name, parent=parent, **attrs)

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _timed(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with self._span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def __enter__(self) -> "Instrumentation":
        self._patch(ResultCache, "get", self._timed("cache.get"))
        self._patch(ResultCache, "put", self._timed("cache.put"))
        for kind in ("accepted", "started", "resolved"):
            self._patch(JobJournal, kind, self._timed(f"journal.{kind}"))

        def tape_for(original):
            def wrapper(cache, task_id):
                self._tape_key = (cache.workload.name, cache.n_tasks, task_id)
                try:
                    return original(cache, task_id)
                finally:
                    self._tape_key = None
            return wrapper

        def compile_program(original):
            def wrapper(*args, **kwargs):
                workload, n_tasks, task = self._tape_key or ("?", 0, -1)
                with self._span("tape.compile", workload=workload,
                                n_tasks=n_tasks, task=task):
                    return original(*args, **kwargs)
            return wrapper

        def engine_run(original):
            def wrapper(engine, *args, **kwargs):
                span = self._span("engine.run")
                try:
                    return original(engine, *args, **kwargs)
                finally:
                    # Engine's sequence counter numbers every scheduled
                    # event; read once per run, off the event loop.
                    span.set(events=engine._seq).end()
            return wrapper

        self._patch(tape_module.TapeCache, "tape_for", tape_for)
        self._patch(tape_module, "compile_program", compile_program)
        self._patch(Engine, "run", engine_run)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class PackageSampler:
    """Sampled self time by package of the thread that enters it.  Use
    as a context manager around the code to profile.

    The sampler wakes every :data:`SAMPLE_INTERVAL_S`, but it needs the
    interpreter lock to read a frame, so against busy Python code it
    samples at the lock's switch interval (5 ms by default).
    """

    def __init__(self):
        self.thread_id: Optional[int] = None
        self.samples = 0
        self.counts: Dict[str, int] = defaultdict(int)
        self._layer_of: Dict[str, Optional[str]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _classify(self, filename: str) -> Optional[str]:
        layer = self._layer_of.get(filename, "")
        if layer == "":
            path = filename.replace("\\", "/")
            layer = next((name for fragment, name in SAMPLED_PACKAGES
                          if fragment in path), None)
            self._layer_of[filename] = layer
        return layer

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = sys._current_frames().get(self.thread_id)
            if frame is None:
                continue
            self.samples += 1
            layer = self._classify(frame.f_code.co_filename)
            if layer is not None:
                self.counts[layer] += 1

    def __enter__(self) -> "PackageSampler":
        self.thread_id = threading.get_ident()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-sampler")
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def fractions(self) -> Dict[str, float]:
        return {f"{layer}.self_frac": fraction(self.counts[layer], self.samples)
                for _, layer in SAMPLED_PACKAGES}


# ----------------------------------------------------------------------
# Deriving the per-layer numbers
# ----------------------------------------------------------------------
def _ms(span: Span) -> float:
    return span.duration_us / 1000.0


def span_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer numbers from the finished spans of one traced pass."""
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.end_us is not None:
            by_name[span.name].append(span)

    def p50(name: str) -> float:
        return median([_ms(span) for span in by_name[name]])

    runs = by_name["engine.run"]
    events = sum(int(span.attrs.get("events", 0)) for span in runs)
    loop_s = sum(span.duration_us for span in runs) / 1e6

    compiles = sorted(by_name["tape.compile"], key=lambda s: s.start_us)
    seen, reused = set(), 0
    for span in compiles:
        key = (span.attrs.get("workload"), span.attrs.get("n_tasks"),
               span.attrs.get("task"))
        reused += key in seen
        seen.add(key)

    worker_ms = {span.context.parent_id: _ms(span)
                 for span in by_name["worker.run"]}
    jobs = by_name["supervisor.job"]
    overheads = [_ms(job) - worker_ms[job.context.span_id] for job in jobs
                 if job.context.span_id in worker_ms]
    appends = [span for kind in ("accepted", "started", "resolved")
               for span in by_name[f"journal.{kind}"]]

    return {
        "sim.events": events,
        "sim.loop_s": loop_s,
        "sim.us_per_event": fraction(loop_s * 1e6, events),
        "machine.build_s":
            sum(span.duration_us for span in by_name["engine.setup"]) / 1e6,
        "tape.compiles": len(compiles),
        "tape.compile_s": sum(span.duration_us for span in compiles) / 1e6,
        "tape.reuse_frac": fraction(reused, len(compiles)),
        "cache.gets": len(by_name["cache.get"]),
        "cache.get_ms_p50": p50("cache.get"),
        "cache.puts": len(by_name["cache.put"]),
        "cache.put_ms_p50": p50("cache.put"),
        "supervisor.jobs": len(jobs),
        "supervisor.job_ms_p50": p50("supervisor.job"),
        "supervisor.overhead_ms_p50": median(overheads),
        "serve.admission_ms_p50": p50("serve.admission"),
        "serve.queue_wait_ms_p50": p50("serve.queue_wait"),
        "serve.wave_execute_ms_p50": p50("serve.wave_execute"),
        "journal.appends": len(appends),
        "journal.append_ms_p50": median([_ms(span) for span in appends]),
    }


def result_metrics(results: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """Exact simulated counts summed over ``results`` (RunResult dicts of
    the simulations a pass actually ran)."""
    totals: Dict[str, int] = defaultdict(int)
    useful = a_requests = recoveries = 0
    for result in results:
        for name, value in (result.get("cache_totals") or {}).items():
            totals[name] += value
        for name, value in (result.get("fabric_stats") or {}).items():
            totals[name] += value
        recoveries += int(result.get("recoveries") or 0)
        classes = result.get("request_classes") or {}
        for category in ("a_timely", "a_late", "a_only"):
            count = sum((classes.get(category) or {}).values())
            a_requests += count
            if category != "a_only":
                useful += count
    return {
        "memory.l1_refs": totals["l1_hits"] + totals["l1_misses"],
        "memory.l2_hits": totals["l2_hits"],
        "memory.l2_misses": totals["l2_misses"],
        "memory.l2_evictions": totals["l2_evictions"],
        "memory.transactions": totals["transactions"],
        "memory.network_messages": totals["network_messages"],
        "memory.invalidations": totals["invalidations_sent"],
        "memory.writebacks": totals["writebacks"],
        "slipstream.recoveries": recoveries,
        "slipstream.a_useful_frac": fraction(useful, a_requests),
    }
