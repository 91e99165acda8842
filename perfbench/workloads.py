"""The three workloads: ``sweep``, ``serve-hot`` and ``serve-cold``.

Each returns a :class:`Report` holding every end-to-end metric (from
untraced passes) and, when asked, every per-layer metric (span timings
from a traced pass, counts from the untraced one).  Every result a
workload receives is checked against ``expected.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.config import ServiceConfig
from repro.experiments.cache import ResultCache
from repro.experiments.runner import BatchStats, Runner, RunSpec
from repro.experiments.supervisor import SupervisorConfig
from repro.obs.trace import Tracer, trace_scope
from repro.serve import Client, ServerThread

from perfbench import inputs, layers
from perfbench.loadgen import Outcome, run_open_loop
from perfbench.measure import fraction, median, peak_rss_mib, percentile

#: set-up is repeated this many times per run; setup_s takes the median
SETUP_ROUNDS = 3
#: warm-phase shapes, (bursts, passes per burst, window seconds); see
#: _warm_phase.  The sweep's 12 passes over 9 specs give 108 (pass,
#: spec) positions, so a p90 over them has ten samples beyond it.  A
#: serve burst makes at least SERVE_BURST_CALLS calls over the served
#: specs.
SWEEP_WARM = (40, 12, 8.0)
SERVE_WARM_BURSTS = 24
SERVE_WARM_WINDOW_S = 6.0
SERVE_BURST_CALLS = 100
#: the load comes from one process with at most this many requests on
#: the wire (the box's CPU count when the benchmark was defined)
MAX_INFLIGHT = 2
SERVE_WORKERS = 2
#: serving-stack layers the in-process sweep never reaches
NOT_IN_SWEEP = ("supervisor.retries", "serve.batch_occupancy_mean",
                "serve.coalesced", "serve.shed", "loadgen.late_ms_p90",
                "http.overhead_ms_p50")
#: a request not answered within this long counts as failed; failed
#: requests enter the latency percentiles at this value
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    workdir: Path
    trace_path: Path
    one_time_s: float                  #: imports and source fingerprint
    expected: Mapping[str, str]


@dataclass
class Report:
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    context: Dict[str, object] = field(default_factory=dict)

    def check(self, spec: RunSpec, result: Mapping[str, object],
              expected: Mapping[str, str], also: Optional[str] = None) -> None:
        """Count one attempted resolution; fail it on a wrong result or
        on ``also`` (an extra reason found by the caller)."""
        self.attempted += 1
        reason = also or inputs.check_result(spec, result, expected)
        if reason is not None:
            self.failed += 1
            self.problems.append(reason)


def _set_up(ctx: Context, setup: Callable[[int], object],
            discard: Callable[[object], None] = lambda _: None):
    """Run ``setup`` :data:`SETUP_ROUNDS` times and keep the last result;
    earlier ones are discarded outside the timed region.  Returns
    (setup_s, kept): the one-time part plus the median round."""
    rounds: List[float] = []
    kept = None
    for i in range(SETUP_ROUNDS):
        if kept is not None:
            discard(kept)
        started = time.perf_counter()
        kept = setup(i)
        rounds.append(time.perf_counter() - started)
    return ctx.one_time_s + median(rounds), kept


def _warm_phase(cache_dir: Path, specs: Sequence[RunSpec], shape: tuple,
                report: Report, expected: Mapping[str, str]):
    """Fresh-Runner passes that resolve ``specs`` one call at a time from
    the disk cache, in bursts paced evenly over a window; ``shape`` is
    (bursts, passes per burst, window seconds).  Every result is
    checked; one that had to be simulated fails.  Returns (call seconds
    indexed [burst][pass][spec], merged runner stats).

    Host speed on a shared machine drifts by tens of percent over
    seconds while a call takes a fraction of a millisecond, so any one
    burst reads whatever moment it lands on.  Callers therefore report
    best times across bursts: the cost of the work itself, which a
    slower read path still raises.
    """
    bursts, passes, window_s = shape
    calls: List[List[List[float]]] = []
    stats = BatchStats()
    start = time.monotonic()
    for burst in range(bursts):
        time.sleep(max(0.0, start + burst * window_s / bursts
                       - time.monotonic()))
        calls.append([])
        for _ in range(passes):
            runner = Runner(jobs=1, cache=ResultCache(cache_dir))
            times, resolved = [], []
            for spec in specs:
                started = time.perf_counter()
                result = runner.run(spec)
                times.append(time.perf_counter() - started)
                resolved.append((spec, result, runner.last_stats.executed))
            calls[-1].append(times)
            for spec, result, executed in resolved:
                report.check(spec, result.to_dict(), expected,
                             also=(f"{spec.label()}: warm pass simulated it"
                                   if executed else None))
            stats = stats.merged_with(runner.total_stats)
    return calls, stats


def _best_pass_s(calls) -> float:
    """A pass over the list with every call at its best time in the
    phase: the lower envelope of the pass cost."""
    per_spec = zip(*(times for burst in calls for times in burst))
    return sum(min(times) for times in per_spec)


def _runner_counts(stats: BatchStats) -> Dict[str, float]:
    return {"runner.executed": stats.executed,
            "runner.cache_hits": stats.cache_hits,
            "runner.memo_hits": stats.memo_hits,
            "runner.failed": stats.failed}


def _stats_delta(after: BatchStats, before: BatchStats) -> BatchStats:
    return BatchStats(**{name: getattr(after, name) - getattr(before, name)
                         for name in ("total", "unique", "memo_hits",
                                      "cache_hits", "executed", "failed",
                                      "retried")})


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def run_sweep(ctx: Context) -> Report:
    report = Report()
    order = inputs.sweep_order(ctx.seed)

    def setup(i: int) -> None:
        runner = Runner(jobs=1, cache=ResultCache(ctx.workdir / f"setup{i}"))
        result = runner.run(inputs.WARMUP_SPEC)
        reason = inputs.check_result(inputs.WARMUP_SPEC, result.to_dict(),
                                     ctx.expected)
        if reason is not None:
            report.problems.append(f"set-up: {reason}")

    setup_s, _ = _set_up(ctx, setup)

    cache_dir = ctx.workdir / "cold"
    runner = Runner(jobs=1, cache=ResultCache(cache_dir))
    started = time.perf_counter()
    results = runner.run_batch(order)
    sweep_s = time.perf_counter() - started
    for spec, result in zip(order, results):
        report.check(spec, result.to_dict(), ctx.expected)
    calls, warm_stats = _warm_phase(cache_dir, order, SWEEP_WARM, report,
                                    ctx.expected)
    stats = runner.total_stats.merged_with(warm_stats)
    # Each (pass, spec) position repeats the same call in every burst;
    # its best time across bursts strips the host's slow spells.
    best_calls = [min(burst[p][i] for burst in calls)
                  for p in range(SWEEP_WARM[1]) for i in range(len(order))]
    report.layers.update(layers.result_metrics(
        result.to_dict() for result in results))
    report.layers.update(_runner_counts(stats))
    report.layers.update(_shares(stats.total, stats.executed, stats.memo_hits,
                                 0, stats.cache_hits))
    report.layers.update(dict.fromkeys(NOT_IN_SWEEP, 0.0))
    report.e2e = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "warm_s": _best_pass_s(calls),
        "p50_ms": median(best_calls) * 1000.0,
        "p90_ms": percentile(best_calls, 0.9) * 1000.0,
    }
    report.context["samples"] = {"p50_ms": len(best_calls),
                                 "p90_ms": len(best_calls),
                                 "warm_bursts": SWEEP_WARM[0]}

    if ctx.traced:
        tracer = Tracer(track="perfbench", run_label="sweep")
        with layers.Instrumentation(tracer):
            cache_dir = ctx.workdir / "traced"
            runner = Runner(jobs=1, cache=ResultCache(cache_dir))
            root = tracer.start_span("runner.run_batch", specs=len(order))
            with layers.PackageSampler() as sampler, \
                    trace_scope(tracer, root):
                started = time.perf_counter()
                results = runner.run_batch(order)
                traced_s = time.perf_counter() - started
            root.end()
            for spec, result in zip(order, results):
                report.check(spec, result.to_dict(), ctx.expected)
            with tracer.start_span("sweep.warm_phase"):
                _warm_phase(cache_dir, order, SWEEP_WARM, report,
                            ctx.expected)
        report.layers.update(layers.span_metrics(tracer.spans()))
        report.layers.update(sampler.fractions())
        report.layers["obs.trace_overhead_frac"] = traced_s / sweep_s - 1
        report.context["profile_samples"] = sampler.samples
        tracer.write(ctx.trace_path)
    return report


def _shares(total: int, misses: int, memo_hits: int, coalesced: int,
            cache_hits: int) -> Dict[str, float]:
    """Which input properties the workload's requests actually had."""
    return {"share.misses": fraction(misses, total),
            "share.memo_hits": fraction(memo_hits, total),
            "share.coalesced": fraction(coalesced, total),
            "share.cache_hits": fraction(cache_hits, total)}


# ----------------------------------------------------------------------
# serve-hot / serve-cold
# ----------------------------------------------------------------------
class Deployment:
    """The served stack both serve workloads run: an HTTP service with
    its fsync'd write-ahead journal over a supervised pool of workers."""

    def __init__(self, root: Path, trace: bool = False):
        self.cache_dir = root / "cache"
        self.runner = Runner(cache=ResultCache(self.cache_dir),
                             supervisor=SupervisorConfig(workers=SERVE_WORKERS))
        config = ServiceConfig(port=0, journal_dir=str(root / "journal"),
                               journal_fsync=True, trace=trace)
        self.thread = ServerThread(runner=self.runner, config=config)
        self.client: Optional[Client] = None

    def start(self) -> "Deployment":
        self.thread.start()
        self.client = Client(self.thread.host, self.thread.port, timeout=30.0)
        if not self.client.wait_ready(timeout=30.0):
            self.thread.stop()
            raise RuntimeError("service did not become ready within 30s")
        return self

    @property
    def service(self):
        return self.thread.server.service

    def play(self, schedule: Sequence[inputs.Request]) -> List[Outcome]:
        return run_open_loop(self.thread.host, self.thread.port, schedule,
                             max_inflight=MAX_INFLIGHT,
                             timeout_s=REQUEST_TIMEOUT_S)

    def counters(self) -> Dict[str, float]:
        flat = dict(self.client.metrics())
        flat["retries"] = self.runner.pool.stats().get("retries", 0)
        return flat

    def stop(self) -> None:
        self.thread.drain(timeout_s=30.0)


def _outcome_problem(outcome: Outcome,
                     expected: Mapping[str, str]) -> Optional[str]:
    spec = outcome.request.spec
    if outcome.error is not None:
        return f"{spec.label()}: {outcome.error}"
    if outcome.status != 200 or not isinstance(outcome.body, dict):
        return f"{spec.label()}: HTTP {outcome.status}"
    return inputs.check_result(spec, outcome.body.get("result") or {},
                               expected)


def _tally(report: Report, outcomes: Sequence[Outcome],
           expected: Mapping[str, str]) -> List[float]:
    """Check every response; returns latencies in ms with failures
    entered at the request timeout."""
    latencies = []
    for outcome in outcomes:
        problem = _outcome_problem(outcome, expected)
        report.attempted += 1
        if problem is not None:
            report.failed += 1
            report.problems.append(problem)
            latencies.append(REQUEST_TIMEOUT_S * 1000.0)
        else:
            latencies.append(outcome.latency_ms)
    return latencies


def _warm_up(deployment: Deployment, specs: Sequence[RunSpec],
             report: Report, expected: Mapping[str, str]) -> None:
    """Serve ``specs`` once each (set-up traffic, not counted)."""
    burst = [inputs.Request(0.0, spec, "setup") for spec in specs]
    for outcome in deployment.play(burst):
        problem = _outcome_problem(outcome, expected)
        if problem is not None:
            report.problems.append(f"set-up: {problem}")


def run_serve(ctx: Context, hot: bool) -> Report:
    report = Report()
    if hot:
        schedule = inputs.hot_schedule(ctx.seed, ctx.seconds)
        warm_specs = list(inputs.HOT_POOL) + [inputs.WARMUP_SPEC]
    else:
        schedule = inputs.cold_schedule(ctx.seed, ctx.seconds)
        warm_specs = [inputs.WARMUP_SPEC]

    def setup(i: int) -> Deployment:
        deployment = Deployment(ctx.workdir / f"svc{i}").start()
        _warm_up(deployment, warm_specs, report, ctx.expected)
        return deployment

    setup_s, deployment = _set_up(ctx, setup, discard=Deployment.stop)
    try:
        before, stats_before = deployment.counters(), deployment.runner.total_stats
        outcomes = deployment.play(schedule)
        after, stats_after = deployment.counters(), deployment.runner.total_stats
    finally:
        deployment.stop()
    latencies = _tally(report, outcomes, ctx.expected)

    served: Dict[str, RunSpec] = {}
    for spec in warm_specs + [outcome.request.spec for outcome in outcomes]:
        served.setdefault(inputs.spec_id(spec), spec)
    passes = -(-SERVE_BURST_CALLS // len(served))
    calls = _warm_phase(deployment.cache_dir, list(served.values()),
                        (SERVE_WARM_BURSTS, passes, SERVE_WARM_WINDOW_S),
                        report, ctx.expected)[0]

    report.e2e = {
        "setup_s": setup_s,
        "sweep_s": max(o.done for o in outcomes) - min(o.due for o in outcomes),
        "warm_s": _best_pass_s(calls),
        "p50_ms": median(latencies),
        "p90_ms": percentile(latencies, 0.9),
    }
    report.context["samples"] = {"p50_ms": len(latencies),
                                 "p90_ms": len(latencies)}

    delta = {name: after.get(name, 0) - before.get(name, 0)
             for name in after}
    requests = delta.get("serve.requests", 0)
    fresh_results = [o.body["result"] for o in outcomes
                     if o.request.fresh and o.status == 200]
    report.layers.update(layers.result_metrics(fresh_results))
    report.layers.update(_runner_counts(_stats_delta(stats_after,
                                                     stats_before)))
    report.layers.update(_shares(requests, delta.get("serve.executed", 0),
                                 delta.get("serve.memo_hits", 0),
                                 delta.get("serve.coalesced", 0),
                                 delta.get("serve.cache_hits", 0)))
    report.layers.update({
        "supervisor.retries": delta.get("retries", 0),
        "serve.batch_occupancy_mean": fraction(
            delta.get("serve.batch_occupancy_sum", 0),
            delta.get("serve.batch_occupancy_count", 0)),
        "serve.coalesced": delta.get("serve.coalesced", 0),
        "serve.shed": delta.get("serve.shed", 0),
        "loadgen.late_ms_p90": percentile([o.late_ms for o in outcomes], 0.9),
    })

    if ctx.traced:
        traced_p50_ms = _traced_serve(ctx, report, schedule, warm_specs)
        report.layers["obs.trace_overhead_frac"] = (
            traced_p50_ms / report.e2e["p50_ms"] - 1)
    return report


def _traced_serve(ctx: Context, report: Report,
                  schedule: Sequence[inputs.Request],
                  warm_specs: Sequence[RunSpec]) -> float:
    """The same schedule against a fresh, traced deployment; fills in
    the span-derived layer metrics and returns the traced p50 (ms)."""
    deployment = Deployment(ctx.workdir / "traced", trace=True).start()
    tracer = Tracer(track="perfbench", run_label="serve")
    try:
        _warm_up(deployment, warm_specs, report, ctx.expected)
        start_us = time.monotonic_ns() // 1000
        with layers.Instrumentation(tracer):
            outcomes = deployment.play(schedule)
    finally:
        deployment.stop()
    latencies = _tally(report, outcomes, ctx.expected)

    service_spans = [span for span in deployment.service.tracer.spans()
                     if span.start_us >= start_us]
    tracer.adopt(span.to_dict() for span in service_spans)
    request_ms = {span.attrs.get("job"): span.duration_us / 1000.0
                  for span in service_spans
                  if span.name == "serve.request" and "job" in span.attrs}
    overheads = []
    for outcome in outcomes:
        span = tracer.start_span("http.request",
                                 spec=outcome.request.spec.label(),
                                 status=outcome.status,
                                 late_ms=round(outcome.late_ms, 3))
        span.start_us = int(outcome.sent * 1e6)
        span.end(at_us=int(outcome.done * 1e6))
        body = outcome.body if isinstance(outcome.body, dict) else {}
        if not body.get("coalesced") and body.get("id") in request_ms:
            overheads.append(outcome.round_trip_ms - request_ms[body["id"]])
    report.layers.update(layers.span_metrics(tracer.spans()))
    report.layers.update({f"{layer}.self_frac": 0.0
                          for _, layer in layers.SAMPLED_PACKAGES})
    report.layers["http.overhead_ms_p50"] = median(overheads)
    tracer.write(ctx.trace_path)
    return median(latencies)


WORKLOADS: Dict[str, Callable[[Context], Report]] = {
    "sweep": run_sweep,
    "serve-hot": lambda ctx: run_serve(ctx, hot=True),
    "serve-cold": lambda ctx: run_serve(ctx, hot=False),
}


def finish(report: Report) -> Report:
    """Fill in the metrics every workload shares."""
    report.e2e["peak_rss_mb"] = peak_rss_mib()
    report.e2e["ok_frac"] = 1.0 - fraction(report.failed, report.attempted)
    return report
