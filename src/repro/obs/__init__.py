"""Observability spine: one attachment point for tracing, metrics, hooks.

Three generations of instrumentation used to coexist — the bounded
:class:`~repro.sim.trace.Tracer`, the checker/fault hook pairs on the
engine, and ad-hoc counters hand-threaded through the memory, slipstream,
and stats layers.  This package unifies them behind a single spine:

* :class:`~repro.obs.bus.ObsBus` — the typed event bus.  Components hold
  :class:`~repro.obs.bus.Probe` objects (or ``None``, the zero-overhead
  default) and emit timestamped events; subscribers fan in.
* :class:`~repro.obs.registry.MetricsRegistry` — labeled counters,
  gauges, and histograms (``l2.miss{cause=coherence,node=3}``) fed push-
  style from hot components or pull-style via collectors
  (:mod:`repro.obs.collect`).
* exporters (:mod:`repro.obs.export`) — Chrome/Perfetto trace JSON for
  timelines, flat JSON/CSV for metrics.

:class:`Observability` bundles the three and is the *only* thing that
hangs off the engine (``engine.obs``).  The legacy channels attach
through it: ``Engine.install_checker``/``install_faults`` now route here
(still mirroring onto ``engine.checker``/``engine.faults`` so every
existing ``is None`` hook site is untouched), and the legacy ``Tracer``
rides along as a thin bus subscriber restricted to the event categories
it historically recorded; no component holds a tracer.  Its event
stream is pinned by the digests in ``tests/fixtures/proto_digests.json``.

The zero-overhead contract, restated: a machine built without a spine
has ``engine.obs is None``; components then hold ``None`` probes and an
instrumented call site costs one ``is None`` test.  With a spine but no
subscriber for a category, the site additionally checks ``probe.live``
before building any event strings.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.bus import ObsBus, Probe, Subscriber
from repro.obs.export import (PerfettoExporter, validate_perfetto,
                              write_metrics_csv, write_metrics_json)
from repro.obs.registry import (Counter, Gauge, Histogram, MetricsRegistry,
                                series_name)
from repro.obs.trace import (NOOP_SPAN, Span, SpanContext, Tracer,
                             current_scope, trace_scope)

#: the event categories the pre-spine Tracer recorded; the legacy tracer
#: subscription is restricted to these so traced/checked runs see exactly
#: the event stream (and ring contents) they always did
LEGACY_TRACE_CATEGORIES = (
    "txn", "migratory", "intervention", "si-hint",
    "si-inval", "si-downgrade",
    "recovery", "adapt", "demote", "promote", "corrupt")


class Observability:
    """Bus + registry + exporters for one simulated machine.

    Construct it *before* the machine components are built and install it
    with :meth:`~repro.sim.engine.Engine.install_obs` — the fabric, L2
    controllers, processors, and slipstream pairs capture ``engine.obs``
    (and their probes) at construction time, exactly like the checker and
    fault hooks always have.
    """

    def __init__(self, engine, metrics: bool = False,
                 run_label: str = "repro"):
        self.engine = engine
        self.run_label = run_label
        self.bus = ObsBus(engine)
        self.registry = MetricsRegistry()
        #: push-style metrics enabled: hot components create registry
        #: handles at construction and feed them inline
        self.metrics_on = metrics
        #: the attached legacy channels (None until attached)
        self.tracer = None
        self.checker = None
        self.faults = None
        self.exporters = []

    # ------------------------------------------------------------------
    # Bus facade
    # ------------------------------------------------------------------
    def probe(self, category: str) -> Probe:
        return self.bus.probe(category)

    def publish(self, category: str, subject: str, detail: str = "",
                **args) -> None:
        self.bus.publish(category, subject, detail, **args)

    def subscribe(self, fn: Subscriber,
                  categories: Optional[Iterable[str]] = None) -> Subscriber:
        return self.bus.subscribe(fn, categories)

    def unsubscribe(self, fn: Subscriber) -> None:
        self.bus.unsubscribe(fn)

    # ------------------------------------------------------------------
    # Legacy-channel attachment
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer,
                      categories: Optional[Iterable[str]] =
                      LEGACY_TRACE_CATEGORIES):
        """Subscribe a legacy :class:`~repro.sim.trace.Tracer`.

        By default the subscription is restricted to the categories the
        tracer historically recorded, so its counts and bounded ring stay
        identical to the pre-spine behaviour; pass ``categories=None`` to
        feed it everything.
        """
        self.tracer = tracer
        self.bus.subscribe(tracer.on_event, categories)
        return tracer

    def attach_checker(self, checker):
        """Attach an invariant-checker suite; mirrors onto
        ``engine.checker`` so the existing hook sites keep working."""
        self.checker = checker
        self.engine.checker = checker
        return checker

    def attach_faults(self, injector):
        """Attach a fault injector; mirrors onto ``engine.faults``."""
        self.faults = injector
        self.engine.faults = injector
        return injector

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def add_perfetto(self, run_label: Optional[str] = None) -> PerfettoExporter:
        """Attach (and return) a Chrome/Perfetto trace exporter that will
        capture every event published from this point on."""
        exporter = PerfettoExporter(run_label or self.run_label)
        self.bus.subscribe(exporter.on_event)
        self.exporters.append(exporter)
        return exporter

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def collect(self) -> MetricsRegistry:
        """Run the registry's pull-style collectors; returns the registry."""
        return self.registry.collect()

    def flat_metrics(self) -> dict:
        """Collect, then export every series as a flat mapping."""
        return self.collect().flat()

    def __repr__(self) -> str:
        return (f"<Observability metrics={'on' if self.metrics_on else 'off'} "
                f"{self.bus!r} {self.registry!r}>")


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LEGACY_TRACE_CATEGORIES",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ObsBus",
    "Observability",
    "PerfettoExporter",
    "Probe",
    "Span",
    "SpanContext",
    "Tracer",
    "current_scope",
    "series_name",
    "trace_scope",
    "validate_perfetto",
    "write_metrics_csv",
    "write_metrics_json",
]
