"""Async simulation service: a long-lived, admission-controlled front-end.

``python -m repro.serve`` starts an asyncio HTTP/JSON server (stdlib
only) that accepts :class:`~repro.experiments.runner.RunSpec` requests
and pushes them through an inference-serving-shaped pipeline::

    admission -> single-flight dedup -> batch -> Runner.run_batch -> obs

See :mod:`repro.serve.service` for the pipeline, :mod:`repro.serve.http`
for the endpoints, :mod:`repro.serve.client` for the blocking client and
the Runner-shaped adapter, and docs/architecture.md §12 for the
admission/backpressure semantics and the bit-identity contract between
served and direct runs.  ``scripts/loadgen.py`` replays deterministic
seeded request traces against a running service.

Durability (docs/architecture.md §13): :mod:`repro.serve.journal` is a
write-ahead job journal — with ``--journal-dir`` set, a ``kill -9``
mid-run loses no accepted work; the next start replays unresolved jobs
(bit-identical results, the simulator being deterministic) before the
readiness probe (``/healthz?ready=1``) goes green.
"""

from repro.config import ServiceConfig
from repro.serve.client import Client, ServiceError, ServiceRunner
from repro.serve.http import ServerThread, ServiceServer
from repro.serve.journal import JobJournal, JournalEntry, JournalReplay
from repro.serve.service import (Job, Shed, SimulationService,
                                 deterministic_dict, spec_from_dict)

__all__ = ["Client", "Job", "JobJournal", "JournalEntry", "JournalReplay",
           "ServerThread", "ServiceConfig", "ServiceError",
           "ServiceRunner", "ServiceServer", "Shed", "SimulationService",
           "deterministic_dict", "spec_from_dict"]
