"""What each workload sends: spec pools, seeded schedules, expected digests.

Everything here is a pure function of the workload seed, so the same
seed always yields the same inputs.  The program under test only ever
sees the generated specs.

Outputs are checked against ``expected.json``: one SHA-256 digest per
spec over the deterministic :class:`~repro.experiments.driver.RunResult`
fields (:func:`repro.serve.deterministic_dict`, i.e. everything but the
wall time).  The file covers every spec any seed can draw, so a run
verifies its results without re-simulating.  ``make_expected.py``
rewrites it after a deliberate change to simulated behaviour.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.experiments.runner import RunSpec

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: the closed batch a figure regeneration looks like: the four ocean@4
#: specs share one task count, so tape reuse is present at a known share
SWEEP_SPECS = (
    RunSpec("ocean", "single", 4),
    RunSpec("ocean", "slipstream", 4),
    RunSpec("ocean", "slipstream", 4, si=True),
    RunSpec("ocean", "slipstream", 4, config_overrides=(("protocol", "dls"),)),
    RunSpec("lu", "slipstream", 4, si=True),
    RunSpec("sor", "slipstream", 8, policy="L0", si=True),
    RunSpec("fft", "slipstream", 8),
    RunSpec("cg", "double", 4),
    RunSpec("water-ns", "slipstream", 4),
)


def _cold_pool() -> tuple:
    specs = []
    for workload, cmps in (("fft", (1, 2)), ("water-ns", (1, 2)),
                           ("sp", (1, 2)), ("water-sp", (2,))):
        for n_cmps in cmps:
            specs.append(RunSpec(workload, "single", n_cmps))
            specs.append(RunSpec(workload, "double", n_cmps))
            for policy in ("G0", "G1", "L0", "L1"):
                for si in (False, True):
                    specs.append(RunSpec(workload, "slipstream", n_cmps,
                                         policy=policy, si=si))
    return tuple(specs)


#: 70 cheap specs (water-sp@1, the costliest corner, is left out).  At
#: the defined rate and length serve-cold draws every one of them once,
#: so every seed pays the same simulation work in a different order.
COLD_POOL = _cold_pool()

#: the cheapest corner of the cold pool; set-up serves each once, so
#: every timed serve-hot request is an in-memory memo hit
HOT_POOL = (
    RunSpec("fft", "single", 1),
    RunSpec("fft", "slipstream", 1),
    RunSpec("water-ns", "single", 1),
    RunSpec("water-ns", "slipstream", 1, policy="L0"),
    RunSpec("sp", "single", 1),
    RunSpec("fft", "double", 2),
)

#: set-up traffic that must not overlap any measured pool: it warms the
#: import, fork and simulation paths without pre-filling a cache entry
WARMUP_SPEC = RunSpec("fft", "sequential", 1)

#: offered load of the open-loop workloads (requests per second)
HOT_RATE = 20.0
COLD_RATE = 2.5
#: share of serve-cold requests that draw a spec not used before
COLD_FRESH_SHARE = 0.7
#: of the repeats, the share aimed at the most recent fresh spec (likely
#: still in flight, so it coalesces); the rest repeat a random earlier one
COLD_RECENT_SHARE = 0.5
#: client ids the load is spread over; with at most two requests in
#: flight this stays far below ServiceConfig.per_client_inflight
CLIENT_IDS = 4


def all_specs() -> List[RunSpec]:
    """Every spec any workload or seed can send, without duplicates."""
    seen: Dict[str, RunSpec] = {}
    for spec in SWEEP_SPECS + COLD_POOL + HOT_POOL + (WARMUP_SPEC,):
        seen.setdefault(spec_id(spec), spec)
    return list(seen.values())


def spec_id(spec: RunSpec) -> str:
    """Stable id of a spec's content.  Unlike ``RunSpec.key()`` it leaves
    out the simulator's source fingerprint, so it survives code edits."""
    blob = json.dumps(spec.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_digest(result: Mapping[str, object]) -> str:
    """Digest of a result's deterministic fields.

    ``result`` is ``RunResult.to_dict()`` or the same dict after a JSON
    round trip (an HTTP response).  The round trip below makes both
    spell identically; ``wall_seconds`` is dropped, as in
    :func:`repro.serve.deterministic_dict`.
    """
    data = json.loads(json.dumps(dict(result)))
    data.pop("wall_seconds", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, str]:
    """spec id -> expected digest."""
    blob = json.loads(path.read_text())
    return {key: entry["digest"] for key, entry in blob["digests"].items()}


def check_result(spec: RunSpec, result: Mapping[str, object],
                 expected: Mapping[str, str]) -> Optional[str]:
    """None when ``result`` is the expected output of ``spec``, else a
    one-line reason."""
    if result.get("error") is not None:
        return f"{spec.label()}: error result {result['error']}"
    want = expected.get(spec_id(spec))
    if want is None:
        return f"{spec.label()}: no expected digest"
    if result_digest(result) != want:
        return f"{spec.label()}: digest mismatch"
    return None


# ----------------------------------------------------------------------
# Seeded schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One open-loop request: when it is due (seconds from the start of
    the timed phase), what it asks for, and on behalf of which client."""

    due_s: float
    spec: RunSpec
    client: str
    fresh: bool = False


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sweep_order(seed: int) -> List[RunSpec]:
    """The sweep batch in a seeded order (the set never changes)."""
    order = list(SWEEP_SPECS)
    _rng("sweep", seed).shuffle(order)
    return order


def _due_times(rng: random.Random, rate: float, seconds: float,
               even: bool = False) -> List[float]:
    """``round(rate * seconds)`` due times over the window.

    Poisson arrivals conditioned on their count (sorted uniform draws),
    or with ``even`` a fixed interval.  Fixing the count fixes the
    sample size every seed's percentiles rest on.
    """
    n = max(1, round(rate * seconds))
    if even:
        return [(i + 0.5) / rate for i in range(n)]
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


def hot_schedule(seed: int, seconds: float) -> List[Request]:
    rng = _rng("serve-hot", seed)
    return [Request(due, rng.choice(HOT_POOL), f"c{rng.randrange(CLIENT_IDS)}")
            for due in _due_times(rng, HOT_RATE, seconds)]


def cold_schedule(seed: int, seconds: float) -> List[Request]:
    """Evenly spaced requests: a fixed share draw never-used specs, the
    rest repeat.  (Even spacing keeps Poisson bursts from queueing one
    simulation behind another, which would swamp the per-job cost this
    workload exists to show.)

    ``COLD_FRESH_SHARE`` of the requests (capped by the pool size) draw
    a spec not used before, at seeded positions; the first request is
    always one.  A repeat aims at the latest fresh spec (usually still
    in flight, so it coalesces) or at a random earlier one (a memo hit).
    """
    rng = _rng("serve-cold", seed)
    due_times = _due_times(rng, COLD_RATE, seconds, even=True)
    n_fresh = max(1, min(len(COLD_POOL),
                         round(COLD_FRESH_SHARE * len(due_times))))
    fresh_at = {0} | set(rng.sample(range(1, len(due_times)), n_fresh - 1))
    unused = list(COLD_POOL)
    rng.shuffle(unused)
    used: List[RunSpec] = []
    schedule = []
    for index, due in enumerate(due_times):
        client = f"c{rng.randrange(CLIENT_IDS)}"
        if index in fresh_at:
            used.append(unused.pop())
            schedule.append(Request(due, used[-1], client, fresh=True))
        elif rng.random() < COLD_RECENT_SHARE:
            schedule.append(Request(due, used[-1], client))
        else:
            schedule.append(Request(due, rng.choice(used), client))
    return schedule
