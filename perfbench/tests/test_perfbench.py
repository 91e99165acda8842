"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.experiments.runner import execute_spec  # noqa: E402

from perfbench import inputs, workloads  # noqa: E402
from perfbench.loadgen import Outcome  # noqa: E402
from perfbench.measure import TooFewSamples, percentile  # noqa: E402


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_schedules_are_deterministic_per_seed():
    assert inputs.hot_schedule(7, 10) == inputs.hot_schedule(7, 10)
    assert inputs.cold_schedule(7, 40) == inputs.cold_schedule(7, 40)
    assert inputs.sweep_order(7) == inputs.sweep_order(7)
    assert inputs.hot_schedule(7, 10) != inputs.hot_schedule(8, 10)
    assert inputs.cold_schedule(7, 40) != inputs.cold_schedule(8, 40)


def test_schedule_shape():
    hot = inputs.hot_schedule(3, 10)
    assert len(hot) == round(inputs.HOT_RATE * 10)
    assert [r.due_s for r in hot] == sorted(r.due_s for r in hot)
    assert {r.spec for r in hot} <= set(inputs.HOT_POOL)
    assert sorted(inputs.sweep_order(3), key=inputs.spec_id) == sorted(
        inputs.SWEEP_SPECS, key=inputs.spec_id)

    cold = inputs.cold_schedule(3, 40)
    fresh = [r.spec for r in cold if r.fresh]
    assert len(fresh) == len(set(fresh))              # fresh means first use
    assert set(fresh) <= set(inputs.COLD_POOL)
    assert 0.5 < len(fresh) / len(cold) < 0.9
    seen = set()
    for request in cold:                               # repeats come later
        assert request.fresh == (request.spec not in seen)
        seen.add(request.spec)


def test_measured_pools_exclude_the_warmup_spec():
    measured = set(inputs.SWEEP_SPECS) | set(inputs.COLD_POOL)
    assert inputs.WARMUP_SPEC not in measured
    assert set(inputs.HOT_POOL) <= set(inputs.COLD_POOL)


def test_expected_digests_cover_every_spec_and_match_a_fresh_run():
    expected = inputs.load_expected()
    assert {inputs.spec_id(s) for s in inputs.all_specs()} == set(expected)
    result = execute_spec(inputs.WARMUP_SPEC).to_dict()
    assert inputs.check_result(inputs.WARMUP_SPEC, result, expected) is None
    # A JSON round trip (an HTTP response) digests identically.
    assert inputs.check_result(inputs.WARMUP_SPEC,
                               json.loads(json.dumps(result)), expected) is None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90
    with pytest.raises(TooFewSamples):
        percentile(values[:99], 0.9)
    assert percentile([5.0], 0.5) == 5.0
    with pytest.raises(TooFewSamples):
        percentile([], 0.5)


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def _outcome(spec, status, body=None, error=None):
    return Outcome(inputs.Request(0.0, spec, "c0"), due=0.0, sent=0.1,
                   done=0.2, status=status, body=body, error=error)


def test_failures_count_against_attempts():
    spec = inputs.WARMUP_SPEC
    good = execute_spec(spec).to_dict()
    wrong = dict(good, exec_cycles=good["exec_cycles"] + 1)
    expected = inputs.load_expected()
    report = workloads.Report()
    latencies = workloads._tally(report, [
        _outcome(spec, 200, {"result": good}),
        _outcome(spec, 200, {"result": wrong}),
        _outcome(spec, 429, {"error": {"message": "queue full"}}),
        _outcome(spec, 0, error="OSError: refused"),
        _outcome(spec, 200, {"result": dict(good, error={"type": "X"})}),
    ], expected)
    assert (report.attempted, report.failed) == (5, 4)
    assert latencies[0] == pytest.approx(200.0)
    assert latencies[1:] == [workloads.REQUEST_TIMEOUT_S * 1000.0] * 4
    workloads.finish(report)
    assert report.e2e["ok_frac"] == pytest.approx(0.2)


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    expected = dict(inputs.load_expected())
    victim = inputs.spec_id(inputs.HOT_POOL[0])
    expected[victim] = "0" * 64
    ctx = workloads.Context(seed=1, seconds=5.0, traced=False,
                            workdir=tmp_path / "work",
                            trace_path=tmp_path / "trace.json",
                            one_time_s=0.0, expected=expected)
    report = workloads.run_serve(ctx, hot=True)
    assert report.problems
    assert all("digest mismatch" in p for p in report.problems)
    assert report.failed > 0
    assert report.failed < report.attempted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
