#!/usr/bin/env python3
"""Rewrite ``perfbench/expected.json``: simulate every spec any workload
or seed can send and record the digest of its deterministic result.

Run it only after a deliberate change to simulated behaviour, from the
repository root::

    python3 perfbench/make_expected.py

It takes under a minute on a 2-CPU host.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.experiments.runner import execute_spec  # noqa: E402

from perfbench.inputs import (EXPECTED_PATH, all_specs,  # noqa: E402
                              result_digest, spec_id)


def main() -> int:
    digests = {}
    for spec in all_specs():
        result = execute_spec(spec)
        if result.error is not None:
            print(f"{spec.label()} failed: {result.error}", file=sys.stderr)
            return 1
        digests[spec_id(spec)] = {"label": spec.label(),
                                  "spec": spec.as_dict(),
                                  "digest": result_digest(result.to_dict())}
    EXPECTED_PATH.write_text(json.dumps(
        {"format": 1, "digests": dict(sorted(digests.items()))},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
