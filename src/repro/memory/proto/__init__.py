"""Table-driven coherence protocols (``repro.memory.proto``).

The protocol a machine runs is data, not code: a
:class:`~repro.memory.proto.table.ProtocolTable` maps
``(stable directory state, event) -> (guard, actions, commits, reply,
next state)`` and the generic interpreter in
:mod:`repro.memory.proto.engine` executes it against live directory
entries with the paper's Table-1 timing.  A static lint
(:mod:`repro.memory.proto.lint`, also ``scripts/protocol_lint.py``)
proves every registered table exhaustive, reachable, action-legal, and
free of stall cycles before it is ever simulated.

Registered variants:

* ``dir-inv`` — the paper's invalidate-based fully-mapped directory
  protocol plus the Section-4 slipstream extensions (baseline; the
  digests in ``tests/fixtures/proto_digests.json`` are its reference),
* ``dls`` — a directoryless shared-LLC protocol: owner pointer only,
  sync-point self-invalidation instead of sharer tracking.

Select with ``MachineConfig.protocol``.
"""

from __future__ import annotations

from typing import Dict

from repro.memory.proto import dir_inv, dls
from repro.memory.proto.engine import ProtocolEngine, ProtocolHole
from repro.memory.proto.table import (ACTIONS, COMMITS, DATAGRAM_EVENTS,
                                      DEMAND_EVENTS, GUARDS, ActionSpec,
                                      Capabilities, Event, Msg,
                                      ProtocolTable, Reply, Row)

#: every registered protocol table, by ``MachineConfig.protocol`` name
TABLES: Dict[str, ProtocolTable] = {
    dir_inv.TABLE.name: dir_inv.TABLE,
    dls.TABLE.name: dls.TABLE,
}


def protocol_names():
    """Names accepted by ``MachineConfig.protocol``, in registry order."""
    return tuple(TABLES)


def table_by_name(name: str) -> ProtocolTable:
    try:
        return TABLES[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; registered: "
            f"{', '.join(TABLES)}") from None


__all__ = [
    "ACTIONS", "COMMITS", "DATAGRAM_EVENTS", "DEMAND_EVENTS", "GUARDS",
    "ActionSpec", "Capabilities", "Event", "Msg", "ProtocolEngine",
    "ProtocolHole", "ProtocolTable", "Reply", "Row", "TABLES",
    "protocol_names", "table_by_name",
]
