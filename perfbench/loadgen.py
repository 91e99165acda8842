"""Open-loop HTTP load generator.

Each request is sent when it is due, whatever happened to the ones
before it; latency is timed from the due time, so a stall that delays
later sends is charged to them.  At most ``max_inflight`` requests are
on the wire at once (one connection each, matching the server's
``Connection: close`` framing); a request that finds every slot busy
waits, and that wait shows up both in its latency and in how late it
was sent.

The client speaks HTTP/1.1 directly over asyncio streams rather than
through the serving package, so a change to the server's own helpers
cannot change how the load is generated.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from perfbench.inputs import Request


@dataclass
class Outcome:
    """What happened to one request (times on the ``time.monotonic``
    clock, seconds)."""

    request: Request
    due: float
    sent: float
    done: float
    status: int                      #: HTTP status, 0 on transport failure
    body: object = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return max(0.0, self.sent - self.due) * 1000.0

    @property
    def round_trip_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def encode_post(host: str, port: int, path: str, payload: object) -> bytes:
    body = json.dumps(payload).encode()
    head = (f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    return head.encode("latin-1") + body


def decode_response(raw: bytes) -> Tuple[int, object]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split(" ", 2)[1])
    return status, (json.loads(body) if body else None)


async def exchange(host: str, port: int, wire: bytes) -> Tuple[int, object]:
    """Send one pre-encoded request on a fresh connection; read to EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(wire)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return decode_response(raw)


async def _drive(host: str, port: int, schedule: Sequence[Request],
                 max_inflight: int, timeout_s: float,
                 lead_s: float) -> List[Outcome]:
    loop = asyncio.get_running_loop()
    wires = [encode_post(host, port, "/runs",
                         {"spec": request.spec.as_dict(),
                          "client": request.client})
             for request in schedule]
    slots = asyncio.Semaphore(max_inflight)
    start = loop.time() + lead_s
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)

    async def one(index: int, request: Request) -> None:
        due = start + request.due_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        async with slots:
            sent = loop.time()
            status, body, error = 0, None, None
            try:
                status, body = await asyncio.wait_for(
                    exchange(host, port, wires[index]), timeout_s)
            except (OSError, asyncio.TimeoutError, ValueError,
                    IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            outcomes[index] = Outcome(request, due, sent, loop.time(),
                                      status, body, error)

    await asyncio.gather(*(one(i, request)
                           for i, request in enumerate(schedule)))
    return outcomes  # type: ignore[return-value]


def run_open_loop(host: str, port: int, schedule: Sequence[Request],
                  max_inflight: int = 2, timeout_s: float = 60.0,
                  lead_s: float = 0.05) -> List[Outcome]:
    """Replay ``schedule`` against ``host:port``; returns one
    :class:`Outcome` per request, in schedule order.  ``lead_s`` gives
    the loop time to start before the first due time."""
    if max_inflight < 1:
        raise ValueError("max_inflight must be >= 1")
    return asyncio.run(_drive(host, port, schedule, max_inflight,
                              timeout_s, lead_s))
