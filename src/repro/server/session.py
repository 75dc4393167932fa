"""Per-connection session state: queue, inflight window, flow control.

Each connection becomes one :class:`Session` bound to a kernel pid.  The
session owns a FIFO of parsed requests awaiting the kernel task and the
*inflight window*: once ``window`` requests are queued, the connection
handler stops reading from the transport until the kernel drains below the
window — per-session backpressure that propagates to the client through
the transport (TCP flow control, or a blocked queue put in-process).

Protocol-only by design (lint rule R006): the session never touches the
kernel; it is bookkeeping between a transport and the daemon's kernel task.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.server.protocol import Transport

#: default per-session inflight window
DEFAULT_WINDOW = 32

#: default global pending-request limit (BUSY replies past this)
DEFAULT_GLOBAL_LIMIT = 1024


class Session:
    """One connected client: identity, request queue, counters."""

    def __init__(self, pid: int, transport: Transport, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("session window must be at least 1")
        self.pid = pid
        self.name = f"client-{pid}"
        self.transport = transport
        self.window = window
        self.queue: Deque[Tuple[Dict[str, Any], int]] = deque()
        #: summed cost of queued requests — a readv/writev frame counts as
        #: one op per batch entry so a batch can't sneak a window's worth
        #: of kernel work through one queue slot
        self.queued_cost = 0
        self.closed = False
        #: whether the daemon's round-robin ready list holds this session
        self.in_ready = False
        self._slot_free = asyncio.Event()
        self._slot_free.set()

    # -- queueing ----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def push(self, msg: Dict[str, Any], cost: int = 1) -> None:
        """Queue one request for the kernel task; updates flow control."""
        self.queue.append((msg, cost))
        self.queued_cost += cost
        if self.queued_cost >= self.window:
            self._slot_free.clear()

    def pop(self) -> Optional[Tuple[Dict[str, Any], int]]:
        """Dequeue the oldest ``(request, cost)`` (kernel task only)."""
        if not self.queue:
            return None
        msg, cost = self.queue.popleft()
        self.queued_cost -= cost
        if self.queued_cost < self.window:
            self._slot_free.set()
        return msg, cost

    @property
    def window_full(self) -> bool:
        """Whether the connection reader must wait for a free slot."""
        return not self._slot_free.is_set()

    async def wait_for_slot(self) -> None:
        """Block the connection reader while the window is full."""
        await self._slot_free.wait()

    def release(self) -> None:
        """Unblock any reader (used at teardown)."""
        self._slot_free.set()

    def snapshot(self) -> Dict[str, Any]:
        """Session-level fields of one ``stats`` entry (the daemon merges
        in the kernel-side numbers)."""
        return {
            "pid": self.pid,
            "name": self.name,
            "queue_depth": self.queue_depth,
            "queued_ops": self.queued_cost,
            "window": self.window,
            "closed": self.closed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<Session pid={self.pid} {self.name} queue={self.queue_depth} {state}>"
