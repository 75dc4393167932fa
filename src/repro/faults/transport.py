"""Transport-level fault injection for the cache daemon.

:class:`FaultyTransport` wraps the server side of any
:class:`~repro.server.protocol.Transport` and misdelivers inbound frames
per the plan: **drop** (the frame vanishes — the client's request or our
reply never happened, exercising client timeouts and retries), **garble**
(the frame arrives undecodable, surfacing as the same
:class:`~repro.server.protocol.ProtocolError` a corrupt wire would cause —
the daemon must answer with an error or disconnect cleanly) and **slow**
(slow-loris delivery after an injected delay).

Outbound replies pass through untouched except under ``drop``: dropping a
*reply* is how a client sees a request time out even though the kernel
applied it — exactly the duplicate-delivery hazard that restricts
automatic retries to idempotent verbs.

Faults act at the message level: the wrapped transport still encodes
and decodes every frame, so a dropped or slowed message is whatever
frame the codec would have produced.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.faults.injector import FaultInjector
from repro.server.protocol import ProtocolError, Transport


class FaultyTransport(Transport):
    """A transport whose deliveries obey a fault plan."""

    def __init__(self, inner: Transport, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    async def recv(self) -> Optional[Dict[str, Any]]:
        while True:
            msg = await self._inner.recv()
            if msg is None:
                return None
            fault = self._injector.frame_fault()
            if fault is None:
                return msg
            kind, delay = fault
            if kind == "drop":
                continue
            if kind == "garble":
                raise ProtocolError("injected garbled frame")
            await asyncio.sleep(delay)
            return msg

    async def send(self, msg: Dict[str, Any]) -> None:
        fault = self._injector.frame_fault()
        if fault is not None:
            kind, delay = fault
            if kind == "drop":
                return
            if kind == "slow":
                await asyncio.sleep(delay)
            # A garbled *outbound* frame reaches the client undecodable;
            # modelling that here would fault the peer, not us — deliver.
        await self._inner.send(msg)

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed
