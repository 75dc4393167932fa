"""``repro.server`` — the cache as a multi-client service.

The paper's artifact is a *kernel service*: many concurrent processes read,
write and issue ``fbehavior`` directives against one shared buffer cache,
and the kernel arbitrates allocation with LRU-SP.  This package exposes the
existing deterministic kernel (:mod:`repro.core` + :mod:`repro.kernel`)
behind a real request/response service layer:

* :mod:`repro.server.protocol` — the binary-framed wire protocol and
  the transport abstraction (TCP, Unix socket, in-process queues);
* :mod:`repro.server.session` — per-connection state: request queue,
  inflight window, flow control;
* :mod:`repro.server.service` — the **only** module that touches the
  kernel (enforced by lint rule R006): it applies requests to the
  BUF/ACM stack, one at a time, in arrival order;
* :mod:`repro.server.daemon` — the asyncio daemon: accepts connections,
  runs the single logical kernel task, applies backpressure, shuts down
  gracefully with a dirty-block flush;
* :mod:`repro.server.client` — :class:`CacheClient`, the convenience API;
* :mod:`repro.server.stats` — per-session counters and the ``stats``
  snapshot shape.

Each connection maps to a kernel pid with its own per-process ACM manager,
so concurrent clients exercise LRU-SP allocation exactly as the paper's
concurrent-application experiments do.  See ``docs/server.md`` for the
protocol specification.
"""

from repro.server.client import CacheClient, ServerBusy, ServerError
from repro.server.daemon import CacheDaemon
from repro.server.protocol import ProtocolError
from repro.server.service import CacheService, build_config

__all__ = [
    "CacheClient",
    "CacheDaemon",
    "CacheService",
    "ProtocolError",
    "ServerBusy",
    "ServerError",
    "build_config",
]
