"""The traced run: spans around each layer's public entry points.

:class:`Tracer` replaces the entry points listed in :data:`TARGETS` with
wrappers around one timed window and puts the originals back afterwards;
the program itself carries no switch for this.  Every call becomes a
span — name, start, end, parent — kept in flat in-memory columns and
written out once, when the benchmark ends (:meth:`Tracer.dump`).

Synchronous entry points get *busy* time: a span's self time, its
duration minus the time its traced children cover.  A synchronous call
never spans a suspension of the event loop, so an open synchronous span is
the parent of the next one.  Asynchronous entry points (client verbs,
stream sends and receives) overlap across tasks; they get counts only, and
their parent travels in a context variable that ``asyncio`` copies into
every task.

:meth:`Tracer.ledger` turns the spans into the per-layer rows.  The busy
rows plus ``loop.other_us_per_op`` — the traced process CPU time not
inside any synchronous span (event loop, futures, sockets, async layers,
the load generator) — add up to the traced ``cpu_us_per_op``.  Busy time
is wall time inside a span, so where nearly all work is inside spans
(paper-mix) the remainder can dip slightly below zero.
"""

from __future__ import annotations

import contextvars
import gzip
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import FifoMatcher, self_times, tail_quantile

from repro.cluster.client import ClusterClient
from repro.cluster.ring import HashRing
from repro.core.acm import ACM
from repro.core.buffercache import BufferCache
from repro.fs.filesystem import File, SimFilesystem
from repro.kernel.system import System
from repro.server import protocol
from repro.server.client import CacheClient
from repro.server.protocol import StreamTransport
from repro.server.service import CacheService
from repro.sim.engine import Engine

#: (owner, attribute, span name, is_async) — the public entry points of
#: each layer.  The span name's prefix is the layer a busy row belongs to.
TARGETS: Tuple[Tuple[Any, str, str, bool], ...] = (
    *((ClusterClient, v, f"cluster.{v}", True) for v in ("open", "read", "write", "readv", "writev")),
    (HashRing, "shard_for", "cluster.ring_lookup", False),
    *((CacheClient, v, f"client.{v}", True) for v in ("open", "read", "write", "readv", "writev")),
    (protocol, "encode_message", "protocol.encode", False),
    (protocol, "decode_binary_frame", "protocol.decode", False),
    (protocol, "decode_payload", "protocol.decode_json", False),
    (protocol, "validated_request", "protocol.validate", False),
    (StreamTransport, "send", "protocol.send", True),
    (StreamTransport, "recv", "protocol.recv", True),
    *((CacheService, v, f"service.{v}", False) for v in ("open", "read", "write", "read_batch", "write_batch")),
    (BufferCache, "access", "buf.access", False),
    (BufferCache, "prefetch", "buf.prefetch", False),
    *(
        (ACM, v, f"acm.{v}", False)
        for v in ("new_block", "block_gone", "block_accessed", "replace_block", "placeholder_used")
    ),
    (SimFilesystem, "lookup", "fs.lookup", False),
    (SimFilesystem, "exists", "fs.exists", False),
    (SimFilesystem, "ensure_block", "fs.ensure_block", False),
    (File, "lba_of", "fs.lba_of", False),
    (Engine, "step", "sim.step", False),
    (System, "run", "kernel.run", False),
)

#: layers whose spans carry busy time, in ledger order
BUSY_LAYERS = ("cluster", "protocol", "service", "buf", "acm", "fs", "sim", "kernel")

#: client verbs that put one request frame on the wire
_CLIENT_FRAMES = ("client.open", "client.read", "client.write", "client.readv", "client.writev")

#: service verbs a decoded request frame is queued for
_SERVICE_VERBS = frozenset({"open", "read", "write", "readv", "writev"})


class Tracer:
    """Spans and per-layer observations of one traced timed window."""

    def __init__(self) -> None:
        self.names: List[str] = [name for _, _, name, _ in TARGETS]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        # Flat columns keep a traced round of a few hundred thousand spans
        # to a few megabytes.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.failed = [0] * len(self.names)
        #: index of the open synchronous span, -1 when none is open
        self.current = -1
        self.task_span: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        #: the window: span index range, ops served and process CPU seconds
        self.first = self.last = 0
        self.ops = 0
        self.cpu_s = 0.0
        self.queue = FifoMatcher()
        #: server-side transport id -> (service id, pid) of its session
        self.sessions: Dict[int, Tuple[int, int]] = {}
        #: hooks tally only inside a window (begin() .. end())
        self.counting = False
        self.hits = 0
        self.evictions = 0
        self.writebacks = 0
        self.overrules = 0
        self.json_frames = 0
        self.prefetched: set = set()
        self.prefetch_used = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- install / restore ----------------------------------------------------

    def install(self, sessions: Optional[Dict[int, Tuple[int, int]]] = None) -> None:
        """Wrap every target; ``sessions`` maps server transports to
        their ``(id(service), pid)`` for the queue-wait matching."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.sessions = dict(sessions or {})
        self.current = -1
        hooks = self._hooks()
        for owner, attr, name, is_async in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            make = self._async_wrapper if is_async else self._sync_wrapper
            before, after = hooks.get(name, (None, None))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original, self.name_ids[name], before, after))

    def uninstall(self) -> None:
        """Restore every original; spans still open are cut at this moment."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        cut_at = time.perf_counter_ns()
        ends = self.span_end
        for i in range(len(ends)):
            if ends[i] == 0:
                ends[i] = cut_at

    def begin(self) -> None:
        """Start the timed window: spans from here on are counted."""
        self.first = len(self.span_start)
        self.counting = True

    def end(self, ops: int, cpu_s: float) -> None:
        """End the timed window; it served ``ops`` in ``cpu_s`` of CPU."""
        self.counting = False
        self.last = len(self.span_start)
        self.ops = ops
        self.cpu_s = cpu_s

    # -- wrappers --------------------------------------------------------------

    def _sync_wrapper(self, fn, name_id, before, after):
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        clock = time.perf_counter_ns
        task_span = self.task_span
        failed = self.failed
        tracer = self

        def traced(*args, **kwargs):
            outer = tracer.current
            index = len(starts)
            names.append(name_id)
            parents.append(outer if outer >= 0 else task_span.get())
            ends.append(0)
            tracer.current = index
            if before is not None:
                before(args, index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[name_id] += 1
                raise
            finally:
                ends[index] = clock()
                tracer.current = outer
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _async_wrapper(self, fn, name_id, before, after):
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        clock = time.perf_counter_ns
        task_span = self.task_span
        failed = self.failed

        async def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(task_span.get())
            ends.append(0)
            starts.append(clock())
            token = task_span.set(index)
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                failed[name_id] += 1
                raise
            finally:
                ends[index] = clock()
                task_span.reset(token)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-layer observations --------------------------------------------------

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable], Optional[Callable]]]:
        queue = self.queue
        sessions = self.sessions
        service_ids = {self.name_ids[n] for n in self.names if n.startswith("service.")}
        names = self.span_name
        json_flag = protocol.FLAG_JSON

        def service_call(args, index):
            if not self.counting:
                return
            parent = self.span_parent[index]
            if parent >= 0 and names[parent] in service_ids:
                return  # a batch entry, served by its enclosing batch call
            queue.depart((id(args[0]), args[1]), time.perf_counter_ns())

        def received(args, msg):
            if not self.counting:
                return
            if isinstance(msg, dict) and msg.get("verb") in _SERVICE_VERBS:
                key = sessions.get(id(args[0]))
                if key is not None:
                    queue.arrive(key, time.perf_counter_ns())

        def decoded(args, msg):
            if not self.counting:
                return
            if args[1] & json_flag:
                self.json_frames += 1

        def decoded_json(args, msg):
            if not self.counting:
                return
            self.json_frames += 1

        def accessed(args, outcome):
            if not self.counting:
                return
            if outcome.hit:
                self.hits += 1
            if outcome.evicted is not None:
                self.evictions += 1
                if outcome.writeback:
                    self.writebacks += 1
            if self.prefetched:
                key = (id(args[0]), args[2], args[3])
                if key in self.prefetched:
                    self.prefetched.discard(key)
                    self.prefetch_used += 1

        def prefetched(args, result):
            if not self.counting:
                return
            block, evicted = result
            if block is not None:
                self.prefetched.add((id(args[0]), args[2], args[3]))
            if evicted is not None:
                self.evictions += 1
                if evicted.dirty:
                    self.writebacks += 1

        def replaced(args, chosen):
            if not self.counting:
                return
            if chosen is not args[1]:
                self.overrules += 1

        hooks: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
            f"service.{v}": (service_call, None)
            for v in ("open", "read", "write", "read_batch", "write_batch")
        }
        hooks.update(
            {
                "protocol.recv": (None, received),
                "protocol.decode": (None, decoded),
                "protocol.decode_json": (None, decoded_json),
                "buf.access": (None, accessed),
                "buf.prefetch": (None, prefetched),
                "acm.replace_block": (None, replaced),
            }
        )
        return hooks

    # -- the ledger ----------------------------------------------------------

    def ledger(self, untraced_cpu_us_per_op: float, extra: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics of the traced window.

        ``extra`` carries the rows that come from the workload's own
        counters (disk I/Os and simulated disk time).
        """
        ops = self.ops or 1
        cpu_us = self.cpu_s * 1e6
        spans = list(zip(self.span_start, self.span_end, self.span_parent))
        selfs = self_times(spans)
        is_async = [a for _, _, _, a in TARGETS]
        count = [0] * len(self.names)
        busy_ns = [0.0] * len(self.names)
        service_ids = {self.name_ids[n] for n in self.names if n.startswith("service.")}
        top_service = 0
        for index in range(self.first, self.last):
            name_id = self.span_name[index]
            count[name_id] += 1
            if not is_async[name_id]:
                busy_ns[name_id] += selfs[index]
            if name_id in service_ids:
                parent = self.span_parent[index]
                if parent < 0 or self.span_name[parent] not in service_ids:
                    top_service += 1

        def n(*names: str) -> int:
            return sum(count[self.name_ids[x]] for x in names)

        def busy_us(*names: str) -> float:
            return sum(busy_ns[self.name_ids[x]] for x in names) / 1e3

        def layer(prefix: str) -> Tuple[str, ...]:
            return tuple(x for x in self.names if x.startswith(prefix + ".") and not is_async[self.name_ids[x]])

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        layer_us = {name: busy_us(*layer(name)) for name in BUSY_LAYERS}
        other_us = cpu_us - sum(layer_us.values())
        acm_consults = n("acm.replace_block")
        buf_calls = n("buf.access", "buf.prefetch")
        decodes = n("protocol.decode", "protocol.decode_json")
        waits_us = [w / 1e3 for w in self.queue.waits]
        q50 = tail_quantile(waits_us, 50.0)
        q99 = tail_quantile(waits_us, 99.0)
        traced_cpu_per_op = cpu_us / ops
        out = {
            "client.frames_per_op": n(*_CLIENT_FRAMES) / ops,
            "client.opens_per_op": n("client.open") / ops,
            "client.failed_calls": float(sum(self.failed[self.name_ids[x]] for x in _CLIENT_FRAMES)),
            "protocol.sends_per_op": n("protocol.send") / ops,
            "protocol.encode_us_per_frame": ratio(busy_us("protocol.encode"), n("protocol.encode")),
            "protocol.decode_us_per_frame": ratio(
                busy_us("protocol.decode", "protocol.decode_json"), decodes
            ),
            "protocol.validate_us_per_req": ratio(busy_us("protocol.validate"), n("protocol.validate")),
            "protocol.json_frames_per_op": self.json_frames / ops,
            "protocol.busy_us_per_op": layer_us["protocol"] / ops,
            "cluster.route_us_per_op": layer_us["cluster"] / ops,
            "daemon.queue_wait_p50_us": q50[1] if q50 else 0.0,
            "daemon.queue_wait_p99_us": q99[1] if q99 else 0.0,
            "daemon.queue_waits": float(len(waits_us)),
            "loop.other_us_per_op": other_us / ops,
            "service.busy_us_per_op": layer_us["service"] / ops,
            "service.calls_per_op": top_service / ops,
            "buf.busy_us_per_op": layer_us["buf"] / ops,
            "buf.busy_us_per_access": ratio(layer_us["buf"], buf_calls),
            "buf.accesses_per_op": n("buf.access") / ops,
            "buf.hit_ratio": ratio(self.hits, n("buf.access")),
            "buf.evictions_per_op": self.evictions / ops,
            "buf.writebacks_per_op": self.writebacks / ops,
            "buf.placeholders_used": float(n("acm.placeholder_used")),
            "acm.busy_us_per_op": layer_us["acm"] / ops,
            "acm.consults_per_op": acm_consults / ops,
            "acm.busy_us_per_consult": ratio(busy_us("acm.replace_block"), acm_consults),
            "acm.overrule_ratio": ratio(self.overrules, acm_consults),
            "fs.busy_us_per_op": layer_us["fs"] / ops,
            "fs.calls_per_op": n(*layer("fs")) / ops,
            "sim.events_per_op": n("sim.step") / ops,
            "sim.busy_us_per_op": layer_us["sim"] / ops,
            "sim.busy_us_per_event": ratio(busy_us("sim.step"), n("sim.step")),
            "kernel.other_us_per_op": layer_us["kernel"] / ops,
            "kernel.readahead_used_ratio": ratio(self.prefetch_used, n("buf.prefetch")),
            "trace.cpu_us_per_op": traced_cpu_per_op,
            "trace.overhead_ratio": ratio(traced_cpu_per_op, untraced_cpu_us_per_op),
            "trace.spans_per_op": (self.last - self.first) / ops,
        }
        out.update(extra)
        return out

    def dump(self, path: str) -> int:
        """Write every span as gzip'd TSV (index, name, start, end, parent)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            out.writelines(
                f"{i}\t{names[n]}\t{s}\t{e}\t{p}\n"
                for i, (n, s, e, p) in enumerate(
                    zip(self.span_name, self.span_start, self.span_end, self.span_parent)
                )
            )
        return len(self.span_name)


def session_map(daemons: List[Any]) -> Dict[int, Tuple[int, int]]:
    """Server transport id -> ``(id(service), pid)`` for every session."""
    out: Dict[int, Tuple[int, int]] = {}
    for daemon in daemons:
        for pid, session in daemon.sessions.items():
            out[id(session.transport)] = (id(daemon.service), pid)
    return out

