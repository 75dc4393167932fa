"""``repro-accfc load`` — the production traffic engine's cluster driver.

Takes a seeded :class:`~repro.workloads.production.TrafficProfile` (or a
replay trace), stands up a :class:`~repro.cluster.supervisor.ClusterSupervisor`
— subprocess shards over TCP by default, in-process for tests — and drives
it with hundreds to thousands of concurrent client sessions.  Arrival
timestamps are honoured *open-loop*: a session sleeps until an op's
offered time and then issues it, so when the cluster falls behind the
offered rate, latency grows instead of the load politely slowing down
(the closed-loop fallback issues back-to-back).

Latency is sampled client-side per op (request-scheduled → reply, i.e.
response time including queue wait under open-loop arrivals) and
summarised exactly by :func:`latency_summary`.  The result is a schema'd
report — sustained ops/s, p50/p99/mean/max latency, hit ratio under skew,
per-code error counts, merged server-side stats — validated by
:func:`validate_report` and rendered as text or JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.cluster.aggregate import merge_stats
from repro.cluster.supervisor import ClusterSupervisor
from repro.server.client import CacheClient, RetryPolicy, ServerError
from repro.workloads.production import (
    ClosedLoop,
    PoissonArrivals,
    TraceError,
    TrafficOp,
    TrafficProfile,
    load_trace,
)
from repro.workloads.registry import PROFILES, make_profile

__all__ = [
    "LoadDriver",
    "LoadReport",
    "REPORT_SCHEMA",
    "latency_summary",
    "validate_report",
    "render_report",
    "load_main",
]

#: schema tag carried by every report this driver emits
REPORT_SCHEMA = "repro.load/1"

#: how many sessions dial concurrently while the fleet connects
_DIAL_BATCH = 64

#: distinct error codes retained in the report
_MAX_ERROR_CODES = 20

LoadReport = Dict[str, Any]


class LoadDriver:
    """Drive one seeded traffic stream at a cluster and report on it."""

    def __init__(
        self,
        profile: Optional[TrafficProfile] = None,
        trace_ops: Optional[Sequence[TrafficOp]] = None,
        *,
        shards: int = 16,
        sessions: int = 1024,
        ops: Optional[int] = None,
        duration_s: Optional[float] = None,
        seed: int = 0,
        spawn: str = "subprocess",
        depth: int = 2,
        window: Optional[int] = None,
        cache_mb: float = 6.4,
        blocks_per_file: Optional[int] = None,
    ) -> None:
        if (profile is None) == (trace_ops is None):
            raise ValueError("need exactly one of profile or trace_ops")
        if shards < 1:
            raise ValueError("need at least one shard")
        if sessions < 1:
            raise ValueError("need at least one session")
        if depth < 1:
            raise ValueError("pipeline depth must be >= 1")
        if ops is not None and ops < 1:
            raise ValueError("op count must be >= 1")
        if duration_s is not None and duration_s <= 0:
            raise ValueError("duration must be positive")
        self.profile = profile
        self.trace_ops = list(trace_ops) if trace_ops is not None else None
        self.shards = shards
        self.sessions = sessions
        self.ops = ops if ops is not None else 50 * sessions
        self.duration_s = duration_s
        self.seed = seed
        self.spawn = spawn
        self.depth = depth
        self.window = window if window is not None else max(2 * depth, 4)
        self.cache_mb = cache_mb
        if blocks_per_file is not None:
            self.blocks_per_file = blocks_per_file
        elif profile is not None:
            self.blocks_per_file = profile.blocks_per_file
        else:
            self.blocks_per_file = 16

    # -- stream preparation -------------------------------------------------

    def stream(self) -> List[TrafficOp]:
        """The materialised op stream this run will offer."""
        if self.trace_ops is not None:
            return self.trace_ops[: self.ops]
        assert self.profile is not None
        return list(self.profile.ops(self.seed, self.ops))

    @property
    def open_loop(self) -> bool:
        if self.trace_ops is not None:
            return any(op.ts is not None for op in self.trace_ops[:64])
        assert self.profile is not None
        return self.profile.arrivals.open_loop

    # -- the run ------------------------------------------------------------

    async def run(self) -> LoadReport:
        """Stand up the cluster, drive the stream, tear down, report."""
        stream = self.stream()
        # The admission ceiling must clear the offered concurrency, or a
        # full-fleet burst turns into a BUSY storm instead of queueing.
        per_shard_sessions = math.ceil(self.sessions / self.shards)
        global_limit = max(1024, 2 * per_shard_sessions * self.depth)
        supervisor = ClusterSupervisor(
            shards=self.shards,
            cache_mb=self.cache_mb,
            spawn=self.spawn,
            global_limit=global_limit,
            replicas=1,
        )
        if self.spawn == "subprocess":
            await supervisor.start_tcp()
        else:
            await supervisor.start()
        try:
            return await self._drive(supervisor, stream)
        finally:
            await supervisor.aclose()

    async def _drive(
        self, supervisor: ClusterSupervisor, stream: List[TrafficOp]
    ) -> LoadReport:
        sids = list(supervisor.shards)
        queues: Dict[str, Deque[TrafficOp]] = {sid: deque() for sid in sids}
        for op in stream:
            queues[supervisor.ring.shard_for(op.path)].append(op)

        retry = RetryPolicy(timeout_s=30.0, max_retries=3)
        session_shard = [sids[i % len(sids)] for i in range(self.sessions)]

        async def dial(i: int) -> CacheClient:
            return await CacheClient.connect(
                supervisor.endpoints(session_shard[i]),
                name=f"load-{i}",
                window=self.window,
                retry=retry,
            )

        clients: List[CacheClient] = []
        for start in range(0, self.sessions, _DIAL_BATCH):
            batch = range(start, min(start + _DIAL_BATCH, self.sessions))
            clients.extend(await asyncio.gather(*(dial(i) for i in batch)))

        latencies: List[float] = []
        counts = {
            "completed": 0,
            "failed": 0,
            "reads": 0,
            "writes": 0,
            "read_hits": 0,
            "write_hits": 0,
            "blocks": 0,
            "opens": 0,
        }
        errors: Dict[str, int] = {}
        # path -> in-flight/finished open, per shard: the first toucher
        # opens the file, everyone else awaits the same task
        opening: Dict[str, "asyncio.Task[Any]"] = {}

        loop = asyncio.get_running_loop()
        start_time = loop.time()
        deadline = (
            start_time + self.duration_s if self.duration_s is not None else None
        )

        async def ensure_open(client: CacheClient, path: str) -> None:
            task = opening.get(path)
            if task is None:
                task = loop.create_task(
                    client.open(path, size_blocks=self.blocks_per_file)
                )
                opening[path] = task
                counts["opens"] += 1
            try:
                await asyncio.shield(task)
            except Exception:
                # A failed open is not cached: the next toucher re-opens.
                if opening.get(path) is task:
                    del opening[path]
                raise

        async def issue(client: CacheClient, op: TrafficOp) -> None:
            await ensure_open(client, op.path)
            if op.op == "r":
                if op.size <= 1:
                    hits = [await client.read(op.path, op.blockno)]
                else:
                    hits = client.unwrap_batch(
                        await client.readv((op.path, b) for b in op.blocks())
                    )
                counts["reads"] += 1
                counts["read_hits"] += 1 if all(hits) else 0
            else:
                if op.size <= 1:
                    hits = [await client.write(op.path, op.blockno)]
                else:
                    hits = client.unwrap_batch(
                        await client.writev((op.path, b) for b in op.blocks())
                    )
                counts["writes"] += 1
                counts["write_hits"] += 1 if all(hits) else 0
            counts["blocks"] += len(hits)

        async def puller(session: int, client: CacheClient) -> None:
            queue = queues[session_shard[session]]
            while queue:
                now = loop.time()
                if deadline is not None and now >= deadline:
                    return
                op = queue.popleft()
                scheduled = now
                if op.ts is not None:
                    scheduled = start_time + op.ts
                    delay = scheduled - now
                    if delay > 0:
                        await asyncio.sleep(delay)
                try:
                    await issue(client, op)
                except (ServerError, ConnectionError, asyncio.TimeoutError) as exc:
                    counts["failed"] += 1
                    code = getattr(exc, "code", type(exc).__name__)
                    if len(errors) < _MAX_ERROR_CODES or code in errors:
                        errors[str(code)] = errors.get(str(code), 0) + 1
                    continue
                latencies.append(loop.time() - scheduled)
                counts["completed"] += 1

        try:
            await asyncio.gather(
                *(
                    puller(i, clients[i])
                    for i in range(self.sessions)
                    for _ in range(self.depth)
                )
            )
            elapsed_s = loop.time() - start_time
            server_stats = await self._server_stats(clients, session_shard, sids)
        finally:
            for start in range(0, len(clients), _DIAL_BATCH):
                await asyncio.gather(
                    *(
                        client.aclose()
                        for client in clients[start : start + _DIAL_BATCH]
                    ),
                    return_exceptions=True,
                )

        unissued = sum(len(queue) for queue in queues.values())
        return self._report(
            stream, counts, errors, latencies, elapsed_s, unissued, server_stats,
        )

    async def _server_stats(
        self,
        clients: List[CacheClient],
        session_shard: List[str],
        sids: List[str],
    ) -> Dict[str, Any]:
        """Cluster-side totals, one scrape per shard through existing
        sessions (cross-checks the client-observed hit ratio)."""
        per_shard: Dict[str, Dict[str, Any]] = {}
        for sid in sids:
            try:
                session = session_shard.index(sid)
            except ValueError:
                continue
            try:
                per_shard[sid] = await clients[session].stats()
            except (ServerError, ConnectionError, asyncio.TimeoutError):
                continue
        merged = merge_stats(per_shard)
        merged.pop("shards", None)  # raw per-shard replies: too big to keep
        return merged

    def _report(
        self,
        stream: List[TrafficOp],
        counts: Dict[str, int],
        errors: Dict[str, int],
        latencies: List[float],
        elapsed_s: float,
        unissued: int,
        server_stats: Dict[str, Any],
    ) -> LoadReport:
        issued = counts["completed"] + counts["failed"]
        reads, writes = counts["reads"], counts["writes"]
        hits = counts["read_hits"] + counts["write_hits"]
        report: LoadReport = {
            "schema": REPORT_SCHEMA,
            "profile": self.profile.name if self.profile else "trace",
            "seed": self.seed,
            "shards": self.shards,
            "sessions": self.sessions,
            "depth": self.depth,
            "spawn": self.spawn,
            "open_loop": self.open_loop,
            "ops": {
                "offered": len(stream),
                "issued": issued,
                "completed": counts["completed"],
                "failed": counts["failed"],
                "unissued": unissued,
                "reads": reads,
                "writes": writes,
                "opens": counts["opens"],
                "blocks": counts["blocks"],
            },
            "throughput": {
                "elapsed_s": elapsed_s,
                "ops_per_sec": counts["completed"] / elapsed_s if elapsed_s else 0.0,
                "blocks_per_sec": counts["blocks"] / elapsed_s if elapsed_s else 0.0,
            },
            "latency": latency_summary(latencies),
            "hit_ratio": {
                "overall": hits / issued if issued else None,
                "reads": counts["read_hits"] / reads if reads else None,
                "writes": counts["write_hits"] / writes if writes else None,
                "server": server_stats.get("hit_ratio"),
            },
            "errors": [
                {"code": code, "count": count}
                for code, count in sorted(errors.items())
            ],
            "cluster": server_stats,
        }
        validate_report(report)
        return report


def latency_summary(samples: Sequence[float]) -> Dict[str, Any]:
    """Exact ``count``/``mean_s``/``p50_s``/``p99_s``/``max_s`` of ``samples``.

    Quantiles are nearest-rank (the ``ceil(q * n)``-th smallest sample),
    so each is an observed latency and never exceeds ``max_s``.
    """
    if not samples:
        return {"count": 0, "mean_s": None, "p50_s": None, "p99_s": None, "max_s": None}
    ordered = sorted(samples)
    n = len(ordered)

    def rank(q: float) -> float:
        return ordered[max(math.ceil(q * n), 1) - 1]

    return {
        "count": n,
        "mean_s": sum(ordered) / n,
        "p50_s": rank(0.5),
        "p99_s": rank(0.99),
        "max_s": ordered[-1],
    }


# --------------------------------------------------------------------------
# report schema


def validate_report(report: LoadReport) -> None:
    """Raise ``ValueError`` listing every way ``report`` breaks the schema."""
    problems: List[str] = []

    def need(mapping: Any, key: str, types: tuple, where: str) -> None:
        if not isinstance(mapping, dict) or key not in mapping:
            problems.append(f"missing {where}.{key}")
        elif not isinstance(mapping[key], types):
            problems.append(
                f"{where}.{key} has type {type(mapping[key]).__name__}"
            )

    if report.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, want {REPORT_SCHEMA!r}")
    for key, types in (
        ("profile", (str,)),
        ("seed", (int,)),
        ("shards", (int,)),
        ("sessions", (int,)),
        ("spawn", (str,)),
        ("open_loop", (bool,)),
    ):
        need(report, key, types, "report")
    ops = report.get("ops")
    for key in ("offered", "issued", "completed", "failed", "unissued",
                "reads", "writes", "opens", "blocks"):
        need(ops, key, (int,), "ops")
        if isinstance(ops, dict) and isinstance(ops.get(key), int) and ops[key] < 0:
            problems.append(f"ops.{key} is negative")
    throughput = report.get("throughput")
    for key in ("elapsed_s", "ops_per_sec", "blocks_per_sec"):
        need(throughput, key, (int, float), "throughput")
    latency = report.get("latency")
    need(latency, "count", (int,), "latency")
    for key in ("mean_s", "p50_s", "p99_s", "max_s"):
        need(latency, key, (int, float, type(None)), "latency")
    if isinstance(latency, dict):
        order = [latency.get(key) for key in ("p50_s", "p99_s", "max_s")]
        if all(isinstance(v, (int, float)) for v in order) and not (
            order[0] <= order[1] <= order[2]
        ):
            problems.append("latency quantiles break p50_s <= p99_s <= max_s")
    hit_ratio = report.get("hit_ratio")
    for key in ("overall", "reads", "writes", "server"):
        need(hit_ratio, key, (int, float, type(None)), "hit_ratio")
        if (
            isinstance(hit_ratio, dict)
            and isinstance(hit_ratio.get(key), (int, float))
            and not 0.0 <= hit_ratio[key] <= 1.0
        ):
            problems.append(f"hit_ratio.{key} outside [0, 1]")
    if not isinstance(report.get("errors"), list):
        problems.append("errors is not a list")
    if problems:
        raise ValueError("invalid load report: " + "; ".join(problems))


def _fmt_latency(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _fmt_ratio(value: Optional[float]) -> str:
    return f"{value * 100:.1f}%" if value is not None else "-"


def render_report(report: LoadReport) -> str:
    """The report as an operator-facing text block."""
    ops = report["ops"]
    throughput = report["throughput"]
    latency = report["latency"]
    hit_ratio = report["hit_ratio"]
    lines = [
        f"load report ({report['schema']})",
        f"  profile    {report['profile']} (seed {report['seed']}, "
        f"{'open' if report['open_loop'] else 'closed'} loop)",
        f"  cluster    {report['shards']} shards ({report['spawn']}), "
        f"{report['sessions']} sessions x depth {report['depth']}",
        f"  ops        {ops['completed']}/{ops['offered']} completed, "
        f"{ops['failed']} failed, {ops['unissued']} unissued, "
        f"{ops['opens']} opens, {ops['blocks']} blocks",
        f"  throughput {throughput['ops_per_sec']:.0f} ops/s "
        f"({throughput['blocks_per_sec']:.0f} blocks/s) "
        f"over {throughput['elapsed_s']:.2f}s",
        f"  latency    p50 {_fmt_latency(latency['p50_s'])}, "
        f"p99 {_fmt_latency(latency['p99_s'])}, "
        f"mean {_fmt_latency(latency['mean_s'])}, "
        f"max {_fmt_latency(latency['max_s'])}",
        f"  hit ratio  {_fmt_ratio(hit_ratio['overall'])} overall "
        f"(reads {_fmt_ratio(hit_ratio['reads'])}, "
        f"writes {_fmt_ratio(hit_ratio['writes'])}, "
        f"server {_fmt_ratio(hit_ratio['server'])})",
    ]
    if report["errors"]:
        parts = ", ".join(f"{e['code']}={e['count']}" for e in report["errors"])
        lines.append(f"  errors     {parts}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# CLI


def load_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-accfc load``."""
    import json
    import sys

    from repro.harness.cli import emit_payload, status_line

    parser = argparse.ArgumentParser(
        prog="repro-accfc load",
        description="Drive a cache cluster with seeded production-shaped "
        "traffic (or a replay trace) and report sustained ops/s, p50/p99 "
        "latency and hit ratio.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="etc",
        help="traffic profile preset (default: etc)",
    )
    source.add_argument("--trace", metavar="FILE", help="replay a CSV trace instead")
    parser.add_argument("--paths", type=int, default=100_000,
                        help="distinct file paths in the keyspace (default: 100000)")
    parser.add_argument("--blocks-per-file", type=int, default=16)
    parser.add_argument("--shards", type=int, default=16)
    parser.add_argument("--sessions", type=int, default=1024,
                        help="concurrent client sessions (default: 1024)")
    parser.add_argument("--depth", type=int, default=2,
                        help="pipelined ops per session (default: 2)")
    parser.add_argument("--ops", type=int, default=None,
                        help="total ops to offer (default: 50 per session)")
    parser.add_argument("--duration", type=float, default=None,
                        help="wall-clock cap in seconds (unissued ops are reported)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rate", type=float, default=None,
                        help="override offered rate (Poisson arrivals), ops/s")
    parser.add_argument("--closed-loop", action="store_true",
                        help="ignore arrival timestamps; issue back-to-back")
    parser.add_argument("--spawn", choices=("subprocess", "inproc"),
                        default="subprocess")
    parser.add_argument("--cache-mb", type=float, default=6.4)
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the raw report as JSON")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    profile: Optional[TrafficProfile] = None
    trace_ops: Optional[List[TrafficOp]] = None
    if args.trace:
        try:
            trace_ops = load_trace(args.trace)
        except TraceError as exc:
            status_line(f"repro-accfc load: {exc}", quiet=False)
            return 2
        except OSError as exc:
            status_line(f"repro-accfc load: cannot read trace: {exc}", quiet=False)
            return 2
        if not trace_ops:
            status_line("repro-accfc load: trace has no ops", quiet=False)
            return 2
    else:
        knobs: Dict[str, Any] = {
            "paths": args.paths,
            "blocks_per_file": args.blocks_per_file,
        }
        if args.closed_loop:
            knobs["arrivals"] = ClosedLoop()
        elif args.rate is not None:
            knobs["arrivals"] = PoissonArrivals(args.rate)
        profile = make_profile(args.profile, **knobs)

    driver = LoadDriver(
        profile=profile,
        trace_ops=trace_ops,
        shards=args.shards,
        sessions=args.sessions,
        ops=args.ops,
        duration_s=args.duration,
        seed=args.seed,
        spawn=args.spawn,
        depth=args.depth,
        cache_mb=args.cache_mb,
        blocks_per_file=args.blocks_per_file if args.trace else None,
    )
    status_line(
        f"repro-accfc load: {driver.ops} ops of "
        f"{profile.name if profile else 'trace'!s} at {args.shards} shards "
        f"({args.spawn}) x {args.sessions} sessions",
        quiet=args.quiet,
    )
    try:
        report = asyncio.run(driver.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        status_line("repro-accfc load: interrupted", quiet=False)
        return 130
    if args.as_json:
        emit_payload(json.dumps(report, indent=2, sort_keys=True))
    else:
        emit_payload(render_report(report))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(load_main())
