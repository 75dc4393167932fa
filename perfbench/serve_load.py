"""The two server workloads: closed-loop load through the cluster client.

Each round starts two in-process shards listening on loopback TCP, dials
them through one :class:`~repro.cluster.client.ClusterClient` (one
connection per shard) and drives a seeded op stream, generated before the
cluster starts, from ``IN_FLIGHT`` workers that each wait for their reply
before taking the next op.  Like an application, a worker opens a file
before its first access.  The first ``warmup_ops`` of the stream fill the
caches and are not timed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from ledger import Tracer, session_map
from rounds import RoundResult
from stats import tail_quantile

from repro.cluster.client import ClusterClient
from repro.cluster.supervisor import ClusterSupervisor
from repro.server.client import CacheClient, ServerError
from repro.server.protocol import ProtocolError
from repro.workloads.production import TrafficOp, TrafficProfile, etc_profile, rtdata_profile

SHARDS = 2
IN_FLIGHT = 16
BLOCKS_PER_FILE = 4

#: errors one op can end with; any of them counts the op as failed
_OP_ERRORS = (ServerError, ConnectionError, ProtocolError)


@dataclass(frozen=True)
class ServeSpec:
    """One server workload's shape."""

    name: str
    profile: Callable[[], TrafficProfile]
    #: cache per shard
    cache_mb: float
    warmup_ops: int
    window_ops: int
    #: open every file of the keyspace during warm-up
    open_all: bool


ETC_SINGLES = ServeSpec(
    "etc-singles",
    lambda: etc_profile(paths=20_000, rate=None, blocks_per_file=BLOCKS_PER_FILE),
    cache_mb=2.0,
    warmup_ops=3_000,
    window_ops=10_000,
    open_all=False,
)

RTDATA_RESIDENT = ServeSpec(
    "rtdata-resident",
    lambda: rtdata_profile(paths=300, rate=None, blocks_per_file=BLOCKS_PER_FILE),
    cache_mb=6.4,
    warmup_ops=3_000,
    window_ops=8_000,
    open_all=True,
)

SPECS = {spec.name: spec for spec in (ETC_SINGLES, RTDATA_RESIDENT)}


class _Loader:
    """Closed-loop op issue through one cluster client, with tallies."""

    def __init__(self, client: ClusterClient, blocks_per_file: int) -> None:
        self.client = client
        self.blocks_per_file = blocks_per_file
        #: path -> True once open, or the open in progress
        self.opened: Dict[str, Any] = {}
        #: block-level tallies over the whole round (warm-up included)
        self.accesses = 0
        self.hits = 0

    async def open_all(self, paths: Iterable[str]) -> None:
        await asyncio.gather(*(self._open(path) for path in paths))

    async def _open(self, path: str) -> None:
        state = self.opened.get(path)
        if state is True:
            return
        if state is None:
            state = self.opened[path] = asyncio.ensure_future(
                self.client.open(path, self.blocks_per_file)
            )
        await state
        self.opened[path] = True

    async def _one(self, op: TrafficOp) -> List[bool]:
        await self._open(op.path)
        client = self.client
        if op.size == 1:
            if op.op == "r":
                return [await client.read(op.path, op.blockno)]
            return [await client.write(op.path, op.blockno)]
        pairs = [(op.path, b) for b in op.blocks()]
        if op.op == "r":
            results = await client.readv(pairs)
        else:
            results = await client.writev(pairs)
        return CacheClient.unwrap_batch(results)

    async def drive(self, ops: List[TrafficOp]) -> Dict[str, Any]:
        """Issue ``ops`` from ``IN_FLIGHT`` workers; per-op latency in ns."""
        pending = iter(ops)
        latencies: List[int] = []
        tally = {"accesses": 0, "hits": 0, "failed": 0}
        clock = time.perf_counter_ns

        async def worker() -> None:
            for op in pending:
                issued = clock()
                try:
                    hits = await self._one(op)
                except _OP_ERRORS:
                    tally["failed"] += 1
                    continue
                latencies.append(clock() - issued)
                tally["accesses"] += len(hits)
                tally["hits"] += sum(hits)

        await asyncio.gather(*(worker() for _ in range(IN_FLIGHT)))
        self.accesses += tally["accesses"]
        self.hits += tally["hits"]
        tally["latencies"] = latencies
        return tally


def run_round(spec: ServeSpec, seed: int, tracer: Optional[Tracer]) -> RoundResult:
    return asyncio.run(_round(spec, seed, tracer))


async def _round(spec: ServeSpec, seed: int, tracer: Optional[Tracer]) -> RoundResult:
    began = time.perf_counter()
    profile = spec.profile()
    ops = list(profile.ops(seed, spec.warmup_ops + spec.window_ops))
    supervisor = ClusterSupervisor(
        shards=SHARDS,
        cache_mb=spec.cache_mb,
        spawn="inproc",
        replicas=1,
        telemetry=False,
        sanitize=False,
    )
    await supervisor.start_tcp()
    try:
        client = await ClusterClient.connect(supervisor, name="perfbench")
        try:
            setup_s = time.perf_counter() - began
            return await _measure(spec, profile, ops, supervisor, client, setup_s, tracer)
        finally:
            await client.aclose()
    finally:
        await supervisor.aclose()


async def _measure(
    spec: ServeSpec,
    profile: TrafficProfile,
    ops: List[TrafficOp],
    supervisor: ClusterSupervisor,
    client: ClusterClient,
    setup_s: float,
    tracer: Optional[Tracer],
) -> RoundResult:
    problems: List[str] = []
    loader = _Loader(client, profile.blocks_per_file)
    if spec.open_all:
        await loader.open_all(profile.path_of(k) for k in range(profile.paths))
    warm = await loader.drive(ops[: spec.warmup_ops])
    # Dirty blocks left by the warm-up reach disk before timing, so the
    # window's block I/Os are exactly those its own ops cause.
    await client.flush()
    before = (await client.stats())["totals"]
    daemons = [supervisor.daemon_of(sid) for sid in supervisor.shards]
    window_ops = ops[spec.warmup_ops :]

    # Nothing is in flight here: tracing starts and stops at quiescent
    # points, so every request decoded in the window is served in it.  The
    # ping completes the receives each connection had parked before the
    # wrappers went in, so every window frame passes a wrapped receive.
    if tracer is not None:
        tracer.install(session_map(daemons))
        await client.ping()
        tracer.begin()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        window = await loader.drive(window_ops)
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.end(len(window_ops), cpu)
            tracer.uninstall()

    for sid, daemon in zip(supervisor.shards, daemons):
        try:
            daemon.service.cache.check_invariants()
        except AssertionError as exc:
            problems.append(f"{sid}: cache invariants broken: {exc}")
    # Every block the window dirtied reaches disk: its write-backs count.
    await client.flush()
    after = (await client.stats())["totals"]

    failed = warm["failed"] + window["failed"]
    if failed:
        problems.append(f"{failed} ops failed")
    if (loader.accesses, loader.hits) != (after["accesses"], after["hits"]):
        problems.append(
            f"client saw {loader.hits}/{loader.accesses} hits/accesses, "
            f"shards counted {after['hits']}/{after['accesses']}"
        )
    n = len(window_ops)
    block_ios = sum(after[k] - before[k] for k in ("disk_reads", "disk_writes"))
    latencies_ms = [ns / 1e6 for ns in window["latencies"]]
    p50 = tail_quantile(latencies_ms, 50.0)
    p99 = tail_quantile(latencies_ms, 99.0)
    if p50 is None or p99 is None:
        problems.append(f"only {len(latencies_ms)} latency samples")
        p50 = p99 = (0.0, 0.0, len(latencies_ms))
    accesses = window["accesses"]
    return RoundResult(
        metrics={
            "ops_per_s": n / wall,
            "cpu_us_per_op": cpu / n * 1e6,
            "p50_ms": p50[1],
            "p99_ms": p99[1],
            "hit_ratio": window["hits"] / accesses if accesses else 0.0,
            "block_ios_per_op": block_ios / n,
            "setup_s": setup_s,
            "error_rate": window["failed"] / n,
        },
        samples=len(latencies_ms),
        tail_pct=p99[0],
        attempted=n,
        failed=window["failed"],
        problems=problems,
        layer_rows={"disk.ios_per_op": block_ios / n, "disk.busy_s": 0.0, "disk.queue_wait_s": 0.0},
    )
