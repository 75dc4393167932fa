"""Failover: crash a shard mid-workload, lose nothing that was acked.

The model is crash-stop (``CacheDaemon.abort``): the daemon dies without
draining or flushing, but its :class:`CacheService` — the machine's
kernel state and simulated disks — survives.  The health loop restarts
the daemon around the same service with the predecessor's hello tokens,
so clients redial, resume their kernel pids, and every acknowledged
write is still in the cache, still dirty, still theirs.

Also here: session resume under ``FaultyTransport`` frame drops (the
hello-token path exercised while the transport itself is lossy), and a
router-level protocol fuzz reusing the generators of
``tests/test_protocol_fuzz.py``.
"""

import asyncio
import random

import pytest

from test_protocol_fuzz import FUZZ_VERBS, PARAM_NAMES, junk_value

from repro.cluster import ClusterClient, ClusterSupervisor, HealthMonitor
from repro.faults.plan import FaultPlan
from repro.server import CacheClient
from repro.server.client import RequestTimeout, RetryPolicy, ServerError
from repro.server.protocol import ERROR_CODES, VERBS, ProtocolError


def run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


RETRY = RetryPolicy(timeout_s=0.5, max_retries=10, backoff_base_s=0.005, backoff_max_s=0.05)


class TestFailover:
    def test_mid_workload_crash_loses_no_acked_writes(self):
        """Acceptance criterion: kill one shard mid-workload; every write
        that was acknowledged reads back after the health loop restores
        the shard, and span + metric record the failover."""

        async def go():
            sup = ClusterSupervisor(shards=3, cache_mb=1, trace=True)
            await sup.start()
            monitor = HealthMonitor(sup, failures=2, interval_s=0.01, timeout_s=0.25)
            cc = await ClusterClient.connect(sup, name="workload", retry=RETRY)
            paths = [f"/fo{i}.dat" for i in range(12)]
            for path in paths:
                await cc.open(path, size_blocks=4)
            victim = cc.shard_of(paths[0])
            pid_before = cc.clients[victim].pid

            acked = set()

            async def writer(worker_paths):
                for path in worker_paths:
                    for blockno in range(4):
                        while True:
                            try:
                                await cc.write(path, blockno)
                            except (ConnectionError, RequestTimeout, ServerError):
                                # the crash window: re-issue until acked —
                                # whole-block writes are safe to repeat
                                await asyncio.sleep(0.01)
                                continue
                            acked.add((path, blockno))
                            break
                        # pace the workload so the kill lands mid-stream
                        await asyncio.sleep(0.002)

            async def assassin():
                await asyncio.sleep(0.01)  # let some writes land first
                await sup.kill(victim)

            monitor.start()
            await asyncio.gather(writer(paths[0::2]), writer(paths[1::2]), assassin())
            # drive probes until the victim is restored, then stop the loop
            while any(status != "up" for status in sup.statuses().values()):
                await monitor.check_once()
            await monitor.aclose()

            # every shard is back up and nothing acked was lost
            assert sup.statuses() == {sid: "up" for sid in sup.ring.shards}
            assert len(acked) == len(paths) * 4
            for path, blockno in sorted(acked):
                assert await cc.read(path, blockno) is True, (path, blockno)

            # the session resumed its kernel pid across the restart
            assert cc.clients[victim].pid == pid_before
            assert cc.clients[victim].reconnects >= 1

            # the event is recorded: metric, span, restart counter
            registry = sup.telemetry.registry
            assert registry.value("repro_cluster_failovers_total", shard=victim) >= 1.0
            assert registry.value("repro_cluster_restarts_total", shard=victim) >= 1.0
            spans = [
                r for r in sup.telemetry.tracer.records()
                if r["name"] == "cluster.failover"
            ]
            assert spans and spans[0]["attrs"]["shard"] == victim
            assert spans[0]["attrs"]["ok"] is True

            # no INTERNAL errors anywhere during the crash window
            for sid in sup.ring.shards:
                assert sup.daemon_of(sid).errors == []
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_flush_after_failover_writes_surviving_dirty_blocks(self):
        """Dirty blocks written before the crash are flushed after it —
        the write-back debt survives the daemon, as the disk would."""

        async def go():
            sup = ClusterSupervisor(shards=1, cache_mb=1)
            await sup.start()
            client = await CacheClient.connect(
                sup.endpoints("shard-0"), name="w", retry=RETRY
            )
            await client.open("/d.dat", size_blocks=4)
            for blockno in range(4):
                await client.write("/d.dat", blockno)
            await sup.kill("shard-0")
            await sup.restart("shard-0")
            assert await client.flush() == 4
            await client.aclose()
            await sup.aclose()

        run(go())


class TestResumeUnderFrameDrops:
    def test_hello_token_resume_with_lossy_transport(self):
        """The health loop restarts a killed shard whose transport drops
        frames; the client's retries ride out both the drops and the
        restart, and the session keeps its kernel pid throughout."""

        async def go():
            plan = FaultPlan(seed=0xD20, drop_frame_rate=0.05)
            sup = ClusterSupervisor(
                shards=1, cache_mb=1, shard_faults={"shard-0": plan}
            )
            await sup.start()
            monitor = HealthMonitor(sup, failures=3, interval_s=0.01, timeout_s=0.2)
            client = await CacheClient.connect(
                sup.endpoints("shard-0"), name="lossy", retry=RETRY
            )
            pid = client.pid
            await client.open("/r.dat", size_blocks=4)
            for blockno in range(4):
                await client.read("/r.dat", blockno)

            await sup.kill("shard-0")
            while sup.statuses()["shard-0"] != "up" or not await monitor.ping("shard-0"):
                await monitor.check_once()

            # reads auto-retry; the first one forces the redial + resume
            for blockno in range(4):
                assert await client.read("/r.dat", blockno) is True
            assert client.pid == pid
            assert client.reconnects >= 1

            stats = await client.stats()
            (entry,) = [s for s in stats["sessions"] if s["pid"] == pid]
            # counters carried straight through the crash: at least the
            # 4 + 4 reads (a dropped reply makes a retried read count twice)
            assert entry["accesses"] >= 8
            assert sup.daemon_of("shard-0").errors == []
            await monitor.aclose()
            await client.aclose()
            await sup.aclose()

        run(go())


class TestRouterFuzz:
    def test_junk_through_the_router_battery(self):
        """Message-level junk through ClusterClient.call: every reply is a
        defined, non-INTERNAL protocol error (or a success), a verb with no
        wire id is refused before it is sent, and every shard still serves
        politely afterwards."""

        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="fuzz")
            rng = random.Random(0xC1C5)
            for _ in range(200):
                verb = rng.choice(FUZZ_VERBS)
                params = {}
                for name in rng.sample(PARAM_NAMES, rng.randint(0, 5)):
                    params[name] = junk_value(rng)
                try:
                    await cc.call(verb, **params)
                except ServerError as exc:
                    assert exc.code in ERROR_CODES, exc.code
                    assert exc.code != "INTERNAL", exc
                except ProtocolError:
                    assert verb not in VERBS, verb
            for sid in sup.ring.shards:
                daemon = sup.daemon_of(sid)
                assert daemon.errors == []
            # the cluster still does real work
            await cc.open("/after.dat", size_blocks=2)
            assert await cc.read("/after.dat", 0) is False
            assert await cc.read("/after.dat", 0) is True
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_path_junk_routes_deterministically(self):
        """Whatever junk rides along, a string path always lands on the
        ring's owner — fuzzing must not scatter a file across shards."""

        async def go():
            sup = ClusterSupervisor(shards=3, cache_mb=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="det")
            rng = random.Random(7)
            path = "/pinned.dat"
            owner = cc.shard_of(path)
            await cc.open(path, size_blocks=2)
            for _ in range(20):
                params = {"path": path, "blockno": 0}
                for name in rng.sample(("whole", "prio", "disk"), rng.randint(0, 2)):
                    params[name] = junk_value(rng)
                try:
                    await cc.call("read", **params)
                except ServerError:
                    pass
            stats = await cc.clients[owner].stats()
            (entry,) = stats["sessions"]
            assert entry["opens"] == 1
            for sid in sup.ring.shards:
                if sid == owner:
                    continue
                other = await cc.clients[sid].stats()
                (entry,) = other["sessions"]
                assert entry["accesses"] == 0
            await cc.aclose()
            await sup.aclose()

        run(go())


class TestHealthMonitorUnit:
    def test_single_miss_does_not_fail_over(self):
        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=1)
            await sup.start()
            monitor = HealthMonitor(sup, failures=3, interval_s=0.01, timeout_s=0.2)
            report = await monitor.check_once()
            assert report == {"shard-0": "up", "shard-1": "up"}
            await sup.kill("shard-1")
            assert (await monitor.check_once())["shard-1"] == "miss-1"
            assert sup.statuses()["shard-1"] == "down"
            assert monitor.failovers == 0
            assert (await monitor.check_once())["shard-1"] == "miss-2"
            assert (await monitor.check_once())["shard-1"] == "failover"
            assert monitor.failovers == 1
            assert sup.statuses()["shard-1"] == "up"
            assert (await monitor.check_once())["shard-1"] == "up"
            await sup.aclose()

        run(go())

    def test_validation(self):
        sup_holder = {}

        async def build():
            sup_holder["sup"] = ClusterSupervisor(shards=1, cache_mb=1)

        run(build())
        with pytest.raises(ValueError):
            HealthMonitor(sup_holder["sup"], failures=0)
