"""Batching and pipelining under transport faults.

Batch frames must not weaken any recovery guarantee single requests
earned: ``readv`` (a pure read) is auto-retried after a timeout,
``writev`` never is (the batch may already be applied — a silent
duplicate is exactly the hazard the idempotent-verbs list exists to
prevent), a reconnect resumes the same kernel pid, and a daemon
crash-restart loses no acknowledged write.

Also here: the stale-reply correlation regression.  Reply matching is
per-connection — a reply surfacing on a dead transport's reader may only
touch that connection's pending map, never a future registered after the
reconnect, even when the request ids collide.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

import pytest

from repro.cluster import ClusterClient, ClusterSupervisor
from repro.faults import FaultPlan
from repro.server import CacheClient, CacheDaemon, ServerError, build_config
from repro.server.client import RequestTimeout, RetryPolicy
from repro.server.protocol import Transport


def run(coro):
    return asyncio.run(coro)


PATIENT = RetryPolicy(timeout_s=0.25, max_retries=8, backoff_base_s=0.005)


# -- batched verbs on the idempotency boundary -----------------------------


class TestBatchedIdempotency:
    def test_readv_is_auto_retried(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(
                daemon,
                retry=RetryPolicy(timeout_s=0.1, max_retries=5, backoff_base_s=0.01),
            )
            await client.open("f", size_blocks=4)
            daemon.pause()
            asyncio.get_running_loop().call_later(0.15, daemon.resume)
            results = await client.readv([("f", 0), ("f", 1), ("f", 2)])
            # The retried duplicate may see hits the first (applied but
            # unanswered) attempt faulted in — either is a correct batch.
            assert [set(r) for r in results] == [{"hit"}] * 3
            assert client.retries >= 1
            await client.aclose()
            await daemon.aclose()
            assert daemon.errors == []

        run(go())

    def test_writev_never_auto_retried(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(
                daemon,
                retry=RetryPolicy(timeout_s=0.05, max_retries=5, backoff_base_s=0.01),
            )
            await client.open("f", size_blocks=4)
            daemon.pause()
            with pytest.raises(RequestTimeout):
                await client.writev([("f", 0), ("f", 1)])
            assert client.retries == 0  # non-idempotent: no silent duplicate
            daemon.resume()
            await asyncio.sleep(0.05)  # the queued frame applies exactly once
            stats = await client.stats()
            assert stats["cache"]["accesses"] == 2  # one application, not two
            assert stats["cache"]["dirty_blocks"] == 2
            await client.aclose()
            await daemon.aclose()
            assert daemon.errors == []

        run(go())


# -- pipelining through a lossy transport ----------------------------------


class TestPipelineUnderFaults:
    DROPPY = FaultPlan(seed=21, drop_frame_rate=0.08)

    def test_pipelined_reads_survive_frame_drops(self):
        async def go():
            daemon = CacheDaemon(
                build_config(cache_mb=1, sanitize=True, faults=self.DROPPY)
            )
            client = await CacheClient.connect_inproc(daemon, retry=PATIENT)
            await client.open("f", size_blocks=32)
            calls = [
                ("read", {"path": "f", "blockno": i % 32}) for i in range(96)
            ]
            results = await client.pipeline(calls, depth=8)
            assert len(results) == 96
            assert all(
                isinstance(r, dict) and "hit" in r for r in results
            ), results
            # With this seed frames really were dropped and retried.
            assert client.retries >= 1
            # A second pass is all hits, and in call order.
            again = await client.pipeline(calls, depth=8)
            assert [r["hit"] for r in again] == [True] * 96
            await client.aclose()
            await daemon.aclose()
            assert daemon.errors == []

        run(go())

    def test_pipelined_batches_survive_frame_drops(self):
        async def go():
            daemon = CacheDaemon(
                build_config(cache_mb=1, sanitize=True, faults=self.DROPPY)
            )
            client = await CacheClient.connect_inproc(daemon, retry=PATIENT)
            await client.open("f", size_blocks=48)
            calls = [
                (
                    "readv",
                    {
                        "ops": [
                            {"path": "f", "blockno": (8 * chunk + i) % 48}
                            for i in range(8)
                        ]
                    },
                )
                for chunk in range(16)
            ]
            results = await client.pipeline(calls, depth=4)
            for value in results:
                assert isinstance(value, dict), value
                assert [set(r) for r in value["results"]] == [{"hit"}] * 8
            await client.aclose()
            await daemon.aclose()
            assert daemon.errors == []

        run(go())

    def test_partial_batch_errors_match_faultless_run(self):
        ops = [("f", 0), ("f", 99), ("missing", 0), ("f", 1)]

        async def codes(faults: Optional[FaultPlan]):
            daemon = CacheDaemon(build_config(cache_mb=0.5, faults=faults))
            client = await CacheClient.connect_inproc(daemon, retry=PATIENT)
            await client.open("f", size_blocks=4)
            results = await client.readv(ops)
            await client.aclose()
            await daemon.aclose()
            assert daemon.errors == []
            return [r.get("code", "OK") for r in results]

        faulty = run(codes(self.DROPPY))
        clean = run(codes(None))
        assert faulty == clean == ["OK", "FS", "FS", "OK"]


# -- reconnect: resume ------------------------------------------------------


class TestReconnect:
    def test_reconnect_resumes_pid(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(
                daemon, name="phoenix", retry=PATIENT
            )
            await client.open("f", size_blocks=4)
            await client.write("f", 2, whole=True)
            pid = client.pid
            client._transport.close()  # sever the wire mid-session
            await asyncio.sleep(0)
            # First retried call redials, re-hellos and resumes the pid;
            # the acked write is still there.
            results = await client.readv([("f", 2)])
            assert results == [{"hit": True}]
            assert client.pid == pid
            assert client.reconnects == 1
            await client.aclose()
            await daemon.aclose()
            assert daemon.errors == []

        run(go())


# -- crash-restart: no acked write lost ------------------------------------


class TestRestart:
    def test_acked_batch_writes_survive_daemon_restart(self):
        async def go():
            sup = ClusterSupervisor(shards=1, cache_mb=1)
            await sup.start()
            (sid,) = sup.ring.shards
            cc = await ClusterClient.connect(
                sup, name="writer", retry=PATIENT
            )
            client = cc.clients[sid]
            pid = client.pid
            await cc.open("/f.dat", size_blocks=16)
            acked = []
            for start in (0, 4, 8):
                while True:
                    try:
                        results = await cc.writev(
                            [("/f.dat", start + i, True) for i in range(4)]
                        )
                    except (ConnectionError, RequestTimeout, ServerError):
                        await asyncio.sleep(0.01)
                        continue
                    if all("hit" in r for r in results):
                        acked.extend(start + i for i in range(4))
                        break
                if start == 4:  # crash-stop mid-workload, then fail over
                    await sup.kill(sid)
                    await sup.restart(sid)
            # Every acknowledged write is readable after the restart; the
            # replacement daemon resumed the same kernel pid on redial.
            results = await cc.readv([("/f.dat", b) for b in acked])
            assert [r.get("hit") for r in results] == [True] * len(acked)
            assert client.pid == pid
            assert client.reconnects >= 1
            assert sup.daemon_of(sid).errors == []
            await cc.aclose()
            await sup.aclose()

        run(go())


# -- the stale-reply correlation regression --------------------------------


class _ScriptedTransport(Transport):
    """Replays a fixed list of inbound replies, then EOF."""

    def __init__(self, replies):
        self._replies = list(replies)
        self._closed = False

    async def recv(self) -> Optional[Dict[str, Any]]:
        if self._replies:
            return self._replies.pop(0)
        return None

    async def send(self, msg: Dict[str, Any]) -> None:  # pragma: no cover
        raise AssertionError("reader-side stub")

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed


class TestReplyCorrelation:
    def test_stale_reply_cannot_resolve_a_new_connections_future(self):
        """A reply draining from a pre-reconnect transport must only touch
        that connection's pending map — even when the request id collides
        with one in flight on the replacement connection."""

        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(daemon)
            loop = asyncio.get_running_loop()

            stale = {"id": 7, "ok": True, "value": "stale"}
            old_pending = {7: loop.create_future(), 8: loop.create_future()}
            old_transport = _ScriptedTransport([stale])

            fresh = loop.create_future()
            client._pending[7] = fresh  # same id, new connection

            await client._read_replies(old_transport, old_pending)

            # The stale reply landed on the old map's future only...
            assert old_pending == {}
            assert fresh is client._pending[7] and not fresh.done()
            # ... the old connection's leftovers failed cleanly ...
            assert old_transport.closed
            # ... and the live connection still answers normally.
            client._pending.pop(7).cancel()
            await client.open("f", size_blocks=2)
            assert await client.read("f", 0) is False
            await client.aclose()
            await daemon.aclose()

        run(go())


# -- the acceptance chaos run ----------------------------------------------


CHAOS = FaultPlan(
    seed=5,
    drop_frame_rate=0.03,
    garble_frame_rate=0.01,
    slow_loris_rate=0.02,
    slow_loris_s=0.001,
)


class TestChaosBatchedRun:
    def test_batched_pipelined_workload_survives_transport_chaos(self):
        async def go():
            daemon = CacheDaemon(
                build_config(cache_mb=1, sanitize=True, faults=CHAOS)
            )
            clients = [
                await CacheClient.connect_inproc(
                    daemon, name=f"c{i}", retry=PATIENT
                )
                for i in range(3)
            ]

            async def reissue_writev(client, ops):
                while True:
                    try:
                        results = await client.writev(ops)
                    except (ConnectionError, RequestTimeout, ServerError):
                        # Whole-block writes are idempotent at the
                        # application level; the *caller* may re-issue.
                        await asyncio.sleep(0.005)
                        continue
                    if all("hit" in r for r in results):
                        return

            async def workload(idx, client):
                path = f"file{idx}"
                await client.open(path, size_blocks=24)
                for round_no in range(4):
                    await reissue_writev(
                        client, [(path, b, True) for b in range(0, 24, 2)]
                    )
                    hits = await client.read_many(path, range(24), batch=8)
                    assert len(hits) == 24
                    calls = [
                        ("read", {"path": path, "blockno": (b * 5) % 24})
                        for b in range(32)
                    ]
                    for value in await client.pipeline(calls, depth=6):
                        assert isinstance(value, dict) and "hit" in value, value

            await asyncio.gather(
                *(workload(i, c) for i, c in enumerate(clients, start=1))
            )

            stats = await clients[0].stats()
            assert stats["faults"]["injected_total"] > 0
            for client in clients:
                await client.aclose()
            summary = await daemon.aclose()
            assert summary["flushed_blocks"] > 0  # dirty blocks all made disk
            assert len(daemon.service.cache.dirty_blocks()) == 0
            checker = daemon.service.cache.sanitizer
            assert checker is not None
            checker.check_now("chaos-final")
            assert daemon.errors == []

        run(go())
