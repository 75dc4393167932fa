"""repro.harness.load: the cluster load driver and its report, plus the
fan-out regressions it exposed.

The regression classes pin the two defects found while scaling the
driver to thousands of sessions: a :class:`CacheClient` pending-map
entry stranded by any non-reader exit path (timeout, cancelled waiter,
failed send), and :class:`ClusterClient` batches above the wire's
``MAX_BATCH_OPS`` hitting the server's frame validation in one piece.
"""

import asyncio
import contextlib
import time

import pytest

from repro.cluster import ClusterClient, ClusterSupervisor
from repro.faults import FaultPlan
from repro.harness.load import (
    REPORT_SCHEMA,
    LoadDriver,
    latency_summary,
    load_main,
    render_report,
    validate_report,
)
from repro.server import CacheClient, CacheDaemon, build_config
from repro.server.client import RetryPolicy, ServerBusy
from repro.server.protocol import MAX_BATCH_OPS, encode_message, ok_response, queue_pair
from repro.workloads.production import (
    PoissonArrivals,
    TrafficOp,
    etc_profile,
    hotspot_profile,
    uniform_profile,
)


def run(coro):
    return asyncio.run(coro)


def small_driver(**overrides):
    """An inproc driver sized for the test suite, closed-loop."""
    kwargs = dict(
        profile=hotspot_profile(paths=48, blocks_per_file=4),
        shards=2,
        sessions=8,
        ops=240,
        seed=11,
        spawn="inproc",
        depth=2,
        cache_mb=0.5,
    )
    kwargs.update(overrides)
    return LoadDriver(**kwargs)


class TestLoadDriver:
    def test_inproc_run_produces_valid_report(self):
        report = run(small_driver().run())
        validate_report(report)  # raises on any schema problem
        assert report["schema"] == REPORT_SCHEMA
        ops = report["ops"]
        assert ops["offered"] == 240
        assert ops["completed"] + ops["failed"] + ops["unissued"] == 240
        assert ops["failed"] == 0 and ops["unissued"] == 0
        assert ops["reads"] + ops["writes"] == ops["completed"]
        assert report["throughput"]["ops_per_sec"] > 0
        latency = report["latency"]
        assert latency["count"] == ops["completed"]
        assert 0 < latency["p50_s"] <= latency["p99_s"] <= latency["max_s"]
        assert 0.0 <= report["hit_ratio"]["overall"] <= 1.0
        # client-observed hits and the merged server stats must agree
        assert report["hit_ratio"]["server"] == pytest.approx(
            report["hit_ratio"]["overall"], abs=0.01
        )
        assert report["cluster"]["shard_count"] == 2

    def test_same_seed_same_offered_stream(self):
        a = small_driver().stream()
        b = small_driver().stream()
        assert a == b

    def test_trace_replay_run(self):
        trace = [
            TrafficOp(f"replay/{i % 6}.dat", "r" if i % 3 else "w", i % 4)
            for i in range(120)
        ]
        driver = LoadDriver(
            trace_ops=trace,
            shards=2,
            sessions=4,
            ops=120,
            spawn="inproc",
            cache_mb=0.5,
            blocks_per_file=4,
        )
        assert not driver.open_loop
        report = run(driver.run())
        assert report["ops"]["completed"] == 120
        assert report["profile"] == "trace"

    def test_open_loop_arrivals_are_honoured(self):
        # 240 ops at 2000/s must take at least ~100ms of offered time
        driver = small_driver(
            profile=uniform_profile(
                paths=32, blocks_per_file=4, arrivals=PoissonArrivals(2000.0)
            )
        )
        assert driver.open_loop
        report = run(driver.run())
        assert report["open_loop"] is True
        assert report["ops"]["completed"] == 240
        assert report["throughput"]["elapsed_s"] > 0.1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            LoadDriver()
        with pytest.raises(ValueError, match="exactly one"):
            LoadDriver(profile=uniform_profile(paths=8), trace_ops=[])
        with pytest.raises(ValueError):
            LoadDriver(profile=uniform_profile(paths=8), shards=0)
        with pytest.raises(ValueError):
            LoadDriver(profile=uniform_profile(paths=8), sessions=0)
        with pytest.raises(ValueError):
            LoadDriver(profile=uniform_profile(paths=8), depth=0)

    def test_validate_report_rejects_mutations(self):
        report = run(small_driver(ops=40, sessions=2).run())
        bad = dict(report, schema="repro.load/99")
        with pytest.raises(ValueError, match="schema"):
            validate_report(bad)
        bad = dict(report, ops=dict(report["ops"], completed=-1))
        with pytest.raises(ValueError, match="completed"):
            validate_report(bad)
        bad = dict(report, hit_ratio=dict(report["hit_ratio"], overall=1.5))
        with pytest.raises(ValueError, match="overall"):
            validate_report(bad)
        bad = dict(report)
        del bad["latency"]
        with pytest.raises(ValueError, match="latency"):
            validate_report(bad)
        latency = report["latency"]
        bad = dict(report, latency=dict(latency, p99_s=latency["max_s"] * 2))
        with pytest.raises(ValueError, match="p99_s <= max_s"):
            validate_report(bad)

    def test_render_report_is_operator_readable(self):
        report = run(small_driver(ops=40, sessions=2).run())
        text = render_report(report)
        assert "ops/s" in text
        assert "p50" in text and "p99" in text
        assert "hit ratio" in text

    def test_cli_smoke(self, capsys):
        status = load_main(
            [
                "--profile", "uniform",
                "--paths", "32",
                "--blocks-per-file", "4",
                "--shards", "2",
                "--sessions", "4",
                "--ops", "80",
                "--closed-loop",
                "--spawn", "inproc",
                "--cache-mb", "0.5",
                "--json",
                "--quiet",
            ]
        )
        assert status == 0
        payload = capsys.readouterr().out
        assert REPORT_SCHEMA in payload

    def test_cli_bad_trace_exits_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a/f,frob,0\n")
        status = load_main(["--trace", str(path), "--spawn", "inproc"])
        assert status == 2
        err = capsys.readouterr().err
        assert f"{path}:1" in err and "unknown op" in err


class TestLatencyQuantiles:
    """The report's p50/p99 are exact sample quantiles, never above max."""

    def test_constant_latency_is_reported_exactly(self):
        # Bucket interpolation over 2x-wide buckets reported p50 = 37.5ms
        # and p99 = 49.75ms for this input.
        summary = latency_summary([0.03] * 1000)
        assert summary == {
            "count": 1000,
            "mean_s": pytest.approx(0.03),
            "p50_s": 0.03,
            "p99_s": 0.03,
            "max_s": 0.03,
        }

    def test_nearest_rank(self):
        summary = latency_summary([float(v) for v in range(100, 0, -1)])
        assert (summary["p50_s"], summary["p99_s"], summary["max_s"]) == (50.0, 99.0, 100.0)
        assert latency_summary([7.0])["p99_s"] == 7.0
        assert latency_summary([])["p50_s"] is None

    def test_inproc_report_quantiles_stay_below_max(self, monkeypatch):
        call = CacheClient.call

        async def slow_call(self, verb, **params):
            if verb in ("read", "write", "readv", "writev"):
                await asyncio.sleep(0.03)
            return await call(self, verb, **params)

        monkeypatch.setattr(CacheClient, "call", slow_call)
        report = run(small_driver(ops=120).run())
        validate_report(report)
        latency = report["latency"]
        assert latency["count"] == 120
        assert 0.03 <= latency["p50_s"] <= latency["p99_s"] <= latency["max_s"]


# -- CacheClient pending-map regression ------------------------------------


class TestFailedOpenRegression:
    def test_failed_open_is_retried_by_the_next_toucher(self, monkeypatch):
        """A failed open must not stay cached: the first open of every
        path fails once, and only the ops that awaited that very open may
        fail — every later op on the path re-opens and completes."""
        real_open = CacheClient.open
        refused = set()

        async def open_busy_once(self, path, *args, **kwargs):
            if path not in refused:
                refused.add(path)
                raise ServerBusy("BUSY", f"refusing the first open of {path}")
            return await real_open(self, path, *args, **kwargs)

        monkeypatch.setattr(CacheClient, "open", open_busy_once)
        driver = LoadDriver(
            profile=etc_profile(paths=20, rate=None, blocks_per_file=4),
            shards=2,
            sessions=4,
            ops=400,
            seed=3,
            spawn="inproc",
            depth=2,
            cache_mb=0.5,
        )
        report = run(driver.run())
        ops = report["ops"]
        assert ops["completed"] + ops["failed"] == 400
        # at most every in-flight op (sessions x depth) per refused open
        assert 0 < ops["failed"] <= len(refused) * 4 * 2
        assert ops["completed"] >= 400 - len(refused) * 4 * 2


def slow_daemon(delay_s):
    """A daemon whose inbound frames are all delayed by ``delay_s``."""
    return CacheDaemon(
        build_config(
            cache_mb=0.5,
            faults=FaultPlan(seed=1, slow_loris_rate=1.0, slow_loris_s=delay_s),
        )
    )


class TestPendingMapRegression:
    def test_timeout_unregisters_pending_entry(self):
        async def go():
            daemon = slow_daemon(0.5)
            client = await CacheClient.connect_inproc(daemon, name="t")
            for _ in range(5):
                with pytest.raises(asyncio.TimeoutError):
                    await client._call_once("ping", {}, 0.02)
            # Pre-fix, every timed-out request stranded its future here
            # forever — the map grew without bound under load.
            assert client._pending == {}
            assert client.timeouts == 5
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_reply_after_its_deadline_is_dropped(self):
        # The deadline fails the reply future itself.  A reply the reader
        # takes in after the deadline fired, but before the caller woke,
        # must find the future done and be dropped: no InvalidStateError,
        # one timeout, nothing left in the pending map.
        async def go():
            loop = asyncio.get_running_loop()
            loop_errors = []
            loop.set_exception_handler(lambda _, context: loop_errors.append(context))
            server, near = queue_pair()
            client = CacheClient(near)
            client._start_reader()
            call = asyncio.ensure_future(client._call_once("ping", {}, 0.02))
            req = await server.recv()
            reply = encode_message(ok_response(req["id"], {"pong": True}))
            loop.call_later(0.005, server._outbox.put_nowait, reply)
            # Hold the loop: the reply and the deadline fall due in one tick.
            time.sleep(0.05)
            with pytest.raises(asyncio.TimeoutError):
                await call
            await asyncio.sleep(0)
            assert loop_errors == []
            assert client._pending == {}
            assert client.timeouts == 1
            assert not client._reader_task.done()
            near.close()
            await client._reader_task

        run(go())

    def test_cancelled_waiter_unregisters_pending_entry(self):
        async def go():
            daemon = slow_daemon(0.5)
            client = await CacheClient.connect_inproc(daemon, name="t")
            task = asyncio.ensure_future(client.ping())
            await asyncio.sleep(0.05)
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            assert client._pending == {}
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_failed_send_unregisters_pending_entry(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(daemon, name="t")

            real_send = client._transport.send

            async def broken_send(message):
                raise RuntimeError("wire torn mid-send")

            client._transport.send = broken_send
            with pytest.raises(RuntimeError, match="wire torn"):
                await client._call_once("ping", {}, None)
            assert client._pending == {}
            client._transport.send = real_send
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_stalled_shard_leaves_no_pending_residue(self):
        # The ISSUE scenario: one shard of the cluster stalls (slow-loris
        # frame delivery) while sessions keep issuing; once the burst
        # completes every connection's pending map must drain to empty.
        async def go():
            sup = ClusterSupervisor(
                shards=3,
                cache_mb=0.5,
                replicas=1,
                shard_faults={
                    "shard-0": FaultPlan(
                        seed=7, slow_loris_rate=1.0, slow_loris_s=0.01
                    )
                },
            )
            await sup.start()
            cc = await ClusterClient.connect(
                sup, name="t", retry=RetryPolicy(timeout_s=10.0, max_retries=0)
            )
            paths = [f"/stall{i}.bin" for i in range(24)]
            for path in paths:
                await cc.open(path, size_blocks=2)
            await asyncio.gather(
                *(cc.read(path, 0) for path in paths for _ in range(4))
            )
            for client in cc.clients.values():
                assert client._pending == {}
            await cc.aclose()
            await sup.aclose()

        run(go())


# -- ClusterClient mega-batch regression -----------------------------------


class TestBatchSplitRegression:
    def test_readv_above_max_batch_ops_is_chunked(self):
        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=2, replicas=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            paths = [f"/big{i}.bin" for i in range(8)]
            for path in paths:
                await cc.open(path, size_blocks=4)
            # Pre-fix this went to each shard as one oversized frame and
            # the server's MAX_BATCH_OPS validation rejected it outright.
            ops = [
                (paths[i % len(paths)], i % 4)
                for i in range(MAX_BATCH_OPS + 300)
            ]
            results = await cc.readv(ops)
            assert len(results) == len(ops)
            assert all("hit" in r and "error" not in r for r in results)
            # re-merge must preserve op order across the chunk boundary
            warm = await cc.readv(ops[:8])
            assert [r["hit"] for r in warm] == [True] * 8
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_writev_above_max_batch_ops_is_chunked(self):
        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=2, replicas=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            for i in range(4):
                await cc.open(f"/wb{i}.bin", size_blocks=4)
            ops = [
                (f"/wb{i % 4}.bin", i % 4, True)
                for i in range(MAX_BATCH_OPS + 50)
            ]
            results = await cc.writev(ops)
            assert len(results) == len(ops)
            assert all("hit" in r and "error" not in r for r in results)
            await cc.aclose()
            await sup.aclose()

        run(go())
