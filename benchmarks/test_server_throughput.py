"""Throughput of the cache daemon: block ops/second through the full stack.

Performance benchmarks (not reproduction): four concurrent clients each
stream block reads at a shared daemon.  Two configurations run over the
in-process queue transport — singles, and ``readv`` batching — plus
batched over loopback TCP.  The batched in-process number is the one gated
by ``repro-accfc perf check`` (metric ``inproc_ops_per_sec``); the singles
number is recorded ungated so the batching win stays measurable release
over release.

Each run reports ops/sec into the ``server_throughput`` perf profile plus
``benchmarks/results/server_throughput.json`` for quick inspection.
Under ``REPRO_PERF_SMOKE=1`` each configuration runs best-of-3 rounds, so
the CI gate compares noise-guarded maxima rather than one cold sample.
"""

import asyncio
import time

from conftest import PERF_SMOKE

from repro.server import CacheClient, CacheDaemon, build_config

CLIENTS = 4
OPS_PER_CLIENT = 1_000
FILE_BLOCKS = 64  # per client; small enough that the steady state is hits
BATCH = 50  # readv ops per frame in the batched configuration
ROUNDS = 3 if PERF_SMOKE else 1


async def _drive(connect, batch):
    """Time CLIENTS clients doing OPS_PER_CLIENT block reads each."""
    daemon = CacheDaemon(build_config(cache_mb=4))
    address = await connect(daemon)
    clients = []
    for i in range(CLIENTS):
        if address is None:
            client = await CacheClient.connect_inproc(daemon, name=f"bench-{i}")
        else:
            client = await CacheClient.connect_tcp(*address, name=f"bench-{i}")
        await client.open(f"bench-{i}", size_blocks=FILE_BLOCKS)
        clients.append(client)

    async def hammer(i, client):
        path = f"bench-{i}"
        if batch:
            await client.read_many(
                path,
                (op % FILE_BLOCKS for op in range(OPS_PER_CLIENT)),
                batch=BATCH,
            )
        else:
            for op in range(OPS_PER_CLIENT):
                await client.read(path, op % FILE_BLOCKS)

    start = time.perf_counter()
    await asyncio.gather(*(hammer(i, c) for i, c in enumerate(clients)))
    elapsed = time.perf_counter() - start
    for client in clients:
        await client.aclose()
    await daemon.aclose()
    # Every block op reached the kernel (frames may be far fewer).
    assert daemon.ops_served >= CLIENTS * OPS_PER_CLIENT
    return elapsed


def _run_config(benchmark, connect, batch):
    """Best-of-ROUNDS drive; returns the per-round elapsed times."""
    elapsed_samples = []

    def once():
        elapsed_samples.append(asyncio.run(_drive(connect, batch)))
        return elapsed_samples[-1]

    benchmark.pedantic(once, rounds=ROUNDS, iterations=1)
    assert all(t > 0 for t in elapsed_samples)
    return elapsed_samples


def _record(perf_profile, save_json, config, metric_name, elapsed_samples):
    ops = CLIENTS * OPS_PER_CLIENT
    samples = [ops / t for t in elapsed_samples]
    perf_profile.metric(
        metric_name,
        max(samples),
        "ops/s",
        samples=samples,
        params={"clients": CLIENTS, "ops": ops, "rounds": ROUNDS},
    )
    best = min(elapsed_samples)
    save_json(
        "server_throughput",
        {
            config: {
                "clients": CLIENTS,
                "ops": ops,
                "elapsed_s": round(best, 4),
                "ops_per_sec": round(ops / best, 1),
                "rounds": ROUNDS,
            }
        },
    )
    print(f"\nserver throughput [{config}]: {ops / best:,.0f} ops/sec")


async def _inproc(daemon):
    await daemon.start()
    return None


async def _tcp(daemon):
    return await daemon.start_tcp("127.0.0.1", 0)


def test_inproc_throughput(benchmark, perf_profile, save_json):
    """The gated configuration: readv batching."""
    elapsed = _run_config(benchmark, _inproc, batch=True)
    _record(perf_profile, save_json, "inproc", "inproc_ops_per_sec", elapsed)


def test_inproc_binary_single_throughput(benchmark, perf_profile, save_json):
    elapsed = _run_config(benchmark, _inproc, batch=False)
    _record(
        perf_profile,
        save_json,
        "inproc_binary_single",
        "inproc_binary_single_ops_per_sec",
        elapsed,
    )


def test_tcp_loopback_throughput(benchmark, perf_profile, save_json):
    elapsed = _run_config(benchmark, _tcp, batch=True)
    _record(perf_profile, save_json, "tcp", "tcp_ops_per_sec", elapsed)
