"""Production load: sustained ops/sec and hit ratio of a subprocess
cluster under skewed (ETC-like Zipfian) traffic.

Performance benchmark (not reproduction).  The :class:`LoadDriver`
stands up a ``--subprocess`` cluster — real processes, real TCP, the
binary wire — and drives it closed-loop with pipelined
concurrent sessions over a heavy-tailed keyspace, exactly the shape
``repro-accfc load`` runs by hand.  Two things can silently regress on
this path and are therefore gated by ``repro-accfc perf check``:

* ``sustained_ops_per_sec`` — end-to-end cluster throughput including
  session fan-out, per-shard batching and the wire round-trip;
* ``hit_ratio`` — the cache's absorption of Zipf skew at a fixed
  cache-to-keyspace ratio (a replacement-policy or admission regression
  shows up here before any latency chart moves).

Tail latency (exact p50/p99 of the client-side per-op samples) is
recorded un-gated: on a shared runner the tail is too noisy to fail CI,
but ``repro-accfc perf diff`` still tracks it run over run.

Under ``REPRO_PERF_SMOKE=1`` the fleet shrinks to 4 shards / 64
sessions (the CI shape); the full run drives 16 shards with 1024
concurrent sessions.
"""

import asyncio

from conftest import PERF_SMOKE, run_once

from repro.harness.load import LoadDriver, validate_report
from repro.workloads.production import etc_profile

SHARDS = 4 if PERF_SMOKE else 16
SESSIONS = 64 if PERF_SMOKE else 1024
OPS = 2_000 if PERF_SMOKE else 12_000
PATHS = 4_000 if PERF_SMOKE else 50_000
BLOCKS_PER_FILE = 4
SKEW = 0.99
SEED = 17
CACHE_MB = 2.0


def _drive():
    profile = etc_profile(
        paths=PATHS, skew=SKEW, rate=None, blocks_per_file=BLOCKS_PER_FILE
    )
    driver = LoadDriver(
        profile,
        shards=SHARDS,
        sessions=SESSIONS,
        ops=OPS,
        seed=SEED,
        spawn="subprocess",
        cache_mb=CACHE_MB,
    )
    return asyncio.run(driver.run())


def test_production_load(benchmark, perf_profile, save_json):
    report = run_once(benchmark, _drive)

    validate_report(report)
    assert report["ops"]["completed"] == OPS
    assert report["ops"]["failed"] == 0
    assert report["ops"]["unissued"] == 0
    assert 0.0 < report["hit_ratio"]["overall"] < 1.0

    params = {
        "shards": SHARDS,
        "sessions": SESSIONS,
        "ops": OPS,
        "paths": PATHS,
        "skew": SKEW,
        "seed": SEED,
        "cache_mb": CACHE_MB,
        "spawn": "subprocess",
    }
    perf_profile.metric(
        "sustained_ops_per_sec",
        report["throughput"]["ops_per_sec"],
        "ops/s",
        params=params,
    )
    perf_profile.metric(
        "hit_ratio", report["hit_ratio"]["overall"], "ratio", params=params
    )
    perf_profile.metric(
        "p50_latency_s", report["latency"]["p50_s"], "s", "lower", params=params
    )
    perf_profile.metric(
        "p99_latency_s", report["latency"]["p99_s"], "s", "lower", params=params
    )

    save_json("production_load", {"workload": params, "report": report})
    print(
        f"\nproduction load ({SHARDS} shards, {SESSIONS} sessions): "
        f"{report['throughput']['ops_per_sec']:,.0f} ops/s, "
        f"p50 {report['latency']['p50_s'] * 1e3:.2f}ms, "
        f"p99 {report['latency']['p99_s'] * 1e3:.2f}ms, "
        f"hit ratio {report['hit_ratio']['overall']:.3f}"
    )
