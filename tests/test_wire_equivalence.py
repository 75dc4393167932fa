"""Differential battery: binary ≡ binary+batched ≡ serial ``System``.

The same four-client workload (disjoint files, no eviction — so per-pid
counters are interleaving-independent) is replayed two ways over the
wire: one block op per frame, and with consecutive block ops coalesced
into ``readv``/``writev`` batches.  Both runs must produce *identical*
per-pid counters, cache occupancy, cache snapshots and flush totals —
and must match a serial :class:`repro.kernel.system.System` run of the
same scripts.

The bottom half of the file pins the codec itself: a round-trip corpus
(packed fast paths, ``FLAG_JSON`` payloads, every error code), the
messages that have no binary form, seeded random message round-trips,
packed and ``FLAG_JSON`` frames interleaved through one decoder, and the
client-side refusal of an unregistered verb.
"""

import asyncio
import random

import pytest

from repro.kernel.system import MachineConfig, System
from repro.server import CacheClient, CacheDaemon, build_config
from repro.server.client import ServerError
from repro.server.protocol import (
    ERROR_CODES,
    FLAG_JSON,
    FrameDecoder,
    ProtocolError,
    encode_message,
    error_response,
    ok_response,
    request,
)
from repro.sim.ops import BlockRead, BlockWrite
from repro.workloads.base import set_policy, set_priority, set_temppri

# -- the shared scripts ----------------------------------------------------

CACHE_MB = 2  # 256 frames; the scripts touch 90 distinct blocks — no eviction
BATCH_LIMIT = 32  # max ops coalesced into one readv/writev frame

#: batched or not — the two wire paths under test
VARIANTS = [False, True]


def _scan(path, nblocks, passes):
    return [("read", path, b) for _ in range(passes) for b in range(nblocks)]


def _scripts():
    sym = [  # cscope-symbol-like: smart, MRU over one priority pool
        ("set_priority", "sym", 0),
        ("set_policy", 0, "mru"),
    ] + _scan("sym", 24, 3)
    text = [  # cscope-text-like: smart LRU, free-behind on the first pass
        ("set_priority", "text", 0),
        ("set_policy", 0, "lru"),
    ]
    for b in range(20):
        text.append(("read", "text", b))
        text.append(("set_temppri", "text", b, b, -1))
    text += _scan("text", 20, 1)
    sort = [("write", "out", b) for b in range(16)] + _scan("out", 16, 1)
    seq = _scan("seq", 30, 2)  # oblivious sequential reader
    return {
        "sym": (24, sym),
        "text": (20, text),
        "out": (16, sort),
        "seq": (30, seq),
    }


def _grouped(steps):
    """Coalesce consecutive same-verb block ops into batch entries.

    Yields ``("readv", [(path, blockno), ...])``, ``("writev", [...])`` or
    ``("step", original_step)`` — directives break a run, preserving the
    exact reference-stream order the singles variant produces.
    """
    grouped = []
    for step in steps:
        verb = step[0]
        if verb in ("read", "write"):
            batch_verb = "readv" if verb == "read" else "writev"
            if (
                grouped
                and grouped[-1][0] == batch_verb
                and len(grouped[-1][1]) < BATCH_LIMIT
            ):
                grouped[-1][1].append((step[1], step[2]))
            else:
                grouped.append((batch_verb, [(step[1], step[2])]))
        else:
            grouped.append(("step", step))
    return grouped


async def _run_single_step(client, step):
    verb = step[0]
    if verb == "read":
        await client.read(step[1], step[2])
    elif verb == "write":
        await client.write(step[1], step[2], whole=True)
    elif verb == "set_priority":
        await client.set_priority(step[1], step[2])
    elif verb == "set_policy":
        await client.set_policy(step[1], step[2])
    else:
        await client.set_temppri(step[1], step[2], step[3], step[4])


async def _run_script(client, steps, batched):
    if not batched:
        for step in steps:
            await _run_single_step(client, step)
        return
    for kind, payload in _grouped(steps):
        if kind == "readv":
            results = await client.readv(payload)
            assert all("hit" in r for r in results), results
        elif kind == "writev":
            results = await client.writev([(p, b, True) for p, b in payload])
            assert all("hit" in r for r in results), results
        else:
            await _run_single_step(client, payload)


async def _drive_daemon(scripts, batched):
    """One full workload run; returns the behavioral fingerprint."""
    daemon = CacheDaemon(build_config(cache_mb=CACHE_MB, sanitize=True))
    clients = {}
    for path, (nblocks, _) in scripts.items():  # sequential: pids 1..4
        client = await CacheClient.connect_inproc(daemon, name=path)
        await client.open(path, size_blocks=nblocks)
        clients[path] = client

    await asyncio.gather(
        *(
            _run_script(clients[path], steps, batched)
            for path, (_, steps) in scripts.items()
        )
    )
    occupancy = dict(daemon.service.cache.occupancy())
    snapshot = daemon.service.cache_snapshot()
    for client in clients.values():
        await client.aclose()
    summary = await daemon.aclose()  # flushes dirty blocks
    daemon.service.cache.sanitizer.check_now("final")
    assert daemon.errors == []
    counters = {
        pid: daemon.service.counters_for(pid).as_dict()
        for pid in sorted(daemon.service.counters)
    }
    return {
        "counters": counters,
        "occupancy": occupancy,
        "cache": snapshot,
        "flushed": summary["flushed_blocks"],
        "ops_served": daemon.ops_served,
    }


def _drive_system(scripts):
    config = MachineConfig(cache_mb=CACHE_MB, readahead=False, sanitize=True)
    system = System(config)

    def program(steps):
        for step in steps:
            verb = step[0]
            if verb == "read":
                yield BlockRead(step[1], step[2])
            elif verb == "write":
                yield BlockWrite(step[1], step[2], whole=True)
            elif verb == "set_priority":
                yield set_priority(step[1], step[2])
            elif verb == "set_policy":
                yield set_policy(step[1], step[2])
            else:
                yield set_temppri(step[1], step[2], step[3], step[4])

    for path, (nblocks, steps) in scripts.items():  # spawn order = pids 1..4
        system.add_file(path, nblocks=nblocks)
        system.spawn(path, program(steps))
    result = system.run(settle=True)
    system.cache.sanitizer.check_now("final")
    return {
        "stats": {p.pid: p.stats for p in result.procs.values()},
        "occupancy": dict(system.cache.occupancy()),
    }


# -- the differential battery ---------------------------------------------


@pytest.fixture(scope="module")
def fingerprints():
    scripts = _scripts()
    runs = {batched: asyncio.run(_drive_daemon(scripts, batched)) for batched in VARIANTS}
    return runs, _drive_system(scripts)


def test_all_framings_are_behaviorally_identical(fingerprints):
    runs, _ = fingerprints
    reference = runs[False]
    for variant, run in runs.items():
        assert run["counters"] == reference["counters"], variant
        assert run["occupancy"] == reference["occupancy"], variant
        assert run["cache"] == reference["cache"], variant
        assert run["flushed"] == reference["flushed"], variant


def test_every_framing_matches_the_serial_simulator(fingerprints):
    runs, sim = fingerprints
    for variant, run in runs.items():
        assert sorted(run["counters"]) == sorted(sim["stats"]) == [1, 2, 3, 4]
        for pid, stats in sim["stats"].items():
            entry = run["counters"][pid]
            for field in (
                "accesses",
                "hits",
                "misses",
                "disk_reads",
                "disk_writes",
                "directives",
            ):
                assert entry[field] == getattr(stats, field), (variant, pid, field)
        assert run["occupancy"] == sim["occupancy"], variant


def test_block_ios_match_across_framings(fingerprints):
    runs, sim = fingerprints
    sim_ios = sum(s.disk_reads + s.disk_writes for s in sim["stats"].values())
    for variant, run in runs.items():
        run_ios = sum(
            e["disk_reads"] + e["disk_writes"] for e in run["counters"].values()
        )
        assert run_ios == sim_ios == 74 + 16, variant


def test_batching_actually_batched(fingerprints):
    runs, _ = fingerprints
    # Same kernel ops either way; the batched run just used fewer frames.
    assert runs[True]["ops_served"] == runs[False]["ops_served"]


# -- error-code equivalence ------------------------------------------------


async def _error_battery(transport):
    daemon = CacheDaemon(build_config(cache_mb=CACHE_MB))
    if transport == "tcp":
        host, port = await daemon.start_tcp()
        client = await CacheClient.connect_tcp(host, port, name="err")
    else:
        client = await CacheClient.connect_inproc(daemon, name="err")
    await client.open("f", size_blocks=4)
    outcomes = []
    probes = [
        client.read("missing", 0),  # FS: unknown file
        client.read("f", 99),  # FS: past EOF
        client.set_policy(0, "bogus"),  # DIRECTIVE
        client.call("read", path="f", blockno=-1),  # BAD_REQUEST
        client.call("read", path="", blockno=0),  # BAD_REQUEST: empty path
        client.call("readv", ops=[]),  # BAD_REQUEST: empty batch
        client.call("readv", ops="nope"),  # BAD_REQUEST: non-list ops
        client.call("frobnicate"),  # refused client-side: no verb id
    ]
    for probe in probes:
        try:
            await probe
            outcomes.append("OK")
        except ServerError as exc:
            outcomes.append(exc.code)
        except ProtocolError:
            outcomes.append("REFUSED")
    # Partial-batch failure: per-op codes, good ops still applied.
    batch = await client.readv([("f", 0), ("f", 99), ("missing", 0), ("f", 1)])
    outcomes.append([r.get("code", "OK") for r in batch])
    stats = await client.stats()
    outcomes.append(stats["cache"]["accesses"])
    await client.aclose()
    await daemon.aclose()
    assert daemon.errors == []  # never INTERNAL
    return outcomes


def test_error_codes_identical_across_framings():
    """Every error code is the same over the in-process queue transport
    and loopback TCP: both carry the one binary framing."""
    inproc_run = asyncio.run(_error_battery("inproc"))
    tcp_run = asyncio.run(_error_battery("tcp"))
    assert inproc_run == tcp_run
    assert inproc_run[:8] == [
        "FS",
        "FS",
        "DIRECTIVE",
        "BAD_REQUEST",
        "BAD_REQUEST",
        "BAD_REQUEST",
        "BAD_REQUEST",
        "REFUSED",
    ]
    assert inproc_run[8] == ["OK", "FS", "FS", "OK"]


def test_batch_per_op_errors_match_singles():
    async def singles():
        daemon = CacheDaemon(build_config(cache_mb=CACHE_MB))
        client = await CacheClient.connect_inproc(daemon)
        await client.open("f", size_blocks=4)
        ops = [("f", 0), ("f", 9), ("missing", 1), ("f", 1)]
        one_by_one = []
        for path, blockno in ops:
            try:
                one_by_one.append({"hit": await client.read(path, blockno)})
            except ServerError as exc:
                one_by_one.append({"code": exc.code})
        await client.aclose()
        await daemon.aclose()
        return one_by_one

    async def batched():
        daemon = CacheDaemon(build_config(cache_mb=CACHE_MB))
        client = await CacheClient.connect_inproc(daemon)
        await client.open("f", size_blocks=4)
        results = await client.readv([("f", 0), ("f", 9), ("missing", 1), ("f", 1)])
        await client.aclose()
        await daemon.aclose()
        return [
            {"hit": r["hit"]} if "hit" in r else {"code": r["code"]} for r in results
        ]

    assert asyncio.run(singles()) == asyncio.run(batched())


# -- codec round trips -----------------------------------------------------


#: requests and replies the packed layouts carry (no FLAG_JSON)
PACKED_CORPUS = [
    request(1, "read", path="f", blockno=0),
    request(2, "read", path="a/übersicht.db", blockno=2**40),
    request(3, "write", path="f", blockno=7, whole=True),
    request(4, "write", path="f", blockno=7, whole=False),
    request(5, "readv", ops=[{"path": "f", "blockno": 1}, {"path": "g", "blockno": 2}]),
    request(
        6,
        "writev",
        ops=[
            {"path": "f", "blockno": 1, "whole": True},
            {"path": "g", "blockno": 0, "whole": False},
        ],
    ),
    request(7, "open", path="f", size_blocks=64),
    request(14, "open", path="a/übersicht.db"),
    request(15, "open", path="f", size_blocks=0, disk="d1"),
    request(16, "open", path="f", disk="d1"),
    ok_response(7, {"path": "f", "nblocks": 64, "disk": "d0"}),
    ok_response(1, {"hit": True}),
    ok_response(2, {"hit": False}),
    ok_response(3, {"results": [{"hit": True}, {"code": "FS", "error": "nope"}]}),
]

ROUND_TRIP_CORPUS = PACKED_CORPUS + [
    # FLAG_JSON params payloads
    request(8, "stats"),
    request(9, "hello", name="c1", resume=3, token="tok-3-1"),
    request(10, "set_temppri", path="f", start=0, end=5, prio=-1),
    request(11, "metrics", format="prometheus"),
    {"id": None, "verb": "ping"},
    # FLAG_JSON fallbacks (unrepresentable in the packed forms)
    request(12, "read", path="x" * 70_000, blockno=1),  # path > u16
    request(13, "read", path="f", blockno=-1),  # negative blockno
    request(17, "open", path="f", size_blocks=2**63),  # beyond the i64 field
    request(18, "open", path="f", size_blocks=None),  # an explicit null
    request(19, "open", path="f", disk=""),  # empty disk means "absent" packed
    request(20, "open", path="\ud800"),  # a lone surrogate has no UTF-8 form
    ok_response(8, {"path": "f", "nblocks": -1, "disk": "d0"}),  # negative nblocks
    # replies
    ok_response(4, {"pid": 3, "name": "c", "token": "tok-3-1", "resumed": False}),
    ok_response(5, None),
    ok_response(6, [1, "two", None, {"three": 3}]),
    ok_response(None, {"hit": True}),
] + [error_response(n, code, f"boom {code} ü") for n, code in enumerate(ERROR_CODES)]


#: messages with no binary form
UNENCODABLE = [
    request(2**70, "read", path="f", blockno=0),  # id > i64
    {"id": 14, "verb": "unregistered-verb", "x": 1},
]


def test_round_trip_corpus():
    for msg in ROUND_TRIP_CORPUS:
        frames = FrameDecoder().feed(encode_message(msg))
        assert frames == [msg], msg


@pytest.mark.parametrize("msg", UNENCODABLE, ids=["id-beyond-i64", "unregistered-verb"])
def test_message_without_binary_form_is_refused(msg):
    with pytest.raises(ProtocolError):
        encode_message(msg)


def test_mixed_framing_stream_decodes_in_order():
    frames = [encode_message(msg) for msg in ROUND_TRIP_CORPUS]
    # the stream interleaves packed and FLAG_JSON payloads
    assert {bool(frame[3] & FLAG_JSON) for frame in frames} == {True, False}
    assert not any(frame[3] & FLAG_JSON for frame in frames[: len(PACKED_CORPUS)])
    assert FrameDecoder().feed(b"".join(frames)) == ROUND_TRIP_CORPUS


def test_byte_at_a_time_feeding():
    msgs = ROUND_TRIP_CORPUS[:8]
    stream = b"".join(encode_message(m) for m in msgs)
    decoder = FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(decoder.feed(stream[i:i + 1]))
    assert out == msgs
    assert decoder.pending_bytes == 0


def test_seeded_random_messages_round_trip():
    rng = random.Random(0xACFC)

    def junk_value(depth=0):
        pick = rng.randrange(8 if depth < 2 else 6)
        if pick == 0:
            return rng.randrange(-(2**40), 2**40)
        if pick == 1:
            return rng.choice([True, False, None])
        if pick == 2:
            return "".join(
                rng.choice("abĉ∂ e/.-_0") for _ in range(rng.randrange(12))
            )
        if pick == 3:
            return rng.random()
        if pick == 4:
            return rng.randrange(2**64, 2**80)  # beyond the packed ranges
        if pick == 5:
            return ""
        if pick == 6:
            return [junk_value(depth + 1) for _ in range(rng.randrange(4))]
        return {f"k{i}": junk_value(depth + 1) for i in range(rng.randrange(4))}

    verbs = ["read", "write", "readv", "writev", "open", "stats", "hello", "ping"]
    for case in range(300):
        if case % 3 == 0:
            msg = {"id": rng.randrange(2**40), "verb": rng.choice(verbs)}
            for key in ("path", "blockno", "ops", "whole", "extra"):
                if rng.random() < 0.5:
                    msg[key] = junk_value()
        elif case % 3 == 1:
            msg = ok_response(rng.randrange(2**40), junk_value())
        else:
            msg = error_response(
                rng.randrange(2**40), rng.choice(ERROR_CODES), str(junk_value())
            )
        encoded = encode_message(msg)
        assert FrameDecoder().feed(encoded) == [msg], msg


# -- client-side refusal ----------------------------------------------------


def test_unregistered_verb_is_refused_before_sending():
    async def go():
        daemon = CacheDaemon(build_config(cache_mb=CACHE_MB))
        client = await CacheClient.connect_inproc(daemon)
        await client.open("f", size_blocks=4)
        outbox = client._transport._outbox
        sent = []
        put = outbox.put

        async def recording_put(frame):
            sent.append(frame)
            await put(frame)

        outbox.put = recording_put
        with pytest.raises(ProtocolError):
            await client.call("frobnicate")
        assert sent == []  # nothing reached the wire
        assert client._pending == {}
        assert await client.read("f", 0) is False  # the client still works
        assert len(sent) == 1
        await client.aclose()
        await daemon.aclose()
        assert daemon.protocol_errors == 0
        assert daemon.errors == []

    asyncio.run(go())
