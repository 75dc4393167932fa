"""Protocol fuzz: hostile bytes and hostile messages against the daemon.

Two layers of attack, both seeded and deterministic:

* **byte-level** — frames that do not start with the wire magic (an old
  length-prefixed JSON peer, garbage, plain random byte blobs), truncated
  frames and oversized length fields written straight into a TCP
  connection.  The daemon must answer with a ``BAD_REQUEST`` error reply
  (when the framing still allows one) and disconnect cleanly — never let
  an exception escape the session task and never wedge the kernel task;
* **message-level** — well-formed binary frames (``FLAG_JSON`` params
  payloads) carrying randomly typed junk in every parameter slot.  Every
  request must draw exactly one reply whose error code is a *defined*
  code other than ``INTERNAL`` (``INTERNAL`` would mean an unhandled
  exception crossed the service boundary; the daemon's ``errors`` list
  must stay empty).  A junk verb is an unregistered verb id: it draws one
  id-less ``BAD_REQUEST`` and ends the connection.

After each battery a well-behaved client connects and completes a real
open/read/write/stats round trip, proving the shared kernel survived.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct

import pytest

from repro.server import CacheClient, CacheDaemon, build_config
from repro.server.protocol import (
    ERROR_CODES,
    FLAG_JSON,
    FLAG_NO_ID,
    MAGIC,
    MAX_FRAME_BYTES,
    VERBS,
    WIRE_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_message,
    request,
)

#: the length prefix of the retired JSON framing, for old-peer attacks
_JSON_PREFIX = struct.Struct(">I")

# Local copies of the binary header layout, so a test regression in the
# real structs cannot silently fuzz the wrong shape.
_BIN_PREFIX = struct.Struct(">2sBB")  # magic, version, flags
_BIN_REST = struct.Struct(">BqI")  # kind/verb id, request id, payload length

#: verb ids no registered verb uses: a junk verb on the binary wire
UNREGISTERED_VERB_IDS = tuple(
    sorted(set(range(256)) - {entry[0] for entry in VERBS.values()})
)


def run(coro):
    return asyncio.run(coro)


def frame(payload: bytes) -> bytes:
    """A frame in the retired length-prefixed JSON framing."""
    return _JSON_PREFIX.pack(len(payload)) + payload


def jframe(obj) -> bytes:
    return frame(json.dumps(obj).encode("utf-8"))


async def start_daemon(**kwargs):
    daemon = CacheDaemon(build_config(cache_mb=0.5, sanitize=True), **kwargs)
    host, port = await daemon.start_tcp()
    return daemon, host, port


async def read_replies(reader, n, timeout=5.0):
    """Read exactly ``n`` frames (the replies to ``n`` requests)."""
    decoder = FrameDecoder()
    out = []
    while len(out) < n:
        chunk = await asyncio.wait_for(reader.read(4096), timeout)
        if not chunk:
            raise AssertionError(f"eof after {len(out)}/{n} frames")
        out.extend(decoder.feed(chunk))
    assert len(out) == n and decoder.pending_bytes == 0, out
    return out


async def read_raw_until_eof(reader, timeout=5.0):
    """Every byte the server sends until it closes the connection."""
    raw = b""
    while True:
        chunk = await asyncio.wait_for(reader.read(4096), timeout)
        if not chunk:
            return raw
        raw += chunk


async def read_until_eof(reader, timeout=5.0):
    """All frames until the server closes the connection."""
    return FrameDecoder().feed(await read_raw_until_eof(reader, timeout))


async def assert_daemon_healthy(daemon):
    """The kernel task is alive and a polite client gets real service."""
    assert daemon.errors == []
    client = await CacheClient.connect_inproc(daemon, name="survivor")
    await client.open("health", size_blocks=4)
    assert await client.read("health", 0) is False
    assert await client.read("health", 0) is True
    stats = await client.stats()
    assert stats["server"]["sessions"] >= 1
    await client.aclose()


async def expect_refused(hostile: bytes):
    """``hostile`` draws one binary, id-less BAD_REQUEST, then a clean
    disconnect; the daemon stays healthy."""
    daemon, host, port = await start_daemon()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(hostile)
    await writer.drain()
    raw = await read_raw_until_eof(reader)
    assert raw[:2] == MAGIC
    (reply,) = FrameDecoder().feed(raw)
    assert reply["id"] is None
    assert reply["ok"] is False
    assert reply["code"] == "BAD_REQUEST"
    assert daemon.protocol_errors == 1
    writer.close()
    await assert_daemon_healthy(daemon)
    await daemon.aclose()


class TestByteLevelAttacks:
    """Frames without the wire magic: the first four bytes are enough to
    refuse them, whatever follows."""

    def test_truncated_frame_is_a_clean_disconnect(self):
        # Claim 64 payload bytes, deliver 8.
        run(expect_refused(_JSON_PREFIX.pack(64) + b"not much"))

    def test_oversized_length_prefix_gets_error_then_disconnect(self):
        run(expect_refused(_JSON_PREFIX.pack(MAX_FRAME_BYTES + 1) + b"irrelevant"))

    def test_garbage_payload_gets_error_then_disconnect(self):
        run(expect_refused(frame(b"\xff\xfe definitely not json")))

    def test_non_object_json_gets_error_then_disconnect(self):
        run(expect_refused(frame(b"[1, 2, 3]")))

    def test_json_framed_hello_is_refused(self):
        """An old JSON-framing peer's first hello is refused, not served."""
        run(expect_refused(jframe({"id": 1, "verb": "hello", "name": "old"})))

    def test_random_byte_blob_battery(self):
        """Sixty connections of pure noise; the daemon shrugs them all off."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0xF417)
            for _ in range(60):
                reader, writer = await asyncio.open_connection(host, port)
                blob = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 200)))
                writer.write(blob)
                await writer.drain()
                writer.close()
                for reply in await read_until_eof(reader):
                    # Any reply must still be a well-formed protocol message.
                    assert reply.get("ok") is False
                    assert reply.get("code") in ERROR_CODES
            assert not daemon._kernel_task.done()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())


def junk_value(rng, depth=0):
    """A randomly typed JSON-encodable value."""
    choices = ["int", "bigint", "negint", "str", "none", "bool", "float", "list", "dict"]
    kind = rng.choice(choices if depth < 2 else choices[:7])
    if kind == "int":
        return rng.randint(0, 100)
    if kind == "bigint":
        return rng.randint(10**12, 10**18)
    if kind == "negint":
        return rng.randint(-10**6, -1)
    if kind == "str":
        return rng.choice(["", "f", "lru", "mru", "../..", "x" * 300, "\x00\x01", "7"])
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "float":
        return rng.choice([0.5, -1.5, 1e308, float(rng.randint(0, 9))])
    if kind == "list":
        return [junk_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {str(i): junk_value(rng, depth + 1) for i in range(rng.randint(0, 3))}


PARAM_NAMES = (
    "path", "blockno", "size_blocks", "disk", "whole",
    "prio", "policy", "start", "end", "name", "resume", "token",
    "ops", "wire",
)

#: every verb except ``close`` (which intentionally ends the session)
FUZZ_VERBS = (
    "open", "read", "write", "readv", "writev", "stats",
    "set_priority", "get_priority",
    "set_policy", "get_policy", "set_temppri", "ping", "hello",
    "frobnicate", "", "OPEN", "read ", None, 7,
)


def junk_params(rng, max_params):
    return {
        name: junk_value(rng)
        for name in rng.sample(PARAM_NAMES, rng.randint(0, max_params))
    }


#: the fuzz verbs that have a binary verb id
REGISTERED_FUZZ_VERBS = tuple(verb for verb in FUZZ_VERBS if verb in VERBS)


def write_junk_requests(writer, rng, nreq, max_params):
    """Write ``nreq`` junk requests, maybe then a junk verb; returns
    ``(request_ids, hostile)``.

    Each request is a registered verb in a real binary frame, its junk
    params a ``FLAG_JSON`` payload unless they happen to fit the packed
    form.  A junk verb is an unregistered verb id, so it can only be the
    last frame: the daemon cannot decode it and ends the connection.
    """
    sent = []
    for req_id in range(1, nreq + 1):
        verb = rng.choice(REGISTERED_FUZZ_VERBS)
        writer.write(
            encode_message(request(req_id, verb, **junk_params(rng, max_params)))
        )
        sent.append(req_id)
    hostile = rng.random() < 0.3
    if hostile:
        payload = json.dumps(junk_params(rng, max_params)).encode("utf-8")
        kind = rng.choice(UNREGISTERED_VERB_IDS)
        writer.write(bframe(payload, flags=FLAG_JSON, kind=kind, req_id=nreq + 1))
    return sent, hostile


async def read_junk_replies(reader, sent, hostile):
    """Replies to :func:`write_junk_requests`: one per sent id, plus one
    id-less BAD_REQUEST and a disconnect if the stream was hostile."""
    if not hostile:
        replies = await read_replies(reader, len(sent))
    else:
        replies = await read_until_eof(reader)
        refusals = [r for r in replies if r["id"] is None]
        assert [r["code"] for r in refusals] == ["BAD_REQUEST"], replies
        replies = [r for r in replies if r["id"] is not None]
    # Session-level verbs are answered inline, kernel verbs via the
    # queue, so order interleaves — but every id must answer.
    assert sorted(r["id"] for r in replies) == sent
    for reply in replies:
        assert reply["ok"] or reply["code"] in ERROR_CODES
        assert reply["ok"] or reply["code"] != "INTERNAL", reply


class TestMessageLevelFuzz:
    def test_junk_params_battery(self):
        """Well-framed junk: every request draws one non-INTERNAL reply."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0xACDC)
            hostile_streams = 0
            for _ in range(20):
                reader, writer = await asyncio.open_connection(host, port)
                sent, hostile = write_junk_requests(writer, rng, rng.randint(5, 15), 5)
                await writer.drain()
                await read_junk_replies(reader, sent, hostile)
                hostile_streams += hostile
                writer.close()
            # The battery exercised both endings: clean and junk-verb.
            assert 0 < hostile_streams < 20
            assert daemon.protocol_errors == hostile_streams
            assert daemon.errors == []
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_missing_id_and_missing_verb(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            no_id = encode_message({"id": None, "verb": "read", "path": "f"})
            assert no_id[3] & FLAG_NO_ID
            writer.write(no_id)
            writer.write(encode_message(request(3, "ping")))  # still alive?
            # Verb id 0 is never assigned: the binary form of "no verb".
            writer.write(bframe(b"{}", flags=FLAG_JSON, kind=0, req_id=2))
            await writer.drain()
            replies = await read_until_eof(reader)
            assert len(replies) == 3
            (pong,) = [r for r in replies if r["id"] == 3]
            assert pong["ok"] is True and pong["value"]["pong"] is True
            errors = [r for r in replies if r["id"] is None]
            assert [r["code"] for r in errors] == ["BAD_REQUEST", "BAD_REQUEST"]
            # one is the id-less read, one the verb-less frame
            assert sum("protocol error" in r["error"] for r in errors) == 1
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_bogus_resume_is_refused_not_fatal(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            for req_id, (resume, token) in enumerate(
                [("x", 3), (99, None), (99, "tok-99-1"), (None, [1]), (2**40, {})], start=1
            ):
                writer.write(
                    encode_message(request(req_id, "hello", resume=resume, token=token))
                )
            writer.write(encode_message(request(9, "ping")))
            await writer.drain()
            replies = await read_replies(reader, 6)
            for reply in replies[:5]:
                assert reply["ok"] is False
                assert reply["code"] == "BAD_REQUEST"
            assert replies[5]["ok"] is True
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())


# -- malformed params, verb by verb ----------------------------------------

_OVERSIZED = 1025  # one past the per-frame batch/list limit

#: per verb: param sets every one of which the wire boundary must refuse
MALFORMED_PARAMS = {
    "open": [{}, {"path": ""}, {"path": 7}, {"path": None, "size_blocks": 4}],
    "read": [
        {"blockno": 0},
        {"path": "", "blockno": 0},
        {"path": "f"},
        {"path": "f", "blockno": True},
        {"path": "f", "blockno": -1},
        {"path": "f", "blockno": "x"},
        {"path": "f", "blockno": [1]},
    ],
    "write": [
        {"blockno": 0, "whole": True},
        {"path": "", "blockno": 0, "whole": True},
        {"path": "f", "whole": True},
        {"path": "f", "blockno": False, "whole": True},
        {"path": "f", "blockno": -3, "whole": True},
        {"path": "f", "blockno": "1.5", "whole": True},
    ],
    "readv": [
        {},
        {"ops": []},
        {"ops": "x"},
        {"ops": [1]},
        {"ops": [{"blockno": 0}]},
        {"ops": [{"path": "", "blockno": 0}]},
        {"ops": [{"path": "f", "blockno": True}]},
        {"ops": [{"path": "f", "blockno": -1}]},
        {"ops": [{"path": "f", "blockno": 0}] * _OVERSIZED},
    ],
    "writev": [
        {},
        {"ops": []},
        {"ops": {"path": "f"}},
        {"ops": [{"path": "", "blockno": 0, "whole": True}]},
        {"ops": [{"path": "f", "blockno": "x", "whole": True}]},
        {"ops": [{"path": "f", "blockno": 0, "whole": True}] * _OVERSIZED},
    ],
    "set_priority": [{"prio": 1}, {"path": "", "prio": 1}, {"path": "f"}],
    "get_priority": [{}, {"path": ""}, {"path": 3}],
    "set_policy": [{}, {"prio": 0}, {"policy": "lru"}],
    "get_policy": [{}],
    "set_temppri": [
        {"start": 0, "end": 1, "prio": 1},
        {"path": "", "start": 0, "end": 1, "prio": 1},
        {"path": "f", "end": 1, "prio": 1},
        {"path": "f", "start": 0, "prio": 1},
        {"path": "f", "start": 0, "end": 1},
    ],
    "invalidate": [
        {},
        {"path": ""},
        {"path": "f", "blockno": -1},
        {"path": "f", "blockno": True},
        {"path": "f", "blockno": "x"},
    ],
    "declare_bundle": [
        {"paths": ["f"]},
        {"bundle": "", "paths": ["f"]},
        {"bundle": 3, "paths": ["f"]},
        {"bundle": "b"},
        {"bundle": "b", "paths": []},
        {"bundle": "b", "paths": "f"},
        {"bundle": "b", "paths": [""]},
        {"bundle": "b", "paths": [3]},
        {"bundle": "b", "paths": ["f"] * _OVERSIZED},
    ],
    "migrate_begin": [
        {"paths": None},
        {"paths": "f"},
        {"paths": [""]},
        {"paths": ["f", None]},
        {"paths": ["f"] * _OVERSIZED},
    ],
    "migrate_chunk": [
        {"records": None},
        {"records": "x"},
        {"records": [1]},
        {"records": [{"blockno": 0}]},
        {"records": [{"path": "", "blockno": 0}]},
        {"records": [{"path": "f", "blockno": -1}]},
        {"records": [{"path": "f", "blockno": 0, "size_blocks": True}]},
        {"records": [{"path": "f", "blockno": 0, "disk": ""}]},
        {"records": [{"path": "f", "blockno": 0}] * _OVERSIZED},
        {},
        {"token": ""},
        {"token": 5},
        {"token": "mig-0", "max": 0},
        {"token": "mig-0", "max": True},
        {"token": "mig-0", "max": "x"},
        {"token": "mig-0", "max": None},
    ],
    "migrate_end": [{}, {"token": ""}, {"token": 3}, {"drop": False}],
}


class TestMalformedParams:
    """Every param shape the wire boundary refuses, verb by verb: each
    request draws a BAD_REQUEST carrying its own request id, nothing
    escapes as INTERNAL, and the session keeps answering ``ping``."""

    @pytest.mark.parametrize("verb", sorted(MALFORMED_PARAMS))
    def test_each_malformed_request_is_a_bad_request(self, verb):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5, sanitize=True))
            transport = await daemon.connect_inproc()
            for req_id, params in enumerate(MALFORMED_PARAMS[verb], start=1):
                await transport.send(request(req_id, verb, **params))
                reply = await transport.recv()
                assert reply["id"] == req_id, (params, reply)
                assert reply["ok"] is False, (params, reply)
                assert reply["code"] == "BAD_REQUEST", (params, reply)
            await transport.send(request(0, "ping"))
            pong = await transport.recv()
            assert pong["id"] == 0 and pong["ok"] is True
            assert daemon.errors == []
            transport.close()
            await daemon.aclose()

        run(go())


# -- binary framing attacks ------------------------------------------------


def bframe(payload=b"", *, version=WIRE_VERSION, flags=0, kind=None, req_id=1, length=None):
    """A raw binary frame with every header field overridable."""
    if kind is None:
        kind = VERBS["read"][0]
    if length is None:
        length = len(payload)
    return (
        _BIN_PREFIX.pack(MAGIC, version, flags)
        + _BIN_REST.pack(kind, req_id, length)
        + payload
    )


def packed_read(path=b"f", blockno=0):
    """The packed payload of a ``read`` request."""
    return struct.pack(">H", len(path)) + path + struct.pack(">Q", blockno)


def packed_open(path=b"f", size=struct.pack(">q", -1), disk=b""):
    """The packed payload of an ``open`` request (size -1: no size)."""
    return (
        struct.pack(">H", len(path)) + path + size + struct.pack(">H", len(disk)) + disk
    )


class TestBinaryByteLevelAttacks:
    async def _expect_rejection(self, hostile: bytes, replies: int = 1):
        """One hostile binary frame → typed error reply, clean disconnect,
        healthy daemon afterwards."""
        daemon, host, port = await start_daemon()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(hostile)
        await writer.drain()
        got = await read_until_eof(reader)
        assert len(got) == replies, got
        for reply in got:
            assert reply["ok"] is False
            assert reply["code"] == "BAD_REQUEST"
        if replies:
            assert daemon.protocol_errors >= 1
        writer.close()
        await assert_daemon_healthy(daemon)
        await daemon.aclose()

    def test_unknown_version_rejected(self):
        run(self._expect_rejection(bframe(packed_read(), version=9)))

    def test_unknown_flag_bits_rejected(self):
        run(self._expect_rejection(bframe(packed_read(), flags=0x80)))

    def test_unknown_verb_id_rejected(self):
        run(self._expect_rejection(bframe(packed_read(), kind=213)))

    def test_oversized_binary_length_rejected(self):
        run(self._expect_rejection(bframe(length=MAX_FRAME_BYTES + 1)))

    def test_trailing_payload_bytes_rejected(self):
        run(self._expect_rejection(bframe(packed_read() + b"stowaway")))

    def test_truncated_binary_frame_is_a_clean_disconnect(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            # Claim 64 payload bytes, deliver 8, hang up mid-frame.
            writer.write(bframe(b"not much", length=64))
            await writer.drain()
            writer.close()
            assert await read_until_eof(reader) == []
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_mid_batch_garbage_rejected(self):
        # A readv frame whose op records dissolve into noise after op #1.
        payload = (
            struct.pack(">I", 3)  # three ops promised
            + packed_read(b"f", 1)  # op 1 is fine
            + b"\xde\xad\xbe\xef\xff"  # then the wheels come off
        )
        run(
            self._expect_rejection(
                bframe(payload, kind=VERBS["readv"][0])
            )
        )

    def test_zero_and_oversized_batch_counts_rejected(self):
        for count in (0, 2**31):
            run(
                self._expect_rejection(
                    bframe(struct.pack(">I", count), kind=VERBS["readv"][0])
                )
            )

    def test_binary_request_served_without_negotiation(self):
        """A fresh connection needs no handshake: its first request, a
        ``ping`` before any ``hello``, is answered in a binary frame."""

        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_message({"id": 1, "verb": "ping"}))
            await writer.drain()
            header = await asyncio.wait_for(reader.readexactly(2), 5.0)
            assert header == MAGIC
            (reply,) = FrameDecoder().feed(header + await reader.read(4096))
            assert reply["ok"] is True and reply["value"]["pong"] is True
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_first_reply_to_hello_is_binary(self):
        async def go():
            daemon, host, port = await start_daemon()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_message(request(1, "hello", name="raw")))
            await writer.drain()
            header = await asyncio.wait_for(reader.readexactly(2), 5.0)
            assert header == MAGIC
            (reply,) = FrameDecoder().feed(header + await reader.read(4096))
            assert reply["ok"] is True
            assert set(reply["value"]) == {"pid", "name", "token", "resumed"}
            writer.close()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())

    def test_magic_prefixed_blob_battery(self):
        """Sixty connections opening with MAGIC then noise: every reply is
        a typed error, never INTERNAL, and the daemon survives them all."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0xB14A)
            for _ in range(60):
                reader, writer = await asyncio.open_connection(host, port)
                blob = MAGIC + bytes(
                    rng.getrandbits(8) for _ in range(rng.randint(0, 200))
                )
                writer.write(blob)
                await writer.drain()
                writer.close()
                for reply in await read_until_eof(reader):
                    assert reply.get("ok") is False
                    assert reply.get("code") in ERROR_CODES
                    assert reply.get("code") != "INTERNAL"
            assert not daemon._kernel_task.done()
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())


class TestBinaryDecoderFuzz:
    """The codec in isolation: hostile frames raise ProtocolError, never
    anything else, and never hang."""

    HOSTILE = [
        bframe(packed_read(), version=0),
        bframe(packed_read(), flags=0x40),
        bframe(packed_read(), kind=0),  # verb id 0 is unassigned
        bframe(b"", kind=9, flags=0x01),  # reply kind 9 does not exist
        bframe(b"\x07", kind=1, flags=0x01),  # hit byte must be 0 or 1
        bframe(b"\xff" + struct.pack(">I", 1) + b"x", flags=0x01 | 0x02),  # error code index 255
        bframe(packed_read()[:-3]),  # payload shorter than the packed form
        bframe(struct.pack(">H", 500) + b"short", kind=VERBS["read"][0]),  # string overruns payload
        bframe(b"{not json", flags=0x04),  # FLAG_JSON payload that isn't
        bframe(b'"a list no"', flags=0x04),  # FLAG_JSON payload, wrong type
        jframe({"id": 1, "verb": "ping"}),  # no magic: an old JSON peer
        bframe(packed_open()[:-3], kind=VERBS["open"][0]),  # truncated open
        bframe(packed_open(path=b"\xff\xfe"), kind=VERBS["open"][0]),  # bad UTF-8 path
        bframe(packed_open() + b"x", kind=VERBS["open"][0]),  # trailing bytes
        # a size_blocks of 2**63 overflows the i64 field
        bframe(packed_open(size=struct.pack(">Q", 2**63)), kind=VERBS["open"][0]),
        bframe(packed_open()[:-2], kind=3, flags=0x01),  # truncated open reply
    ]

    def test_hostile_corpus_raises_protocol_error(self):
        for hostile in self.HOSTILE:
            with pytest.raises(ProtocolError):
                FrameDecoder().feed(hostile)

    def test_seeded_random_payload_battery_is_bounded(self):
        """Random payloads under a valid header: decode, reject or wait
        for more bytes — but always return, and never raise anything but
        ProtocolError."""
        rng = random.Random(0xFACE)
        outcomes = {"decoded": 0, "rejected": 0, "partial": 0}
        for case in range(400):
            if case % 40 == 0:  # salt the noise with well-formed frames
                hostile = encode_message(
                    {"id": case, "verb": "read", "path": "f", "blockno": case}
                )
            else:
                payload = bytes(
                    rng.getrandbits(8) for _ in range(rng.randint(0, 60))
                )
                hostile = bframe(
                    payload,
                    flags=rng.choice([0, 0x01, 0x02, 0x03, 0x04, 0x05, 0x08]),
                    kind=rng.randint(0, 20),
                    req_id=rng.randint(0, 2**40),
                    length=rng.randint(0, 80),
                )
            decoder = FrameDecoder()
            try:
                frames = decoder.feed(hostile)
            except ProtocolError:
                outcomes["rejected"] += 1
                continue
            if frames:
                outcomes["decoded"] += 1
            else:
                outcomes["partial"] += 1
                assert decoder.pending_bytes > 0
        # The battery genuinely exercised all three outcomes.
        assert all(outcomes.values()), outcomes


class TestNegotiationFuzz:
    """The hello handshake under junk: names, resumes and tokens."""

    def test_handshake_fuzz_battery(self):
        """Seeded random hellos — junk names, junk resumes, junk tokens —
        answered one for one, never INTERNAL, kernel always survives."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0x4E60)
            for _ in range(25):
                reader, writer = await asyncio.open_connection(host, port)
                nreq = rng.randint(2, 8)
                for req_id in range(1, nreq + 1):
                    msg = {"id": req_id, "verb": "hello"}
                    for field in ("name", "resume", "token"):
                        if rng.random() < 0.6:
                            msg[field] = junk_value(rng)
                    writer.write(encode_message(msg))
                await writer.drain()
                replies = await read_replies(reader, nreq)
                assert sorted(r["id"] for r in replies) == list(range(1, nreq + 1))
                for reply in replies:
                    if not reply["ok"]:
                        assert reply["code"] in ERROR_CODES
                        assert reply["code"] != "INTERNAL", reply
                writer.close()
            assert daemon.errors == []
            await assert_daemon_healthy(daemon)
            await daemon.aclose()

        run(go())


class TestMixedHostility:
    @pytest.mark.slow
    def test_long_mixed_hostility_battery(self):
        """Interleave byte noise, junk messages and honest traffic at scale."""

        async def go():
            daemon, host, port = await start_daemon()
            rng = random.Random(0xBEEF)
            for round_no in range(40):
                reader, writer = await asyncio.open_connection(host, port)
                if rng.random() < 0.4:
                    writer.write(bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 80))))
                    await writer.drain()
                    writer.close()
                    await read_until_eof(reader)
                else:
                    sent, hostile = write_junk_requests(writer, rng, rng.randint(3, 10), 4)
                    await writer.drain()
                    await read_junk_replies(reader, sent, hostile)
                    writer.close()
                if round_no % 10 == 9:
                    # Honest traffic keeps working mid-battery.
                    client = await CacheClient.connect_inproc(daemon, name="honest")
                    await client.open("steady", size_blocks=2)
                    await client.write("steady", 0, whole=True)
                    await client.aclose()
            assert daemon.errors == []
            await assert_daemon_healthy(daemon)
            summary = await daemon.aclose()
            assert summary["flushed_blocks"] >= 1

        run(go())
