"""Frame I/O of the transports, over a real loopback TCP connection.

:class:`~repro.server.protocol.StreamTransport` writes every frame queued
in one loop tick with a single ``write`` and reads the socket in chunks
that :class:`~repro.server.protocol.FrameDecoder` hands out one frame at
a time.  These tests pin both halves: the write count, delivery across
``close``, a bad frame behind good ones, EOF inside a frame, a message
that cannot be encoded, and a chunk packed with small frames.
"""

import asyncio

import pytest

from repro.server.protocol import (
    READ_CHUNK,
    FrameDecoder,
    ProtocolError,
    StreamTransport,
    encode_message,
    queue_pair,
    request,
)


def run(coro):
    return asyncio.run(coro)


async def stream_pair():
    """Both ends of one loopback TCP connection as raw stream pairs."""
    accepted = asyncio.get_running_loop().create_future()
    server = await asyncio.start_server(
        lambda r, w: accepted.set_result((r, w)), "127.0.0.1", 0
    )
    host, port = server.sockets[0].getsockname()[:2]
    near = await asyncio.open_connection(host, port)
    far = await accepted
    server.close()
    return near, far


async def transport_pair():
    near, far = await stream_pair()
    return StreamTransport(*near), StreamTransport(*far)


def count_writes(transport):
    """Count the socket writes ``transport`` makes from here on."""
    writes = []
    writer = transport._writer
    real_write = writer.write

    def write(data):
        writes.append(len(data))
        real_write(data)

    writer.write = write
    return writes


def reads(n):
    return [request(i, "read", path="a", blockno=i) for i in range(n)]


class TestCoalescedWrites:
    def test_frames_sent_in_one_tick_share_one_write(self):
        async def go():
            sender, receiver = await transport_pair()
            writes = count_writes(sender)
            msgs = reads(50)
            for msg in msgs:  # no yield between sends: one tick
                await sender.send(msg)
            assert writes == []  # the write happens once the tick ends
            got = [await receiver.recv() for _ in msgs]
            assert got == msgs
            assert writes == [sum(len(encode_message(m)) for m in msgs)]
            sender.close()
            receiver.close()

        run(go())

    def test_concurrent_senders_woken_together_share_one_write(self):
        async def go():
            sender, receiver = await transport_pair()
            writes = count_writes(sender)
            msgs = reads(16)
            await asyncio.gather(*(sender.send(m) for m in msgs))
            got = [await receiver.recv() for _ in msgs]
            assert sorted(m["id"] for m in got) == [m["id"] for m in msgs]
            assert len(writes) == 1
            sender.close()
            receiver.close()

        run(go())

    def test_close_right_after_send_delivers_the_queued_frames(self):
        async def go():
            sender, receiver = await transport_pair()
            msgs = reads(3)
            for msg in msgs:
                await sender.send(msg)
            sender.close()
            assert [await receiver.recv() for _ in msgs] == msgs
            assert await receiver.recv() is None
            receiver.close()

        run(go())

    def test_unencodable_message_raises_before_anything_is_queued(self):
        async def go():
            sender, receiver = await transport_pair()
            writes = count_writes(sender)
            with pytest.raises(ProtocolError):
                await sender.send({"id": 1, "ok": True, "value": object()})
            assert sender._out == [] and not sender.closed
            good = request(2, "ping")
            await sender.send(good)
            assert await receiver.recv() == good
            assert len(writes) == 1
            sender.close()
            receiver.close()

        run(go())


class TestBufferedReads:
    def test_good_frame_then_garbage_returns_the_good_frame_first(self):
        async def go():
            (_, raw), (reader, writer) = await stream_pair()
            receiver = StreamTransport(reader, writer)
            good = request(1, "read", path="a", blockno=0)
            raw.write(encode_message(good) + b"garbage, not a frame")
            assert await receiver.recv() == good
            with pytest.raises(ProtocolError):
                await receiver.recv()
            raw.close()
            receiver.close()

        run(go())

    def test_eof_mid_frame_returns_none(self):
        async def go():
            (_, raw), (reader, writer) = await stream_pair()
            receiver = StreamTransport(reader, writer)
            good = request(1, "read", path="a", blockno=0)
            raw.write(encode_message(good) + encode_message(good)[:-3])
            raw.close()
            assert await receiver.recv() == good
            assert await receiver.recv() is None
            receiver.close()

        run(go())

    def test_one_chunk_of_small_frames_decodes_every_frame(self):
        # 32-byte read frames: one 64 KiB chunk holds 2,048 of them.
        frames = [
            encode_message(request(i, "read", path="abcde", blockno=i))
            for i in range(READ_CHUNK // 32)
        ]
        chunk = b"".join(frames)
        assert len(chunk) == READ_CHUNK
        decoder = FrameDecoder()
        messages = decoder.feed(chunk)
        assert [m["id"] for m in messages] == list(range(len(frames)))
        assert decoder.pending_bytes == 0

    def test_stream_receive_hands_out_one_frame_per_call(self):
        async def go():
            sender, receiver = await transport_pair()
            msgs = reads(2_000)
            for msg in msgs:
                await sender.send(msg)
            assert [await receiver.recv() for _ in msgs] == msgs
            assert receiver._decoder.pending_bytes == 0
            sender.close()
            receiver.close()

        run(go())

    def test_queue_transport_bad_frame_keeps_the_good_ones_ahead(self):
        async def go():
            server_side, client_side = queue_pair()
            good = request(1, "ping")
            client_side._outbox.put_nowait(
                encode_message(good) + encode_message(good) + b"no magic here"
            )
            assert await server_side.recv() == good
            assert await server_side.recv() == good
            with pytest.raises(ProtocolError):
                await server_side.recv()

        run(go())
