"""The wire protocol: binary frames over a transport.

Every message on every connection, the first ``hello`` included, is one
binary frame: a 17-byte struct-packed header (2-byte magic
``b"\\xac\\xfc"``, 1-byte version, 1-byte flags, 1-byte verb/reply-kind,
8-byte signed request id, 4-byte payload length) followed by the payload.
Hot verbs (``read``/``write``/``readv``/``writev``) and their replies use
fixed binary payloads parsed through ``memoryview`` slices; every other
verb carries its params as a JSON payload inside the binary frame
(``FLAG_JSON``).  A message with no binary form (an unregistered verb, an
id outside i64) cannot be encoded, and a frame that does not start with
the magic cannot be decoded: both raise :class:`ProtocolError`.

Requests and responses are plain dicts on either side of the codec:

* request — ``{"id": <int>, "verb": <str>, ...params}``;
* success — ``{"id": <int>, "ok": true, "value": <any>}``;
* failure — ``{"id": <int>, "ok": false, "code": <str>, "error": <str>}``.

The verbs cover the file API (``open``/``read``/``write``/``close``, plus
the batched ``readv``/``writev`` carriers), the five paper directives
(``set_priority``, ``get_priority``, ``set_policy``, ``get_policy``,
``set_temppri``) and the service verbs (``ping``, ``hello``, ``stats``,
``metrics``, ``flush``).  Error codes are listed in :data:`ERROR_CODES`;
``BUSY`` is the 429-style backpressure reply.

Every verb is declared once, in :data:`VERBS`: its binary verb id, whether
a client may re-send it after a timeout, and the checks its params pass
at the wire boundary (:func:`validated_request`).  Every wire verb handled
anywhere in the tree must be a key there (lint rule R009), and every entry
must carry a unique literal id and a literal idempotency flag (lint rule
R012), so the cluster router, the daemon and the clients can never drift
apart silently.

This module is transport- and kernel-agnostic: it knows bytes and dicts,
nothing else (lint rule R006 keeps it that way).  The same
:class:`Transport` interface backs real sockets (:class:`StreamTransport`)
and the in-process queue pair used by tests and benchmarks
(:class:`QueueTransport`), so every path through the daemon exercises the
same frame codec.
"""

from __future__ import annotations

import asyncio
import json
import struct
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

#: refuse frames larger than this (a corrupt length field would otherwise
#: make the reader wait for gigabytes)
MAX_FRAME_BYTES = 1 << 20

#: bytes a stream transport asks the socket for per read
READ_CHUNK = 64 * 1024

#: batch carrier verbs: one frame holds N block ops, one reply N results
BATCH_VERBS = frozenset({"readv", "writev"})

#: refuse batches larger than this (bounds per-frame kernel work and the
#: weighted-queue overshoot past the global pending limit)
MAX_BATCH_OPS = 1024

#: error codes a failure reply may carry
ERROR_CODES = (
    "BAD_REQUEST",  # malformed frame, unknown verb, bad params
    "BUSY",  # global pending limit reached; retry later (429-style)
    "SHUTTING_DOWN",  # daemon is draining; no new work accepted
    "FS",  # filesystem error (unknown file, read past EOF, ...)
    "DIRECTIVE",  # an fbehavior call failed (bad operands, limits)
    "REVOKED",  # the session's cache control was revoked (fbehavior denied)
    "IO_ERROR",  # a (simulated) disk I/O failed for good after retries
    "INTERNAL",  # unexpected server-side failure
)


class ProtocolError(Exception):
    """A frame could not be encoded or decoded."""


class RequestValidationError(ProtocolError):
    """A decoded request failed wire-boundary validation."""


# -- param checks ---------------------------------------------------------


class _Missing:
    """What a param check sees for a param the request does not carry."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<missing>"


_MISSING = _Missing()

#: ``check(verb, name, value) -> value``: the normalised value of one
#: request param (``_MISSING`` when absent, and returning it keeps the
#: param absent), or :class:`RequestValidationError`
ParamCheck = Callable[[str, str, Any], Any]


def _text(verb: str, name: str, value: Any) -> str:
    """A non-empty string: a path, a bundle name, a migration token."""
    if not isinstance(value, str) or not value:
        raise RequestValidationError(f"{verb}: bad {name} {value!r}")
    return value


def _index(verb: str, name: str, value: Any) -> int:
    """A non-negative integer: a block number or a file size."""
    if isinstance(value, bool):
        raise RequestValidationError(f"{verb}: bad {name} {value!r}")
    try:
        index = int(value)
    except (TypeError, ValueError) as exc:
        raise RequestValidationError(f"{verb}: bad {name} {value!r}") from exc
    if index < 0:
        raise RequestValidationError(f"{verb}: negative {name} {index}")
    return index


def _limit(verb: str, name: str, value: Any) -> int:
    """A positive ``int``: a chunk size."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise RequestValidationError(f"{verb}: bad {name} {value!r}")
    return value


def _operand(verb: str, name: str, value: Any) -> Any:
    """A directive operand: ``fbehavior`` checks its value, so it need only
    be present."""
    if value is _MISSING:
        raise RequestValidationError(f"{verb}: missing parameter {name}")
    return value


def _optional(check: ParamCheck, null_ok: bool = False) -> ParamCheck:
    """``check`` for a param the request may leave out (or, with
    ``null_ok``, send as null)."""

    def optional(verb: str, name: str, value: Any) -> Any:
        if value is _MISSING or (null_ok and value is None):
            return value
        return check(verb, name, value)

    return optional


def _list(verb: str, name: str, value: Any, allow_empty: bool = False) -> List[Any]:
    if not isinstance(value, list) or (not value and not allow_empty):
        qualifier = "" if allow_empty else "non-empty "
        raise RequestValidationError(f"{verb}: {name} must be a {qualifier}list")
    if len(value) > MAX_BATCH_OPS:
        raise RequestValidationError(
            f"{verb}: {len(value)} {name} exceed {MAX_BATCH_OPS}"
        )
    return value


def _paths(verb: str, name: str, value: Any, allow_empty: bool = False) -> List[str]:
    """A list of paths (empty only with ``allow_empty``)."""
    return [
        _text(verb, f"{name}[{index}]", path)
        for index, path in enumerate(_list(verb, name, value, allow_empty))
    ]


class _TrustedOps(list):
    """A batch ops list decoded from the *packed* binary form.

    The packed decoder can only produce already-normalised records
    (non-empty ``str`` path, in-range ``int`` blockno, ``bool`` whole),
    so revalidating each op would just re-prove what the byte layout
    enforced.  The type is the provenance proof: ``json.loads`` can never
    produce it, so nothing a FLAG_JSON payload carries can claim the fast
    path.
    """

    __slots__ = ()


def _ops(verb: str, name: str, value: Any) -> List[Dict[str, Any]]:
    """A readv/writev batch of ``{path, blockno[, whole]}`` ops."""
    if type(value) is _TrustedOps:
        return value  # packed-decoded: the wire layout already validated it
    ops: List[Dict[str, Any]] = []
    for index, op in enumerate(_list(verb, name, value)):
        if not isinstance(op, dict):
            raise RequestValidationError(f"{verb}: op {index} is not an object")
        entry: Dict[str, Any] = {
            "path": _text(verb, f"op {index} path", op.get("path")),
            "blockno": _index(verb, f"op {index} blockno", op.get("blockno")),
        }
        if verb == "writev":
            entry["whole"] = bool(op.get("whole", True))
        ops.append(entry)
    return ops


def _records(verb: str, name: str, value: Any) -> List[Dict[str, Any]]:
    """A migrate_chunk batch of exported block records."""
    records: List[Dict[str, Any]] = []
    for index, record in enumerate(_list(verb, name, value, allow_empty=True)):
        if not isinstance(record, dict):
            raise RequestValidationError(f"{verb}: record {index} is not an object")
        entry: Dict[str, Any] = {
            "path": _text(verb, f"record {index} path", record.get("path")),
            "blockno": _index(verb, f"record {index} blockno", record.get("blockno")),
            "dirty": bool(record.get("dirty", False)),
        }
        for key, check in (("size_blocks", _index), ("disk", _text)):
            if record.get(key) is not None:
                entry[key] = check(verb, f"record {index} {key}", record[key])
        records.append(entry)
    return records


# -- the verb table -------------------------------------------------------

#: Every wire verb, declared once: ``verb -> (binary verb id, idempotent,
#: {param: check})``.  The id is the frame's verb byte.  An idempotent verb
#: is safe to re-send after a timeout, because applying it twice leaves the
#: kernel as applying it once did.  The checks run at the wire boundary
#: (:func:`validated_request`); a directive's params are in ``fbehavior``
#: operand order.  Params no check names (``open``'s ``size_blocks``/
#: ``disk``, ``write``'s ``whole``, ``metrics``'s ``format``, ...) are
#: checked by the code that consumes them.  Lint rule R009 reads the
#: declared verbs from the keys, and R012 keeps every id a unique int
#: literal and every idempotency flag a bool literal.
VERBS: Dict[str, Tuple[int, bool, Dict[str, ParamCheck]]] = {
    "hello": (1, True, {}),
    "ping": (2, True, {}),
    "open": (3, True, {"path": _text}),
    "read": (4, True, {"path": _text, "blockno": _index}),
    "write": (5, False, {"path": _text, "blockno": _index}),
    "close": (6, False, {}),
    "set_priority": (7, False, {"path": _text, "prio": _operand}),
    "get_priority": (8, True, {"path": _text}),
    "set_policy": (9, False, {"prio": _operand, "policy": _operand}),
    "get_policy": (10, True, {"prio": _operand}),
    "set_temppri": (
        11,
        False,
        {"path": _text, "start": _operand, "end": _operand, "prio": _operand},
    ),
    "stats": (12, True, {}),
    "metrics": (13, True, {}),
    "flush": (14, True, {}),
    "readv": (15, True, {"ops": _ops}),
    "writev": (16, False, {"ops": _ops}),
    # Repair converges: dropping an already-dropped block and re-fetching
    # a declared bundle are both no-ops the second time.
    "invalidate": (17, True, {"path": _text, "blockno": _optional(_index, null_ok=True)}),
    "declare_bundle": (18, True, {"bundle": _text, "paths": _paths}),
    # An empty (or absent) list is a pure manifest probe.
    "migrate_begin": (19, False, {"paths": _optional(partial(_paths, allow_empty=True))}),
    # Either an ingest (records) or a pull (token, max).
    "migrate_chunk": (
        20,
        False,
        {"records": _optional(_records), "token": _optional(_text), "max": _optional(_limit)},
    ),
    "migrate_end": (21, False, {"token": _text}),
}


def validated_request(msg: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Validate a decoded request at the wire boundary; ``(verb, fields)``.

    The protocol layer is the trust boundary: values in ``msg`` came off
    the wire and may have any shape JSON allows.  The verb must be in
    :data:`VERBS`, and every param check of its entry runs: paths must be
    non-empty strings, block numbers are coerced to non-negative ``int``,
    batch ``ops`` lists are re-normalised element by element, and so on.
    Returns only the parameter fields (never ``verb`` or the request id).
    Raises :class:`RequestValidationError` on any violation; the daemon
    maps that onto a ``BAD_REQUEST`` reply.
    """
    verb = msg.get("verb")
    entry = VERBS.get(verb) if isinstance(verb, str) else None
    if entry is None:
        raise RequestValidationError(f"unknown verb {verb!r}")
    fields: Dict[str, Any] = {
        key: value for key, value in msg.items() if key not in ("verb", "id")
    }
    for name, check in entry[2].items():
        value = check(verb, name, fields.get(name, _MISSING))
        if value is not _MISSING:
            fields[name] = value
    return verb, fields


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one ``FLAG_JSON`` payload back into a dict."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame is not an object: {obj!r}")
    return obj


# -- framing --------------------------------------------------------------

#: every frame starts with these two bytes; anything else (an old
#: length-prefixed JSON peer, garbage) is refused
MAGIC = b"\xac\xfc"
WIRE_VERSION = 1

# Header layout: magic(2) version(1) flags(1) | kind(1) request-id(8) len(4).
# Decoders check the magic in the 4-byte prefix before waiting for the rest.
_BIN_PREFIX = struct.Struct(">2sBB")
_BIN_REST = struct.Struct(">BqI")
BIN_HEADER_BYTES = _BIN_PREFIX.size + _BIN_REST.size

FLAG_REPLY = 0x01  # frame is a response, kind byte is a reply kind
FLAG_ERROR = 0x02  # response carries (code, message), not a value
FLAG_JSON = 0x04  # payload is JSON (params dict / {"value": ...})
FLAG_NO_ID = 0x08  # message id is null (the id field is ignored)
_KNOWN_FLAGS = FLAG_REPLY | FLAG_ERROR | FLAG_JSON | FLAG_NO_ID

#: reply kinds (the kind byte of a non-error, non-JSON reply frame)
_RT_JSON = 0
_RT_HIT = 1  # payload: hit(1) — the read/write fast path
_RT_BATCH = 2  # payload: count(4) then per-op ok/hit or error records

_VERB_BY_ID = {entry[0]: verb for verb, entry in VERBS.items()}

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def _bin_id(msg: Dict[str, Any]) -> Tuple[int, int]:
    """(flags, id) for the header; raises if the id is unrepresentable."""
    req_id = msg.get("id")
    if req_id is None:
        return FLAG_NO_ID, 0
    if (
        isinstance(req_id, bool)
        or not isinstance(req_id, int)
        or not -(1 << 63) <= req_id < (1 << 63)
    ):
        raise ProtocolError(f"request id {req_id!r} is not an i64")
    return 0, req_id


def _pack_op(op: Any, with_whole: bool) -> Optional[bytes]:
    """Pack one read/write op record, or None if it doesn't fit the shape."""
    if not isinstance(op, dict):
        return None
    expected = {"path", "blockno", "whole"} if with_whole else {"path", "blockno"}
    if set(op) != expected:
        return None
    path, blockno = op["path"], op["blockno"]
    if not isinstance(path, str):
        return None
    raw = path.encode("utf-8")
    if len(raw) > 0xFFFF:
        return None
    if isinstance(blockno, bool) or not isinstance(blockno, int):
        return None
    if not 0 <= blockno < (1 << 64):
        return None
    record = _U16.pack(len(raw)) + raw + _U64.pack(blockno)
    if with_whole:
        if not isinstance(op["whole"], bool):
            return None
        record += b"\x01" if op["whole"] else b"\x00"
    return record


def _pack_batch(ops: Any, with_whole: bool) -> Optional[bytes]:
    # The encode hot loop: _pack_op's checks inlined over hoisted locals,
    # since a big batch pays this path per op.
    if not isinstance(ops, list) or not ops or len(ops) > MAX_BATCH_OPS:
        return None
    parts = [_U32.pack(len(ops))]
    append = parts.append
    pack_u16, pack_u64 = _U16.pack, _U64.pack
    expected_len = 3 if with_whole else 2
    for op in ops:
        if not isinstance(op, dict) or len(op) != expected_len:
            return None
        try:
            path, blockno = op["path"], op["blockno"]
        except KeyError:
            return None
        if not isinstance(path, str):
            return None
        raw = path.encode("utf-8")
        if len(raw) > 0xFFFF:
            return None
        if isinstance(blockno, bool) or not isinstance(blockno, int):
            return None
        if not 0 <= blockno < (1 << 64):
            return None
        append(pack_u16(len(raw)))
        append(raw)
        append(pack_u64(blockno))
        if with_whole:
            try:
                whole = op["whole"]
            except KeyError:
                return None
            if not isinstance(whole, bool):
                return None
            append(b"\x01" if whole else b"\x00")
    return b"".join(parts)


def _frame(flags: int, kind: int, req_id: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return (
        _BIN_PREFIX.pack(MAGIC, WIRE_VERSION, flags)
        + _BIN_REST.pack(kind, req_id, len(payload))
        + payload
    )


def _json_payload(obj: Dict[str, Any]) -> bytes:
    try:
        return json.dumps(obj, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message {obj!r}: {exc}") from exc


def _encode_binary_request(msg: Dict[str, Any]) -> bytes:
    verb = msg.get("verb")
    entry = VERBS.get(verb) if isinstance(verb, str) else None
    if entry is None:
        raise ProtocolError(f"verb {verb!r} has no binary verb id")
    flags, req_id = _bin_id(msg)
    params = {key for key in msg if key not in ("id", "verb")}
    payload: Optional[bytes] = None
    if verb == "read" and params == {"path", "blockno"}:
        payload = _pack_op({"path": msg["path"], "blockno": msg["blockno"]}, False)
    elif verb == "write" and params == {"path", "blockno", "whole"}:
        payload = _pack_op(
            {"path": msg["path"], "blockno": msg["blockno"], "whole": msg["whole"]},
            True,
        )
    elif verb in BATCH_VERBS and params == {"ops"}:
        payload = _pack_batch(msg["ops"], verb == "writev")
    if payload is None:
        payload = _json_payload({key: msg[key] for key in params})
        flags |= FLAG_JSON
    return _frame(flags, entry[0], req_id, payload)


def _pack_reply_value(value: Any) -> Optional[Tuple[int, bytes]]:
    """(reply kind, payload) for a recognised value shape, else None."""
    if not isinstance(value, dict):
        return None
    if set(value) == {"hit"} and isinstance(value["hit"], bool):
        return _RT_HIT, (b"\x01" if value["hit"] else b"\x00")
    if set(value) == {"results"} and isinstance(value["results"], list):
        results = value["results"]
        if not results or len(results) > MAX_BATCH_OPS:
            return None
        parts = [_U32.pack(len(results))]
        append = parts.append
        for result in results:
            if not isinstance(result, dict):
                return None
            if len(result) == 1:
                hit = result.get("hit")
                if not isinstance(hit, bool):
                    return None
                append(b"\x00\x01" if hit else b"\x00\x00")
            elif (
                len(result) == 2
                and result.get("code") in ERROR_CODES
                and isinstance(result.get("error"), str)
            ):
                raw = result["error"].encode("utf-8")
                append(
                    b"\x01"
                    + bytes([ERROR_CODES.index(result["code"])])
                    + _U32.pack(len(raw))
                    + raw
                )
            else:
                return None
        return _RT_BATCH, b"".join(parts)
    return None


def _encode_binary_reply(msg: Dict[str, Any]) -> bytes:
    flags, req_id = _bin_id(msg)
    flags |= FLAG_REPLY
    if msg.get("ok") is True and set(msg) == {"id", "ok", "value"}:
        packed = _pack_reply_value(msg["value"])
        if packed is not None:
            kind, payload = packed
            return _frame(flags, kind, req_id, payload)
        payload = _json_payload({"value": msg["value"]})
        return _frame(flags | FLAG_JSON, _RT_JSON, req_id, payload)
    if (
        msg.get("ok") is False
        and set(msg) == {"id", "ok", "code", "error"}
        and msg["code"] in ERROR_CODES
        and isinstance(msg["error"], str)
    ):
        raw = msg["error"].encode("utf-8")
        payload = bytes([ERROR_CODES.index(msg["code"])]) + _U32.pack(len(raw)) + raw
        return _frame(flags | FLAG_ERROR, _RT_JSON, req_id, payload)
    raise ProtocolError(f"malformed reply {msg!r}")


def encode_message(msg: Dict[str, Any]) -> bytes:
    """Serialise one message as a binary frame.

    Raises :class:`ProtocolError` for a message with no binary form: an
    unregistered verb, an id that is not an i64, a malformed reply or a
    value JSON cannot carry.
    """
    if "ok" in msg:
        return _encode_binary_reply(msg)
    return _encode_binary_request(msg)


class _PayloadReader:
    """Bounds-checked cursor over a binary payload ``memoryview``."""

    __slots__ = ("_view", "_pos")

    def __init__(self, view: memoryview) -> None:
        self._view = view
        self._pos = 0

    def take(self, count: int) -> memoryview:
        end = self._pos + count
        if end > len(self._view):
            raise ProtocolError(
                f"truncated binary payload: wanted {count} bytes at {self._pos}, "
                f"have {len(self._view)}"
            )
        chunk = self._view[self._pos:end]
        self._pos = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def flag(self) -> bool:
        value = self.u8()
        if value > 1:
            raise ProtocolError(f"bad boolean byte {value:#x} in binary payload")
        return bool(value)

    def string(self, length: int) -> str:
        try:
            return str(self.take(length), "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad UTF-8 in binary payload: {exc}") from exc

    def done(self) -> None:
        if self._pos != len(self._view):
            raise ProtocolError(
                f"{len(self._view) - self._pos} trailing bytes after binary payload"
            )


def _decode_batch_ops(verb: str, payload: memoryview) -> List[Dict[str, Any]]:
    """Decode a packed readv/writev ops payload.

    This is the wire hot loop — a 1000-op batch runs it 1000 times — so
    it works straight off the memoryview with ``unpack_from`` instead of
    the bounds-checked :class:`_PayloadReader` cursor.  Every structural
    violation still raises :class:`ProtocolError`; the one *semantic*
    check the layout cannot express (a non-empty path) demotes the list
    to untrusted so the ``ops`` check rejects it with the same
    per-request error a ``FLAG_JSON`` payload would get.
    """
    size = len(payload)
    if size < 4:
        raise ProtocolError(f"truncated {verb} frame: no batch count")
    (count,) = _U32.unpack_from(payload, 0)
    if not 1 <= count <= MAX_BATCH_OPS:
        raise ProtocolError(f"bad batch count {count} in {verb} frame")
    with_whole = verb == "writev"
    tail = 9 if with_whole else 8  # blockno u64 (+ whole byte)
    ops: List[Dict[str, Any]] = []
    append = ops.append
    u16_at, u64_at = _U16.unpack_from, _U64.unpack_from
    pos = 4
    trusted = True
    for _ in range(count):
        if pos + 2 > size:
            raise ProtocolError(f"truncated op record in {verb} frame")
        (path_len,) = u16_at(payload, pos)
        pos += 2
        end = pos + path_len
        if end + tail > size:
            raise ProtocolError(f"truncated op record in {verb} frame")
        if path_len == 0:
            trusted = False  # empty path: a request error, not a frame error
        try:
            path = str(payload[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad UTF-8 in binary payload: {exc}") from exc
        (blockno,) = u64_at(payload, end)
        pos = end + 8
        if with_whole:
            whole = payload[pos]
            pos += 1
            if whole > 1:
                raise ProtocolError(
                    f"bad boolean byte {whole:#x} in binary payload"
                )
            append({"path": path, "blockno": blockno, "whole": whole == 1})
        else:
            append({"path": path, "blockno": blockno})
    if pos != size:
        raise ProtocolError(
            f"{size - pos} trailing bytes after binary payload"
        )
    return _TrustedOps(ops) if trusted else ops


def _decode_binary_request(
    flags: int, verb_id: int, req_id: Optional[int], payload: memoryview
) -> Dict[str, Any]:
    verb = _VERB_BY_ID.get(verb_id)
    if verb is None:
        raise ProtocolError(f"unknown binary verb id {verb_id}")
    msg: Dict[str, Any] = {"id": req_id, "verb": verb}
    if flags & FLAG_JSON:
        params = decode_payload(bytes(payload))
        for key, value in params.items():
            if key not in ("id", "verb"):  # never let params forge the envelope
                msg[key] = value
        return msg
    reader = _PayloadReader(payload)
    if verb == "read":
        msg["path"] = reader.string(reader.u16())
        msg["blockno"] = reader.u64()
    elif verb == "write":
        msg["path"] = reader.string(reader.u16())
        msg["blockno"] = reader.u64()
        msg["whole"] = reader.flag()
    elif verb in BATCH_VERBS:
        msg["ops"] = _decode_batch_ops(verb, payload)
        return msg
    else:
        raise ProtocolError(f"verb {verb!r} has no packed payload form")
    reader.done()
    return msg


def _decode_binary_reply(
    flags: int, kind: int, req_id: Optional[int], payload: memoryview
) -> Dict[str, Any]:
    if flags & FLAG_ERROR:
        reader = _PayloadReader(payload)
        code_index = reader.u8()
        if code_index >= len(ERROR_CODES):
            raise ProtocolError(f"unknown binary error code index {code_index}")
        error = reader.string(reader.u32())
        reader.done()
        return error_response(req_id, ERROR_CODES[code_index], error)
    if flags & FLAG_JSON:
        obj = decode_payload(bytes(payload))
        return ok_response(req_id, obj.get("value"))
    if kind == _RT_HIT:
        reader = _PayloadReader(payload)
        hit = reader.flag()
        reader.done()
        return ok_response(req_id, {"hit": hit})
    if kind == _RT_BATCH:
        # Reply hot loop: cursor arithmetic straight off the memoryview,
        # mirroring _decode_batch_ops on the request side.
        size = len(payload)
        if size < 4:
            raise ProtocolError("truncated batch reply: no result count")
        (count,) = _U32.unpack_from(payload, 0)
        if not 1 <= count <= MAX_BATCH_OPS:
            raise ProtocolError(f"bad batch count {count} in reply frame")
        results: List[Dict[str, Any]] = []
        append = results.append
        pos = 4
        for _ in range(count):
            if pos >= size:
                raise ProtocolError("truncated record in batch reply")
            errflag = payload[pos]
            pos += 1
            if errflag == 0:
                if pos >= size:
                    raise ProtocolError("truncated record in batch reply")
                hit = payload[pos]
                pos += 1
                if hit > 1:
                    raise ProtocolError(
                        f"bad boolean byte {hit:#x} in binary payload"
                    )
                append({"hit": hit == 1})
            elif errflag == 1:
                if pos + 5 > size:
                    raise ProtocolError("truncated record in batch reply")
                code_index = payload[pos]
                if code_index >= len(ERROR_CODES):
                    raise ProtocolError(
                        f"unknown binary error code index {code_index}"
                    )
                (msg_len,) = _U32.unpack_from(payload, pos + 1)
                pos += 5
                end = pos + msg_len
                if end > size:
                    raise ProtocolError("truncated record in batch reply")
                try:
                    error = str(payload[pos:end], "utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"bad UTF-8 in binary payload: {exc}"
                    ) from exc
                pos = end
                append({"code": ERROR_CODES[code_index], "error": error})
            else:
                raise ProtocolError(
                    f"bad boolean byte {errflag:#x} in binary payload"
                )
        if pos != size:
            raise ProtocolError(
                f"{size - pos} trailing bytes after binary payload"
            )
        return ok_response(req_id, {"results": results})
    raise ProtocolError(f"unknown binary reply kind {kind}")


def decode_binary_frame(
    version: int, flags: int, kind: int, req_id: int, payload: memoryview
) -> Dict[str, Any]:
    """Decode a binary frame body given its already-unpacked header."""
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported binary wire version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"unknown binary flags {flags:#04x}")
    rid = None if flags & FLAG_NO_ID else req_id
    if flags & FLAG_REPLY:
        return _decode_binary_reply(flags, kind, rid, payload)
    return _decode_binary_request(flags, kind, rid, payload)


class FrameDecoder:
    """Incremental frame decoder (transport-agnostic, synchronous).

    :meth:`append` absorbs byte chunks as they arrive; :meth:`next`
    decodes one frame at a time, so a bad frame raises only once every
    good frame ahead of it has been returned.  Consumed bytes are dropped
    once per chunk, not once per frame.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pos = 0

    def append(self, data: bytes) -> None:
        """Absorb one chunk of the byte stream."""
        if self._pos:
            del self._buffer[: self._pos]
            self._pos = 0
        self._buffer += data

    def next(self) -> Optional[Dict[str, Any]]:
        """The next complete message, or None until more bytes arrive."""
        buf, pos = self._buffer, self._pos
        if len(buf) - pos < _BIN_PREFIX.size:
            return None
        magic, version, flags = _BIN_PREFIX.unpack_from(buf, pos)
        if magic != MAGIC:
            raise ProtocolError(f"frame does not start with the wire magic: {magic!r}")
        if len(buf) - pos < BIN_HEADER_BYTES:
            return None
        kind, req_id, length = _BIN_REST.unpack_from(buf, pos + _BIN_PREFIX.size)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        start = pos + BIN_HEADER_BYTES
        end = start + length
        if len(buf) < end:
            return None
        payload = memoryview(buf[start:end])
        self._pos = end
        return decode_binary_frame(version, flags, kind, req_id, payload)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every message completed by it."""
        self.append(data)
        return list(iter(self.next, None))

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer) - self._pos


# -- message constructors -------------------------------------------------


def request(req_id: int, verb: str, **params: Any) -> Dict[str, Any]:
    msg = {"id": req_id, "verb": verb}
    msg.update(params)
    return msg


def ok_response(req_id: Optional[int], value: Any = None) -> Dict[str, Any]:
    return {"id": req_id, "ok": True, "value": value}


def error_response(req_id: Optional[int], code: str, message: str) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    return {"id": req_id, "ok": False, "code": code, "error": message}


def request_id_of(msg: Any) -> Optional[int]:
    """The request id of a (possibly malformed) message, if it has one."""
    if isinstance(msg, dict):
        req_id = msg.get("id")
        if isinstance(req_id, int):
            return req_id
    return None


# -- transports -----------------------------------------------------------


class Transport:
    """One bidirectional message channel (either end of a connection)."""

    async def recv(self) -> Optional[Dict[str, Any]]:
        """The next message, or None once the peer is gone."""
        raise NotImplementedError

    async def send(self, msg: Dict[str, Any]) -> None:
        """Deliver one message (no-op after close)."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the channel down; pending ``recv`` calls return None."""
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError


class StreamTransport(Transport):
    """A transport over an asyncio stream pair (TCP or Unix socket).

    Each read takes up to :data:`READ_CHUNK` bytes, handed out one frame
    per :meth:`recv`.  Frames sent in one loop tick leave in one ``write``;
    ``drain`` still applies backpressure and :meth:`close` flushes first.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._out: List[bytes] = []
        self._closed = False

    async def recv(self) -> Optional[Dict[str, Any]]:
        msg = self._decoder.next()
        while msg is None:
            try:
                chunk = await self._reader.read(READ_CHUNK)
            except (ConnectionError, OSError):
                return None
            if not chunk:
                return None
            self._decoder.append(chunk)
            msg = self._decoder.next()
        return msg

    async def send(self, msg: Dict[str, Any]) -> None:
        if self._closed:
            return
        # Encode first: an unencodable message raises with nothing queued.
        self._out.append(encode_message(msg))
        if len(self._out) == 1:
            asyncio.get_running_loop().call_soon(self._flush)
        try:
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._closed = True

    def _flush(self) -> None:
        """Write every frame queued this tick in one ``write``."""
        if not self._out or self._closed:
            return
        data = b"".join(self._out)
        self._out.clear()
        try:
            self._writer.write(data)
        except (ConnectionError, OSError):
            self._closed = True

    def close(self) -> None:
        if self._closed:
            return
        self._flush()
        self._closed = True
        try:
            self._writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass

    @property
    def closed(self) -> bool:
        return self._closed


class QueueTransport(Transport):
    """An in-process transport: encoded frames through two asyncio queues.

    Frames travel as bytes, so the loopback path exercises exactly the
    same codec as a socket; only the kernel-bypassing copy differs.
    """

    _EOF = b""

    def __init__(self, inbox: "asyncio.Queue[bytes]", outbox: "asyncio.Queue[bytes]") -> None:
        self._inbox = inbox
        self._outbox = outbox
        self._decoder = FrameDecoder()
        self._closed = False
        self._eof = False

    async def recv(self) -> Optional[Dict[str, Any]]:
        msg = self._decoder.next()
        while msg is None:
            if self._eof or self._closed:
                return None
            chunk = await self._inbox.get()
            if chunk == self._EOF:
                self._eof = True
                return None
            self._decoder.append(chunk)
            msg = self._decoder.next()
        return msg

    async def send(self, msg: Dict[str, Any]) -> None:
        if self._closed:
            return
        await self._outbox.put(encode_message(msg))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Wake both ends: our reader and the peer's.
        self._inbox.put_nowait(self._EOF)
        self._outbox.put_nowait(self._EOF)

    @property
    def closed(self) -> bool:
        return self._closed


def queue_pair() -> Tuple[QueueTransport, QueueTransport]:
    """A connected (server_side, client_side) in-process transport pair."""
    a: "asyncio.Queue[bytes]" = asyncio.Queue()
    b: "asyncio.Queue[bytes]" = asyncio.Queue()
    return QueueTransport(inbox=a, outbox=b), QueueTransport(inbox=b, outbox=a)
