"""The wire protocol: binary frames over a transport.

Every message on every connection, the first ``hello`` included, is one
binary frame: a 17-byte struct-packed header (2-byte magic
``b"\\xac\\xfc"``, 1-byte version, 1-byte flags, 1-byte verb/reply-kind,
8-byte signed request id, 4-byte payload length) followed by the payload.
The file API (``open``/``read``/``write``/``readv``/``writev``) and its
replies use packed binary payloads, packed in one pass and parsed with
``unpack_from``; every other verb, and any param shape a packed layout
cannot carry, travels as a JSON payload inside the binary frame
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


def _ops(verb: str, name: str, value: Any) -> List[Dict[str, Any]]:
    """A readv/writev batch of ``{path, blockno[, whole]}`` ops."""
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


class _Packed(dict):
    """A request whose packed byte layout proved every param check of its
    verb.  The type is the provenance proof: ``json.loads`` never builds
    one, so nothing a FLAG_JSON payload carries can skip the checks."""

    __slots__ = ()


def validated_request(msg: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Validate a decoded request at the wire boundary; ``(verb, fields)``.

    The protocol layer is the trust boundary: values in ``msg`` came off
    the wire and may have any shape JSON allows.  The verb must be in
    :data:`VERBS`, and every param check of its entry runs: paths must be
    non-empty strings, block numbers are coerced to non-negative ``int``,
    batch ``ops`` lists are re-normalised element by element, and so on.
    Returns the parameter fields: a fresh dict without ``verb`` and the
    request id, or, for a request the packed layout already proved, the
    request itself (handlers read params by name, never the envelope).
    Raises :class:`RequestValidationError` on any violation; the daemon
    maps that onto a ``BAD_REQUEST`` reply.
    """
    if type(msg) is _Packed:
        return msg["verb"], msg
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

# Header layout: magic(2) version(1) flags(1) kind(1) request-id(8) len(4).
# Decoders check the magic as soon as it is in, before waiting for the rest.
_HEADER = struct.Struct(">2sBBBqI")
BIN_HEADER_BYTES = _HEADER.size

FLAG_REPLY = 0x01  # frame is a response, kind byte is a reply kind
FLAG_ERROR = 0x02  # response carries (code, message), not a value
FLAG_JSON = 0x04  # payload is JSON (params dict / {"value": ...})
FLAG_NO_ID = 0x08  # message id is null (the id field is ignored)
_KNOWN_FLAGS = FLAG_REPLY | FLAG_ERROR | FLAG_JSON | FLAG_NO_ID

#: reply kinds (the kind byte of a non-error, non-JSON reply frame)
_RT_JSON = 0
_RT_HIT = 1  # payload: hit(1) — the read/write fast path
_RT_BATCH = 2  # payload: count(4) then per-op ok/hit or error records
_RT_OPEN = 3  # payload: path(str) nblocks(8) disk(str) — the open reply

_VERB_BY_ID = {entry[0]: verb for verb, entry in VERBS.items()}

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_U64_END = 1 << 64
_I64_END = 1 << 63


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


def _pack_str(text: Any) -> Optional[bytes]:
    """``text`` as a packed string (u16 length, UTF-8), or None if it has
    no such form."""
    if not isinstance(text, str):
        return None
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: only JSON can carry it
        return None
    if len(raw) > 0xFFFF:
        return None
    return _U16.pack(len(raw)) + raw


# Request packers: ``pack(msg, nparams) -> payload`` straight off the
# request dict, or None when the params are not exactly the packed shape
# (the message then travels as FLAG_JSON).


def _pack_op(with_whole: bool, msg: Dict[str, Any], nparams: int) -> Optional[bytes]:
    """``path(str) blockno(8)``, then ``whole(1)`` for a write."""
    blockno, whole = msg.get("blockno"), msg.get("whole") if with_whole else False
    if (
        nparams != 2 + with_whole
        or type(blockno) is not int
        or not 0 <= blockno < _U64_END
        or type(whole) is not bool
    ):
        return None
    head = _pack_str(msg.get("path"))
    if head is None:
        return None
    return head + _U64.pack(blockno) + (b"\x01" if whole else b"\x00")[:with_whole]


def _pack_open(msg: Dict[str, Any], nparams: int) -> Optional[bytes]:
    """``path(str) size_blocks(i64, -1 = absent) disk(str, empty = absent)``."""
    size, disk = msg.get("size_blocks"), msg.get("disk")
    # An explicit null param is a shape of its own: only JSON carries it.
    if nparams != 1 + (size is not None) + (disk is not None):
        return None
    if size is None:
        size = -1
    elif type(size) is not int or not 0 <= size < _I64_END:
        return None
    if disk is None:
        disk = ""
    elif disk == "":
        return None
    head, tail = _pack_str(msg.get("path")), _pack_str(disk)
    if head is None or tail is None:
        return None
    return head + _I64.pack(size) + tail


def _pack_batch(with_whole: bool, msg: Dict[str, Any], nparams: int) -> Optional[bytes]:
    """``count(4)``, then each op packed as a single read/write is."""
    ops = msg.get("ops")
    if nparams != 1 or not isinstance(ops, list) or not ops or len(ops) > MAX_BATCH_OPS:
        return None
    parts = [_U32.pack(len(ops))]
    for op in ops:
        record = _pack_op(with_whole, op, len(op)) if isinstance(op, dict) else None
        if record is None:
            return None
        parts.append(record)
    return b"".join(parts)


_PACKERS: Dict[str, Callable[[Dict[str, Any], int], Optional[bytes]]] = {
    "open": _pack_open,
    "read": partial(_pack_op, False),
    "write": partial(_pack_op, True),
    "readv": partial(_pack_batch, False),
    "writev": partial(_pack_batch, True),
}


def _frame(flags: int, kind: int, req_id: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(MAGIC, WIRE_VERSION, flags, kind, req_id, len(payload)) + payload


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
    packer = _PACKERS.get(verb)
    payload = None
    if packer is not None:
        payload = packer(msg, len(msg) - 1 - ("id" in msg))
    if payload is None:
        payload = _json_payload(
            {key: value for key, value in msg.items() if key not in ("id", "verb")}
        )
        flags |= FLAG_JSON
    return _frame(flags, entry[0], req_id, payload)


def _pack_error(code: str, error: str) -> bytes:
    """An error record: ``code index(1) message(u32 length, UTF-8)``."""
    raw = error.encode("utf-8", "backslashreplace")  # a lone surrogate must not raise
    return bytes([ERROR_CODES.index(code)]) + _U32.pack(len(raw)) + raw


def _pack_results(results: Any) -> Optional[bytes]:
    """``count(4)``, then per op ``0 hit(1)`` or ``1`` and an error record."""
    if not isinstance(results, list) or not results or len(results) > MAX_BATCH_OPS:
        return None
    parts = [_U32.pack(len(results))]
    for result in results:
        if not isinstance(result, dict):
            return None
        hit, code, error = result.get("hit"), result.get("code"), result.get("error")
        if len(result) == 1 and isinstance(hit, bool):
            parts.append(b"\x00\x01" if hit else b"\x00\x00")
        elif len(result) == 2 and code in ERROR_CODES and isinstance(error, str):
            parts.append(b"\x01" + _pack_error(code, error))
        else:
            return None
    return b"".join(parts)


def _pack_reply_value(value: Any) -> Optional[Tuple[int, bytes]]:
    """(reply kind, payload) for a recognised value shape, else None."""
    if not isinstance(value, dict):
        return None
    if len(value) == 1:
        hit = value.get("hit")
        if hit is True:
            return _RT_HIT, b"\x01"
        if hit is False:
            return _RT_HIT, b"\x00"
        results = _pack_results(value.get("results"))
        return None if results is None else (_RT_BATCH, results)
    if len(value) == 3:  # the open reply: {path, nblocks, disk}
        nblocks = value.get("nblocks")
        if type(nblocks) is not int or not 0 <= nblocks < _U64_END:
            return None
        head, tail = _pack_str(value.get("path")), _pack_str(value.get("disk"))
        if head is None or tail is None:
            return None
        return _RT_OPEN, head + _U64.pack(nblocks) + tail
    return None


def _encode_binary_reply(msg: Dict[str, Any]) -> bytes:
    flags, req_id = _bin_id(msg)
    flags |= FLAG_REPLY
    ok = msg["ok"]
    if ok is True and len(msg) == 3 and "id" in msg and "value" in msg:
        packed = _pack_reply_value(msg["value"])
        if packed is not None:
            kind, payload = packed
            return _frame(flags, kind, req_id, payload)
        payload = _json_payload({"value": msg["value"]})
        return _frame(flags | FLAG_JSON, _RT_JSON, req_id, payload)
    code, error = msg.get("code"), msg.get("error")
    if (
        ok is False
        and len(msg) == 4
        and "id" in msg
        and code in ERROR_CODES
        and isinstance(error, str)
    ):
        return _frame(flags | FLAG_ERROR, _RT_JSON, req_id, _pack_error(code, error))
    raise ProtocolError(f"malformed reply {msg!r}")


def encode_message(msg: Dict[str, Any]) -> bytes:
    """Serialise one message as a binary frame.

    Raises :class:`ProtocolError` for a message with no binary form: an
    unregistered verb, an id that is not an i64, a malformed reply, a
    value JSON cannot carry or a frame over :data:`MAX_FRAME_BYTES`.
    """
    if "ok" in msg:
        return _encode_binary_reply(msg)
    return _encode_binary_request(msg)


# Decoders work straight off the payload with ``unpack_from``; every
# structural violation raises :class:`ProtocolError`.


def _unpack_str(payload: bytes, pos: int) -> Tuple[str, int]:
    """The packed string at ``pos`` and the offset just past it."""
    start = pos + 2
    if start > len(payload):
        raise ProtocolError(f"truncated binary payload: no string length at {pos}")
    end = start + _U16.unpack_from(payload, pos)[0]
    if end > len(payload):
        raise ProtocolError(
            f"truncated binary payload: string ends at {end}, have {len(payload)}"
        )
    try:
        return str(payload[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad UTF-8 in binary payload: {exc}") from exc


def _expect_end(payload: bytes, end: int) -> None:
    """Refuse a payload that is not exactly ``end`` bytes long (truncated,
    or with trailing bytes)."""
    if len(payload) != end:
        raise ProtocolError(f"binary payload of {len(payload)} bytes, expected {end}")


def _unpack_error(payload: bytes, pos: int) -> Tuple[str, str, int]:
    """The error record at ``pos``: ``(code, message, offset past it)``."""
    start = pos + 5
    if start > len(payload):
        raise ProtocolError(f"truncated error record at {pos}")
    code_index = payload[pos]
    if code_index >= len(ERROR_CODES):
        raise ProtocolError(f"unknown binary error code index {code_index}")
    end = start + _U32.unpack_from(payload, pos + 1)[0]
    if end > len(payload):
        raise ProtocolError(f"truncated error record at {pos}")
    try:
        return ERROR_CODES[code_index], str(payload[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad UTF-8 in binary payload: {exc}") from exc


def _bool_at(payload: bytes, pos: int) -> bool:
    value = payload[pos]
    if value > 1:
        raise ProtocolError(f"bad boolean byte {value:#x} in binary payload")
    return value == 1


# Request unpackers: ``unpack(req_id, payload) -> request``.  The layout
# proves every param check except a non-empty path; a request with an
# empty one stays a plain dict, so the ``path`` check rejects it with the
# same per-request error a FLAG_JSON payload would get.


def _unpack_op(verb: str, req_id: Optional[int], payload: bytes) -> Dict[str, Any]:
    path, end = _unpack_str(payload, 0)
    with_whole = verb == "write"
    _expect_end(payload, end + 8 + with_whole)
    msg = (_Packed if path else dict)(
        id=req_id, verb=verb, path=path, blockno=_U64.unpack_from(payload, end)[0]
    )
    if with_whole:
        msg["whole"] = _bool_at(payload, end + 8)
    return msg


def _unpack_open(req_id: Optional[int], payload: bytes) -> Dict[str, Any]:
    path, end = _unpack_str(payload, 0)
    disk, after = _unpack_str(payload, end + 8)
    _expect_end(payload, after)
    (size_blocks,) = _I64.unpack_from(payload, end)
    if size_blocks < -1:
        raise ProtocolError(f"bad size_blocks {size_blocks} in open frame")
    msg = (_Packed if path else dict)(id=req_id, verb="open", path=path)
    if size_blocks >= 0:
        msg["size_blocks"] = size_blocks
    if disk:
        msg["disk"] = disk
    return msg


def _unpack_batch(verb: str, req_id: Optional[int], payload: bytes) -> Dict[str, Any]:
    """``count(4)``, then each op laid out as a single read/write is."""
    if len(payload) < 4:
        raise ProtocolError(f"truncated {verb} frame: no batch count")
    (count,) = _U32.unpack_from(payload, 0)
    if not 1 <= count <= MAX_BATCH_OPS:
        raise ProtocolError(f"bad batch count {count} in {verb} frame")
    with_whole = verb == "writev"
    ops: List[Dict[str, Any]] = []
    pos = 4
    for _ in range(count):
        path, pos = _unpack_str(payload, pos)
        if pos + 8 + with_whole > len(payload):
            raise ProtocolError(f"truncated op record in {verb} frame")
        op = {"path": path, "blockno": _U64.unpack_from(payload, pos)[0]}
        if with_whole:
            op["whole"] = _bool_at(payload, pos + 8)
        ops.append(op)
        pos += 8 + with_whole
    _expect_end(payload, pos)
    trusted = all(op["path"] for op in ops)
    return (_Packed if trusted else dict)(id=req_id, verb=verb, ops=ops)


_UNPACKERS: Dict[str, Callable[[Optional[int], bytes], Dict[str, Any]]] = {
    "open": _unpack_open,
    "read": partial(_unpack_op, "read"),
    "write": partial(_unpack_op, "write"),
    "readv": partial(_unpack_batch, "readv"),
    "writev": partial(_unpack_batch, "writev"),
}


def _decode_binary_request(
    flags: int, verb_id: int, req_id: Optional[int], payload: bytes
) -> Dict[str, Any]:
    verb = _VERB_BY_ID.get(verb_id)
    if verb is None:
        raise ProtocolError(f"unknown binary verb id {verb_id}")
    if flags & FLAG_JSON:
        msg: Dict[str, Any] = {"id": req_id, "verb": verb}
        for key, value in decode_payload(bytes(payload)).items():
            if key not in ("id", "verb"):  # never let params forge the envelope
                msg[key] = value
        return msg
    unpack = _UNPACKERS.get(verb)
    if unpack is None:
        raise ProtocolError(f"verb {verb!r} has no packed payload form")
    return unpack(req_id, payload)


def _unpack_results(payload: bytes) -> List[Dict[str, Any]]:
    """A batch reply's per-op records (see :func:`_pack_results`)."""
    if len(payload) < 4:
        raise ProtocolError("truncated batch reply: no result count")
    (count,) = _U32.unpack_from(payload, 0)
    if not 1 <= count <= MAX_BATCH_OPS:
        raise ProtocolError(f"bad batch count {count} in reply frame")
    results: List[Dict[str, Any]] = []
    pos = 4
    for _ in range(count):
        if pos + 2 > len(payload):
            raise ProtocolError("truncated record in batch reply")
        if _bool_at(payload, pos):  # an error record follows
            code, error, pos = _unpack_error(payload, pos + 1)
            results.append({"code": code, "error": error})
        else:
            results.append({"hit": _bool_at(payload, pos + 1)})
            pos += 2
    _expect_end(payload, pos)
    return results


def _decode_binary_reply(
    flags: int, kind: int, req_id: Optional[int], payload: bytes
) -> Dict[str, Any]:
    if flags & FLAG_ERROR:
        code, error, end = _unpack_error(payload, 0)
        _expect_end(payload, end)
        return {"id": req_id, "ok": False, "code": code, "error": error}
    if flags & FLAG_JSON:
        value = decode_payload(bytes(payload)).get("value")
    elif kind == _RT_HIT:
        _expect_end(payload, 1)
        value = {"hit": _bool_at(payload, 0)}
    elif kind == _RT_OPEN:
        path, end = _unpack_str(payload, 0)
        disk, after = _unpack_str(payload, end + 8)
        _expect_end(payload, after)
        value = {"path": path, "nblocks": _U64.unpack_from(payload, end)[0], "disk": disk}
    elif kind == _RT_BATCH:
        value = {"results": _unpack_results(payload)}
    else:
        raise ProtocolError(f"unknown binary reply kind {kind}")
    return {"id": req_id, "ok": True, "value": value}


def decode_binary_frame(
    version: int, flags: int, kind: int, req_id: int, payload: bytes
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
        magic = buf[pos : pos + len(MAGIC)]
        if len(magic) == len(MAGIC) and magic != MAGIC:
            raise ProtocolError(f"frame does not start with the wire magic: {bytes(magic)!r}")
        if len(buf) - pos < BIN_HEADER_BYTES:
            return None
        _, version, flags, kind, req_id, length = _HEADER.unpack_from(buf, pos)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        start = pos + BIN_HEADER_BYTES
        end = start + length
        if len(buf) < end:
            return None
        self._pos = end
        return decode_binary_frame(version, flags, kind, req_id, buf[start:end])

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
    :meth:`send` awaits ``drain`` only while the socket's write buffer is
    over its high-water mark (the writer is paused) or the socket is
    closing, and :meth:`close` flushes first.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._high_water = writer.transport.get_write_buffer_limits()[1]
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
        transport = self._writer.transport
        if transport.is_closing() or transport.get_write_buffer_size() > self._high_water:
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
