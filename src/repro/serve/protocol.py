"""The collector/client wire protocol: length-prefixed struct-packed frames.

One sampler, thousands of subscribers (ROADMAP item 1) needs a transport
whose cost is decoupled from the sampling cost: the daemon encodes each
:class:`~repro.core.frame.SnapshotFrame` once per distinct subscription and
fans the same bytes out to every client sharing it. The encoding is a
straight serialisation of the frame's columnar storage — numpy arrays go
to the wire as their raw little-endian buffers, so ``encode -> decode`` is
*bitwise* lossless (NaN payloads, -0.0, int64 extremes, unicode command
names and zero-row frames included). That exactness is what the
``served-stream`` conformance oracle leans on.

Message envelope (all scalar fields network byte order)::

    u32   payload length (not counting this prefix; <= MAX_MESSAGE)
    4s    magic  b"TTSV"
    u8    protocol version (VERSION)
    u8    message type (MSG_*)
    ...   type-specific body

``FRAME`` body::

    u64   sequence number
    u32   crc32 of the column block that follows
    ...   column block

The block crosses the wire raw and the decoder parses it in place: the
daemon's viewers are loopback peers, where a zlib pass cost most of an
encode (DESIGN §5d).

Column block (scalars network order, array buffers little-endian)::

    f64 time | f64 interval | u32 nrows
    six fixed arrays, each a dtype tag byte + nrows raw values:
        pids i64 | tids i64 | uids i64 | cpu_pct f64 | cpu_time f64
        | processors i64
    two intrinsic string columns (users, comms): tag byte + nrows
        (u32 length + utf-8) items
    u16 count + named columns for deltas, then metrics (name = u16
        length + utf-8, then tag byte + raw values)
    u16 count + named string columns for labels
    u16 count + (header, kind) string pairs for the screen layout

Control messages (``HELLO``/``SUBSCRIBE``/``BYE``) carry a utf-8 JSON
object — they are rare and tiny, so self-describing beats compact. Every
decode failure raises a typed :class:`~repro.errors.WireError` subclass;
the cursor is bounds-checked so no input, however garbled, can make the
decoder over-read or hang.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import numpy as np

from repro.core.frame import SnapshotFrame
from repro.errors import (
    WireCorruptError,
    WireOversizeError,
    WireTruncatedError,
    WireVersionError,
)

MAGIC = b"TTSV"
VERSION = 2

MSG_HELLO = 1
MSG_SUBSCRIBE = 2
MSG_FRAME = 3
MSG_BYE = 4
_MSG_TYPES = frozenset({MSG_HELLO, MSG_SUBSCRIBE, MSG_FRAME, MSG_BYE})

#: Ceiling on one message's payload. A length prefix above this raises
#: :class:`WireOversizeError` before any buffering happens.
MAX_MESSAGE = 64 * 1024 * 1024

DTYPE_I64 = 1
DTYPE_F64 = 2
DTYPE_STR = 3

_PREFIX = struct.Struct("!I")
_HEAD = struct.Struct("!4sBB")
_FRAME_HEAD = struct.Struct("!QI")
_BLOCK_HEAD = struct.Struct("!ddI")

#: (tag, numpy dtype) of the six fixed identity arrays, in wire order.
_FIXED_TAGS = (
    ("pids", DTYPE_I64),
    ("tids", DTYPE_I64),
    ("uids", DTYPE_I64),
    ("cpu_pct", DTYPE_F64),
    ("cpu_time", DTYPE_F64),
    ("processors", DTYPE_I64),
)


def _short(n: int, pos: int, end: int) -> WireTruncatedError:
    return WireTruncatedError(
        f"need {n} bytes at offset {pos}, payload has {end - pos} left"
    )


class _Reader:
    """Bounds-checked cursor over one payload; can never over-read."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes | memoryview) -> None:
        self.buf = memoryview(buf)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.buf):
            raise _short(n, self.pos, len(self.buf))
        view = self.buf[self.pos : self.pos + n]
        self.pos += n
        return view

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("!H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("!I", self.take(4))[0]

    def rest(self) -> memoryview:
        view = self.buf[self.pos :]
        self.pos = len(self.buf)
        return view

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise WireCorruptError(
                f"{len(self.buf) - self.pos} trailing bytes after message"
            )


# -- low-level helpers --------------------------------------------------------

def _put_name(out: bytearray, name: str) -> None:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireCorruptError(f"column name too long ({len(raw)} bytes)")
    out += struct.pack("!H", len(raw))
    out += raw


def _get_name(r: _Reader) -> str:
    raw = r.take(r.u16())
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise WireCorruptError(f"undecodable column name: {exc}") from exc


def _put_numeric(out: bytearray, values: np.ndarray, nrows: int) -> None:
    arr = np.asarray(values)
    if arr.dtype == np.int64:
        tag, wire_dtype = DTYPE_I64, "<i8"
    else:
        tag, wire_dtype = DTYPE_F64, "<f8"
    arr = np.ascontiguousarray(arr, dtype=wire_dtype)
    if len(arr) != nrows:
        raise WireCorruptError(
            f"column carries {len(arr)} values for {nrows} rows"
        )
    out.append(tag)
    out += arr.tobytes()


def _get_numeric(r: _Reader, nrows: int, expect: int | None = None) -> np.ndarray:
    tag = r.u8()
    if tag not in (DTYPE_I64, DTYPE_F64):
        raise WireCorruptError(f"unknown numeric dtype tag {tag}")
    if expect is not None and tag != expect:
        raise WireCorruptError(
            f"fixed column dtype tag {tag} (expected {expect})"
        )
    wire_dtype = "<i8" if tag == DTYPE_I64 else "<f8"
    raw = r.take(nrows * 8)
    arr = np.frombuffer(raw, dtype=wire_dtype).copy()
    return arr.astype(np.int64) if tag == DTYPE_I64 else arr


def _put_strings(out: bytearray, values: tuple[str, ...], nrows: int) -> None:
    if len(values) != nrows:
        raise WireCorruptError(
            f"string column carries {len(values)} values for {nrows} rows"
        )
    out.append(DTYPE_STR)
    for item in values:
        raw = item.encode("utf-8")
        out += struct.pack("!I", len(raw))
        out += raw


def _get_strings(r: _Reader, nrows: int) -> tuple[str, ...]:
    """A string column: one local cursor over the reader's buffer, every
    length and cell bounds-checked before it is read."""
    tag = r.u8()
    if tag != DTYPE_STR:
        raise WireCorruptError(f"string column dtype tag {tag}")
    buf, pos, end = r.buf, r.pos, len(r.buf)
    length = _PREFIX.unpack_from
    items = []
    try:
        for _ in range(nrows):
            if pos + 4 > end:
                raise _short(4, pos, end)
            (n,) = length(buf, pos)
            pos += 4
            if pos + n > end:
                raise _short(n, pos, end)
            items.append(str(buf[pos : pos + n], "utf-8"))
            pos += n
    except UnicodeDecodeError as exc:
        raise WireCorruptError(f"undecodable string cell: {exc}") from exc
    r.pos = pos
    return tuple(items)


# -- the column block ---------------------------------------------------------

def frame_block(frame: SnapshotFrame) -> bytes:
    """The canonical column block of one frame.

    Pure function of the frame's columnar storage (via
    :meth:`~repro.core.frame.SnapshotFrame.wire_columns`); two frames
    encode to the same block iff they are
    :meth:`~repro.core.frame.SnapshotFrame.bitwise_equal`.
    """
    nrows = len(frame)
    out = bytearray()
    out += _BLOCK_HEAD.pack(frame.time, frame.interval, nrows)
    columns = list(frame.wire_columns())
    for (name, expected_tag), (_, _, values) in zip(_FIXED_TAGS, columns[:6]):
        actual = (
            DTYPE_I64 if np.asarray(values).dtype == np.int64 else DTYPE_F64
        )
        if actual != expected_tag:
            raise WireCorruptError(
                f"fixed column {name!r} has dtype "
                f"{np.asarray(values).dtype}, not the wire dtype"
            )
        _put_numeric(out, values, nrows)
    for _, _, values in columns[6:8]:
        _put_strings(out, values, nrows)
    named = columns[8:]
    for group in ("deltas", "metrics"):
        cols = [(name, v) for g, name, v in named if g == group]
        out += struct.pack("!H", len(cols))
        for name, values in cols:
            _put_name(out, name)
            _put_numeric(out, values, nrows)
    label_cols = [(name, v) for g, name, v in named if g == "labels"]
    out += struct.pack("!H", len(label_cols))
    for name, values in label_cols:
        _put_name(out, name)
        _put_strings(out, values, nrows)
    out += struct.pack("!H", len(frame.columns))
    for header, kind in frame.columns:
        _put_name(out, header)
        _put_name(out, kind)
    return bytes(out)


def _parse_block(block: bytes | memoryview) -> SnapshotFrame:
    r = _Reader(block)
    time, interval, nrows = r.unpack(_BLOCK_HEAD)
    fixed = {}
    for name, tag in _FIXED_TAGS:
        fixed[name] = _get_numeric(r, nrows, expect=tag)
    users = _get_strings(r, nrows)
    comms = _get_strings(r, nrows)
    deltas: dict[str, np.ndarray] = {}
    for _ in range(r.u16()):
        name = _get_name(r)
        deltas[name] = _get_numeric(r, nrows)
    metrics: dict[str, np.ndarray] = {}
    for _ in range(r.u16()):
        name = _get_name(r)
        metrics[name] = _get_numeric(r, nrows)
    labels: dict[str, tuple[str, ...]] = {}
    for _ in range(r.u16()):
        name = _get_name(r)
        labels[name] = _get_strings(r, nrows)
    layout = []
    for _ in range(r.u16()):
        header = _get_name(r)
        kind = _get_name(r)
        layout.append((header, kind))
    r.done()
    return SnapshotFrame(
        time=time,
        interval=interval,
        pids=fixed["pids"],
        tids=fixed["tids"],
        uids=fixed["uids"],
        users=users,
        comms=comms,
        cpu_pct=fixed["cpu_pct"],
        cpu_time=fixed["cpu_time"],
        processors=fixed["processors"],
        deltas=deltas,
        metrics=metrics,
        labels=labels,
        columns=tuple(layout),
    )


def frame_digest(frame: SnapshotFrame) -> str:
    """Content hash of a frame's canonical block (bitwise identity)."""
    return hashlib.sha256(frame_block(frame)).hexdigest()[:16]


# -- messages -----------------------------------------------------------------

def pack_message(msg_type: int, body: bytes) -> bytes:
    """Wrap a body in the length-prefixed envelope."""
    payload = _HEAD.pack(MAGIC, VERSION, msg_type) + body
    if len(payload) > MAX_MESSAGE:
        raise WireOversizeError(
            f"message payload {len(payload)} exceeds MAX_MESSAGE"
        )
    return _PREFIX.pack(len(payload)) + payload


def encode_control(msg_type: int, obj: dict) -> bytes:
    """A HELLO/SUBSCRIBE/BYE message carrying a JSON object."""
    return pack_message(msg_type, json.dumps(obj, sort_keys=True).encode())


def encode_frame(frame: SnapshotFrame, seq: int) -> bytes:
    """One FRAME message: the sequence number, the block's crc32, the
    column block."""
    block = frame_block(frame)
    body = _FRAME_HEAD.pack(seq, zlib.crc32(block)) + block
    return pack_message(MSG_FRAME, body)


def decode_message(payload: bytes | memoryview) -> tuple[int, object]:
    """Decode one envelope payload (the bytes after the length prefix).

    Returns ``(msg_type, obj)`` where ``obj`` is a ``(seq, frame)`` pair
    for FRAME messages and a dict for control messages.

    Raises:
        WireTruncatedError: the payload ends before its declared content.
        WireCorruptError: bad magic, checksum or structure.
        WireVersionError: the peer speaks an unknown protocol version.
    """
    r = _Reader(payload)
    magic, version, msg_type = r.unpack(_HEAD)
    if magic != MAGIC:
        raise WireCorruptError(f"bad magic {bytes(magic)!r}")
    if version != VERSION:
        raise WireVersionError(f"unknown protocol version {version}")
    if msg_type not in _MSG_TYPES:
        raise WireCorruptError(f"unknown message type {msg_type}")
    if msg_type == MSG_FRAME:
        seq, crc = r.unpack(_FRAME_HEAD)
        block = r.rest()
        if zlib.crc32(block) != crc:
            raise WireCorruptError(f"frame {seq}: checksum mismatch")
        return MSG_FRAME, (seq, _parse_block(block))
    raw = bytes(r.rest())
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireCorruptError(f"undecodable control body: {exc}") from exc
    if not isinstance(obj, dict):
        raise WireCorruptError("control body is not a JSON object")
    return msg_type, obj


class MessageReader:
    """Incremental reassembler: raw socket bytes -> complete payloads.

    Feed arbitrary chunks; complete envelope payloads come back in order.
    Partial messages are buffered; a length prefix above
    :data:`MAX_MESSAGE` (or zero) raises immediately, *before* the body
    is buffered, so a corrupt prefix can neither hang the stream nor
    balloon memory.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buf += data
        out: list[bytes] = []
        while len(self._buf) >= _PREFIX.size:
            (n,) = _PREFIX.unpack_from(self._buf)
            if n > MAX_MESSAGE:
                raise WireOversizeError(
                    f"length prefix {n} exceeds MAX_MESSAGE ({MAX_MESSAGE})"
                )
            if n < _HEAD.size:
                raise WireCorruptError(
                    f"length prefix {n} below minimum message size"
                )
            if len(self._buf) < _PREFIX.size + n:
                break
            out.append(bytes(self._buf[_PREFIX.size : _PREFIX.size + n]))
            del self._buf[: _PREFIX.size + n]
        return out

    @property
    def pending(self) -> int:
        """Bytes buffered waiting for the rest of a message."""
        return len(self._buf)
