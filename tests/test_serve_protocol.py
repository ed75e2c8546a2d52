"""Wire-protocol fuzz battery: round-trip exactness and typed failure.

Two properties carry the collector/client split:

* **Lossless**: ``encode -> decode`` reproduces any frame bitwise —
  NaN payloads, infinities, -0.0, int64 extremes, unicode command
  names, zero-row frames, narrow and wide blocks alike.
* **Never hang, never over-read**: any truncation, garbling or hostile
  length prefix raises a typed :class:`~repro.errors.WireError`
  subclass; no input makes the decoder read past its payload or makes
  the reassembler buffer unbounded garbage.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frame import SnapshotFrame
from repro.errors import (
    WireCorruptError,
    WireError,
    WireOversizeError,
    WireTruncatedError,
    WireVersionError,
)
from repro.serve.protocol import (
    MAX_MESSAGE,
    MSG_BYE,
    MSG_FRAME,
    MSG_HELLO,
    VERSION,
    MessageReader,
    decode_message,
    encode_control,
    encode_frame,
    frame_block,
    frame_digest,
    pack_message,
)

# -- frame strategy -----------------------------------------------------------

_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)
_cells = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=16
)
_f64 = st.floats(allow_nan=True, allow_infinity=True, width=64)
_i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def frames(draw) -> SnapshotFrame:
    n = draw(st.integers(min_value=0, max_value=12))

    def i64_col():
        return np.array(
            draw(st.lists(_i64, min_size=n, max_size=n)), dtype=np.int64
        )

    def f64_col():
        return np.array(
            draw(st.lists(_f64, min_size=n, max_size=n)), dtype=np.float64
        )

    def str_col():
        return tuple(draw(st.lists(_cells, min_size=n, max_size=n)))

    deltas = {
        name: f64_col()
        for name in draw(st.lists(_names, max_size=3, unique=True))
    }
    metrics = {
        name: f64_col()
        for name in draw(st.lists(_names, max_size=3, unique=True))
    }
    labels = {
        name: str_col()
        for name in draw(st.lists(_names, max_size=2, unique=True))
    }
    layout = tuple(
        (header, draw(st.sampled_from(["pid", "cpu", "expr", "label"])))
        for header in draw(st.lists(_names, max_size=4, unique=True))
    )
    return SnapshotFrame(
        time=draw(_f64),
        interval=draw(_f64),
        pids=i64_col(),
        tids=i64_col(),
        uids=i64_col(),
        users=str_col(),
        comms=str_col(),
        cpu_pct=f64_col(),
        cpu_time=f64_col(),
        processors=i64_col(),
        deltas=deltas,
        metrics=metrics,
        labels=labels,
        columns=layout,
    )


def _decode_frame(message: bytes) -> tuple[int, SnapshotFrame]:
    msg_type, obj = decode_message(message[4:])
    assert msg_type == MSG_FRAME
    return obj


# -- round-trip properties ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(frame=frames(), seq=st.integers(min_value=0, max_value=2**64 - 1))
def test_roundtrip_bitwise(frame, seq):
    got_seq, got = _decode_frame(encode_frame(frame, seq))
    assert got_seq == seq
    assert frame.bitwise_equal(got)
    assert got.bitwise_equal(frame)
    assert frame_digest(frame) == frame_digest(got)


def test_roundtrip_hostile_values():
    """The paper-shaped nasties, pinned explicitly."""
    frame = SnapshotFrame(
        time=0.1,
        interval=-0.0,
        pids=np.array([2**63 - 1, -(2**63)], dtype=np.int64),
        tids=np.array([1, 2], dtype=np.int64),
        uids=np.array([-1, 0], dtype=np.int64),
        users=("røöt", ""),
        comms=("wörker-☃", "a" * 300),
        cpu_pct=np.array([math.nan, math.inf]),
        cpu_time=np.array([-math.inf, -0.0]),
        processors=np.array([-1, 15], dtype=np.int64),
        deltas={"cycles": np.array([math.nan, 1e308])},
        metrics={"IPC": np.array([-0.0, math.nan])},
        labels={"HEALTH": ("ok", "réttry")},
        columns=(("PID", "pid"), ("HEALTH", "label")),
    )
    _, got = _decode_frame(encode_frame(frame, 0))
    assert frame.bitwise_equal(got)
    # NaN round-trips by bit pattern, not just by isnan.
    assert got.cpu_pct.tobytes() == frame.cpu_pct.tobytes()


def test_roundtrip_zero_rows():
    frame = SnapshotFrame.empty(5.0, 1.0)
    _, got = _decode_frame(encode_frame(frame, 3))
    assert frame.bitwise_equal(got)
    assert len(got) == 0


def _wide_frame(n: int = 200) -> SnapshotFrame:
    ids = np.arange(1000, 1000 + n, dtype=np.int64)
    return SnapshotFrame(
        time=10.0,
        interval=1.0,
        pids=ids,
        tids=ids,
        uids=np.zeros(n, dtype=np.int64),
        users=("root",) * n,
        comms=tuple(f"process{i}" for i in range(n)),
        cpu_pct=np.full(n, 12.5),
        cpu_time=np.linspace(0.0, 1.0, n),
        processors=ids % 4,
        deltas={"cycles": np.full(n, 1e9), "instructions": np.full(n, 2e9)},
        metrics={"IPC": np.full(n, 2.0)},
        labels={},
        columns=(("PID", "pid"), ("IPC", "expr")),
    )


def test_wide_block_goes_out_raw():
    """A block of any width is sent as it is: seq, crc32, block."""
    frame = _wide_frame()
    block = frame_block(frame)
    assert len(block) > 4096
    message = encode_frame(frame, 77)
    assert message == pack_message(
        MSG_FRAME, struct.pack("!QI", 77, zlib.crc32(block)) + block
    )
    seq, got = _decode_frame(message)
    assert seq == 77 and frame.bitwise_equal(got)


def test_control_roundtrip_unicode():
    body = {"client": "zuschauer-über", "resume": None}
    msg_type, got = decode_message(
        encode_control(MSG_HELLO, body)[4:]
    )
    assert msg_type == MSG_HELLO and got == body


# -- typed failure: truncation ------------------------------------------------

def _small_frame() -> SnapshotFrame:
    return SnapshotFrame(
        time=1.0,
        interval=0.5,
        pids=np.array([10, 20], dtype=np.int64),
        tids=np.array([10, 20], dtype=np.int64),
        uids=np.array([0, 7], dtype=np.int64),
        users=("root", "u"),
        comms=("init", "wörk"),
        cpu_pct=np.array([1.0, math.nan]),
        cpu_time=np.array([2.0, 3.0]),
        processors=np.array([0, 1], dtype=np.int64),
        deltas={"cycles": np.array([1.0, 2.0])},
        metrics={"IPC": np.array([0.5, math.nan])},
        labels={"NOTE": ("a", "b")},
        columns=(("PID", "pid"), ("IPC", "expr")),
    )


def test_truncation_at_every_offset_raises_typed():
    """Chopping the payload anywhere raises a WireError, never hangs,
    never returns a frame silently missing data."""
    payload = encode_frame(_small_frame(), 9)[4:]
    for cut in range(len(payload)):
        with pytest.raises(WireError):
            decode_message(payload[:cut])


def test_truncated_control_raises_typed():
    payload = encode_control(MSG_BYE, {"stats": {"published": 3}})[4:]
    for cut in range(1, len(payload)):
        if cut == len(payload):
            continue
        with pytest.raises(WireError):
            decode_message(payload[:cut])


def test_block_truncation_is_truncated_error():
    """Cutting inside the column block (past the crc) is detected by the
    checksum, typed as corruption."""
    block = frame_block(_small_frame())
    payload = pack_message(
        MSG_FRAME, struct.pack("!QI", 0, 0) + block
    )[4:]
    with pytest.raises(WireCorruptError):
        decode_message(payload)  # crc of 0 never matches


# -- typed failure: garbling --------------------------------------------------

def test_bad_magic_and_version():
    good = encode_frame(_small_frame(), 1)[4:]
    with pytest.raises(WireCorruptError):
        decode_message(b"XXXX" + bytes(good[4:]))
    # Version 1 put a flags byte before the crc: its frames are refused
    # by version, never parsed as a raw block.
    assert VERSION == 2
    for version in (b"\x01", b"\xff"):
        with pytest.raises(WireVersionError):
            decode_message(good[:4] + version + bytes(good[5:]))


def test_unknown_message_type():
    payload = pack_message(MSG_HELLO, b"{}")[4:]
    garbled = payload[:5] + b"\x7f" + payload[6:]
    with pytest.raises(WireCorruptError):
        decode_message(garbled)


def test_garbled_block_fails_checksum():
    """Flipping any byte of the column block raises, never mis-decodes."""
    payload = bytearray(encode_frame(_small_frame(), 5)[4:])
    body_start = 6 + struct.calcsize("!QI")  # head + frame head
    for offset in range(body_start, len(payload)):
        garbled = bytearray(payload)
        garbled[offset] ^= 0xA5
        with pytest.raises(WireError):
            decode_message(bytes(garbled))


def test_control_garbage_json():
    with pytest.raises(WireCorruptError):
        decode_message(pack_message(MSG_HELLO, b"\xff\xfe not json")[4:])
    with pytest.raises(WireCorruptError):
        decode_message(pack_message(MSG_HELLO, b"[1, 2]")[4:])


@settings(max_examples=60, deadline=None)
@given(junk=st.binary(min_size=0, max_size=200))
def test_arbitrary_bytes_never_hang(junk):
    """decode_message on random bytes either raises a typed WireError or
    (vanishingly unlikely) decodes; anything else is a bug."""
    try:
        decode_message(junk)
    except WireError:
        pass


# -- the reassembler ----------------------------------------------------------

def test_reader_reassembles_byte_by_byte():
    frame = _small_frame()
    wire = encode_frame(frame, 2) + encode_control(MSG_BYE, {}) * 2
    reader = MessageReader()
    out = []
    for i in range(len(wire)):
        out.extend(reader.feed(wire[i : i + 1]))
    assert len(out) == 3
    seq, got = decode_message(out[0])[1]
    assert seq == 2 and frame.bitwise_equal(got)
    assert reader.pending == 0


def test_reader_oversized_prefix_rejected_before_buffering():
    reader = MessageReader()
    hostile = struct.pack("!I", MAX_MESSAGE + 1)
    with pytest.raises(WireOversizeError):
        reader.feed(hostile)
    # Nothing of the claimed 64MiB+ body was ever stored.
    assert reader.pending <= len(hostile)


def test_reader_undersized_prefix_rejected():
    reader = MessageReader()
    with pytest.raises(WireCorruptError):
        reader.feed(struct.pack("!I", 2) + b"xx")


def test_reader_partial_message_stays_pending():
    wire = encode_frame(_small_frame(), 1)
    reader = MessageReader()
    assert reader.feed(wire[:10]) == []
    assert reader.pending == 10
    out = reader.feed(wire[10:])
    assert len(out) == 1 and reader.pending == 0


def test_oversize_encode_rejected():
    with pytest.raises(WireOversizeError):
        pack_message(MSG_HELLO, b"x" * (MAX_MESSAGE + 1))


def test_cursor_never_overreads():
    """A block whose header promises more rows than the payload carries
    raises WireTruncatedError from the bounds-checked cursor."""
    block = bytearray(frame_block(_small_frame()))
    # Inflate nrows (offset 16 in the !ddI block head) to 2**31-ish.
    struct.pack_into("!I", block, 16, 1_000_000)
    payload = pack_message(
        MSG_FRAME,
        struct.pack("!QI", 0, zlib.crc32(bytes(block))) + bytes(block),
    )[4:]
    with pytest.raises(WireTruncatedError):
        decode_message(payload)


def _with_crc(block: bytearray) -> bytes:
    """A FRAME payload carrying ``block`` under its own (valid) crc32."""
    return pack_message(
        MSG_FRAME,
        struct.pack("!QI", 0, zlib.crc32(bytes(block))) + bytes(block),
    )[4:]


#: Offset of the users column in ``_small_frame``'s block: the !ddI head,
#: then six fixed columns of a tag byte and two 8-byte values.
_USERS_AT = struct.calcsize("!ddI") + 6 * (1 + 2 * 8)


def test_string_length_past_the_block_is_truncated_error():
    """A string cell whose u32 length runs past the block raises
    WireTruncatedError, under a crc that matches."""
    block = bytearray(frame_block(_small_frame()))
    assert struct.unpack_from("!BI", block, _USERS_AT) == (3, len("root"))
    struct.pack_into("!I", block, _USERS_AT + 1, len(block))
    with pytest.raises(WireTruncatedError, match=f"need {len(block)} bytes"):
        decode_message(_with_crc(block))


def test_undecodable_string_cell_is_corrupt_error():
    """A cell of invalid UTF-8 raises WireCorruptError, under a crc that
    matches."""
    block = bytearray(frame_block(_small_frame()))
    cell = _USERS_AT + 1 + 4
    assert block[cell : cell + 4] == b"root"
    block[cell : cell + 4] = b"\xff\xfe\xfd\xfc"
    with pytest.raises(WireCorruptError, match="undecodable string cell"):
        decode_message(_with_crc(block))
