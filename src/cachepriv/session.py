"""End-to-end session simulation and the binary transcript format.

A session runs one placement-then-delivery round and records what went over
the wire.  Transcript framing: every frame is one type octet (0x01 placement
unicast, 0x02 delivery broadcast, 0x03 decode report) followed by a 4-octet
little-endian payload length and the payload itself.  Bit strings inside a
payload are length-prefixed blocks: a 4-octet little-endian bit count, then
the bits packed little-endian and zero-padded up to an octet boundary.
"""

from __future__ import annotations

import random
import struct
from typing import NamedTuple, Sequence

from .core import (
    DemandVector,
    FileStore,
    ParameterError,
    SchemeInstance,
    UnservedDemand,
    alphabet_bits,
    check_width,
    pack_symbols,
)

FRAME_PLACEMENT = 0x01
FRAME_DELIVERY = 0x02
FRAME_DECODE = 0x03


class TranscriptError(Exception):
    """Malformed transcript bytes."""


class PlacementFrame(NamedTuple):
    user: int
    key: int
    cache_bits: int
    cache_value: int


class DeliveryFrame(NamedTuple):
    header_bits: int
    header_value: int
    payload_bits: int
    payload_value: int


class DecodeReport(NamedTuple):
    user: int
    file_index: int
    matched: bool
    decoded_bits: int
    decoded_value: int


class SessionTranscript(NamedTuple):
    scheme_name: str
    placements: tuple[PlacementFrame, ...]
    delivery: DeliveryFrame
    reports: tuple[DecodeReport, ...]

    @property
    def all_matched(self) -> bool:
        return all(r.matched for r in self.reports)


# ---------------------------------------------------------------------------
# wire encoding


# fixed parts: type and payload length, then the fields ahead of a bit block
_HEAD = struct.Struct("<BI")  # also a placement's user and key
_PLACEMENT = struct.Struct("<BIBII")  # ... user, key, cache bit count
_DELIVERY = struct.Struct("<BII")  # ... header bit count
_DECODE = struct.Struct("<BIBBBI")  # ... user, file, matched, decoded bit count
_COUNT = struct.Struct("<I")


def _octets(bits: int) -> int:
    if not 0 <= bits < 1 << 32:
        raise TranscriptError(f"bit block of {bits} bits overflows its 4-octet length")
    return (bits + 7) >> 3


def _read_bit_block(view: memoryview, pos: int, end: int) -> tuple[int, int, int]:
    if pos + 4 > end:
        raise TranscriptError("truncated bit block length")
    (bits,) = _COUNT.unpack_from(view, pos)
    pos += 4
    stop = pos + ((bits + 7) >> 3)
    if stop > end:
        raise TranscriptError("truncated bit block body")
    value = int.from_bytes(view[pos:stop], "little")
    if value >> bits:
        raise TranscriptError("nonzero padding bits")
    return bits, value, stop


def pack_header(header: tuple[int, ...], sizes: tuple[int, ...]) -> tuple[int, int]:
    """Pack header components into bits, component 0 least significant."""
    value = 0
    offset = 0
    for component, size in zip(header, sizes):
        width = alphabet_bits(size)
        value |= component << offset
        offset += width
    return value, offset


def transcript_to_bytes(t: SessionTranscript) -> bytes:
    """The placements, then the delivery, then the reports, as frames.  A
    frame's user, key or file is checked before its bit count, and a bit
    count before its body is made."""
    parts: list[bytes] = []
    for p in t.placements:
        n = (p.cache_bits + 7) >> 3
        try:
            head = _PLACEMENT.pack(FRAME_PLACEMENT, 9 + n, p.user, p.key, p.cache_bits)
        except struct.error as err:
            if 0 <= p.user < 256 and 0 <= p.key < 1 << 32:
                _octets(p.cache_bits)
                raise
            raise TranscriptError(
                f"placement frame cannot hold user {p.user} and key {p.key} "
                "(user takes one octet, key four)"
            ) from err
        parts += (head, p.cache_value.to_bytes(n, "little"))
    d = t.delivery
    header = d.header_value.to_bytes(_octets(d.header_bits), "little")
    payload = d.payload_value.to_bytes(_octets(d.payload_bits), "little")
    size = 8 + len(header) + len(payload)
    parts += (_DELIVERY.pack(FRAME_DELIVERY, size, d.header_bits), header,
              _COUNT.pack(d.payload_bits), payload)
    for r in t.reports:
        n = (r.decoded_bits + 7) >> 3
        try:
            head = _DECODE.pack(FRAME_DECODE, 7 + n, r.user, r.file_index,
                                1 if r.matched else 0, r.decoded_bits)
        except struct.error as err:
            if 0 <= r.user < 256 and 0 <= r.file_index < 256:
                _octets(r.decoded_bits)
                raise
            raise TranscriptError(
                f"decode frame cannot hold user {r.user} and file {r.file_index} "
                "(one octet each)"
            ) from err
        parts += (head, r.decoded_value.to_bytes(n, "little"))
    return b"".join(parts)


def parse_transcript(buf: bytes, scheme_name: str = "") -> SessionTranscript:
    """Frames may come in any order; they are collected by type."""
    placements: list[PlacementFrame] = []
    delivery: DeliveryFrame | None = None
    reports: list[DecodeReport] = []
    with memoryview(buf) as view:
        size = len(view)
        pos = 0
        while pos < size:
            if pos + 5 > size:
                raise TranscriptError("truncated frame header")
            frame_type, length = _HEAD.unpack_from(view, pos)
            start = pos + 5
            pos = start + length
            if pos > size:
                raise TranscriptError("truncated frame body")
            if frame_type == FRAME_PLACEMENT:
                if length < 5:
                    raise TranscriptError("truncated placement frame")
                user, key = _HEAD.unpack_from(view, start)
                bits, value, end = _read_bit_block(view, start + 5, pos)
                if end != pos:
                    raise TranscriptError("trailing bytes in placement frame")
                placements.append(PlacementFrame(user, key, bits, value))
            elif frame_type == FRAME_DELIVERY:
                if delivery is not None:
                    raise TranscriptError("second delivery frame")
                hbits, hvalue, mid = _read_bit_block(view, start, pos)
                pbits, pvalue, end = _read_bit_block(view, mid, pos)
                if end != pos:
                    raise TranscriptError("trailing bytes in delivery frame")
                delivery = DeliveryFrame(hbits, hvalue, pbits, pvalue)
            elif frame_type == FRAME_DECODE:
                if length < 3:
                    raise TranscriptError("truncated decode frame")
                user, want, matched = view[start : start + 3]
                if matched > 1:
                    raise TranscriptError(f"matched octet {matched} is neither 0 nor 1")
                bits, value, end = _read_bit_block(view, start + 3, pos)
                if end != pos:
                    raise TranscriptError("trailing bytes in decode frame")
                reports.append(DecodeReport(user, want, matched == 1, bits, value))
            else:
                raise TranscriptError(f"unknown frame type {frame_type:#x}")
    if delivery is None:
        raise TranscriptError("transcript has no delivery frame")
    return SessionTranscript(scheme_name, tuple(placements), delivery, tuple(reports))


# ---------------------------------------------------------------------------
# running sessions


def run_session(
    s: SchemeInstance,
    store: FileStore,
    demand: Sequence[int],
    user_keys: tuple[int, ...],
    server_random: int,
) -> SessionTranscript:
    """One full round on explicit inputs; decode mismatches are recorded in
    the reports, never raised, so a buggy scheme still yields a transcript.

    Raises ParameterError when the demand vector does not have one entry
    per user, and UnservedDemand when the scheme does not serve it.
    """
    demand = tuple(demand)
    if len(demand) != s.n_users:
        raise ParameterError(
            f"demand vector length {len(demand)} does not match the "
            f"{s.n_users} users of {s.name}"
        )
    if s.served is not None and demand not in s.served:
        raise UnservedDemand(f"{s.name} does not serve demand {demand}")
    caches = s.place(user_keys, store)
    payload, header = s.deliver(store, demand, user_keys, server_random)
    w = store.symbol_width
    placements = []
    for user, cache in enumerate(caches):
        value, bits = pack_symbols(cache, w)
        placements.append(PlacementFrame(user, user_keys[user], bits, value))
    hvalue, hbits = pack_header(header, s.header_sizes)
    pvalue, pbits = pack_symbols(payload, w)
    delivery = DeliveryFrame(hbits, hvalue, pbits, pvalue)
    reports = []
    for user in range(s.n_users):
        want = demand[user]
        decoded = s.decode(user, want, user_keys[user], header, caches[user], payload)
        value, bits = pack_symbols(decoded, w)
        matched = decoded == store.file(want)
        reports.append(DecodeReport(user, want, matched, bits, value))
    return SessionTranscript(s.name, tuple(placements), delivery, tuple(reports))


def simulate_session(
    s: SchemeInstance,
    demand: DemandVector,
    seed: int,
    width: int = 1,
) -> SessionTranscript:
    """Seeded end-to-end round: draws files, user keys, and server randomness
    from one generator (in that order), then runs the session.

    The same (scheme, demand, seed, width) always yields byte-identical
    transcripts.  The width is checked before anything is drawn, the demand
    by run_session before it runs.  A width at which a cache, payload or
    decoded file (M*t*w, R*t*w and t*w bits) would not fit a bit block's
    4-octet count raises ParameterError.
    """
    check_width(width)
    file_bits = s.subpacketization * width
    # compared in integers: Fraction arithmetic is slow next to a narrow round
    for blocks in (1, s.memory, s.rate):
        if blocks.numerator * file_bits >= blocks.denominator << 32:
            raise ParameterError(
                f"width {width} is too large: a transcript bit block holds "
                f"fewer than 2^32 bits"
            )
    rng = random.Random(seed)
    store = FileStore.random(s.n_files, s.subpacketization, width, rng)
    user_keys = tuple(rng.randrange(size) for size in s.key_sizes)
    server = rng.randrange(s.server_random_size(width))
    return run_session(s, store, demand, user_keys, server)
