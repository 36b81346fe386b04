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
from dataclasses import dataclass

from .core import (
    DemandVector,
    FileStore,
    KeyAssignment,
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


@dataclass(frozen=True)
class PlacementFrame:
    user: int
    key: int
    cache_bits: int
    cache_value: int


@dataclass(frozen=True)
class DeliveryFrame:
    header_bits: int
    header_value: int
    payload_bits: int
    payload_value: int


@dataclass(frozen=True)
class DecodeReport:
    user: int
    file_index: int
    matched: bool
    decoded_bits: int
    decoded_value: int


@dataclass(frozen=True)
class SessionTranscript:
    scheme_name: str
    placements: tuple[PlacementFrame, ...]
    delivery: DeliveryFrame
    reports: tuple[DecodeReport, ...]

    @property
    def all_matched(self) -> bool:
        return all(r.matched for r in self.reports)


# ---------------------------------------------------------------------------
# wire encoding


def _bit_block(value: int, bits: int) -> bytes:
    if not 0 <= bits < 1 << 32:
        raise TranscriptError(f"bit block of {bits} bits overflows its 4-octet length")
    return bits.to_bytes(4, "little") + value.to_bytes((bits + 7) // 8, "little")


def _read_bit_block(buf: bytes, pos: int) -> tuple[int, int, int]:
    if pos + 4 > len(buf):
        raise TranscriptError("truncated bit block length")
    bits = int.from_bytes(buf[pos : pos + 4], "little")
    pos += 4
    nbytes = (bits + 7) // 8
    if pos + nbytes > len(buf):
        raise TranscriptError("truncated bit block body")
    value = int.from_bytes(buf[pos : pos + nbytes], "little")
    if value >> bits:
        raise TranscriptError("nonzero padding bits")
    return bits, value, pos + nbytes


def _frame(frame_type: int, payload: bytes) -> bytes:
    return bytes([frame_type]) + len(payload).to_bytes(4, "little") + payload


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
    out = bytearray()
    for p in t.placements:
        try:
            head = bytes([p.user]) + p.key.to_bytes(4, "little")
        except (ValueError, OverflowError) as err:
            raise TranscriptError(
                f"placement frame cannot hold user {p.user} and key {p.key} "
                "(user takes one octet, key four)"
            ) from err
        out += _frame(FRAME_PLACEMENT, head + _bit_block(p.cache_value, p.cache_bits))
    d = t.delivery
    out += _frame(
        FRAME_DELIVERY,
        _bit_block(d.header_value, d.header_bits)
        + _bit_block(d.payload_value, d.payload_bits),
    )
    for r in t.reports:
        try:
            head = bytes([r.user, r.file_index, 1 if r.matched else 0])
        except ValueError as err:
            raise TranscriptError(
                f"decode frame cannot hold user {r.user} and file {r.file_index} "
                "(one octet each)"
            ) from err
        out += _frame(FRAME_DECODE, head + _bit_block(r.decoded_value, r.decoded_bits))
    return bytes(out)


def parse_transcript(buf: bytes, scheme_name: str = "") -> SessionTranscript:
    placements: list[PlacementFrame] = []
    delivery: DeliveryFrame | None = None
    reports: list[DecodeReport] = []
    pos = 0
    while pos < len(buf):
        if pos + 5 > len(buf):
            raise TranscriptError("truncated frame header")
        frame_type = buf[pos]
        length = int.from_bytes(buf[pos + 1 : pos + 5], "little")
        pos += 5
        body = buf[pos : pos + length]
        if len(body) != length:
            raise TranscriptError("truncated frame body")
        pos += length
        if frame_type == FRAME_PLACEMENT:
            if len(body) < 5:
                raise TranscriptError("truncated placement frame")
            user = body[0]
            key = int.from_bytes(body[1:5], "little")
            bits, value, end = _read_bit_block(body, 5)
            if end != len(body):
                raise TranscriptError("trailing bytes in placement frame")
            placements.append(PlacementFrame(user, key, bits, value))
        elif frame_type == FRAME_DELIVERY:
            if delivery is not None:
                raise TranscriptError("second delivery frame")
            hbits, hvalue, mid = _read_bit_block(body, 0)
            pbits, pvalue, end = _read_bit_block(body, mid)
            if end != len(body):
                raise TranscriptError("trailing bytes in delivery frame")
            delivery = DeliveryFrame(hbits, hvalue, pbits, pvalue)
        elif frame_type == FRAME_DECODE:
            if len(body) < 3:
                raise TranscriptError("truncated decode frame")
            user, file_index, matched = body[0], body[1], body[2]
            bits, value, end = _read_bit_block(body, 3)
            if end != len(body):
                raise TranscriptError("trailing bytes in decode frame")
            reports.append(
                DecodeReport(user, file_index, bool(matched), bits, value)
            )
        else:
            raise TranscriptError(f"unknown frame type {frame_type:#x}")
    if delivery is None:
        raise TranscriptError("transcript has no delivery frame")
    return SessionTranscript(
        scheme_name, tuple(placements), delivery, tuple(reports)
    )


# ---------------------------------------------------------------------------
# running sessions


def run_session(
    s: SchemeInstance,
    store: FileStore,
    demand: DemandVector,
    keys: KeyAssignment,
) -> SessionTranscript:
    """One full round on explicit inputs; decode mismatches are recorded in
    the reports, never raised, so a buggy scheme still yields a transcript.

    Raises ParameterError when the demand vector does not have one entry
    per user, and UnservedDemand when the scheme does not serve it.
    """
    if len(demand) != s.n_users:
        raise ParameterError(
            f"demand vector length {len(demand)} does not match the "
            f"{s.n_users} users of {s.name}"
        )
    if s.served is not None and tuple(demand) not in s.served:
        raise UnservedDemand(f"{s.name} does not serve demand {tuple(demand)}")
    caches = s.place(keys, store)
    msg = s.deliver(store, demand, keys)
    w = store.symbol_width
    placements = []
    for user, cache in enumerate(caches):
        value, bits = pack_symbols(cache.symbols, w)
        placements.append(PlacementFrame(user, cache.key, bits, value))
    hvalue, hbits = pack_header(msg.header, s.header_sizes)
    pvalue, pbits = pack_symbols(msg.payload, w)
    delivery = DeliveryFrame(hbits, hvalue, pbits, pvalue)
    reports = []
    for user in range(s.n_users):
        decoded = s.decode(user, demand[user], keys.user_keys[user], msg, caches[user])
        value, bits = pack_symbols(decoded, w)
        matched = decoded == store.file(demand[user])
        reports.append(DecodeReport(user, demand[user], matched, bits, value))
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
    return run_session(s, store, demand, KeyAssignment(user_keys, server))
