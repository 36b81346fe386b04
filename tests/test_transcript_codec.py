"""The transcript codec against the frame-by-frame reference codec.

transcript_to_bytes and parse_transcript read and write each frame's fixed
part with struct and each bit block body with one int conversion;
oracles.reference_transcript_bytes and oracles.reference_parse build or
slice every frame's payload as its own bytes.  The two must agree byte for
byte on every pinned round, on hand-made edge frames, and on every
truncation and seeded single-octet mutation of pinned transcripts, where
they must raise the same TranscriptError or parse to equal transcripts.
"""

from __future__ import annotations

import random

import pytest

from cachepriv.core import DemandVector
from cachepriv.session import (
    FRAME_DECODE,
    DecodeReport,
    DeliveryFrame,
    PlacementFrame,
    SessionTranscript,
    TranscriptError,
    parse_transcript,
    simulate_session,
    transcript_to_bytes,
)
from oracles import reference_parse, reference_transcript_bytes
from test_transcript_pins import ROUNDS, TOKENS, scheme_for

MUTATIONS = 200  # seeded single-octet mutations per fuzzed transcript


def pinned_rounds(token: str, width: int):
    """The transcripts of the (demand, seed) draws tests/test_transcript_pins.py
    makes for token at width."""
    s = scheme_for(token)
    members = s.served_demands().members
    rng = random.Random(f"{token}:{width}")
    for _ in range(ROUNDS):
        demand = rng.choice(members)
        seed = rng.getrandbits(32)
        yield simulate_session(s, DemandVector(s.n_files, demand), seed, width)


def outcome(parse, buf: bytes):
    """The parsed transcript, or the message of the TranscriptError raised;
    any other exception propagates and fails the test."""
    try:
        return parse(buf, "fuzz")
    except TranscriptError as err:
        return f"TranscriptError: {err}"


def encoded(encode, t: SessionTranscript):
    """The bytes of t, or the message of the TranscriptError raised."""
    try:
        return encode(t)
    except TranscriptError as err:
        return f"TranscriptError: {err}"


@pytest.mark.parametrize("width", [1, 3, 64, 4099, 65536])
def test_every_pinned_round_encodes_and_parses_as_the_reference(width):
    for token in TOKENS:
        for t in pinned_rounds(token, width):
            buf = transcript_to_bytes(t)
            assert buf == reference_transcript_bytes(t)
            assert parse_transcript(buf, t.scheme_name) == t
            assert reference_parse(buf, t.scheme_name) == t


def test_edge_frames_encode_and_parse_as_the_reference():
    zero = DeliveryFrame(0, 0, 0, 0)
    cases = [
        SessionTranscript("empty", (), zero, ()),
        SessionTranscript(
            "zero blocks",
            (PlacementFrame(0, 0, 0, 0), PlacementFrame(1, 7, 0, 0)),
            zero,
            (DecodeReport(0, 0, True, 0, 0), DecodeReport(1, 1, False, 0, 0)),
        ),
        SessionTranscript(
            "widest fields",
            (PlacementFrame(255, (1 << 32) - 1, 9, 0x1FF),),
            DeliveryFrame(0, 0, 17, 1 << 16),
            (DecodeReport(255, 255, False, 1, 1), DecodeReport(255, 255, True, 8, 0x80)),
        ),
    ]
    for t in cases:
        buf = transcript_to_bytes(t)
        assert buf == reference_transcript_bytes(t)
        assert parse_transcript(buf, t.scheme_name) == t
        assert reference_parse(buf, t.scheme_name) == t
        assert parse_transcript(bytearray(buf), t.scheme_name) == t


def test_encode_errors_are_the_references_in_the_same_order():
    # a field too wide for its octets is reported before a bad bit count
    base = SessionTranscript(
        "demo",
        (PlacementFrame(0, 1, 3, 0b101),),
        DeliveryFrame(2, 0b10, 4, 0b0110),
        (DecodeReport(0, 1, True, 3, 0b011),),
    )
    bad_bits = (-9, -1, 1 << 32, 1 << 40)
    cases = []
    for user in (0, 255, 256, -1):
        for key in (0, (1 << 32) - 1, 1 << 32, -1):
            for bits in (3, *bad_bits):
                frame = PlacementFrame(user, key, bits, 0)
                cases.append(base._replace(placements=(frame,)))
    for user in (0, 256, -1):
        for file_index in (255, 256):
            for bits in (3, *bad_bits):
                report = DecodeReport(user, file_index, False, bits, 0)
                cases.append(base._replace(reports=(report,)))
    for header_bits in (2, *bad_bits):
        for payload_bits in (4, *bad_bits):
            delivery = DeliveryFrame(header_bits, 0, payload_bits, 0)
            # a bad placement ahead of the delivery is reported first
            for placements in ((), (PlacementFrame(256, 0, 3, 0),)):
                cases.append(base._replace(placements=placements, delivery=delivery))
    failures = 0
    for t in cases:
        want = encoded(reference_transcript_bytes, t)
        assert encoded(transcript_to_bytes, t) == want
        failures += isinstance(want, str)
    assert failures > len(cases) // 2


def test_a_matched_octet_other_than_0_or_1_is_rejected():
    t = SessionTranscript(
        "demo", (), DeliveryFrame(0, 0, 0, 0), (DecodeReport(0, 1, True, 3, 0b011),)
    )
    buf = transcript_to_bytes(t)
    at = buf.index(bytes([FRAME_DECODE, 8, 0, 0, 0, 0, 1, 1])) + 7
    for octet in (0, 1):
        raw = buf[:at] + bytes([octet]) + buf[at + 1 :]
        parsed = parse_transcript(raw, "demo")
        assert parsed.reports[0].matched is bool(octet)
        assert transcript_to_bytes(parsed) == raw
    for octet in (2, 7, 255):
        raw = buf[:at] + bytes([octet]) + buf[at + 1 :]
        for parse in (parse_transcript, reference_parse):
            with pytest.raises(TranscriptError, match=f"matched octet {octet} is neither"):
                parse(raw)


def test_a_failed_parse_releases_its_view_of_the_buffer():
    raw = bytearray([0x02, 0])
    # the error's traceback keeps the parser's frame alive
    with pytest.raises(TranscriptError, match="truncated frame header") as caught:
        parse_transcript(raw)
    raw.append(0)  # a view still held would make the bytearray unresizable
    assert caught.value is not None


@pytest.mark.parametrize("width", [1, 3, 64])
def test_truncated_and_mutated_pins_parse_as_the_reference(width):
    rejected = 0
    for token in TOKENS:
        t = next(pinned_rounds(token, width))
        buf = transcript_to_bytes(t)
        rng = random.Random(f"fuzz:{token}:{width}")
        variants = [buf[:end] for end in range(len(buf))]
        for _ in range(MUTATIONS):
            at = rng.randrange(len(buf))
            octet = rng.randrange(255)
            octet += octet >= buf[at]  # any octet but the one there
            variants.append(buf[:at] + bytes([octet]) + buf[at + 1 :])
        for raw in variants:
            got = outcome(parse_transcript, raw)
            assert got == outcome(reference_parse, raw), (token, raw.hex())
            if isinstance(got, str):
                rejected += 1
                continue
            again = transcript_to_bytes(got)
            assert again == reference_transcript_bytes(got)
            assert parse_transcript(again, "fuzz") == got
    assert rejected > 0
