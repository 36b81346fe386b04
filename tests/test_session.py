from __future__ import annotations

import random

import pytest

from cachepriv.cli import resolve_scheme
from cachepriv.core import (
    DemandVector,
    FileStore,
    ParameterError,
    UnservedDemand,
)
from cachepriv.lift import basic_private_scheme, low_memory_private_scheme
from cachepriv.schemes import low_memory_2x4_scheme
from cachepriv.session import (
    FRAME_DECODE,
    FRAME_DELIVERY,
    FRAME_PLACEMENT,
    DecodeReport,
    DeliveryFrame,
    PlacementFrame,
    SessionTranscript,
    TranscriptError,
    pack_header,
    parse_transcript,
    run_session,
    simulate_session,
    transcript_to_bytes,
)
from cachepriv.verifier import JointDistribution, atom_count, check_privacy
from oracles import iter_atoms, with_tables


def tiny_transcript() -> SessionTranscript:
    return SessionTranscript(
        "demo",
        (PlacementFrame(0, 1, 3, 0b101),),
        DeliveryFrame(2, 0b10, 4, 0b0110),
        (DecodeReport(0, 1, True, 3, 0b011),),
    )


def test_frame_bytes_exact():
    buf = transcript_to_bytes(tiny_transcript())
    placement = bytes(
        [FRAME_PLACEMENT, 10, 0, 0, 0]  # type, length
        + [0]  # user
        + [1, 0, 0, 0]  # key
        + [3, 0, 0, 0, 0b101]  # cache bit block
    )
    delivery = bytes(
        [FRAME_DELIVERY, 10, 0, 0, 0]
        + [2, 0, 0, 0, 0b10]  # header bit block
        + [4, 0, 0, 0, 0b0110]  # payload bit block
    )
    decode = bytes(
        [FRAME_DECODE, 8, 0, 0, 0]
        + [0, 1, 1]  # user, file, matched
        + [3, 0, 0, 0, 0b011]
    )
    assert buf == placement + delivery + decode


def test_transcript_round_trip():
    t = tiny_transcript()
    buf = transcript_to_bytes(t)
    parsed = parse_transcript(buf, "demo")
    assert parsed == t
    assert transcript_to_bytes(parsed) == buf


def test_pack_header():
    assert pack_header((1, 0), (2, 2)) == (0b01, 2)
    assert pack_header((1, 2), (2, 3)) == (0b101, 3)
    assert pack_header((0,), (1,)) == (0, 0)
    assert pack_header((), ()) == (0, 0)


def test_parse_rejects_malformed_bytes():
    good = transcript_to_bytes(tiny_transcript())
    with pytest.raises(TranscriptError):
        parse_transcript(good[:-1])
    with pytest.raises(TranscriptError):
        parse_transcript(bytes([0x7F, 0, 0, 0, 0]))
    with pytest.raises(TranscriptError):
        parse_transcript(b"\x01\x02\x00\x00\x00")
    with pytest.raises(TranscriptError):
        parse_transcript(b"")  # no delivery frame
    # nonzero padding above the declared bit count
    bad_block = bytes([FRAME_DELIVERY, 10, 0, 0, 0, 2, 0, 0, 0, 0b111, 1, 0, 0, 0, 1])
    with pytest.raises(TranscriptError):
        parse_transcript(bad_block)


def test_parse_rejects_short_frames_and_a_second_delivery():
    good = transcript_to_bytes(tiny_transcript())
    delivery = good[15:30]
    assert delivery[0] == FRAME_DELIVERY
    with pytest.raises(TranscriptError, match="truncated placement"):
        parse_transcript(b"\x01\x00\x00\x00\x00" + delivery)
    with pytest.raises(TranscriptError, match="truncated decode"):
        parse_transcript(delivery + bytes([FRAME_DECODE, 2, 0, 0, 0, 0, 1]))
    with pytest.raises(TranscriptError, match="second delivery"):
        parse_transcript(good + delivery)


@pytest.mark.parametrize(
    "frame, field, limit",
    [
        ("placement", "user", 256),
        ("placement", "key", 1 << 32),
        ("decode", "user", 256),
        ("decode", "file_index", 256),
    ],
)
def test_encode_rejects_fields_too_wide_for_the_frame(frame, field, limit):
    t = tiny_transcript()

    def with_value(v):
        if frame == "placement":
            return t._replace(placements=(t.placements[0]._replace(**{field: v}),))
        return t._replace(reports=(t.reports[0]._replace(**{field: v}),))

    fits = with_value(limit - 1)
    assert parse_transcript(transcript_to_bytes(fits), "demo") == fits
    with pytest.raises(TranscriptError, match=f"{frame} frame cannot hold"):
        transcript_to_bytes(with_value(limit))


def test_encode_rejects_a_bit_count_too_wide_for_its_length():
    # raised before the 512 MiB body of a 2**32-bit block is allocated
    t = tiny_transcript()
    frame = t.placements[0]._replace(cache_bits=2**32, cache_value=0)
    huge = t._replace(placements=(frame,))
    with pytest.raises(TranscriptError, match="overflows its 4-octet length"):
        transcript_to_bytes(huge)


def test_simulation_is_deterministic():
    s = low_memory_private_scheme()
    demand = DemandVector(2, (0, 1))
    a = transcript_to_bytes(simulate_session(s, demand, seed=5))
    b = transcript_to_bytes(simulate_session(s, demand, seed=5))
    c = transcript_to_bytes(simulate_session(s, demand, seed=6))
    assert a == b
    assert a != c


def test_simulated_sizes_match_declared_parameters():
    for s in (
        low_memory_private_scheme(),
        basic_private_scheme(3, 2, 0),
        basic_private_scheme(2, 3, 1),
    ):
        demand = DemandVector(s.n_files, (0,) * s.n_users)
        for width in (1, 2):
            t = simulate_session(s, demand, seed=1, width=width)
            file_bits = s.subpacketization * width
            assert t.all_matched
            assert t.delivery.payload_bits == s.rate * file_bits
            assert t.delivery.header_bits == s.header_bits
            for p in t.placements:
                assert p.cache_bits == s.memory * file_bits


def test_simulate_rejects_unserved_demands():
    with pytest.raises(UnservedDemand):
        simulate_session(low_memory_2x4_scheme(), DemandVector(2, (0, 0, 0, 0)), 0)


def test_run_session_checks_the_demand():
    s = resolve_scheme("thm1:3,2,0")
    store = FileStore.random(3, 1, 1, random.Random(0))
    with pytest.raises(ParameterError, match="length 3 does not match the 2 users"):
        run_session(s, store, DemandVector(3, (0, 1, 2)), (0, 0), 0)
    with pytest.raises(ParameterError, match="length 1 does not match"):
        run_session(s, store, DemandVector(3, (0,)), (0, 0), 0)
    lowmem = low_memory_2x4_scheme()
    with pytest.raises(UnservedDemand, match="does not serve demand"):
        run_session(
            lowmem,
            FileStore.zero(2, 3, 1),
            DemandVector(2, (0, 0, 0, 0)),
            (0,) * 4,
            0,
        )


def test_run_session_records_mismatches():
    s = low_memory_private_scheme()
    recipe = s.program.recipe
    # every user decodes one symbol short of its file
    bad = with_tables(s, recipe=lambda *args: recipe(*args)[:-1])
    store = FileStore.random(2, 3, 1, random.Random(3))
    t = run_session(bad, store, DemandVector(2, (1, 0)), (0, 1), 0)
    assert not t.all_matched
    assert [r.matched for r in t.reports] == [False, False]


def test_wire_observations_reproduce_the_privacy_verdict():
    # rebuild the user-0 privacy table from parsed transcript bytes only;
    # it must reach the same verdict as the library's own counting path
    s = low_memory_private_scheme()
    pairs = []
    for store, demand, user_keys, server in iter_atoms(s, 1):
        parsed = parse_transcript(
            transcript_to_bytes(run_session(s, store, demand, user_keys, server))
        )
        me = parsed.placements[0]
        view = (
            me.cache_bits,
            me.cache_value,
            me.key,
            parsed.delivery,
            demand[0],
        )
        pairs.append((demand.entries[1:], view))
    table = JointDistribution.from_pairs(pairs)
    assert table.total == atom_count(s, 1)
    assert table.first_violation() is None
    assert check_privacy(s, 0).passed
