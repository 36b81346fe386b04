"""Independent oracles used by the test suite, and the helpers they share.

These deliberately avoid the library's own decode and counting paths so the
checks they back are not self-referential: decodability is judged from the
information available to a user, mutual information is recomputed from
entropies, linear rows are applied one output bit at a time, the
verifier's sweep is redone atom by atom with no memo through the scheme's
own place, deliver and decode, and delivery rows are
found by testing the rank condition on every candidate span, the rank
filter's intersection dimensions are counted from span elements, and the
rate envelope is found by stepping up a grid until every constraint holds.
The transcript codec is checked against a frame-by-frame byte-slicing
codec (reference_transcript_bytes, reference_parse).
The virtual demand a lifted scheme serves is built block by block from
the real demand and the keys (expand_demand), where lift looks it up in
the cyclic demand set by its shifts.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from dataclasses import replace
from typing import Iterable, Iterator, Sequence

from cachepriv import gf2, lift, schemes, search
from cachepriv.core import (
    DemandVector,
    FileStore,
    SchemeInstance,
    cyclic_shift,
    identity_vector,
    pack_symbols,
)
from cachepriv.region import check_inequalities
from cachepriv.session import (
    FRAME_DECODE,
    FRAME_DELIVERY,
    FRAME_PLACEMENT,
    DecodeReport,
    DeliveryFrame,
    PlacementFrame,
    SessionTranscript,
    TranscriptError,
)
from cachepriv.verifier import DecodeCounterexample, IndependenceCounterexample


# every memoised scheme constructor (core.SCHEME_MEMO)
CONSTRUCTORS = (
    lift.basic_private_scheme,
    lift.lift_private,
    schemes.uncoded_baseline,
    schemes.memory_share,
    search.compile_linear_scheme,
)


def clear_constructors() -> None:
    """Empty every constructor memo, so the next scheme built is a fresh
    instance with cold table memos."""
    for constructor in CONSTRUCTORS:
        constructor.cache_clear()


def with_tables(s: SchemeInstance, **tables) -> SchemeInstance:
    """s with some of its tables replaced, for example a corrupted
    recipe."""
    return replace(s, **tables)


def atom_total(s: SchemeInstance, width: int = 1) -> int:
    """Atoms in the joint space, from the sizes of its four factors."""
    return (
        (1 << (s.n_files * s.subpacketization * width))
        * len(s.served_demands().members)
        * math.prod(s.key_sizes)
        * s.server_random_size(width)
    )


def iter_atoms(
    s: SchemeInstance, width: int = 1
) -> Iterator[tuple[FileStore, DemandVector, tuple[int, ...], int]]:
    """Every atom once, in the verifier's order, each decoded from its flat
    index: server randomness fastest, then user keys (key 0 fastest), then
    demand, then store.  Yields (store, demand, user keys, server
    randomness); a store is built once for the atoms that share it."""
    demands = s.served_demands().members
    servers = s.server_random_size(width)
    loaded = -1
    for index in range(atom_total(s, width)):
        rest, server = divmod(index, servers)
        user_keys = []
        for size in s.key_sizes:
            rest, key = divmod(rest, size)
            user_keys.append(key)
        store_index, d = divmod(rest, len(demands))
        if store_index != loaded:
            loaded = store_index
            store = FileStore.from_index(
                s.n_files, s.subpacketization, width, store_index
            )
        demand = DemandVector(s.n_files, demands[d])
        yield store, demand, tuple(user_keys), server


def view_determines_file(s: SchemeInstance, width: int = 1) -> bool:
    """Decoder-independent decodability: over every realization, a user's
    observation (cache, key, broadcast, own demand) must pin down the
    demanded file's content.  If it does, some decoder exists; if it does
    not, no decoder can work."""
    seen: dict[tuple, tuple[int, ...]] = {}
    for store, demand, user_keys, server in iter_atoms(s, width):
        caches = s.place(user_keys, store)
        payload, header = s.deliver(store, demand, user_keys, server)
        for u in range(s.n_users):
            view = (
                u,
                demand[u],
                user_keys[u],
                pack_symbols(caches[u], width),
                pack_symbols(payload, width),
                header,
            )
            want = store.file(demand[u])
            if seen.setdefault(view, want) != want:
                return False
    return True


def entropy_bits(counts: Counter) -> float:
    total = sum(counts.values())
    return -sum(
        (c / total) * math.log2(c / total) for c in counts.values() if c
    )


def mi_from_pairs(pairs: Iterable[tuple[object, object]]) -> float:
    """I(L; R) = H(L) + H(R) - H(L, R), a second route to the verifier's
    plug-in mutual information figure."""
    joint: Counter = Counter()
    left: Counter = Counter()
    right: Counter = Counter()
    for l, r in pairs:
        joint[(l, r)] += 1
        left[l] += 1
        right[r] += 1
    return entropy_bits(left) + entropy_bits(right) - entropy_bits(joint)


def apply_rows(rows: Sequence[int], store: FileStore) -> tuple[int, ...]:
    """Each GF(2) row applied to the store's symbols (column i*t + j is
    file i subfile j), built bit by bit from the packed store index, where
    symbol k holds bits k*width .. (k+1)*width - 1."""
    width = store.symbol_width
    n_cols = store.n_files * store.subpacketization
    packed, _ = pack_symbols(store.values, width)
    out = []
    for row in rows:
        value = 0
        for b in range(width):
            bit = 0
            for col in range(n_cols):
                if (row >> col) & 1:
                    bit ^= (packed >> (col * width + b)) & 1
            value |= bit << b
        out.append(value)
    return tuple(out)


def _mi_bits(joint: Counter, left: Counter, right: Counter, total: int) -> float:
    """Plug-in mutual information, its terms summed exactly (math.fsum) as
    the verifier sums them, so the floats agree exactly."""
    mi = math.fsum(
        (c / total) * math.log2(c * total / (left[l] * right[r]))
        for (l, r), c in joint.items()
    )
    return max(mi, 0.0)


def reference_checks(
    s: SchemeInstance,
    width: int = 1,
    users: Sequence[int] = (),
    invariance: bool = False,
) -> dict[str, tuple[bool, int, float | None, str | None]]:
    """What verifier.run_checks(s, width, users=users, invariance=invariance)
    reports, as {label: (passed, cases, mi_bits, counterexample text)},
    computed the naive way.

    Every atom of iter_atoms is placed, delivered and decoded on its own,
    and the count tables are kept here.  Privacy observations use their own
    encoding (the tuples of symbol values); the invariance cells use the
    verifier's layout because the counterexample prints one.
    """
    total = atom_total(s, width)
    decode_cases, decode_text = 0, None
    joint = {u: Counter() for u in users}
    views: dict[tuple[int, int, int], Counter] = {
        (k, j, v): Counter() for k in (0, 1) for j in (0, 1) for v in (0, 1)
    }
    for store, demand, user_keys, server in iter_atoms(s, width):
        caches = s.place(user_keys, store)
        payload, header = s.deliver(store, demand, user_keys, server)
        if decode_text is None:
            decode_cases += 1
            for k in range(s.n_users):
                got = s.decode(k, demand[k], user_keys[k], header, caches[k], payload)
                want = store.file(demand[k])
                if got != want:
                    decode_text = str(
                        DecodeCounterexample(
                            pack_symbols(store.values, width)[0],
                            demand.entries,
                            user_keys,
                            server,
                            k,
                            want,
                            got,
                        )
                    )
                    break
            if decode_text is not None and not (users or invariance):
                break
        for u in users:
            view = (caches[u], user_keys[u], payload, header, demand[u])
            others = demand.entries[:u] + demand.entries[u + 1 :]
            joint[u][(others, view)] += 1
        if invariance:
            pay = pack_symbols(payload, width)
            for k in (0, 1):
                j = demand[k]
                view = pack_symbols(caches[k], width) + (user_keys[k],)
                view += pay + (header, j)
                file = pack_symbols(store.file(j), width)
                views[(k, j, demand[1 - k])][(view, file)] += 1

    out: dict[str, tuple[bool, int, float | None, str | None]] = {
        "decodability": (decode_text is None, decode_cases, None, decode_text)
    }
    for u in users:
        cells = joint[u]
        left: Counter = Counter()
        right: Counter = Counter()
        for (l, r), c in cells.items():
            left[l] += c
            right[r] += c
        text = None
        for l in left:
            for r in right:
                c = cells.get((l, r), 0)
                if text is None and c * total != left[l] * right[r]:
                    text = str(
                        IndependenceCounterexample(l, c, left[l], right[r], total)
                    )
        out[f"privacy[user {u}]"] = (
            text is None, total, _mi_bits(cells, left, right, total), text
        )
    if invariance:
        out["conditional-invariance"] = _reference_invariance(views, total)
    return out


def _reference_invariance(
    views: dict[tuple[int, int, int], Counter], total: int
) -> tuple[bool, int, float, str | None]:
    """Conditional invariance from the eight view tables: the worst MI over
    the (user, own demand) pairs up to the first that fails, and that
    pair's first differing view (scanning t0, then t1)."""
    worst = 0.0
    for k in (0, 1):
        for j in (0, 1):
            t0, t1 = views[(k, j, 0)], views[(k, j, 1)]
            joint = Counter()
            for v, t in ((0, t0), (1, t1)):
                for view, c in t.items():
                    joint[(v, view)] = c
            n0, n1 = sum(t0.values()), sum(t1.values())
            margin = Counter({0: n0, 1: n1})
            both = Counter({view: t0[view] + t1[view] for view in [*t0, *t1]})
            worst = max(worst, _mi_bits(joint, margin, both, n0 + n1))
            for cell in [*t0, *t1]:
                if t0[cell] != t1[cell]:
                    return (
                        False,
                        total,
                        worst,
                        f"user {k} demanding {j}: view counts shift with the "
                        f"other demand (first differing cell {cell}: seen "
                        f"{t0[cell]} times when the other user demands 0, "
                        f"{t1[cell]} when 1)",
                    )
    return True, total, worst, None


def reference_complete_demand(
    cache_rows: Sequence[Sequence[int]],
    demand: Sequence[int],
    t: int,
    n_cols: int,
    tx_dim: int,
) -> tuple[int, ...] | None:
    """The delivery rows the search must pick for one demand, by the rank
    condition itself: user u decodes when every unit row of its file lies in
    span(cache rows of u + delivery rows).  One row: the least nonzero row
    that serves everybody.  More rows (or none): the first span in
    gf2.iter_subspaces order that serves everybody.  None if no span does."""
    if tx_dim == 1:
        candidates = ((x,) for x in range(1, 1 << n_cols))
    else:
        candidates = gf2.iter_subspaces(n_cols, tx_dim)
    for rows in candidates:
        if all(
            gf2.in_span(1 << (f * t + j), gf2.reduced_basis(tuple(cache) + rows))
            for cache, f in zip(cache_rows, demand)
            for j in range(t)
        ):
            return rows
    return None


def file_meet_dims(rows: Sequence[int], n_files: int, t: int) -> list[int]:
    """dim(span(rows) & F_f) per file f, for independent rows: log2 of the
    number of span elements whose bits all lie in file f's columns (f*t to
    f*t + t - 1), with the span listed by XOR-ing rows in, no elimination."""
    span = [0]
    for r in rows:
        span += [x ^ r for x in span]
    dims = []
    for f in range(n_files):
        outside = ((1 << (n_files * t)) - 1) ^ (((1 << t) - 1) << (f * t))
        dims.append(sum(not x & outside for x in span).bit_length() - 1)
    return dims


def minimal_rate_on_grid(memory: Fraction, step: Fraction) -> Fraction:
    """Smallest multiple of step that satisfies every constraint at this
    memory; a cross-check of the closed-form envelope from below."""
    r = Fraction(0)
    while check_inequalities(memory, r):
        r += step
    return r


def mod_sub(a: Sequence[int], b: Sequence[int], modulus: int) -> tuple[int, ...]:
    """Componentwise (a - b) mod modulus."""
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return tuple((x - y) % modulus for x, y in zip(a, b))


def expand_demand(demand: DemandVector, keys: Sequence[int]) -> DemandVector:
    """Expand K real demands into N*K virtual demands using per-user keys.

    Block k of the output is the identity request pattern (0, ..., N-1)
    rotated right by (keys[k] - demand[k]) mod N.  Virtual user k*N + keys[k]
    then requests exactly demand[k], which is what makes the expansion usable
    as a one-time-pad cover story for the real demand.
    """
    n = demand.n_files
    if len(keys) != len(demand):
        raise ValueError("one key per user required")
    ident = identity_vector(n)
    shifts = mod_sub(keys, demand.entries, n)
    blocks = [cyclic_shift(ident, c) for c in shifts]
    flat = tuple(itertools.chain.from_iterable(blocks))
    return DemandVector(n, flat)


def solve_combination_per_target(
    rows: Sequence[int], target: int, n_cols: int
) -> tuple[int, ...] | None:
    """gf2.solve_combination as one elimination of rows per target: the
    reference for the batched gf2.solve_combinations."""
    low_mask = (1 << n_cols) - 1
    piv: dict[int, int] = {}
    for i, row in enumerate(rows):
        aug = (row & low_mask) | (1 << (n_cols + i))
        for pb, pr in piv.items():
            if aug & pb:
                aug ^= pr
        if aug & low_mask:
            pb = 1 << ((aug & low_mask).bit_length() - 1)
            for k in list(piv):
                if piv[k] & pb:
                    piv[k] ^= aug
            piv[pb] = aug
    t = target & low_mask
    for pb, pr in piv.items():
        if t & pb:
            t ^= pr
    if t & low_mask:
        return None
    marker = t >> n_cols
    return tuple((marker >> i) & 1 for i in range(len(rows)))


# ---------------------------------------------------------------------------
# transcript codec: each frame's payload built or sliced out as its own bytes


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


def reference_transcript_bytes(t: SessionTranscript) -> bytes:
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


def reference_parse(buf: bytes, scheme_name: str = "") -> SessionTranscript:
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
            if matched not in (0, 1):
                raise TranscriptError(f"matched octet {matched} is neither 0 nor 1")
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
