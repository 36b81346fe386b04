"""Concrete caching schemes and the memory-sharing combinator.

The two 2x4 corner schemes serve the cyclic demand set for two files and
four virtual users; lifting them (see cachepriv.lift) yields the private
two-user schemes at the corner points (1/3, 4/3) and (4/3, 1/3) of the
memory-rate trade-off.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

from .core import (
    CacheContent,
    DeliveryMessage,
    DemandVector,
    FileStore,
    KeyAssignment,
    ParameterError,
    Privacy,
    SchemeInstance,
    SubfileSymbol,
    cyclic_demand_set,
    full_demand_set,
    pack_symbols,
    split_bits,
)
from .search import LinearSchemeMatrices, compile_linear_scheme

# ---------------------------------------------------------------------------
# the low-memory (M, R) = (1/3, 4/3) corner for 2 files x 4 virtual users
#
# Columns 0..5 are file 0 subfiles 1..3 then file 1 subfiles 1..3.  Each
# virtual user caches one XOR of subfiles; each cyclic demand is served by
# four broadcast rows.

LOW_MEMORY_2X4_CACHES: tuple[tuple[int, ...], ...] = (
    (0b001001,),  # subfile 1 of both files
    (0b100100,),  # subfile 3 of both files
    (0b010010,),  # subfile 2 of both files
    (0b111111,),  # XOR of everything
)

LOW_MEMORY_2X4_DELIVERIES: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((0, 1, 0, 1), (0b001000, 0b010000, 0b000100, 0b000111)),
    ((0, 1, 1, 0), (0b000010, 0b000100, 0b001000, 0b111000)),
    ((1, 0, 0, 1), (0b010000, 0b100000, 0b000001, 0b000111)),
    ((1, 0, 1, 0), (0b000001, 0b000010, 0b100000, 0b111000)),
)

# ---------------------------------------------------------------------------
# the high-memory (M, R) = (4/3, 1/3) corner, found by search_linear_scheme
# (restart strategy, seed 0) and frozen here; regenerate and compare with
# `cachepriv search --regen`.

HIGH_MEMORY_2X4_CACHES: tuple[tuple[int, ...], ...] = (
    (0b100000, 0b011000, 0b000101, 0b000010),
    (0b100000, 0b010000, 0b000100, 0b000010),
    (0b110000, 0b001000, 0b000110, 0b000001),
    (0b010000, 0b001000, 0b000100, 0b000001),
)

HIGH_MEMORY_2X4_DELIVERIES: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((0, 1, 0, 1), (0b111100,)),
    ((0, 1, 1, 0), (0b011110,)),
    ((1, 0, 0, 1), (0b110101,)),
    ((1, 0, 1, 0), (0b010111,)),
)

HIGH_MEMORY_SEARCH_SEED = 0


def low_memory_2x4_matrices() -> LinearSchemeMatrices:
    return LinearSchemeMatrices(
        2, 4, 3, LOW_MEMORY_2X4_CACHES, LOW_MEMORY_2X4_DELIVERIES
    )


def high_memory_2x4_matrices() -> LinearSchemeMatrices:
    return LinearSchemeMatrices(
        2, 4, 3, HIGH_MEMORY_2X4_CACHES, HIGH_MEMORY_2X4_DELIVERIES
    )


def low_memory_2x4_scheme() -> SchemeInstance:
    """(2 files, 4 virtual users) cyclic-demand scheme at (M, R) = (1/3, 4/3)."""
    return compile_linear_scheme(
        low_memory_2x4_matrices(), cyclic_demand_set(2, 2), "lowmem2x4"
    )


def high_memory_2x4_scheme() -> SchemeInstance:
    """(2 files, 4 virtual users) cyclic-demand scheme at (M, R) = (4/3, 1/3)."""
    return compile_linear_scheme(
        high_memory_2x4_matrices(), cyclic_demand_set(2, 2), "highmem2x4"
    )


# ---------------------------------------------------------------------------
# uncoded split placement shared by the baseline and the basic private scheme


def split_subpacketization(n_files: int, memory: Fraction) -> tuple[int, int, int]:
    """Smallest t splitting each file into cached and uncached symbol runs.

    Returns (t, cached_per_file, uncached_per_file).
    """
    m = Fraction(memory)
    if not 0 <= m <= n_files:
        raise ParameterError(f"memory {m} outside [0, {n_files}]")
    a, b = m.numerator, m.denominator
    t = (b * n_files) // math.gcd(a, b * n_files)
    cached = m * t / n_files
    if cached.denominator != 1:
        raise ParameterError(f"cannot split files for memory {m}")
    tc = int(cached)
    return t, tc, t - tc


def uncoded_split_functions(n_files: int, t: int, tc: int):
    """place/deliver/decode for identical caches holding the first tc symbols
    of every file, with the remaining symbols of every file broadcast."""

    tu = t - tc

    def place(keys: KeyAssignment, store: FileStore) -> tuple[CacheContent, ...]:
        symbols = tuple(
            store.symbols[i][j] for i in range(n_files) for j in range(tc)
        )
        return tuple(CacheContent(symbols, k) for k in keys.user_keys)

    def deliver(
        store: FileStore, demand: DemandVector, keys: KeyAssignment
    ) -> DeliveryMessage:
        payload = tuple(
            store.symbols[i][tc + j] for i in range(n_files) for j in range(tu)
        )
        return DeliveryMessage(payload, ())

    def decode(
        user: int, demand: int, key: int, msg: DeliveryMessage, cache: CacheContent
    ) -> tuple[SubfileSymbol, ...]:
        cached = cache.symbols[demand * tc : (demand + 1) * tc]
        uncached = msg.payload[demand * tu : (demand + 1) * tu]
        return cached + uncached

    return place, deliver, decode


def uncoded_baseline(
    n_files: int, n_users: int, memory: Fraction | int | str
) -> SchemeInstance:
    """Cache a memory/n_files share of every file, broadcast all the rest.

    Serves every demand of any number of users at rate n_files - memory.
    """
    m = Fraction(memory)
    t, tc, _tu = split_subpacketization(n_files, m)
    place, deliver, decode = uncoded_split_functions(n_files, t, tc)
    return SchemeInstance(
        name=f"baseline:{n_files},{n_users},{m}",
        n_files=n_files,
        n_users=n_users,
        memory=m,
        rate=Fraction(n_files) - m,
        subpacketization=t,
        key_sizes=(1,) * n_users,
        header_sizes=(),
        server_random_size=lambda width: 1,
        place=place,
        deliver=deliver,
        decode=decode,
        privacy=Privacy.NON_PRIVATE,
        served=full_demand_set(n_files, n_users),
    )


# ---------------------------------------------------------------------------
# memory sharing


def memory_share(
    a: SchemeInstance, b: SchemeInstance, share: Fraction | int | str
) -> SchemeInstance:
    """Split every file into a `share` prefix run by scheme a and the
    complementary suffix run by scheme b.

    Both parameters combine linearly and exactly: the result has memory
    share*M_a + (1-share)*M_b and rate share*R_a + (1-share)*R_b, headers
    and key alphabets are the per-segment products, and the combined
    subpacketization is the smallest t that makes both segments whole
    numbers of each constituent's subfiles.
    """
    lam = Fraction(share)
    if not 0 <= lam <= 1:
        raise ParameterError(f"share {lam} outside [0, 1]")
    if lam == 1:
        return a
    if lam == 0:
        return b
    if (a.n_files, a.n_users) != (b.n_files, b.n_users):
        raise ParameterError("memory sharing needs identical (files, users)")
    if a.privacy is not b.privacy:
        raise ParameterError("memory sharing needs matching privacy classes")
    if a.privacy is Privacy.NON_PRIVATE:
        if set(a.served.members) != set(b.served.members):  # type: ignore[union-attr]
            raise ParameterError("memory sharing needs identical served demands")

    n_files, n_users = a.n_files, a.n_users
    p, q = lam.numerator, lam.denominator
    ta, tb = a.subpacketization, b.subpacketization
    need_a = q * ta // math.gcd(p, q * ta)
    need_b = q * tb // math.gcd(q - p, q * tb)
    t = need_a * need_b // math.gcd(need_a, need_b)
    x = int(lam * t)
    ga, gb = x // ta, (t - x) // tb

    counts = {}
    for tag, s in (("a", a), ("b", b)):
        cache_syms = s.memory * s.subpacketization
        pay_syms = s.rate * s.subpacketization
        if cache_syms.denominator != 1 or pay_syms.denominator != 1:
            raise ParameterError(f"{s.name} has non-integral symbol counts")
        counts[tag] = (int(cache_syms), int(pay_syms))
        if counts[tag] == (0, 0):
            raise ParameterError(f"{s.name} has no cache and no payload")
    (ca_count, pa_count), (cb_count, pb_count) = counts["a"], counts["b"]

    def regroup(store: FileStore, start: int, group: int, count: int) -> FileStore:
        w = store.symbol_width
        rows = []
        for i in range(n_files):
            row = []
            for j in range(count):
                seg = store.symbols[i][start + j * group : start + (j + 1) * group]
                value, _ = pack_symbols(seg)
                row.append(SubfileSymbol(group * w, value))
            rows.append(tuple(row))
        return FileStore(n_files, count, group * w, tuple(rows))

    def split_keys(keys: KeyAssignment, width: int):
        ka, kb = [], []
        for u, k in enumerate(keys.user_keys):
            ka.append(k % a.key_sizes[u])
            kb.append(k // a.key_sizes[u])
        pa = keys.server_random % a.server_random_size(ga * width)
        pb = keys.server_random // a.server_random_size(ga * width)
        return (
            KeyAssignment(tuple(ka), pa),
            KeyAssignment(tuple(kb), pb),
        )

    def place(keys: KeyAssignment, store: FileStore) -> tuple[CacheContent, ...]:
        keys_a, keys_b = split_keys(keys, store.symbol_width)
        caches_a = a.place(keys_a, regroup(store, 0, ga, ta))
        caches_b = b.place(keys_b, regroup(store, x, gb, tb))
        return tuple(
            CacheContent(
                caches_a[u].symbols + caches_b[u].symbols, keys.user_keys[u]
            )
            for u in range(n_users)
        )

    def deliver(
        store: FileStore, demand: DemandVector, keys: KeyAssignment
    ) -> DeliveryMessage:
        keys_a, keys_b = split_keys(keys, store.symbol_width)
        msg_a = a.deliver(regroup(store, 0, ga, ta), demand, keys_a)
        msg_b = b.deliver(regroup(store, x, gb, tb), demand, keys_b)
        return DeliveryMessage(
            msg_a.payload + msg_b.payload, msg_a.header + msg_b.header
        )

    def decode(
        user: int, demand: int, key: int, msg: DeliveryMessage, cache: CacheContent
    ) -> tuple[SubfileSymbol, ...]:
        if ca_count:
            width = cache.symbols[0].width // ga
        else:
            width = msg.payload[0].width // ga
        k_a, k_b = key % a.key_sizes[user], key // a.key_sizes[user]
        cache_a = CacheContent(cache.symbols[:ca_count], k_a)
        cache_b = CacheContent(cache.symbols[ca_count:], k_b)
        msg_a = DeliveryMessage(
            msg.payload[:pa_count], msg.header[: len(a.header_sizes)]
        )
        msg_b = DeliveryMessage(
            msg.payload[pa_count:], msg.header[len(a.header_sizes) :]
        )
        part_a = a.decode(user, demand, k_a, msg_a, cache_a)
        part_b = b.decode(user, demand, k_b, msg_b, cache_b)
        out: list[SubfileSymbol] = []
        for sym in part_a:
            out.extend(split_bits(sym.value, width, ga))
        for sym in part_b:
            out.extend(split_bits(sym.value, width, gb))
        return tuple(out)

    return SchemeInstance(
        name=f"share:{lam}:{a.name}:{b.name}",
        n_files=n_files,
        n_users=n_users,
        memory=lam * a.memory + (1 - lam) * b.memory,
        rate=lam * a.rate + (1 - lam) * b.rate,
        subpacketization=t,
        key_sizes=tuple(
            a.key_sizes[u] * b.key_sizes[u] for u in range(n_users)
        ),
        header_sizes=a.header_sizes + b.header_sizes,
        server_random_size=lambda width: (
            a.server_random_size(ga * width) * b.server_random_size(gb * width)
        ),
        place=place,
        deliver=deliver,
        decode=decode,
        privacy=a.privacy,
        served=a.served,
    )


# ---------------------------------------------------------------------------
# negative control


def with_plaintext_demand_header(s: SchemeInstance) -> SchemeInstance:
    """Append the clear demand vector to the header and relabel the scheme
    as private.  This deliberately leaks every demand; it exists to give the
    privacy checker something that must fail."""
    if s.served is not None and len(s.served) != s.n_files**s.n_users:
        raise ParameterError("control wrapper needs a scheme serving all demands")
    base_header = len(s.header_sizes)

    def deliver(
        store: FileStore, demand: DemandVector, keys: KeyAssignment
    ) -> DeliveryMessage:
        msg = s.deliver(store, demand, keys)
        return DeliveryMessage(msg.payload, msg.header + tuple(demand))

    def decode(
        user: int, demand: int, key: int, msg: DeliveryMessage, cache: CacheContent
    ) -> tuple[SubfileSymbol, ...]:
        inner = DeliveryMessage(msg.payload, msg.header[:base_header])
        return s.decode(user, demand, key, inner, cache)

    return replace(
        s,
        name=f"{s.name}+plaintext-header",
        header_sizes=s.header_sizes + (s.n_files,) * s.n_users,
        deliver=deliver,
        decode=decode,
        privacy=Privacy.PRIVATE,
        served=None,
    )
