"""Concrete caching schemes and the memory-sharing combinator.

The two 2x4 corner schemes serve the cyclic demand set for two files and
four virtual users; lifting them (see cachepriv.lift) yields the private
two-user schemes at the corner points (1/3, 4/3) and (4/3, 1/3) of the
memory-rate trade-off.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import replace
from fractions import Fraction

from .core import (
    SCHEME_MEMO,
    ParameterError,
    Privacy,
    Rows,
    SchemeInstance,
    check_shape,
    cyclic_demand_set,
    form_columns,
    unit_rows,
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
#
# File i's first tc symbols sit in every cache, at cache symbols i*tc onward;
# its other tu symbols are payload.


def split_subpacketization(n_files: int, memory: Fraction) -> tuple[int, int, int]:
    """Smallest t splitting each file into cached and uncached symbol runs.

    Returns (t, cached_per_file, uncached_per_file).
    """
    m = Fraction(memory)
    if not 0 <= m <= n_files:
        raise ParameterError(f"memory {m} outside [0, {n_files}]")
    # with M = a/b in lowest terms, t = bN/g caches M*t/N = a/g symbols
    a, b = m.numerator, m.denominator
    g = math.gcd(a, b * n_files)
    t, tc = b * n_files // g, a // g
    return t, tc, t - tc


def split_recipe(n_files: int, tc: int, tu: int, demand: int, slot: int) -> Rows:
    """The cached run of the demanded file, then payload slot `slot`."""
    return unit_rows(demand * tc, tc) + unit_rows(n_files * tc + slot * tu, tu)


def uncoded_program(n_files: int, n_users: int, t: int, tc: int) -> dict:
    """The tables, as SchemeInstance fields, of identical caches holding the
    first tc symbols of every file, with the remaining symbols of every file
    broadcast, file by file.  The forms are built on their first lookup, so
    a scheme refused before one (by the atom budget, say) builds none."""
    tu = t - tc

    built: dict[tuple[int, int], Rows] = {}

    def rows(start: int, count: int) -> Rows:
        """The count columns of every file from its column start on."""
        if (start, count) not in built:
            cols = range(start, start + count)
            built[start, count] = tuple(
                1 << (i * t + c) for i in range(n_files) for c in cols
            )
        return built[start, count]

    return dict(
        key_sizes=(1,) * n_users,
        header_sizes=(),
        server=(),
        cache=lambda user, key: rows(0, tc),
        delivery=lambda demand, keys, configs: (rows(tc, tu), ()),
        recipe=lambda user, demand, key, header: split_recipe(
            n_files, tc, tu, demand, demand
        ),
    )


@functools.lru_cache(maxsize=SCHEME_MEMO)
def uncoded_baseline(
    n_files: int, n_users: int, memory: Fraction | int | str
) -> SchemeInstance:
    """Cache a memory/n_files share of every file, broadcast all the rest.

    Serves every demand of any number of users at rate n_files - memory.
    """
    check_shape(n_files, n_users)
    m = Fraction(memory)
    t, tc, _tu = split_subpacketization(n_files, m)
    return SchemeInstance(
        **uncoded_program(n_files, n_users, t, tc),
        name=f"baseline:{n_files},{n_users},{m}",
        n_files=n_files,
        n_users=n_users,
        memory=m,
        rate=Fraction(n_files) - m,
        subpacketization=t,
        privacy=Privacy.NON_PRIVATE,
    )


# ---------------------------------------------------------------------------
# memory sharing


def _narrow(rows: Rows, group: int, start: list[int]) -> Rows:
    """Forms over symbols `group` times narrower: input c becomes the group
    inputs start[c] + o, and each output symbol becomes group output
    symbols, least significant first.  A negative form raises IndexError."""
    scattered = [sum(1 << start[c] for c in form_columns(form)) for form in rows]
    return tuple(form << o for form in scattered for o in range(group))


def _narrowing(group_a: int, start_a: list[int], group_b: int, start_b: list[int]):
    """Two parts' forms narrowed (_narrow) and joined, a's first: once per
    distinct pair of forms tuples, and each part's once per distinct tuple."""
    part_a = functools.cache(lambda rows: _narrow(rows, group_a, start_a))
    part_b = functools.cache(lambda rows: _narrow(rows, group_b, start_b))
    return functools.cache(lambda rows_a, rows_b: part_a(rows_a) + part_b(rows_b))


@functools.lru_cache(maxsize=SCHEME_MEMO)
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

    A symbol of a is ga consecutive symbols of the result (gb for b): a's
    column (i, j) becomes columns i*t + j*ga + o, b's sit after the prefix
    x, b's pads after a's, and keys, configurations and headers split a's
    part first."""
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
    if a.served != b.served and set(a.served_demands()) != set(b.served_demands()):
        raise ParameterError("memory sharing needs identical served demands")

    n_files, n_users = a.n_files, a.n_users
    p, q = lam.numerator, lam.denominator
    ta, tb = a.subpacketization, b.subpacketization
    need_a = q * ta // math.gcd(p, q * ta)
    need_b = q * tb // math.gcd(q - p, q * tb)
    t = need_a * need_b // math.gcd(need_a, need_b)
    x = int(lam * t)
    ga, gb = x // ta, (t - x) // tb

    counts: list[int] = []
    for s in (a, b):
        syms = (s.memory * s.subpacketization, s.rate * s.subpacketization)
        if any(v.denominator != 1 for v in syms):
            raise ParameterError(f"{s.name} has non-integral symbol counts")
        if syms == (0, 0):
            raise ParameterError(f"{s.name} has no cache and no payload")
        counts += map(int, syms)
    ca, pay_a, cb, pay_b = counts

    # where each column and each decoder input of a and b starts
    pads_a, pads_b = (sum(pads for _, pads in s.server) for s in (a, b))
    col_a = [i * t + j * ga for i in range(n_files) for j in range(ta)]
    col_a += [n_files * t + p * ga for p in range(pads_a)]
    col_b = [i * t + x + j * gb for i in range(n_files) for j in range(tb)]
    col_b += [n_files * t + pads_a * ga + p * gb for p in range(pads_b)]
    cached = ca * ga + cb * gb
    in_a = [i * ga for i in range(ca)] + [cached + i * ga for i in range(pay_a)]
    in_b = [ca * ga + i * gb for i in range(cb)]
    in_b += [cached + pay_a * ga + i * gb for i in range(pay_b)]
    parts_a, headers_a = len(a.server), len(a.header_sizes)
    # the cache and delivery forms read columns, the recipe forms inputs
    columns, inputs = _narrowing(ga, col_a, gb, col_b), _narrowing(ga, in_a, gb, in_b)
    # each part delivery recurs under every key and configuration of the
    # other, and each pair of part headers with it: one joined header per pair
    deliver_a, deliver_b = functools.cache(a.delivery), functools.cache(b.delivery)
    joined = functools.cache(operator.add)

    def cache(user: int, key: int) -> Rows:
        size = a.key_sizes[user]
        rows_a, rows_b = a.cache(user, key % size), b.cache(user, key // size)
        return columns(rows_a, rows_b)

    def delivery(demand, keys, configs):
        keys_a = tuple([k % size for k, size in zip(keys, a.key_sizes)])
        keys_b = tuple([k // size for k, size in zip(keys, a.key_sizes)])
        rows_a, header_a = deliver_a(demand, keys_a, configs[:parts_a])
        rows_b, header_b = deliver_b(demand, keys_b, configs[parts_a:])
        return columns(rows_a, rows_b), joined(header_a, header_b)

    def recipe(user, demand, key, header):
        size = a.key_sizes[user]
        rows_a = a.recipe(user, demand, key % size, header[:headers_a])
        rows_b = b.recipe(user, demand, key // size, header[headers_a:])
        return inputs(rows_a, rows_b)

    return SchemeInstance(
        name=f"share:{lam}:{a.name}:{b.name}",
        n_files=n_files,
        n_users=n_users,
        memory=lam * a.memory + (1 - lam) * b.memory,
        rate=lam * a.rate + (1 - lam) * b.rate,
        subpacketization=t,
        key_sizes=tuple(ka * kb for ka, kb in zip(a.key_sizes, b.key_sizes)),
        header_sizes=a.header_sizes + b.header_sizes,
        server=tuple((c, pads * ga) for c, pads in a.server)
        + tuple((c, pads * gb) for c, pads in b.server),
        cache=cache,
        delivery=delivery,
        recipe=recipe,
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

    def delivery(demand, keys, configs):
        rows, header = s.delivery(demand, keys, configs)
        return rows, header + demand

    return replace(
        s,
        name=f"{s.name}+plaintext-header",
        header_sizes=s.header_sizes + (s.n_files,) * s.n_users,
        delivery=delivery,
        recipe=lambda user, demand, key, header: s.recipe(
            user, demand, key, header[: len(s.header_sizes)]
        ),
        privacy=Privacy.PRIVATE,
        served=None,
    )
