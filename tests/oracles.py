"""Independent oracles used by the test suite, and the helpers they share.

These deliberately avoid the library's own decode and counting paths so the
checks they back are not self-referential: decodability is judged from the
information available to a user, mutual information is recomputed from
entropies, linear rows are applied one output bit at a time, the
verifier's sweep is redone atom by atom with no memo through the scheme's
own place, deliver and decode, and delivery rows are
found by testing the rank condition on every candidate span, and the
rate envelope is found by stepping up a grid until every constraint holds.
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

from cachepriv import gf2
from cachepriv.core import (
    DemandVector,
    FileStore,
    SchemeInstance,
    cyclic_shift,
    identity_vector,
    pack_symbols,
)
from cachepriv.region import check_inequalities
from cachepriv.verifier import DecodeCounterexample, IndependenceCounterexample


def with_tables(s: SchemeInstance, **tables) -> SchemeInstance:
    """s with some tables of its column program replaced, for example a
    corrupted recipe."""
    return replace(s, program=replace(s.program, **tables))


def atom_total(s: SchemeInstance, width: int = 1) -> int:
    """Atoms in the joint space, from the sizes of its four factors."""
    return (
        FileStore.space_size(s.n_files, s.subpacketization, width)
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
    packed = store.index()
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
    """Plug-in mutual information, summed over the joint cells in insertion
    order the way the verifier sums it, so the floats agree exactly."""
    mi = 0.0
    for (l, r), c in joint.items():
        mi += (c / total) * math.log2(c * total / (left[l] * right[r]))
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
                            store.index(),
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
            joint[u][(demand.drop(u), view)] += 1
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
