"""Private scheme constructions.

Two routes to demand privacy live here.  basic_private_scheme places the
same cached prefix of every file at every user and either broadcasts all
uncached data (enough files for everyone, no demand dependence at all) or
hides each request inside a one-time-padded payload slot.  lift_private
turns any scheme that serves the cyclic demand set for N*K virtual users
into a private scheme for K real users: each user's key secretly selects
one virtual user per stack of N, and the broadcast only ever refers to the
expanded virtual demand, which is statistically independent of the real one.
"""

from __future__ import annotations

import math
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
    cyclic_shift,
    identity_vector,
    mod_sub,
    split_bits,
)
from .schemes import (
    high_memory_2x4_scheme,
    low_memory_2x4_scheme,
    split_subpacketization,
    uncoded_split_functions,
)


def basic_private_scheme(
    n_files: int, n_users: int, memory: Fraction | int | str
) -> SchemeInstance:
    """Identical-cache private scheme at rate min(N, K) * (1 - M/N).

    With n_files <= n_users the delivery broadcasts the uncached part of
    every file, so nothing about the demands is transmitted: the header is
    empty and keys are degenerate.  With more files than users, each
    requested file's uncached part is placed in one of K payload slots at a
    position drawn from the server's randomness (equal demands share a
    slot), unused slots carry uniform filler, and the header publishes each
    slot index shifted by the user's key modulo K.
    """
    m = Fraction(memory)
    t, tc, tu = split_subpacketization(n_files, m)
    name = f"thm1:{n_files},{n_users},{m}"

    if n_files <= n_users:
        place, deliver, decode = uncoded_split_functions(n_files, t, tc)
        return SchemeInstance(
            name=name,
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
            privacy=Privacy.PRIVATE,
            served=None,
        )

    k = n_users
    kfact = math.factorial(k)

    def fill_space(width: int) -> int:
        return 1 << (k * tu * width)

    def slot_assignment(demand: DemandVector, rank: int) -> list[int]:
        """Slot per user: fresh demands take the rank-th unused slot in
        ascending candidate order, repeats reuse the earlier slot."""
        draws = []
        for size in range(k, 0, -1):
            rank, c = divmod(rank, size)
            draws.append(c)
        slots: dict[int, int] = {}
        used: set[int] = set()
        order = []
        for d in demand:
            if d not in slots:
                cand = [s for s in range(k) if s not in used]
                slots[d] = cand[draws[len(used)]]
                used.add(slots[d])
            order.append(slots[d])
        return order

    place, _, _ = uncoded_split_functions(n_files, t, tc)

    def deliver(
        store: FileStore, demand: DemandVector, keys: KeyAssignment
    ) -> DeliveryMessage:
        width = store.symbol_width
        rank, fill = divmod(keys.server_random, fill_space(width))
        order = slot_assignment(demand, rank)
        per_slot_bits = tu * width
        by_slot: dict[int, tuple[SubfileSymbol, ...]] = {}
        for user, d in enumerate(demand):
            by_slot[order[user]] = tuple(store.symbols[d][tc:])
        payload: list[SubfileSymbol] = []
        for slot in range(k):
            if slot in by_slot:
                payload.extend(by_slot[slot])
            else:
                chunk = (fill >> (slot * per_slot_bits)) & ((1 << per_slot_bits) - 1)
                payload.extend(split_bits(chunk, width, tu))
        header = tuple(
            (order[user] + keys.user_keys[user]) % k for user in range(k)
        )
        return DeliveryMessage(tuple(payload), header)

    def decode(
        user: int, demand: int, key: int, msg: DeliveryMessage, cache: CacheContent
    ) -> tuple[SubfileSymbol, ...]:
        slot = (msg.header[user] - key) % k
        cached = cache.symbols[demand * tc : (demand + 1) * tc]
        uncached = msg.payload[slot * tu : (slot + 1) * tu]
        return cached + uncached

    return SchemeInstance(
        name=name,
        n_files=n_files,
        n_users=n_users,
        memory=m,
        rate=k * (1 - m / n_files),
        subpacketization=t,
        key_sizes=(k,) * k,
        header_sizes=(k,) * k,
        server_random_size=lambda width: kfact * fill_space(width),
        place=place,
        deliver=deliver,
        decode=decode,
        privacy=Privacy.PRIVATE,
        served=None,
    )


def lift_private(np: SchemeInstance, name: str | None = None) -> SchemeInstance:
    """Private K-user scheme from a cyclic-demand scheme for N*K virtual users.

    User k's key S_k is uniform over [N] and selects virtual user k*N + S_k,
    whose cache user k stores.  For demands D the broadcast reuses the
    virtual scheme's delivery for the expanded demand built from the shifts
    (S_k - D_k) mod N, and the header publishes exactly those shifts. Since
    the keys are uniform pads, the shifts (and hence everything sent) are
    independent of the real demands, while virtual user k*N + S_k always
    requests D_k, which keeps decoding intact.
    """
    n = np.n_files
    if np.privacy is not Privacy.NON_PRIVATE:
        raise ParameterError("lifting expects a non-private scheme")
    if np.n_users % n:
        raise ParameterError("virtual user count must be a multiple of the file count")
    k = np.n_users // n
    cyc = cyclic_demand_set(n, k)
    served = np.served_demands()
    missing = [m for m in cyc if m not in served]
    if missing:
        raise ParameterError(f"scheme does not serve cyclic demand {missing[0]}")
    if any(size != 1 for size in np.key_sizes) or np.server_random_size(1) != 1:
        raise ParameterError("lifting expects a deterministic keyless scheme")

    ident = identity_vector(n)
    trivial = KeyAssignment((0,) * np.n_users, 0)

    def expanded(shifts: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for c in shifts:
            out.extend(cyclic_shift(ident, c))
        return tuple(out)

    def place(keys: KeyAssignment, store: FileStore) -> tuple[CacheContent, ...]:
        virtual = np.place(trivial, store)
        return tuple(
            CacheContent(virtual[u * n + keys.user_keys[u]].symbols, keys.user_keys[u])
            for u in range(k)
        )

    def deliver(
        store: FileStore, demand: DemandVector, keys: KeyAssignment
    ) -> DeliveryMessage:
        shifts = mod_sub(keys.user_keys, demand.entries, n)
        virtual_demand = DemandVector(n, expanded(shifts))
        msg = np.deliver(store, virtual_demand, trivial)
        return DeliveryMessage(msg.payload, shifts)

    def decode(
        user: int, demand: int, key: int, msg: DeliveryMessage, cache: CacheContent
    ) -> tuple[SubfileSymbol, ...]:
        virtual_demand = expanded(msg.header)
        v = user * n + key
        inner = DeliveryMessage(msg.payload, virtual_demand)
        return np.decode(v, virtual_demand[v], 0, inner, CacheContent(cache.symbols, 0))

    return SchemeInstance(
        name=name or f"lifted:{np.name}",
        n_files=n,
        n_users=k,
        memory=np.memory,
        rate=np.rate,
        subpacketization=np.subpacketization,
        key_sizes=(n,) * k,
        header_sizes=(n,) * k,
        server_random_size=lambda width: 1,
        place=place,
        deliver=deliver,
        decode=decode,
        privacy=Privacy.PRIVATE,
        served=None,
    )


def low_memory_private_scheme() -> SchemeInstance:
    """Two-file, two-user private scheme at (M, R) = (1/3, 4/3)."""
    return lift_private(low_memory_2x4_scheme(), "example1")


def high_memory_private_scheme() -> SchemeInstance:
    """Two-file, two-user private scheme at (M, R) = (4/3, 1/3)."""
    return lift_private(high_memory_2x4_scheme(), "dual")
