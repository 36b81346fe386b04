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

import functools
import itertools
import math
from fractions import Fraction

from .core import (
    SCHEME_MEMO,
    ParameterError,
    Privacy,
    Rows,
    SchemeInstance,
    check_shape,
    cyclic_demand_set,
)
from .schemes import (
    high_memory_2x4_scheme,
    low_memory_2x4_scheme,
    split_recipe,
    split_subpacketization,
    uncoded_program,
)


def _slot_assignment(demand: tuple[int, ...], rank: int, k: int) -> list[int]:
    """Slot per user: fresh demands take the rank-th unused slot of k in
    ascending candidate order, repeats reuse the earlier slot."""
    draws = []
    for size in range(k, 0, -1):
        rank, c = divmod(rank, size)
        draws.append(c)
    slots: dict[int, int] = {}
    free = list(range(k))
    for d in demand:
        if d not in slots:
            slots[d] = free.pop(draws[len(slots)])
    return [slots[d] for d in demand]


@functools.lru_cache(maxsize=SCHEME_MEMO)
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
    check_shape(n_files, n_users)
    m = Fraction(memory)
    t, tc, tu = split_subpacketization(n_files, m)
    base = uncoded_program(n_files, n_users, t, tc)
    params = dict(
        name=f"thm1:{n_files},{n_users},{m}",
        n_files=n_files,
        n_users=n_users,
        memory=m,
        subpacketization=t,
        privacy=Privacy.PRIVATE,
    )
    if n_files <= n_users:
        return SchemeInstance(**base, rate=Fraction(n_files) - m, **params)

    k, n_cols = n_users, n_files * t

    @functools.cache
    def slotted(demand: tuple[int, ...], rank: int) -> tuple[list[int], Rows]:
        """The slot per user and the payload forms: slot i carries the
        uncached run of the file assigned to it, or else pads i*tu onward."""
        order = _slot_assignment(demand, rank, k)
        starts = [n_cols + i * tu for i in range(k)]
        for i, d in zip(order, demand):
            starts[i] = d * t + tc
        rows = tuple(1 << c for start in starts for c in range(start, start + tu))
        return order, rows

    def delivery(demand, keys, configs):
        # the configuration is the slot rank; only the header reads the keys
        order, rows = slotted(demand, configs[0])
        return rows, tuple([(slot + key) % k for slot, key in zip(order, keys)])

    # a user's key and header name its slot, and the forms depend on no more
    reading = functools.cache(functools.partial(split_recipe, n_files, tc, tu))

    return SchemeInstance(
        rate=k * (1 - m / n_files),
        key_sizes=(k,) * k,
        header_sizes=(k,) * k,
        server=((math.factorial(k), k * tu),),
        cache=base["cache"],
        delivery=delivery,
        recipe=lambda user, demand, key, header: reading(
            demand, (header[user] - key) % k
        ),
        **params,
    )


@functools.lru_cache(maxsize=SCHEME_MEMO)
def lift_private(np: SchemeInstance, name: str | None = None) -> SchemeInstance:
    """Private K-user scheme from a cyclic-demand scheme for N*K virtual users.

    User k's key S_k is uniform over [N] and selects virtual user k*N + S_k,
    whose cache user k stores.  For demands D the broadcast reuses the
    virtual scheme's delivery for the expanded demand built from the shifts
    (S_k - D_k) mod N, and the header publishes exactly those shifts. Since
    the keys are uniform pads, the shifts (and hence everything sent) are
    independent of the real demands, while virtual user k*N + S_k always
    requests D_k, which keeps decoding intact.  The expanded demand is
    looked up in the cyclic demand set by its shifts.
    """
    n = np.n_files
    if np.privacy is not Privacy.NON_PRIVATE:
        raise ParameterError("lifting expects a non-private scheme")
    if np.n_users % n:
        raise ParameterError("virtual user count must be a multiple of the file count")
    k = np.n_users // n
    cyc = cyclic_demand_set(n, k)
    # a scheme whose served set is None serves every demand
    missing = [m for m in cyc if np.served is not None and m not in np.served]
    if missing:
        raise ParameterError(f"scheme does not serve cyclic demand {missing[0]}")
    if any(size != 1 for size in np.key_sizes) or np.server_random_size(1) != 1:
        raise ParameterError("lifting expects a deterministic keyless scheme")
    trivial = (0,) * np.n_users

    # the members are listed in itertools.product order of their shifts
    expanded = dict(zip(itertools.product(range(n), repeat=k), cyc.members))

    def delivery(demand, keys, configs):
        shifts = tuple((key - d) % n for key, d in zip(keys, demand))
        rows, _ = np.delivery(expanded[shifts], trivial, ())
        return rows, shifts

    def recipe(user, demand, key, header):
        v, virtual = user * n + key, expanded[header]
        _, inner_header = np.delivery(virtual, trivial, ())
        return np.recipe(v, virtual[v], 0, inner_header)

    return SchemeInstance(
        name=name or f"lifted:{np.name}",
        n_files=n,
        n_users=k,
        memory=np.memory,
        rate=np.rate,
        subpacketization=np.subpacketization,
        key_sizes=(n,) * k,
        header_sizes=(n,) * k,
        server=(),
        cache=lambda user, key: np.cache(user * n + key, 0),
        delivery=delivery,
        recipe=recipe,
        privacy=Privacy.PRIVATE,
    )


def low_memory_private_scheme() -> SchemeInstance:
    """Two-file, two-user private scheme at (M, R) = (1/3, 4/3)."""
    return lift_private(low_memory_2x4_scheme(), "example1")


def high_memory_private_scheme() -> SchemeInstance:
    """Two-file, two-user private scheme at (M, R) = (4/3, 1/3)."""
    return lift_private(high_memory_2x4_scheme(), "dual")
