"""Exhaustive scheme verification by exact enumeration.

Correctness and privacy are decided over the full joint space of file
realizations, demands, user keys, and server randomness.  Independence is
judged by an exact integer identity on count tables; the mutual-information
figure attached to a verdict is a float diagnostic only and never decides
pass or fail.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    CacheContent,
    DeliveryMessage,
    DemandVector,
    FileStore,
    KeyAssignment,
    ParameterError,
    Privacy,
    SchemeError,
    SchemeInstance,
    pack_symbols,
)

DEFAULT_BUDGET = 1 << 28
BUDGET_ENV_VAR = "CACHEPRIV_BUDGET"


class BudgetExceeded(SchemeError):
    """The requested enumeration is larger than the atom budget."""

    def __init__(self, required: int, budget: int) -> None:
        super().__init__(
            f"enumeration needs {required} atoms, budget is {budget} "
            f"(override with {BUDGET_ENV_VAR})"
        )
        self.required = required
        self.budget = budget


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_BUDGET


@dataclass(frozen=True)
class DecodeCounterexample:
    store_index: int
    demand: tuple[int, ...]
    user_keys: tuple[int, ...]
    server_random: int
    user: int
    expected: tuple[int, ...]
    actual: tuple[int, ...]

    def __str__(self) -> str:
        return (
            f"user {self.user} under demand {self.demand} "
            f"(store #{self.store_index}, keys {self.user_keys}, "
            f"server randomness {self.server_random}): "
            f"decoded {self.actual}, wanted {self.expected}"
        )


@dataclass(frozen=True)
class IndependenceCounterexample:
    left: tuple[int, ...]
    joint_count: int
    left_count: int
    right_count: int
    total: int

    def __str__(self) -> str:
        return (
            f"cell with other-user demands {self.left}: "
            f"{self.joint_count}*{self.total} != "
            f"{self.left_count}*{self.right_count}"
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of one exhaustive check."""

    passed: bool
    cases: int
    counterexample: object | None = None
    mi_bits: float | None = None


# ---------------------------------------------------------------------------
# atom space


@dataclass(frozen=True)
class AtomSpace:
    """The joint space (stores x demands x keys x server randomness)."""

    scheme: SchemeInstance
    width: int
    store_count: int
    demands: tuple[tuple[int, ...], ...]
    key_sizes: tuple[int, ...]
    server_count: int

    @property
    def total(self) -> int:
        return (
            self.store_count
            * len(self.demands)
            * math.prod(self.key_sizes)
            * self.server_count
        )

    def atom(self, index: int) -> tuple[FileStore, DemandVector, KeyAssignment]:
        s = self.scheme
        index, p = divmod(index, self.server_count)
        keys = []
        for size in self.key_sizes:
            index, k = divmod(index, size)
            keys.append(k)
        index, d = divmod(index, len(self.demands))
        store = FileStore.from_index(s.n_files, s.subpacketization, self.width, index)
        return (
            store,
            DemandVector(s.n_files, self.demands[d]),
            KeyAssignment(tuple(keys), p),
        )

    def iter_atoms(self) -> Iterator[tuple[FileStore, DemandVector, KeyAssignment]]:
        for i in range(self.total):
            yield self.atom(i)


def atom_space(s: SchemeInstance, width: int) -> AtomSpace:
    demands = s.served_demands().members
    return AtomSpace(
        scheme=s,
        width=width,
        store_count=FileStore.space_size(s.n_files, s.subpacketization, width),
        demands=demands,
        key_sizes=s.key_sizes,
        server_count=s.server_random_size(width),
    )


def _check_budget(s: SchemeInstance, width: int, budget: int | None) -> int:
    """Atom-count arithmetic, done before any demand set is materialized."""
    limit = resolve_budget(budget)
    required = (
        FileStore.space_size(s.n_files, s.subpacketization, width)
        * s.n_served()
        * math.prod(s.key_sizes)
        * s.server_random_size(width)
    )
    if required > limit:
        raise BudgetExceeded(required, limit)
    return required


def _encode_ints(values: Iterable[int]) -> bytes:
    """Canonical byte string for a flat tuple of nonnegative ints."""
    out = bytearray()
    for v in values:
        b = v.to_bytes((v.bit_length() + 7) // 8 or 1, "little")
        out += len(b).to_bytes(4, "little")
        out += b
    return bytes(out)


def _observable(cache: CacheContent, msg: DeliveryMessage, own_demand: int) -> bytes:
    cache_val, cache_len = pack_symbols(cache.symbols)
    pay_val, pay_len = pack_symbols(msg.payload)
    return _encode_ints(
        (cache_val, cache_len, cache.key, pay_val, pay_len)
        + msg.header
        + (own_demand,)
    )


# ---------------------------------------------------------------------------
# joint count tables


@dataclass
class JointDistribution:
    """Exact joint counts of (left, right) observations over an atom space."""

    total: int = 0
    joint: Counter = field(default_factory=Counter)
    left: Counter = field(default_factory=Counter)
    right: Counter = field(default_factory=Counter)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, object]]) -> "JointDistribution":
        dist = cls()
        for l, r in pairs:
            dist.add(l, r)
        return dist

    def add(self, l: object, r: object) -> None:
        self.joint[(l, r)] += 1
        self.left[l] += 1
        self.right[r] += 1
        self.total += 1

    def first_violation(self) -> tuple[object, object, int] | None:
        """First (left, right, count) cell breaking the exact product identity.

        Checks every pair in the product of observed margins, so structurally
        missing cells (count zero with positive margins) are caught too.
        """
        for l in self.left:
            for r in self.right:
                c = self.joint.get((l, r), 0)
                if c * self.total != self.left[l] * self.right[r]:
                    return (l, r, c)
        return None

    def verdict(self) -> Verdict:
        """Exact independence verdict, with the MI diagnostic attached."""
        violation = self.first_violation()
        counterexample = None
        if violation is not None:
            l, r, c = violation
            counterexample = IndependenceCounterexample(
                l, c, self.left[l], self.right[r], self.total  # type: ignore[arg-type]
            )
        mi = self.mutual_information_bits()
        return Verdict(violation is None, self.total, counterexample, mi)

    def mutual_information_bits(self) -> float:
        total = self.total
        mi = 0.0
        for (l, r), c in self.joint.items():
            if c:
                mi += (c / total) * math.log2(
                    c * total / (self.left[l] * self.right[r])
                )
        return max(mi, 0.0)


# ---------------------------------------------------------------------------
# checks


def run_checks(
    s: SchemeInstance,
    width: int = 1,
    budget: int | None = None,
    decodability: bool = True,
    users: Iterable[int] = (),
    invariance: bool = False,
) -> dict[str, Verdict]:
    """Run the requested checks over one enumeration of the atom space.

    Each atom is placed and delivered once and feeds every requested check.
    Verdicts are keyed "decodability", "privacy[user k]" and
    "conditional-invariance", in that order.  Decodability stops counting at
    its first failure, and the enumeration stops there when no other check
    was requested.
    """
    users = tuple(users)
    if (users or invariance) and s.privacy is not Privacy.PRIVATE:
        raise ParameterError(f"{s.name} is not a private scheme")
    for user in users:
        if not 0 <= user < s.n_users:
            raise ParameterError(f"no user {user} in a {s.n_users}-user scheme")
    if invariance and (s.n_files != 2 or s.n_users != 2):
        raise ParameterError("conditional-invariance check is for N=K=2 schemes")
    _check_budget(s, width, budget)
    space = atom_space(s, width)
    sizes = (s.memory * s.subpacketization * width, s.rate * s.subpacketization * width)
    decode_cases = 0
    decode_failure: DecodeCounterexample | None = None
    tables = {user: JointDistribution() for user in users}
    views: dict[tuple[int, int, int], Counter] = {
        (k, j, v): Counter() for k in (0, 1) for j in (0, 1) for v in (0, 1)
    }
    for store, demand, keys in space.iter_atoms():
        caches = s.place(keys, store)
        msg = s.deliver(store, demand, keys)
        if decodability and decode_failure is None:
            decode_cases += 1
            decode_failure = _decode_failure(s, store, demand, keys, caches, msg, sizes)
            if decode_failure is not None and not (users or invariance):
                break
        for user, table in tables.items():
            table.add(demand.drop(user), _observable(caches[user], msg, demand[user]))
        if invariance:
            _count_views(views, store, demand, caches, msg)

    verdicts: dict[str, Verdict] = {}
    if decodability:
        verdicts["decodability"] = Verdict(
            decode_failure is None, decode_cases, decode_failure
        )
    for user, table in tables.items():
        verdicts[f"privacy[user {user}]"] = table.verdict()
    if invariance:
        verdicts["conditional-invariance"] = _invariance_verdict(views, space.total)
    return verdicts


def _decode_failure(
    s: SchemeInstance,
    store: FileStore,
    demand: DemandVector,
    keys: KeyAssignment,
    caches: Sequence[CacheContent],
    msg: DeliveryMessage,
    sizes: tuple[Fraction, Fraction],
) -> DecodeCounterexample | None:
    """The first user that does not recover its demanded file, if any.

    Raises SchemeError when the outputs differ from the declared sizes
    (M*F cache bits, R*F payload bits).
    """
    cache_bits, payload_bits = sizes
    if len(caches) != s.n_users:
        raise SchemeError("placement did not produce one cache per user")
    for cache in caches:
        if cache.bit_length != cache_bits:
            raise SchemeError(
                f"cache holds {cache.bit_length} bits, declared M*F = {cache_bits}"
            )
    if msg.payload_bits != payload_bits:
        raise SchemeError(
            f"payload holds {msg.payload_bits} bits, declared R*F = {payload_bits}"
        )
    for k in range(s.n_users):
        got = s.decode(k, demand[k], keys.user_keys[k], msg, caches[k])
        want = store.file(demand[k])
        if got != want:
            return DecodeCounterexample(
                store.index(),
                demand.entries,
                keys.user_keys,
                keys.server_random,
                k,
                tuple(sym.value for sym in want),
                tuple(sym.value for sym in got),
            )
    return None


def _count_views(
    views: dict[tuple[int, int, int], Counter],
    store: FileStore,
    demand: DemandVector,
    caches: Sequence[CacheContent],
    msg: DeliveryMessage,
) -> None:
    """Count each user's (broadcast, cache, demanded file) view, keyed by
    (user, own demand, other demand)."""
    pay_val, pay_len = pack_symbols(msg.payload)
    for k in (0, 1):
        j = demand[k]
        cache_val, cache_len = pack_symbols(caches[k].symbols)
        file_val, file_len = pack_symbols(store.file(j))
        obs = _encode_ints(
            (pay_val, pay_len)
            + msg.header
            + (cache_val, cache_len, caches[k].key, file_val, file_len)
        )
        views[(k, j, demand[1 - k])][obs] += 1


def _invariance_verdict(
    views: dict[tuple[int, int, int], Counter], cases: int
) -> Verdict:
    worst_mi = 0.0
    for k in (0, 1):
        for j in (0, 1):
            t0, t1 = views[(k, j, 0)], views[(k, j, 1)]
            joint = Counter(
                {(v, obs): c for v, t in ((0, t0), (1, t1)) for obs, c in t.items()}
            )
            n0, n1 = sum(t0.values()), sum(t1.values())
            dist = JointDistribution(n0 + n1, joint, Counter({0: n0, 1: n1}), t0 + t1)
            worst_mi = max(worst_mi, dist.mutual_information_bits())
            if t0 != t1:
                diff = next(iter(set(t0.items()) ^ set(t1.items())))
                return Verdict(
                    False,
                    cases,
                    f"user {k} demanding {j}: view counts shift with the "
                    f"other demand (first differing cell {diff})",
                    worst_mi,
                )
    return Verdict(True, cases, None, worst_mi)


def check_decodability(
    s: SchemeInstance, width: int = 1, budget: int | None = None
) -> Verdict:
    """Every user recovers its demanded file exactly, over every atom."""
    return run_checks(s, width, budget)["decodability"]


def check_privacy(
    s: SchemeInstance, user: int, width: int = 1, budget: int | None = None
) -> Verdict:
    """Exact statistical independence of the other users' demands from
    everything user `user` observes (cache, key, broadcast, own demand).
    """
    return run_checks(s, width, budget, decodability=False, users=(user,))[
        f"privacy[user {user}]"
    ]


def check_conditional_invariance(
    s: SchemeInstance, width: int = 1, budget: int | None = None
) -> Verdict:
    """Two-file, two-user sanity law every private scheme must satisfy:

    conditioned on user k demanding file j, the joint distribution of
    (broadcast, user k's cache, file j's content) is the same whether the
    other user demands file 0 or file 1.
    """
    return run_checks(s, width, budget, decodability=False, invariance=True)[
        "conditional-invariance"
    ]


def measure_rates(
    s: SchemeInstance, width: int = 1
) -> tuple[Fraction, Fraction, int]:
    """Measured (memory, rate, header bits) from actual output lengths.

    Memory counts cache payload bits only (the stored key is excluded);
    rate counts broadcast payload bits only (the header is excluded).
    Both are exact fractions of the file size.
    """
    file_bits = s.subpacketization * width
    store = FileStore.zero(s.n_files, s.subpacketization, width)
    keys = KeyAssignment((0,) * s.n_users, 0)
    caches = s.place(keys, store)
    sizes = {c.bit_length for c in caches}
    if len(sizes) != 1:
        raise SchemeError(f"users have unequal cache sizes: {sorted(sizes)}")
    demand = DemandVector(s.n_files, s.served_demands().members[0])
    msg = s.deliver(store, demand, keys)
    return (
        Fraction(sizes.pop(), file_bits),
        Fraction(msg.payload_bits, file_bits),
        s.header_bits,
    )
