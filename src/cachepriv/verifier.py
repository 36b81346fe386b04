"""Exhaustive scheme verification by exact enumeration.

Correctness and privacy are decided over the full joint space of file
realizations, demands, user keys, and server randomness.  Independence is
judged by an exact integer identity on count tables; the mutual-information
figure attached to a verdict is a float diagnostic only and never decides
pass or fail.
"""

from __future__ import annotations

import itertools
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

    def iter_atoms(self) -> Iterator[tuple[FileStore, DemandVector, KeyAssignment]]:
        """Every atom once: store outermost, then demand, then user keys
        (key 0 fastest), then server randomness innermost.

        Each store is built once, and the demand vectors and key assignments
        once per sweep; the atoms that share one yield the same object.
        """
        s = self.scheme
        demands = [DemandVector(s.n_files, d) for d in self.demands]
        assignments = [
            KeyAssignment(tuple(reversed(keys)), p)
            for keys in itertools.product(*map(range, reversed(self.key_sizes)))
            for p in range(self.server_count)
        ]
        for index in range(self.store_count):
            store = FileStore.from_index(
                s.n_files, s.subpacketization, self.width, index
            )
            for demand in demands:
                for keys in assignments:
                    yield store, demand, keys


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

    Placement never sees the demand, so each store is placed once per key
    realization and that placement serves every demand of the store.  Each
    atom is delivered once and feeds every requested check.  Verdicts are
    keyed "decodability", "privacy[user k]" and "conditional-invariance",
    in that order.  Decodability stops counting at its first failure, and
    the enumeration stops there when no other check was requested.

    A user's observation is the int tuple (cache value, cache bits, key,
    payload value, payload bits, header, own demand); the invariance views
    pair it with the packed content of the demanded file.
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
    cache_bits = s.memory * s.subpacketization * width
    payload_bits = s.rate * s.subpacketization * width
    decode_cases = 0
    decode_failure: DecodeCounterexample | None = None
    tables = {user: JointDistribution() for user in users}
    views: dict[tuple[int, int, int], Counter] = {
        (k, j, v): Counter() for k in (0, 1) for j in (0, 1) for v in (0, 1)
    }
    placed_store = None
    placements: dict[KeyAssignment, tuple] = {}
    files: tuple[tuple[int, int], ...] = ()
    for store, demand, keys in space.iter_atoms():
        checking = decodability and decode_failure is None
        if store is not placed_store:
            placed_store, placements = store, {}
            if invariance:
                files = tuple(pack_symbols(f) for f in store.symbols)
        placed = placements.get(keys)
        if placed is None:
            caches = s.place(keys, store)
            packed = tuple(pack_symbols(c.symbols) + (c.key,) for c in caches)
            if checking:
                _check_caches(s, packed, cache_bits)
            placed = placements[keys] = (caches, packed)
        caches, packed = placed
        msg = s.deliver(store, demand, keys)
        pay_val, pay_bits = pack_symbols(msg.payload)
        if checking:
            if pay_bits != payload_bits:
                raise SchemeError(
                    f"payload holds {pay_bits} bits, declared R*F = {payload_bits}"
                )
            decode_cases += 1
            decode_failure = _decode_failure(s, store, demand, keys, caches, msg)
            if decode_failure is not None and not (users or invariance):
                break
        header, wants = msg.header, demand.entries
        for user, table in tables.items():
            cache_val, cache_len, key = packed[user]
            obs = (cache_val, cache_len, key, pay_val, pay_bits, header, wants[user])
            table.add(demand.drop(user), obs)
        if invariance:
            for k in (0, 1):
                j = wants[k]
                cache_val, cache_len, key = packed[k]
                obs = (cache_val, cache_len, key, pay_val, pay_bits, header, j)
                views[(k, j, wants[1 - k])][(obs, files[j])] += 1

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


def _check_caches(
    s: SchemeInstance, packed: Sequence[tuple[int, int, int]], cache_bits: Fraction
) -> None:
    """Raise SchemeError unless placement made one cache of M*F bits per user."""
    if len(packed) != s.n_users:
        raise SchemeError("placement did not produce one cache per user")
    for _, bits, _ in packed:
        if bits != cache_bits:
            raise SchemeError(f"cache holds {bits} bits, declared M*F = {cache_bits}")


def _decode_failure(
    s: SchemeInstance,
    store: FileStore,
    demand: DemandVector,
    keys: KeyAssignment,
    caches: Sequence[CacheContent],
    msg: DeliveryMessage,
) -> DecodeCounterexample | None:
    """The first user that does not recover its demanded file, if any."""
    wants, user_keys = demand.entries, keys.user_keys
    for k in range(s.n_users):
        got = s.decode(k, wants[k], user_keys[k], msg, caches[k])
        want = store.symbols[wants[k]]
        if got != want:
            return DecodeCounterexample(
                store.index(),
                demand.entries,
                user_keys,
                keys.server_random,
                k,
                tuple(sym.value for sym in want),
                tuple(sym.value for sym in got),
            )
    return None


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
                # first cell in insertion order, t0 then t1, whose counts differ
                cell = next(c for c in itertools.chain(t0, t1) if t0[c] != t1[c])
                return Verdict(
                    False,
                    cases,
                    f"user {k} demanding {j}: view counts shift with the "
                    f"other demand (first differing cell {cell}: seen {t0[cell]} "
                    f"times when the other user demands 0, {t1[cell]} when 1)",
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
