"""Exhaustive scheme verification by exact enumeration.

Correctness and privacy are decided over the full joint space of file
realizations, demands, user keys, and server randomness.  Independence is
judged by an exact integer identity on count tables; the mutual-information
figure attached to a verdict is a float diagnostic only and never decides
pass or fail.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .core import (
    DemandVector,
    FileStore,
    KeyAssignment,
    ParameterError,
    Privacy,
    Rows,
    SchemeError,
    SchemeInstance,
    check_width,
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
    """The atom budget: the argument, else BUDGET_ENV_VAR, else the default.

    Raises ParameterError for a negative budget and for an environment
    value that is not a non-negative integer.
    """
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
            valid = budget >= 0
        except ValueError:
            valid = False
        if not valid:
            raise ParameterError(
                f"{BUDGET_ENV_VAR} must be a non-negative integer, got {env!r}"
            )
    elif budget < 0:
        raise ParameterError(f"budget must be non-negative, got {budget}")
    return budget


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


def atom_count(s: SchemeInstance, width: int) -> int:
    """Atoms in the joint space (stores x served demands x user keys x server
    randomness), counted without listing any of them."""
    return (
        FileStore.space_size(s.n_files, s.subpacketization, width)
        * s.n_served()
        * math.prod(s.key_sizes)
        * s.server_random_size(width)
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
        return cls.of(Counter(pairs))

    @classmethod
    def of(cls, joint: Counter) -> "JointDistribution":
        """The distribution with these joint counts.  Its margins list their
        values in order of first appearance in joint."""
        dist = cls(sum(joint.values()), joint)
        for (l, r), c in joint.items():
            dist.left[l] += c
            dist.right[r] += c
        return dist

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

    The sweep is three nested loops: store index, then served demand, then
    key realization (user 0's key fastest, server randomness innermost).
    Every row table of the scheme's column program is compiled (_compile)
    before the first atom: per key realization each user's cache, and per
    (demand, key realization) the delivery, its packed pads, payload bits
    and header and, with decodability, each user's decode recipe.  The
    declared M*F and R*F sizes are checked there, once per table entry.
    Placement never sees the demand, so each store is placed once per key
    realization, at the top of the store loop, and that placement serves
    every demand of the store.  Each atom is delivered once and feeds every
    requested check.  Verdicts are keyed "decodability", "privacy[user k]"
    and "conditional-invariance", in that order.  Decodability stops
    counting at its first failure, and the enumeration stops there when no
    other check was requested.

    The store index is the packed store, column c at bits [c*w, (c+1)*w);
    a delivery's pads are packed with it and ORed above the store, pad p as
    column n_cols + p.  A decode recipe runs on the user's cache with the
    payload packed above it, and succeeds when it gives t symbols equal to
    the demanded file's bits of the store index.  A user's observation is
    the int tuple (cache value, cache bits, key, payload value, payload
    bits, header, own demand); the invariance views pair it with the packed
    content of the demanded file.
    """
    check_width(width)
    users = tuple(users)
    if (users or invariance) and s.privacy is not Privacy.PRIVATE:
        raise ParameterError(f"{s.name} is not a private scheme")
    for user in users:
        if not 0 <= user < s.n_users:
            raise ParameterError(f"no user {user} in a {s.n_users}-user scheme")
    if invariance and (s.n_files != 2 or s.n_users != 2):
        raise ParameterError("conditional-invariance check is for N=K=2 schemes")
    total = atom_count(s, width)
    limit = resolve_budget(budget)
    if total > limit:
        raise BudgetExceeded(total, limit)

    program, t = s.program, s.subpacketization
    n_cols, file_bits = s.n_files * t, t * width
    file_mask = (1 << file_bits) - 1
    cache_bits, payload_bits = (_exact(v * file_bits) for v in (s.memory, s.rate))
    compiled = functools.cache(functools.partial(_compile, width=width))
    demands = s.served_demands().members
    realizations = [
        (tuple(reversed(keys)), server)
        for keys in itertools.product(*map(range, reversed(s.key_sizes)))
        for server in range(s.server_random_size(width))
    ]
    # per key realization: (ops, cache bits, key) per user
    placers = []
    for user_keys, _ in realizations:
        placer = []
        for user, key in enumerate(user_keys):
            rows = program.cache(user, key)
            bits = len(rows) * width
            if decodability and bits != cache_bits:
                raise SchemeError(f"cache holds {bits} bits, declared M*F = {cache_bits}")
            placer.append((compiled(rows, n_cols), bits, key))
        placers.append(placer)
    joints = {user: Counter() for user in users}
    views: dict[tuple[int, int, int], Counter] = {
        (k, j, v): Counter() for k in (0, 1) for j in (0, 1) for v in (0, 1)
    }
    # per demand: (demand, entries, observers, viewers), where an entry per
    # key realization is (realization number, ops, pads, payload bits,
    # header, per-user recipes as (user, ops, output count)), an observer is
    # (user, that user's joint counts, the other users' demands) and a
    # viewer is (user, own demand, the view table of that pair)
    sweep = []
    for wants in demands:
        s.check_demand(wants)
        entries = []
        for a, ((user_keys, server), placer) in enumerate(zip(realizations, placers)):
            configs, pads = program.split_server(server, width)
            rows, header = program.delivery(wants, user_keys, configs)
            pay_bits = len(rows) * width
            recipes = []
            if decodability:
                if pay_bits != payload_bits:
                    raise SchemeError(
                        f"payload holds {pay_bits} bits, declared R*F = {payload_bits}"
                    )
                for user, (_, bits, key) in enumerate(placer):
                    recipe = program.recipe(user, wants[user], key, header)
                    n_inputs = (bits + pay_bits) // width
                    recipes.append((user, compiled(recipe, n_inputs), len(recipe)))
            packed = sum(v << ((n_cols + i) * width) for i, v in enumerate(pads))
            ops = compiled(rows, n_cols + len(pads))
            entries.append((a, ops, packed, pay_bits, header, recipes))
        observers = tuple(
            (user, joints[user], wants[:user] + wants[user + 1 :]) for user in users
        )
        viewers = ()
        if invariance:
            viewers = tuple(
                (k, wants[k], views[(k, wants[k], wants[1 - k])]) for k in (0, 1)
            )
        sweep.append((wants, entries, observers, viewers))

    decode_cases = 0
    decode_failure: DecodeCounterexample | None = None
    checking, stop = decodability, False
    for index in range(FileStore.space_size(s.n_files, t, width)):
        placed = [
            [(_apply(ops, index), bits, key) for ops, bits, key in placer]
            for placer in placers
        ]
        files = [
            ((index >> j * file_bits) & file_mask, file_bits) for j in range(s.n_files)
        ]
        for wants, entries, observers, viewers in sweep:
            for a, ops, pads, pay_bits, header, recipes in entries:
                caches = placed[a]
                x, pay_val = index | pads, 0
                for shift, mask, factor in ops:
                    pay_val ^= ((x >> shift) & mask) * factor
                if checking:
                    decode_cases += 1
                    for k, ops, n_out in recipes:
                        cache_val, cache_len, _ = caches[k]
                        x, got = cache_val | pay_val << cache_len, 0
                        for shift, mask, factor in ops:
                            got ^= ((x >> shift) & mask) * factor
                        want = files[wants[k]][0]
                        if n_out != t or got != want:
                            decode_failure = DecodeCounterexample(
                                index,
                                wants,
                                *realizations[a],
                                k,
                                _split(want, width, t),
                                _split(got, width, n_out),
                            )
                            checking, stop = False, not (users or invariance)
                            break
                    if stop:
                        break
                for user, joint, others in observers:
                    cache_val, cache_len, key = caches[user]
                    obs = (cache_val, cache_len, key, pay_val, pay_bits, header, wants[user])
                    joint[(others, obs)] += 1
                for k, j, view in viewers:
                    cache_val, cache_len, key = caches[k]
                    obs = (cache_val, cache_len, key, pay_val, pay_bits, header, j)
                    view[(obs, files[j])] += 1
            if stop:
                break
        if stop:
            break

    verdicts: dict[str, Verdict] = {}
    if decodability:
        verdicts["decodability"] = Verdict(
            decode_failure is None, decode_cases, decode_failure
        )
    for user, joint in joints.items():
        verdicts[f"privacy[user {user}]"] = JointDistribution.of(joint).verdict()
    if invariance:
        verdicts["conditional-invariance"] = _invariance_verdict(views, total)
    return verdicts


def _exact(value: Fraction) -> Fraction | int:
    """value as an int when it is whole, which compares faster."""
    value = Fraction(value)
    return int(value) if value.denominator == 1 else value


def _split(value: int, width: int, count: int) -> tuple[int, ...]:
    """The count width-bit symbol values packed in value, first lowest."""
    mask = (1 << width) - 1
    return tuple((value >> (i * width)) & mask for i in range(count))


# a compiled row table: XOR over its triples of ((x >> shift) & mask) * factor
Ops = tuple[tuple[int, int, int], ...]


def _compile(rows: Rows, n_inputs: int, width: int) -> Ops:
    """Row table as triples that map packed inputs to packed outputs.

    x holds n_inputs width-bit inputs, input c at bits [c*w, (c+1)*w); the
    result holds one output per row, row r at bits [r*w, (r+1)*w), the XOR
    of the inputs the row names.  An input feeds the rows that name it an
    odd number of times, and factor places it in all of them at once.  A
    run of consecutive inputs whose row sets are shifts of the first one's
    by 1, 2, ... shares one triple, so long as the run is no longer than
    the least gap between those rows (then the product never carries).  A
    row naming an input outside range(n_inputs) raises IndexError, where
    the scheme's own place, deliver and decode fail too.
    """
    feeds: dict[int, int] = {}  # input -> bit r set for each row it feeds
    for r, cols in enumerate(rows):
        for c in cols:
            if not 0 <= c < n_inputs:
                raise IndexError(f"row {r} names input {c} of {n_inputs}")
            feeds[c] = feeds.get(c, 0) ^ (1 << r)
    runs = sorted((c, f) for c, f in feeds.items() if f)
    ops = []
    i = 0
    while i < len(runs):
        c, f = runs[i]
        targets = [r for r in range(f.bit_length()) if (f >> r) & 1]
        gap = min((b - a for a, b in zip(targets, targets[1:])), default=len(runs))
        n = 1
        while i + n < len(runs) and n < gap and runs[i + n] == (c + n, f << n):
            n += 1
        factor = sum(1 << (r * width) for r in targets)
        ops.append((c * width, (1 << (n * width)) - 1, factor))
        i += n
    return tuple(ops)


def _apply(ops: Ops, x: int) -> int:
    """A compiled row table applied to the packed inputs x; run_checks
    inlines this loop for each atom's payload and decodes."""
    value = 0
    for shift, mask, factor in ops:
        value ^= ((x >> shift) & mask) * factor
    return value


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

    Memory counts cache symbols only (the stored key is excluded); rate
    counts broadcast payload symbols only (the header is excluded).  Both
    are exact fractions of the t symbols of a file.
    """
    check_width(width)
    t = s.subpacketization
    store = FileStore.zero(s.n_files, t, width)
    keys = KeyAssignment((0,) * s.n_users, 0)
    sizes = {len(c.symbols) for c in s.place(keys, store)}
    if len(sizes) != 1:
        raise SchemeError(f"users have unequal cache sizes: {sorted(sizes)}")
    demand = DemandVector(s.n_files, s.served_demands().members[0])
    msg = s.deliver(store, demand, keys)
    return Fraction(sizes.pop(), t), Fraction(len(msg.payload), t), s.header_bits
