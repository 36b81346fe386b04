"""Exact scheme verification: proof per configuration, then enumeration.

Correctness and privacy are decided over the full joint space of file
realizations, demands, user keys, and server randomness.  Every scheme is
a GF(2) column program, so a check can often be proven from the linear
forms of one configuration at a time (demand, keys and the configuration
part of the server randomness), without visiting a store; whatever that
proof leaves open is enumerated atom by atom, and only enumeration reports
a failure.  Independence is judged by an exact integer identity on count
tables; the mutual-information figure attached to a verdict is a float
diagnostic only and never decides pass or fail.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from . import gf2
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
    xor_rows,
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

_INVARIANCE = "conditional-invariance"


def _privacy(user: int) -> str:
    return f"privacy[user {user}]"


def run_checks(
    s: SchemeInstance,
    width: int = 1,
    budget: int | None = None,
    decodability: bool = True,
    users: Iterable[int] = (),
    invariance: bool = False,
) -> dict[str, Verdict]:
    """Run the requested checks over the atom space: prove what the GF(2)
    forms settle, and enumerate the rest.

    Verdicts are keyed "decodability", "privacy[user k]" and
    "conditional-invariance", in that order, and are those that exhaustive
    enumeration gives.  First every row table of the scheme's column
    program is looked up and compiled, and the declared M*F and R*F sizes
    are checked, once per table entry (_Tables).  Then _prove walks the
    configurations (served demand, key realization and the configuration
    part of the server randomness) and visits no store and no pad value.
    A check it proves holds at every width; it reports the atom count as
    its cases, and for privacy and invariance MI=0, which is what
    enumeration computes for an independent table.  The checks it leaves
    open go to _enumerate, the exhaustive sweep, which alone reports a
    failure and its counterexample: a privacy test on configurations that
    does not succeed is no proof of a leak.
    """
    check_width(width)
    users = tuple(dict.fromkeys(users))
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

    tables = _Tables(s, width, total, decodability)
    verdicts = _prove(tables, decodability, users, invariance)
    unsettled = (
        decodability and "decodability" not in verdicts,
        tuple(u for u in users if _privacy(u) not in verdicts),
        invariance and _INVARIANCE not in verdicts,
    )
    if any(unsettled):
        verdicts.update(_enumerate(tables, *unsettled))
    labels = ["decodability"] if decodability else []
    labels += map(_privacy, users)
    if invariance:
        labels.append(_INVARIANCE)
    return {label: verdicts[label] for label in labels}


class _Tables:
    """A scheme's row tables for one width, looked up, size-checked and
    compiled.

    keys lists the key realizations, user 0's key fastest, and configs the
    configuration tuples of the server randomness, part 0 fastest.  caches
    maps (user, key) to (rows, ops, bits), in the order the key
    realizations first reach it.  deliveries holds (demand, entries) per
    served demand, with one entry (user keys, rows, header, payload bits,
    ops, recipes) per key realization and configuration, configurations
    fastest; recipes holds (user, ops, output count, rows) per user, and is
    empty unless built for decodability.  Cache rows read the file columns, delivery rows the
    file columns then the pads, and recipe rows the user's cache symbols
    then the payload.

    Every entry is built before any check runs, the caches first and then
    the deliveries demand by demand, each in the order the enumeration
    reaches it.  A row naming an input outside its table's range raises
    IndexError; with decodability, a cache or payload of other than the
    declared M*F or R*F bits raises SchemeError.
    """

    def __init__(
        self, s: SchemeInstance, width: int, total: int, decodability: bool
    ) -> None:
        program, t = s.program, s.subpacketization
        n_cols, file_bits = s.n_files * t, t * width
        self.n_inputs = n_cols + sum(pads for _, pads in program.server)
        cache_bits, payload_bits = (_exact(v * file_bits) for v in (s.memory, s.rate))
        compiled = functools.cache(functools.partial(_compile, width=width))
        self.s, self.width, self.total = s, width, total
        self.keys = _odometer(s.key_sizes)
        self.configs = _odometer([n for n, _ in program.server])
        self.caches: dict[tuple[int, int], tuple[Rows, Ops, int]] = {}
        for user_keys in self.keys:
            for user, key in enumerate(user_keys):
                if (user, key) not in self.caches:
                    rows = program.cache(user, key)
                    bits = len(rows) * width
                    if decodability and bits != cache_bits:
                        raise SchemeError(
                            f"cache holds {bits} bits, declared M*F = {cache_bits}"
                        )
                    self.caches[user, key] = (rows, compiled(rows, n_cols), bits)
        self.deliveries: list[tuple[tuple[int, ...], list[tuple]]] = []
        for wants in s.served_demands().members:
            s.check_demand(wants)
            entries = []
            for user_keys in self.keys:
                for config in self.configs:
                    rows, header = program.delivery(wants, user_keys, config)
                    pay_bits = len(rows) * width
                    recipes = []
                    if decodability:
                        if pay_bits != payload_bits:
                            raise SchemeError(
                                f"payload holds {pay_bits} bits, "
                                f"declared R*F = {payload_bits}"
                            )
                        for user, key in enumerate(user_keys):
                            recipe = program.recipe(user, wants[user], key, header)
                            read = len(self.caches[user, key][0]) + len(rows)
                            decode = compiled(recipe, read)
                            recipes.append((user, decode, len(recipe), recipe))
                    ops = compiled(rows, self.n_inputs)
                    entries.append((user_keys, rows, header, pay_bits, ops, recipes))
            self.deliveries.append((wants, entries))


def _odometer(sizes: Iterable[int]) -> list[tuple[int, ...]]:
    """Every tuple whose entry i is in range(sizes[i]), entry 0 fastest."""
    ranges = map(range, reversed(list(sizes)))
    return [tuple(reversed(values)) for values in itertools.product(*ranges)]


def _view_tables() -> dict[tuple[int, int, int], Counter]:
    """An empty invariance count table per (user k, own demand j, the other
    user's demand)."""
    return {(k, j, v): Counter() for k in (0, 1) for j in (0, 1) for v in (0, 1)}


def _forms(tables: _Tables) -> Iterator[tuple]:
    """Per configuration, the GF(2) form of every symbol a user sees.

    A configuration is a served demand, a key realization and the
    configuration part of the server randomness, in the order of
    tables.deliveries.  Under it every cache, payload and decoded symbol
    is, in each bit lane, the XOR of a fixed set of file and pad symbols:
    its form, an int whose bit c stands for column c (file columns, then
    pads), found by running the row tables on the unit vectors 1 << c.
    Yields (demand, user keys, configuration, header, cache forms per user,
    payload forms, decoded forms per user); the decoded forms are empty
    without decodability.
    """
    units = [1 << c for c in range(tables.n_inputs)]
    held = {slot: xor_rows(rows, units) for slot, (rows, _, _) in tables.caches.items()}
    for wants, entries in tables.deliveries:
        configs = itertools.cycle(tables.configs)
        for (user_keys, rows, header, _, _, recipes), config in zip(entries, configs):
            caches = tuple(held[slot] for slot in enumerate(user_keys))
            sent = xor_rows(rows, units)
            decoded = tuple(
                xor_rows(recipe, cache + sent)
                for (_, _, _, recipe), cache in zip(recipes, caches)
            )
            yield wants, user_keys, config, header, caches, sent, decoded


def _prove(
    tables: _Tables, decodability: bool, users: tuple[int, ...], invariance: bool
) -> dict[str, Verdict]:
    """The requested checks that the GF(2) forms (_forms) prove, each with
    the verdict enumeration gives.

    Under one configuration the file and pad symbols are uniform and
    independent, and each symbol a user sees is a fixed form of them.
    Hence:

    - decodability holds when every user's decoded forms are exactly the t
      unit forms of its demanded file;
    - a user's observation is a discrete part (cache and payload lengths,
      key, header, own demand) with symbols uniform, in every lane, on the
      image of its stacked cache and payload forms (_image).  When the
      configurations sharing each value of the other users' demands have
      the same multiset of (discrete part, image), the observation is
      independent of those demands at every width;
    - conditional invariance is the same test for user k demanding j, with
      file j's unit forms stacked on, between the other user's demands.

    Unequal multisets prove nothing, since mixtures of uniform
    distributions on different subspaces can coincide at the width asked
    for, so such a check is left out of the result.
    """
    t = tables.s.subpacketization
    files = [tuple(1 << (f * t + i) for i in range(t)) for f in range(tables.s.n_files)]
    image = functools.cache(_image)
    decodable = decodability
    groups: dict[int, dict[tuple[int, ...], Counter]] = {u: {} for u in users}
    views = _view_tables() if invariance else {}
    for wants, user_keys, _, header, caches, sent, decoded in _forms(tables):
        if decodable:
            decodable = all(d == files[w] for d, w in zip(decoded, wants))
        for user, observed in groups.items():
            seen = caches[user] + sent
            others = wants[:user] + wants[user + 1 :]
            cell = (len(caches[user]), user_keys[user], len(sent), header, wants[user])
            observed.setdefault(others, Counter())[cell, image(seen)] += 1
        for user in (0, 1) if views else ():
            seen = caches[user] + sent + files[wants[user]]
            cell = (len(caches[user]), user_keys[user], len(sent), header)
            views[user, wants[user], wants[1 - user]][cell, image(seen)] += 1
    verdicts = {}
    if decodable:
        verdicts["decodability"] = Verdict(True, tables.total)
    for user, observed in groups.items():
        first, *rest = observed.values()
        if all(counts == first for counts in rest):
            verdicts[_privacy(user)] = Verdict(True, tables.total, None, 0.0)
    if views and all(views[k, j, 0] == views[k, j, 1] for k in (0, 1) for j in (0, 1)):
        verdicts[_INVARIANCE] = Verdict(True, tables.total, None, 0.0)
    return verdicts


def _image(forms: tuple[int, ...]) -> tuple[int, ...]:
    """The image of the GF(2) map whose output r has form forms[r], as a
    canonical basis: the reduced echelon rows spanning its columns, where
    column c has bit r set when forms[r] reads input c."""
    columns: dict[int, int] = {}
    for r, form in enumerate(forms):
        while form:
            low = form & -form
            columns[low] = columns.get(low, 0) | 1 << r
            form ^= low
    return gf2.rref(columns.values())


def _enumerate(
    tables: _Tables, decodability: bool, users: tuple[int, ...], invariance: bool
) -> dict[str, Verdict]:
    """The requested checks by exhaustive enumeration of the atom space.

    The sweep is three nested loops: store index, then served demand, then
    key realization (user 0's key fastest, server randomness innermost).
    Placement never sees the demand or the server randomness, so each
    store is placed once per (user, key), at the top of the store loop,
    and that placement serves every atom of the store.  Each atom is
    delivered once and feeds every requested check.  Decodability stops
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
    s, width = tables.s, tables.width
    program, t = s.program, s.subpacketization
    n_cols, file_bits = s.n_files * t, t * width
    file_mask = (1 << file_bits) - 1
    placer = [ops for _, ops, _ in tables.caches.values()]
    slots = {slot: i for i, slot in enumerate(tables.caches)}
    # per key realization: (placement number, cache bits, key) per user
    holders = [
        tuple((slots[u, k], tables.caches[u, k][2], k) for u, k in enumerate(keys))
        for keys in tables.keys
    ]
    # per server value: (configuration number, pads packed above the store)
    numbers = {config: i for i, config in enumerate(tables.configs)}
    plan = []
    for server in range(s.server_random_size(width)):
        config, pads = program.split_server(server, width)
        packed = sum(v << ((n_cols + i) * width) for i, v in enumerate(pads))
        plan.append((numbers[config], packed))
    joints = {user: Counter() for user in users}
    views = _view_tables()
    # per demand: (demand, entries, observers, viewers), where an entry per
    # key realization is ((user keys, server randomness), key realization
    # number, pads, ops, payload bits, header, recipes), an observer is
    # (user, that user's joint counts, the other users' demands) and a
    # viewer is (user, own demand, the view table of that pair)
    sweep = []
    n_configs = len(tables.configs)
    for wants, configured in tables.deliveries:
        entries = []
        for a, user_keys in enumerate(tables.keys):
            for server, (c, pads) in enumerate(plan):
                _, _, header, pay_bits, ops, recipes = configured[a * n_configs + c]
                recipes = recipes if decodability else ()
                realization = (user_keys, server)
                entries.append((realization, a, pads, ops, pay_bits, header, recipes))
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
    checking = decodability
    stop = False
    for index in range(FileStore.space_size(s.n_files, t, width)):
        values = [_apply(ops, index) for ops in placer]
        placed = [
            [(values[slot], bits, key) for slot, bits, key in holder]
            for holder in holders
        ]
        files = [
            ((index >> j * file_bits) & file_mask, file_bits) for j in range(s.n_files)
        ]
        for wants, entries, observers, viewers in sweep:
            for realization, a, pads, ops, pay_bits, header, recipes in entries:
                caches = placed[a]
                x, pay_val = index | pads, 0
                for shift, mask, factor in ops:
                    pay_val ^= ((x >> shift) & mask) * factor
                if checking:
                    decode_cases += 1
                    for k, ops, n_out, _ in recipes:
                        cache_val, cache_len, _ = caches[k]
                        x, got = cache_val | pay_val << cache_len, 0
                        for shift, mask, factor in ops:
                            got ^= ((x >> shift) & mask) * factor
                        want = files[wants[k]][0]
                        if n_out != t or got != want:
                            decode_failure = DecodeCounterexample(
                                index,
                                wants,
                                *realization,
                                k,
                                _split(want, width, t),
                                _split(got, width, n_out),
                            )
                            checking = False
                            stop = not (users or invariance)
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
        verdicts[_privacy(user)] = JointDistribution.of(joint).verdict()
    if invariance:
        verdicts[_INVARIANCE] = _invariance_verdict(views, tables.total)
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
