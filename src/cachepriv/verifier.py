"""Exact scheme verification: proof per configuration, then enumeration.

Correctness and privacy are decided over the full joint space of file
realizations, demands, user keys, and server randomness.  Every scheme is
a GF(2) column program, so a check can often be proven from the linear
forms of one configuration at a time (demand, keys and the configuration
part of the server randomness), without visiting a store.  One streamed
walk over the configurations turns each row table into forms; the proof
reads them, and whatever it leaves open is enumerated atom by atom, on
shift-and-mask ops compiled from a second walk.  Only enumeration reports
a failure.  Independence is judged by an exact integer identity on count
tables; the mutual-information figure attached to a verdict is a float
diagnostic only and never decides pass or fail.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from . import gf2
from .core import (
    FileStore,
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
    enumeration gives.  _prove streams the configurations (served demand,
    key realization and the configuration part of the server randomness)
    from _configurations, which looks up each row table of the scheme's
    column program, checks the declared M*F and R*F sizes and each table's
    column range, and turns the rows into GF(2) forms; the proof keeps
    only its count tables and visits no store and no pad value.  A check
    it proves holds at every width; it reports the atom count as its
    cases, and for privacy and invariance MI=0, which is what enumeration
    computes for an independent table.  The checks it leaves open go to
    _enumerate, the exhaustive sweep, which walks the configurations again
    and alone compiles forms into ops; it alone reports a failure and its
    counterexample: a privacy test on configurations that does not succeed
    is no proof of a leak.  A wrongly sized or out-of-range table raises
    during the proof's walk, before any check is settled.
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

    verdicts = _prove(s, width, decodability, users, invariance)
    unsettled = (
        decodability and "decodability" not in verdicts,
        tuple(u for u in users if _privacy(u) not in verdicts),
        invariance and _INVARIANCE not in verdicts,
    )
    if any(unsettled):
        verdicts.update(_enumerate(s, width, *unsettled))
    labels = ["decodability"] if decodability else []
    labels += map(_privacy, users)
    if invariance:
        labels.append(_INVARIANCE)
    return {label: verdicts[label] for label in labels}


def _configurations(s: SchemeInstance, width: int, decodability: bool) -> Iterator:
    """Per configuration, the GF(2) form of every symbol a user sees.

    A configuration is a served demand, a key realization (user 0's key
    fastest) and the configuration part of the server randomness (part 0
    fastest), walked in that order.  Under it every cache, payload and
    decoded symbol is, in each bit lane, the XOR of a fixed set of file and
    pad symbols: its form, an int whose bit c stands for column c (file
    columns, then pads), found by running the row tables on the unit
    vectors 1 << c.  Yields (demand, user keys, configuration, header,
    cache forms per user, payload forms, decoded forms per user); the
    decoded forms are empty without decodability.

    Each cache is looked up once per (user, key), all before the first
    delivery; then each delivery and, for decodability, each user's recipe
    as the walk reaches it.  The walk reads each delivery entry once, so it
    looks them up past the program's memo, which would only grow by one
    entry per configuration.  Cache rows read the file columns, delivery
    rows the file columns then the pads, and recipe rows the user's cache
    symbols then the payload; a row naming an input outside that range
    raises IndexError (_check_range), and with decodability a cache or
    payload of other than the declared M*F or R*F bits raises SchemeError.
    """
    program, t = s.program, s.subpacketization
    n_cols, file_bits = s.n_files * t, t * width
    n_inputs = n_cols + sum(pads for _, pads in program.server)
    cache_bits, payload_bits = (_exact(v * file_bits) for v in (s.memory, s.rate))
    units = [1 << c for c in range(n_inputs)]
    check_range = functools.cache(_check_range)
    delivery = program.delivery.__wrapped__
    keys = _odometer(s.key_sizes)
    configs = _odometer([n for n, _ in program.server])
    held: dict[tuple[int, int], tuple[int, ...]] = {}
    for user_keys in keys:
        for slot in enumerate(user_keys):
            if slot not in held:
                rows = program.cache(*slot)
                bits = len(rows) * width
                if decodability and bits != cache_bits:
                    raise SchemeError(
                        f"cache holds {bits} bits, declared M*F = {cache_bits}"
                    )
                check_range(rows, n_cols)
                held[slot] = xor_rows(rows, units)
    for wants in s.served_demands().members:
        s.check_demand(wants)
        for user_keys in keys:
            caches = tuple(held[slot] for slot in enumerate(user_keys))
            for config in configs:
                rows, header = delivery(wants, user_keys, config)
                recipes = []
                if decodability:
                    pay_bits = len(rows) * width
                    if pay_bits != payload_bits:
                        raise SchemeError(
                            f"payload holds {pay_bits} bits, "
                            f"declared R*F = {payload_bits}"
                        )
                    for user, key in enumerate(user_keys):
                        recipe = program.recipe(user, wants[user], key, header)
                        check_range(recipe, len(caches[user]) + len(rows))
                        recipes.append(recipe)
                check_range(rows, n_inputs)
                sent = xor_rows(rows, units)
                decoded = tuple(
                    xor_rows(recipe, cache + sent)
                    for recipe, cache in zip(recipes, caches)
                )
                yield wants, user_keys, config, header, caches, sent, decoded


def _odometer(sizes: Iterable[int]) -> list[tuple[int, ...]]:
    """Every tuple whose entry i is in range(sizes[i]), entry 0 fastest."""
    ranges = map(range, reversed(list(sizes)))
    return [tuple(reversed(values)) for values in itertools.product(*ranges)]


def _check_range(rows: Rows, n_inputs: int) -> None:
    """Raise IndexError for a row naming an input outside range(n_inputs),
    where the scheme's own place, deliver and decode fail too."""
    for r, cols in enumerate(rows):
        for c in cols:
            if not 0 <= c < n_inputs:
                raise IndexError(f"row {r} names input {c} of {n_inputs}")


def _view_tables() -> dict[tuple[int, int, int], Counter]:
    """An empty invariance count table per (user k, own demand j, the other
    user's demand)."""
    return {(k, j, v): Counter() for k in (0, 1) for j in (0, 1) for v in (0, 1)}


def _prove(
    s: SchemeInstance, width: int, decodability: bool, users: tuple, invariance: bool
) -> dict[str, Verdict]:
    """The requested checks that the GF(2) forms (_configurations) prove,
    each with the verdict enumeration gives.

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
    for, so such a check is left out of the result.  The walk keeps
    nothing per configuration but these count tables.
    """
    t = s.subpacketization
    files = [tuple(1 << (f * t + i) for i in range(t)) for f in range(s.n_files)]
    image = functools.cache(_image)
    decodable = decodability
    groups = {user: defaultdict(Counter) for user in users}
    views = _view_tables() if invariance else {}
    walk = _configurations(s, width, decodability)
    for wants, user_keys, _, header, caches, sent, decoded in walk:
        if decodable:
            decodable = all(d == files[w] for d, w in zip(decoded, wants))
        for user, observed in groups.items():
            seen = caches[user] + sent
            others = wants[:user] + wants[user + 1 :]
            cell = (len(caches[user]), user_keys[user], len(sent), header, wants[user])
            observed[others][cell, image(seen)] += 1
        for user in (0, 1) if views else ():
            seen = caches[user] + sent + files[wants[user]]
            cell = (len(caches[user]), user_keys[user], len(sent), header)
            views[user, wants[user], wants[1 - user]][cell, image(seen)] += 1
    total = atom_count(s, width)
    verdicts = {}
    if decodable:
        verdicts["decodability"] = Verdict(True, total)
    for user, observed in groups.items():
        first, *rest = observed.values()
        if all(counts == first for counts in rest):
            verdicts[_privacy(user)] = Verdict(True, total, None, 0.0)
    if views and all(views[k, j, 0] == views[k, j, 1] for k in (0, 1) for j in (0, 1)):
        verdicts[_INVARIANCE] = Verdict(True, total, None, 0.0)
    return verdicts


def _columns(forms: tuple[int, ...]) -> dict[int, int]:
    """Per input column c that a form reads, the rows reading it: bit r set
    when forms[r] reads c."""
    columns: dict[int, int] = {}
    for r, form in enumerate(forms):
        while form:
            low = form & -form
            c = low.bit_length() - 1
            columns[c] = columns.get(c, 0) | 1 << r
            form ^= low
    return columns


def _image(forms: tuple[int, ...]) -> tuple[int, ...]:
    """The image of the GF(2) map whose output r has form forms[r], as a
    canonical basis: the reduced echelon rows spanning its columns
    (_columns)."""
    return gf2.rref(_columns(forms).values())


def _enumerate(
    s: SchemeInstance, width: int, decodability: bool, users: tuple, invariance: bool
) -> dict[str, Verdict]:
    """The requested checks by exhaustive enumeration of the atom space.

    The sweep is three nested loops: store index, then served demand, then
    key realization (user 0's key fastest, server randomness innermost).
    Before the first atom it walks the configurations (_configurations)
    and compiles each cache, payload and decoded form tuple once
    (_compile).  Placement never sees the demand or the server randomness,
    so each store is placed once per (user, key), at the top of the store
    loop, and that placement serves every atom of the store.  Each atom is
    delivered once and feeds every requested check.  Decodability stops
    counting at its first failure, and the enumeration stops there when no
    other check was requested.

    The store index is the packed store, column c at bits [c*w, (c+1)*w);
    a delivery's pads are packed with it and ORed above the store, pad p as
    column n_cols + p, and the payload and the decoded symbols are both
    read from that packed value.  A decode succeeds when it gives t symbols
    equal to the demanded file's bits of the store index.  A user's
    observation is the int tuple (cache value, cache bits, key, payload
    value, payload bits, header, own demand); the invariance views pair it
    with the packed content of the demanded file.
    """
    program, t = s.program, s.subpacketization
    n_cols, file_bits = s.n_files * t, t * width
    file_mask = (1 << file_bits) - 1
    compiled = functools.cache(functools.partial(_compile, width=width))
    # placer lists the compiled caches, slots holds (placement number,
    # cache bits, key) per (user, key), and configured, per demand and
    # (user keys, configuration), (ops, payload bits, header, recipes), a
    # recipe being (user, ops, output count)
    placer, slots, configured = [], {}, defaultdict(dict)
    walk = _configurations(s, width, decodability)
    for wants, user_keys, config, header, caches, sent, decoded in walk:
        for slot, forms in zip(enumerate(user_keys), caches):
            if slot not in slots:
                slots[slot] = (len(placer), len(forms) * width, slot[1])
                placer.append(compiled(forms))
        recipes = tuple((k, compiled(f), len(f)) for k, f in enumerate(decoded))
        sending = (compiled(sent), len(sent) * width, header, recipes)
        configured[wants][user_keys, config] = sending
    keys = _odometer(s.key_sizes)
    # per key realization: (placement number, cache bits, key) per user
    holders = [tuple(slots[slot] for slot in enumerate(ks)) for ks in keys]
    # per server value: (configuration, pads packed above the store)
    plan = []
    for server in range(s.server_random_size(width)):
        config, pads = program.split_server(server, width)
        packed = sum(v << ((n_cols + i) * width) for i, v in enumerate(pads))
        plan.append((config, packed))
    joints = {user: Counter() for user in users}
    views = _view_tables()
    # per demand: (demand, entries, observers, viewers), where an entry per
    # key realization is ((user keys, server randomness), key realization
    # number, pads, ops, payload bits, header, recipes), an observer is
    # (user, that user's joint counts, the other users' demands) and a
    # viewer is (user, own demand, the view table of that pair)
    sweep = []
    for wants, tables in configured.items():
        entries = []
        for a, user_keys in enumerate(keys):
            for server, (config, pads) in enumerate(plan):
                ops, pay_bits, header, recipes = tables[user_keys, config]
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
                    for k, ops, n_out in recipes:
                        got = 0
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
        verdicts[_INVARIANCE] = _invariance_verdict(views, atom_count(s, width))
    return verdicts


def _exact(value: Fraction) -> Fraction | int:
    """value as an int when it is whole, which compares faster."""
    value = Fraction(value)
    return int(value) if value.denominator == 1 else value


def _split(value: int, width: int, count: int) -> tuple[int, ...]:
    """The count width-bit symbol values packed in value, first lowest."""
    mask = (1 << width) - 1
    return tuple((value >> (i * width)) & mask for i in range(count))


# compiled forms: XOR over the triples of ((x >> shift) & mask) * factor
Ops = tuple[tuple[int, int, int], ...]


def _compile(forms: tuple[int, ...], width: int) -> Ops:
    """GF(2) forms as triples that map packed inputs to packed outputs.

    x holds width-bit inputs, input c at bits [c*w, (c+1)*w); the result
    holds one output per form, output r at bits [r*w, (r+1)*w), the XOR of
    the inputs forms[r] reads.  An input feeds the outputs that read it
    (_columns), and factor places it in all of them at once.  A run of
    consecutive inputs whose output sets are shifts of the first one's by
    1, 2, ... shares one triple, so long as the run is no longer than the
    least gap between those outputs (then the product never carries).
    """
    runs = sorted(_columns(forms).items())
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
    """Compiled forms applied to the packed inputs x; run_checks
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
    user_keys = (0,) * s.n_users
    sizes = {len(cache) for cache in s.place(user_keys, store)}
    if len(sizes) != 1:
        raise SchemeError(f"users have unequal cache sizes: {sorted(sizes)}")
    demand = s.served_demands().members[0]
    payload, _ = s.deliver(store, demand, user_keys, 0)
    return Fraction(sizes.pop(), t), Fraction(len(payload), t), s.header_bits
