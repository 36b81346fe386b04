"""Exact scheme verification: proof per configuration, then enumeration.

Correctness and privacy are decided over the full joint space of file
realizations, demands, user keys, and server randomness.  Every scheme's
tables hold GF(2) forms, so a check can often be proven from the linear
forms of one configuration at a time (demand, keys and the configuration
part of the server randomness), without visiting a store.  One streamed
walk over the configurations turns each row table into forms; the proof
reads them and decides decodability, and any other check it leaves open is
enumerated from a second walk, a block of stores at a time by linearity.
Only enumeration reports a leak.  Independence is judged by an exact
integer identity on count tables; the mutual-information figure attached
to a verdict is a float diagnostic only and never decides pass or fail.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .core import (
    FileStore,
    ParameterError,
    Privacy,
    SchemeError,
    SchemeInstance,
    check_width,
    columns_of,
    form_columns,
    unit_rows,
    unpack_symbols,
    xor_rows,
)

DEFAULT_BUDGET = 1 << 28
BUDGET_ENV_VAR = "CACHEPRIV_BUDGET"


class BudgetExceeded(SchemeError):
    """The requested enumeration is larger than the atom budget.  required is
    None for a count too large to build; bits is then the count less one's."""

    def __init__(self, required: int | None, budget: int, bits: int = 0) -> None:
        # from 2^64 a bound: the decimal can run to kilobytes, past str()'s limit
        needs: object = required
        if required is None or required >= 1 << 64:
            bits = bits if required is None else (required - 1).bit_length()
            needs = f"more than 2^{bits - 1}"
        super().__init__(
            f"enumeration needs {needs} atoms, "
            f"budget is {budget} (override with {BUDGET_ENV_VAR})"
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


class DecodeCounterexample(NamedTuple):
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


class IndependenceCounterexample(NamedTuple):
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


class Verdict(NamedTuple):
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
    rest, shift = _atom_factors(s, width)
    return rest << shift


def _atom_factors(s: SchemeInstance, width: int) -> tuple[int, int]:
    """(rest, shift), the atom count being rest << shift: stores and pads."""
    server = s.server
    shift = (s.n_files * s.subpacketization + sum(p for _, p in server)) * width
    rest = s.n_served() * math.prod(s.key_sizes) * math.prod(c for c, _ in server)
    return rest, shift


# ---------------------------------------------------------------------------
# joint count tables


class JointDistribution:
    """Exact joint counts of (left, right) observations over an atom space.

    The enumerator builds each one with its margins, counted in its sweep
    in the order of first appearance in joint that `of` gives; `of`, which
    derives them cell by cell, serves from_pairs only.  Mutable; two are
    equal when their class and all four fields are.
    """

    __slots__ = ("total", "joint", "left", "right")

    def __init__(
        self,
        total: int = 0,
        joint: Counter | None = None,
        left: Counter | None = None,
        right: Counter | None = None,
    ) -> None:
        self.total = total
        self.joint = Counter() if joint is None else joint
        self.left = Counter() if left is None else left
        self.right = Counter() if right is None else right

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, object]]) -> "JointDistribution":
        return cls.of(Counter(pairs))

    @classmethod
    def of(cls, joint: Counter) -> "JointDistribution":
        """The distribution with these joint counts.  Its margins list their
        values in order of first appearance in joint."""
        left: dict = {}
        right: dict = {}
        for (l, r), c in joint.items():
            left[l] = left.get(l, 0) + c
            right[r] = right.get(r, 0) + c
        return cls(sum(joint.values()), joint, Counter(left), Counter(right))

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
        """Plug-in MI, its terms summed exactly (math.fsum), so the float
        does not depend on the order of the cells in joint."""
        total, left, right, log2 = self.total, self.left, self.right, math.log2
        mi = math.fsum(
            (c / total) * log2(c * total / (left[l] * right[r]))
            for (l, r), c in self.joint.items()
            if c
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
    enumeration gives.  _prove reads the forms of each configuration from
    _configurations and visits no store and no pad value.  A check it
    proves holds at every width; it reports the atom count as its cases,
    and for privacy and invariance MI=0, which is what enumeration computes
    for an independent table.  It decides decodability either way, a
    failure with the cases and counterexample of enumeration.  The checks
    it leaves open go to _enumerate, the exhaustive sweep, which alone
    evaluates forms on stores and alone reports a leak: a privacy test on
    configurations that does not succeed is no proof of one.  A wrongly
    sized or out-of-range table raises during the proof's walk, before any
    check is settled, and an atom count past 2^64 and the budget is refused
    from its exponent, before it is built.
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
    limit = resolve_budget(budget)
    rest, shift = _atom_factors(s, width)
    bits = shift + (rest - 1).bit_length()  # of the count less one
    if rest and bits > max(64, limit.bit_length()):
        raise BudgetExceeded(None, limit, bits)
    if rest << shift > limit:
        raise BudgetExceeded(rest << shift, limit)

    verdicts = _prove(s, width, decodability, users, invariance)
    open_users = tuple(u for u in users if _privacy(u) not in verdicts)
    open_invariance = invariance and _INVARIANCE not in verdicts
    if open_users or open_invariance:
        verdicts.update(_enumerate(s, width, open_users, open_invariance))
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
    decoded symbol is, in each bit lane, the XOR of the file and pad
    symbols its form reads (bit c for column c: file columns, then pads).
    The tables hand out the cache and payload forms as they are; a decoded
    form XORs the cache and payload forms its recipe form selects.  Yields
    (demand, user keys, configuration, header, cache forms per user,
    payload forms, decoded forms per user, empty without decodability).

    Each cache is looked up once per (user, key), all before the first
    delivery, and each key realization's tuple of caches is built once
    then; each delivery is read once; and for decodability each user's
    recipe once per distinct (user, own demand, key, header), kept beside
    the caches for this walk only.  Such a read still derives little anew:
    a thm1 table keeps its slot order and payload forms per (demand, slot
    rank) and its recipes per (demand, slot), so per key realization it
    computes only the header, and a share keeps its parts' deliveries, its
    joined headers and its narrowed forms per distinct pair of part
    entries.  Those memos live as long as the instance, which its
    constructor keeps per process (core.SCHEME_MEMO), so a repeated
    verify of one scheme reads them warm; it still walks every
    configuration, as nothing the walk yields is kept.  A negative form, or
    one reading past its inputs (the file columns for a cache, then the
    pads for a delivery, the user's cache symbols then the payload for a
    recipe), raises IndexError (_check_range, or xor_rows as decode does
    for a recipe), and with decodability a cache or payload of other than
    the declared M*F or R*F bits raises SchemeError.
    """
    t = s.subpacketization
    n_cols, file_bits = s.n_files * t, t * width
    n_inputs = n_cols + sum(pads for _, pads in s.server)
    cache_bits, payload_bits = (_exact(v * file_bits) for v in (s.memory, s.rate))
    delivery, recipe = s.delivery, s.recipe
    keys = _odometer(s.key_sizes)
    configs = _odometer([n for n, _ in s.server])
    held: dict[tuple[int, int], tuple[int, ...]] = {}
    recipes: dict[tuple, tuple[tuple[int, ...], ...]] = {}
    keyed = []  # per key realization, (user keys, cache forms per user)
    for user_keys in keys:
        for slot in enumerate(user_keys):
            if slot not in held:
                forms = s.cache(*slot)
                bits = len(forms) * width
                if decodability and bits != cache_bits:
                    raise SchemeError(
                        f"cache holds {bits} bits, declared M*F = {cache_bits}"
                    )
                _check_range(forms, n_cols)
                held[slot] = forms
        keyed.append((user_keys, tuple(held[slot] for slot in enumerate(user_keys))))
    for wants in s.served_demands().members:
        s.check_demand(wants)
        for user_keys, caches in keyed:
            for config in configs:
                sent, header = delivery(wants, user_keys, config)
                decoded = []
                if decodability:
                    pay_bits = len(sent) * width
                    if pay_bits != payload_bits:
                        raise SchemeError(
                            f"payload holds {pay_bits} bits, "
                            f"declared R*F = {payload_bits}"
                        )
                    for user, key in enumerate(user_keys):
                        entry = (user, wants[user], key, header)
                        if entry not in recipes:
                            recipes[entry] = columns_of(recipe(*entry))
                        seen = caches[user] + sent
                        decoded.append(xor_rows(recipes[entry], seen))
                _check_range(sent, n_inputs)
                yield wants, user_keys, config, header, caches, sent, tuple(decoded)


def _odometer(sizes: Iterable[int]) -> list[tuple[int, ...]]:
    """Every tuple whose entry i is in range(sizes[i]), entry 0 fastest."""
    ranges = map(range, reversed(list(sizes)))
    return [tuple(reversed(values)) for values in itertools.product(*ranges)]


def _check_range(forms: tuple[int, ...], n_inputs: int) -> None:
    """Raise IndexError, as the scheme's own place, deliver and decode do,
    for a negative form or one reading an input outside range(n_inputs):
    either shifts to nonzero past the inputs."""
    if functools.reduce(operator.or_, forms, 0) >> n_inputs:
        form = next(f for f in forms if f >> n_inputs)
        what = "a negative column" if form < 0 else f"input {form.bit_length() - 1}"
        raise IndexError(f"form {form} names {what}, outside range({n_inputs})")


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
      unit forms of its demanded file, and otherwise fails (_decode_verdict);
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
    nothing per configuration but these count tables and, for a
    configuration where decoding fails, the failing users' decoded forms.
    """
    t = s.subpacketization
    files = [unit_rows(f * t, t) for f in range(s.n_files)]
    last = want = None  # the users' unit forms under the demand last walked
    # per (demand, user keys, configuration) where decoding fails, the
    # (user, decoded forms) of each user whose forms are not its file's
    failing = {}
    groups = {user: defaultdict(Counter) for user in users}
    views = _view_tables() if invariance else {}
    walk = _configurations(s, width, decodability)
    for wants, user_keys, config, header, caches, sent, decoded in walk:
        if decodability and wants is not last:  # the walk goes demand by demand
            last, want = wants, tuple(files[w] for w in wants)
        if decodability and decoded != want:
            failing[wants, user_keys, config] = [
                (k, d) for k, d in enumerate(decoded) if d != files[wants[k]]
            ]
        for user, observed in groups.items():
            seen = caches[user] + sent
            others = wants[:user] + wants[user + 1 :]
            cell = (len(caches[user]), user_keys[user], len(sent), header, wants[user])
            observed[others][cell, _image(seen)] += 1
        for user in (0, 1) if views else ():
            seen = caches[user] + sent + files[wants[user]]
            cell = (len(caches[user]), user_keys[user], len(sent), header)
            views[user, wants[user], wants[1 - user]][cell, _image(seen)] += 1
    total = atom_count(s, width)
    verdicts = {}
    if decodability:
        verdicts["decodability"] = _decode_verdict(s, width, failing)
    # the tables are built by += 1 alone, so they hold no zero count and
    # dict equality is Counter equality, without its generator over both
    for user, observed in groups.items():
        first, *rest = observed.values()
        if all(dict.__eq__(counts, first) for counts in rest):
            verdicts[_privacy(user)] = Verdict(True, total, None, 0.0)
    same = (dict.__eq__(views[k, j, 0], views[k, j, 1]) for k in (0, 1) for j in (0, 1))
    if views and all(same):
        verdicts[_INVARIANCE] = Verdict(True, total, None, 0.0)
    return verdicts


def _decode_verdict(s: SchemeInstance, width: int, failing: dict) -> Verdict:
    """The decodability verdict enumeration gives, from _prove's failing
    table: a PASS when it is empty.

    A failing user's decoded forms differ from its file's unit forms by a
    nonzero XOR of uniform symbols.  The first failing store is #0 when a
    recipe yields other than t symbols or a difference reads a pad column
    (some pad value makes it nonzero), else #(1 << c*w) for the lowest file
    column c a difference reads: every lower store is zero from column c
    on, where every difference vanishes, and on that store one reading c
    is nonzero whatever the pads.  Its atoms are visited in enumeration
    order (served demand, key realization, server randomness), decoding
    only the recorded forms, up to the first wrong one.
    """
    total = atom_count(s, width)
    if not failing:
        return Verdict(True, total)
    t, n_cols = s.subpacketization, s.n_files * s.subpacketization
    files = [range(f * t, (f + 1) * t) for f in range(s.n_files)]
    index = 1 << (n_cols * width)
    for (wants, _, _), entries in failing.items():
        for k, forms in entries:
            diff = 0
            for form, c in zip(forms, files[wants[k]]):
                diff |= form ^ (1 << c)
            low = 0 if len(forms) != t or diff >> n_cols else diff & -diff
            index = min(index, low**width)  # 1 << c*w for the lowest column c
    symbols = unpack_symbols(index, width, n_cols)
    demands, keys = s.served_demands().members, _odometer(s.key_sizes)
    atoms = itertools.product(demands, keys, range(s.server_random_size(width)))
    for position, (wants, user_keys, server) in enumerate(atoms, 1):
        config, pads = s.split_server(server, width)
        seen = symbols + tuple(pads)
        for k, forms in failing.get((wants, user_keys, config), ()):
            got = xor_rows(columns_of(forms), seen)
            want = tuple(symbols[c] for c in files[wants[k]])
            if got != want:
                ce = DecodeCounterexample(index, wants, user_keys, server, k, want, got)
                cases = index * (total >> (n_cols * width)) + position
                return Verdict(False, cases, ce)
    raise AssertionError("the first failing store decodes")


@functools.lru_cache(maxsize=4096)  # each at most as many ints as its forms
def _image(forms: tuple[int, ...]) -> tuple[int, ...]:
    """The image of the GF(2) map whose output r has form forms[r], given for
    a fixed number of outputs by the reduced echelon basis, ascending, of the
    output combinations that vanish (its annihilator).  Each form, marked
    with bit r below it, is eliminated once by top bit.  A row left without
    form bits is topped by its own marker and holds no other such row's, as
    only pivot rows are XORed in, so those rows are that basis as they stand.
    A negative form never runs out of form bits: _check_range comes first."""
    n = len(forms)
    pivots, vanishing = {}, []  # pivots keyed by their top bit's length
    for r, form in enumerate(forms):
        row = form << n | 1 << r
        while row >> n:
            if (pivot := pivots.get(row.bit_length())) is None:
                pivots[row.bit_length()] = row
                break
            row ^= pivot
        else:
            vanishing.append(row)
    return tuple(vanishing)


# a block of consecutive stores holds at most max(one store's atoms, this)
_BLOCK_ATOMS = 4096


def _enumerate(
    s: SchemeInstance, width: int, users: tuple, invariance: bool
) -> dict[str, Verdict]:
    """The requested privacy and invariance checks by exhaustive
    enumeration, in atom order: store index, served demand, key realization
    (user 0's key fastest, server randomness innermost).

    The store index is the packed store, column c at bits [c*w, (c+1)*w),
    with a delivery's pads packed above it as columns n_cols on.  A user's
    observation is (cache value, cache bits, key, payload value, payload
    bits, header, own demand); an invariance view adds the demanded file's
    packed content.  Each is counted as one int: the cache value from bit
    0, the payload value above the longest cache, the file value above the
    longest payload, and on top the number of the fixed part (cache bits,
    key, payload bits, header, own demand), numbered once per call in order
    of first appearance.  So two observations are equal exactly when their
    ints are, and an int is decoded back to its tuples (view_of) only for
    the printed invariance cell.

    An atom's int is one value, keyed (packed pads, forms, constant): the
    cache forms, then the payload forms and for a view file j's unit forms,
    each zero-padded to its offset, and the fixed part's number as the
    constant, in place on top.  It is GF(2)-linear in the packed store and
    pads, so over a block of consecutive stores (at most max(one store's
    atoms, _BLOCK_ATOMS) atoms) it is a table on the low store bits XORed
    with its value on the block's base and the pads (_evaluate), and with
    its constant.  A block's values are zipped into one row per store, and
    each count's ints are read off the rows by one getter.  Each count
    table is fed once per block, by one Counter.update, with a per-atom
    loop's keys in its order; privacy's right margin by a second update
    over the same ints, and its left margin is one store's other-demand
    column times the number of stores, so each JointDistribution is built
    with the margins JointDistribution.of would give, in the same order.
    Invariance is fed one (user k, own demand j) pair at a time, in the
    order (0, 0), (0, 1), (1, 0), (1, 1), no pair past the first whose
    tables differ.
    """
    t = s.subpacketization
    store_bits, file_bits = s.n_files * t * width, t * width
    configured = defaultdict(dict)
    walk = _configurations(s, width, False)
    for wants, user_keys, config, header, caches, sent, _ in walk:
        configured[wants][user_keys, config] = (caches, sent, header)
    # the atoms of one store and demand: (user keys, configuration, pads),
    # the pads packed above the store
    plan = []
    for server in range(s.server_random_size(width)):
        config, pads = s.split_server(server, width)
        packed = sum(v << (store_bits + i * width) for i, v in enumerate(pads))
        plan.append((config, packed))
    realizations = [(ks, *p) for ks in _odometer(s.key_sizes) for p in plan]
    demands, per_demand = list(configured), len(realizations)
    per_store = len(demands) * per_demand
    # the symbol offsets of an observation's payload and file values
    entries = [entry for table in configured.values() for entry in table.values()]
    pay_at = max(len(cache) for caches, _, _ in entries for cache in caches)
    file_at = pay_at + max(len(sent) for _, sent, _ in entries)
    numbers: dict[tuple, int] = {}  # per fixed part, in order of first appearance

    def reads(k: int, wants: tuple, file: int | None) -> list[tuple]:
        """Per atom of (a store, demand wants), the one value user k's
        observation reads, keyed (packed pads, forms, constant): the cache
        forms, zero-padded to pay_at, then the payload forms, and for a view
        zero-padded to file_at, then file j's unit forms."""
        top = (file_at + (0 if file is None else t)) * width
        table, keys = configured[wants], []
        for ks, config, packed in realizations:
            caches, sent, header = table[ks, config]
            cache = caches[k]
            fixed = (len(cache) * width, ks[k], len(sent) * width, header, wants[k])
            number = numbers.setdefault(fixed, len(numbers))
            forms = cache + (0,) * (pay_at - len(cache)) + sent
            if file is not None:
                forms += (0,) * (file_at - len(forms)) + unit_rows(file * t, t)
            keys.append((packed, forms, number << top))
        return keys

    def view_of(obs: int) -> tuple:
        """The view an invariance int counts: (observation, (file j's
        value, file bits))."""
        cbits, key, pbits, header, own = list(numbers)[obs >> (file_at + t) * width]
        pay = obs >> pay_at * width & (1 << pbits) - 1
        seen = (obs & (1 << cbits) - 1, cbits, key, pay, pbits, header, own)
        return seen, (obs >> file_at * width & (1 << file_bits) - 1, file_bits)

    low = min(store_bits, max(0, (_BLOCK_ATOMS // per_store).bit_length() - 1))
    block, tables = 1 << low, {}  # _block_table per form set, kept per call

    def sweep(feeds):
        """Feed each (reads, count) over every store: count is called once
        per block with the block's ints in atom order."""
        if not feeds:
            return
        # each value read, keyed (packed pads, forms, constant), at its
        # place in a row
        places: dict[tuple[int, tuple[int, ...], int], int] = {}
        fed = []
        for keys, count in feeds:
            at = [places.setdefault(key, len(places)) for key in keys]
            # a getter of one place returns its value, not a 1-tuple
            join = itertools.chain.from_iterable if len(at) > 1 else iter
            fed.append((operator.itemgetter(*at), join, count))
        distinct = {forms for _, forms, _ in places}
        for forms in distinct - tables.keys():
            tables[forms] = _block_table(forms, width, low)
        on_pads = [
            (f, tables[f][1], _evaluate(tables[f][0], p) ^ c) for p, f, c in places
        ]
        for base in range(0, 1 << store_bits, block):
            at_base = {forms: _evaluate(tables[forms][0], base) for forms in distinct}
            values = []
            for forms, table, on in on_pads:
                v = at_base[forms] ^ on
                values.append(map(v.__xor__, table) if v else table)
            rows = list(zip(*values))
            for get, join, count in fed:
                count(join(map(get, rows)))

    def counting(dist: JointDistribution, lefts: list):
        """A count feeding dist's joint table, keyed (left, int), and its
        right margin from the ints of one block, lefts its left column."""

        def count(observed):
            observed = list(observed)
            dist.joint.update(zip(lefts, observed))
            dist.right.update(observed)

        return count

    total = per_store << store_bits
    feeds, dists = [], {}
    for k in users:
        keys, other = [], []
        for wants in demands:
            keys += reads(k, wants, None)
            other += [wants[:k] + wants[k + 1 :]] * per_demand
        # the left margin: every store has one store's other-demand column
        left = Counter({l: c << store_bits for l, c in Counter(other).items()})
        dists[k] = JointDistribution(total, Counter(), left, Counter())
        feeds.append((keys, counting(dists[k], other * block)))
    sweep(feeds)
    verdicts = {_privacy(k): dist.verdict() for k, dist in dists.items()}
    if invariance:
        views = _view_tables()
        worst_mi = 0.0
        for k, j in itertools.product((0, 1), repeat=2):
            sweep(
                [
                    (reads(k, wants, j), views[k, j, wants[1 - k]].update)
                    for wants in demands
                    if wants[k] == j
                ]
            )
            t0, t1 = views[k, j, 0], views[k, j, 1]
            cells = dict(zip(zip(itertools.repeat(0), t0), t0.values()))
            cells.update(zip(zip(itertools.repeat(1), t1), t1.values()))
            n0, n1 = sum(t0.values()), sum(t1.values())
            left = Counter({v: n for v, n in ((0, n0), (1, n1)) if n})
            # t0's views, then t1's new ones, each counted in both tables
            right = Counter(t0)
            dict.update(right, t1)
            for view in t0.keys() & t1.keys():
                right[view] = t0[view] + t1[view]
            dist = JointDistribution(n0 + n1, Counter(cells), left, right)
            worst_mi = max(worst_mi, dist.mutual_information_bits())
            # no count is 0, so the tables differ as dicts when they differ
            if dict.__ne__(t0, t1):
                # first view in insertion order, t0 then t1, whose counts differ
                view = next(c for c in itertools.chain(t0, t1) if t0[c] != t1[c])
                verdicts[_INVARIANCE] = Verdict(
                    False,
                    total,
                    f"user {k} demanding {j}: view counts shift with the "
                    f"other demand (first differing cell {view_of(view)}: seen "
                    f"{t0[view]} times when the other user demands 0, "
                    f"{t1[view]} when 1)",
                    worst_mi,
                )
                break
        else:
            verdicts[_INVARIANCE] = Verdict(True, total, None, worst_mi)
    return verdicts


def _images(forms: tuple[int, ...], width: int) -> dict[int, int]:
    """Per input bit GF(2) forms read, their packed outputs on it: inputs
    are w bits wide, input c at bits [c*w, (c+1)*w), and output r, at bits
    [r*w, (r+1)*w), is the XOR of the inputs forms[r] reads, so bit b of
    input c = b // w goes to the same lane of every output reading c."""
    spread: dict[int, int] = {}  # per input, the lane-0 bits of its outputs
    for r, form in enumerate(forms):
        for c in form_columns(form):
            spread[c] = spread.get(c, 0) | 1 << r * width
    lanes = range(width)
    return {c * width + i: rows << i for c, rows in spread.items() for i in lanes}


# each table 1 << low ints: at most max(1, _BLOCK_ATOMS // one store's atoms)
@functools.lru_cache(maxsize=128)
def _block_table(forms: tuple[int, ...], width: int, low: int) -> tuple:
    """(forms' per-bit images (_images), their packed outputs on each of the
    1 << low lowest packed inputs, doubling with each low bit's image by
    linearity), memoised by value.  Callers only read the images."""
    images, table = _images(forms, width), [0]
    for b in range(low):
        table += [images.get(b, 0) ^ v for v in table]
    return images, tuple(table)


def _evaluate(images: dict[int, int], x: int) -> int:
    """The packed outputs on the packed inputs x: by linearity, the XOR of
    the images (_images) of the bits x sets."""
    value = 0
    while x:
        bit = x & -x
        value ^= images.get(bit.bit_length() - 1, 0)
        x ^= bit
    return value


def _exact(value: Fraction) -> Fraction | int:
    """value as an int when it is whole, which compares faster."""
    value = Fraction(value)
    return int(value) if value.denominator == 1 else value


def check_decodability(
    s: SchemeInstance, width: int = 1, budget: int | None = None
) -> Verdict:
    """Every user recovers its demanded file exactly, over every atom.

    Each call walks the configurations again, sharing only the images and
    block tables memoised by value; ask several checks of one run_checks call.
    """
    return run_checks(s, width, budget)["decodability"]


def check_privacy(
    s: SchemeInstance, user: int, width: int = 1, budget: int | None = None
) -> Verdict:
    """Exact statistical independence of the other users' demands from
    everything user `user` observes (cache, key, broadcast, own demand).

    Each call walks the configurations again, sharing only the images and
    block tables memoised by value; ask several checks of one run_checks call.
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

    Each call walks the configurations again, sharing only the images and
    block tables memoised by value; ask several checks of one run_checks call.
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
    # full_demand_set's first member, without building its N^K demands
    demand = (0,) * s.n_users if s.served is None else s.served.members[0]
    payload, _ = s.deliver(store, demand, user_keys, 0)
    return Fraction(sizes.pop(), t), Fraction(len(payload), t), s.header_bits
