"""Core value types and exact bit/demand arithmetic for broadcast caching.

Everything here is exact: subfile symbols are fixed-width bit vectors held in
Python ints, scheme parameters are fractions, and every randomness source
(user keys, server randomness) is an explicit finite alphabet so that the
verifier can enumerate joint distributions exhaustively.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence


class SchemeError(Exception):
    """Base class for scheme construction and execution errors."""


class ParameterError(SchemeError):
    """Scheme parameters are inconsistent or not realizable."""


class UnservedDemand(SchemeError):
    """Delivery or decode requested for a demand outside the served set."""


# ---------------------------------------------------------------------------
# bit packing and the file store


def check_width(width: int) -> None:
    """Raise ParameterError for a symbol width below one bit."""
    if width < 1:
        raise ParameterError(f"symbol width must be at least 1, got {width}")


def pack_symbols(values: Sequence[int], width: int) -> tuple[int, int]:
    """Pack width-bit values into one int, the first value in the least
    significant bits.

    Returns (value, total_bit_length).
    """
    value = 0
    offset = 0
    for v in values:
        value |= v << offset
        offset += width
    return value, offset


def unpack_symbols(value: int, width: int, count: int) -> tuple[int, ...]:
    """The count width-bit values packed in value (pack_symbols), the first
    from the least significant bits."""
    mask = (1 << width) - 1
    return tuple((value >> (i * width)) & mask for i in range(count))


class FileStore(
    namedtuple("FileStore", "n_files subpacketization symbol_width values")
):
    """A library of n_files files, each split into t subfile symbols of
    symbol_width bits.

    The symbols are ints in column order: file i subfile j is
    values[i*t + j].  An immutable named tuple; the constructor, _make and
    _replace all check the width, the symbol count and each value's range.
    """

    __slots__ = ()

    def __new__(
        cls,
        n_files: int,
        subpacketization: int,
        symbol_width: int,
        values: tuple[int, ...],
    ) -> "FileStore":
        check_width(symbol_width)
        if len(values) != n_files * subpacketization:
            raise ValueError("symbol count does not match files x subfiles")
        limit = 1 << symbol_width
        for v in values:
            if not 0 <= v < limit:
                raise ValueError(f"value {v} out of range for width {symbol_width}")
        return tuple.__new__(cls, (n_files, subpacketization, symbol_width, values))

    @classmethod
    def _make(cls, iterable) -> "FileStore":
        return cls(*iterable)

    def file(self, i: int) -> tuple[int, ...]:
        t = self.subpacketization
        return self.values[i * t : (i + 1) * t]

    @classmethod
    def from_index(
        cls, n_files: int, subpacketization: int, width: int, index: int
    ) -> "FileStore":
        values = unpack_symbols(index, width, n_files * subpacketization)
        return cls(n_files, subpacketization, width, values)

    @classmethod
    def random(
        cls, n_files: int, subpacketization: int, width: int, rng: random.Random
    ) -> "FileStore":
        # one independent draw per symbol, in column order
        values = tuple(
            rng.getrandbits(width) for _ in range(n_files * subpacketization)
        )
        return cls(n_files, subpacketization, width, values)

    @classmethod
    def zero(cls, n_files: int, subpacketization: int, width: int) -> "FileStore":
        return cls.from_index(n_files, subpacketization, width, 0)


# ---------------------------------------------------------------------------
# demands


class Frozen:
    """Base of an immutable slot class whose constructor validates, then
    sets the fields named in _fields once, in order (Frozen.__init__).
    Instances compare and hash by the class and the fields' values, as a
    frozen dataclass does, copy and pickle through the constructor, and
    raise AttributeError on any assignment.  A slot outside _fields may
    hold a lookup derived from the fields, set with object.__setattr__ on
    first use.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DemandVector(Frozen):
    """One file request per user, each in range(n_files)."""

    __slots__ = _fields = ("n_files", "entries")

    def __init__(self, n_files: int, entries: tuple[int, ...]) -> None:
        for d in entries:
            if not 0 <= d < n_files:
                raise ValueError(f"demand {d} out of range for {n_files} files")
        super().__init__(n_files, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, k: int) -> int:
        return self.entries[k]


def identity_vector(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def cyclic_shift(vector: Sequence[int], times: int) -> tuple[int, ...]:
    """Rotate right `times` positions: position j receives vector[j - times]."""
    n = len(vector)
    t = times % n
    return tuple(vector[(j - t) % n] for j in range(n))


class DemandSubset(Frozen):
    """An explicit set of demand vectors."""

    _fields = ("n_files", "n_users", "members", "label")
    __slots__ = (*_fields, "_member_set")

    def __init__(
        self,
        n_files: int,
        n_users: int,
        members: tuple[tuple[int, ...], ...],
        label: str,
    ) -> None:
        for m in members:
            if len(m) != n_users:
                raise ValueError("member length does not match user count")
        super().__init__(n_files, n_users, members, label)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.members)

    def __contains__(self, demand: object) -> bool:
        try:
            member_set = self._member_set
        except AttributeError:
            member_set = frozenset(self.members)
            object.__setattr__(self, "_member_set", member_set)
        return tuple(demand) in member_set  # type: ignore[arg-type]


def full_demand_set(n_files: int, n_users: int) -> DemandSubset:
    members = tuple(itertools.product(range(n_files), repeat=n_users))
    return DemandSubset(n_files, n_users, members, "full")


def cyclic_demand_set(n_files: int, n_blocks: int) -> DemandSubset:
    """Demands over n_blocks*n_files virtual users whose length-n_files blocks
    are each a cyclic rotation of the identity pattern (0, ..., n_files-1).

    Members are listed in itertools.product order of their per-block
    right-shift counts.
    """
    ident = identity_vector(n_files)
    members = []
    for c in itertools.product(range(n_files), repeat=n_blocks):
        blocks = [cyclic_shift(ident, ci) for ci in c]
        members.append(tuple(itertools.chain.from_iterable(blocks)))
    return DemandSubset(n_files, n_blocks * n_files, tuple(members), "cyclic")


# ---------------------------------------------------------------------------
# scheme plumbing


class Privacy(Enum):
    PRIVATE = "private"
    NON_PRIVATE = "non-private"


def alphabet_bits(size: int) -> int:
    """Bits needed for one value of a finite alphabet (0 for a singleton)."""
    if size < 1:
        raise ValueError("alphabet size must be positive")
    return (size - 1).bit_length()


# one GF(2) form per output symbol: bit c set when the symbol XORs input c
Rows = tuple[int, ...]


def form_columns(form: int) -> tuple[int, ...]:
    """The inputs a form reads, ascending; IndexError for a negative form.
    Read off its binary digits, in time linear in the form's width."""
    if form < 0:
        raise IndexError(f"form {form} names a negative column")
    digits, cols, c = bin(form)[:1:-1], [], -1
    while (c := digits.find("1", c + 1)) >= 0:
        cols.append(c)
    return tuple(cols)


def unit_rows(start: int, count: int) -> Rows:
    """Forms copying the count input columns from start on, one each."""
    return tuple(1 << c for c in range(start, start + count))


@functools.lru_cache(maxsize=4096)
def columns_of(forms: Rows) -> tuple[tuple[int, ...], ...]:
    """Each form's column tuple (form_columns), memoised by forms value."""
    return tuple(map(form_columns, forms))


# instances each scheme constructor (basic_private_scheme, lift_private,
# uncoded_baseline, memory_share, compile_linear_scheme) keeps per process,
# in an lru_cache keyed by the value of its arguments: equal arguments give
# the same instance, and with it the table entries it memoised on
# earlier calls.  No instance holds a verdict, walk or count table, and an
# exception is raised again on every call.  A verify call builds one
# instance per scheme its token names, which keeps the entries its calls
# read (7 MiB after verify share:1/2:thm1:4,3,0:thm1:4,3,4 with a budget
# of 4e9 atoms; README "Command-line usage").
SCHEME_MEMO = 64


def check_shape(n_files: int, n_users: int) -> None:
    """Raise ParameterError unless there is at least one file and one user."""
    if n_files < 1 or n_users < 1:
        raise ParameterError(
            f"a scheme needs at least one file and one user, "
            f"got {n_files} files and {n_users} users"
        )


def xor_rows(rows: Sequence[tuple[int, ...]], values: Sequence[int]) -> tuple[int, ...]:
    """One value per column tuple (form_columns), the XOR of the values its
    columns select."""
    out = []
    for cols in rows:
        value = 0
        for i in cols:
            value ^= values[i]
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class SchemeInstance:
    """An executable caching scheme: a keyed GF(2)-linear scheme as three
    lazily filled tables of forms (Rows), with declared exact parameters.
    Bit c of a form stands for input c.

    cache(user, key) gives forms over the file columns (file i subfile j is
    column i*t + j); delivery(demand, keys, configs) gives (forms over the
    file columns then the pad columns, header); recipe(user, demand, key,
    header) gives forms over the user's cache symbols then the payload.

    server lists the parts of the server randomness, least significant
    first, as (configurations, pads).  At width w a part's low pads*w bits
    fill its pad columns, pad p from bits [p*w, (p+1)*w), and the value
    above them modulo configurations is the part's configuration.

    The tables are plain lookups with no memo of their own; where an entry
    is re-read, the scheme keeps it inside (a thm1's slot orders, a share's
    parts' deliveries), and the verifier's walk keeps the recipes it reads
    again for that walk only.  columns[table] is a memo of the table's
    entries with each form as its column tuple (form_columns), the symbol
    path's view: a negative form raises IndexError on the entry's first
    read there.  These memos live as long as the instance, which a
    memoised constructor keeps per process (SCHEME_MEMO).

    place, deliver and decode run the tables on symbol values:

    place(user_keys, store)                           -> cache per user
    deliver(store, demand, user_keys, server_random)  -> (payload, header)
    decode(user, demand, key, header, cache, payload) -> the file's symbols

    user_keys holds one key per user.  Caches, payloads and decoded files
    are tuples of symbol values, headers tuples of small ints.  deliver
    takes the demand as any int sequence and raises ParameterError unless
    it has one entry per user, each in range(n_files).  They XOR symbol
    values by the column tuples (columns), and raise IndexError for a
    negative form or one reading past the values given.  They are plain
    methods, so an instance attribute may shadow them (a tracer's wrapper,
    say); on an instance a memoised constructor returned, every later
    caller given that instance sees the shadow.  The verifier reads the
    forms itself and never calls them.

    key_sizes[k] is the alphabet size of user k's key; server_random_size(l)
    is the alphabet size of the server's private randomness when subfile
    symbols are l bits wide.  served is the set of served demands, or None
    for every demand, as a private scheme serves.
    """

    name: str
    n_files: int
    n_users: int
    memory: Fraction
    rate: Fraction
    subpacketization: int
    key_sizes: tuple[int, ...]
    header_sizes: tuple[int, ...]
    server: tuple[tuple[int, int], ...]
    cache: Callable[[int, int], Rows]
    delivery: Callable[..., tuple[Rows, tuple[int, ...]]]
    recipe: Callable[..., Rows]
    privacy: Privacy
    served: DemandSubset | None = None

    def __post_init__(self) -> None:
        check_shape(self.n_files, self.n_users)
        if len(self.key_sizes) != self.n_users:
            raise ValueError("one key alphabet per user required")

    @cached_property
    def columns(self) -> dict[str, Callable]:
        cache, delivery, recipe = self.cache, self.delivery, self.recipe

        def delivered(*args):
            forms, header = delivery(*args)
            return columns_of(forms), header

        return {
            "cache": functools.cache(lambda *args: columns_of(cache(*args))),
            "delivery": functools.cache(delivered),
            "recipe": functools.cache(lambda *args: columns_of(recipe(*args))),
        }

    def split_server(self, value: int, width: int) -> tuple[tuple[int, ...], list[int]]:
        """(configuration per part, pad values in column order)."""
        mask, configs, pads = (1 << width) - 1, [], []
        for n_configs, n_pads in self.server:
            for _ in range(n_pads):
                pads.append(value & mask)
                value >>= width
            value, config = divmod(value, n_configs)
            configs.append(config)
        return tuple(configs), pads

    def place(
        self, user_keys: Sequence[int], store: FileStore
    ) -> tuple[tuple[int, ...], ...]:
        cache = self.columns["cache"]
        return tuple(
            xor_rows(cache(u, k), store.values) for u, k in enumerate(user_keys)
        )

    def deliver(
        self,
        store: FileStore,
        demand: Sequence[int],
        user_keys: tuple[int, ...],
        server_random: int,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        demand = tuple(demand)
        self.check_demand(demand)
        configs, pads = self.split_server(server_random, store.symbol_width)
        rows, header = self.columns["delivery"](demand, user_keys, configs)
        return xor_rows(rows, (*store.values, *pads)), header

    def decode(
        self,
        user: int,
        demand: int,
        key: int,
        header: tuple[int, ...],
        cache: tuple[int, ...],
        payload: tuple[int, ...],
    ) -> tuple[int, ...]:
        rows = self.columns["recipe"](user, demand, key, header)
        return xor_rows(rows, cache + payload)

    def server_random_size(self, width: int) -> int:
        return math.prod(configs << (pads * width) for configs, pads in self.server)

    def check_demand(self, demand: Sequence[int]) -> None:
        """Raise ParameterError unless the demand has one entry per user,
        each in range(n_files)."""
        if len(demand) != self.n_users:
            raise ParameterError(
                f"{self.name} has {self.n_users} users, "
                f"but the demand has {len(demand)} entries"
            )
        for d in demand:
            if not 0 <= d < self.n_files:
                raise ParameterError(f"demand {d} out of range for {self.n_files} files")

    @property
    def header_bits(self) -> int:
        return sum(alphabet_bits(s) for s in self.header_sizes)

    @property
    def key_space_size(self) -> int:
        return math.prod(self.key_sizes)

    def served_demands(self) -> DemandSubset:
        if self.served is not None:
            return self.served
        return full_demand_set(self.n_files, self.n_users)

    def n_served(self) -> int:
        if self.served is not None:
            return len(self.served)
        return self.n_files**self.n_users

    def describe(self) -> str:
        return (
            f"{self.name} (N={self.n_files} K={self.n_users} "
            f"M={self.memory} R={self.rate} t={self.subpacketization}, "
            f"{self.privacy.value})"
        )
