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
from dataclasses import dataclass, field
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
# symbols and bit packing


@dataclass(frozen=True, slots=True)
class SubfileSymbol:
    """A fixed-width bit vector, the atomic unit schemes operate on."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"symbol width must be >= 1, got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} out of range for width {self.width}")


def pack_symbols(symbols: Sequence[SubfileSymbol]) -> tuple[int, int]:
    """Pack symbols into one int, first symbol in the least significant bits.

    Returns (value, total_bit_length).
    """
    value = 0
    offset = 0
    for s in symbols:
        value |= s.value << offset
        offset += s.width
    return value, offset


def split_bits(value: int, width: int, count: int) -> tuple[SubfileSymbol, ...]:
    """Inverse of pack_symbols for a run of equal-width symbols."""
    mask = (1 << width) - 1
    return tuple(
        SubfileSymbol(width, (value >> (i * width)) & mask) for i in range(count)
    )


def total_width(symbols: Sequence[SubfileSymbol]) -> int:
    return sum(s.width for s in symbols)


# ---------------------------------------------------------------------------
# file store


@dataclass(frozen=True, slots=True)
class FileStore:
    """A library of n_files files, each split into t subfile symbols.

    Symbols are indexed (file, subfile) and flattened row-major wherever a
    linear order is needed, so file i subfile j is flat position i*t + j.
    """

    n_files: int
    subpacketization: int
    symbol_width: int
    symbols: tuple[tuple[SubfileSymbol, ...], ...]

    def __post_init__(self) -> None:
        if len(self.symbols) != self.n_files:
            raise ValueError("file count does not match symbol grid")
        for row in self.symbols:
            if len(row) != self.subpacketization:
                raise ValueError("subfile count does not match symbol grid")
            for s in row:
                if s.width != self.symbol_width:
                    raise ValueError("mixed symbol widths in store")

    @property
    def file_bits(self) -> int:
        return self.subpacketization * self.symbol_width

    def file(self, i: int) -> tuple[SubfileSymbol, ...]:
        return self.symbols[i]

    def flat(self) -> tuple[SubfileSymbol, ...]:
        return tuple(s for row in self.symbols for s in row)

    def index(self) -> int:
        """Rank of this realization in the row-major enumeration of stores."""
        value, _ = pack_symbols(self.flat())
        return value

    @staticmethod
    def space_size(n_files: int, subpacketization: int, width: int) -> int:
        return 1 << (n_files * subpacketization * width)

    @classmethod
    def from_index(
        cls, n_files: int, subpacketization: int, width: int, index: int
    ) -> "FileStore":
        flat = split_bits(index, width, n_files * subpacketization)
        rows = tuple(
            flat[i * subpacketization : (i + 1) * subpacketization]
            for i in range(n_files)
        )
        return cls(n_files, subpacketization, width, rows)

    @classmethod
    def random(
        cls, n_files: int, subpacketization: int, width: int, rng: random.Random
    ) -> "FileStore":
        # one independent draw per symbol, in (file, subfile) order
        rows = tuple(
            tuple(
                SubfileSymbol(width, rng.getrandbits(width))
                for _ in range(subpacketization)
            )
            for _ in range(n_files)
        )
        return cls(n_files, subpacketization, width, rows)

    @classmethod
    def zero(cls, n_files: int, subpacketization: int, width: int) -> "FileStore":
        return cls.from_index(n_files, subpacketization, width, 0)


# ---------------------------------------------------------------------------
# demands


@dataclass(frozen=True, slots=True)
class DemandVector:
    """One file request per user, each in range(n_files)."""

    n_files: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.entries:
            if not 0 <= d < self.n_files:
                raise ValueError(f"demand {d} out of range for {self.n_files} files")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, k: int) -> int:
        return self.entries[k]

    def drop(self, k: int) -> tuple[int, ...]:
        """All entries except user k's, in user order."""
        return self.entries[:k] + self.entries[k + 1 :]


def identity_vector(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def cyclic_shift(vector: Sequence[int], times: int) -> tuple[int, ...]:
    """Rotate right `times` positions: position j receives vector[j - times]."""
    n = len(vector)
    t = times % n
    return tuple(vector[(j - t) % n] for j in range(n))


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


@dataclass(frozen=True)
class DemandSubset:
    """An explicit set of demand vectors."""

    n_files: int
    n_users: int
    members: tuple[tuple[int, ...], ...]
    label: str

    def __post_init__(self) -> None:
        for m in self.members:
            if len(m) != self.n_users:
                raise ValueError("member length does not match user count")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.members)

    def __contains__(self, demand: object) -> bool:
        return tuple(demand) in self._member_set  # type: ignore[arg-type]

    @cached_property
    def _member_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.members)


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


@dataclass(frozen=True, slots=True)
class KeyAssignment:
    """One realization of the shared user keys and the server's randomness."""

    user_keys: tuple[int, ...]
    server_random: int = 0


@dataclass(frozen=True, slots=True)
class CacheContent:
    """One user's cache: coded symbols plus the stored key value."""

    symbols: tuple[SubfileSymbol, ...]
    key: int

    @property
    def bit_length(self) -> int:
        return total_width(self.symbols)


@dataclass(frozen=True, slots=True)
class DeliveryMessage:
    """The broadcast: a symbol payload and a small finite-alphabet header."""

    payload: tuple[SubfileSymbol, ...]
    header: tuple[int, ...]

    @property
    def payload_bits(self) -> int:
        return total_width(self.payload)


class Privacy(Enum):
    PRIVATE = "private"
    NON_PRIVATE = "non-private"


PlaceFn = Callable[[KeyAssignment, FileStore], tuple[CacheContent, ...]]
DeliverFn = Callable[[FileStore, DemandVector, KeyAssignment], DeliveryMessage]
DecodeFn = Callable[
    [int, int, int, DeliveryMessage, CacheContent], tuple[SubfileSymbol, ...]
]


def alphabet_bits(size: int) -> int:
    """Bits needed for one value of a finite alphabet (0 for a singleton)."""
    if size < 1:
        raise ValueError("alphabet size must be positive")
    return (size - 1).bit_length()


# one tuple of input columns per output symbol, which is their XOR
Rows = tuple[tuple[int, ...], ...]


def _nonnegative(lookup: Callable[..., tuple], with_header: bool) -> Callable:
    """lookup, raising IndexError for a row that names a negative column;
    memoised, each table entry is checked once."""

    def checked(*args):
        result = lookup(*args)
        for r, cols in enumerate(result[0] if with_header else result):
            if any(c < 0 for c in cols):
                raise IndexError(f"row {r} names a negative column: {cols}")
        return result

    return checked


@dataclass(frozen=True, eq=False)
class ColumnProgram:
    """A keyed GF(2)-linear scheme as three lazily filled, memoised tables.

    cache(user, key) gives rows over the file columns (file i subfile j is
    column i*t + j); delivery(demand, keys, configs) gives (rows over the
    file columns then the pad columns, header); recipe(user, demand, key,
    header) gives rows over the user's cache symbols then the payload.

    server lists the parts of the server randomness, least significant
    first, as (configurations, pads).  At width w a part's low pads*w bits
    fill its pad columns, pad p from bits [p*w, (p+1)*w), and the value
    above them modulo configurations is the part's configuration.

    A row naming a negative column raises IndexError when its table entry
    is first looked up.
    """

    key_sizes: tuple[int, ...]
    header_sizes: tuple[int, ...]
    server: tuple[tuple[int, int], ...]
    cache: Callable[[int, int], Rows]
    delivery: Callable[..., tuple[Rows, tuple[int, ...]]]
    recipe: Callable[..., Rows]

    def __post_init__(self) -> None:
        for table in ("cache", "delivery", "recipe"):
            lookup = _nonnegative(getattr(self, table), table == "delivery")
            object.__setattr__(self, table, functools.cache(lookup))

    def server_size(self, width: int) -> int:
        return math.prod(configs << (pads * width) for configs, pads in self.server)

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


@dataclass(frozen=True)
class SchemeInstance:
    """An executable caching scheme: a column program with declared exact
    parameters.  Building one binds these to one ProgramRunner of the
    program:

    place(keys, store)           -> one CacheContent per user
    deliver(store, demand, keys) -> DeliveryMessage
    decode(user, demand, key, message, cache) -> the demanded file's symbols

    deliver raises ParameterError unless the demand has one entry per user.
    They are attributes of the instance, not init fields, so replace()
    builds a new runner and refuses other callables.  The verifier
    evaluates the program itself and never calls them.

    key_sizes[k] is the alphabet size of user k's key; server_random_size(l)
    is the alphabet size of the server's private randomness when subfile
    symbols are l bits wide.  Non-private schemes must declare an explicit
    served demand set; private schemes serve every demand (served is None).
    """

    name: str
    n_files: int
    n_users: int
    memory: Fraction
    rate: Fraction
    subpacketization: int
    program: ColumnProgram
    privacy: Privacy
    served: DemandSubset | None = None
    place: PlaceFn = field(init=False, repr=False, compare=False)
    deliver: DeliverFn = field(init=False, repr=False, compare=False)
    decode: DecodeFn = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.key_sizes) != self.n_users:
            raise ValueError("one key alphabet per user required")
        if self.privacy is Privacy.NON_PRIVATE and self.served is None:
            raise ValueError("non-private schemes must declare a served demand set")
        runner = ProgramRunner(self)
        for attr in ("place", "deliver", "decode"):
            object.__setattr__(self, attr, getattr(runner, attr))

    @property
    def key_sizes(self) -> tuple[int, ...]:
        return self.program.key_sizes

    @property
    def header_sizes(self) -> tuple[int, ...]:
        return self.program.header_sizes

    def server_random_size(self, width: int) -> int:
        return self.program.server_size(width)

    def check_demand(self, demand: Sequence[int]) -> None:
        """Raise ParameterError unless the demand has one entry per user."""
        if len(demand) != self.n_users:
            raise ParameterError(
                f"{self.name} has {self.n_users} users, "
                f"but the demand has {len(demand)} entries"
            )

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


def _xor_rows(
    rows: Rows, symbols: Sequence[SubfileSymbol], values: Sequence[int], width: int
) -> tuple[SubfileSymbol, ...]:
    """One symbol per row.  A one-column row over symbols passes that symbol
    object through; any other row boxes the XOR of the values it selects
    (values may go on past symbols, into the pad columns).  Columns are
    never negative: the program's tables reject such rows."""
    out = []
    n_symbols = len(symbols)
    for cols in rows:
        if len(cols) == 1 and cols[0] < n_symbols:
            out.append(symbols[cols[0]])
        else:
            value = 0
            for i in cols:
                value ^= values[i]
            out.append(SubfileSymbol(width, value))
    return tuple(out)


class ProgramRunner:
    """place, deliver and decode of a scheme, run from its column program.

    They look their rows up in the program's tables and only XOR symbol
    values.
    """

    def __init__(self, scheme: SchemeInstance) -> None:
        self.program = scheme.program
        self.check_demand = scheme.check_demand
        # the last store seen, with its symbols and their values in column order
        self._last: tuple = (None, (), [])

    def _inputs(self, store: FileStore) -> tuple[tuple[SubfileSymbol, ...], list[int]]:
        if store is not self._last[0]:
            symbols = store.flat()
            self._last = (store, symbols, [s.value for s in symbols])
        return self._last[1], self._last[2]

    def place(self, keys: KeyAssignment, store: FileStore) -> tuple[CacheContent, ...]:
        symbols, values = self._inputs(store)
        w = store.symbol_width
        return tuple(
            CacheContent(_xor_rows(self.program.cache(u, k), symbols, values, w), k)
            for u, k in enumerate(keys.user_keys)
        )

    def deliver(
        self, store: FileStore, demand: DemandVector, keys: KeyAssignment
    ) -> DeliveryMessage:
        self.check_demand(demand)
        symbols, values = self._inputs(store)
        w = store.symbol_width
        configs, pads = self.program.split_server(keys.server_random, w)
        rows, header = self.program.delivery(demand.entries, keys.user_keys, configs)
        return DeliveryMessage(_xor_rows(rows, symbols, values + pads, w), header)

    def decode(
        self,
        user: int,
        demand: int,
        key: int,
        msg: DeliveryMessage,
        cache: CacheContent,
    ) -> tuple[SubfileSymbol, ...]:
        rows = self.program.recipe(user, demand, key, msg.header)
        symbols = cache.symbols + msg.payload
        return _xor_rows(rows, symbols, [s.value for s in symbols], symbols[0].width)
