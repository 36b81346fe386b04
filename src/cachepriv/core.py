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


@dataclass(frozen=True, slots=True)
class FileStore:
    """A library of n_files files, each split into t subfile symbols of
    symbol_width bits.

    The symbols are ints in column order: file i subfile j is
    values[i*t + j].
    """

    n_files: int
    subpacketization: int
    symbol_width: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        check_width(self.symbol_width)
        if len(self.values) != self.n_files * self.subpacketization:
            raise ValueError("symbol count does not match files x subfiles")
        limit = 1 << self.symbol_width
        for v in self.values:
            if not 0 <= v < limit:
                raise ValueError(f"value {v} out of range for width {self.symbol_width}")

    @property
    def file_bits(self) -> int:
        return self.subpacketization * self.symbol_width

    def file(self, i: int) -> tuple[int, ...]:
        t = self.subpacketization
        return self.values[i * t : (i + 1) * t]

    def index(self) -> int:
        """Rank of this realization in the column-order enumeration of stores."""
        value, _ = pack_symbols(self.values, self.symbol_width)
        return value

    @staticmethod
    def space_size(n_files: int, subpacketization: int, width: int) -> int:
        return 1 << (n_files * subpacketization * width)

    @classmethod
    def from_index(
        cls, n_files: int, subpacketization: int, width: int, index: int
    ) -> "FileStore":
        mask = (1 << width) - 1
        values = tuple(
            (index >> (i * width)) & mask for i in range(n_files * subpacketization)
        )
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


class Privacy(Enum):
    PRIVATE = "private"
    NON_PRIVATE = "non-private"


def alphabet_bits(size: int) -> int:
    """Bits needed for one value of a finite alphabet (0 for a singleton)."""
    if size < 1:
        raise ValueError("alphabet size must be positive")
    return (size - 1).bit_length()


# one tuple of input columns per output symbol, which is their XOR
Rows = tuple[tuple[int, ...], ...]


def _nonnegative(lookup: Callable[..., tuple], with_header: bool) -> Callable:
    """lookup, raising IndexError for a row that names a negative column;
    behind the program's memo each table entry is checked once, and a
    caller of the unmemoised lookup pays the check on every call."""

    def checked(*args):
        result = lookup(*args)
        for r, cols in enumerate(result[0] if with_header else result):
            if cols and min(cols) < 0:
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
    is first looked up.  A table's __wrapped__ is the same checked lookup
    without the memo, for a caller that reads each entry once.
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


def check_shape(n_files: int, n_users: int) -> None:
    """Raise ParameterError unless there is at least one file and one user."""
    if n_files < 1 or n_users < 1:
        raise ParameterError(
            f"a scheme needs at least one file and one user, "
            f"got {n_files} files and {n_users} users"
        )


def xor_rows(rows: Rows, values: Sequence[int]) -> tuple[int, ...]:
    """One value per row, the XOR of the values its columns select.  Columns
    are never negative: the program's tables reject such rows.  Given the
    unit vectors 1 << c for the values, it gives each row's GF(2) form."""
    out = []
    for cols in rows:
        value = 0
        for i in cols:
            value ^= values[i]
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class SchemeInstance:
    """An executable caching scheme: a column program with declared exact
    parameters.  place, deliver and decode run the program on symbol values:

    place(user_keys, store)                           -> cache per user
    deliver(store, demand, user_keys, server_random)  -> (payload, header)
    decode(user, demand, key, header, cache, payload) -> the file's symbols

    user_keys holds one key per user.  Caches, payloads and decoded files
    are tuples of symbol values, headers tuples of small ints.  deliver
    takes the demand as any int sequence and raises ParameterError unless
    it has one entry per user, each in range(n_files).
    They are plain methods, so an instance attribute may shadow them (a
    tracer's wrapper, say).  The verifier evaluates the program itself and
    never calls them.

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

    def __post_init__(self) -> None:
        check_shape(self.n_files, self.n_users)
        if len(self.key_sizes) != self.n_users:
            raise ValueError("one key alphabet per user required")
        if self.privacy is Privacy.NON_PRIVATE and self.served is None:
            raise ValueError("non-private schemes must declare a served demand set")

    def place(
        self, user_keys: Sequence[int], store: FileStore
    ) -> tuple[tuple[int, ...], ...]:
        cache = self.program.cache
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
        configs, pads = self.program.split_server(server_random, store.symbol_width)
        rows, header = self.program.delivery(demand, user_keys, configs)
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
        rows = self.program.recipe(user, demand, key, header)
        return xor_rows(rows, cache + payload)

    @property
    def key_sizes(self) -> tuple[int, ...]:
        return self.program.key_sizes

    @property
    def header_sizes(self) -> tuple[int, ...]:
        return self.program.header_sizes

    def server_random_size(self, width: int) -> int:
        return self.program.server_size(width)

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
