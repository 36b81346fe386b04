"""Linear scheme search and rank-based verification over GF(2).

A linear scheme for n_files files split into t subfiles assigns each virtual
user a cache matrix and each served demand a delivery matrix, both acting on
the n_files*t stacked subfile symbols (file i subfile j is column i*t + j).
User u can decode file f from demand d exactly when every unit row of f lies
in the rowspan of user u's cache rows stacked with demand d's delivery rows.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from . import gf2
from .core import (
    SCHEME_MEMO,
    ColumnProgram,
    DemandSubset,
    ParameterError,
    Privacy,
    SchemeInstance,
    UnservedDemand,
    unit_rows,
)
from .verifier import Verdict

DEFAULT_TRIAL_BUDGET = 10**6
# completion keeps each coset as a 2^n_cols-bit element mask (8 KiB at 16
# columns), so a wider target is refused before its first trial
MAX_SEARCH_COLUMNS = 16


class LinearSchemeMatrices(
    namedtuple(
        "LinearSchemeMatrices",
        "n_files n_users subpacketization cache_rows deliveries",
    )
):
    """Cache matrices per virtual user and delivery matrices per demand.

    Rows are bit-packed ints over n_files*subpacketization columns.
    deliveries is a tuple of (demand, rows) pairs in a fixed order.  An
    immutable named tuple (copy one with _replace); the instance dict holds
    only the delivery index, built on the first delivery_for.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def n_cols(self) -> int:
        return self.n_files * self.subpacketization

    @property
    def cache_dim(self) -> int:
        return len(self.cache_rows[0]) if self.cache_rows else 0

    @property
    def tx_dim(self) -> int:
        return len(self.deliveries[0][1]) if self.deliveries else 0

    @property
    def memory(self) -> Fraction:
        return Fraction(self.cache_dim, self.subpacketization)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.tx_dim, self.subpacketization)

    def delivery_for(self, demand: Sequence[int]) -> tuple[int, ...]:
        key = tuple(demand)
        rows = self._delivery_index.get(key)
        if rows is None:
            raise UnservedDemand(f"no delivery matrix for demand {key}")
        return rows

    @cached_property
    def _delivery_index(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(reversed(self.deliveries))  # the first entry for a demand wins

    def validate(self) -> None:
        """Shape and full-row-rank invariants (no wasted rows)."""
        if len(self.cache_rows) != self.n_users:
            raise ParameterError("one cache matrix per virtual user required")
        limit = 1 << self.n_cols
        for u, rows in enumerate(self.cache_rows):
            if len(rows) != self.cache_dim:
                raise ParameterError("ragged cache matrices")
            if any(not 0 <= r < limit for r in rows):
                raise ParameterError("cache row out of column range")
            if gf2.rank(rows) != len(rows):
                raise ParameterError(f"cache matrix of user {u} is rank deficient")
        for d, rows in self.deliveries:
            if len(d) != self.n_users:
                raise ParameterError("demand length does not match user count")
            if any(not 0 <= f < self.n_files for f in d):
                raise ParameterError(
                    f"demand {d} names a file outside range({self.n_files})"
                )
            if len(rows) != self.tx_dim:
                raise ParameterError("ragged delivery matrices")
            if any(not 0 <= r < limit for r in rows):
                raise ParameterError("delivery row out of column range")
            if rows and gf2.rank(rows) != len(rows):
                raise ParameterError(f"delivery matrix for {d} is rank deficient")


def verify_linear(m: LinearSchemeMatrices, demands: DemandSubset) -> Verdict:
    """Rank-condition decodability of a linear scheme over a demand set."""
    if demands.n_files != m.n_files or demands.n_users != m.n_users:
        raise ParameterError("demand set shape does not match the matrices")
    cases, t = 0, m.subpacketization
    for demand in demands:
        rows = m.delivery_for(demand)
        for u in range(m.n_users):
            basis = gf2.reduced_basis(m.cache_rows[u] + rows)
            for j, target in enumerate(unit_rows(demand[u] * t, t)):
                cases += 1
                if not gf2.in_span(target, basis):
                    return Verdict(
                        False,
                        cases,
                        f"user {u} cannot recover subfile {j} of file "
                        f"{demand[u]} under demand {tuple(demand)}",
                    )
    return Verdict(True, cases)


# ---------------------------------------------------------------------------
# compiling matrices into an executable scheme


@functools.lru_cache(maxsize=SCHEME_MEMO)
def compile_linear_scheme(
    m: LinearSchemeMatrices, served: DemandSubset, name: str
) -> SchemeInstance:
    """Executable scheme from matrices.  The cache and delivery tables hand
    out the matrices' rows, and each decode recipe is solved once, as forms
    over the user's cache rows then the delivery rows: recipe form i reads
    row c of them when combination i takes it.  The broadcast header
    carries the full demand vector, which is the usual convention for
    schemes with no privacy requirement.  An unsolvable (demand, user)
    pair's recipe forms are zero, so its decoder emits zero symbols and a
    broken matrix set stays runnable, caught by the exhaustive
    decodability check.

    The instance is memoised per process by the value of (m, served, name)
    (core.SCHEME_MEMO), so the recipes are solved once per distinct
    arguments; another name gives another instance, whose errors name it.
    """
    m.validate()
    if served.n_files != m.n_files or served.n_users != m.n_users:
        raise ParameterError("served demand set shape does not match the matrices")
    t = m.subpacketization
    n_cols = m.n_cols
    cache_rows = m.cache_rows

    deliveries: dict[tuple[int, ...], tuple[int, ...]] = {}
    recipes: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for demand in served:
        tx_rows = deliveries[demand] = m.delivery_for(demand)
        for u in range(m.n_users):
            solved = gf2.solve_combinations(
                cache_rows[u] + tx_rows, unit_rows(demand[u] * t, t), n_cols
            )
            recipes[(demand, u)] = (
                (0,) * t
                if None in solved
                else tuple(sum(c << i for i, c in enumerate(cs)) for cs in solved)
            )

    def delivery(demand, keys, configs):
        if demand not in deliveries:
            raise UnservedDemand(f"{name} does not serve demand {demand}")
        return deliveries[demand], demand

    def recipe(user, demand, key, header):
        if (header, user) not in recipes:
            raise UnservedDemand(f"{name} has no recipe for demand {header}")
        return recipes[(header, user)]

    program = ColumnProgram(
        key_sizes=(1,) * m.n_users,
        header_sizes=(m.n_files,) * m.n_users,
        server=(),
        cache=lambda user, key: cache_rows[user],
        delivery=delivery,
        recipe=recipe,
    )
    return SchemeInstance(
        program=program,
        name=name,
        n_files=m.n_files,
        n_users=m.n_users,
        memory=m.memory,
        rate=m.rate,
        subpacketization=m.subpacketization,
        privacy=Privacy.NON_PRIVATE,
        served=served,
    )


# ---------------------------------------------------------------------------
# search


# (n_cols, dim) -> ([rows] of the dim-dimensional subspaces in
# gf2.iter_subspaces order, {element x: bitset with bit i set when entry i
# holds x}, that generator), filled as far as a scan reached
_SUBSPACES: dict[
    tuple[int, int], tuple[list, dict[int, int], Iterator[tuple[int, ...]]]
] = {}


def _coset(offset: int, rows: Iterable[int]) -> list[int]:
    """The elements of offset + span(rows), for independent rows."""
    out = [offset]
    for r in rows:
        out += [x ^ r for x in out]
    return out


def _element_mask(elements: Iterable[int]) -> int:
    return sum(map((1).__lshift__, elements))  # bit v set for each element v


def _residuals(basis: dict[int, int], f: int, t: int) -> set[int]:
    """Distinct nonzero residuals of file f's unit targets modulo the basis.

    A reduced basis row with pivot e_c holds no other pivot bit, so it is
    e_c plus e_c's residual; a unit row off the pivots is its own residual.
    """
    get = basis.get
    found = set()
    e = 1 << (f * t)
    for _ in range(t):
        found.add(get(e, 0) ^ e)
        e <<= 1
    found.discard(0)
    return found


def _user_feasible(table: list[int], files: Iterable[int], t: int, tx_dim: int) -> bool:
    """Necessary condition: the delivery adds at most tx_dim dimensions, so the
    cache span C must meet each needed file's span F_f in t - tx_dim or more.
    table is C's echelon form by highest pivot (table[h]: the row with top bit
    h - 1, or 0), so dim(C & F_f) is its pivot count inside F_f, less each such
    row that, F_f's columns cleared, is independent of the rows below them.
    File 0 has no columns below it, so its pivot count is its dimension; the
    first file whose count falls short ends the test."""
    need = t - tx_dim
    if need <= 0:
        return True
    for f in files:
        lo = f * t
        inside = table[lo + 1 : lo + t + 1]
        meet = t - inside.count(0)
        if meet < need:
            return False
        if lo:
            below = table[: lo + 1]
            for r in map(((1 << lo) - 1).__and__, inside):
                while p := below[r.bit_length()]:
                    r ^= p
                if r:  # independent: one dimension less
                    meet -= 1
                    if meet < need:
                        return False
                    below[r.bit_length()] = r
    return True


def _first_meeting_span(
    cosets: list[tuple[int, list[int]]], n_cols: int, dim: int
) -> tuple[int, ...] | None:
    """The first dim-dimensional span in gf2.iter_subspaces order that meets
    every coset, given as (element mask, elements), or None.

    The spans meeting a coset are the OR of its elements' bitsets, so the
    table answers by AND and lowest set bit; only when no span in it meets
    them all is the scan pulled further, up to the first span that does.
    """
    if (n_cols, dim) not in _SUBSPACES:
        _SUBSPACES[(n_cols, dim)] = ([], {}, gf2.iter_subspaces(n_cols, dim))
    table, bits, source = _SUBSPACES[(n_cols, dim)]
    meets_all = (1 << len(table)) - 1
    for _, elements in cosets:
        if not meets_all:
            break
        meets = 0
        for x in elements:
            meets |= bits.get(x, 0)
        meets_all &= meets
    if meets_all:
        return table[(meets_all & -meets_all).bit_length() - 1]
    masks = [m for m, _ in cosets]
    for rows in source:
        bit = 1 << len(table)
        elements = _coset(0, rows)
        for x in elements:
            bits[x] = bits.get(x, 0) | bit
        mask = _element_mask(elements)
        table.append(rows)
        if all(mask & m for m in masks):
            return rows
    return None


def _try_placements(
    bases: Sequence[dict[int, int]],
    demands: DemandSubset,
    t: int, n_cols: int, tx_dim: int,
    residuals: Sequence[dict[int, set[int]]] | None = None,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]] | None:
    """Delivery rows for every demand from each user's reduced cache basis,
    or None.  Target x is in span(C_u + W) exactly when the delivery span W
    meets the coset x + span(C_u), so each (user, file) needs the cosets of
    its nonzero residuals, built once as element masks (bit v set for each
    element v) beside their elements.  One row: the masks are intersected
    and the least row wins.  More rows (or none): the first W in
    iter_subspaces order that meets every coset.  residuals, when given,
    holds each user's residuals per needed file; else each is computed here
    on its first read."""
    cosets: dict[tuple[int, int], list[tuple[int, list[int]]]] = {}

    def needs(u: int, f: int) -> list[tuple[int, list[int]]]:
        found = cosets.get((u, f))
        if found is None:
            found = cosets[(u, f)] = []
            known = _residuals(bases[u], f, t) if residuals is None else residuals[u][f]
            for r in known:
                elements = _coset(r, bases[u].values())
                found.append((_element_mask(elements), elements))
        return found

    deliveries = []
    for demand in demands:
        if tx_dim == 1:
            # each user pins the row to one coset of its cache span; no coset
            # holds 0 (residuals are nonzero), so start from every nonzero
            # row, and if nobody needs the broadcast send the least, row 1
            candidates = ~1
            for u, f in enumerate(demand):
                need = needs(u, f)
                if len(need) > 1:
                    return None
                if need:
                    candidates &= need[0][0]
                    if not candidates:
                        return None
            rows = ((candidates & -candidates).bit_length() - 1,)
        else:
            rows = _first_meeting_span(
                [c for u, f in enumerate(demand) for c in needs(u, f)], n_cols, tx_dim
            )
            if rows is None:
                return None
        deliveries.append((demand, rows))
    return deliveries


def check_search_target(n_files: int, n_users: int, t: int, budget: int) -> None:
    """Reject a size below 1, more than MAX_SEARCH_COLUMNS columns or a
    negative trial budget."""
    if min(n_files, n_users, t) < 1:
        raise ParameterError("files, users and subpacketization must be at least 1")
    if n_files * t > MAX_SEARCH_COLUMNS:
        raise ParameterError(
            f"a target of {n_files * t} columns (files times subpacketization) "
            f"is more than the {MAX_SEARCH_COLUMNS} search handles: completion "
            f"keeps each coset as a 2^{n_files * t}-bit mask"
        )
    if budget < 0:
        raise ParameterError(f"trial budget must be non-negative, not {budget}")


def rank_filter_never_passes(
    demands: DemandSubset, t: int, cache_dim: int, tx_dim: int
) -> bool:
    """True when some user's cache is too small for the per-user rank filter
    ever to pass, so a search refuses the target before its first trial.

    The filter passes exactly when dim(C & file f) >= t - tx_dim for every
    file f the user may demand, and those intersections are independent
    subspaces of the cache span C.
    """
    return any(
        len({demand[u] for demand in demands}) * max(0, t - tx_dim) > cache_dim
        for u in range(demands.n_users)
    )


def search_linear_scheme(
    n_files: int,
    n_users: int,
    subpacketization: int,
    cache_dim: int,
    tx_dim: int,
    demands: DemandSubset,
    strategy: str = "restart",
    seed: int = 0,
    budget: int = DEFAULT_TRIAL_BUDGET,
) -> LinearSchemeMatrices | None:
    """Search for a linear scheme with the given cache/delivery dimensions.

    strategy "restart" draws each user's cache uniformly over the full-rank
    placements that pass the per-user rank filter (rejection sampling; the
    filter is necessary for completion, so no solution is ever excluded) and
    then solves for delivery rows demand by demand.  Trials are deterministic
    in the seed: restart i uses its own generator, so the first success has
    the lowest restart index no matter how trials are scheduled.  strategy
    "exhaustive" scans all placement rowspan combinations that pass the
    per-user rank filter; it is complete but only practical at tiny sizes.
    Returns None when the budget runs out, and before any trial when some
    user's cache is too small for the filter ever to pass.
    """
    check_search_target(n_files, n_users, subpacketization, budget)
    t = subpacketization
    n_cols = n_files * t
    if demands.n_files != n_files or demands.n_users != n_users:
        raise ParameterError("demand set shape does not match the search target")
    if not 0 < cache_dim <= n_cols:
        raise ParameterError("cache dimension out of range")
    if not 0 <= tx_dim <= n_cols:
        raise ParameterError("delivery dimension out of range")
    if strategy not in ("restart", "exhaustive"):
        raise ParameterError(f"unknown search strategy {strategy!r}")

    if cache_dim == n_cols:
        # full caches decode anything locally; no broadcast rows needed
        ident = tuple(1 << i for i in range(n_cols))
        return LinearSchemeMatrices(
            n_files, n_users, t, (ident,) * n_users, tuple((d, ()) for d in demands)
        )

    if rank_filter_never_passes(demands, t, cache_dim, tx_dim):
        return None
    files_needed = [sorted({d[u] for d in demands}) for u in range(n_users)]

    def trials() -> Iterator[tuple[Sequence[dict[int, int]], Sequence[dict] | None]]:
        """(cache bases, each needed file's residuals) per trial; a restart
        trial gives None, leaving completion to compute those it reads."""
        if strategy == "restart":
            widths = (n_cols,) * cache_dim
            zeros = [0] * (n_cols + 1)  # the echelon table before a draw
            for idx in range(budget):
                # string seeding is stable across runs and platforms
                draw = random.Random(f"{seed}:{idx}").getrandbits
                bases = []
                for files in files_needed:
                    # 4096 full-rank draws per user at most: an infeasible target ends
                    for _ in range(4096):
                        # cache_dim rows in draw order, drawn until independent;
                        # the rank counts the rows that land on a new pivot
                        rank = 0
                        while rank != cache_dim:
                            table = zeros.copy()
                            rank = 0
                            for r in map(draw, widths):
                                while p := table[r.bit_length()]:
                                    r ^= p
                                if r:
                                    table[r.bit_length()] = r
                                    rank += 1
                        if _user_feasible(table, files, t, tx_dim):
                            break
                    else:
                        break
                    # back-substitution on the echelon rows, lowest pivot first
                    basis = {}
                    for r in filter(None, table):
                        for pb, pr in basis.items():
                            if r & pb:
                                r ^= pr
                        basis[1 << (r.bit_length() - 1)] = r
                    bases.append(basis)
                if len(bases) == n_users:
                    yield bases, None
        else:
            per_user = []
            for files in files_needed:
                options = []
                for rows in gf2.iter_subspaces(n_cols, cache_dim):
                    table = [0] * (n_cols + 1)
                    for r in rows:  # reduced already: its pivots are its top bits
                        table[r.bit_length()] = r
                    if _user_feasible(table, files, t, tx_dim):
                        basis = gf2.reduced_basis(rows)
                        found = {f: _residuals(basis, f, t) for f in files}
                        options.append((basis, found))
                if not options:
                    return
                per_user.append(options)
            for chosen in itertools.islice(itertools.product(*per_user), budget):
                yield tuple(zip(*chosen))  # bases, residuals

    for bases, residuals in trials():
        deliveries = _try_placements(bases, demands, t, n_cols, tx_dim, residuals)
        if deliveries is not None:
            # each placement is its basis rows by descending pivot (gf2.rref)
            placements = tuple(tuple(sorted(b.values(), reverse=True)) for b in bases)
            found = LinearSchemeMatrices(
                n_files, n_users, t, placements, tuple(deliveries)
            )
            found.validate()
            assert verify_linear(found, demands).passed
            return found
    return None


# ---------------------------------------------------------------------------
# descriptor text format


DESCRIPTOR_VERSION = 1
DESCRIPTOR_FIELDS = (
    "version", "name", "files", "users", "subpacketization", "cache_dim", "tx_dim"
)


def export_descriptor(m: LinearSchemeMatrices, name: str) -> str:
    """Serialize matrices to the line-based descriptor format.

    Rows are 0/1 strings, leftmost character = column 0 (file 0, subfile 0).
    """
    n_cols = m.n_cols

    def row_str(r: int) -> str:
        return "".join("1" if (r >> i) & 1 else "0" for i in range(n_cols))

    lines = [
        f"version: {DESCRIPTOR_VERSION}",
        f"name: {name}",
        f"files: {m.n_files}",
        f"users: {m.n_users}",
        f"subpacketization: {m.subpacketization}",
        f"cache_dim: {m.cache_dim}",
        f"tx_dim: {m.tx_dim}",
    ]
    for u, rows in enumerate(m.cache_rows):
        lines.append(f"cache {u}: " + " ".join(row_str(r) for r in rows))
    for demand, rows in m.deliveries:
        dstr = ",".join(str(d) for d in demand)
        lines.append(f"delivery {dstr}: " + " ".join(row_str(r) for r in rows))
    return "\n".join(lines) + "\n"


def parse_descriptor(text: str) -> tuple[LinearSchemeMatrices, str]:
    """Parse the descriptor format back into matrices (inverse of export)."""
    fields: dict[str, str] = {}
    caches: dict[int, tuple[int, ...]] = {}
    deliveries: dict[tuple[int, ...], tuple[int, ...]] = {}

    def parse_int(word: str) -> int:
        try:
            return int(word)
        except ValueError:
            raise ParameterError(f"not an integer: {word!r}") from None

    def parse_rows(chunk: str) -> tuple[int, ...]:
        rows = []
        for word in chunk.split():
            if set(word) - {"0", "1"}:
                raise ParameterError(f"bad row string {word!r}")
            rows.append(int(word[::-1], 2) if word else 0)
        return tuple(rows)

    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ParameterError(f"descriptor line {number} has no ':': {line!r}")
        key, value = key.strip(), value.strip()
        if key.startswith("cache "):
            words = key.split()
            if len(words) != 2:
                raise ParameterError(
                    f"descriptor line {number} has {key!r}, not 'cache U'"
                )
            u = parse_int(words[1])
            if u in caches:
                raise ParameterError(f"descriptor repeats the cache line for user {u}")
            caches[u] = parse_rows(value)
        elif key.startswith("delivery "):
            demand = tuple(parse_int(x) for x in key.split(None, 1)[1].split(","))
            if demand in deliveries:
                raise ParameterError(f"descriptor repeats the delivery for {demand}")
            deliveries[demand] = parse_rows(value)
        elif key not in DESCRIPTOR_FIELDS:
            raise ParameterError(f"descriptor line {number} has unknown field {key!r}")
        elif key in fields:
            raise ParameterError(f"descriptor repeats the {key!r} line")
        else:
            fields[key] = value
    if parse_int(fields.get("version", "0")) != DESCRIPTOR_VERSION:
        raise ParameterError("unsupported descriptor version")
    n_files, n_users, t = (
        parse_int(fields.get(f, "0")) for f in ("files", "users", "subpacketization")
    )
    if min(n_files, n_users, t) < 1:
        raise ParameterError("descriptor needs positive files, users, subpacketization")
    for u in range(n_users):
        if u not in caches:
            raise ParameterError(f"descriptor has no cache line for user {u}")
    if not deliveries:
        raise ParameterError("descriptor has no delivery line")
    outside = sorted(set(caches) - set(range(n_users)))
    if outside:
        raise ParameterError(
            f"descriptor has a cache line for user {outside[0]}, "
            f"outside 0..{n_users - 1}"
        )
    m = LinearSchemeMatrices(
        n_files,
        n_users,
        t,
        tuple(caches[u] for u in range(n_users)),
        tuple(deliveries.items()),
    )
    m.validate()
    for dim in ("cache_dim", "tx_dim"):
        if dim in fields and parse_int(fields[dim]) != getattr(m, dim):
            raise ParameterError(
                f"descriptor declares {dim}: {fields[dim]} but its rows give "
                f"{getattr(m, dim)}"
            )
    return m, fields.get("name", "descriptor")
