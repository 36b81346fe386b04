"""GF(2) linear algebra on bit-packed integer rows.

A row vector over n columns is an int whose bit j is the coefficient of
column j.  Elimination works with the highest set bit as the pivot, and
reduced bases keep every pivot bit out of all other rows, so residuals are
canonical coset representatives.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, Sequence

__all__ = [
    "reduced_basis",
    "reduce_vector",
    "in_span",
    "rank",
    "rref",
    "solve_combination",
    "solve_combinations",
    "random_full_rank",
    "iter_subspaces",
    "span_elements",
]


def reduced_basis(rows: Iterable[int]) -> dict[int, int]:
    """Reduced echelon basis of the rowspan, as a map pivot_bit -> row.

    Every row contains its own pivot bit and no other row's pivot bit.
    """
    piv: dict[int, int] = {}
    for r in rows:
        for pb, pr in piv.items():
            if r & pb:
                r ^= pr
        if r:
            pb = 1 << (r.bit_length() - 1)
            for k, pr in piv.items():  # rebinds values only: the keys stay put
                if pr & pb:
                    piv[k] = pr ^ r
            piv[pb] = r
    return piv


def reduce_vector(vec: int, basis: dict[int, int]) -> int:
    """Canonical residual of vec modulo the span of a reduced basis."""
    for pb, row in basis.items():
        if vec & pb:
            vec ^= row
    return vec


def in_span(vec: int, basis: dict[int, int]) -> bool:
    return reduce_vector(vec, basis) == 0


def rank(rows: Iterable[int]) -> int:
    return len(reduced_basis(rows))


def rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical row set for the rowspan: reduced rows, descending pivots."""
    return tuple(sorted(reduced_basis(rows).values(), reverse=True))


def solve_combination(
    rows: Sequence[int], target: int, n_cols: int
) -> tuple[int, ...] | None:
    """Coefficients c with XOR(c[i]*rows[i]) == target, or None.

    Returns a 0/1 tuple aligned with rows.  Elimination is restricted to the
    low n_cols bits; marker bits above them track the combination.
    """
    return solve_combinations(rows, (target,), n_cols)[0]


def solve_combinations(
    rows: Sequence[int], targets: Iterable[int], n_cols: int
) -> list[tuple[int, ...] | None]:
    """solve_combination for each target, eliminating rows once.

    The elimination does not depend on the target, so every target is
    reduced against the same pivot table.
    """
    low_mask = (1 << n_cols) - 1
    piv: dict[int, int] = {}
    for i, row in enumerate(rows):
        aug = (row & low_mask) | (1 << (n_cols + i))
        for pb, pr in piv.items():
            if aug & pb:
                aug ^= pr
        if aug & low_mask:
            pb = 1 << ((aug & low_mask).bit_length() - 1)
            for k in list(piv):
                if piv[k] & pb:
                    piv[k] ^= aug
            piv[pb] = aug
    solved: list[tuple[int, ...] | None] = []
    for target in targets:
        t = target & low_mask
        for pb, pr in piv.items():
            if t & pb:
                t ^= pr
        if t & low_mask:
            solved.append(None)
            continue
        marker = t >> n_cols
        solved.append(tuple((marker >> i) & 1 for i in range(len(rows))))
    return solved


def random_full_rank(n_rows: int, n_cols: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform full-row-rank n_rows x n_cols matrix via rejection sampling."""
    if n_rows > n_cols:
        raise ValueError("cannot have more independent rows than columns")
    while True:
        rows = tuple(map(rng.getrandbits, (n_cols,) * n_rows))  # in row order
        if rank(rows) == n_rows:
            return rows


def iter_subspaces(n_cols: int, dim: int) -> Iterator[tuple[int, ...]]:
    """All dim-dimensional subspaces of GF(2)^n_cols, one RREF basis each.

    Rows are emitted with descending pivots.  Enumeration order is fixed:
    pivot column sets in descending lexicographic order, then free entries
    counted upward.
    """
    if dim == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n_cols - 1, -1, -1), dim):
        pivot_set = set(pivots)
        free: list[list[int]] = []
        for p in pivots:
            free.append([c for c in range(p) if c not in pivot_set])
        counts = [len(f) for f in free]
        for fill in itertools.product(*(range(1 << c) for c in counts)):
            rows = []
            for i, p in enumerate(pivots):
                row = 1 << p
                for bit_idx, c in enumerate(free[i]):
                    if (fill[i] >> bit_idx) & 1:
                        row |= 1 << c
                rows.append(row)
            yield tuple(rows)


def span_elements(rows: Sequence[int]) -> list[int]:
    """All 2^rank elements of the rowspan (small spaces only)."""
    basis = list(reduced_basis(rows).values())
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out
