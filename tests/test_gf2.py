from __future__ import annotations

import random
from collections import Counter

import pytest

from cachepriv import gf2
from oracles import solve_combination_per_target


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def brute_span(rows) -> set[int]:
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def test_reduced_basis_is_reduced():
    rng = random.Random(2)
    for _ in range(200):
        rows = [rng.getrandbits(8) for _ in range(rng.randrange(1, 6))]
        basis = gf2.reduced_basis(rows)
        for pb, row in basis.items():
            assert row & pb
            for other_pb, other in basis.items():
                if other_pb != pb:
                    assert not other & pb


def test_reduced_basis_keys_are_pivots_in_the_order_rows_raise_the_rank():
    rng = random.Random(5)
    for _ in range(200):
        rows = [rng.getrandbits(8) for _ in range(rng.randrange(1, 9))]
        pivots = []
        for i, row in enumerate(rows):
            residual = gf2.reduce_vector(row, gf2.reduced_basis(rows[:i]))
            if residual:
                pivots.append(1 << (residual.bit_length() - 1))
        assert list(gf2.reduced_basis(rows)) == pivots


def test_reduce_vector_is_canonical():
    # same coset -> same residual, regardless of basis build order
    rng = random.Random(3)
    for _ in range(100):
        rows = [rng.getrandbits(10) for _ in range(4)]
        basis = gf2.reduced_basis(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        basis2 = gf2.reduced_basis(shuffled)
        v = rng.getrandbits(10)
        offset = random.Random(v).choice(sorted(brute_span(rows)))
        assert gf2.reduce_vector(v, basis) == gf2.reduce_vector(v ^ offset, basis2)


def test_in_span_matches_brute_force():
    rng = random.Random(7)
    for _ in range(100):
        rows = [rng.getrandbits(6) for _ in range(3)]
        basis = gf2.reduced_basis(rows)
        span = brute_span(rows)
        for v in range(64):
            assert gf2.in_span(v, basis) == (v in span)


def test_rank():
    assert gf2.rank([0b001, 0b010, 0b011]) == 2
    assert gf2.rank([]) == 0
    assert gf2.rank([0]) == 0
    assert gf2.rank([0b100, 0b010, 0b001]) == 3


def test_rref_canonical_under_row_ops():
    rng = random.Random(13)
    for _ in range(100):
        rows = [rng.getrandbits(8) for _ in range(4)]
        mixed = rows[:]
        # random invertible row operations preserve the rowspan
        for _ in range(10):
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                mixed[i] ^= mixed[j]
        rng.shuffle(mixed)
        assert gf2.rref(rows) == gf2.rref(mixed)


def test_solve_combination_recovers_target():
    rng = random.Random(17)
    for _ in range(200):
        n_cols = 8
        rows = [rng.getrandbits(n_cols) for _ in range(5)]
        picks = [rng.randrange(2) for _ in range(5)]
        target = 0
        for c, r in zip(picks, rows):
            if c:
                target ^= r
        coeffs = gf2.solve_combination(rows, target, n_cols)
        assert coeffs is not None
        built = 0
        for c, r in zip(coeffs, rows):
            if c:
                built ^= r
        assert built == target


def test_solve_combination_none_outside_span():
    rows = [0b0011, 0b0101]
    assert gf2.solve_combination(rows, 0b1000, 4) is None
    assert gf2.solve_combination(rows, 0b0110, 4) == (1, 1)


def test_solve_combinations_agrees_with_one_elimination_per_target():
    rng = random.Random(29)
    seen = Counter()
    for _ in range(400):
        n_cols = rng.randrange(1, 9)
        # rows and targets carry bits above n_cols, which are ignored
        rows = [rng.getrandbits(n_cols + 2) for _ in range(rng.randrange(7))]
        if rows and rng.randrange(2):
            rows.insert(rng.randrange(len(rows) + 1), rows[0] ^ rows[-1])
        targets = [rng.getrandbits(n_cols + 3) for _ in range(rng.randrange(6))]
        got = gf2.solve_combinations(rows, targets, n_cols)
        assert got == [solve_combination_per_target(rows, t, n_cols) for t in targets]
        assert got == [gf2.solve_combination(rows, t, n_cols) for t in targets]
        low = (1 << n_cols) - 1
        seen["rank-deficient"] += gf2.rank(r & low for r in rows) < len(rows)
        for coeffs in got:
            seen["solved" if coeffs is not None else "unsolvable"] += 1
    assert min(seen.values()) >= 50, seen


def test_random_full_rank():
    rng = random.Random(19)
    for _ in range(50):
        rows = gf2.random_full_rank(3, 5, rng)
        assert gf2.rank(rows) == 3
    with pytest.raises(ValueError):
        gf2.random_full_rank(6, 5, rng)
    # each draw is n_rows getrandbits(n_cols) calls in row order, redrawn
    # until the rows are independent
    a, b = random.Random(29), random.Random(29)
    for n_rows, n_cols in [(4, 6), (1, 6), (3, 4), (5, 5)] * 10:
        while True:
            rows = tuple(b.getrandbits(n_cols) for _ in range(n_rows))
            if gf2.rank(rows) == n_rows:
                break
        assert gf2.random_full_rank(n_rows, n_cols, a) == rows
    assert a.random() == b.random()


def test_iter_subspaces_counts():
    assert sum(1 for _ in gf2.iter_subspaces(3, 2)) == gaussian_binomial(3, 2) == 7
    assert sum(1 for _ in gf2.iter_subspaces(4, 2)) == gaussian_binomial(4, 2) == 35
    assert sum(1 for _ in gf2.iter_subspaces(6, 4)) == gaussian_binomial(6, 4) == 651
    assert list(gf2.iter_subspaces(4, 0)) == [()]


def test_iter_subspaces_distinct_and_full_rank():
    seen = set()
    for rows in gf2.iter_subspaces(5, 3):
        assert gf2.rank(rows) == 3
        span = frozenset(brute_span(rows))
        assert span not in seen
        seen.add(span)
    assert len(seen) == gaussian_binomial(5, 3)


def test_span_elements():
    rows = (0b011, 0b101)
    assert sorted(gf2.span_elements(rows)) == sorted(brute_span(rows))
    assert gf2.span_elements(()) == [0]
