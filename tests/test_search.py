from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import xor
from pathlib import Path
from types import SimpleNamespace

import pytest

from cachepriv import gf2, search
from cachepriv.core import (
    DemandSubset,
    DemandVector,
    FileStore,
    ParameterError,
    UnservedDemand,
    cyclic_demand_set,
)
from cachepriv.schemes import (
    HIGH_MEMORY_2X4_CACHES,
    HIGH_MEMORY_2X4_DELIVERIES,
    HIGH_MEMORY_SEARCH_SEED,
    high_memory_2x4_matrices,
    low_memory_2x4_matrices,
)
from cachepriv.search import (
    LinearSchemeMatrices,
    compile_linear_scheme,
    export_descriptor,
    parse_descriptor,
    search_linear_scheme,
    verify_linear,
)
from cachepriv.verifier import check_decodability
from oracles import (
    apply_rows,
    file_meet_dims,
    reference_complete_demand,
    view_determines_file,
)

CYCLIC = cyclic_demand_set(2, 2)


def test_verify_linear_passes_known_scheme():
    v = verify_linear(low_memory_2x4_matrices(), CYCLIC)
    assert v.passed and v.cases == 48


def test_verify_linear_catches_a_bit_flip():
    m = low_memory_2x4_matrices()
    rows = list(m.deliveries)
    demand, tx = rows[0]
    rows[0] = (demand, (tx[0] ^ 0b1, tx[1], tx[2], tx[3]))
    broken = LinearSchemeMatrices(2, 4, 3, m.cache_rows, tuple(rows))
    v = verify_linear(broken, CYCLIC)
    assert not v.passed
    assert "cannot recover" in str(v.counterexample)
    # the compiled scheme decodes the unsolvable pair to zero symbols
    d = check_decodability(compile_linear_scheme(broken, CYCLIC, "broken"), width=2)
    assert not d.passed and d.cases == 5
    assert str(d.counterexample) == (
        "user 0 under demand (0, 1, 0, 1) (store #1, keys (0, 0, 0, 0), "
        "server randomness 0): decoded (0, 0, 0), wanted (1, 0, 0)"
    )


def test_the_matrices_refuse_a_demand_or_demand_set_they_do_not_fit():
    m = low_memory_2x4_matrices()
    message = r"^no delivery matrix for demand \(0, 0, 0, 0\)$"
    with pytest.raises(UnservedDemand, match=message):
        m.delivery_for((0, 0, 0, 0))
    with pytest.raises(ParameterError, match="^demand set shape does not match"):
        verify_linear(m, cyclic_demand_set(2, 1))


def test_validate_rejects_malformed_matrices():
    m = low_memory_2x4_matrices()
    with pytest.raises(ParameterError):
        LinearSchemeMatrices(2, 3, 3, m.cache_rows, m.deliveries).validate()
    with pytest.raises(ParameterError):
        LinearSchemeMatrices(
            2, 4, 3, ((0,),) + m.cache_rows[1:], m.deliveries
        ).validate()
    with pytest.raises(ParameterError):
        LinearSchemeMatrices(
            2, 4, 3, ((1 << 6,),) + m.cache_rows[1:], m.deliveries
        ).validate()
    bad_demand = (((0, 1), m.deliveries[0][1]),) + m.deliveries[1:]
    with pytest.raises(ParameterError):
        LinearSchemeMatrices(2, 4, 3, m.cache_rows, bad_demand).validate()


def test_compiled_scheme_matches_rank_conditions():
    s = compile_linear_scheme(low_memory_2x4_matrices(), CYCLIC, "lowmem")
    assert check_decodability(s).passed
    assert view_determines_file(s)


def test_compiled_symbols_match_the_bitwise_oracle():
    candidates = [low_memory_2x4_matrices(), high_memory_2x4_matrices()]
    for seed in range(5):
        rng = random.Random(f"oracle:{seed}")
        cache_dim = rng.randrange(1, 5)
        tx_dim = rng.randrange(1, 5)
        candidates.append(
            LinearSchemeMatrices(
                2,
                4,
                3,
                tuple(gf2.random_full_rank(cache_dim, 6, rng) for _ in range(4)),
                tuple((d, gf2.random_full_rank(tx_dim, 6, rng)) for d in CYCLIC),
            )
        )
    keys = (0,) * 4
    rng = random.Random(17)
    for i, m in enumerate(candidates):
        s = compile_linear_scheme(m, CYCLIC, f"cand{i}")
        for width in (1, 3, 64):
            for _ in range(3):
                store = FileStore.random(2, 3, width, rng)
                caches = s.place(keys, store)
                for u, cache in enumerate(caches):
                    assert cache == apply_rows(m.cache_rows[u], store)
                for demand, rows in m.deliveries:
                    payload, _ = s.deliver(store, DemandVector(2, demand), keys, 0)
                    assert payload == apply_rows(rows, store)


def test_compiled_scheme_rejects_unserved_demands():
    s = compile_linear_scheme(low_memory_2x4_matrices(), CYCLIC, "lowmem")
    store = FileStore.zero(2, 3, 1)
    with pytest.raises(UnservedDemand):
        s.deliver(store, DemandVector(2, (0, 0, 0, 0)), (0,) * 4, 0)


def test_search_is_deterministic_in_the_seed():
    a = search_linear_scheme(2, 4, 3, 4, 1, CYCLIC, seed=0)
    b = search_linear_scheme(2, 4, 3, 4, 1, CYCLIC, seed=0)
    c = search_linear_scheme(2, 4, 3, 4, 1, CYCLIC, seed=7)
    assert a == b
    assert a != c
    assert c.rate == Fraction(1, 3)


def test_search_reproduces_the_committed_witness():
    found = search_linear_scheme(
        2, 4, 3, 4, 1, CYCLIC, seed=HIGH_MEMORY_SEARCH_SEED
    )
    assert found is not None
    assert found.cache_rows == HIGH_MEMORY_2X4_CACHES
    assert found.deliveries == HIGH_MEMORY_2X4_DELIVERIES


def test_search_finds_the_low_memory_target():
    found = search_linear_scheme(2, 4, 3, 1, 4, CYCLIC, seed=0, budget=2000)
    assert found is not None
    assert (found.memory, found.rate) == (Fraction(1, 3), Fraction(4, 3))
    assert verify_linear(found, CYCLIC).passed


def test_exhaustive_strategy_finds_the_high_memory_target():
    found = search_linear_scheme(
        2, 4, 3, 4, 1, CYCLIC, strategy="exhaustive", budget=50_000
    )
    assert found is not None
    assert (found.memory, found.rate) == (Fraction(4, 3), Fraction(1, 3))


def test_exhaustive_strategy_solves_a_small_target():
    demands = cyclic_demand_set(2, 1)
    found = search_linear_scheme(2, 2, 1, 1, 1, demands, strategy="exhaustive")
    assert found is not None
    assert found.cache_rows == ((0b10,), (0b10,))
    assert found.deliveries == (((0, 1), (0b01,)), ((1, 0), (0b01,)))
    assert verify_linear(found, demands).passed


def test_exhaustive_strategy_returns_none_once_every_option_is_scanned(monkeypatch):
    # the rank filter passes 9 caches per user, and none of the 9^4
    # placements can be completed: the scan ends well inside the budget
    target = (2, 4, 2, 2, 1)
    assert reaches_a_trial(monkeypatch, target, "exhaustive")
    completions = []
    original = search._try_placements

    def counting(*args):
        completions.append(args)
        return original(*args)

    monkeypatch.setattr(search, "_try_placements", counting)
    assert search_linear_scheme(*target, CYCLIC, strategy="exhaustive") is None
    assert len(completions) == 9**4 < search.DEFAULT_TRIAL_BUDGET


def test_search_budget_exhaustion_returns_none():
    assert search_linear_scheme(2, 4, 3, 4, 1, CYCLIC, seed=0, budget=3) is None


def test_search_full_cache_shortcut():
    found = search_linear_scheme(2, 4, 3, 6, 0, CYCLIC)
    assert found is not None
    assert found.rate == 0
    assert found.tx_dim == 0
    s = compile_linear_scheme(found, CYCLIC, "fullcache")
    assert check_decodability(s).passed


def test_search_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        search_linear_scheme(2, 4, 3, 0, 1, CYCLIC)
    with pytest.raises(ParameterError):
        search_linear_scheme(2, 4, 3, 7, 1, CYCLIC)
    with pytest.raises(ParameterError):
        search_linear_scheme(3, 4, 3, 4, 1, CYCLIC)
    with pytest.raises(ParameterError):
        search_linear_scheme(2, 4, 3, 4, 1, CYCLIC, strategy="mystery")
    # sizes below 1 and a negative budget, checked before anything else
    bad = ((0, 4, 3, 1, 1), (2, 0, 3, 1, 1), (-2, 4, 3, 1, 1), (2, 4, 0, 1, 1))
    for target in bad:
        with pytest.raises(ParameterError, match="at least 1"):
            search_linear_scheme(*target, CYCLIC)
    with pytest.raises(ParameterError, match="non-negative"):
        search_linear_scheme(2, 4, 3, 4, 1, CYCLIC, budget=-1)
    assert search_linear_scheme(2, 4, 3, 4, 1, CYCLIC, budget=0) is None


@pytest.mark.parametrize("tx_dim", [-1, 7])
def test_search_rejects_a_delivery_dimension_outside_the_columns(tx_dim):
    with pytest.raises(ParameterError, match="^delivery dimension out of range$"):
        search_linear_scheme(2, 4, 3, 4, tx_dim, CYCLIC)


class FirstDraw(Exception):
    """Raised by the patched draw functions: the search reached a trial."""


class CountingRandom(random.Random):
    """random.Random that records the width of each getrandbits call."""

    def __init__(self, seed, draws):
        super().__init__(seed)
        self.draws = draws

    def getrandbits(self, k):
        self.draws.append(k)
        return super().getrandbits(k)


def reaches_a_trial(monkeypatch, target, strategy="restart", budget=1) -> bool:
    """Whether the search draws a cache row (restart) or scans the placements
    (exhaustive) for this target, rather than refusing it up front."""

    class NoDraws(random.Random):
        def getrandbits(self, k):
            raise FirstDraw

    def draw(*args, **kwargs):
        raise FirstDraw

    # the restart strategy draws from a random.Random made per trial
    monkeypatch.setattr(search, "random", SimpleNamespace(Random=NoDraws))
    monkeypatch.setattr(gf2, "iter_subspaces", draw)
    n_files, n_users = target[:2]
    demands = cyclic_demand_set(n_files, n_users // n_files)
    try:
        search_linear_scheme(*target, demands, strategy=strategy, budget=budget)
    except FirstDraw:
        return True
    finally:
        monkeypatch.undo()
    return False


def echelon_table(rows, n_cols) -> list[int]:
    """The rank filter's input for rows with distinct highest bits, such as a
    gf2.iter_subspaces basis: entry h holds the row whose highest bit is bit
    h - 1, or 0."""
    table = [0] * (n_cols + 1)
    for r in rows:
        assert not table[r.bit_length()]
        table[r.bit_length()] = r
    return table


def test_search_refuses_a_target_the_rank_filter_never_passes(monkeypatch):
    # t=4 and one delivery row: each of the two files needs a 3-dim piece in
    # a 5-dim cache, which made 16,384 rejected draws at budget 4
    draws = []
    monkeypatch.setattr(
        search, "random", SimpleNamespace(Random=lambda s: CountingRandom(s, draws))
    )
    assert search_linear_scheme(2, 4, 4, 5, 1, CYCLIC, budget=4) is None
    assert draws == []
    monkeypatch.undo()
    assert not reaches_a_trial(monkeypatch, (2, 4, 4, 5, 1), "exhaustive")


def test_search_refuses_only_targets_exhaustive_search_cannot_meet(monkeypatch):
    refused = 0
    for t in (1, 2, 3):
        n_cols = 2 * t
        for cache_dim in range(1, n_cols):
            for tx_dim in range(n_cols + 1):
                target = (2, 4, t, cache_dim, tx_dim)
                if reaches_a_trial(monkeypatch, target):
                    continue
                refused += 1
                found = search_linear_scheme(*target, CYCLIC, strategy="exhaustive")
                assert found is None
                # the exhaustive scan would find no placement that passes the
                # filter: every virtual user needs both files
                assert not any(
                    search._user_feasible(echelon_table(b, n_cols), [0, 1], t, tx_dim)
                    for b in gf2.iter_subspaces(n_cols, cache_dim)
                ), target
    assert refused > 0


def test_the_rank_filter_counts_each_files_intersection_exactly():
    # every cache span C at 2 files (t = 1, 2, 3) and 3 files (t = 1, 2, where
    # file 1 sits between the others), every delivery dimension and every
    # set of needed files: the filter passes exactly when dim(C & F_f) >=
    # t - tx_dim for each needed file f, with the dimensions counted from the
    # span's elements; each basis is given as its reduced echelon form and
    # as an echelon form with every lower row added to each row
    outcomes = set()
    for n_files, t in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        n_cols = n_files * t
        subsets = [
            [f for f in range(n_files) if mask >> f & 1]
            for mask in range(1 << n_files)
        ]
        for cache_dim in range(n_cols + 1):
            for rows in gf2.iter_subspaces(n_cols, cache_dim):
                dims = file_meet_dims(rows, n_files, t)
                # rows come by descending pivot, so each keeps its pivot
                mixed = [reduce(xor, rows[i:]) for i in range(len(rows))]
                tables = (echelon_table(rows, n_cols), echelon_table(mixed, n_cols))
                for tx_dim in range(n_cols + 1):
                    for files in subsets:
                        want = all(dims[f] >= t - tx_dim for f in files)
                        outcomes.add(want)
                        for table in tables:
                            got = search._user_feasible(table, files, t, tx_dim)
                            assert got == want, (n_files, t, rows, tx_dim, files)
    assert outcomes == {True, False}


def test_the_draw_cap_counts_full_rank_draws(monkeypatch):
    # one cache row over 2 columns: a quarter of the draws are the zero row,
    # which is drawn again and reaches no filter call; with every draw
    # rejected, the first user takes exactly 4,096 filter calls and the trial
    # ends there
    calls, draws = [], []

    def rejecting(table, files, t, tx_dim):
        assert table.count(0) == 2  # one nonzero row, in a table of 3 entries
        calls.append(table)
        return False

    monkeypatch.setattr(search, "_user_feasible", rejecting)
    monkeypatch.setattr(
        search, "random", SimpleNamespace(Random=lambda s: CountingRandom(s, draws))
    )
    demands = cyclic_demand_set(2, 1)
    assert search_linear_scheme(2, 2, 1, 1, 1, demands, budget=1) is None
    assert len(calls) == 4096
    assert set(draws) == {2}
    assert len(draws) > len(calls) + 900  # about 1,365 zero rows drawn again


# filter calls and passes per search call at the commit before the filter
# counted pivots: the three search-seeds benchmark targets at their
# benchmark budgets, search seeds 0-4
FILTER_COUNTS = {
    ((2, 4, 3, 4, 1), 32): [
        (1535, 128), (1706, 128), (1054, 68), (1513, 128), (1875, 128)
    ],
    ((2, 4, 3, 1, 4), 16): [(64, 64)] * 5,
    ((2, 4, 3, 3, 2), 16): [(168, 64), (152, 64), (167, 64), (152, 64), (174, 64)],
}


# getrandbits calls per search call at the commit before each draw was
# handled in one pass, same targets, budgets and seeds; every call draws one
# row over the target's 6 columns.  The filter sees only full-rank draws, so
# these pin the rows drawn ahead of a filter call or again after a dependent
# row
ROWS_DRAWN = {
    ((2, 4, 3, 4, 1), 32): [7756, 8644, 5416, 7864, 9616],
    ((2, 4, 3, 1, 4), 16): [65, 65, 64, 64, 65],
    ((2, 4, 3, 3, 2), 16): [564, 516, 564, 528, 579],
}


def test_the_rank_filter_is_called_and_passes_as_before(monkeypatch):
    counts = [0, 0]
    feasible = search._user_feasible
    draws = []

    def counting(*args):
        passed = feasible(*args)
        counts[0] += 1
        counts[1] += passed
        return passed

    monkeypatch.setattr(search, "_user_feasible", counting)
    monkeypatch.setattr(
        search, "random", SimpleNamespace(Random=lambda s: CountingRandom(s, draws))
    )
    assert FILTER_COUNTS.keys() == ROWS_DRAWN.keys()
    for (target, budget), want in FILTER_COUNTS.items():
        got, rows = [], []
        for seed in range(5):
            counts[:] = [0, 0]
            draws.clear()
            search_linear_scheme(*target, CYCLIC, seed=seed, budget=budget)
            got.append(tuple(counts))
            rows.append(len(draws))
            assert set(draws) == {6}, target
        assert got == want, target
        assert rows == ROWS_DRAWN[(target, budget)], target


# (target, strategy, seed, budget) -> matrices or None.  search_pins.json was
# captured from a search that tested the rank condition on each candidate
# span directly; search_seed_pins.json from one that tested each subspace of
# the scan against the coset masks in turn.  The latter holds the three
# search-seeds benchmark targets at their benchmark budgets, seeds 0-25 each,
# and the seed at which the "miss" target 2,4,3,3,2 is found.
SEARCH_PINS = {
    "search_pins.json": (
        "25aa13a05a447c9c42ae7ad6345ccf4f010060ed27ff7a9400d7745612eb0768"
    ),
    "search_seed_pins.json": (
        "652b409009e4ecd690bf407c2a542ef1d08b0d3b2481e11c39ea94ee20aef27a"
    ),
}


def search_pins(name: str) -> list[dict]:
    pins_file = Path(__file__).with_name(name)
    assert hashlib.sha256(pins_file.read_bytes()).hexdigest() == SEARCH_PINS[name]
    return json.loads(pins_file.read_text())


def test_no_pinned_or_benchmark_target_is_refused(monkeypatch):
    pins = search_pins("search_pins.json")
    assert len(pins) == 36
    for p in pins:
        assert reaches_a_trial(monkeypatch, p["target"], p["strategy"]), p
    # the search-seeds benchmark targets: hit, scan and the infeasible miss
    for target in ((2, 4, 3, 4, 1), (2, 4, 3, 1, 4), (2, 4, 3, 3, 2)):
        assert reaches_a_trial(monkeypatch, target), target


def test_only_targets_wider_than_the_column_bound_are_refused(monkeypatch):
    # MAX_SEARCH_COLUMNS columns still reach a trial, one more is refused
    # before it, by either strategy
    assert search.MAX_SEARCH_COLUMNS == 16
    for strategy in ("restart", "exhaustive"):
        assert reaches_a_trial(monkeypatch, (2, 4, 8, 1, 8), strategy)
        assert reaches_a_trial(monkeypatch, (1, 2, 16, 1, 16), strategy)
        for target in ((1, 2, 17, 1, 17), (2, 2, 9, 1, 9)):
            with pytest.raises(ParameterError, match="columns"):
                reaches_a_trial(monkeypatch, target, strategy)


@pytest.mark.parametrize(
    "name, least",
    [("search_pins.json", 10), ("search_seed_pins.json", 7)],
    ids=["search_pins", "search_seed_pins"],
)
def test_search_matches_the_pinned_results(name, least):
    pins = search_pins(name)
    assert sum(p["found"] is not None for p in pins) >= least
    assert sum(p["found"] is None for p in pins) >= least
    for p in pins:
        n_files, n_users = p["target"][:2]
        found = search_linear_scheme(
            *p["target"],
            cyclic_demand_set(n_files, n_users // n_files),
            strategy=p["strategy"],
            seed=p["seed"],
            budget=p["budget"],
        )
        got = None if found is None else [found.cache_rows, found.deliveries]
        assert json.loads(json.dumps(got)) == p["found"], p


def test_completion_matches_the_rank_condition_oracle():
    # random placements, one demand at a time and all together; feasible and
    # infeasible demands at n_cols 4-8 and one to three delivery rows
    outcomes = set()
    for n_files, blocks, t, tx_dims in (
        (2, 2, 2, (1, 2, 3)),
        (1, 3, 5, (1, 2, 3)),
        (2, 2, 3, (1, 2, 3)),
        (3, 1, 2, (1, 2, 3)),
        (1, 2, 7, (1, 2)),
        (2, 2, 4, (1, 2)),
    ):
        n_cols = n_files * t
        demands = cyclic_demand_set(n_files, blocks)
        for tx_dim in tx_dims:
            rng = random.Random(f"complete:{n_cols}:{tx_dim}")
            for _ in range(4):
                cache_dim = rng.randrange(1, n_cols)
                placements = [
                    gf2.random_full_rank(cache_dim, n_cols, rng)
                    for _ in range(demands.n_users)
                ]
                bases = [gf2.reduced_basis(p) for p in placements]
                want = []
                for d in demands:
                    rows = reference_complete_demand(placements, d, t, n_cols, tx_dim)
                    one = DemandSubset(n_files, demands.n_users, (d,), "one")
                    got = search._try_placements(bases, one, t, n_cols, tx_dim)
                    assert got == (None if rows is None else [(d, rows)])
                    want.append((d, rows))
                    outcomes.add(rows is None)
                if any(rows is None for _, rows in want):
                    want = None
                assert search._try_placements(bases, demands, t, n_cols, tx_dim) == want
    assert outcomes == {True, False}


def test_completion_is_the_same_from_every_table_state(monkeypatch):
    # the subspace table cold, partly filled by an earlier scan of other
    # placements, and full: every state gives the rank-condition oracle's
    # spans, one demand at a time and all together
    partial = 0
    for n_files, blocks, t, tx_dims in (
        (2, 2, 2, (2, 3)),
        (1, 3, 5, (2, 3)),
        (3, 1, 2, (2, 3)),
        (1, 2, 7, (2,)),
        (2, 2, 4, (2,)),
    ):
        n_cols = n_files * t
        demands = cyclic_demand_set(n_files, blocks)
        for tx_dim in tx_dims:
            # a coset with no elements meets no span, so this scan reads all
            monkeypatch.setattr(search, "_SUBSPACES", {})
            assert search._first_meeting_span([(0, [])], n_cols, tx_dim) is None
            full = search._SUBSPACES
            table = full[(n_cols, tx_dim)][0]
            assert table == list(gf2.iter_subspaces(n_cols, tx_dim))
            rng = random.Random(f"table:{n_cols}:{tx_dim}")
            for _ in range(3):
                cache_dim = rng.randrange(1, n_cols)
                placements, earlier = (
                    [
                        gf2.random_full_rank(cache_dim, n_cols, rng)
                        for _ in range(demands.n_users)
                    ]
                    for _ in range(2)
                )
                want = [
                    (d, reference_complete_demand(placements, d, t, n_cols, tx_dim))
                    for d in demands
                ]
                bases = [gf2.reduced_basis(p) for p in placements]
                for state in ("cold", "partial", "full"):
                    monkeypatch.setattr(
                        search, "_SUBSPACES", full if state == "full" else {}
                    )
                    if state == "partial":
                        search._try_placements(
                            [gf2.reduced_basis(p) for p in earlier],
                            demands, t, n_cols, tx_dim,
                        )
                        reached = len(search._SUBSPACES[(n_cols, tx_dim)][0])
                        partial += 0 < reached < len(table)
                    for d, rows in want:
                        one = DemandSubset(n_files, demands.n_users, (d,), "one")
                        got = search._try_placements(bases, one, t, n_cols, tx_dim)
                        assert got == (None if rows is None else [(d, rows)])
                    got = search._try_placements(bases, demands, t, n_cols, tx_dim)
                    assert got == (
                        None if any(rows is None for _, rows in want) else want
                    )
    assert partial >= 5


def test_residuals_read_off_the_basis_match_reduce_vector():
    rng = random.Random("residuals")
    for _ in range(300):
        n_files, t = rng.randrange(1, 5), rng.randrange(1, 5)
        n_cols = n_files * t
        rows = [rng.getrandbits(n_cols) for _ in range(rng.randrange(n_cols + 2))]
        basis = gf2.reduced_basis(rows)
        for f in range(n_files):
            units = [1 << (f * t + j) for j in range(t)]
            assert search._residuals(basis, f, t) == (
                {gf2.reduce_vector(e, basis) for e in units} - {0}
            )


def clear_the_coset_memo(monkeypatch) -> None:
    monkeypatch.setattr(search, "_COSETS", {})
    monkeypatch.setattr(search, "_COSETS_CHARGED", [0])


@pytest.mark.parametrize(
    "target, demands, strategy, seed, budget, caches",
    [
        # the pinned low-memory witness, after two trials that fail completion
        ((2, 4, 3, 1, 4), CYCLIC, "restart", 18, 16, ((22,), (44,), (11,), (49,))),
        ((2, 2, 1, 1, 1), cyclic_demand_set(2, 1), "exhaustive", 0, 10, ((2,), (2,))),
    ],
    ids=["restart", "exhaustive"],
)
def test_completion_computes_each_residual_set_it_reads_at_most_once(
    monkeypatch, target, demands, strategy, seed, budget, caches
):
    # each cache span's residual cosets are kept per process: from a cleared
    # memo, a search computes each (span, file)'s residuals at most once over
    # all its trials and users, only when completion first reads them and
    # never in the filter, and the same search again computes none
    computed = Counter()  # (stage, span, file) -> calls
    stage = ["filter"]
    residuals, try_placements = search._residuals, search._try_placements

    def counting_residuals(basis, f, t):
        computed[stage[0], frozenset(basis.values()), f] += 1
        return residuals(basis, f, t)

    def completing(*args):
        stage[0] = "completion"
        try:
            return try_placements(*args)
        finally:
            stage[0] = "filter"

    clear_the_coset_memo(monkeypatch)
    monkeypatch.setattr(search, "_residuals", counting_residuals)
    monkeypatch.setattr(search, "_try_placements", completing)
    run = dict(strategy=strategy, seed=seed, budget=budget)
    found = search_linear_scheme(*target, demands, **run)
    assert found is not None and found.cache_rows == caches
    assert computed and max(computed.values()) == 1
    assert {at for at, _, _ in computed} == {"completion"}
    assert len(search._COSETS) == len(computed)
    computed.clear()
    assert search_linear_scheme(*target, demands, **run) == found
    assert not computed


def test_a_cold_and_a_warm_coset_memo_give_the_pinned_results(monkeypatch):
    # the benchmark targets' pins from a cleared memo; then again after other
    # searches filled it: 4 and 8 columns, both strategies, and an exhaustive
    # scan of the pins' own 6 columns; and again with room for 4 entries, so
    # entries are evicted inside a trial, which reads up to 8
    pins = search_pins("search_seed_pins.json")

    def run_the_pins():
        for p in pins:
            found = search_linear_scheme(
                *p["target"], CYCLIC, strategy=p["strategy"],
                seed=p["seed"], budget=p["budget"],
            )
            got = None if found is None else [found.cache_rows, found.deliveries]
            assert json.loads(json.dumps(got)) == p["found"], p

    clear_the_coset_memo(monkeypatch)
    run_the_pins()
    cold = len(search._COSETS)
    for target, strategy, budget in (
        ((2, 4, 2, 1, 3), "exhaustive", 10**6),
        ((2, 4, 2, 2, 2), "restart", 64),
        ((2, 4, 4, 4, 2), "restart", 8),
        ((2, 4, 3, 1, 4), "exhaustive", 300),
        ((2, 4, 3, 3, 2), "exhaustive", 300),
    ):
        search_linear_scheme(*target, CYCLIC, strategy=strategy, budget=budget)
    assert len(search._COSETS) > cold
    run_the_pins()
    monkeypatch.setattr(search, "COSET_MEMO", 4 << 6)
    clear_the_coset_memo(monkeypatch)
    run_the_pins()
    assert len(search._COSETS) == 4


def test_the_coset_memo_holds_no_more_than_its_bound(monkeypatch):
    # each entry is charged 2^max(n_cols, 6), more than the elements and
    # masks it holds, and the charges held never pass COSET_MEMO: 4,096
    # entries up to 6 columns, 1,024 at 8, 256 at 10 and 4 at 16, where one
    # trial of four users reads 8; the widths are mixed in one memo
    assert search.COSET_MEMO == 1 << 18
    clear_the_coset_memo(monkeypatch)
    rng = random.Random("coset memo")
    most = Counter()
    for n_files, t, cache_dim, spans in (
        (1, 8, 3, 1200), (2, 5, 5, 300), (2, 8, 12, 6), (2, 3, 3, 300)
    ):
        n_cols = n_files * t
        for _ in range(spans):
            basis = gf2.reduced_basis(gf2.random_full_rank(cache_dim, n_cols, rng))
            for f in range(n_files):
                got = search._file_cosets(basis, f, t, n_cols)
                assert got == search._file_cosets(basis, f, t, n_cols)
                assert len(got) <= t
                assert len(got) + sum(len(elements) for _, elements in got) <= 1 << n_cols
                assert all(mask >> (1 << n_cols) == 0 for mask, _ in got)
                charges = Counter(c for c, _ in search._COSETS.values())
                charged = sum(c * n for c, n in charges.items())
                assert charged == search._COSETS_CHARGED[0] <= search.COSET_MEMO
                assert charges.total() <= search.COSET_MEMO >> 6
                charge = 1 << max(n_cols, 6)
                most[n_cols] = max(most[n_cols], charges[charge])
    assert most == {8: 1024, 10: 256, 16: 4, 6: most[6]}
    assert 300 < most[6] <= 4096


def test_a_completion_that_fails_verification_is_refused_also_under_python_O():
    # the found-scheme self-check raises rather than asserts, so python -O
    # keeps it; the completion is made to flip one delivery bit
    script = (
        "import sys\n"
        "from cachepriv import search\n"
        "from cachepriv.core import cyclic_demand_set\n"
        "complete = search._try_placements\n"
        "def flipped(*args):\n"
        "    found = complete(*args)\n"
        "    if found:\n"
        "        demand, rows = found[0]\n"
        "        found[0] = demand, (rows[0] ^ 2, *rows[1:])\n"
        "    return found\n"
        "search._try_placements = flipped\n"
        "try:\n"
        "    search.search_linear_scheme(2, 4, 3, 1, 4, cyclic_demand_set(2, 2), "
        "seed=18, budget=16)\n"
        "except RuntimeError as e:\n"
        "    print(sys.flags.optimize, e)\n"
    )
    src = str(Path(search.__file__).resolve().parents[1])
    for flags in ([], ["-O"]):
        run = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout == (
            f"{len(flags)} search completed matrices that fail: user 0 cannot "
            "recover subfile 1 of file 0 under demand (0, 1, 0, 1)\n"
        )


def test_subspace_table_is_filled_only_as_far_as_scans_reach(monkeypatch):
    pulled = []
    original = gf2.iter_subspaces

    def counting(n_cols, dim):
        for rows in original(n_cols, dim):
            pulled.append(rows)
            yield rows

    monkeypatch.setattr(gf2, "iter_subspaces", counting)
    monkeypatch.setattr(search, "_SUBSPACES", {})
    # the pinned low-memory witness: every demand is served early in the scan
    caches = ((22,), (44,), (11,), (49,))
    bases = [gf2.reduced_basis(rows) for rows in caches]
    deliveries = search._try_placements(bases, CYCLIC, 3, 6, 4)
    assert [rows for _, rows in deliveries] == [
        (16, 8, 4, 1), (32, 16, 4, 3), (32, 8, 6, 1), (40, 24, 5, 3)
    ]
    first = len(pulled)
    assert 0 < first < 651  # the (6, 4) table has 651 subspaces
    assert len(search._SUBSPACES[(6, 4)][0]) == first
    assert search._try_placements(bases, CYCLIC, 3, 6, 4) == deliveries
    assert len(pulled) == first
    # a search with failing trials reads the whole table once, then nothing
    found = search_linear_scheme(2, 4, 3, 1, 4, CYCLIC, seed=18, budget=16)
    assert found.cache_rows == caches
    assert len(pulled) == 651
    assert search_linear_scheme(2, 4, 3, 1, 4, CYCLIC, seed=18, budget=16) == found
    assert len(pulled) == 651


def test_descriptor_round_trip():
    m = low_memory_2x4_matrices()
    text = export_descriptor(m, "demo")
    parsed, name = parse_descriptor(text)
    assert parsed == m
    assert name == "demo"
    # every pinned matrix set, with tx_dim 0 and full demand sets among them
    pinned = [m for m, _, _ in compile_pins()]
    assert any(m.tx_dim == 0 for m in pinned)
    for m in pinned:
        assert parse_descriptor(export_descriptor(m, "pin")) == (m, "pin")


def compile_pins():
    """(matrices, served, pinned tables) per entry of compile_pins.json, whose
    tables were captured from compile_linear_scheme when it solved one
    target at a time."""
    pins_file = Path(__file__).with_name("compile_pins.json")
    assert hashlib.sha256(pins_file.read_bytes()).hexdigest() == (
        "8b76ec32a2bd2aa172043299dc075e962faf99c8f60671245c1bbab12ed4cb45"
    )
    out = []
    for p in json.loads(pins_file.read_text()):
        m = LinearSchemeMatrices(
            p["files"],
            p["users"],
            p["t"],
            tuple(map(tuple, p["cache_rows"])),
            tuple((tuple(d), tuple(rows)) for d, rows in p["deliveries"]),
        )
        served = DemandSubset(
            p["files"], p["users"], tuple(map(tuple, p["served"])), p["name"]
        )
        out.append((m, served, p))
    return out


def pinned_columns(forms):
    """The forms as compile_pins.json lists them: per form, the columns it
    reads, ascending."""
    return [[c for c in range(form.bit_length()) if form >> c & 1] for form in forms]


def test_compiled_tables_match_the_pins():
    # the first pass solves every set (the memo starts empty), the second
    # gets every instance from the memo; the tables hand out forms, and the
    # pins list each form's columns
    pins = compile_pins()
    assert len(pins) == 40
    compile_linear_scheme.cache_clear()
    for solved, memo_hits in ((40, 0), (40, 40)):
        unsolvable = 0
        for m, served, p in pins:
            s = compile_linear_scheme(m, served, p["name"])
            got = {
                "cache": [
                    pinned_columns(s.cache(u, 0)) for u in range(m.n_users)
                ],
                "delivery": [
                    [d, pinned_columns(s.delivery(d, (0,) * m.n_users, ())[0])]
                    for d in served
                ],
                "recipes": [
                    [d, u, pinned_columns(s.recipe(u, d, 0, d))]
                    for d in served
                    for u in range(m.n_users)
                ],
            }
            assert json.loads(json.dumps(got)) == {k: p[k] for k in got}, p["name"]
            unsolvable += sum(
                r == [[]] * m.subpacketization for _, _, r in p["recipes"]
            )
        assert unsolvable >= 100  # unsolvable pairs keep the empty recipe
        info = compile_linear_scheme.cache_info()
        assert (info.misses, info.hits) == (solved, memo_hits)


def test_equal_arguments_compile_to_one_instance_and_other_names_to_others():
    # the instance is memoised by the value of (matrices, served set, name)
    compile_linear_scheme.cache_clear()
    a = compile_linear_scheme(low_memory_2x4_matrices(), CYCLIC, "lowmem")
    b = compile_linear_scheme(
        low_memory_2x4_matrices(), cyclic_demand_set(2, 2), "lowmem"
    )
    c = compile_linear_scheme(low_memory_2x4_matrices(), CYCLIC, "other")
    assert a is b
    assert a is not c
    for table in ("cache", "delivery", "recipe"):
        assert getattr(a, table) is not getattr(c, table)
    assert [a.cache(u, 0) for u in range(4)] == [
        c.cache(u, 0) for u in range(4)
    ]
    for d in CYCLIC:
        keys = (0,) * 4
        assert a.delivery(d, keys, ()) == c.delivery(d, keys, ())
        for u in range(4):
            assert a.recipe(u, d, 0, d) == c.recipe(u, d, 0, d)
    store = FileStore.zero(2, 3, 1)
    with pytest.raises(UnservedDemand, match="^other does not serve demand"):
        c.deliver(store, (0, 0, 0, 0), (0,) * 4, 0)
    # rebinding a method on one instance, as a tracer does, leaves the
    # instance of another name alone and is seen by whoever gets it again
    calls = []

    def place(*args, fn=a.place):
        calls.append(args)
        return fn(*args)

    object.__setattr__(a, "place", place)
    try:
        again = compile_linear_scheme(low_memory_2x4_matrices(), CYCLIC, "lowmem")
        assert c.place((0,) * 4, store) == again.place((0,) * 4, store)
        assert len(calls) == 1 and "place" not in vars(c)
    finally:
        object.__delattr__(a, "place")


def test_unserved_demand_errors_name_the_scheme_compiled():
    store = FileStore.zero(2, 3, 1)
    for name in ("first", "second"):
        s = compile_linear_scheme(low_memory_2x4_matrices(), CYCLIC, name)
        with pytest.raises(UnservedDemand, match=f"^{name} does not serve demand"):
            s.deliver(store, (0, 0, 0, 0), (0,) * 4, 0)
        with pytest.raises(UnservedDemand, match=f"^{name} has no recipe for demand"):
            s.decode(0, 0, 0, (0, 0, 0, 0), (0,), (0,) * 4)


def test_compile_errors_are_raised_on_every_call():
    m = low_memory_2x4_matrices()
    deficient = LinearSchemeMatrices(
        2, 4, 3, ((0b000001, 0b000001),) * 4, m.deliveries
    )
    wrong_shape = cyclic_demand_set(2, 1)
    compile_linear_scheme.cache_clear()
    compile_linear_scheme(m, CYCLIC, "clean")
    for _ in range(2):
        with pytest.raises(
            ParameterError, match="^cache matrix of user 0 is rank deficient$"
        ):
            compile_linear_scheme(deficient, CYCLIC, "deficient")
        with pytest.raises(
            ParameterError,
            match="^served demand set shape does not match the matrices$",
        ):
            compile_linear_scheme(m, wrong_shape, "wrong-shape")
    assert compile_linear_scheme.cache_info().currsize == 1


def test_the_compile_memo_is_bounded():
    compile_linear_scheme.cache_clear()
    bound = compile_linear_scheme.cache_info().maxsize
    assert bound is not None
    rng = random.Random("memo-bound")
    sets = set()
    while len(sets) < bound + 5:
        sets.add(
            LinearSchemeMatrices(
                2,
                4,
                3,
                tuple(gf2.random_full_rank(2, 6, rng) for _ in range(4)),
                tuple((d, gf2.random_full_rank(2, 6, rng)) for d in CYCLIC),
            )
        )
    for m in sets:
        compile_linear_scheme(m, CYCLIC, "random")
    info = compile_linear_scheme.cache_info()
    assert (info.misses, info.currsize) == (bound + 5, bound)


def test_descriptor_bit_order():
    # leftmost character of a row string is column 0
    m = LinearSchemeMatrices(
        2, 1, 1, ((0b01,),), (((0,), (0b10,)),)
    )
    text = export_descriptor(m, "tiny")
    assert "cache 0: 10" in text
    assert "delivery 0: 01" in text
    parsed, _ = parse_descriptor(text)
    assert parsed == m


def test_descriptor_rejects_garbage():
    m = low_memory_2x4_matrices()
    text = export_descriptor(m, "demo")
    with pytest.raises(ParameterError):
        parse_descriptor(text.replace("version: 1", "version: 9"))
    with pytest.raises(ParameterError):
        parse_descriptor(text.replace("cache 0: ", "cache 0: 2"))
    for old, new in (
        ("users: 4\n", ""),
        ("files: 2\n", ""),
        ("subpacketization: 3\n", ""),
        ("users: 4\n", "users: four\n"),
        ("version: 1\n", "version: one\n"),
        ("cache 1:", "# cache 1:"),
        ("cache 1:", "cache one:"),
        ("delivery 0,1,0,1:", "delivery 0,x,0,1:"),
    ):
        assert old in text
        with pytest.raises(ParameterError):
            parse_descriptor(text.replace(old, new, 1))
    with pytest.raises(ParameterError):
        parse_descriptor("version: 1\nfiles: 0\nusers: 1\nsubpacketization: 1\ncache 0:\n")


def test_descriptor_ignores_comments_and_blank_lines():
    m = low_memory_2x4_matrices()
    text = "# generated witness\n\n" + export_descriptor(m, "demo")
    parsed, _ = parse_descriptor(text)
    assert parsed == m


def test_random_schemes_rank_vs_execution_agreement():
    # rank-condition verdicts and exhaustive execution must always agree
    for seed in range(8):
        rng = random.Random(f"equiv:{seed}")
        cache_dim = rng.randrange(1, 5)
        tx_dim = rng.randrange(1, 5)
        caches = tuple(gf2.random_full_rank(cache_dim, 6, rng) for _ in range(4))
        deliveries = tuple(
            (d, gf2.random_full_rank(tx_dim, 6, rng)) for d in CYCLIC
        )
        m = LinearSchemeMatrices(2, 4, 3, caches, deliveries)
        s = compile_linear_scheme(m, CYCLIC, f"rand{seed}")
        assert verify_linear(m, CYCLIC).passed == check_decodability(s).passed
