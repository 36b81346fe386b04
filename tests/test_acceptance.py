"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
happen; without -s pytest shows them for failing tests only.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from cachepriv import cli, gf2
from cachepriv.core import (
    DemandVector,
    FileStore,
    cyclic_demand_set,
)
from cachepriv.lift import (
    basic_private_scheme,
    high_memory_private_scheme,
    low_memory_private_scheme,
)
from cachepriv.region import corner_points_2x2, optimal_private_rate_2x2
from cachepriv.schemes import (
    HIGH_MEMORY_2X4_CACHES,
    HIGH_MEMORY_2X4_DELIVERIES,
    HIGH_MEMORY_SEARCH_SEED,
    high_memory_2x4_matrices,
    low_memory_2x4_matrices,
    memory_share,
    with_plaintext_demand_header,
)
from cachepriv.search import (
    LinearSchemeMatrices,
    compile_linear_scheme,
    search_linear_scheme,
    verify_linear,
)
from cachepriv.verifier import (
    check_conditional_invariance,
    check_decodability,
    check_privacy,
    measure_rates,
)

F = Fraction
CYCLIC = cyclic_demand_set(2, 2)


def report(tag: str, ok: bool) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}")
    assert ok, tag


def test_a1_low_memory_corner_verifies_and_measures():
    started = time.perf_counter()
    s = low_memory_private_scheme()
    checks = [check_decodability(s), check_privacy(s, 0), check_privacy(s, 1)]
    checks.append(check_conditional_invariance(s))
    ok = all(v.passed and v.cases == 1024 for v in checks)
    ok &= measure_rates(s) == (F(1, 3), F(4, 3), 2)
    ok &= time.perf_counter() - started < 1.0
    report("A1 example1 exhaustive verification and exact measurement", ok)


def test_a2_more_files_than_users_verifies():
    started = time.perf_counter()
    s = basic_private_scheme(3, 2, 0)
    ok = len(s.served_demands()) == 9
    v = check_decodability(s)
    ok &= v.passed and v.cases == 2304
    ok &= check_privacy(s, 0).passed and check_privacy(s, 1).passed
    ok &= s.rate == F(2) and measure_rates(s)[1] == F(2)
    ok &= time.perf_counter() - started < 5.0
    report("A2 thm1:3,2,0 decodability and privacy over all randomness", ok)


def test_a3_demand_oblivious_broadcast():
    started = time.perf_counter()
    s = basic_private_scheme(2, 3, 1)
    store = FileStore.random(2, s.subpacketization, 1, random.Random(2))
    messages = {
        (s.deliver(store, DemandVector(2, d), (0, 0, 0), 0)[0], ())
        for d in itertools.product(range(2), repeat=3)
    }
    ok = len(messages) == 1
    ok &= s.rate == F(1) and measure_rates(s)[1] == F(1)
    ok &= check_decodability(s).passed
    ok &= all(check_privacy(s, u).passed for u in range(3))
    ok &= time.perf_counter() - started < 1.0
    report("A3 thm1:2,3,1 broadcast is identical across all 8 demands", ok)


def test_a4_high_memory_witness_committed_verified_regenerable():
    started = time.perf_counter()
    committed = high_memory_2x4_matrices()
    committed.validate()
    ok = verify_linear(committed, CYCLIC).passed
    ok &= (committed.memory, committed.rate) == (F(4, 3), F(1, 3))
    ok &= time.perf_counter() - started < 1.0

    s = high_memory_private_scheme()
    ok &= check_decodability(s).passed
    ok &= check_privacy(s, 0).passed and check_privacy(s, 1).passed
    ok &= measure_rates(s) == (F(4, 3), F(1, 3), 2)

    regen_started = time.perf_counter()
    found = search_linear_scheme(
        2, 4, 3, 4, 1, CYCLIC, strategy="restart", seed=HIGH_MEMORY_SEARCH_SEED
    )
    regen_elapsed = time.perf_counter() - regen_started
    ok &= found is not None
    ok &= found.cache_rows == HIGH_MEMORY_2X4_CACHES
    ok &= found.deliveries == HIGH_MEMORY_2X4_DELIVERIES
    ok &= regen_elapsed < 600.0
    report("A4 dual witness committed, verified, and regenerated by search", ok)


def test_a5_boundary_values_and_shared_midpoint():
    expected = {
        F(0): F(2),
        F(1, 3): F(4, 3),
        F(1): F(2, 3),
        F(4, 3): F(1, 3),
        F(2): F(0),
    }
    ok = all(optimal_private_rate_2x2(m) == r for m, r in expected.items())
    share = memory_share(
        low_memory_private_scheme(), high_memory_private_scheme(), F(1, 3)
    )
    m, r, _ = measure_rates(share)
    ok &= (m, r) == (F(1), F(2, 3))
    ok &= 3 * m + 3 * r == 5
    report("A5 exact boundary rates and the memory-shared midpoint", ok)


def test_a6_invariance_law_separates_private_from_leaking():
    started = time.perf_counter()
    ok = check_conditional_invariance(low_memory_private_scheme()).passed
    ok &= check_conditional_invariance(high_memory_private_scheme()).passed
    ctrl = with_plaintext_demand_header(low_memory_private_scheme())
    inv = check_conditional_invariance(ctrl)
    ok &= not inv.passed
    leak = check_privacy(ctrl, 0)
    ok &= not leak.passed
    ok &= leak.mi_bits is not None and abs(leak.mi_bits - 1.0) < 1e-12
    ok &= time.perf_counter() - started < 5.0
    report("A6 invariance law passes both corners and fails the control", ok)


def test_a7_rank_conditions_agree_with_execution():
    started = time.perf_counter()
    candidates: list[LinearSchemeMatrices] = []
    for seed in range(20):
        rng = random.Random(f"acceptance7:{seed}")
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
    # known-good corners and a bit-flipped variant of each, so both verdict
    # values occur
    for good in (low_memory_2x4_matrices(), high_memory_2x4_matrices()):
        candidates.append(good)
        demand, rows = good.deliveries[0]
        flipped = ((demand, (rows[0] ^ 0b1,) + rows[1:]),) + good.deliveries[1:]
        candidates.append(
            LinearSchemeMatrices(2, 4, 3, good.cache_rows, flipped)
        )
    verdicts = []
    ok = True
    for i, m in enumerate(candidates):
        ranked = verify_linear(m, CYCLIC).passed
        executed = check_decodability(
            compile_linear_scheme(m, CYCLIC, f"cand{i}")
        ).passed
        ok &= ranked == executed
        verdicts.append(ranked)
    ok &= any(verdicts) and not all(verdicts)
    ok &= time.perf_counter() - started < 30.0
    report("A7 rank-condition verdicts match exhaustive execution (24 schemes)", ok)


def test_a8_corner_schemes_meet_the_region_endpoints():
    corners = corner_points_2x2()
    zero = basic_private_scheme(2, 2, 0)
    full = basic_private_scheme(2, 2, 2)
    ok = measure_rates(zero)[:2] == (corners[0].memory, corners[0].rate)
    ok &= measure_rates(full)[:2] == (corners[3].memory, corners[3].rate)
    ok &= check_decodability(zero).passed and check_privacy(zero, 0).passed
    ok &= check_decodability(full).passed and check_privacy(full, 0).passed
    # scope note: the exact region is claimed for two files and two users
    # only; no general order-optimality figure is computed or asserted
    report("A8 memory-axis corner schemes achieve the region endpoints", ok)


# what exhaustive enumeration of all 16,777,216 atoms prints, confirmed
# once by running it (128 s and a 2.0 GB peak on a 2-core x86-64 host)
SHARED_MIDPOINT_STDOUT = (
    "scheme: share:1/3:example1:dual (N=2 K=2 M=1 R=2/3 t=9, private)\n"
    "decodability: PASS (16777216 cases)\n"
    "privacy[user 0]: PASS (16777216 cases, MI=0 bits)\n"
    "privacy[user 1]: PASS (16777216 cases, MI=0 bits)\n"
    "conditional-invariance: PASS (16777216 cases, MI=0 bits)\n"
    "overall: PASS\n"
)


def test_a9_shared_midpoint_verifies_in_seconds(capsys):
    started = time.perf_counter()
    code = cli.main(["verify", "share:1/3:example1:dual"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    ok = code == 0 and captured.out == SHARED_MIDPOINT_STDOUT
    ok &= captured.err == "" and elapsed < 5.0
    report("A9 share:1/3:example1:dual prints the enumeration's verdicts", ok)
