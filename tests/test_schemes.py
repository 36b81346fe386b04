from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from cachepriv.cli import resolve_scheme
from cachepriv.core import (
    DemandVector,
    FileStore,
    ParameterError,
    Privacy,
    cyclic_demand_set,
    full_demand_set,
)
from cachepriv.lift import (
    basic_private_scheme,
    lift_private,
    low_memory_private_scheme,
)
from cachepriv.schemes import (
    HIGH_MEMORY_2X4_CACHES,
    HIGH_MEMORY_2X4_DELIVERIES,
    LOW_MEMORY_2X4_CACHES,
    LOW_MEMORY_2X4_DELIVERIES,
    high_memory_2x4_matrices,
    high_memory_2x4_scheme,
    low_memory_2x4_matrices,
    low_memory_2x4_scheme,
    memory_share,
    split_subpacketization,
    uncoded_baseline,
    with_plaintext_demand_header,
)
from cachepriv.search import compile_linear_scheme, export_descriptor, verify_linear
from cachepriv.session import simulate_session
from cachepriv.verifier import (
    BudgetExceeded,
    check_conditional_invariance,
    check_decodability,
    check_privacy,
    measure_rates,
    run_checks,
)
from oracles import view_determines_file, with_tables

CYCLIC = cyclic_demand_set(2, 2)


def file_intersection_dim(rows: tuple[int, ...], file_index: int, t: int) -> int:
    from cachepriv import gf2

    mask = ((1 << t) - 1) << (file_index * t)
    span = gf2.span_elements(rows)
    return gf2.rank([v for v in span if v and not v & ~mask])


def test_low_memory_constants_pinned():
    assert LOW_MEMORY_2X4_CACHES == (
        (0b001001,),
        (0b100100,),
        (0b010010,),
        (0b111111,),
    )
    assert [d for d, _ in LOW_MEMORY_2X4_DELIVERIES] == list(CYCLIC.members)


def test_low_memory_matrices_verify():
    m = low_memory_2x4_matrices()
    m.validate()
    assert (m.memory, m.rate) == (Fraction(1, 3), Fraction(4, 3))
    v = verify_linear(m, CYCLIC)
    assert v.passed and v.cases == 48


def test_high_memory_matrices_verify():
    m = high_memory_2x4_matrices()
    m.validate()
    assert (m.memory, m.rate) == (Fraction(4, 3), Fraction(1, 3))
    assert verify_linear(m, CYCLIC).passed
    assert [d for d, _ in HIGH_MEMORY_2X4_DELIVERIES] == list(CYCLIC.members)
    # every cache splits as a 2-dim piece per file, which single-row
    # deliveries make necessary
    for rows in HIGH_MEMORY_2X4_CACHES:
        assert file_intersection_dim(rows, 0, 3) == 2
        assert file_intersection_dim(rows, 1, 3) == 2


def test_corner_schemes_decode_and_match_oracle():
    for scheme in (low_memory_2x4_scheme(), high_memory_2x4_scheme()):
        assert check_decodability(scheme).passed
        assert view_determines_file(scheme)


def test_corrupted_delivery_fails_decodability():
    good = low_memory_2x4_scheme()
    delivery = good.delivery
    # every demand is served the rows of demand (0, 1, 0, 1)
    fixed = (0, 1, 0, 1)
    bad = with_tables(
        good, delivery=lambda demand, keys, configs: delivery(fixed, keys, configs)
    )
    v = check_decodability(bad)
    assert not v.passed
    assert v.counterexample is not None
    assert "wanted" in str(v.counterexample)


def test_a_budget_refusal_builds_no_rows():
    # t = 2N = 2,000 symbols a file: the delivery table has 1,999,000 rows,
    # about 170 MB when built, and the refused check looks no table up
    tracemalloc.start()
    try:
        s = resolve_scheme("thm1:1000,2,1/2")
        with pytest.raises(BudgetExceeded):
            run_checks(s, users=range(s.n_users))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    # the rows are built on the first lookup, and kept
    small = basic_private_scheme(4, 2, Fraction(1, 2))
    assert small.cache(0, 0) is small.cache(1, 1)
    assert small.cache(0, 0) == (1 << 0, 1 << 8, 1 << 16, 1 << 24)


def test_a_baseline_lists_no_demand_before_the_budget_check():
    # a baseline serves every demand, served None: its 2,000^2 demands, 294
    # MB when listed, are counted for the budget's refusal and never listed
    tracemalloc.start()
    try:
        s = resolve_scheme("baseline:2000,2,0")
        with pytest.raises(BudgetExceeded):
            run_checks(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    small = uncoded_baseline(3, 2, 1)
    assert small.served is None and small.n_served() == 9
    assert small.served_demands() == full_demand_set(3, 2)  # in product order


def test_split_subpacketization():
    assert split_subpacketization(2, Fraction(0)) == (1, 0, 1)
    assert split_subpacketization(2, Fraction(2)) == (1, 1, 0)
    assert split_subpacketization(2, Fraction(1)) == (2, 1, 1)
    assert split_subpacketization(2, Fraction(1, 3)) == (6, 1, 5)
    assert split_subpacketization(3, Fraction(3, 2)) == (2, 1, 1)
    with pytest.raises(ParameterError):
        split_subpacketization(2, Fraction(5, 2))
    with pytest.raises(ParameterError):
        split_subpacketization(2, Fraction(-1))


@pytest.mark.parametrize("make", [uncoded_baseline, basic_private_scheme])
@pytest.mark.parametrize("n_files, n_users", [(0, 2), (2, 0), (-1, 2), (2, -1)])
def test_schemes_need_a_file_and_a_user(make, n_files, n_users):
    with pytest.raises(ParameterError, match="at least one file"):
        make(n_files, n_users, 0)


def test_baseline_parameters_and_decodability():
    s = uncoded_baseline(2, 2, 1)
    assert (s.memory, s.rate) == (Fraction(1), Fraction(1))
    assert s.privacy is Privacy.NON_PRIVATE
    assert s.header_bits == 0
    assert check_decodability(s).passed
    assert measure_rates(s) == (Fraction(1), Fraction(1), 0)

    s = uncoded_baseline(3, 2, Fraction(3, 2))
    assert s.rate == Fraction(3, 2)
    assert check_decodability(s).passed


def test_memory_share_identities():
    a = low_memory_private_scheme()
    b = basic_private_scheme(2, 2, 2)
    assert memory_share(a, b, 1) is a
    assert memory_share(a, b, 0) is b
    with pytest.raises(ParameterError):
        memory_share(a, b, Fraction(3, 2))


def test_memory_share_parameters():
    from cachepriv.lift import high_memory_private_scheme

    s = memory_share(
        low_memory_private_scheme(), high_memory_private_scheme(), Fraction(1, 3)
    )
    assert s.subpacketization == 9
    assert (s.memory, s.rate) == (Fraction(1), Fraction(2, 3))
    assert s.header_bits == 4
    assert s.key_sizes == (4, 4)
    assert measure_rates(s) == (Fraction(1), Fraction(2, 3), 4)


def test_memory_share_runs_exhaustively_when_small():
    sh = memory_share(uncoded_baseline(2, 2, 0), uncoded_baseline(2, 2, 2), Fraction(1, 2))
    assert sh.subpacketization == 2
    assert (sh.memory, sh.rate) == (Fraction(1), Fraction(1))
    v = check_decodability(sh)
    assert v.passed and v.cases == 64

    shp = memory_share(
        basic_private_scheme(2, 2, 0), basic_private_scheme(2, 2, 2), Fraction(1, 2)
    )
    assert check_decodability(shp).passed
    assert check_privacy(shp, 0).passed and check_privacy(shp, 1).passed
    assert check_conditional_invariance(shp).passed
    assert view_determines_file(shp)


def test_memory_share_rejects_mismatches():
    with pytest.raises(ParameterError):
        memory_share(uncoded_baseline(2, 2, 1), uncoded_baseline(3, 2, 1), Fraction(1, 2))
    with pytest.raises(ParameterError):
        memory_share(
            uncoded_baseline(2, 2, 1), basic_private_scheme(2, 2, 1), Fraction(1, 2)
        )
    with pytest.raises(ParameterError):
        memory_share(low_memory_2x4_scheme(), uncoded_baseline(2, 4, 1), Fraction(1, 2))


def test_memory_share_refuses_fractional_and_empty_parts():
    # a part's cache and payload must each be a whole number of symbols,
    # and not both empty
    a, b = basic_private_scheme(2, 2, 1), basic_private_scheme(2, 2, 0)
    with pytest.raises(
        ParameterError, match=r"^thm1:2,2,1 has non-integral symbol counts$"
    ):
        memory_share(replace(a, memory=Fraction(1, 3)), b, Fraction(1, 2))
    with pytest.raises(
        ParameterError, match=r"^thm1:2,2,1 has no cache and no payload$"
    ):
        memory_share(replace(a, memory=0, rate=0), b, Fraction(1, 2))


def test_plaintext_header_control_leaks():
    ctrl = with_plaintext_demand_header(low_memory_private_scheme())
    assert ctrl.name.endswith("+plaintext-header")
    assert check_decodability(ctrl).passed
    v = check_privacy(ctrl, 0)
    assert not v.passed
    assert v.mi_bits == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        with_plaintext_demand_header(low_memory_2x4_scheme())


def test_a_replaced_program_keeps_every_table_it_does_not_replace():
    # the control replaces the delivery and recipe tables and keeps the
    # source scheme's cache table as it is
    s = low_memory_private_scheme()
    ctrl = with_plaintext_demand_header(s)
    assert ctrl.cache is s.cache
    for replaced in ("delivery", "recipe"):
        assert getattr(ctrl, replaced) is not getattr(s, replaced)
    # a negative form in a replaced table's entry raises as place, deliver
    # or decode reads the entry:
    # table -> (a call reading one entry, a lookup with a negative form)
    store = FileStore.zero(2, 3, 1)
    negative = {
        "cache": (lambda b: b.place((0, 0), store), lambda user, key: (1, -1)),
        "delivery": (
            lambda b: b.deliver(store, (0, 1), (0, 0), 0),
            lambda *args: ((-1,), (0, 0)),
        ),
        "recipe": (
            lambda b: b.decode(0, 0, 0, (0, 0), (0,), (0,) * 4),
            lambda *args: (-2,),
        ),
    }
    for table, (read, lookup) in negative.items():
        broken = with_tables(s, **{table: lookup})
        for kept in set(negative) - {table}:
            assert getattr(broken, kept) is getattr(s, kept)
        with pytest.raises(IndexError, match="names a negative column"):
            read(broken)


def test_every_scheme_kind_rejects_a_demand_of_the_wrong_length(tmp_path):
    descriptor = tmp_path / "lowmem.txt"
    descriptor.write_text(export_descriptor(low_memory_2x4_matrices(), "lowmem"))
    schemes = [
        resolve_scheme(token)
        for token in (
            "example1",
            "lowmem2x4",
            "thm1:3,2,0",  # N > K: slots and pads
            "thm1:2,3,1",  # N <= K
            "baseline:3,2,1",
            "share:1/2:thm1:3,2,0:thm1:3,2,3",
            str(descriptor),
        )
    ]
    schemes.append(with_plaintext_demand_header(low_memory_private_scheme()))
    for s in schemes:
        store = FileStore.zero(s.n_files, s.subpacketization, 1)
        for length in (s.n_users - 1, s.n_users + 1):
            demand = DemandVector(s.n_files, (0,) * length)
            with pytest.raises(
                ParameterError, match=rf" {s.n_users} users.* {length} entries"
            ):
                s.deliver(store, demand, (0,) * s.n_users, 0)


@pytest.mark.parametrize("entry", [-1, 2])
def test_a_demand_naming_no_file_is_refused_before_delivery(entry):
    # deliver takes the demand as any int sequence, so the range is checked
    # there, not only by DemandVector
    s = low_memory_private_scheme()
    store = FileStore.zero(s.n_files, s.subpacketization, 1)
    message = f"^demand {entry} out of range for 2 files$"
    with pytest.raises(ParameterError, match=message):
        s.deliver(store, (0, entry), (0, 0), 0)


def test_share_nested_as_the_first_part_decodes():
    # the inner share's symbols are narrow, so the outer share slices its
    # cache and payload by the inner share's declared counts
    s = resolve_scheme("share:1/2:share:1/3:example1:dual:thm1:2,2,2")
    assert (s.memory, s.rate) == (Fraction(3, 2), Fraction(1, 3))
    for width in (1, 3, 64):
        for demand in ((0, 0), (0, 1), (1, 0), (1, 1)):
            t = simulate_session(s, DemandVector(2, demand), 7 * width, width)
            assert t.all_matched, (width, demand)


# ---------------------------------------------------------------------------
# memoised constructors: per constructor, (its i-th distinct arguments, an
# argument tuple it refuses)


def share_parts():
    return basic_private_scheme(2, 2, 0), basic_private_scheme(2, 2, 2)


CONSTRUCTOR_CALLS = {
    "thm1": (
        basic_private_scheme,
        lambda i: (1, i + 1, 0),
        lambda: (2, 2, 3),
    ),
    "baseline": (
        uncoded_baseline,
        lambda i: (1, i + 1, 0),
        lambda: (0, 2, 0),
    ),
    "share": (
        memory_share,
        lambda i: (*share_parts(), Fraction(1, i + 2)),
        lambda: (share_parts()[0], basic_private_scheme(3, 2, 0), Fraction(1, 2)),
    ),
    "lift": (
        lift_private,
        lambda i: (low_memory_2x4_scheme(), f"lifted-{i}"),
        lambda: (basic_private_scheme(2, 2, 0),),
    ),
    "compile": (
        compile_linear_scheme,
        lambda i: (low_memory_2x4_matrices(), CYCLIC, f"compiled-{i}"),
        lambda: (low_memory_2x4_matrices(), cyclic_demand_set(2, 1), "wrong-shape"),
    ),
}


@pytest.mark.parametrize("kind", CONSTRUCTOR_CALLS)
def test_equal_arguments_give_the_same_instance(kind):
    build, args, _ = CONSTRUCTOR_CALLS[kind]
    first = build(*args(0))
    assert build(*args(0)) is first
    assert build(*args(1)) is not first
    assert build(*args(0)) is first


@pytest.mark.parametrize("kind", CONSTRUCTOR_CALLS)
def test_a_refused_construction_raises_on_every_call(kind):
    build, _, refused = CONSTRUCTOR_CALLS[kind]
    build.cache_clear()
    for calls in (1, 2):
        with pytest.raises(ParameterError):
            build(*refused())
        info = build.cache_info()
        assert (info.misses, info.currsize) == (calls, 0)


@pytest.mark.parametrize("kind", CONSTRUCTOR_CALLS)
def test_each_constructor_memo_is_bounded_and_lets_evicted_instances_go(kind):
    build, args, _ = CONSTRUCTOR_CALLS[kind]
    build.cache_clear()
    bound = build.cache_info().maxsize
    assert bound is not None
    evicted = weakref.ref(build(*args(0)))
    for i in range(1, bound + 5):
        build(*args(i))
    info = build.cache_info()
    assert (info.misses, info.currsize) == (bound + 5, bound)
    gc.collect()
    assert evicted() is None
