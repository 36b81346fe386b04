from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cachepriv import core
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
    high_memory_private_scheme,
    lift_private,
    low_memory_private_scheme,
)
from cachepriv.schemes import low_memory_2x4_scheme, uncoded_baseline
from cachepriv.verifier import (
    check_decodability,
    check_privacy,
    measure_rates,
)
from oracles import clear_constructors, expand_demand, mod_sub


def test_basic_scheme_rate_formula():
    cases = [
        ((2, 2, Fraction(0)), Fraction(2)),
        ((2, 2, Fraction(2)), Fraction(0)),
        ((2, 3, Fraction(1)), Fraction(1)),
        ((3, 2, Fraction(0)), Fraction(2)),
        ((5, 2, Fraction(5, 2)), Fraction(1)),
    ]
    for (n, k, m), rate in cases:
        s = basic_private_scheme(n, k, m)
        assert s.rate == rate
        assert s.memory == m
        assert s.privacy is Privacy.PRIVATE
        measured_m, measured_r, _ = measure_rates(s)
        assert (measured_m, measured_r) == (m, rate)


def test_basic_scheme_broadcast_is_demand_oblivious_when_files_few():
    # with n_files <= n_users the message carries no demand information at all
    s = basic_private_scheme(2, 3, 1)
    rng = random.Random(41)
    store = FileStore.random(2, s.subpacketization, 1, rng)
    messages = [
        s.deliver(store, DemandVector(2, d), (0, 0, 0), 0)
        for d in itertools.product(range(2), repeat=3)
    ]
    assert len({payload for payload, _ in messages}) == 1
    assert all(header == () for _, header in messages)
    assert s.header_bits == 0


def test_basic_scheme_slot_structure_when_files_many():
    # equal demands share one payload slot, fresh demands get fresh slots
    s = basic_private_scheme(3, 2, 0)
    store = FileStore.zero(3, s.subpacketization, 1)
    k = 2
    for keys_v in itertools.product(range(k), repeat=k):
        for sr in range(s.server_random_size(1)):
            _, same = s.deliver(store, DemandVector(3, (1, 1)), keys_v, sr)
            slots_same = [(same[u] - keys_v[u]) % k for u in range(k)]
            assert slots_same[0] == slots_same[1]
            _, diff = s.deliver(store, DemandVector(3, (1, 2)), keys_v, sr)
            slots_diff = [(diff[u] - keys_v[u]) % k for u in range(k)]
            assert slots_diff[0] != slots_diff[1]


def test_basic_scheme_verifies_with_more_files_than_users():
    s = basic_private_scheme(3, 2, 0)
    assert s.server_random_size(1) == 2 * 4  # 2! orderings x 2 filler bits/slot
    assert check_decodability(s).passed
    assert check_privacy(s, 0).passed
    assert check_privacy(s, 1).passed


def test_basic_scheme_rejects_bad_memory():
    with pytest.raises(ParameterError):
        basic_private_scheme(2, 2, 3)


def test_lift_preconditions():
    with pytest.raises(ParameterError):
        lift_private(low_memory_private_scheme())  # already private
    with pytest.raises(ParameterError):
        lift_private(uncoded_baseline(2, 3, 1))  # 3 users not a multiple of 2
    s = low_memory_2x4_scheme()
    keyed = replace(s, key_sizes=(2, 1, 1, 1))
    with pytest.raises(ParameterError):
        lift_private(keyed)


def test_lift_rejects_schemes_missing_cyclic_demands():
    from cachepriv.schemes import low_memory_2x4_matrices
    from cachepriv.search import compile_linear_scheme

    cyc = cyclic_demand_set(2, 2)
    partial = cyc.members[:3]
    served = type(cyc)(2, 4, partial, "partial")
    s = compile_linear_scheme(low_memory_2x4_matrices(), served, "partial")
    with pytest.raises(ParameterError):
        lift_private(s)


def test_lifting_a_scheme_serving_every_demand_builds_no_demand_set(monkeypatch):
    # a source whose served set is None serves every cyclic demand, so its
    # N^K demands are not built to check them
    def refuse(n_files, n_users):
        raise AssertionError(f"built all {n_files}^{n_users} demands")

    clear_constructors()
    monkeypatch.setattr(core, "full_demand_set", refuse)
    lifted = lift_private(uncoded_baseline(2, 4, 1))
    assert lifted.served is None
    assert measure_rates(lifted) == (Fraction(1), Fraction(1), 2)


def test_lifted_broadcast_reuses_virtual_delivery():
    np_scheme = low_memory_2x4_scheme()
    lifted = lift_private(np_scheme, "example1")
    rng = random.Random(6)
    trivial = (0,) * 4
    for _ in range(25):
        store = FileStore.random(2, 3, 1, rng)
        demand = DemandVector(2, (rng.randrange(2), rng.randrange(2)))
        user_keys = (rng.randrange(2), rng.randrange(2))
        payload, header = lifted.deliver(store, demand, user_keys, 0)
        shifts = mod_sub(user_keys, demand.entries, 2)
        assert header == shifts
        virtual = expand_demand(demand, user_keys)
        inner, _ = np_scheme.deliver(store, virtual, trivial, 0)
        assert payload == inner


def test_lifted_cache_is_selected_virtual_cache():
    np_scheme = low_memory_2x4_scheme()
    lifted = lift_private(np_scheme)
    assert lifted.name == "lifted:lowmem2x4"
    store = FileStore.random(2, 3, 1, random.Random(9))
    virtual = np_scheme.place((0,) * 4, store)
    for keys_v in itertools.product(range(2), repeat=2):
        caches = lifted.place(keys_v, store)
        for u in range(2):
            assert caches[u] == virtual[u * 2 + keys_v[u]]


def test_lifted_corner_schemes_measure_at_their_corners():
    assert measure_rates(low_memory_private_scheme()) == (
        Fraction(1, 3),
        Fraction(4, 3),
        2,
    )
    assert measure_rates(high_memory_private_scheme()) == (
        Fraction(4, 3),
        Fraction(1, 3),
        2,
    )


def test_lifted_schemes_serve_every_demand():
    lifted = low_memory_private_scheme()
    assert lifted.served is None
    assert lifted.served_demands().members == full_demand_set(2, 2).members
    assert lifted.key_sizes == (2, 2)
