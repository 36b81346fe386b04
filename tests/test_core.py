from __future__ import annotations

import itertools
import random

import pytest

from cachepriv.core import (
    DemandSubset,
    DemandVector,
    FileStore,
    ParameterError,
    alphabet_bits,
    cyclic_demand_set,
    cyclic_shift,
    full_demand_set,
    identity_vector,
    pack_symbols,
    unpack_symbols,
)
from oracles import expand_demand, mod_sub


def test_symbol_validation():
    # the store checks every value against its width, and the width itself
    with pytest.raises(ParameterError, match="width must be at least 1, got 0"):
        FileStore(1, 1, 0, (0,))
    with pytest.raises(ValueError, match="out of range"):
        FileStore(1, 1, 3, (8,))
    with pytest.raises(ValueError, match="out of range"):
        FileStore(1, 1, 3, (-1,))
    assert FileStore(1, 1, 3, (7,)).values == (7,)


def test_pack_split_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        width = rng.randrange(1, 7)
        n_files, t = rng.randrange(1, 4), rng.randrange(1, 4)
        store = FileStore.random(n_files, t, width, rng)
        value, bits = pack_symbols(store.values, width)
        assert bits == width * n_files * t
        assert unpack_symbols(value, width, n_files * t) == store.values
        assert FileStore.from_index(n_files, t, width, value) == store


def test_pack_first_symbol_least_significant():
    value, bits = pack_symbols((0b01, 0b11), 2)
    assert (value, bits) == (0b1101, 4)


def test_store_roundtrip_and_flat_order():
    rng = random.Random(5)
    store = FileStore.random(3, 4, 2, rng)
    assert FileStore.from_index(3, 4, 2, pack_symbols(store.values, 2)[0]) == store
    assert store.values[1 * 4 + 2] == store.file(1)[2]
    assert store.file(2) == store.values[8:]


def test_store_index_enumeration_is_dense():
    stores = (FileStore.from_index(2, 1, 2, i) for i in range(16))
    seen = {pack_symbols(store.values, 2)[0] for store in stores}
    assert seen == set(range(16))


def test_store_shape_validation():
    with pytest.raises(ValueError, match="symbol count"):
        FileStore(2, 1, 1, (0,))
    with pytest.raises(ValueError, match="symbol count"):
        FileStore(1, 2, 1, (0,))
    with pytest.raises(ValueError, match="out of range"):
        FileStore(1, 1, 2, (4,))


def test_demand_vector():
    d = DemandVector(3, (2, 0, 1))
    assert list(d) == [2, 0, 1]
    assert d[0] == 2 and len(d) == 3
    with pytest.raises(ValueError):
        DemandVector(2, (0, 2))


def test_cyclic_shift_rotates_right():
    assert cyclic_shift((0, 1, 2), 1) == (2, 0, 1)
    assert cyclic_shift((0, 1, 2), 3) == (0, 1, 2)
    assert cyclic_shift((0, 1, 2), -1) == (1, 2, 0)


def test_mod_sub():
    assert mod_sub((0, 1), (1, 1), 3) == (2, 0)
    with pytest.raises(ValueError):
        mod_sub((0,), (0, 1), 2)


def test_expand_demand_pivot_identity():
    # virtual user k*N + key_k always requests exactly demand_k
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(2, 5)
        k = rng.randrange(1, 4)
        demand = DemandVector(n, tuple(rng.randrange(n) for _ in range(k)))
        keys = tuple(rng.randrange(n) for _ in range(k))
        big = expand_demand(demand, keys)
        assert len(big) == n * k
        for u in range(k):
            assert big[u * n + keys[u]] == demand[u]


def test_expand_demand_blocks_are_rotations():
    big = expand_demand(DemandVector(3, (1, 2)), (0, 1))
    # shifts are (0-1) mod 3 = 2 and (1-2) mod 3 = 2
    assert big.entries == cyclic_shift((0, 1, 2), 2) * 2


def test_full_demand_set():
    ds = full_demand_set(2, 3)
    assert len(ds) == 8
    assert (1, 0, 1) in ds
    assert ds.label == "full"


def test_cyclic_demand_set():
    ds = cyclic_demand_set(2, 2)
    assert len(ds) == 4
    assert set(ds.members) == {
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
    }
    assert (0, 0, 0, 0) not in ds


def test_cyclic_demand_set_three_files():
    ds = cyclic_demand_set(3, 2)
    assert len(ds) == 9
    shifts = itertools.product(range(3), repeat=2)
    for member, shift in zip(ds.members, shifts, strict=True):
        for block in range(2):
            expected = cyclic_shift(identity_vector(3), shift[block])
            assert member[block * 3 : (block + 1) * 3] == expected


def test_demand_subset_validation():
    with pytest.raises(ValueError):
        DemandSubset(2, 2, ((0, 1, 0),), "bad")


def test_alphabet_bits():
    assert [alphabet_bits(s) for s in (1, 2, 3, 4, 5, 8, 9)] == [
        0,
        1,
        2,
        2,
        3,
        3,
        4,
    ]
    with pytest.raises(ValueError):
        alphabet_bits(0)
