"""Independent oracles used by the test suite.

These deliberately avoid the library's own decode and counting paths so the
checks they back are not self-referential: decodability is judged from the
information available to a user, mutual information is recomputed from
entropies, and linear rows are applied one output bit at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from cachepriv.core import FileStore, SchemeInstance, SubfileSymbol, pack_symbols
from cachepriv.verifier import atom_space


def view_determines_file(s: SchemeInstance, width: int = 1) -> bool:
    """Decoder-independent decodability: over every realization, a user's
    observation (cache, key, broadcast, own demand) must pin down the
    demanded file's content.  If it does, some decoder exists; if it does
    not, no decoder can work."""
    space = atom_space(s, width)
    seen: dict[tuple, tuple[int, ...]] = {}
    for store, demand, keys in space.iter_atoms():
        caches = s.place(keys, store)
        msg = s.deliver(store, demand, keys)
        for u in range(s.n_users):
            view = (
                u,
                demand[u],
                keys.user_keys[u],
                pack_symbols(caches[u].symbols),
                pack_symbols(msg.payload),
                msg.header,
            )
            want = tuple(sym.value for sym in store.file(demand[u]))
            if seen.setdefault(view, want) != want:
                return False
    return True


def entropy_bits(counts: Counter) -> float:
    total = sum(counts.values())
    return -sum(
        (c / total) * math.log2(c / total) for c in counts.values() if c
    )


def mi_from_pairs(pairs: Iterable[tuple[object, object]]) -> float:
    """I(L; R) = H(L) + H(R) - H(L, R), a second route to the verifier's
    plug-in mutual information figure."""
    joint: Counter = Counter()
    left: Counter = Counter()
    right: Counter = Counter()
    for l, r in pairs:
        joint[(l, r)] += 1
        left[l] += 1
        right[r] += 1
    return entropy_bits(left) + entropy_bits(right) - entropy_bits(joint)


def apply_rows(rows: Sequence[int], store: FileStore) -> tuple[SubfileSymbol, ...]:
    """Each GF(2) row applied to the store's flat symbols (column i*t + j is
    file i subfile j), built bit by bit from the packed store index, where
    symbol k holds bits k*width .. (k+1)*width - 1."""
    width = store.symbol_width
    n_cols = store.n_files * store.subpacketization
    packed = store.index()
    out = []
    for row in rows:
        value = 0
        for b in range(width):
            bit = 0
            for col in range(n_cols):
                if (row >> col) & 1:
                    bit ^= (packed >> (col * width + b)) & 1
            value |= bit << b
        out.append(SubfileSymbol(width, value))
    return tuple(out)
