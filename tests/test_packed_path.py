"""The verifier's packed path against the independent reference sweep.

run_checks evaluates every scheme straight from its form tables on
packed ints.  reference_checks (tests/oracles.py) runs the scheme's place,
deliver and decode on one store's symbol values at a time, atom by atom, so
agreement with it checks the packed path against the per-symbol arithmetic
that simulate runs.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from cachepriv import gf2
from cachepriv.cli import resolve_scheme
from cachepriv.core import (
    DemandVector,
    FileStore,
    ParameterError,
    Privacy,
    xor_rows,
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
    low_memory_2x4_scheme,
    with_plaintext_demand_header,
)
from cachepriv.search import LinearSchemeMatrices, export_descriptor
from cachepriv.session import run_session, simulate_session
from cachepriv.verifier import _evaluate, _images, atom_count, measure_rates, run_checks
from oracles import reference_checks, with_tables

EXPECTED_VERIFY = Path(__file__).resolve().parents[1] / "bench" / "expected_verify.json"
PINNED = [
    (call["args"][0], int(call["args"][-1]) if "--width" in call["args"] else 1)
    for call in json.loads(EXPECTED_VERIFY.read_text())
]
NAMED = ["example1", "dual", "lowmem2x4", "highmem2x4"]
TOKENS = NAMED + [token for token, _ in PINNED if token not in NAMED]
SEEDS = [10, 11]  # random descriptors, from the low and the high corner


def all_checks(s):
    private = s.privacy is Privacy.PRIVATE
    users = range(s.n_users) if private else ()
    return users, private and s.n_files == 2 and s.n_users == 2


def sweep(s, width=1):
    """run_checks with every check, in reference_checks' format."""
    users, invariance = all_checks(s)
    got = run_checks(s, width, users=users, invariance=invariance)
    return {
        label: (
            v.passed,
            v.cases,
            v.mi_bits,
            None if v.counterexample is None else str(v.counterexample),
        )
        for label, v in got.items()
    }


def oracle(s, width=1):
    users, invariance = all_checks(s)
    return reference_checks(s, width, users, invariance)


def descriptor(rng: random.Random, perturb: bool) -> str:
    """A 2-file, 4-user, t=3 descriptor derived from one of the two pinned
    corners: each file's subfiles relabelled and each delivery's rows
    mixed, which keeps it decodable; perturb then XORs a random vector into
    one delivery row, keeping the rows independent, which usually breaks
    decoding."""
    t = 3
    caches, deliveries = rng.choice(
        [
            (LOW_MEMORY_2X4_CACHES, LOW_MEMORY_2X4_DELIVERIES),
            (HIGH_MEMORY_2X4_CACHES, HIGH_MEMORY_2X4_DELIVERIES),
        ]
    )
    perms = [rng.sample(range(t), t) for _ in range(2)]

    def relabel(row: int) -> int:
        return sum(
            1 << (f * t + perms[f][j])
            for f in range(2)
            for j in range(t)
            if (row >> (f * t + j)) & 1
        )

    caches = tuple(tuple(map(relabel, rows)) for rows in caches)
    deliveries = [(d, list(map(relabel, rows))) for d, rows in deliveries]
    for _, rows in deliveries:
        if len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            rows[i] ^= rows[j]  # the same span, other rows
    if perturb:
        rows = rng.choice(deliveries)[1]
        while True:
            i, v = rng.randrange(len(rows)), rng.randrange(1, 1 << (2 * t))
            rows[i] ^= v
            if gf2.rank(rows) == len(rows):
                break
            rows[i] ^= v
    m = LinearSchemeMatrices(
        2, 4, t, caches, tuple((d, tuple(rows)) for d, rows in deliveries)
    )
    return export_descriptor(m, "random")


def descriptor_scheme(tmp_path, seed: int, perturb: bool):
    path = tmp_path / f"random-{seed}-{perturb}.desc"
    path.write_text(descriptor(random.Random(seed), perturb))
    return resolve_scheme(str(path))


def rebound(s, calls: Counter):
    """A copy of s, sharing its tables, with place, deliver and decode
    rebound to wrappers that count their calls in calls, the way a tracer
    wraps them.  s itself is left alone: a constructor may hand it out
    again (core.SCHEME_MEMO)."""
    s = dataclasses.replace(s)
    for attr in ("place", "deliver", "decode"):

        def wrapper(*args, fn=getattr(s, attr), attr=attr):
            calls[attr] += 1
            return fn(*args)

        object.__setattr__(s, attr, wrapper)
    return s


def agreement_params():
    """Every bundled token at width 1, and at width 2 where the sweep has at
    most 2^16 atoms, less the pinned calls that test_verifier already
    checks against the oracle; thm1 with more files than users at width 2,
    whose slot pads are then 2-bit columns; the plaintext-header control."""
    params = []
    for token in TOKENS:
        s = resolve_scheme(token)
        for width in (1, 2):
            if (token, width) in PINNED or atom_count(s, width) > 1 << 16:
                continue
            params.append(pytest.param(token, width, id=f"{token} w{width}"))
    params.append(pytest.param("thm1:3,2,0", 2, id="thm1:3,2,0 w2"))
    params.append(pytest.param("control", 1, id="plaintext-header"))
    return params


def resolve(token: str):
    if token == "control":
        return with_plaintext_demand_header(low_memory_private_scheme())
    return resolve_scheme(token)


@pytest.mark.parametrize("token, width", agreement_params())
def test_packed_path_matches_the_reference_oracle(token, width):
    s = resolve(token)
    assert sweep(s, width) == oracle(s, width)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("perturb", [False, True], ids=["intact", "perturbed"])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_descriptors_match_the_reference_oracle(tmp_path, seed, perturb, width):
    s = descriptor_scheme(tmp_path, seed, perturb)
    got = sweep(s, width)
    assert got == oracle(s, width)
    # these seeds' perturbations break decoding, so both outcomes are covered
    assert got["decodability"][0] is not perturb


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("perturb", [False, True], ids=["intact", "perturbed"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lifted_random_descriptors_match_the_reference_oracle(
    tmp_path, seed, perturb, width
):
    # the lift keeps privacy whatever the descriptor's decodability, so a
    # perturbed lift has its privacy proven and its decode failure enumerated
    s = lift_private(descriptor_scheme(tmp_path, seed, perturb))
    got = sweep(s, width)
    assert got == oracle(s, width)
    assert got["decodability"][0] is not perturb


def test_every_bundled_scheme_takes_the_packed_path(tmp_path):
    schemes = [resolve_scheme(token) for token in TOKENS]
    schemes.append(with_plaintext_demand_header(low_memory_private_scheme()))
    schemes += [
        descriptor_scheme(tmp_path, seed, p) for seed in SEEDS for p in (False, True)
    ]
    for s in schemes:
        calls = Counter()
        sweep(rebound(s, calls))
        assert not calls, s.name  # the sweep reads the tables only


def test_a_scheme_is_not_given_other_callables():
    s = low_memory_private_scheme()
    for attr in ("place", "deliver", "decode"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{attr}'"):
            dataclasses.replace(s, **{attr: getattr(s, attr)})


@pytest.mark.parametrize("token", ["example1", "thm1:3,2,0", "lowmem2x4"])
def test_rebound_callables_leave_the_sweep_unchanged(token):
    calls = Counter()
    s = rebound(resolve_scheme(token), calls)
    clean = resolve_scheme(token)
    assert clean is not s and not {"place", "deliver", "decode"} & set(vars(clean))
    assert sweep(s) == sweep(clean)
    assert not calls  # the sweep reads the tables only
    # simulate still runs the rebound callables
    demand = DemandVector(s.n_files, s.served_demands().members[-1])
    assert simulate_session(s, demand, 5).all_matched
    assert calls == {"place": 1, "deliver": 1, "decode": s.n_users}


@pytest.mark.parametrize("make", [low_memory_2x4_scheme, low_memory_private_scheme])
def test_corrupted_program_fails_on_the_packed_path(make):
    s = make()
    recipe = s.recipe
    target = (1, s.served_demands().members[-1][1])  # (user, demanded file)

    def corrupted(user, demand, key, header):
        rows = recipe(user, demand, key, header)
        if (user, demand) != target:
            return rows
        return (rows[0] ^ 1,) + rows[1:]  # input 0 toggled in row 0

    broken = with_tables(s, recipe=corrupted)
    got = sweep(broken)
    assert not got["decodability"][0]
    assert got == oracle(broken)


@pytest.mark.parametrize(
    "change",
    [lambda rows: rows[:-1], lambda rows: rows + (0,)],
    ids=["short", "long-with-a-zero-row"],
)
def test_recipe_of_the_wrong_length_fails_as_on_the_symbol_path(change):
    s = low_memory_2x4_scheme()
    recipe = s.recipe
    broken = with_tables(s, recipe=lambda *args: change(recipe(*args)))
    got = sweep(broken)
    assert not got["decodability"][0]
    assert got == oracle(broken)


def test_rows_past_their_inputs_raise_on_both_paths():
    s = low_memory_2x4_scheme()
    n_cols = s.n_files * s.subpacketization
    recipe, cache = s.recipe, s.cache
    # user 0 holds 1 cache symbol and the payload 4, so input 5 is past both
    broken = [
        with_tables(s, recipe=lambda *args: recipe(*args)[:-1] + (1 << 5,)),
        with_tables(s, cache=lambda user, key: cache(user, key)[:-1] + (1 << n_cols,)),
    ]
    store = FileStore.zero(s.n_files, s.subpacketization, 1)
    demand = DemandVector(s.n_files, s.served_demands().members[0])
    for b in broken:
        with pytest.raises(IndexError):
            sweep(b)
        with pytest.raises(IndexError):
            run_session(b, store, demand, (0,) * s.n_users, 0)


@pytest.mark.parametrize("table", ["cache", "delivery", "recipe"])
@pytest.mark.parametrize("make", [low_memory_2x4_scheme, low_memory_private_scheme])
def test_negative_columns_raise_on_both_paths(make, table):
    s = make()
    lookup = getattr(s, table)
    if table == "delivery":

        def negative(*args):
            rows, header = lookup(*args)
            return rows[:-1] + (-1,), header

    else:

        def negative(*args):
            return lookup(*args)[:-1] + (-1,)

    broken = with_tables(s, **{table: negative})
    store = FileStore.zero(s.n_files, s.subpacketization, 1)
    demand = DemandVector(s.n_files, s.served_demands().members[0])
    with pytest.raises(IndexError, match="negative column"):
        run_session(broken, store, demand, (0,) * s.n_users, 0)
    with pytest.raises(IndexError, match="negative column"):
        run_checks(broken)


def test_evaluate_matches_symbolwise_xor():
    rng = random.Random(5)
    # the inputs at each width, drawn apart so the rows are those drawn
    # when the width was random
    inputs = random.Random(6)
    for _ in range(300):
        n_inputs, drawn = rng.randint(1, 9), rng.randint(1, 3)
        rows = tuple(
            tuple(rng.randrange(n_inputs) for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(0, 6))
        )
        if rng.random() < 0.5:
            # a run of inputs, input start+i feeding rows i and i+gap of a
            # block
            start, gap = rng.randrange(n_inputs), rng.randint(1, 4)
            run = n_inputs - start
            rows += tuple(
                tuple(c for c in (start + i, start + i - gap) if start <= c < n_inputs)
                for i in range(run + gap)
            )
        forms = xor_rows(rows, [1 << c for c in range(n_inputs)])
        for width, x in [(drawn, rng.getrandbits(n_inputs * drawn))] + [
            (w, inputs.getrandbits(n_inputs * w)) for w in (1, 3, 64)
        ]:
            mask = (1 << width) - 1
            want = 0
            for r, cols in enumerate(rows):
                value = 0
                for c in cols:
                    value ^= (x >> (c * width)) & mask
                want |= value << (r * width)
            assert _evaluate(_images(forms, width), x) == want, (rows, width, x)


@pytest.mark.parametrize("width", [0, -1])
def test_width_below_one_is_refused_on_both_paths(width):
    s = basic_private_scheme(2, 2, 1)
    for scheme in (s, rebound(s, Counter())):
        with pytest.raises(ParameterError, match=f"at least 1, got {width}$"):
            run_checks(scheme, width)
        with pytest.raises(ParameterError, match=f"at least 1, got {width}$"):
            measure_rates(scheme, width)

