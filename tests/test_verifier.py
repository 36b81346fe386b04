from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import cachepriv
from cachepriv import gf2, lift, schemes, verifier
from cachepriv.cli import resolve_scheme
from cachepriv.core import (
    DemandSubset,
    DemandVector,
    FileStore,
    ParameterError,
    Privacy,
    SchemeError,
    SchemeInstance,
    cyclic_demand_set,
    pack_symbols,
)
from cachepriv.lift import basic_private_scheme, low_memory_private_scheme
from cachepriv.schemes import (
    high_memory_2x4_matrices,
    low_memory_2x4_matrices,
    memory_share,
    uncoded_baseline,
    with_plaintext_demand_header,
)
from cachepriv.search import compile_linear_scheme
from cachepriv.session import simulate_session
from cachepriv.verifier import (
    BUDGET_ENV_VAR,
    BudgetExceeded,
    JointDistribution,
    atom_count,
    check_conditional_invariance,
    check_decodability,
    check_privacy,
    measure_rates,
    resolve_budget,
    run_checks,
)
from oracles import (
    clear_constructors,
    iter_atoms,
    mi_from_pairs,
    reference_checks,
    with_tables,
)

EXPECTED_VERIFY = Path(__file__).resolve().parents[1] / "bench" / "expected_verify.json"


def test_joint_distribution_independent_pairs():
    pairs = [(l, r) for l in range(3) for r in range(4) for _ in range(2)]
    d = JointDistribution.from_pairs(pairs)
    assert d.total == 24
    assert d.first_violation() is None
    assert d.mutual_information_bits() == 0.0


def test_joint_distribution_detects_dependence():
    d = JointDistribution.from_pairs([(x, x) for x in range(4)])
    assert d.first_violation() is not None
    assert d.mutual_information_bits() == pytest.approx(2.0)


def test_joint_distribution_detects_missing_cell():
    # margins alone look balanced; the zero cell breaks the product identity
    pairs = [(0, 0), (1, 1), (0, 0), (1, 1)]
    d = JointDistribution.from_pairs(pairs)
    violation = d.first_violation()
    assert violation is not None
    left, right, count = violation
    assert count * d.total != d.left[left] * d.right[right]


def test_mutual_information_matches_entropy_route():
    rng = random.Random(31)
    for _ in range(20):
        pairs = [
            (rng.randrange(3), rng.randrange(4)) for _ in range(rng.randrange(5, 60))
        ]
        d = JointDistribution.from_pairs(pairs)
        assert d.mutual_information_bits() == pytest.approx(
            mi_from_pairs(pairs), abs=1e-9
        )


def test_atom_space_is_a_bijection():
    s = basic_private_scheme(3, 2, 0)
    seen = set()
    for store, demand, user_keys, server in iter_atoms(s, 1):
        seen.add((pack_symbols(store.values, 1)[0], demand.entries, user_keys, server))
    # the sweep counts each of the distinct atoms once
    cases = run_checks(s, decodability=False, users=(0,))["privacy[user 0]"].cases
    assert len(seen) == atom_count(s, 1) == cases == 2304


def recipe_changed(s, change):
    """s with each decode recipe's forms replaced by change(forms, user,
    demand, key, header)."""
    recipe = s.recipe
    return with_tables(s, recipe=lambda *args: change(recipe(*args), *args))


def perturbed_2x4(rng: random.Random) -> SchemeInstance:
    """The pinned low- or high-memory 2x4 matrices with a random vector
    XORed into one delivery row, the rows kept independent, as the bench
    perturbs its descriptors; decoding usually fails."""
    m = rng.choice([low_memory_2x4_matrices(), high_memory_2x4_matrices()])
    deliveries = list(m.deliveries)
    k = rng.randrange(len(deliveries))
    demand, rows = deliveries[k]
    changed = list(rows)
    while gf2.rank(changed) < len(rows) or changed == list(rows):
        changed = list(rows)
        changed[rng.randrange(len(rows))] ^= rng.randrange(1, 1 << 6)
    deliveries[k] = (demand, tuple(changed))
    m = m._replace(deliveries=tuple(deliveries))
    return compile_linear_scheme(m, cyclic_demand_set(2, 2), "perturbed")


def with_first_input(rows):
    """The first recipe form also reading the user's first input symbol: as
    a XOR, it drops that symbol when the form reads it already."""
    return (rows[0] ^ 1,) + rows[1:]


def decode_corrupted(s, when=lambda header: True):
    """s with the first decode recipe row of every user also reading the
    user's first input symbol, under the headers that `when` accepts."""
    return recipe_changed(
        s,
        lambda rows, user, demand, key, header: (
            with_first_input(rows) if when(header) else rows
        ),
    )


def counting_evaluations(monkeypatch) -> tuple[Counter, Counter]:
    """Per form tuple, the times the enumerator reads its per-bit images
    off the forms, and the nonzero packed inputs it evaluates it on from
    them (block bases and pads).  It clears the block-table memo first,
    since a warm entry reads no images."""
    verifier._block_table.cache_clear()
    images, evaluate = verifier._images, verifier._evaluate
    built, evaluated, forms_of = Counter(), Counter(), {}

    def counting_images(forms, width):
        built[forms] += 1
        result = images(forms, width)
        forms_of[id(result)] = forms
        return result

    def counting_evaluate(of_bits, x):
        evaluated[forms_of[id(of_bits)]] += x != 0
        return evaluate(of_bits, x)

    monkeypatch.setattr(verifier, "_images", counting_images)
    monkeypatch.setattr(verifier, "_evaluate", counting_evaluate)
    return built, evaluated


def read_forms(s, width, users, file=None) -> Counter:
    """The form sets one sweep of the enumerator reads for these users,
    each with the number of places that read it on nonzero pads.

    An atom reads one stacked form set: its user's cache forms, zero-padded
    to the longest cache, then the payload forms, and with a file (the
    sweep of a view, over the atoms whose user demands that file)
    zero-padded past the longest payload, then the file's unit forms.  A
    place is a distinct (pads, form set, discrete part of the observation)."""
    walk = list(verifier._configurations(s, width, False))
    pay_at = max(len(cache) for *_, caches, _, _ in walk for cache in caches)
    file_at = pay_at + max(len(sent) for *_, sent, _ in walk)
    t, servers = s.subpacketization, range(s.server_random_size(width))
    split = (s.split_server(server, width) for server in servers)
    pads_of = {(config, tuple(pads)) for config, pads in split}
    places = set()
    for wants, user_keys, config, header, caches, sent, _ in walk:
        for k in users:
            if file is not None and wants[k] != file:
                continue
            forms = caches[k] + (0,) * (pay_at - len(caches[k])) + sent
            if file is not None:
                forms += (0,) * (file_at - len(forms))
                forms += tuple(1 << c for c in range(file * t, (file + 1) * t))
            fixed = (len(caches[k]), user_keys[k], len(sent), header, wants[k])
            for at, pads in pads_of:
                if at == config:
                    places.add((pads, forms, fixed))
    counts = Counter({forms: 0 for _, forms, _ in places})
    counts.update(forms for pads, forms, _ in places if any(pads))
    return counts


def blocks_of(s, width) -> int:
    """How many blocks the enumerator splits the stores into: each block
    is the largest power of two of stores whose atoms stay within
    max(one store's atoms, _BLOCK_ATOMS)."""
    stores = 1 << (s.n_files * s.subpacketization * width)
    per_store = atom_count(s, width) // stores
    block = 1
    while block < stores and 2 * block * per_store <= verifier._BLOCK_ATOMS:
        block *= 2
    return stores // block


def test_decodability_counterexample_reporting(monkeypatch):
    s = decode_corrupted(low_memory_private_scheme())
    built, evaluated = counting_evaluations(monkeypatch)
    v = check_decodability(s)
    assert not v.passed
    ce = v.counterexample
    assert ce is not None and "decoded" in str(ce)
    assert 0 <= ce.user < 2
    assert ce.expected != ce.actual
    # the cases count the atoms up to the first failure, which is the atom
    # reported
    atoms = list(itertools.islice(iter_atoms(s, 1), v.cases))
    store, demand, user_keys, server = atoms[-1]
    assert (pack_symbols(store.values, 1)[0], demand.entries, user_keys, server) == (
        ce.store_index,
        ce.demand,
        ce.user_keys,
        ce.server_random,
    )
    # the proof finds that atom from the forms and evaluates nothing
    assert not built and not evaluated
    # an enumerated check reads each form set's images once; its 64 stores
    # fill one block, based at store 0, so no base needs evaluating, and
    # the form set is evaluated once per place reading it on nonzero pads
    control = with_plaintext_demand_header(low_memory_private_scheme())
    assert not check_privacy(control, 0).passed
    assert blocks_of(control, 1) == 1
    reads = read_forms(control, 1, [0])
    assert built == Counter(dict.fromkeys(reads, 1))
    assert evaluated == reads


def reading_the_other_slot(s):
    """s, a thm1 scheme with empty caches and two one-symbol payload slots,
    with each decode recipe also reading the slot the user's header does
    not name: the other user's file, or filler pads when both users demand
    the same file."""
    recipe = s.recipe

    def corrupted(user, demand, key, header):
        (row,) = recipe(user, demand, key, header)
        return (row | 0b11,)  # the form reads slot 0 or 1, and now both

    return with_tables(s, recipe=corrupted)


def verify_call_params():
    """One (scheme, width) per pinned `cachepriv verify` call."""
    params = []
    for call in json.loads(EXPECTED_VERIFY.read_text()):
        args = call["args"]
        width = int(args[args.index("--width") + 1]) if "--width" in args else 1
        params.append(pytest.param(resolve_scheme(args[0]), width, id=" ".join(args)))
    return params


ORACLE_CASES = verify_call_params() + [
    pytest.param(
        with_plaintext_demand_header(low_memory_private_scheme()),
        1,
        id="plaintext-header",
    ),
    pytest.param(
        decode_corrupted(low_memory_private_scheme()), 1, id="decode-corrupted"
    ),
    # thm1's header follows the slot configuration drawn from the server
    # randomness, so the first failure, and the cases counted up to it,
    # depend on the server randomness running innermost
    pytest.param(
        decode_corrupted(resolve_scheme("thm1:3,2,0"), lambda h: h[0] == 1),
        1,
        id="decode-corrupted-by-server-randomness",
    ),
] + [
    # under equal demands the decoded forms read pad columns, so a decode
    # runs on the pads packed above the store
    pytest.param(
        reading_the_other_slot(resolve_scheme("thm1:3,2,0")),
        width,
        id=f"decode-reads-pads-w{width}",
    )
    for width in (1, 2)
]


def summary(verdicts):
    """Verdicts in reference_checks' format."""
    return {
        label: (
            v.passed,
            v.cases,
            v.mi_bits,
            None if v.counterexample is None else str(v.counterexample),
        )
        for label, v in verdicts.items()
    }


def all_checks(s):
    """The users and the invariance flag of every check s admits."""
    private = s.privacy is Privacy.PRIVATE
    users = range(s.n_users) if private else ()
    return users, private and s.n_files == 2 and s.n_users == 2


@pytest.mark.parametrize("s, width", ORACLE_CASES)
def test_sweep_matches_the_reference_oracle(s, width):
    users, invariance = all_checks(s)
    got = run_checks(s, width, users=users, invariance=invariance)
    assert summary(got) == reference_checks(s, width, users, invariance)


FIRST_FAILURE_CASES = [
    pytest.param(
        perturbed_2x4(random.Random(seed)), width, id=f"perturbed-{seed}-w{width}"
    )
    for seed in range(6)
    for width in (1, 2)
] + [
    pytest.param(
        recipe_changed(
            resolve_scheme("dual"),
            lambda rows, user, demand, key, header: (
                rows[:-1] if (user, demand) == (1, 1) else rows
            ),
        ),
        1,
        id="short-recipe",
    ),
    # server values run a part's pads, then its configuration, then the
    # next part's: the first failure is at server randomness 40 or 16
    pytest.param(
        memory_share(
            resolve_scheme("thm1:3,2,0"),
            decode_corrupted(resolve_scheme("thm1:3,2,0"), lambda h: h[0] == 1),
            "1/2",
        ),
        1,
        id="second-part-by-configuration",
    ),
    pytest.param(
        memory_share(
            resolve_scheme("thm1:3,2,0"),
            reading_the_other_slot(resolve_scheme("thm1:3,2,0")),
            "1/2",
        ),
        1,
        id="second-part-reads-pads",
    ),
    # the first failing store is #256 (4,097 cases)
    pytest.param(decode_corrupted(resolve_scheme("dual")), 2, id="store-256-w2"),
    pytest.param(
        recipe_changed(
            resolve_scheme("example1"),
            lambda rows, user, demand, key, header: (
                with_first_input(rows) if (user, key) == (1, 1) else rows
            ),
        ),
        1,
        id="later-key-realization",
    ),
]


@pytest.mark.parametrize("s, width", FIRST_FAILURE_CASES)
def test_the_proof_finds_the_first_failing_atom(s, width):
    assert summary(run_checks(s, width)) == reference_checks(s, width)


def enumerate_checks(s, width=1, users=(), invariance=False):
    """Decodability from run_checks, which the proof always settles, and
    every other check from the exhaustive enumerator alone."""
    verdicts = run_checks(s, width)
    if users or invariance:
        verdicts.update(verifier._enumerate(s, width, tuple(users), invariance))
    return verdicts


@pytest.mark.parametrize("s, width", ORACLE_CASES)
def test_enumerator_matches_the_reference_oracle(s, width):
    # the proof settles every privacy and invariance check of the pinned
    # calls, so run_checks alone would not exercise the enumerator, its
    # fallback, on them
    users, invariance = all_checks(s)
    got = enumerate_checks(s, width, users, invariance)
    assert summary(got) == reference_checks(s, width, users, invariance)


def test_a_proven_run_evaluates_nothing(monkeypatch):
    control = with_plaintext_demand_header(low_memory_private_scheme())
    results = {}
    with monkeypatch.context() as patch:

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated forms")

        patch.setattr(verifier, "_images", refuse)
        verifier._block_table.cache_clear()  # a warm entry reads no images
        for param in verify_call_params():
            s, width = param.values
            users, invariance = all_checks(s)
            results[param.id] = run_checks(s, width, users=users, invariance=invariance)
        # the control's leak is left to the enumerator, which evaluates
        with pytest.raises(AssertionError, match="evaluated forms"):
            run_checks(control, users=(0, 1), invariance=True)
    for param in verify_call_params():
        s, width = param.values
        users, invariance = all_checks(s)
        got = run_checks(s, width, users=users, invariance=invariance)
        assert results[param.id] == got, param.id
    got = run_checks(control, users=(0, 1), invariance=True)
    assert summary(got) == reference_checks(control, 1, (0, 1), True)


def proven(s, width=1, decodability=True, users=(), invariance=False):
    """The labels of the checks the configuration proof settles."""
    return set(verifier._prove(s, width, decodability, tuple(users), invariance))


def test_the_proof_settles_every_pinned_call_and_no_leak():
    for param in verify_call_params():
        s, width = param.values
        users, invariance = all_checks(s)
        labels = run_checks(s, width, users=users, invariance=invariance)
        assert proven(s, width, True, users, invariance) == set(labels), param.id
    # the proof settles decodability, failed or not, and only enumeration
    # reports a privacy or invariance failure
    for s in (
        with_plaintext_demand_header(low_memory_private_scheme()),
        decode_corrupted(low_memory_private_scheme()),
        decode_corrupted(with_plaintext_demand_header(low_memory_private_scheme())),
    ):
        got = run_checks(s, users=(0, 1), invariance=True)
        assert proven(s, 1, True, (0, 1), True) == {
            label for label, v in got.items() if v.passed or label == "decodability"
        }


def coincidence_scheme() -> SchemeInstance:
    """N=K=2, t=1, one-valued keys, empty caches and one server part of 3
    configurations with no pads, so user 0 sees only the payload.  When
    user 1 demands file 0 the payload is uniform on {0} under
    configuration 0 and on all of GF(2)^2 otherwise; when user 1 demands
    file 1 it is uniform on one of the three lines.  Both mixtures give
    the same distribution at width 1 and different ones at width 2."""
    payloads = {
        0: ((0, 0), (0b01, 0b10), (0b01, 0b10)),
        1: ((0b01, 0), (0, 0b01), (0b01, 0b01)),
    }
    return SchemeInstance(
        name="coincidence",
        n_files=2,
        n_users=2,
        memory=Fraction(0),
        rate=Fraction(2),
        subpacketization=1,
        key_sizes=(1, 1),
        header_sizes=(),
        server=((3, 0),),
        cache=lambda user, key: (),
        delivery=lambda demand, keys, configs: (payloads[demand[1]][configs[0]], ()),
        recipe=lambda user, demand, key, header: (0b01,),
        privacy=Privacy.PRIVATE,
    )


@pytest.mark.parametrize("width, passed, cases", [(1, True, 48), (2, False, 192)])
def test_unequal_multisets_fall_back_to_enumeration(width, passed, cases):
    s = coincidence_scheme()
    # the multisets differ at every width, so the proof leaves user 0 open
    assert "privacy[user 0]" not in proven(s, width, users=(0,))
    got = run_checks(s, width, users=(0,))
    assert summary(got) == reference_checks(s, width, (0,))
    v = got["privacy[user 0]"]
    assert (v.passed, v.cases) == (passed, cases)
    assert (v.counterexample is None) is passed


def test_mutual_information_does_not_depend_on_the_cell_order(monkeypatch):
    # the coincidence scheme's privacy table at width 2: summed left to
    # right, its 52 terms give other floats in other orders
    built = []

    class Recorded(JointDistribution):
        def __init__(self, *fields):
            super().__init__(*fields)
            built.append(self)

    monkeypatch.setattr(verifier, "JointDistribution", Recorded)
    verifier._enumerate(coincidence_scheme(), 2, (0,), False)
    (d,) = built
    cells, rng, plain = list(d.joint.items()), random.Random(16), set()
    for _ in range(20):
        rng.shuffle(cells)
        shuffled = JointDistribution(d.total, Counter(dict(cells)), d.left, d.right)
        assert shuffled.mutual_information_bits() == 0.18003653257726562
        mi = 0.0  # a plain sum, not sum(), which compensates since 3.12
        for (l, r), c in cells:
            mi += c / d.total * math.log2(c * d.total / (d.left[l] * d.right[r]))
        plain.add(mi)
    assert len(plain) > 1


def uneven_scheme(longer_cache: bool) -> SchemeInstance:
    """N=K=2, t=1, two-valued keys and one server part of 2 configurations
    with one pad.  Either a user's cache is file 0 under key 0 and both
    files under key 1, and the payload is f_d0 ^ f_d1 (0 when the demands
    agree); or the cache is file 0 under both keys, and the payload is that
    symbol under configuration 0 and that symbol then the pad under 1.  So
    a shorter cache or payload padded with a zero symbol has the value of a
    longer one, and an int that lost a bit count, or let a longer field run
    into the next, would merge observations the tuples keep apart."""
    cache = {0: (0b01,), 1: (0b01, 0b10) if longer_cache else (0b01,)}

    def delivery(demand, keys, configs):
        both = (1 << demand[0]) ^ (1 << demand[1])
        return ((both,) if longer_cache or configs[0] == 0 else (both, 0b100)), ()

    return SchemeInstance(
        name="uneven",
        n_files=2,
        n_users=2,
        memory=Fraction(1),
        rate=Fraction(1),
        subpacketization=1,
        key_sizes=(2, 2),
        header_sizes=(),
        server=((2, 1),),
        cache=lambda user, key: cache[key],
        delivery=delivery,
        recipe=lambda user, demand, key, header: (0b01,),
        privacy=Privacy.PRIVATE,
    )


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize(
    "longer_cache", [True, False], ids=["cache-by-key", "payload-by-configuration"]
)
def test_observation_ints_stay_injective_over_uneven_bit_counts(longer_cache, width):
    s = uneven_scheme(longer_cache)
    got = summary(verifier._enumerate(s, width, (0, 1), True))
    want = reference_checks(s, width, (0, 1), True)
    assert list(got) == ["privacy[user 0]", "privacy[user 1]", "conditional-invariance"]
    assert got == {label: want[label] for label in got}
    # each check leaks, with less than the one bit a plaintext demand gives
    assert all(not passed and 0 < mi < 1 for passed, _, mi, _ in got.values())


def test_a_repeated_user_is_checked_once():
    # proven (example1) and enumerated (the control's leak) alike
    for s in (
        low_memory_private_scheme(),
        with_plaintext_demand_header(low_memory_private_scheme()),
    ):
        once = run_checks(s, decodability=False, users=(1,))
        assert run_checks(s, decodability=False, users=(1, 1)) == once
        assert once["privacy[user 1]"].cases == atom_count(s, 1)


def column_space(forms):
    """The reduced echelon basis of the columns of the map whose output r
    has form forms[r]: its image, as the proof once keyed it."""
    columns = {}
    for r, form in enumerate(forms):
        for c in range(form.bit_length()):
            if form >> c & 1:
                columns[c] = columns.get(c, 0) | 1 << r
    return gf2.rref(columns.values())


def test_the_image_partitions_forms_as_the_column_space_does():
    # few inputs for many outputs, so that distinct forms tuples share images
    rng = random.Random("image")
    for n_outputs in range(7):
        drawn = {
            tuple(rng.getrandbits(rng.randint(0, 4)) for _ in range(n_outputs))
            for _ in range(300)
        }
        keys = [(verifier._image(f), column_space(f)) for f in drawn]
        assert len({new for new, _ in keys}) == len({old for _, old in keys})
        assert len(set(keys)) == len({old for _, old in keys})
        assert n_outputs < 2 or len(set(keys)) < len(drawn)


def marked_reduction(forms):
    """The annihilator as _image once found it: the reduced echelon basis
    of every form marked with bit r below it, less the rows with form bits."""
    n = len(forms)
    marked = [form << n | 1 << r for r, form in enumerate(forms)]
    return tuple(sorted(r for r in gf2.reduced_basis(marked).values() if r >> n == 0))


def bundled_cases():
    """(id, scheme) per token of the pinned verify calls, each private one
    followed by its plaintext-header control."""
    cases = []
    for call in json.loads(EXPECTED_VERIFY.read_text()):
        token = call["args"][0]
        s = resolve_scheme(token)
        cases.append((token, s))
        if s.privacy is Privacy.PRIVATE:
            cases.append((f"control:{token}", with_plaintext_demand_header(s)))
    return cases


def test_the_image_matches_the_marked_forms_reduction(monkeypatch):
    rng = random.Random("annihilator")
    drawn = []
    for _ in range(3000):
        pool = [0] + [rng.getrandbits(rng.randint(1, 12)) for _ in range(2)]
        drawn.append(
            tuple(
                rng.choice(pool) if rng.random() < 0.4 else rng.getrandbits(12)
                for _ in range(rng.randint(0, 9))
            )
        )
    assert any(0 in forms for forms in drawn)
    assert any(len(set(forms)) < len(forms) for forms in drawn)
    # and every view tuple the proof reads for the bundled tokens
    image, read = verifier._image, set()
    monkeypatch.setattr(
        verifier, "_image", lambda forms: read.add(forms) or image(forms)
    )
    for _, s in bundled_cases():
        users, invariance = all_checks(s)
        verifier._prove(s, 1, False, tuple(users), invariance)
    assert len(read) > 50  # 91 distinct tuples
    for forms in drawn + sorted(read):
        want = marked_reduction(forms)
        assert image.__wrapped__(forms) == want and image(forms) == want, forms


def clear_memos():
    verifier._image.cache_clear()
    verifier._block_table.cache_clear()


def every_check(s, width):
    """run_checks with every check s admits: per label, (passed, cases,
    str(counterexample), repr(mi_bits))."""
    users, invariance = all_checks(s)
    got = run_checks(s, width, users=users, invariance=invariance)
    return {
        label: (v.passed, v.cases, str(v.counterexample), repr(v.mi_bits))
        for label, v in got.items()
    }


def test_the_memos_never_change_a_result(monkeypatch):
    cases = bundled_cases()
    # width 2 too where it has at most 2^16 atoms
    widths = {
        name: (1, 2) if atom_count(s, 2) <= 1 << 16 else (1,) for name, s in cases
    }
    cold = {}
    for name, s in cases:
        for width in widths[name]:
            clear_memos()
            cold[name, width] = every_check(s, width)
    assert sum(len(w) for w in widths.values()) > len(cases)
    # warm, then interleaved (width 1, 2, 1 per scheme) with the stores
    # split into blocks three ways, none clearing the memos
    for name, s in cases:
        assert every_check(s, 1) == cold[name, 1], name
    for block_atoms in (verifier._BLOCK_ATOMS, 1, 1 << 62):
        monkeypatch.setattr(verifier, "_BLOCK_ATOMS", block_atoms)
        for name, s in cases:
            for width in (1, 2, 1) if 2 in widths[name] else (1,):
                assert every_check(s, width) == cold[name, width], (name, width)


def test_the_public_checks_read_each_form_sets_images_once(monkeypatch):
    clear_memos()
    built, images = Counter(), verifier._images
    monkeypatch.setattr(
        verifier,
        "_images",
        lambda forms, width: built.update([(forms, width)]) or images(forms, width),
    )
    # a fresh instance, as the bench's control operation builds each time;
    # three of its four checks enumerate, reading the form sets of one
    # privacy sweep per user and of the first invariance sweep, (user 0,
    # file 0), whose tables already differ
    control = with_plaintext_demand_header(low_memory_private_scheme())
    check_decodability(control)
    for k in range(control.n_users):
        check_privacy(control, k)
    check_conditional_invariance(control)
    read = {(forms, 1) for k in (0, 1) for forms in read_forms(control, 1, [k])}
    read.update((forms, 1) for forms in read_forms(control, 1, [0], 0))
    assert built == Counter(dict.fromkeys(read, 1))
    assert len(read) == 20


@pytest.mark.parametrize(
    "memo, key",
    [
        (verifier._image, lambda i: ((i,),)),
        (verifier._block_table, lambda i: ((i,), 1, 0)),
    ],
    ids=["image", "block-table"],
)
def test_the_memos_are_bounded(memo, key):
    memo.cache_clear()
    bound = memo.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 5):
        memo(*key(i))
    info = memo.cache_info()
    assert (info.misses, info.currsize) == (bound + 5, bound)


def lanes(forms, symbols):
    """Each form applied to the symbols: the XOR of the symbols whose
    columns it names."""
    out = []
    for form in forms:
        value = 0
        for c, symbol in enumerate(symbols):
            if (form >> c) & 1:
                value ^= symbol
        out.append(value)
    return tuple(out)


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize(
    "s",
    [
        pytest.param(resolve_scheme(token), id=token)
        for token in (
            "example1",
            "thm1:3,2,0",
            "thm1:2,3,1",
            "share:1/4:thm1:2,2,0:thm1:2,2,2",
            "lowmem2x4",
        )
    ]
    + [
        pytest.param(
            decode_corrupted(low_memory_private_scheme()), id="decode-corrupted"
        ),
    ],
)
def test_forms_predict_place_deliver_and_decode(s, width):
    forms = {
        (wants, keys, config): rest
        for wants, keys, config, *rest in verifier._configurations(s, width, True)
    }
    configs = math.prod(n for n, _ in s.server)
    assert len(forms) == len(s.served_demands().members) * s.key_space_size * configs
    rng = random.Random(f"{s.name}:{width}")
    demands = s.served_demands().members
    for _ in range(40):
        store = FileStore.random(s.n_files, s.subpacketization, width, rng)
        wants = rng.choice(demands)
        user_keys = tuple(rng.randrange(size) for size in s.key_sizes)
        server = rng.randrange(s.server_random_size(width))
        config, pads = s.split_server(server, width)
        header, caches, sent, decoded = forms[wants, user_keys, config]
        symbols = store.values + tuple(pads)
        placed = s.place(user_keys, store)
        payload, sent_header = s.deliver(
            store, DemandVector(s.n_files, wants), user_keys, server
        )
        assert list(placed) == [lanes(f, symbols) for f in caches]
        assert (payload, sent_header) == (lanes(sent, symbols), header)
        for user, forms_of_user in enumerate(decoded):
            got = s.decode(
                user, wants[user], user_keys[user], sent_header, placed[user], payload
            )
            assert got == lanes(forms_of_user, symbols)


def test_the_proof_walk_builds_no_symbol_path_memo():
    # the walk reads each of the 576 delivery entries once, with no memo
    # past it; a simulated round fills the symbol path's memo.  A fresh
    # instance, as an earlier round would have filled a memoised one's
    clear_constructors()
    s = resolve_scheme("share:1/2:thm1:3,2,0:thm1:3,2,3")
    configs = math.prod(n for n, _ in s.server)
    assert s.n_served() * s.key_space_size * configs == 576
    verdicts = run_checks(s, users=range(s.n_users))
    assert {label: (v.passed, v.cases, v.mi_bits) for label, v in verdicts.items()} == {
        "decodability": (True, 147456, None),
        "privacy[user 0]": (True, 147456, 0.0),
        "privacy[user 1]": (True, 147456, 0.0),
    }
    assert "columns" not in vars(s)
    simulate_session(s, DemandVector(3, (2, 0)), seed=1)
    assert s.columns["delivery"].cache_info().currsize == 1


def counting(table, calls):
    """table with each call's arguments counted in calls."""
    return lambda *args: calls.update([args]) or table(*args)


def test_the_proof_walk_reads_each_recipe_entry_once():
    # thm1:4,3,0 walks 64 demands x 27 key realizations x 6 slot ranks, and
    # reads 3 recipes in each: 31,104 reads of 972 distinct entries
    s = resolve_scheme("thm1:4,3,0")
    configs = math.prod(n for n, _ in s.server)
    assert s.n_served() * s.key_space_size * configs * s.n_users == 31104
    calls = Counter()
    s = with_tables(s, recipe=counting(s.recipe, calls))
    assert run_checks(s)["decodability"].passed
    assert len(calls) == 972
    assert set(calls.values()) == {1}


def test_a_share_reads_each_part_delivery_once():
    # the 576 configurations read each part's delivery table, 72 distinct
    # entries per part
    parts = [resolve_scheme(token) for token in ("thm1:3,2,0", "thm1:3,2,3")]
    calls = [Counter(), Counter()]
    a, b = (
        with_tables(part, delivery=counting(part.delivery, counts))
        for part, counts in zip(parts, calls)
    )
    s = memory_share(a, b, Fraction(1, 2))
    configs = math.prod(n for n, _ in s.server)
    assert s.n_served() * s.key_space_size * configs == 576
    assert all(v.passed for v in run_checks(s, users=range(s.n_users)).values())
    for counts in calls:
        assert len(counts) == 72
        assert set(counts.values()) == {1}


def test_a_share_keeps_one_header_object_per_header_value():
    # each configuration's header joins its parts' headers, and the proof
    # walk's count tables keep the header of every cell they count
    s = resolve_scheme("share:1/2:thm1:3,2,0:thm1:3,2,3")
    assert all(v.passed for v in run_checks(s, users=range(s.n_users)).values())
    headers = [header for *_, header, _, _, _ in verifier._configurations(s, 1, True)]
    assert len(headers) == 576
    assert len({id(h) for h in headers}) == len(set(headers)) == 16


def test_a_share_narrows_each_distinct_part_entry_once(monkeypatch):
    # the 576 configurations and their recipes read 20 distinct part
    # entries (cache, delivery or recipe forms of one part): each is
    # narrowed once, not once per read
    narrowed = Counter()
    narrow = schemes._narrow

    def counting(rows, group, start):
        narrowed[rows, group, tuple(start)] += 1
        return narrow(rows, group, start)

    monkeypatch.setattr(schemes, "_narrow", counting)
    clear_constructors()  # a fresh share, its narrowing memos empty
    s = resolve_scheme("share:1/2:thm1:3,2,0:thm1:3,2,3")
    assert all(v.passed for v in run_checks(s, users=range(s.n_users)).values())
    assert len(narrowed) == 20
    assert set(narrowed.values()) == {1}


def test_thm1_derives_each_slot_order_once(monkeypatch):
    # thm1:4,3,0 walks 64 demands x 27 key realizations x 6 slot ranks;
    # the slots are derived once per (demand, rank), and only the header
    # is computed per key realization
    derived = Counter()
    assign = lift._slot_assignment

    def counting(demand, rank, k):
        derived[demand, rank] += 1
        return assign(demand, rank, k)

    monkeypatch.setattr(lift, "_slot_assignment", counting)
    clear_constructors()  # a fresh scheme, its slot memo empty
    s = resolve_scheme("thm1:4,3,0")
    assert all(v.passed for v in run_checks(s, users=range(3)).values())
    demands = itertools.product(range(4), repeat=3)
    assert derived == Counter(itertools.product(demands, range(6)))


def test_a_k3_thm1_control_fails_decoding_at_the_pinned_atom():
    # the recipes read a wrong slot under one header value only, so the
    # first failure depends on how the header mixes all three keys
    s = decode_corrupted(resolve_scheme("thm1:4,3,0"), lambda h: h == (2, 0, 1))
    verdicts = run_checks(s, users=range(3))
    assert summary(verdicts) == {
        "decodability": (
            False,
            346,
            None,
            "user 0 under demand (0, 0, 0) (store #0, keys (1, 2, 0), server "
            "randomness 9): decoded (1,), wanted (0,)",
        ),
        **{f"privacy[user {k}]": (True, 1327104, 0.0, None) for k in range(3)},
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda: resolve_scheme("example1"),
        lambda: resolve_scheme("dual"),
        lambda: with_plaintext_demand_header(low_memory_private_scheme()),
        lambda: decode_corrupted(low_memory_private_scheme()),
    ],
    ids=["example1", "dual", "control", "decode-corrupted"],
)
def test_the_public_checks_give_the_verdicts_of_one_run(make):
    # each public check is its own run; asked one at a time they must say
    # what one run asking every check says
    s = make()
    users = range(s.n_users)
    together = run_checks(s, users=users, invariance=True)
    alone = {"decodability": check_decodability(s)}
    for k in users:
        alone[f"privacy[user {k}]"] = check_privacy(s, k)
    alone["conditional-invariance"] = check_conditional_invariance(s)

    def fields(verdicts):
        return {
            label: (v.passed, v.cases, str(v.counterexample), v.mi_bits)
            for label, v in verdicts.items()
        }

    assert fields(alone) == fields(together)


@pytest.mark.parametrize("token", ["example1", "thm1:3,2,0"])
def test_each_cache_is_evaluated_on_bits_and_block_bases(monkeypatch, token):
    s = resolve_scheme(token)
    built, evaluated = counting_evaluations(monkeypatch)
    verifier._enumerate(s, 2, tuple(range(s.n_users)), False)
    blocks = blocks_of(s, 2)
    # 16 blocks of 256 stores, and 32 blocks of 2 stores
    assert blocks == {"example1": 16, "thm1:3,2,0": 32}[token]
    reads = read_forms(s, 2, range(s.n_users))
    assert built == Counter(dict.fromkeys(reads, 1))
    for forms, on_pads in reads.items():
        # its images once, then its value on each block base but store 0
        # and on the nonzero pads of each place reading it, however many
        # stores each block holds
        assert evaluated[forms] == blocks - 1 + on_pads


def test_invariance_stops_at_the_first_differing_pair(monkeypatch):
    control = with_plaintext_demand_header(low_memory_private_scheme())
    tables = []
    view_tables = verifier._view_tables
    monkeypatch.setattr(
        verifier, "_view_tables", lambda: tables.append(view_tables()) or tables[-1]
    )
    v = verifier._enumerate(control, 1, (), True)["conditional-invariance"]
    assert not v.passed and v.counterexample.startswith("user 0 demanding 0:")
    (views,) = tables
    # pair (0, 0) counts user 0's views of the demands (0, 0) and (0, 1),
    # 256 atoms each: a quarter of the 2 x 1,024 atoms of every pair
    counted = {key: sum(table.values()) for key, table in views.items() if table}
    assert counted == {(0, 0, 0): 256, (0, 0, 1): 256}


def test_wrong_cache_size_raises_before_the_first_atom(monkeypatch):
    s = low_memory_private_scheme()
    cache = s.cache

    def late_oversized(user, key):
        rows = cache(user, key)
        return rows + rows[:1] if (user, key) == (1, 1) else rows

    built, evaluated = counting_evaluations(monkeypatch)
    with pytest.raises(SchemeError, match=r"cache holds 2 bits, declared M\*F = 1$"):
        check_decodability(with_tables(s, cache=late_oversized))
    # the sizes are checked as the configuration walk looks the cache
    # tables up, before anything is evaluated
    assert not built and not evaluated
    # one key alphabet per user is what makes one cache per user, and a
    # scheme is built only with one
    with pytest.raises(ValueError, match="one key alphabet per user"):
        replace(s, key_sizes=(2,))


def test_invariance_counterexample_does_not_depend_on_the_hash_seed():
    script = (
        "from cachepriv.lift import low_memory_private_scheme\n"
        "from cachepriv.schemes import with_plaintext_demand_header\n"
        "from cachepriv.verifier import check_conditional_invariance\n"
        "s = with_plaintext_demand_header(low_memory_private_scheme())\n"
        "print(check_conditional_invariance(s).counterexample)\n"
    )
    src = str(Path(cachepriv.__file__).resolve().parents[1])
    texts = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        texts.append(run.stdout)
    assert "first differing cell" in texts[0]
    assert texts[0] == texts[1]


def test_decodability_enforces_declared_sizes():
    s = low_memory_private_scheme()
    with pytest.raises(SchemeError):
        check_decodability(replace(s, rate=s.rate + 1))
    with pytest.raises(SchemeError):
        check_decodability(replace(s, memory=Fraction(1)))


def test_check_privacy_requires_private_scheme():
    with pytest.raises(ParameterError):
        check_privacy(uncoded_baseline(2, 2, 1), 0)
    with pytest.raises(ParameterError):
        check_privacy(low_memory_private_scheme(), 5)


def test_privacy_verdicts_on_known_schemes():
    s = low_memory_private_scheme()
    for user in range(2):
        v = check_privacy(s, user)
        assert v.passed and v.cases == 1024
        assert v.mi_bits == 0.0
    ctrl = with_plaintext_demand_header(low_memory_private_scheme())
    v = check_privacy(ctrl, 1)
    assert not v.passed
    assert v.mi_bits == pytest.approx(1.0, abs=1e-12)
    assert "cell" in str(v.counterexample)


@pytest.mark.parametrize(
    "s",
    [
        pytest.param(resolve_scheme(token), id=token)
        for token in (
            "example1",
            "dual",
            "thm1:3,2,0",
            "thm1:2,3,1",
            "share:1/4:thm1:2,2,0:thm1:2,2,2",
        )
    ]
    + [
        pytest.param(
            with_plaintext_demand_header(low_memory_private_scheme()),
            id="plaintext-header",
        ),
        pytest.param(
            decode_corrupted(low_memory_private_scheme()), id="decode-corrupted"
        ),
    ],
)
def test_one_sweep_matches_separate_checks(s):
    # decodability's case count must still stop at its first failure when
    # the privacy and invariance checks share the run
    users = range(s.n_users)
    invariance = s.n_files == 2 and s.n_users == 2
    together = run_checks(s, users=users, invariance=invariance)
    separate = {"decodability": check_decodability(s)}
    for k in users:
        separate[f"privacy[user {k}]"] = check_privacy(s, k)
    if invariance:
        separate["conditional-invariance"] = check_conditional_invariance(s)
    assert list(together) == list(separate)
    for label, v in separate.items():
        w = together[label]
        assert (w.passed, w.cases, w.mi_bits) == (v.passed, v.cases, v.mi_bits)
        assert str(w.counterexample) == str(v.counterexample)


def test_wider_symbols_spot_check():
    s = basic_private_scheme(2, 3, 1)
    assert check_decodability(s, width=2).passed
    assert check_privacy(s, 0, width=2).passed
    lifted = low_memory_private_scheme()
    assert check_decodability(lifted, width=2).passed
    assert check_privacy(lifted, 0, width=2).passed


def test_budget_enforcement():
    s = low_memory_private_scheme()  # needs 1024 atoms
    with pytest.raises(BudgetExceeded) as err:
        check_decodability(s, budget=1023)
    assert err.value.required == 1024
    assert err.value.budget == 1023
    assert check_decodability(s, budget=1024).passed


def test_budget_refusal_prints_counts_past_2_64_as_a_bound():
    for required, needs in [
        (2**64 - 1, "18446744073709551615"),
        (2**64, "more than 2^63"),
        (2**64 + 1, "more than 2^64"),
        (3 << 5000, "more than 2^5001"),
    ]:
        err = BudgetExceeded(required, 10)
        assert str(err) == (
            f"enumeration needs {needs} atoms, budget is 10 "
            f"(override with {BUDGET_ENV_VAR})"
        )
        assert err.required == required


@pytest.mark.parametrize(
    "token, width, budget",
    [
        ("thm1:2,2,0", 31, None),  # 2^64 atoms: counted, and printed as a bound
        ("thm1:2,2,0", 32, None),  # 2^66 atoms: refused from the exponent
        ("thm1:2,2,0", 40, (1 << 81) - 1),  # 2^82 atoms, past 81 budget bits
        ("thm1:2,2,0", 40, 1 << 81),  # 82 budget bits: counted, then refused
        ("thm1:3,2,0", 30, None),  # pads and configurations count too
        ("share:1/2:thm1:3,2,0:thm1:3,2,3", 9, 1 << 64),
    ],
)
def test_a_refusal_from_the_exponent_reads_as_the_count_would(
    monkeypatch, token, width, budget
):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    s = resolve_scheme(token)
    limit = resolve_budget(budget)
    total = atom_count(s, width)
    assert total > limit
    with pytest.raises(BudgetExceeded) as err:
        run_checks(s, width, budget)
    assert str(err.value) == str(BudgetExceeded(total, limit))
    assert err.value.required in (None, total)
    assert (err.value.required is None) == (
        total > 1 << 64 and (total - 1).bit_length() > limit.bit_length()
    )


def test_budget_environment_variable(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    assert resolve_budget() == 10
    with pytest.raises(BudgetExceeded):
        check_decodability(low_memory_private_scheme())
    # an explicit argument overrides the environment
    assert resolve_budget(5000) == 5000
    assert check_decodability(low_memory_private_scheme(), budget=5000).passed


def test_budget_must_be_a_non_negative_integer(monkeypatch):
    with pytest.raises(ParameterError, match="^budget must be non-negative, got -1$"):
        resolve_budget(-1)
    assert resolve_budget(0) == 0
    for bad in ("abc", "-1", "", "1e3"):
        monkeypatch.setenv(BUDGET_ENV_VAR, bad)
        with pytest.raises(ParameterError, match=f"^{BUDGET_ENV_VAR} must be"):
            resolve_budget()
        # an explicit budget does not read the environment
        assert resolve_budget(7) == 7


def test_conditional_invariance_scope():
    with pytest.raises(ParameterError):
        check_conditional_invariance(uncoded_baseline(2, 2, 1))
    with pytest.raises(ParameterError):
        check_conditional_invariance(basic_private_scheme(2, 3, 1))


def test_conditional_invariance_verdicts():
    assert check_conditional_invariance(low_memory_private_scheme()).passed
    v = check_conditional_invariance(
        with_plaintext_demand_header(low_memory_private_scheme())
    )
    assert not v.passed
    assert v.mi_bits == pytest.approx(1.0, abs=1e-12)


def test_invariance_compares_raw_counts_on_a_partial_served_set():
    # demand (0, 1) is not served, so user 0 demanding 0 meets only the
    # other demand 0, and its counts differ from the empty table of demand 1;
    # the product identity holds with one table empty, so a test of it would
    # pass this pair and report user 0 demanding 1 instead
    control = with_plaintext_demand_header(low_memory_private_scheme())
    served = DemandSubset(2, 2, ((0, 0), (1, 0), (1, 1)), "partial")
    s = replace(control, served=served)
    v = run_checks(s, decodability=False, invariance=True)["conditional-invariance"]
    assert (v.passed, v.cases, v.mi_bits) == (False, 768, 0.0)
    assert v.counterexample == (
        "user 0 demanding 0: view counts shift with the other demand (first "
        "differing cell ((0, 1, 0, 0, 4, (0, 0, 0, 0), 0), (0, 3)): seen 2 times "
        "when the other user demands 0, 0 when 1)"
    )


def test_measure_rates():
    s = basic_private_scheme(3, 2, 0)
    assert measure_rates(s) == (Fraction(0), Fraction(2), 2)
    from cachepriv.lift import high_memory_private_scheme

    share = memory_share(
        low_memory_private_scheme(), high_memory_private_scheme(), Fraction(1, 3)
    )
    assert measure_rates(share) == (Fraction(1), Fraction(2, 3), 4)


def test_measure_rates_rejects_unequal_caches():
    s = low_memory_private_scheme()
    cache = s.cache

    def lopsided(user, key):
        rows = cache(user, key)
        return rows + rows if user == 0 else rows

    with pytest.raises(SchemeError, match="unequal cache sizes"):
        measure_rates(with_tables(s, cache=lopsided))
