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
from cachepriv import verifier
from cachepriv.cli import resolve_scheme
from cachepriv.core import (
    ColumnProgram,
    DemandVector,
    FileStore,
    ParameterError,
    Privacy,
    SchemeError,
    SchemeInstance,
)
from cachepriv.lift import basic_private_scheme, low_memory_private_scheme
from cachepriv.schemes import (
    memory_share,
    uncoded_baseline,
    with_plaintext_demand_header,
)
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
from oracles import iter_atoms, mi_from_pairs, reference_checks, with_tables

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
        seen.add((store.index(), demand.entries, user_keys, server))
    # the sweep counts each of the distinct atoms once
    cases = run_checks(s, decodability=False, users=(0,))["privacy[user 0]"].cases
    assert len(seen) == atom_count(s, 1) == cases == 2304


def decode_corrupted(s, when=lambda header: True):
    """s with the first decode recipe row of every user also reading the
    user's first input symbol, under the headers that `when` accepts."""
    recipe = s.program.recipe

    def corrupted(user, demand, key, header):
        rows = recipe(user, demand, key, header)
        return (rows[0] + (0,),) + rows[1:] if when(header) else rows

    return with_tables(s, recipe=corrupted)


def counting_placements(monkeypatch) -> Counter:
    """Per store index, the user caches run_checks computes for it."""
    apply = verifier._apply
    calls = Counter()

    def counting(ops, index):
        calls[index] += 1
        return apply(ops, index)

    monkeypatch.setattr(verifier, "_apply", counting)
    return calls


def placements_per_store(s) -> int:
    """One cache per (user, key): a cache depends on nothing else."""
    return sum(s.key_sizes)


def test_decodability_counterexample_reporting(monkeypatch):
    s = decode_corrupted(low_memory_private_scheme())
    placed = counting_placements(monkeypatch)
    v = check_decodability(s)
    assert not v.passed
    ce = v.counterexample
    assert ce is not None and "decoded" in str(ce)
    assert 0 <= ce.user < 2
    assert ce.expected != ce.actual
    # the sweep stops at the first failure, which is the atom it reports
    atoms = list(itertools.islice(iter_atoms(s, 1), v.cases))
    store, demand, user_keys, server = atoms[-1]
    assert (store.index(), demand.entries, user_keys, server) == (
        ce.store_index,
        ce.demand,
        ce.user_keys,
        ce.server_random,
    )
    # each store it reached is placed once per (user, key)
    stores = {store.index() for store, *_ in atoms}
    assert placed == {index: placements_per_store(s) for index in stores}


def reading_the_other_slot(s):
    """s, a thm1 scheme with empty caches and two one-symbol payload slots,
    with each decode recipe also reading the slot the user's header does
    not name: the other user's file, or filler pads when both users demand
    the same file."""
    recipe = s.program.recipe

    def corrupted(user, demand, key, header):
        (row,) = recipe(user, demand, key, header)
        return (row + (1 - row[0],),)

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


def enumerate_checks(s, width=1, users=(), invariance=False):
    """The exhaustive enumerator alone, decodability included."""
    return verifier._enumerate(s, width, True, tuple(users), invariance)


@pytest.mark.parametrize("s, width", ORACLE_CASES)
def test_enumerator_matches_the_reference_oracle(s, width):
    # the proof settles every check of the pinned calls, so run_checks
    # alone would not exercise the enumerator, its fallback, on them
    users, invariance = all_checks(s)
    got = enumerate_checks(s, width, users, invariance)
    assert summary(got) == reference_checks(s, width, users, invariance)


def test_a_proven_run_compiles_nothing(monkeypatch):
    control = with_plaintext_demand_header(low_memory_private_scheme())
    results = {}
    with monkeypatch.context() as patch:

        def refuse(*args, **kwargs):
            raise AssertionError("compiled forms")

        patch.setattr(verifier, "_compile", refuse)
        for param in verify_call_params():
            s, width = param.values
            users, invariance = all_checks(s)
            results[param.id] = run_checks(s, width, users=users, invariance=invariance)
        # the control's leak is left to the enumerator, which compiles
        with pytest.raises(AssertionError, match="compiled forms"):
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


def test_the_proof_settles_every_pinned_call_and_no_failure():
    for param in verify_call_params():
        s, width = param.values
        users, invariance = all_checks(s)
        labels = run_checks(s, width, users=users, invariance=invariance)
        assert proven(s, width, True, users, invariance) == set(labels), param.id
    # only enumeration reports a failure
    for s in (
        with_plaintext_demand_header(low_memory_private_scheme()),
        decode_corrupted(low_memory_private_scheme()),
    ):
        got = run_checks(s, users=(0, 1), invariance=True)
        assert proven(s, 1, True, (0, 1), True) == {
            label for label, v in got.items() if v.passed
        }


def coincidence_scheme() -> SchemeInstance:
    """N=K=2, t=1, one-valued keys, empty caches and one server part of 3
    configurations with no pads, so user 0 sees only the payload.  When
    user 1 demands file 0 the payload is uniform on {0} under
    configuration 0 and on all of GF(2)^2 otherwise; when user 1 demands
    file 1 it is uniform on one of the three lines.  Both mixtures give
    the same distribution at width 1 and different ones at width 2."""
    payloads = {
        0: (((), ()), ((0,), (1,)), ((0,), (1,))),
        1: (((0,), ()), ((), (0,)), ((0,), (0,))),
    }
    program = ColumnProgram(
        key_sizes=(1, 1),
        header_sizes=(),
        server=((3, 0),),
        cache=lambda user, key: (),
        delivery=lambda demand, keys, configs: (payloads[demand[1]][configs[0]], ()),
        recipe=lambda user, demand, key, header: ((0,),),
    )
    return SchemeInstance(
        name="coincidence",
        n_files=2,
        n_users=2,
        memory=Fraction(0),
        rate=Fraction(2),
        subpacketization=1,
        program=program,
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


def test_a_repeated_user_is_checked_once():
    # proven (example1) and enumerated (the control's leak) alike
    for s in (
        low_memory_private_scheme(),
        with_plaintext_demand_header(low_memory_private_scheme()),
    ):
        once = run_checks(s, decodability=False, users=(1,))
        assert run_checks(s, decodability=False, users=(1, 1)) == once
        assert once["privacy[user 1]"].cases == atom_count(s, 1)


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
    configs = math.prod(n for n, _ in s.program.server)
    assert len(forms) == len(s.served_demands().members) * s.key_space_size * configs
    rng = random.Random(f"{s.name}:{width}")
    demands = s.served_demands().members
    for _ in range(40):
        store = FileStore.random(s.n_files, s.subpacketization, width, rng)
        wants = rng.choice(demands)
        user_keys = tuple(rng.randrange(size) for size in s.key_sizes)
        server = rng.randrange(s.server_random_size(width))
        config, pads = s.program.split_server(server, width)
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


def test_the_proof_walk_leaves_the_delivery_memo_empty():
    # the walk reads each of the 576 delivery entries once, so it looks them
    # up past the memo; a simulated round still goes through the memo
    s = resolve_scheme("share:1/2:thm1:3,2,0:thm1:3,2,3")
    configs = math.prod(n for n, _ in s.program.server)
    assert s.n_served() * s.key_space_size * configs == 576
    verdicts = run_checks(s, users=range(s.n_users))
    assert {label: (v.passed, v.cases, v.mi_bits) for label, v in verdicts.items()} == {
        "decodability": (True, 147456, None),
        "privacy[user 0]": (True, 147456, 0.0),
        "privacy[user 1]": (True, 147456, 0.0),
    }
    assert s.program.delivery.cache_info().currsize == 0
    simulate_session(s, DemandVector(3, (2, 0)), seed=1)
    assert s.program.delivery.cache_info().currsize == 1


@pytest.mark.parametrize("token", ["example1", "thm1:3,2,0"])
def test_place_runs_once_per_store_and_key_realization(monkeypatch, token):
    s = resolve_scheme(token)
    calls = counting_placements(monkeypatch)
    enumerate_checks(s, users=range(s.n_users), invariance=s.n_files == 2)
    stores = FileStore.space_size(s.n_files, s.subpacketization, 1)
    # one cache per distinct (user, key) per store: 4 for each of these,
    # fewer than one per user per key realization
    assert placements_per_store(s) == 4
    assert calls == {index: placements_per_store(s) for index in range(stores)}
    assert placements_per_store(s) < s.n_users * s.key_space_size
    assert stores * placements_per_store(s) < atom_count(s, 1) * s.n_users


def test_wrong_cache_size_raises_before_the_first_atom(monkeypatch):
    s = low_memory_private_scheme()
    cache = s.program.cache

    def late_oversized(user, key):
        rows = cache(user, key)
        return rows + rows[:1] if (user, key) == (1, 1) else rows

    placed = counting_placements(monkeypatch)
    with pytest.raises(SchemeError, match=r"cache holds 2 bits, declared M\*F = 1$"):
        check_decodability(with_tables(s, cache=late_oversized))
    # the sizes are checked as the configuration walk looks the cache
    # tables up, before the first store is placed
    assert not placed
    # a program with one key alphabet per user is what makes one cache per
    # user, and a scheme is built only from such a program
    with pytest.raises(ValueError, match="one key alphabet per user"):
        replace(s, program=replace(s.program, key_sizes=(2,)))


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
    # the privacy and invariance checks share the sweep
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
    cache = s.program.cache

    def lopsided(user, key):
        rows = cache(user, key)
        return rows + rows if user == 0 else rows

    with pytest.raises(SchemeError, match="unequal cache sizes"):
        measure_rates(with_tables(s, cache=lopsided))
