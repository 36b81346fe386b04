from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import cachepriv.cli
from cachepriv import search
from cachepriv.cli import main, resolve_scheme
from cachepriv.core import DemandSubset, cyclic_demand_set
from cachepriv.lift import low_memory_private_scheme
from cachepriv.schemes import high_memory_2x4_matrices, with_plaintext_demand_header
from cachepriv.search import export_descriptor
from cachepriv.verifier import (
    check_conditional_invariance,
    check_decodability,
    check_privacy,
)
from oracles import clear_constructors


def test_measure_output_is_exact(capsys):
    assert main(["measure", "example1"]) == 0
    assert capsys.readouterr().out == "M=1/3 R=4/3 header_bits=2\n"
    assert main(["measure", "dual"]) == 0
    assert capsys.readouterr().out == "M=4/3 R=1/3 header_bits=2\n"
    assert main(["measure", "thm1:3,2,0"]) == 0
    assert capsys.readouterr().out == "M=0 R=2 header_bits=2\n"
    assert main(["measure", "share:1/3:example1:dual"]) == 0
    assert capsys.readouterr().out == "M=1 R=2/3 header_bits=4\n"


def test_verify_private_scheme(capsys):
    assert main(["verify", "example1"]) == 0
    out = capsys.readouterr().out
    assert "decodability: PASS (1024 cases)" in out
    assert "privacy[user 0]: PASS" in out
    assert "privacy[user 1]: PASS" in out
    assert "conditional-invariance: PASS" in out
    assert out.rstrip().endswith("overall: PASS")


def test_verify_non_private_scheme_skips_privacy(capsys):
    assert main(["verify", "baseline:2,2,1"]) == 0
    out = capsys.readouterr().out
    assert "privacy: skipped (non-private scheme)" in out


def test_verify_single_user_flag(capsys):
    assert main(["verify", "thm1:2,3,1", "--user", "2"]) == 0
    out = capsys.readouterr().out
    assert "privacy[user 2]: PASS" in out
    assert "privacy[user 0]" not in out


def test_verify_budget_flag(capsys):
    assert main(["verify", "example1", "--budget", "100"]) == 1
    err = capsys.readouterr().err
    assert "1024 atoms" in err


def test_a_huge_atom_count_is_refused_by_the_budget(monkeypatch, capsys):
    # 2^20002 atoms: a decimal past str()'s digit limit, printed as a bound
    monkeypatch.delenv("CACHEPRIV_BUDGET", raising=False)
    assert main(["verify", "thm1:2,2,0", "--width", "10000"]) == 1
    assert capsys.readouterr().err == (
        "error: enumeration needs more than 2^20001 atoms, budget is 268435456 "
        "(override with CACHEPRIV_BUDGET)\n"
    )


def test_a_store_space_past_building_is_refused_from_its_exponent(
    monkeypatch, capsys
):
    # 2 x 10^12 store bits: the count alone would take 250 GB, so the budget
    # refuses it from its exponent, as it refuses any count past 2^64
    monkeypatch.delenv("CACHEPRIV_BUDGET", raising=False)
    tracemalloc.start()
    try:
        code = main(["verify", "thm1:1000000,2,1/2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == (
        "error: enumeration needs more than 2^2000004000040 atoms, "
        "budget is 268435456 (override with CACHEPRIV_BUDGET)\n"
    )
    assert peak < 4 << 20


def test_unknown_scheme_exits_2(capsys):
    assert main(["measure", "nosuch"]) == 2
    assert "unknown scheme" in capsys.readouterr().err
    assert main(["measure", "thm1:2,2"]) == 2
    assert main(["measure", "share:1/2:example1"]) == 2


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2


def test_resolve_scheme_share_splits_nested_names():
    s = resolve_scheme("share:1/3:example1:thm1:2,2,2")
    assert s.n_files == 2 and s.n_users == 2
    assert s.name == "share:1/3:example1:thm1:2,2,2"


def test_verify_descriptor_file(tmp_path, capsys):
    path = tmp_path / "witness.desc"
    path.write_text(export_descriptor(high_memory_2x4_matrices(), "frozen"))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scheme: frozen" in out
    assert "decodability: PASS (256 cases)" in out


def test_search_regen_matches_committed(capsys):
    assert main(["search", "--regen"]) == 0
    out = capsys.readouterr().out
    assert "witness reproduced" in out


def test_search_writes_descriptor(tmp_path, capsys):
    out_path = tmp_path / "found.desc"
    code = main(["search", "--target", "2,4,3,6,0", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    text = out_path.read_text()
    assert "tx_dim: 0" in text
    assert main(["verify", str(out_path)]) == 0
    capsys.readouterr()


def test_search_rejects_bad_targets(capsys):
    # a target of other than 5 numbers, a user count that is not a multiple
    # of the file count, sizes below 1 and a negative budget, and --regen,
    # which only re-derives the committed witness, with any other target or
    # seed: one error line, no search
    for extra in (
        ["--target", "2,4,3"],
        ["--target", "2,5,3,4,1"],
        ["--regen", "--target", "2,4,3,1,4", "--seed", "18", "--budget", "16"],
        ["--regen", "--seed", "5", "--budget", "2000"],
        ["--target", "0,4,3,1,1"],
        ["--target", "2,0,3,1,1"],
        ["--target=-2,4,3,1,1"],
        ["--target", "2,4,0,1,1"],
        ["--budget", "-1"],
    ):
        assert main(["search", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_search_refuses_a_target_too_wide_for_completions_masks(monkeypatch, capsys):
    # 40 columns would make each coset a 2^40-bit mask; the target is refused
    # as a usage error before any row is drawn or any mask is built
    def never(*args):
        raise AssertionError("the search went past its target check")

    monkeypatch.setattr(search, "_element_mask", never)
    monkeypatch.setattr(search.random, "Random", never)
    monkeypatch.setattr(search.gf2, "iter_subspaces", never)
    for target, columns in (("2,2,20,1,20", 40), ("1,2,17,1,17", 17)):
        for strategy in ("restart", "exhaustive"):
            argv = ["search", "--target", target, "--budget", "1", "--strategy", strategy]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: a target of {columns} columns (files times "
                f"subpacketization) is more than the {search.MAX_SEARCH_COLUMNS} "
                f"search handles: completion keeps each coset as a "
                f"2^{columns}-bit mask\n"
            )


def test_search_says_a_refused_target_ran_no_trial(capsys):
    assert main(["search", "--target", "2,4,4,5,1", "--budget", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "no scheme found: the target was refused before the first trial, as "
        "some user's cache is too small for the rank filter ever to pass\n"
    )
    assert captured.err == ""
    # a target the filter can pass still reports the trials it ran
    assert main(["search", "--target", "2,4,3,3,2", "--budget", "0"]) == 1
    assert capsys.readouterr().out.startswith("no scheme found within 0 trials (")


def test_region_writes_files(tmp_path, capsys):
    prefix = tmp_path / "region"
    assert main(["region", "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert str(prefix) + ".csv" in out
    assert (tmp_path / "region.csv").exists()
    assert (tmp_path / "region.svg").exists()


def test_simulate_round(tmp_path, capsys):
    out_path = tmp_path / "t.bin"
    code = main(
        ["simulate", "example1", "--demands", "0,1", "--seed", "3", "--out", str(out_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "decode user=0 file=0 ok" in out
    assert "decode user=1 file=1 ok" in out
    assert out_path.stat().st_size > 0


def test_simulate_rejects_bad_demands(capsys):
    assert main(["simulate", "example1", "--demands", "0,3"]) == 2
    capsys.readouterr()
    for scheme, demands in (
        ("example1", "0,1,0"),
        ("thm1:3,2,0", "0,1,2"),
        ("thm1:3,2,0", "0"),
        ("baseline:3,2,1", "0"),
    ):
        assert main(["simulate", scheme, "--demands", demands]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: demand vector length ")
        assert captured.err.count("\n") == 1
    assert main(["simulate", "lowmem2x4", "--demands", "0,0,0,0"]) == 1
    capsys.readouterr()


def test_verify_rejects_out_of_range_user_before_enumerating(capsys):
    assert main(["verify", "example1", "--user", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "scheme: example1 (N=2 K=2 M=1/3 R=4/3 t=3, private)\n"
    assert captured.err == "error: no user 5 in a 2-user scheme\n"


FROZEN = export_descriptor(high_memory_2x4_matrices(), "frozen")
CACHE_1 = next(line for line in FROZEN.splitlines() if line.startswith("cache 1:"))
DELIVERY = next(line for line in FROZEN.splitlines() if line.startswith("delivery "))
NO_DELIVERY = "".join(
    line
    for line in FROZEN.splitlines(keepends=True)
    if not line.startswith(("delivery ", "tx_dim:"))
)


@pytest.mark.parametrize(
    "text, command",
    [
        (FROZEN.replace("users: 4\n", ""), "verify"),
        (FROZEN.replace("files: 2\n", ""), "verify"),
        (FROZEN.replace("subpacketization: 3\n", ""), "verify"),
        (FROZEN.replace("cache 1:", "# cache 1:"), "verify"),
        (FROZEN.replace("users: 4\n", "users: four\n"), "verify"),
        ("version: 1\nfiles: 0\nusers: 1\nsubpacketization: 1\ncache 0:\n", "verify"),
        (FROZEN.replace("delivery 1,0,1,0:", "delivery 1,0,1,5:"), "verify"),
        (FROZEN.replace("delivery 1,0,1,0:", "delivery 1,0,1,-1:"), "verify"),
        (FROZEN.replace("delivery 1,0,1,0:", "delivery 1,0,1,5:"), "measure"),
        (FROZEN.replace("cache_dim: 4\n", "cache_dim: 3\n"), "verify"),
        (FROZEN.replace("tx_dim: 1\n", "tx_dim: 2\n"), "verify"),
        (FROZEN + CACHE_1.replace("cache 1:", "cache 0:") + "\n", "verify"),
        (FROZEN + CACHE_1.replace("cache 1:", "cache 4:") + "\n", "verify"),
        (FROZEN + CACHE_1.replace("cache 1:", "cache -1:") + "\n", "measure"),
        (FROZEN + DELIVERY + "\n", "verify"),
        (FROZEN + "files: 2\n", "verify"),
        (FROZEN.replace("users: 4\n", "users 4\nusers: 4\n"), "verify"),
        (FROZEN.replace("cache 1:", "cache 1 3:"), "verify"),
        (FROZEN.replace("tx_dim: 1\n", "tx_dimm: 9\n"), "verify"),
        (NO_DELIVERY, "verify"),
        (NO_DELIVERY, "measure"),
        (NO_DELIVERY, "simulate --demands 0,1,0,1"),
    ],
    ids=[
        "no-users",
        "no-files",
        "no-t",
        "no-cache-1",
        "bad-int",
        "zero-files",
        "demand-past-the-files",
        "negative-demand",
        "measure-demand-past-the-files",
        "cache-dim-disagrees",
        "tx-dim-disagrees",
        "repeated-cache-line",
        "cache-user-past-the-users",
        "measure-negative-cache-user",
        "repeated-delivery-demand",
        "repeated-field",
        "line-without-colon",
        "cache-key-with-extra-words",
        "unknown-field",
        "no-delivery-line",
        "measure-no-delivery-line",
        "simulate-no-delivery-line",
    ],
)
def test_verify_malformed_descriptor_is_a_usage_error(tmp_path, capsys, text, command):
    path = tmp_path / "bad.desc"
    path.write_text(text)
    name, *options = command.split()
    errors = []
    for _ in range(2):  # a parse that raised is not kept: the repeat raises too
        assert main([name, str(path), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        errors.append(captured.err)
    assert errors[0] == errors[1]


def test_an_edited_descriptor_is_verified_as_edited(tmp_path, capsys):
    # the file is read on every call and parsed again when its text changed;
    # the perturbed delivery row keeps the file's length
    path = tmp_path / "witness.desc"
    path.write_text(FROZEN)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "decodability: PASS (256 cases)" in out
    assert out.endswith("overall: PASS\n")
    perturbed = DELIVERY.replace(": 0", ": 1", 1)
    assert perturbed != DELIVERY and len(perturbed) == len(DELIVERY)
    path.write_text(FROZEN.replace(DELIVERY, perturbed))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "decodability: FAIL (" in out
    assert out.endswith("overall: FAIL\n")


WIDTH = "symbol width must be at least 1, got "
BUDGET = "budget must be non-negative, got "
ENV_BUDGET = "CACHEPRIV_BUDGET must be a non-negative integer, got "


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["verify", "example1", "--width", "-1"], None, WIDTH + "-1"),
        (["verify", "example1", "--width", "0"], None, WIDTH + "0"),
        (["verify", "lowmem2x4", "--width", "0"], None, WIDTH + "0"),
        (["measure", "example1", "--width", "0"], None, WIDTH + "0"),
        (["verify", "example1", "--budget", "-1"], None, BUDGET + "-1"),
        (["verify", "example1"], "abc", ENV_BUDGET + "'abc'"),
        (["verify", "example1"], "-5", ENV_BUDGET + "'-5'"),
        (["verify", "example1"], "1.5", ENV_BUDGET + "'1.5'"),
        (["simulate", "example1", "--demands", "0,1", "--width", "0"], None, WIDTH + "0"),
        (["simulate", "example1", "--demands", "0,1", "--width", "-3"], None, WIDTH + "-3"),
        (
            ["simulate", "thm1:3,2,0", "--demands", "0,1", "--width", "100000000000"],
            None,
            "width 100000000000 is too large: a transcript bit block holds "
            "fewer than 2^32 bits",
        ),
    ],
)
def test_bad_width_and_budget_are_usage_errors(monkeypatch, capsys, argv, env, message):
    if env is not None:
        monkeypatch.setenv("CACHEPRIV_BUDGET", env)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "overall" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{tmp}"],
        ["region", "--out", "{tmp}/missing/x"],
        ["simulate", "example1", "--demands", "0,1", "--out", "{tmp}/missing/x.bin"],
        ["search", "--target", "2,4,3,6,0", "--out", "{tmp}/missing/x.txt"],
        ["verify", "thm1:2,2,1/0"],
        ["verify", "share:1/0:example1:dual"],
        ["region", "--step", "1/0"],
        ["verify", "thm1:0,2,0"],
        ["measure", "baseline:0,2,0"],
        ["verify", "thm1:2,0,0"],
        ["verify", "baseline:2,0,1"],
    ],
    ids=[
        "scheme-path-is-a-directory",
        "region-out-dir-missing",
        "simulate-out-dir-missing",
        "search-out-dir-missing",
        "thm1-zero-denominator",
        "share-zero-denominator",
        "region-zero-denominator",
        "thm1-no-files",
        "baseline-no-files",
        "thm1-no-users",
        "baseline-no-users",
    ],
)
def test_bad_inputs_are_usage_errors_without_a_traceback(tmp_path, capsys, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[-1]
    ]
    assert "Traceback" not in err
    if "--out" in argv:
        # the output path is opened before any work is done or printed
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


EXPECTED_VERIFY = Path(__file__).resolve().parents[1] / "bench" / "expected_verify.json"


@pytest.mark.parametrize(
    "call",
    json.loads(EXPECTED_VERIFY.read_text(encoding="utf-8")),
    ids=lambda call: " ".join(call["args"]),
)
def test_pinned_verify_outputs(capsys, call):
    assert main(["verify", *call["args"]]) == call["exit"]
    out, err = capsys.readouterr()
    assert out == call["stdout"]
    assert err == ""


# a K = 3 thm1 scheme, whose header mixes three keys into three slots, and
# a share whose first part's slot rows vary with the configuration while
# the second part sends nothing
PINNED_PROOFS = {
    "thm1:4,3,0": "scheme: thm1:4,3,0 (N=4 K=3 M=0 R=3 t=1, private)\n"
    "decodability: PASS (1327104 cases)\n"
    "privacy[user 0]: PASS (1327104 cases, MI=0 bits)\n"
    "privacy[user 1]: PASS (1327104 cases, MI=0 bits)\n"
    "privacy[user 2]: PASS (1327104 cases, MI=0 bits)\n"
    "overall: PASS\n",
    "share:1/2:thm1:3,2,0:thm1:3,2,3": "scheme: share:1/2:thm1:3,2,0:thm1:3,2,3 "
    "(N=3 K=2 M=3/2 R=1 t=2, private)\n"
    "decodability: PASS (147456 cases)\n"
    "privacy[user 0]: PASS (147456 cases, MI=0 bits)\n"
    "privacy[user 1]: PASS (147456 cases, MI=0 bits)\n"
    "overall: PASS\n",
}


@pytest.mark.parametrize("token", PINNED_PROOFS)
def test_pinned_thm1_k3_and_share_verify_outputs(capsys, token):
    assert main(["verify", token]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (PINNED_PROOFS[token], "")


def control_verdicts():
    """The plaintext-header control's checks, one call each as the bench's
    control operation makes them: (passed, cases, counterexample, MI)."""
    ctrl = with_plaintext_demand_header(low_memory_private_scheme())
    verdicts = [check_decodability(ctrl)]
    verdicts += [check_privacy(ctrl, k) for k in range(ctrl.n_users)]
    verdicts.append(check_conditional_invariance(ctrl))
    return [(v.passed, v.cases, str(v.counterexample), v.mi_bits) for v in verdicts]


def test_pinned_verify_calls_repeat_byte_for_byte(capsys):
    # the cold pass builds every scheme afresh and parses into an empty memo;
    # the warm pass gets the same instances back, their table memos filled
    pinned = json.loads(EXPECTED_VERIFY.read_text(encoding="utf-8"))
    calls = [(c["args"], c["exit"], c["stdout"]) for c in pinned]
    calls += [([token], 0, out) for token, out in PINNED_PROOFS.items()]
    cachepriv.cli._parse_descriptor_text.cache_clear()
    passes = []
    for cold in (True, False):
        got = []
        for args, _, _ in calls:
            if cold:
                clear_constructors()
            code = main(["verify", *args])
            got.append((code, *capsys.readouterr()))
        if cold:
            clear_constructors()
        got.append(control_verdicts())
        passes.append(got)
    assert search.compile_linear_scheme.cache_info().hits > 0
    assert passes[0] == passes[1]
    assert passes[0][:-1] == [(code, out, "") for _, code, out in calls]
    decodes, *private, invariant = passes[0][-1]
    assert decodes[0] and not invariant[0]
    assert [(passed, mi) for passed, _, _, mi in private] == [(False, 1.0)] * 2


def test_a_warm_verify_still_reads_every_delivery_entry(capsys):
    # no verdict is kept: a repeated verify of the same instance walks all
    # 9 demands x 4 key realizations x 2 slot ranks again
    s = resolve_scheme("thm1:3,2,0")
    assert main(["verify", "thm1:3,2,0"]) == 0
    first = capsys.readouterr()
    delivery, reads = s.program.delivery, Counter()

    def counting(*args):
        reads[args] += 1
        return delivery(*args)

    object.__setattr__(s.program, "delivery", counting)
    try:
        assert resolve_scheme("thm1:3,2,0") is s
        assert main(["verify", "thm1:3,2,0"]) == 0
    finally:
        object.__setattr__(s.program, "delivery", delivery)
    assert capsys.readouterr() == first
    assert len(reads) == 72 and set(reads.values()) == {1}


def test_an_edited_descriptor_is_verified_as_edited_as_a_share_part(
    tmp_path, capsys
):
    # the share's parts are memoised, the descriptor part by its text: each
    # edit gives the verdict of the text on disk
    path = tmp_path / "witness.desc"
    token = f"share:1/2:highmem2x4:{path}"
    perturbed = DELIVERY.replace(": 0", ": 1", 1)
    for text, code, verdict in (
        (FROZEN, 0, "PASS"),
        (FROZEN.replace(DELIVERY, perturbed), 1, "FAIL"),
        (FROZEN, 0, "PASS"),
    ):
        path.write_text(text)
        assert main(["verify", token]) == code
        out = capsys.readouterr().out
        assert out.startswith("scheme: share:1/2:highmem2x4:frozen ")
        assert f"decodability: {verdict} (" in out
        assert out.endswith(f"overall: {verdict}\n")


def test_a_repeated_descriptor_verify_builds_its_served_set_once(
    tmp_path, monkeypatch, capsys
):
    # the served set is memoised with the parse, by the descriptor's text
    cachepriv.cli._parse_descriptor_text.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return cyclic_demand_set(*args)

    monkeypatch.setattr(cachepriv.cli, "cyclic_demand_set", counted)
    path = tmp_path / "witness.desc"
    path.write_text(FROZEN)
    outputs = []
    for _ in range(2):
        assert main(["verify", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert calls == [(2, 2)]
    assert outputs[0] == outputs[1]
    assert outputs[0].out.endswith("overall: PASS\n")


def test_a_descriptor_serving_other_demands_lists_them_in_file_order(tmp_path):
    m = high_memory_2x4_matrices()
    deliveries = m.deliveries[:3][::-1]
    path = tmp_path / "partial.desc"
    path.write_text(export_descriptor(m._replace(deliveries=deliveries), "partial"))
    cachepriv.cli._parse_descriptor_text.cache_clear()
    members = tuple(d for d, _ in deliveries)
    assert set(members) != set(cyclic_demand_set(2, 2).members)
    for _ in range(2):  # parsed, then read from the memo
        served = resolve_scheme(str(path)).served
        assert served == DemandSubset(2, 4, members, "explicit")
    assert cachepriv.cli._parse_descriptor_text.cache_info().hits == 1


def test_search_exhaustive_strategy(capsys):
    assert main(["search", "--strategy", "exhaustive", "--target", "2,2,1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "cache 0: 01\ncache 1: 01\n" in out
    assert main(["search", "--strategy", "exhaustive", "--target", "2,4,2,2,1"]) == 1
    assert capsys.readouterr().out.startswith("no scheme found within ")


def test_calls_in_one_process_do_not_share_options(capsys):
    assert main(["verify", "example1", "--user", "0"]) == 0
    assert "privacy[user 1]" not in capsys.readouterr().out
    assert main(["verify", "example1"]) == 0
    pinned = json.loads(EXPECTED_VERIFY.read_text(encoding="utf-8"))[0]
    assert pinned["args"] == ["example1"]
    assert capsys.readouterr().out == pinned["stdout"]


HELP_AND_USAGE_ERRORS = [
    ["--help"],
    ["verify", "--help"],
    ["verify"],
    ["verify", "example1", "--width", "two"],
    ["search", "--strategy", "greedy"],
]


def test_help_and_usage_errors_repeat_byte_for_byte(monkeypatch, capsys):
    # the first call of a fresh process is the reference; in this process
    # the parser has served other calls before each repeat
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(cachepriv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert main(["measure", "example1"]) == 0
    capsys.readouterr()
    for argv in HELP_AND_USAGE_ERRORS:
        first = subprocess.run(
            [sys.executable, "-m", "cachepriv", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        assert first.returncode in (0, 2) and first.stdout + first.stderr
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            out, err = capsys.readouterr()
            assert (out, err, stop.value.code) == (
                first.stdout,
                first.stderr,
                first.returncode,
            ), argv
            assert main(["verify", "thm1:2,2,1", "--user", "1"]) == 0
            capsys.readouterr()


def test_a_command_replaced_after_the_first_call_is_the_one_that_runs(
    monkeypatch, capsys
):
    assert main(["measure", "example1"]) == 0
    calls = []

    def replaced(args):
        calls.append(args.scheme)
        return 7

    monkeypatch.setattr(cachepriv.cli, "cmd_verify", replaced)
    assert main(["verify", "dual"]) == 7
    assert calls == ["dual"]
    assert capsys.readouterr().out == "M=1/3 R=4/3 header_bits=2\n"
