"""Pinned verdicts of the exhaustive enumerator and the decodability proof.

enumerate_pins.json holds, for each case below, the decodability verdict
of run_checks, which the configuration proof settles, and what
verifier._enumerate returns with every other check the scheme admits: per
label, (passed, cases, str(counterexample), repr(mi_bits)).  The cases are
schemes with checks the proof leaves open or fails: the plaintext-header
controls (privacy and invariance leak), a corrupted decode recipe, a
scheme whose privacy holds at width 1 only (here at width 2), and two
descriptors in the bench's style, with one delivery row perturbed
(decodability fails).  The descriptor texts are stored in the pin file.
The pins were captured before the enumerator counted per store, from its
atom-by-atom loop, which then decided decodability too.

    PYTHONPATH=src python tests/test_enumerate_pins.py > enumerate_pins.json

prints the pins for the current code, with the committed descriptors.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cachepriv import verifier
from cachepriv.cli import resolve_scheme
from cachepriv.lift import low_memory_private_scheme
from cachepriv.schemes import with_plaintext_demand_header
from test_verifier import (
    all_checks,
    coincidence_scheme,
    decode_corrupted,
    enumerate_checks,
)

PINS = Path(__file__).with_name("enumerate_pins.json")
PINS_SHA256 = "a2b128397da17bf918beccac1b415cc3b7e9e5b37572d7e92fafce9b43de44e5"

CONTROLS = (
    "example1",
    "dual",
    "thm1:3,2,0",
    "thm1:2,2,1",
    "share:1/4:thm1:2,2,0:thm1:2,2,2",
)


def schemes(descriptors: dict[str, str], tmp: Path) -> list[tuple[str, object, int]]:
    """(case id, scheme, width) per pinned case; descriptor texts are
    written under tmp and resolved as `cachepriv verify` resolves a path."""
    cases = []
    for token in CONTROLS:
        for width in (1, 2):
            s = with_plaintext_demand_header(resolve_scheme(token))
            cases.append((f"control:{token}@{width}", s, width))
    corrupted = decode_corrupted(low_memory_private_scheme())
    cases.append(("decode-corrupted@1", corrupted, 1))
    cases.append(("coincidence@2", coincidence_scheme(), 2))
    for name, text in descriptors.items():
        path = tmp / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        cases.append((f"{name}@1", resolve_scheme(str(path)), 1))
    return cases


def enumerated(s, width: int) -> dict[str, list]:
    verdicts = enumerate_checks(s, width, *all_checks(s))
    return {
        label: [v.passed, v.cases, str(v.counterexample), repr(v.mi_bits)]
        for label, v in verdicts.items()
    }


# the cases pinned again with the stores split into blocks two other ways
BOUNDARY_CASES = [f"control:{token}@1" for token in CONTROLS]
BOUNDARY_CASES += ["coincidence@2", "control:thm1:3,2,0@2"]


@pytest.mark.parametrize(
    "block_atoms", [1, 1 << 62], ids=["one-store-per-block", "one-block"]
)
def test_block_boundaries_leave_the_verdicts_pinned(monkeypatch, tmp_path, block_atoms):
    # a store-order or block-base error that one block size hides shows at
    # the extremes: a block of one store, and every store in one block
    monkeypatch.setattr(verifier, "_BLOCK_ATOMS", block_atoms)
    pins = json.loads(PINS.read_text())
    cases = schemes(pins["descriptors"], tmp_path)
    cases = [case for case in cases if case[0] in BOUNDARY_CASES]
    assert sorted(case for case, *_ in cases) == sorted(BOUNDARY_CASES)
    for case, s, width in cases:
        assert enumerated(s, width) == pins["verdicts"][case], case


@pytest.mark.parametrize(
    "block_atoms", [1, 1 << 62], ids=["one-store-per-block", "one-block"]
)
def test_the_sweeps_margins_are_those_of_the_joint(monkeypatch, tmp_path, block_atoms):
    # the enumerator counts each margin in its sweep; first_violation reads
    # them in order, so they must be JointDistribution.of's item by item
    monkeypatch.setattr(verifier, "_BLOCK_ATOMS", block_atoms)
    built, of = [], verifier.JointDistribution.of

    class Recorded(verifier.JointDistribution):
        def __init__(self, *fields):
            super().__init__(*fields)
            built.append(self)

    monkeypatch.setattr(verifier, "JointDistribution", Recorded)
    pins = json.loads(PINS.read_text())
    for case, s, width in schemes(pins["descriptors"], tmp_path):
        built.clear()
        enumerated(s, width)
        # one per privacy check, and one per invariance pair up to the first
        # whose views differ
        labels = pins["verdicts"][case]
        checks = sum(label.startswith("privacy") for label in labels)
        assert len(built) >= checks + ("conditional-invariance" in labels), case
        for dist in built:
            want = of(dist.joint)
            assert dist.total == want.total, case
            assert list(dist.left.items()) == list(want.left.items()), case
            assert list(dist.right.items()) == list(want.right.items()), case


def test_enumerated_verdicts_match_the_pins(tmp_path):
    data = PINS.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINS_SHA256
    pins = json.loads(data)
    cases = schemes(pins["descriptors"], tmp_path)
    assert [case for case, *_ in cases] == list(pins["verdicts"])
    for case, s, width in cases:
        assert enumerated(s, width) == pins["verdicts"][case], case


if __name__ == "__main__":
    import tempfile

    descriptors = json.loads(PINS.read_text())["descriptors"]
    with tempfile.TemporaryDirectory() as tmp:
        cases = schemes(descriptors, Path(tmp))
        verdicts = {case: enumerated(s, width) for case, s, width in cases}
    json.dump({"descriptors": descriptors, "verdicts": verdicts}, sys.stdout, indent=1)
    sys.stdout.write("\n")
