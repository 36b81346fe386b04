"""Seeded truncation and mutation fuzz of the descriptor parser and the CLI.

The inputs are the two pinned 2x4 descriptors (export_descriptor of the
schemes module's low- and high-memory matrices), cut at seeded points and
edited by one to three seeded character replacements, insertions or
deletions.  Each mutant either parses or raises ParameterError or
SchemeError.  Through cli.main, verify, measure and simulate on each exit 0,
1 or 2 with no exception escaping; a mutant that does not parse exits 2 with
the parser's message as its one `error:` line, and any other stderr output
is one `error:` line too.  Standard library only.
"""

from __future__ import annotations

import random

import pytest

from cachepriv import cli
from cachepriv.core import SchemeError
from cachepriv.schemes import high_memory_2x4_matrices, low_memory_2x4_matrices
from cachepriv.search import export_descriptor, parse_descriptor

# characters the format uses, one it does not, and digits that widen a count
ALPHABET = "01,: \n#-9x"
TRUNCATIONS = 40
MUTATIONS = 500
COMMANDS = (
    ["verify"],
    ["measure"],
    ["simulate", "--demands", "0,1,0,1"],
)


def mutants(text: str, rng: random.Random):
    for _ in range(TRUNCATIONS):
        yield text[: rng.randrange(len(text))]
    for _ in range(MUTATIONS):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            edit = rng.choice(("replace", "insert", "delete"))
            if edit == "insert":
                chars.insert(rng.randrange(len(chars) + 1), rng.choice(ALPHABET))
            elif chars:
                pos = rng.randrange(len(chars))
                if edit == "replace":
                    chars[pos] = rng.choice(ALPHABET)
                else:
                    del chars[pos]
        yield "".join(chars)


def parse_error(text: str) -> SchemeError | None:
    try:
        parse_descriptor(text)
    except SchemeError as exc:
        return exc
    return None


@pytest.mark.parametrize(
    "name, matrices",
    [("lowmem2x4", low_memory_2x4_matrices), ("highmem2x4", high_memory_2x4_matrices)],
)
def test_mutated_descriptors_parse_or_are_refused_everywhere(
    tmp_path, capsys, name, matrices
):
    text = export_descriptor(matrices(), name)
    path = tmp_path / f"{name}.desc"
    rng = random.Random(f"descriptor-fuzz:{name}")
    parsed, exits = 0, set()
    for mutant in mutants(text, rng):
        error = parse_error(mutant)
        parsed += error is None
        path.write_text(mutant, encoding="utf-8")
        for command in COMMANDS:
            code = cli.main([command[0], str(path), *command[1:]])
            out, err = capsys.readouterr()
            exits.add(code)
            where = f"{command[0]} on {mutant!r}"
            assert code in (0, 1, 2), where
            if error is not None:
                assert (code, err) == (2, f"error: {error}\n"), where
            elif code == 0:
                assert err == "", where
            elif err:
                assert err.startswith("error: ") and err.count("\n") == 1, where
            else:
                assert code == 1 and ("FAIL" in out or "MISMATCH" in out), where
    # the mutants reach both the parser's refusals and the commands
    assert 0 < parsed < TRUNCATIONS + MUTATIONS
    assert exits == {0, 1, 2}
