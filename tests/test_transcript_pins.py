"""Pinned session transcripts and decode outputs.

transcript_pins.json holds, for each (scheme, width, demand, seed), the
SHA-256 of the transcript bytes of `simulate_session` and of the decode
outputs drawn from the same seed (width and value of every symbol, per
user).  The digests were captured from the closure-based schemes that the
keyed form tables replaced, so they pin the payload bit order, the
thm1 filler layout, the mixed-radix split of the server randomness and the
symbol shapes of the decoded files.

    PYTHONPATH=src python tests/test_transcript_pins.py > pins.json

prints the entries for the current code, in the committed order.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from cachepriv.cli import resolve_scheme
from cachepriv.core import DemandVector, FileStore
from cachepriv.schemes import with_plaintext_demand_header
from cachepriv.session import simulate_session, transcript_to_bytes

PINS = Path(__file__).with_name("transcript_pins.json")

TOKENS = (
    "example1",
    "dual",
    "thm1:3,2,0",
    "thm1:4,3,1",
    "thm1:2,3,1",
    "baseline:3,2,1",
    "share:1/3:example1:dual",
    "share:1/2:thm1:4,2,1:thm1:4,2,2",  # pads in both parts
    "share:1/2:thm1:3,2,0:thm1:3,2,3",  # no pads in the second part
    "share:1/2:thm1:2,2,2:share:1/3:example1:dual",
    "control:example1",
    "control:thm1:2,2,1",
)
WIDTHS = (1, 3, 64, 4099)
ROUNDS = 2  # (demand, seed) draws per token and width


def scheme_for(token: str):
    if token.startswith("control:"):
        return with_plaintext_demand_header(resolve_scheme(token[len("control:") :]))
    return resolve_scheme(token)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decode_outputs(s, demand: DemandVector, seed: int, width: int) -> list:
    """Per user, the (width, value) of every decoded symbol, with files, keys
    and server randomness drawn as simulate_session draws them."""
    rng = random.Random(seed)
    store = FileStore.random(s.n_files, s.subpacketization, width, rng)
    user_keys = tuple(rng.randrange(size) for size in s.key_sizes)
    server = rng.randrange(s.server_random_size(width))
    caches = s.place(user_keys, store)
    payload, header = s.deliver(store, demand, user_keys, server)
    outputs = []
    for u in range(s.n_users):
        decoded = s.decode(u, demand[u], user_keys[u], header, caches[u], payload)
        outputs.append([[width, value] for value in decoded])
    return outputs


def build_pins() -> list[dict]:
    pins = []
    for token in TOKENS:
        s = scheme_for(token)
        members = s.served_demands().members
        for width in WIDTHS:
            rng = random.Random(f"{token}:{width}")
            for _ in range(ROUNDS):
                demand = rng.choice(members)
                seed = rng.getrandbits(32)
                vector = DemandVector(s.n_files, demand)
                t = simulate_session(s, vector, seed, width)
                outputs = decode_outputs(s, vector, seed, width)
                pins.append(
                    {
                        "token": token,
                        "width": width,
                        "demand": list(demand),
                        "seed": seed,
                        "transcript": _digest(transcript_to_bytes(t)),
                        "outputs": _digest(json.dumps(outputs).encode()),
                    }
                )
    return pins


def test_transcripts_and_outputs_match_the_pins():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert len(pins) == len(TOKENS) * len(WIDTHS) * ROUNDS
    assert build_pins() == pins


if __name__ == "__main__":
    json.dump(build_pins(), sys.stdout, indent=0)
    print()
