"""The benchmark's three workloads.

Each workload makes its inputs from the seed alone, yields its operations
one cycle at a time, and checks every output.  An operation is a `run`
callable, which is the only part timed, and a `check` that turns its result
into (correct, work done).  A cycle is the fixed mix of operations that the
metrics are computed over; runs execute whole cycles, so every run sees the
same mix.  A workload class gives `warmup()`, `cycle(rng)`, `metrics(samples)`
(named figures and the four slot values), `min_cycles`, the fewest cycles a
run needs for its sample counts, and `trace_cycles`, the cycles a traced run
executes.

verify-mix       in-process `cachepriv verify` calls plus the leaking
                 control.  Exercises atom decoding, the scheme callables,
                 observable encoding, count tables and the independence
                 test; gf2 does almost nothing here.
search-seeds     search_linear_scheme on three targets that use the GF(2)
                 kernels through cosets, the subspace scan and rejection.
                 No verifier enumeration: the bypass for verifier changes.
simulate-rounds  seeded single rounds plus transcript encode and parse, at
                 1-bit and 65536-bit symbols.  Shares the scheme callables
                 with verify, one atom at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

EXPECTED_VERIFY = Path(__file__).with_name("expected_verify.json")

CASES = re.compile(r"\((\d+) cases")


@dataclass
class Op:
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, float]]
    atoms: int = 0  # atom-space size this operation verifies


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def rate(samples: list[tuple[float, float]]) -> float:
    """Work per second over (seconds, work) samples."""
    return sum(w for _, w in samples) / sum(s for s, _ in samples)


def seconds(samples: list[tuple[float, float]]) -> list[float]:
    return [s for s, _ in samples]


# ---------------------------------------------------------------------------
# verify-mix

# class of every bundled verify call; expected stdout and exit code are in
# expected_verify.json, captured from `cachepriv verify`
VERIFY_CLASSES = {
    "example1": "lifted",
    "dual": "lifted",
    "thm1:3,2,0": "thm1",
    "thm1:4,2,0": "thm1",
    "thm1:2,3,1": "thm1",
    "share:1/4:thm1:2,2,0:thm1:2,2,2": "thm1",
    "lowmem2x4": "nonprivate",
    "baseline:3,2,1": "nonprivate",
    "highmem2x4 --width 2": "nonprivate",
}

# the pinned 2-file/4-user/t=3 linear schemes that random descriptors are
# derived from: (cache rows per user, (demand, delivery rows) per demand);
# rows are ints whose bit i is column i
LOW_MEMORY_2X4 = (
    ((0b001001,), (0b100100,), (0b010010,), (0b111111,)),
    (
        ((0, 1, 0, 1), (0b001000, 0b010000, 0b000100, 0b000111)),
        ((0, 1, 1, 0), (0b000010, 0b000100, 0b001000, 0b111000)),
        ((1, 0, 0, 1), (0b010000, 0b100000, 0b000001, 0b000111)),
        ((1, 0, 1, 0), (0b000001, 0b000010, 0b100000, 0b111000)),
    ),
)
HIGH_MEMORY_2X4 = (
    (
        (0b100000, 0b011000, 0b000101, 0b000010),
        (0b100000, 0b010000, 0b000100, 0b000010),
        (0b110000, 0b001000, 0b000110, 0b000001),
        (0b010000, 0b001000, 0b000100, 0b000001),
    ),
    (
        ((0, 1, 0, 1), (0b111100,)),
        ((0, 1, 1, 0), (0b011110,)),
        ((1, 0, 0, 1), (0b110101,)),
        ((1, 0, 1, 0), (0b010111,)),
    ),
)
DESCRIPTOR_T = 3
DESCRIPTOR_COUNT = 8  # half derived intact (pass), half with one row perturbed

# what the leaking control must produce: the clear demand header makes each
# user's view determine the other demand, one full bit
CONTROL_EXPECT = {
    "decodability": True,
    "privacy": False,
    "mi_bits": 1.0,
    "invariance": False,
}


def _rank(rows) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def _mix_rows(rows: list[int], rng: random.Random) -> list[int]:
    """Random invertible row operations: the rowspan does not change."""
    rows = list(rows)
    if len(rows) > 1:
        for _ in range(2 * len(rows)):
            i, j = rng.sample(range(len(rows)), 2)
            rows[i] ^= rows[j]
    return rows


def _permute(row: int, perms: list[list[int]], t: int) -> int:
    """Relabel subfiles inside each file; decodability does not change."""
    out = 0
    for f, perm in enumerate(perms):
        for j in range(t):
            if (row >> (f * t + j)) & 1:
                out |= 1 << (f * t + perm[j])
    return out


def make_descriptor(rng: random.Random, index: int, perturb: bool) -> str:
    """A descriptor in the README's text format, derived from a pinned
    scheme by subfile relabelling and row mixing; `perturb` then XORs a
    random vector into one delivery row, which usually breaks decoding."""
    t = DESCRIPTOR_T
    n_cols = 2 * t
    caches, deliveries = LOW_MEMORY_2X4 if index % 2 == 0 else HIGH_MEMORY_2X4
    perms = [rng.sample(range(t), t) for _ in range(2)]
    cache_rows = [
        _mix_rows([_permute(r, perms, t) for r in rows], rng) for rows in caches
    ]
    delivery_rows = [
        (demand, _mix_rows([_permute(r, perms, t) for r in rows], rng))
        for demand, rows in deliveries
    ]
    if perturb:
        k = rng.randrange(len(delivery_rows))
        demand, rows = delivery_rows[k]
        while True:
            i = rng.randrange(len(rows))
            changed = list(rows)
            changed[i] ^= rng.randrange(1, 1 << n_cols)
            if _rank(changed) == len(changed):
                delivery_rows[k] = (demand, changed)
                break

    def bits(r: int) -> str:
        return "".join(str((r >> i) & 1) for i in range(n_cols))

    lines = [
        "version: 1",
        f"name: bench-{index}",
        "files: 2",
        "users: 4",
        f"subpacketization: {t}",
        f"cache_dim: {len(cache_rows[0])}",
        f"tx_dim: {len(delivery_rows[0][1])}",
    ]
    lines += [
        f"cache {u}: " + " ".join(map(bits, rows)) for u, rows in enumerate(cache_rows)
    ]
    lines += [
        f"delivery {','.join(map(str, d))}: " + " ".join(map(bits, rows))
        for d, rows in delivery_rows
    ]
    return "\n".join(lines) + "\n"


def atom_count(scheme, width: int) -> int:
    return (
        (1 << (scheme.n_files * scheme.subpacketization * width))
        * scheme.n_served()
        * scheme.key_space_size
        * scheme.server_random_size(width)
    )


class VerifyMix:
    """Operations are grouped by their own label (the verify arguments,
    `descriptor-<i>` or `control`); each label's median over the run's
    cycles feeds its class, so one slow cycle does not move the figures."""

    name = "verify-mix"
    classes = ("lifted", "thm1", "nonprivate")
    min_cycles = 3  # for a median per operation
    trace_cycles = 1

    def __init__(self, cp, seed: int, out_dir: Path) -> None:
        self.cp = cp
        self.control_expect = dict(CONTROL_EXPECT)
        self.class_of = {"control": "lifted"}
        self.calls = []  # (label, argv, expected exit, expected stdout, atoms)
        for entry in json.loads(EXPECTED_VERIFY.read_text(encoding="utf-8")):
            argv = entry["args"]
            label = " ".join(argv)
            self.class_of[label] = VERIFY_CLASSES[label]
            width = int(argv[argv.index("--width") + 1]) if "--width" in argv else 1
            atoms = atom_count(cp.cli.resolve_scheme(argv[0]), width)
            self.calls.append((label, argv, entry["exit"], entry["stdout"], atoms))
        rng = random.Random(f"verify-mix:{seed}")
        demands = cp.core.cyclic_demand_set(2, 2)
        for i in range(DESCRIPTOR_COUNT):
            text = make_descriptor(rng, i, perturb=i >= DESCRIPTOR_COUNT // 2)
            path = out_dir / f"descriptor-{seed}-{i}.txt"
            path.write_text(text, encoding="utf-8")
            matrices, _ = cp.search.parse_descriptor(text)
            verdict = cp.search.verify_linear(matrices, demands)
            atoms = atom_count(cp.cli.resolve_scheme(str(path)), 1)
            label = f"descriptor-{i}"
            self.class_of[label] = "nonprivate"
            self.calls.append(
                (label, [str(path)], 0 if verdict.passed else 1, None, atoms)
            )
        self.control_atoms = atom_count(self._control_scheme(), 1)

    def _verify_op(self, label, argv, want_exit, want_stdout, atoms) -> Op:
        main = self.cp.cli.main

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify", *argv])
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, text, err = result
            if want_stdout is None:
                # a descriptor: the verifier itself must print the verdict that
                # the exit code carries; an `error:` exit 1 is not a FAIL
                lines = text.splitlines()
                verdict = "overall: " + ("PASS" if want_exit == 0 else "FAIL")
                printed = bool(lines) and lines[-1] == verdict and any(
                    line.startswith("decodability: ") for line in lines
                )
            else:
                printed = text == want_stdout
            ok = code == want_exit and printed and err == ""
            return ok, sum(int(c) for c in CASES.findall(text))

        return Op(label, run, check, atoms)

    def _control_scheme(self):
        cp = self.cp
        return cp.schemes.with_plaintext_demand_header(
            cp.lift.low_memory_private_scheme()
        )

    def _control_op(self) -> Op:
        v = self.cp.verifier

        def run():
            ctrl = self._control_scheme()
            return (
                v.check_decodability(ctrl),
                [v.check_privacy(ctrl, k) for k in range(ctrl.n_users)],
                v.check_conditional_invariance(ctrl),
            )

        def check(result):
            dec, privacy, inv = result
            want = self.control_expect
            ok = (
                dec.passed == want["decodability"]
                and all(
                    p.passed == want["privacy"] and p.mi_bits == want["mi_bits"]
                    for p in privacy
                )
                and inv.passed == want["invariance"]
            )
            return ok, dec.cases + sum(p.cases for p in privacy) + inv.cases

        return Op("control", run, check, self.control_atoms)

    def warmup(self) -> Op:
        return self._verify_op(*next(c for c in self.calls if c[0] == "lowmem2x4"))

    def cycle(self, rng: random.Random) -> list[Op]:
        return [self._verify_op(*c) for c in self.calls] + [self._control_op()]

    def metrics(self, samples):
        per_class: dict[str, list[tuple[float, float]]] = {c: [] for c in self.classes}
        for label, cls in self.class_of.items():
            per_class[cls].append(
                (
                    statistics.median(seconds(samples[label])),
                    statistics.median(w for _, w in samples[label]),
                )
            )
        cases_per_s = {c: rate(per_class[c]) for c in self.classes}
        overall = rate([s for c in self.classes for s in per_class[c]])
        named = {f"verify_{c}_cases_per_s": (cases_per_s[c], "1/s") for c in self.classes}
        slots = tuple(1e6 / cases_per_s[c] for c in self.classes) + (1e6 / overall,)
        return named, slots


# ---------------------------------------------------------------------------
# search-seeds

# group -> (files, users, t, cache_dim, tx_dim), restart trials per call.
# search_linear_scheme stops at the first success, and the trials it needs
# vary by seed: over search seeds 0-59 the dual target needed 16 to 675
# (median about 140), over seeds 0-23 the low-memory target 3 to 2657
# (median about 300; 0.03 s to 17 s on a 2-core x86-64 host, Python 3.11).
# Uncapped calls would make the figures mostly seed luck, so every call is
# capped, with the budget at or below the tenth percentile of those trial
# counts.  Over ten 30 s runs, 15 % of hit calls and 4 % of scan calls found
# a scheme; the rest ran their whole budget.  The search figures are
# therefore times of capped searches, nearly fixed work per call; each run
# prints how many calls of each group found one.
SEARCH_TARGETS = {
    "hit": ((2, 4, 3, 4, 1), 32),  # tx_dim 1: coset intersection
    "scan": ((2, 4, 3, 1, 4), 16),  # tx_dim 4: iter_subspaces scan
    "miss": ((2, 4, 3, 3, 2), 16),  # infeasible: every trial is rejected
}
# pinned witnesses, (group, search seed, budget) -> (cache rows, deliveries)
# found at the commit that added the benchmark; the warm-up checks both
SEARCH_WITNESSES = {
    ("hit", 0, 10**6): HIGH_MEMORY_2X4,  # the committed high-memory scheme
    ("scan", 18, 16): (  # succeeds at trial 3
        ((22,), (44,), (11,), (49,)),
        (
            ((0, 1, 0, 1), (16, 8, 4, 1)),
            ((0, 1, 1, 0), (32, 16, 4, 3)),
            ((1, 0, 0, 1), (32, 8, 6, 1)),
            ((1, 0, 1, 0), (40, 24, 5, 3)),
        ),
    ),
}
SEARCH_CYCLE = ("hit",) * 6 + ("scan", "miss")


class SearchSeeds:
    name = "search-seeds"
    # at least 100 hit calls for search_hit_s_p90
    min_cycles = math.ceil(100 / SEARCH_CYCLE.count("hit"))
    trace_cycles = 3

    def __init__(self, cp, seed: int, out_dir: Path) -> None:
        self.cp = cp
        self.demands = cp.core.cyclic_demand_set(2, 2)

    def _search_op(self, group: str, search_seed: int, budget: int) -> Op:
        search = self.cp.search
        target, _ = SEARCH_TARGETS[group]
        demands = self.demands

        def run():
            return search.search_linear_scheme(
                *target, demands, seed=search_seed, budget=budget
            )

        def check(found):
            """Work is 1 when a scheme was found, 0 when the budget ran out."""
            if found is None:
                return True, 0
            if group == "miss":
                return False, 1
            found.validate()  # raises on a malformed result
            return search.verify_linear(found, demands).passed, 1

        return Op(group, run, check)

    def warmup(self) -> Op:
        """Both pinned witnesses, each checked for its exact matrices."""
        ops = {key: self._search_op(*key) for key in SEARCH_WITNESSES}

        def run():
            return {key: op.run() for key, op in ops.items()}

        def check(results):
            for key, found in results.items():
                ok, _ = ops[key].check(found)
                want_caches, want_deliveries = SEARCH_WITNESSES[key]
                if not (
                    ok
                    and found is not None
                    and found.cache_rows == want_caches
                    and found.deliveries == want_deliveries
                ):
                    return False, 0
            return True, len(results)

        return Op("witness", run, check)

    def cycle(self, rng: random.Random) -> list[Op]:
        return [
            self._search_op(g, rng.getrandbits(31), SEARCH_TARGETS[g][1])
            for g in SEARCH_CYCLE
        ]

    def metrics(self, samples):
        hit = seconds(samples["hit"])
        p50 = {g: statistics.median(seconds(samples[g])) for g in SEARCH_TARGETS}
        named = {
            "search_hit_s_p50": (p50["hit"], "s"),
            "search_hit_s_p90": (percentile(hit, 90), "s"),
            "search_scan_s_p50": (p50["scan"], "s"),
            "search_miss_s_p50": (p50["miss"], "s"),
        }
        slots = tuple(1e3 * named[k][0] for k in named)
        return named, slots

    @staticmethod
    def found(samples) -> dict[str, tuple[int, int]]:
        """(calls that found a scheme, calls) per group."""
        return {
            g: (int(sum(w for _, w in samples[g])), len(samples[g]))
            for g in SEARCH_TARGETS
        }


# ---------------------------------------------------------------------------
# simulate-rounds

SIMULATE_SCHEMES = (
    "example1",
    "dual",
    "thm1:4,3,1",
    "baseline:3,2,1",
    "share:1/3:example1:dual",  # t=9, out of reach of exhaustive verify
)
NARROW_PER_SCHEME = 10
WIDE_BITS = 65536


class SimulateRounds:
    name = "simulate-rounds"
    # at least 1000 narrow rounds for round_ms_p99
    min_cycles = math.ceil(1000 / (NARROW_PER_SCHEME * len(SIMULATE_SCHEMES)))
    trace_cycles = 100

    def __init__(self, cp, seed: int, out_dir: Path) -> None:
        self.cp = cp
        self.seed = seed
        self.schemes = [cp.cli.resolve_scheme(tok) for tok in SIMULATE_SCHEMES]

    def _round_op(self, group: str, scheme, demand, session_seed: int, width: int) -> Op:
        session = self.cp.session
        vector = self.cp.core.DemandVector(scheme.n_files, demand)

        def run():
            t = session.simulate_session(scheme, vector, session_seed, width)
            buf = session.transcript_to_bytes(t)
            return t, buf, session.parse_transcript(buf, scheme.name)

        def check(result):
            t, buf, parsed = result
            return t.all_matched and parsed == t, 2 * len(buf)

        return Op(group, run, check)

    def _random_round(self, rng, group, scheme, width) -> Op:
        demand = tuple(rng.randrange(scheme.n_files) for _ in range(scheme.n_users))
        return self._round_op(group, scheme, demand, rng.getrandbits(32), width)

    def warmup(self) -> Op:
        rng = random.Random(f"simulate-rounds:{self.seed}:warmup")
        return self._random_round(rng, "narrow", self.schemes[0], 1)

    def cycle(self, rng: random.Random) -> list[Op]:
        ops = []
        for scheme in self.schemes:
            ops += [
                self._random_round(rng, "narrow", scheme, 1)
                for _ in range(NARROW_PER_SCHEME)
            ]
            ops.append(self._random_round(rng, "wide", scheme, WIDE_BITS))
        return ops

    def metrics(self, samples):
        narrow = seconds(samples["narrow"])
        wide_mb_per_s = rate(samples["wide"]) / 1e6
        named = {
            "round_ms_p50": (1e3 * statistics.median(narrow), "ms"),
            "round_ms_p99": (1e3 * percentile(narrow, 99), "ms"),
            "wide_mb_per_s": (wide_mb_per_s, "MB/s"),
        }
        wide_ms = 1e3 * statistics.median(seconds(samples["wide"]))
        slots = (
            named["round_ms_p50"][0],
            named["round_ms_p99"][0],
            1e3 / wide_mb_per_s,
            wide_ms,
        )
        return named, slots


WORKLOADS = {w.name: w for w in (VerifyMix, SearchSeeds, SimulateRounds)}
