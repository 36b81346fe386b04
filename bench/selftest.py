"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that a wrong expectation is counted as a failed operation (the
leaking control, verify text, descriptor verdicts, the pinned search
witnesses), that two traced runs with the same seed give identical
per-layer counts (search found counts among them), that the
metric lists match BENCHMARK.json, and that the benchmark refuses to run
without the package.  Takes about a minute, most of it the traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent

# per-layer figures that are counts, or ratios of counts, and must repeat
REPEATABLE = [
    name
    for name, unit, _ in run.PER_LAYER
    if unit in ("count", "bytes") or (unit == "ratio" and name != "trace.overhead")
]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )


class WrongExpectationCounts(unittest.TestCase):
    def setUp(self) -> None:
        run.OUT_DIR.mkdir(exist_ok=True)
        self.mix = workloads.VerifyMix(run.load_package(), 0, run.OUT_DIR)

    def failures(self, op) -> int:
        tally = run.Tally()
        tally.execute(op)
        self.assertEqual(tally.attempted, 1)
        return tally.failed

    def test_control_passes_with_its_real_expectation(self) -> None:
        self.assertEqual(self.failures(self.mix._control_op()), 0)

    def test_control_expected_private_is_a_failure(self) -> None:
        self.mix.control_expect["privacy"] = True
        self.assertEqual(self.failures(self.mix._control_op()), 1)

    def test_changed_verify_text_is_a_failure(self) -> None:
        label, argv, code, text, atoms = next(
            c for c in self.mix.calls if c[0] == "lowmem2x4"
        )
        wrong = text.replace("PASS", "FAIL", 1)
        self.assertEqual(self.failures(self.mix._verify_op(label, argv, code, text, atoms)), 0)
        self.assertEqual(self.failures(self.mix._verify_op(label, argv, code, wrong, atoms)), 1)


    def test_descriptor_needs_the_printed_verdict(self) -> None:
        label, argv, code, text, atoms = next(
            c for c in self.mix.calls if c[0] == "descriptor-7"
        )
        self.assertEqual(code, 1)  # perturbed: the verifier must print FAIL
        op = self.mix._verify_op(label, argv, code, text, atoms)
        self.assertEqual(self.failures(op), 0)
        ok, _ = op.check((1, "", "error: not a scheme\n"))  # SchemeError exits 1
        self.assertFalse(ok)
        flipped = self.mix._verify_op(label, argv, 0, text, atoms)
        self.assertEqual(self.failures(flipped), 1)


class SearchWitnesses(unittest.TestCase):
    def failures(self) -> int:
        tally = run.Tally()
        tally.execute(workloads.SearchSeeds(run.load_package(), 0, run.OUT_DIR).warmup())
        return tally.failed

    def test_pinned_witnesses_pass(self) -> None:
        self.assertEqual(self.failures(), 0)

    def test_wrong_scan_witness_is_a_failure(self) -> None:
        key = next(k for k in workloads.SEARCH_WITNESSES if k[0] == "scan")
        caches, deliveries = workloads.SEARCH_WITNESSES[key]
        wrong = (caches[1:] + caches[:1], deliveries)
        with mock.patch.dict(workloads.SEARCH_WITNESSES, {key: wrong}):
            self.assertEqual(self.failures(), 1)


class TracedCountsRepeat(unittest.TestCase):
    def test_same_seed_same_counts(self) -> None:
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                runs = []
                for _ in range(2):
                    done = bench(
                        "--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1"
                    )
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(result["failed"], 0)
                    runs.append({k: result["metrics"][k]["value"] for k in REPEATABLE})
                self.assertEqual(runs[0], runs[1])


class BenchmarkJsonMatches(unittest.TestCase):
    def test_metric_lists(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            run.PER_LAYER,
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class RefusesWithoutPackage(unittest.TestCase):
    def test_bare_directory(self) -> None:
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
