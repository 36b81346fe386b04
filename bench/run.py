"""cachepriv benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: it imports cachepriv from ./src and writes
only under ./.bench_out.  Workloads are described in workloads.py.  Each is
one client in a closed loop, no threads: the next operation starts when the
previous one has finished.

--trace 0 sets up SETUP_REPEATS times (fresh import, input generation, one
checked warm-up operation) and reports the median as setup_s, then runs
whole cycles of operations for at least S seconds (and for at least the
workload's min_cycles) and reports the end-to-end metrics.  Times are
scaled to a reference machine speed by a yardstick timed between
operations (see yardstick.py); the raw wall-clock figures are printed
beside them.  Search and simulate figures are taken
over all the run's samples; verify figures come from each operation's
median over the cycles.  Search calls are capped at a trial budget (see
SEARCH_TARGETS in workloads.py), so the search figures are times of capped
searches; the `found` line gives how many calls of each group found a
scheme.

Every workload reports the same four slot metrics, each the workload's own
figure, in milliseconds at reference speed (lower is better):

  slot                            verify-mix       search-seeds  simulate-rounds
  lifted.hit-p50.narrow-p50_ms    ms/1000 cases,   hit call p50  narrow round p50
                                  lifted
  thm1.hit-p90.narrow-p99_ms      ms/1000 cases,   hit call p90  narrow round p99
                                  thm1
  nonprivate.scan-p50.wide-mb_ms  ms/1000 cases,   scan call p50 ms per MB of
                                  non-private                    wide transcript
  mix.miss-p50.wide-p50_ms        ms/1000 cases,   miss call p50 wide round p50
                                  whole mix

The same figures are printed above the JSON line under their own names
(verify_lifted_cases_per_s, search_hit_s_p90, wide_mb_per_s, ...) together
with failed_frac, the sample counts and the machine.  search_hit_s_p90
needs at least 100 hit calls and round_ms_p99 at least 1000 narrow rounds
per run (TAILS); the note line says whether the run had them.

--trace 1 runs a fixed number of cycles (the workload's trace_cycles; S is
not used), first untraced and then with every layer entry point wrapped,
and reports per-layer calls, self times (raw wall clock) and counts, and
the traced/untraced wall-time ratio.  A layer the workload never reaches
reads 0.  Counts repeat exactly for a given seed.  Spans are written to
.bench_out/spans-<workload>.bin (format in tracer.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Failures are listed on stderr.  Exit code 2 means the benchmark
could not run here, for instance because there is no src/cachepriv.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS
from yardstick import INTERVAL_S, REFERENCE_S, speed_factor, yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9

# tail percentiles: (figure, sample group, samples it needs per run)
TAILS = [("search_hit_s_p90", "hit", 100), ("round_ms_p99", "narrow", 1000)]

END_TO_END = [
    ("lifted.hit-p50.narrow-p50_ms", "ms"),
    ("thm1.hit-p90.narrow-p99_ms", "ms"),
    ("nonprivate.scan-p50.wide-mb_ms", "ms"),
    ("mix.miss-p50.wide-p50_ms", "ms"),
    ("setup_s", "s"),
]

# (name, unit, better); each row notes the end-to-end figure it should move
PER_LAYER = [
    # verify_*_cases_per_s; core.pack also wide_mb_per_s
    ("core.atom.calls", "count", "lower"),
    ("core.atom.self_s", "s", "lower"),
    ("core.pack.calls", "count", "lower"),
    ("core.pack.self_s", "s", "lower"),
    # verify_*_cases_per_s and round_ms_p50: shared by verify and simulate
    ("schemes.place.calls", "count", "lower"),
    ("schemes.place.self_s", "s", "lower"),
    ("schemes.deliver.calls", "count", "lower"),
    ("schemes.deliver.self_s", "s", "lower"),
    ("schemes.decode.calls", "count", "lower"),
    ("schemes.decode.self_s", "s", "lower"),
    # verify_lifted/thm1_cases_per_s; no change elsewhere
    ("verifier.observable.self_s", "s", "lower"),
    ("verifier.count.self_s", "s", "lower"),
    ("verifier.independence.self_s", "s", "lower"),
    ("verifier.mi.self_s", "s", "lower"),
    ("verifier.check.self_s", "s", "lower"),
    ("verifier.atoms", "count", "lower"),
    ("verifier.place_per_atom", "ratio", "lower"),
    # search_*
    ("search.search.self_s", "s", "lower"),
    ("search.verify_linear.self_s", "s", "lower"),
    ("search.compile.self_s", "s", "lower"),
    ("search.filter.calls", "count", "lower"),
    ("search.filter_pass_ratio", "ratio", "higher"),
    ("search.completion.calls", "count", "lower"),
    ("search.completion_ratio", "ratio", "higher"),
    ("search.hit.found", "count", "higher"),
    ("search.scan.found", "count", "higher"),
] + [
    (f"gf2.{fn}.{stat}", unit, "lower")
    for fn in (
        "reduced_basis",
        "reduce_vector",
        "in_span",
        "rank",
        "rref",
        "solve_combination",
        "random_full_rank",
        "span_elements",
    )
    for stat, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("gf2.iter_subspaces.yielded", "count", "lower"),
    ("gf2.iter_subspaces.self_s", "s", "lower"),
    # round_ms_p50, wide_mb_per_s
    ("session.simulate.self_s", "s", "lower"),
    ("session.run.self_s", "s", "lower"),
    ("session.encode.self_s", "s", "lower"),
    ("session.encode.bytes", "bytes", "lower"),
    ("session.parse.self_s", "s", "lower"),
    ("session.parse.bytes", "bytes", "lower"),
    # verify-mix
    ("cli.resolve.self_s", "s", "lower"),
    ("cli.verify.self_s", "s", "lower"),
    # the tracing itself
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.absent", "count", "lower"),
]


def load_package() -> SimpleNamespace:
    """A fresh import of cachepriv from this checkout's src/ tree."""
    for name in [m for m in sys.modules if m.split(".")[0] == "cachepriv"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("cachepriv.cli")  # imports every other module
    modules = {
        name.partition(".")[2] or name: module
        for name, module in sys.modules.items()
        if name.split(".")[0] == "cachepriv"
    }
    origin = Path(modules["cachepriv"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"cachepriv was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


class Tally:
    """Attempted and failed operations, and for each measured cycle the
    samples of every group: (seconds, work, midpoint time) while measuring,
    (seconds, work, speed factor) after scale()."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.cycles: list[dict[str, list[tuple[float, float, float]]]] = []

    def new_cycle(self) -> None:
        self.cycles.append(defaultdict(list))

    def execute(self, op, tracer: Tracer | None = None, op_id: int = 0, keep=False):
        """Run and check one operation; an exception or a wrong output is a
        failure.  Only op.run is timed; `keep` adds the sample to the current
        cycle."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = op.run() if tracer is None else tracer.operation(op_id, op.run)
            elapsed = time.perf_counter() - start
            ok, work = op.check(result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"FAILED: {op.group} operation #{self.attempted}", file=sys.stderr)
        elif keep:
            self.cycles[-1][op.group].append((elapsed, work, start + elapsed / 2))

    def scale(self, sticks: list[tuple[float, float]]) -> None:
        """Replace each sample's midpoint time by its speed factor."""
        times = [t for t, _ in sticks]
        seconds = [s for _, s in sticks]
        for cycle in self.cycles:
            for samples in cycle.values():
                for i, (elapsed, work, mid) in enumerate(samples):
                    samples[i] = (elapsed, work, speed_factor(times, seconds, mid))


def set_up(workload_cls, seed: int, tally: Tally):
    """Import, generate inputs and run one warm-up operation, SETUP_REPEATS
    times, each after one yardstick; returns the last package and workload,
    and the median set-up time raw and at reference speed."""
    times, sticks = [], []
    for _ in range(SETUP_REPEATS):
        sticks.append(yardstick())
        start = time.perf_counter()
        cp = load_package()
        workload = workload_cls(cp, seed, OUT_DIR)
        tally.execute(workload.warmup())
        times.append(time.perf_counter() - start)
    raw = statistics.median(times)
    return cp, workload, raw, raw * REFERENCE_S / statistics.median(sticks)


def ops_rng(workload, seed: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}:ops")


def run_untraced(workload, seed: int, seconds: float, tally: Tally) -> None:
    """Whole cycles for at least `seconds` and at least the workload's
    min_cycles, with a yardstick between operations every INTERVAL_S and at
    both ends."""
    rng = ops_rng(workload, seed)
    sticks = []

    def stick() -> None:
        start = time.perf_counter()
        sticks.append((start, yardstick()))

    stick()
    start = time.perf_counter()
    while (
        len(tally.cycles) < workload.min_cycles
        or time.perf_counter() - start < seconds
    ):
        tally.new_cycle()
        for op in workload.cycle(rng):
            if time.perf_counter() - sticks[-1][0] >= INTERVAL_S:
                stick()
            tally.execute(op, keep=True)
    stick()
    tally.scale(sticks)


def pooled(cycles: list, scaled: bool) -> dict[str, list[tuple[float, float]]]:
    """Every cycle's (seconds, work) samples per group; `scaled` gives the
    seconds at reference speed."""
    out: dict[str, list] = defaultdict(list)
    for cycle in cycles:
        for group, samples in cycle.items():
            out[group] += [(s * f if scaled else s, w) for s, w, f in samples]
    return out


def figures(workload, tally: Tally):
    """({name: (at reference speed, raw, unit)}, slot values at reference
    speed) over the whole run."""
    named, slots = workload.metrics(pooled(tally.cycles, scaled=True))
    raw, _ = workload.metrics(pooled(tally.cycles, scaled=False))
    return {n: (v, raw[n][0], u) for n, (v, u) in named.items()}, slots


def run_traced(cp, workload, seed: int, tally: Tally) -> tuple[Tracer, dict]:
    """The workload's trace_cycles, untraced and then traced."""
    rng = ops_rng(workload, seed)
    ops = [op for _ in range(workload.trace_cycles) for op in workload.cycle(rng)]
    start = time.perf_counter()
    for op in ops:
        tally.execute(op)
    untraced = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(vars(cp), getattr(workload, "schemes", ()))
    tally.new_cycle()
    try:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tally.execute(op, tracer, i, keep=True)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()

    values: dict[str, float] = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update(tracer.counts)
    counts = tracer.counts
    atoms = sum(op.atoms for op in ops)
    values["verifier.atoms"] = atoms
    values["verifier.place_per_atom"] = (
        values.get("schemes.place.calls", 0) / atoms if atoms else 0.0
    )
    for ratio, base, useful in (
        ("search.filter_pass_ratio", "search.filter.calls", "search.filter.pass"),
        ("search.completion_ratio", "search.completion.calls", "search.completion.ok"),
    ):
        values[ratio] = counts[useful] / counts[base] if counts[base] else 0.0
    if hasattr(workload, "found"):
        for group, (found, _) in workload.found(pooled(tally.cycles, False)).items():
            values[f"search.{group}.found"] = found
    values["trace.overhead"] = traced / untraced
    values["trace.spans"] = tracer.span_count
    values["trace.absent"] = len(tracer.absent)
    for name in tracer.absent:
        print(f"absent hook: {name}", file=sys.stderr)
    return tracer, {
        name: values.get(name, 0.0 if unit == "s" else 0) for name, unit, _ in PER_LAYER
    }


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cachepriv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cachepriv" / "__init__.py").is_file():
        print(f"error: no cachepriv package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    tally = Tally()
    try:
        cp, workload, setup_raw, setup_s = set_up(workload_cls, args.seed, tally)
    except ImportError as exc:
        print(f"error: cannot import cachepriv: {exc}", file=sys.stderr)
        return 2

    context = machine()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in context.items()))
    report = {"workload": args.workload, "seed": args.seed, "machine": context}

    if args.trace:
        tracer, values = run_traced(cp, workload, args.seed, tally)
        spans_path = OUT_DIR / f"spans-{args.workload}.bin"
        tracer.write_spans(spans_path)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
        }
        print(f"spans {tracer.span_count} written to {spans_path.relative_to(ROOT)}")
        print(f"trace_overhead {values['trace.overhead']:.3f} (traced/untraced wall)")
    else:
        run_untraced(workload, args.seed, args.seconds, tally)
        named, slots = figures(workload, tally)
        metrics = {
            name: {"value": value, "unit": unit}
            for (name, unit), value in zip(END_TO_END, (*slots, setup_s))
        }
        cycles = len(tally.cycles)
        counts = {g: len(s) for g, s in sorted(pooled(tally.cycles, False).items())}
        print(
            f"cycles {cycles} samples "
            + " ".join(f"{g}={n}" for g, n in counts.items())
        )
        if hasattr(workload, "found"):
            found = workload.found(pooled(tally.cycles, False))
            print("found " + " ".join(f"{g}={f}/{n}" for g, (f, n) in found.items()))
            report["found"] = found
        print("figures at reference speed (raw wall-clock figure in brackets)")
        for name, (value, raw, unit) in named.items():
            print(f"{name} {value:.6g} {unit} ({raw:.6g})")
        print(f"setup_s {setup_s:.6g} s ({setup_raw:.6g}; median of {SETUP_REPEATS})")
        for name, group, need in TAILS:
            if name in named:
                have = counts.get(group, 0)
                verdict = "valid" if have >= need else "NOT VALID"
                print(f"note: {name} needs >= {need} {group} samples per run: {have}, {verdict}")
        report.update(
            cycles=cycles,
            samples=counts,
            named_metrics={n: {"value": v, "raw": r, "unit": u} for n, (v, r, u) in named.items()},
            setup_s_raw=setup_raw,
        )

    failed_frac = tally.failed / tally.attempted
    print(f"failed_frac {failed_frac:.6g} ({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    report.update(result, failed_frac=failed_frac)
    out = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
