"""Paired in-process timing of cachepriv CLI calls in two checkouts.

    python3 tools/paired.py A_DIR B_DIR [--repeat N] -- ARGV... [-- ARGV...]

Each ARGV is one cachepriv command line, such as `verify thm1:4,2,0`.  The
script imports A_DIR/src/cachepriv and B_DIR/src/cachepriv side by side, as
the packages cachepriv_a and cachepriv_b (the package's own imports are all
relative), and runs every call in both through cli.main.  Each call runs
once untimed on each side first, and its stdout and exit code must be the
same on both; then every call is timed N times on each side, the two sides
alternating (A first on even repetitions, B first on odd), so that a drift
in the host's speed falls on both sides of a pair alike.  Every timed run's
stdout and exit code must be those of the call's first run, so that a
process-wide memo warmed by earlier calls cannot change an output unseen.

Before the calls, it times a fresh import of each side N times, alternating
the sides in the same way: it drops that side's cachepriv_a.* or
cachepriv_b.* modules and imports its cli again, and the calls then run on
the last import.  With PYTHONDONTWRITEBYTECODE=1 and no bytecode cached,
every such import compiles each source, as a first run from a fresh
checkout does.

Prints a first `fresh import` row, then per call the median milliseconds
on each side and the median of the paired ratios B/A, then the median
paired ratio over every call and repetition, the import row not included.
Exits 1 when a call's stdout or exit code differs between the sides or
from its first run, and 2 on a usage error.  Uses the standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path


def load_cli(root: str, name: str):
    """The cli module of root's src/cachepriv, imported as package name."""
    init = Path(root).resolve() / "src" / "cachepriv" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def reload_cli(root: str, name: str) -> tuple[object, float]:
    """(cli, seconds) of a fresh import of root's package as name: every
    module of that package is dropped from sys.modules first."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    started = time.perf_counter()
    cli = load_cli(root, name)
    return cli, time.perf_counter() - started


def run(cli, argv: list[str]) -> tuple[object, str, float]:
    """(exit code, stdout, seconds) of one cli.main call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - started
    return code, out.getvalue(), elapsed


def split_calls(words: list[str]) -> list[list[str]]:
    """The command lines between the -- separators, empty ones dropped."""
    calls, current = [], []
    for word in words:
        if word == "--":
            calls.append(current)
            current = []
        else:
            current.append(word)
    calls.append(current)
    return [call for call in calls if call]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: paired.py A_DIR B_DIR [--repeat N] -- ARGV...", file=sys.stderr)
        return 2
    head = argv.index("--")
    parser = argparse.ArgumentParser(prog="paired.py")
    parser.add_argument("a_dir")
    parser.add_argument("b_dir")
    parser.add_argument("--repeat", type=int, default=11)
    args = parser.parse_args(argv[:head])
    calls = split_calls(argv[head:])
    if not calls or args.repeat < 1:
        parser.error("give at least one call and a positive --repeat")
    roots = (args.a_dir, "cachepriv_a"), (args.b_dir, "cachepriv_b")
    sides = [load_cli(*root) for root in roots]  # untimed: loads the stdlib
    imports: tuple[list[float], list[float]] = ([], [])
    for rep in range(args.repeat):
        for side in (0, 1) if rep % 2 == 0 else (1, 0):
            sides[side], elapsed = reload_cli(*roots[side])
            imports[side].append(elapsed)

    first = []  # per call, the (exit code, stdout) of its untimed runs
    for call in calls:
        (code_a, out_a, _), (code_b, out_b, _) = (run(cli, call) for cli in sides)
        if (code_a, out_a) != (code_b, out_b):
            print(f"differs: {' '.join(call)}", file=sys.stderr)
            print(f"A exit {code_a}:\n{out_a}B exit {code_b}:\n{out_b}", file=sys.stderr)
            return 1
        first.append((code_a, out_a))

    times: list[tuple[list[float], list[float]]] = [([], []) for _ in calls]
    for rep in range(args.repeat):
        for call, (t_a, t_b), want in zip(calls, times, first):
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            for side in order:
                code, out, elapsed = run(sides[side], call)
                if (code, out) != want:
                    name = "AB"[side]
                    print(f"changed: {' '.join(call)} on {name}", file=sys.stderr)
                    print(
                        f"first exit {want[0]}:\n{want[1]}"
                        f"{name} timed run {rep + 1} exit {code}:\n{out}",
                        file=sys.stderr,
                    )
                    return 1
                (t_a, t_b)[side].append(elapsed)

    width = max(len("fresh import"), *(len(" ".join(call)) for call in calls))

    def row(label: str, t_a: list[float], t_b: list[float]) -> list[float]:
        paired = [b / a for a, b in zip(t_a, t_b)]
        print(
            f"{label:<{width}}  {statistics.median(t_a) * 1e3:>10.3f}  "
            f"{statistics.median(t_b) * 1e3:>10.3f}  {statistics.median(paired):>6.3f}"
        )
        return paired

    print(f"{'call':<{width}}  {'A ms':>10}  {'B ms':>10}  {'B/A':>6}")
    row("fresh import", *imports)
    ratios = []
    for call, (t_a, t_b) in zip(calls, times):
        ratios += row(" ".join(call), t_a, t_b)
    print(
        f"median paired ratio B/A over {len(calls)} calls x {args.repeat} "
        f"repetitions: {statistics.median(ratios):.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
