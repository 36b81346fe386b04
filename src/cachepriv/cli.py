"""Command-line interface.

Scheme names accepted everywhere a <scheme> argument appears:

  example1            private 2-file/2-user scheme at (M, R) = (1/3, 4/3)
  dual                private 2-file/2-user scheme at (M, R) = (4/3, 1/3)
  lowmem2x4           its non-private 4-virtual-user source, (1/3, 4/3)
  highmem2x4          the frozen search witness, (4/3, 1/3)
  thm1:N,K,M          identical-cache private scheme, rate min(N,K)*(1-M/N)
  baseline:N,K,M      non-private broadcast-everything baseline, rate N-M
  share:L:A:B         memory sharing of schemes A and B with prefix share L
  <path>              a linear scheme descriptor file

M and L parse as exact fractions ("1/3").
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
from fractions import Fraction

from .core import (
    DemandSubset,
    DemandVector,
    ParameterError,
    Privacy,
    SchemeError,
    SchemeInstance,
    cyclic_demand_set,
)
from .lift import (
    basic_private_scheme,
    high_memory_private_scheme,
    low_memory_private_scheme,
)
from .region import emit_region
from .schemes import (
    HIGH_MEMORY_SEARCH_SEED,
    high_memory_2x4_matrices,
    high_memory_2x4_scheme,
    low_memory_2x4_scheme,
    memory_share,
    uncoded_baseline,
)
from .search import (
    DEFAULT_TRIAL_BUDGET,
    check_search_target,
    compile_linear_scheme,
    export_descriptor,
    parse_descriptor,
    rank_filter_never_passes,
    search_linear_scheme,
)
from .session import simulate_session, transcript_to_bytes
from .verifier import Verdict, measure_rates, run_checks

DUAL_TARGET = (2, 4, 3, 4, 1)


class UnknownScheme(SchemeError):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParameterError(f"zero denominator in {text!r}") from None


def _parse_nkm(params: str) -> tuple[int, int, Fraction]:
    parts = params.split(",")
    if len(parts) != 3:
        raise UnknownScheme(f"expected N,K,M after the colon, got {params!r}")
    return int(parts[0]), int(parts[1]), _fraction(parts[2])


# descriptor texts whose parse and served set one process keeps, keyed by the
# whole text, so a file edited between calls is parsed again; errors are not
# kept
@functools.lru_cache(maxsize=64)
def _parse_descriptor_text(text: str) -> tuple:
    """(matrices, served set, name) of a descriptor text: the cyclic demand
    set when the deliveries list its members, else them in file order."""
    matrices, name = parse_descriptor(text)
    members = tuple(d for d, _ in matrices.deliveries)
    cyc = cyclic_demand_set(matrices.n_files, matrices.n_users // matrices.n_files)
    if set(members) == set(cyc.members):
        return matrices, cyc, name
    served = DemandSubset(matrices.n_files, matrices.n_users, members, "explicit")
    return matrices, served, name


def _load_descriptor(path: str) -> SchemeInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return compile_linear_scheme(*_parse_descriptor_text(fh.read()))


def resolve_scheme(token: str) -> SchemeInstance:
    if token == "example1":
        return low_memory_private_scheme()
    if token == "dual":
        return high_memory_private_scheme()
    if token == "lowmem2x4":
        return low_memory_2x4_scheme()
    if token == "highmem2x4":
        return high_memory_2x4_scheme()
    if token.startswith("thm1:"):
        return basic_private_scheme(*_parse_nkm(token[len("thm1:") :]))
    if token.startswith("baseline:"):
        return uncoded_baseline(*_parse_nkm(token[len("baseline:") :]))
    if token.startswith("share:"):
        rest = token[len("share:") :]
        lam_str, _, pair = rest.partition(":")
        if not pair:
            raise UnknownScheme(f"expected share:L:A:B, got {token!r}")
        lam = _fraction(lam_str)
        # the first colon split where both halves resolve wins
        positions = [i for i, ch in enumerate(pair) if ch == ":"]
        for i in positions:
            try:
                left = resolve_scheme(pair[:i])
                right = resolve_scheme(pair[i + 1 :])
            except (UnknownScheme, SchemeError, ValueError):
                continue
            return memory_share(left, right, lam)
        raise UnknownScheme(f"cannot split {pair!r} into two scheme names")
    if os.path.exists(token):
        return _load_descriptor(token)
    raise UnknownScheme(f"unknown scheme {token!r}")


def _open_out(path: str | None):
    """The --out file, opened for binary writing before the command's work,
    so that a path that cannot be written fails first.  As with a shell
    redirection, the file is created or emptied then, even if the command
    goes on to fail.  Without --out, a null context."""
    return contextlib.nullcontext() if path is None else open(path, "wb")


def _print_verdict(label: str, v: Verdict) -> None:
    status = "PASS" if v.passed else "FAIL"
    extra = f"{v.cases} cases"
    if v.mi_bits is not None:
        extra += f", MI={v.mi_bits:.6g} bits"
    print(f"{label}: {status} ({extra})")
    if v.counterexample is not None:
        print(f"  counterexample: {v.counterexample}")


def cmd_verify(args: argparse.Namespace) -> int:
    s = resolve_scheme(args.scheme)
    print(f"scheme: {s.describe()}")
    private = s.privacy is Privacy.PRIVATE
    users = range(s.n_users) if args.user is None else (args.user,)
    verdicts = run_checks(
        s,
        args.width,
        args.budget,
        users=users if private else (),
        invariance=private and s.n_files == 2 and s.n_users == 2,
    )
    for label, v in verdicts.items():
        _print_verdict(label, v)
    if not private:
        print("privacy: skipped (non-private scheme)")
    ok = all(v.passed for v in verdicts.values())
    print("overall: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_measure(args: argparse.Namespace) -> int:
    s = resolve_scheme(args.scheme)
    m, r, header_bits = measure_rates(s, args.width)
    print(f"M={m} R={r} header_bits={header_bits}")
    return 0


def cmd_region(args: argparse.Namespace) -> int:
    csv_path, svg_path = emit_region(args.out, _fraction(args.step))
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    target = tuple(int(x) for x in args.target.split(","))
    if len(target) != 5:
        raise ParameterError("target must be files,users,t,cache_dim,tx_dim")
    default = (DUAL_TARGET, HIGH_MEMORY_SEARCH_SEED, "restart")
    if args.regen and (target, args.seed, args.strategy) != default:
        raise ParameterError(
            "--regen re-derives the committed witness: it takes the default "
            "--target, --seed and --strategy only"
        )
    n_files, n_users, t, cache_dim, tx_dim = target
    check_search_target(n_files, n_users, t, args.budget)
    if n_users % n_files:
        raise ParameterError("user count must be a multiple of the file count")
    demands = cyclic_demand_set(n_files, n_users // n_files)
    # --regen compares with the committed matrices and writes no file
    with _open_out(None if args.regen else args.out) as out:
        started = time.perf_counter()
        found = search_linear_scheme(
            n_files,
            n_users,
            t,
            cache_dim,
            tx_dim,
            demands,
            strategy=args.strategy,
            seed=args.seed,
            budget=args.budget,
        )
        elapsed = time.perf_counter() - started
        if found is None and rank_filter_never_passes(demands, t, cache_dim, tx_dim):
            print(
                "no scheme found: the target was refused before the first trial, "
                "as some user's cache is too small for the rank filter ever to pass"
            )
            return 1
        if found is None:
            print(f"no scheme found within {args.budget} trials ({elapsed:.1f}s)")
            return 1
        print(
            f"found (M, R) = ({found.memory}, {found.rate}) scheme "
            f"in {elapsed:.1f}s", file=sys.stderr,
        )
        if args.regen:
            committed = high_memory_2x4_matrices()
            if (
                found.cache_rows == committed.cache_rows
                and found.deliveries == committed.deliveries
            ):
                print("witness reproduced: search output matches the committed matrices")
                return 0
            print("witness MISMATCH against the committed matrices", file=sys.stderr)
            print(export_descriptor(found, "regenerated"), file=sys.stderr)
            return 1
        text = export_descriptor(found, f"search-{'-'.join(map(str, target))}")
        if out is not None:
            out.write(text.encode("utf-8"))
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    s = resolve_scheme(args.scheme)
    entries = tuple(int(x) for x in args.demands.split(","))
    demand = DemandVector(s.n_files, entries)
    with _open_out(args.out) as out:
        t = simulate_session(s, demand, args.seed, args.width)
        for p in t.placements:
            print(f"placement user={p.user} key={p.key} cache_bits={p.cache_bits}")
        d = t.delivery
        print(f"delivery header_bits={d.header_bits} payload_bits={d.payload_bits}")
        for r in t.reports:
            status = "ok" if r.matched else "MISMATCH"
            print(f"decode user={r.user} file={r.file_index} {status}")
        if out is not None:
            out.write(transcript_to_bytes(t))
            print(f"wrote {args.out}")
    return 0 if t.all_matched else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args leaves it
    unchanged and formats help and usage text when it prints them, so every
    main call can share it."""
    parser = argparse.ArgumentParser(
        prog="cachepriv",
        description="Demand-private coded caching: verify, measure, search, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="exhaustive decodability and privacy checks")
    p.add_argument("scheme")
    p.add_argument("--width", type=int, default=1, help="subfile bits (default 1)")
    p.add_argument("--user", type=int, default=None, help="check one user only")
    p.add_argument("--budget", type=int, default=None, help="atom budget override")

    p = sub.add_parser("measure", help="report exact (M, R, header bits)")
    p.add_argument("scheme")
    p.add_argument("--width", type=int, default=1)

    p = sub.add_parser("region", help="emit the 2x2 trade-off as CSV and SVG")
    p.add_argument("--step", default="1/6", help="boundary sample step (default 1/6)")
    p.add_argument("--out", default="region", help="output path prefix")

    p = sub.add_parser("search", help="search for a linear cyclic-demand scheme")
    p.add_argument(
        "--target",
        default=",".join(map(str, DUAL_TARGET)),
        help="files,users,t,cache_dim,tx_dim",
    )
    p.add_argument("--seed", type=int, default=HIGH_MEMORY_SEARCH_SEED)
    p.add_argument("--budget", type=int, default=DEFAULT_TRIAL_BUDGET)
    p.add_argument("--strategy", default="restart", choices=["restart", "exhaustive"])
    p.add_argument(
        "--regen",
        action="store_true",
        help="re-derive the committed high-memory witness and compare",
    )
    p.add_argument("--out", default=None, help="write the descriptor to a file")

    p = sub.add_parser("simulate", help="run one seeded session end to end")
    p.add_argument("scheme")
    p.add_argument("--demands", required=True, help="comma-separated demand vector")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--out", default=None, help="write the binary transcript")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up by name on each call, so a cmd_* function replaced on the
    # module after the parser was built is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (UnknownScheme, ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
