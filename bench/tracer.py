"""Span tracing of cachepriv from outside the package.

The tracer replaces layer entry points (module functions, class methods and
the place/deliver/decode callables of every SchemeInstance) with wrappers
that record one span per call: name, start, end, parent span and operation
id.  Spans are kept in compact arrays and written out when the run ends.
Only calls made while a benchmark operation runs are recorded, so set-up
and output checks stay out of the figures.  A call whose innermost open
span already has the same name (a lifted
scheme's place calling its source scheme's place, AtomSpace.atom calling
FileStore.from_index) is folded into that span, so each layer counts one
call per outer entry.

Hooks name private functions too.  One that a later version of the package
no longer has is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array
from collections import Counter

# (module, attribute path, span name); attribute paths with a dot are methods
SPAN_HOOKS = [
    ("verifier", "AtomSpace.atom", "core.atom"),
    ("core", "FileStore.from_index", "core.atom"),
    ("core", "pack_symbols", "core.pack"),
    ("verifier", "_observable", "verifier.observable"),
    ("verifier", "_encode_ints", "verifier.observable"),
    ("verifier", "JointDistribution.from_pairs", "verifier.count"),
    ("verifier", "JointDistribution.first_violation", "verifier.independence"),
    ("verifier", "JointDistribution.mutual_information_bits", "verifier.mi"),
    ("verifier", "check_decodability", "verifier.check"),
    ("verifier", "check_privacy", "verifier.check"),
    ("verifier", "privacy_table", "verifier.check"),
    ("verifier", "check_conditional_invariance", "verifier.check"),
    ("search", "search_linear_scheme", "search.search"),
    ("search", "verify_linear", "search.verify_linear"),
    ("search", "compile_linear_scheme", "search.compile"),
    ("session", "simulate_session", "session.simulate"),
    ("session", "run_session", "session.run"),
    ("session", "transcript_to_bytes", "session.encode"),
    ("session", "parse_transcript", "session.parse"),
    ("cli", "resolve_scheme", "cli.resolve"),
    ("cli", "cmd_verify", "cli.verify"),
] + [
    ("gf2", fn, f"gf2.{fn}")
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
]

# generators: every next() is a span, and each item yielded is counted
GENERATOR_HOOKS = [("gf2", "iter_subspaces", "gf2.iter_subspaces")]

# (module, function, counter, useful result): counts calls and useful
# outcomes only, so the time stays with the enclosing search span
OUTCOME_HOOKS = [
    ("search", "_user_feasible", "search.filter", ".pass", bool),
    ("search", "_try_placements", "search.completion", ".ok", lambda r: r is not None),
]

# transcript bytes written (encode result) and read (parse argument)
BYTE_COUNTS = {
    "session.encode": lambda args, result: len(result),
    "session.parse": lambda args, result: len(args[0]),
}

SCHEME_CALLABLES = ("place", "deliver", "decode")


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall()
    restores everything it patched."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op_id = -1
        self.active = False
        self._stack: list[tuple[int, int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        if not self.active or (stack and stack[-1][1] == nid):
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append((idx, nid))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def span_wrapper(self, name: str, fn):
        nid = self._id(name)
        call = self.call
        byte_count = BYTE_COUNTS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(nid, fn, args, kwargs)
            if byte_count is not None and self.active:
                counts[name + ".bytes"] += byte_count(args, result)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def operation(self, op_id: int, fn):
        """Run one benchmark operation as a root span."""
        self.op_id = op_id
        self.active = True
        try:
            return self.call(self._id("op"), fn, (), {})
        finally:
            self.active = False

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, package: dict, original, replacement) -> None:
        """Rebind every module global of the package that names original,
        so `from .x import f` copies are traced too."""
        for mod in package.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _resolve(self, package: dict, module: str, path: str):
        owner = package.get(module)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or parts[-1] not in vars(owner):
            self.absent.append(f"{module}.{path}")
            return None, None
        return owner, parts[-1]

    def _wrap_callable(self, package, module, path, make):
        owner, attr = self._resolve(package, module, path)
        if owner is None:
            return
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make(raw.__func__)))
            else:
                self._set(owner, attr, make(raw))
        else:
            self._replace_everywhere(package, raw, make(raw))

    def install(self, package: dict, instances=()) -> None:
        """Patch the modules in package ({short name: module}); also wrap the
        callables of SchemeInstance objects built before install()."""
        for module, path, name in SPAN_HOOKS:
            self._wrap_callable(
                package, module, path, lambda fn, n=name: self.span_wrapper(n, fn)
            )
        for module, path, name in GENERATOR_HOOKS:
            self._wrap_callable(
                package, module, path, lambda fn, n=name: self._generator(n, fn)
            )
        for module, path, counter, suffix, useful in OUTCOME_HOOKS:
            self._wrap_callable(
                package,
                module,
                path,
                lambda fn, c=counter, s=suffix, u=useful: self._outcome(c, s, u, fn),
            )
        self._trace_schemes(package, instances)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, (type, types.ModuleType)):
                setattr(owner, attr, value)
            else:
                object.__setattr__(owner, attr, value)
        self._restore.clear()

    def _generator(self, name: str, fn):
        nid = self._id(name)
        counts = self.counts
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = call(nid, next, (gen,), {})
                except StopIteration:
                    return
                counts[name + ".yielded"] += self.active
                yield item

        return wrapper

    def _outcome(self, counter: str, suffix: str, useful, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                counts[counter + ".calls"] += 1
                counts[counter + suffix] += useful(result)
            return result

        return wrapper

    def _trace_schemes(self, package: dict, instances) -> None:
        cls = package["core"].SchemeInstance
        original = cls.__dict__.get("__post_init__")
        tracer = self

        def wrap_instance(inst) -> None:
            for attr in SCHEME_CALLABLES:
                fn = getattr(inst, attr)
                if not getattr(fn, "__bench_traced__", False):
                    object.__setattr__(
                        inst, attr, tracer.span_wrapper(f"schemes.{attr}", fn)
                    )

        def post_init(inst) -> None:
            original(inst)
            wrap_instance(inst)

        # the dataclass __init__ calls __post_init__ only if the class has one
        if original is None:
            self.absent.append("core.SchemeInstance.__post_init__")
        else:
            self._set(cls, "__post_init__", post_init)
        for inst in instances:
            for attr in SCHEME_CALLABLES:
                self._restore.append((inst, attr, getattr(inst, attr)))
            wrap_instance(inst)

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)}; self time is the span minus
        the time its child spans cover."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = name_id[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {
            name: (calls[i], self_s[i]) for i, name in enumerate(self.names)
        }

    def write_spans(self, path) -> None:
        """One JSON header line ({"names", "count", "arrays"}), then each
        array in that order as raw native-endian values (array.tofile), so
        array.fromfile reads them back."""
        arrays = ("name_id", "parent", "op", "start", "end")
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [[a, getattr(self, a).typecode] for a in arrays],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                getattr(self, a).tofile(fh)
