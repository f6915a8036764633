"""Call tracing for the traced benchmark run, from outside the program.

`Tracer.install` wraps every public function of the listed modules,
every public method of their public classes, a few constructors and the
five `Simulation` phase methods.  A module-level function is replaced
under every name that refers to it in any listed module, because
`simnet` and others import many names directly (`advance_vehicle`,
`sign_observation`, `decide_relay`, ...) and look them up in their own
namespace.  The hashing helpers `crypto.sha256` and `crypto.hmac_sha256`
stay unwrapped to keep the overhead small.

Spans are aggregated in memory as they close: per target the call count,
the self time (the span minus the wrapped spans it encloses) and how
often it returned something other than None; per (caller, callee) pair
the call count and inclusive time, so callers can be counted.  Probes
run code of the benchmark's own around a target; their time is kept out
of every span and reported as `probe_s`.

Every name or prefix a reader looks up and finds no target for is kept
in `unmatched`: a metric read from a function the program no longer has
would read 0, and the traced run fails on it instead.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable

UNWRAPPED = {"crypto.sha256", "crypto.hmac_sha256"}
SIM = "simnet.Simulation."
PHASES = ("_script_step", "_mobility_step", "_adjacency", "_delivery_step", "_node_step")
EXTRA_METHODS = {
    "simnet.Simulation": ("__init__",) + PHASES,
    "auth.AuthInitiator": ("__init__",),
    "auth.AuthResponder": ("__init__",),
}


class Tracer:
    def __init__(self) -> None:
        # target -> [calls, self seconds, results other than None]
        self.records: dict[str, list] = {}
        # caller -> callee -> [calls, inclusive seconds]
        self.children: dict[str, dict[str, list]] = {"": {}}
        self.probe_s = 0.0
        self.targets: list[str] = []
        self.unmatched: set[str] = set()
        # open spans: [seconds of enclosed spans, that span's children table]
        self._stack: list[list] = [[0.0, self.children[""]]]
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self, modules, probes: dict[str, tuple[Callable | None, Callable | None]]
                | None = None) -> list[str]:
        """Wrap the targets of `modules`; `probes` maps a target to a
        (before(*args), after(result, *args)) pair of callables.  Returns
        the probed targets that do not exist, which go unprobed."""
        probes = probes or {}
        short = {m: m.__name__.rsplit(".", 1)[-1] for m in modules}
        for module in modules:
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short[module]}.{attr}"
                if inspect.isfunction(obj) and name not in UNWRAPPED:
                    wrapped = self._wrap(name, obj, *probes.get(name, (None, None)))
                    for holder in modules:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._replace(holder, key, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(name, obj, probes)
        return sorted(set(probes) - set(self.targets))

    def _install_class(self, name: str, cls: type, probes) -> None:
        wanted = [a for a in vars(cls) if not a.startswith("_")]
        wanted += [a for a in EXTRA_METHODS.get(name, ()) if a in vars(cls)]
        for attr in wanted:
            raw = vars(cls)[attr]
            target = f"{name}.{attr}"
            before, after = probes.get(target, (None, None))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(target, raw.__func__, before, after))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(target, raw, before, after)
            else:
                continue          # properties and plain attributes
            self._replace(cls, attr, wrapped)

    def _replace(self, holder, key: str, value) -> None:
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- spans -----------------------------------------------------------------

    def _probe(self, fn: Callable, *args) -> None:
        start = time.perf_counter()
        fn(*args)
        spent = time.perf_counter() - start
        self.probe_s += spent
        self._stack[-1][0] += spent      # not the caller's own work either

    def _wrap(self, name: str, fn: Callable, before: Callable | None = None,
              after: Callable | None = None) -> Callable:
        self.targets.append(name)
        record = self.records[name] = [0, 0.0, 0]
        children = self.children[name] = {}
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0, children]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += spent - frame[0]
                caller = stack[-1]
                caller[0] += spent
                edge = caller[1].get(name)
                if edge is None:
                    edge = caller[1][name] = [0, 0.0]
                edge[0] += 1
                edge[1] += spent
            if result is not None:
                record[2] += 1
            return result

        if before is None and after is None:
            return functools.wraps(fn)(span)
        probe = self._probe

        def probed(*args, **kwargs):
            if before is not None:
                probe(before, *args)
            result = span(*args, **kwargs)
            if after is not None:
                probe(after, result, *args)
            return result

        return functools.wraps(fn)(probed)

    # -- reading ------------------------------------------------------------------

    def _record(self, name: str) -> list:
        if name not in self.records:
            self.unmatched.add(name)
            return [0, 0.0, 0]
        return self.records[name]

    def calls(self, name: str) -> int:
        return self._record(name)[0]

    def self_s(self, name: str) -> float:
        return self._record(name)[1]

    def non_none(self, name: str) -> int:
        return self._record(name)[2]

    def total_self(self, prefixes: tuple[str, ...]) -> float:
        """Self time of every target whose name starts with one of `prefixes`."""
        total = 0.0
        for prefix in prefixes:
            matched = [r[1] for n, r in self.records.items() if n.startswith(prefix)]
            if not matched:
                self.unmatched.add(prefix + "*")
            total += sum(matched)
        return total

    def summary(self) -> dict:
        """Every target and every caller-callee pair, costliest first."""
        by_self = sorted(self.records.items(), key=lambda kv: -kv[1][1])
        edges = [(caller or "-", callee, calls, incl)
                 for caller, table in self.children.items()
                 for callee, (calls, incl) in table.items()]
        edges.sort(key=lambda e: -e[3])
        return {
            "targets": len(self.targets),
            "probe_s": self.probe_s,
            "self_time": [{"target": n, "calls": c, "self_s": s, "non_none": k}
                          for n, (c, s, k) in by_self if c],
            "call_edges": [{"caller": c, "callee": n, "calls": k, "incl_s": s}
                           for c, n, k, s in edges],
        }

    def callers(self, callee: str) -> dict[str, int]:
        """Calls of `callee` by each wrapped caller ("-" outside any span)."""
        return {caller or "-": table[callee][0]
                for caller, table in self.children.items() if callee in table}
