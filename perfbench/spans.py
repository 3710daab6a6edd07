"""Per-layer tracing from outside the package.

Tracer.install() replaces the public entry points of each logicrel module with
wrappers, in every logicrel module namespace that holds them, and uninstall()
puts the originals back.  A wrapper records one span per call (function,
parent span, start, end) into flat arrays kept in memory, plus per-function
amounts: characters parsed, table rows built, stdout bytes emitted.  Nothing
is reduced while the pass runs; summarize() turns the spans into per-function
call counts, total time and self time (span time minus the time of its child
spans) once the pass has ended, and write() saves the raw spans.

Per-node helpers (children, subformulas_bottom_up, max_imp_depth,
eval_material) are left unwrapped: they recurse through their own module
globals, so wrapping them would record a span per tree node, and their time is
meant to count toward the caller's self time (letters() is its walk).
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# Public entry points per module, as "module.attribute" or "module.Class.method".
TRACED = (
    "parser.parse",
    "parser.render",
    "formula.letters",
    "formula.letter_sequence",
    "formula.Universe.of",
    "limits.max_letters",
    "semantics.truth_table",
    "semantics.eliminate_implications",
    "semantics.eval_relational",
    "semantics.gen_random_formula",
    "equivalence.default_universe",
    "equivalence.equivalent",
    "equivalence.entails",
    "equivalence.is_tautology",
    "equivalence.is_contradiction",
    "relation.implies_rel",
    "relation.criteria_report",
    "relation.classify_relation",
    "relation.paradox_formula",
    "relation.audit_paradoxes",
    "relation.verify_lattice",
    "relation.hasse_edges",
    "relation.proof_case_preconditions",
    "cli.build_parser",
    "cli.run",
)

# Amount summed at the boundary of a traced function: (key, from args and result).
AMOUNTS = {
    "parser.parse": ("chars", lambda args, result: len(args[0])),
    "semantics.truth_table": ("rows", lambda args, result: result.rows),
    "cli.run": ("stdout_bytes", lambda args, result: len(result[1].encode("utf-8"))),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.amounts: dict[str, int] = {}
        self._stack: list[int] = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        amount = AMOUNTS.get(name)
        if amount is not None:
            self.amounts[name] = 0
        stack, fns, parents, starts, ends = self._stack, self.fn, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if amount is not None:
                self.amounts[name] += amount[1](args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "logicrel" or key.startswith("logicrel.")]
        for spec in TRACED:
            module_name, _, attr = spec.partition(".")
            home = sys.modules.get(f"logicrel.{module_name}")
            if home is None:
                continue
            if "." in attr:  # a classmethod, patched on its class
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(method)
                if isinstance(raw, classmethod):
                    self._restore.append((cls, method, raw))
                    setattr(cls, method, classmethod(self._wrap(spec, raw.__func__)))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(spec, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Raw spans as gzipped TSV: function, parent span index (-1 for none), start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("function\tparent\tstart_s\tend_s\n")
            names = self.names
            for idx in range(len(self.start)):
                out.write(f"{names[self.fn[idx]]}\t{self.parent[idx]}\t{self.start[idx]:.9f}\t{self.end[idx]:.9f}\n")

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total_s, self_s and its AMOUNTS key, from the recorded spans."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.start)
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        for idx in range(len(starts)):
            duration = ends[idx] - starts[idx]
            fid = fns[idx]
            calls[fid] += 1
            total[fid] += duration
            parent = parents[idx]
            if parent >= 0:
                child[parent] += duration
        self_time = [0.0] * n
        for idx in range(len(starts)):
            self_time[fns[idx]] += (ends[idx] - starts[idx]) - child[idx]
        summary = {
            name: {"calls": calls[k], "total_s": total[k], "self_s": self_time[k]}
            for k, name in enumerate(self.names)
        }
        for name, value in self.amounts.items():
            summary[name][AMOUNTS[name][0]] = value
        return summary
