"""Per-layer tracing from outside the program.

The tracer wraps every public module-level function of each lyndonbar module
(a layer), apart from the per-term helpers in ``NOT_TRACED``, and swaps the wrapper in at every name the function is bound to:
module globals (so calls inside the module are seen too), re-exports such as
``from .bar import hain_projector``, and references held in module-level
dicts and dataclass instances (``verify.SUITES``, ``lifts.VARIANTS``).
``uninstall`` puts the originals back, so untraced rounds run the program as
it is.

Each call gets a span.  Self time is the span's duration minus the time of
the spans it caused.  Every span is counted per function; spans that cross
a layer boundary (caller in another module, or called by the benchmark) are
also kept whole, with the span that caused them and the request they belong
to, and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
from pathlib import Path
from time import perf_counter

# Per-term helpers, each called tens of thousands to millions of times per
# round for microseconds of work: wrapping them would make the trace measure
# itself.  Their time counts as self time of the function that calls them.
NOT_TRACED = frozenset(
    {
        "linalg.add_term",
        "bar.shuffle",
        "bar.check_element",
        "bar.bar_degree",
        "colie.wedge_add",
        "colie.wedge_coefficient",
        "colie.basis_of",
        "words.check_word",
        "words.is_lyndon",
    }
)


def _is_target(modname: str, name: str, obj) -> bool:
    if name.startswith("_") or isinstance(obj, type):
        return False
    if not isinstance(obj, types.FunctionType) and not hasattr(obj, "__wrapped__"):
        return False
    return callable(obj) and getattr(obj, "__module__", None) == modname


class Tracer:
    def __init__(self, program) -> None:
        self.program = program
        self.targets: dict[int, tuple[str, object]] = {}
        self.functions: dict[str, list] = {}
        for modname, mod in program.modules.items():
            layer = modname.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                qual = f"{layer}.{name}"
                if _is_target(modname, name, obj) and qual not in NOT_TRACED:
                    self.targets[id(obj)] = (qual, obj)
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.solves: list[tuple[int, int, int, bool]] = []  # unknowns, equations, nnz, feasible
        self.fallbacks = 0
        self.request = None  # set by the benchmark around each timed call
        self.next_id = 0
        self.wrappers = {key: self._wrap(qual, fn) for key, (qual, fn) in self.targets.items()}
        self.patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tracer = self
        # calls, self seconds, inclusive seconds of outermost calls, recursion depth
        stats = self.functions[name] = [0, 0.0, 0.0, 0]
        is_solve = name == "linalg.solve_affine"
        is_oracle = name == "lifts.closed_lift_oracle"
        is_lift = name == "lifts.lift_LB"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:  # outside a timed call: the benchmark's own checks
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tag = None
            if is_solve:
                # work sizes come from the arguments; materialize them first
                eqs = list(args[0] if args else kwargs.pop("equations"))
                var_order = args[1] if len(args) > 1 else kwargs.pop("var_order")
                args = (eqs, var_order)
                tag = (len(var_order), len(eqs), sum(len(row) for row, _ in eqs))
            elif is_lift:
                tag = args[2] if len(args) > 2 else kwargs.get("method", "auto")
            elif is_oracle and parent is not None and parent[0] == "lifts.lift_LB" and parent[5] == "auto":
                tracer.fallbacks += 1
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            if parent is None:
                kept, kept_parent = True, None
            else:
                kept = parent[1] != layer
                kept_parent = parent[2] if parent[4] else parent[3]
            # name, layer, span id, nearest kept ancestor, kept?, tag, child seconds
            frame = [name, layer, span_id, kept_parent, kept, tag, 0.0]
            stack.append(frame)
            stats[3] += 1
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                stats[3] -= 1
                dur = end - start
                self_s = dur - frame[6]
                stats[0] += 1
                stats[1] += self_s
                if not stats[3]:
                    stats[2] += dur
                if parent is not None:
                    parent[6] += dur
                if kept:
                    tracer.spans.append((span_id, kept_parent, tracer.request, name, start, end, self_s))
                if is_solve:
                    tracer.solves.append(tag + (result is not None and result[0] is not None,))

        return traced

    # -- swapping the wrappers in and out ------------------------------------

    def _bindings(self):
        """(container, key, value) for every place a function can be bound."""
        for mod in self.program.modules.values():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                yield namespace, key, value
                if isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        yield value, k, v

    def _replacement(self, value):
        """What ``value`` becomes with the wrappers in, or None if unchanged."""
        table = self.wrappers
        if id(value) in table:
            return table[id(value)]
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            changes = {
                f.name: table[id(getattr(value, f.name))]
                for f in dataclasses.fields(value)
                if id(getattr(value, f.name)) in table
            }
            if changes:
                return dataclasses.replace(value, **changes)
        return None

    def install(self) -> None:
        if self.patches:
            return
        for container, key, value in self._bindings():
            new = self._replacement(value)
            if new is not None:
                container[key] = new
                self.patches.append((container, key, value, new))
        missed = self.unwrapped_bindings()
        if missed:
            self.uninstall()
            raise AssertionError(f"traced functions still bound unwrapped at: {missed}")

    def uninstall(self) -> None:
        for container, key, original, _ in reversed(self.patches):
            container[key] = original
        self.patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Names that still reach an original function; empty once installed."""
        missed = []
        for container, key, value in self._bindings():
            values = [value]
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                values += [getattr(value, f.name) for f in dataclasses.fields(value)]
            if isinstance(value, (list, tuple)):
                values += list(value)
            if isinstance(value, types.FunctionType):
                values += list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
            if any(id(v) in self.targets and self.targets[id(v)][1] is v for v in values):
                missed.append(str(key))
        return missed

    # -- results -------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Write the kept spans and the per-function totals as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["span_fields"] = ["id", "parent", "request", "name", "start_s", "end_s", "self_s"]
        doc["spans"] = self.spans
        doc["functions"] = {
            k: {"calls": v[0], "self_s": v[1], "incl_s": v[2]} for k, v in sorted(self.functions.items()) if v[0]
        }
        doc["solves"] = [list(s) for s in self.solves]
        with open(path, "w") as fh:
            json.dump(doc, fh)
