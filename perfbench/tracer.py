"""Per-layer tracing by wrapping module attributes of the nashtoric package.

A ``Tracer`` replaces each traced function with a wrapper that records a
span (name, parent span, start, end) and, where a layer has one, an item
count taken from the call's arguments and result.  Every module of the
package that binds the same function object is patched, because
``from .canonical import canonical_cone`` gives ``blowup``, ``digraph`` and
``sampling`` bindings of their own.  Spans stay in memory, one list per
thread, and are reduced to per-layer metrics after the traced pass.

A span opened in a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent, so expansions run
by the thread pool of ``resolution_subgraph`` count as its children.
Self time is a span's duration minus the part of it that its child spans
cover.  A traced name that the package no longer defines is reported as
absent and its metrics read 0.
"""

import importlib
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "nashtoric"


def _enumerate_bases_items(args, kwargs, result):
    return {"bases": len(result)}


def _basis_sums_items(args, kwargs, result):
    return {"sums": len(result)}


def _pareto_items(args, kwargs, result):
    return {"points_in": len(tuple(args[0])), "points_kept": len(result)}


def _vertices_items(args, kwargs, result):
    return {"points": len(args[0].points), "vertices": len(result)}


def _nash_children_items(args, kwargs, result):
    return {"children": len(result)}


def _minimalize_items(args, kwargs, result):
    return {"gens_in": len(args[0]), "gens_kept": len(result)}


def _save_items(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, layer name, item counter or None).  An attribute
# "Class.method" wraps a method of a class defined in the module.
TRACED = (
    ("blowup", "enumerate_bases", "blowup.enumerate_bases", _enumerate_bases_items),
    ("blowup", "basis_sums", "blowup.basis_sums", _basis_sums_items),
    ("blowup", "_pareto_filter", "blowup.pareto_filter", _pareto_items),
    ("blowup", "nash_children", "blowup.nash_children", _nash_children_items),
    ("cones", "LatticePolyhedron.vertices", "cones.vertices", _vertices_items),
    ("cones", "feasible_cone", "cones.feasible_cone", None),
    ("cones", "dual_description", "cones.dual_description", None),
    ("canonical", "canonical_cone", "canonical.canonical_cone", None),
    ("canonical", "canonical_semigroup", "canonical.canonical_semigroup", None),
    ("semigroups", "_minimalize", "semigroups.minimalize", _minimalize_items),
    ("semigroups", "hilbert_basis", "semigroups.hilbert_basis", None),
    ("digraph", "_compute_children", "digraph.compute_children", None),
    ("digraph", "resolution_subgraph", "digraph.resolution_subgraph", None),
    ("digraph", "DigraphStore.save", "digraph.save", _save_items),
    ("digraph", "DigraphStore.load", "digraph.load", None),
    ("digraph", "find_cycles", "digraph.find_cycles", None),
    ("sampling", "_random_semigroup", "sampling.draw", None),
    ("sampling", "_random_cone", "sampling.draw", None),
)

# Counted, not timed: one call per node of the canonical-form search.
COUNTED = (("canonical", "_place_column", "canonical.place_column"),)


class _ThreadState:
    __slots__ = ("stack", "spans", "calls", "items")

    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.items: Counter = Counter()


class Tracer:
    """Context manager that patches the traced layers while it is active."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._main = self._state()
        self._next_id = itertools.count(1).__next__
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, item_counter):
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            else:
                main_stack = self._main.stack
                parent = main_stack[-1] if main_stack else None
            span_id = self._next_id()
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                state.spans.append((span_id, parent, name, start, end))
                state.calls[name] += 1
            if item_counter is not None:
                for key, value in item_counter(args, kwargs, result).items():
                    state.items[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self._state().calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, module_name, attr, make_wrapper) -> bool:
        """Wrap one traced name; False when the package no longer has it."""
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ModuleNotFoundError:
            return False
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(method)
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                self._set(cls, method, classmethod(make_wrapper(raw.__func__)))
            else:
                self._set(cls, method, make_wrapper(raw))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for bound_name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, bound_name, wrapper)
        return True

    def __enter__(self):
        importlib.import_module(PACKAGE)
        targets = [
            (module_name, attr, lambda fn, name=name, ic=ic: self._timed(name, fn, ic))
            for module_name, attr, name, ic in TRACED
        ]
        targets += [
            (module_name, attr, lambda fn, name=name: self._counted(name, fn))
            for module_name, attr, name in COUNTED
        ]
        for module_name, attr, make_wrapper in targets:
            if not self._patch(module_name, attr, make_wrapper):
                self.absent.append(f"{PACKAGE}.{module_name}.{attr}")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- reduction --------------------------------------------------------

    def _total(self, counter: str) -> Counter:
        total = Counter()
        for state in self._states:
            total.update(getattr(state, counter))
        return total

    def calls(self) -> Counter:
        return self._total("calls")

    def items(self) -> Counter:
        return self._total("items")

    def spans(self) -> list[tuple]:
        return [span for state in self._states for span in state.spans]

    def self_times(self) -> dict[str, float]:
        """Total self time per layer name, in seconds."""
        spans = self.spans()
        children = defaultdict(list)
        for _, parent, _, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in spans:
            out[name] += (end - start) - _covered(start, end, children[span_id])
        return out

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of spans called name that have a span called ancestor
        among their ancestors."""
        spans = self.spans()
        by_id = {span_id: (parent, span_name) for span_id, parent, span_name, _, _ in spans}
        count = 0
        for _, parent, span_name, _, _ in spans:
            if span_name != name:
                continue
            while parent is not None:
                parent, parent_name = by_id[parent]
                if parent_name == ancestor:
                    count += 1
                    break
        return count


def _covered(start, end, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    covered = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            covered += b - a
            reach = b
    return covered


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, better).  Units are "count", "s" or
# "ratio"; a ratio is useful outcomes over attempts.
LAYER_METRICS = (
    ("blowup.enumerate_bases.calls", "count", "lower"),
    ("blowup.enumerate_bases.self_s", "s", "lower"),
    ("blowup.enumerate_bases.bases", "count", "lower"),
    ("blowup.basis_sums.self_s", "s", "lower"),
    ("blowup.basis_sums.sums", "count", "lower"),
    ("blowup.pareto_filter.self_s", "s", "lower"),
    ("blowup.pareto_filter.kept_ratio", "ratio", "higher"),
    ("cones.vertices.calls", "count", "lower"),
    ("cones.vertices.self_s", "s", "lower"),
    ("cones.vertices.vertex_ratio", "ratio", "higher"),
    ("cones.feasible_cone.calls", "count", "lower"),
    ("cones.feasible_cone.self_s", "s", "lower"),
    ("canonical.canonical_cone.calls", "count", "lower"),
    ("canonical.canonical_cone.self_s", "s", "lower"),
    ("canonical.place_column.calls", "count", "lower"),
    ("canonical.canonical_semigroup.calls", "count", "lower"),
    ("canonical.canonical_semigroup.self_s", "s", "lower"),
    ("blowup.nash_children.calls", "count", "lower"),
    ("blowup.nash_children.self_s", "s", "lower"),
    ("blowup.nash_children.children", "count", "lower"),
    ("cones.dual_description.calls", "count", "lower"),
    ("cones.dual_description.self_s", "s", "lower"),
    ("blowup.nash_charts_kept_ratio", "ratio", "higher"),
    ("semigroups.minimalize.calls", "count", "lower"),
    ("semigroups.minimalize.self_s", "s", "lower"),
    ("semigroups.minimalize.kept_ratio", "ratio", "higher"),
    ("semigroups.hilbert_basis.calls", "count", "lower"),
    ("semigroups.hilbert_basis.self_s", "s", "lower"),
    ("digraph.compute_children.calls", "count", "lower"),
    ("digraph.compute_children.self_s", "s", "lower"),
    ("digraph.resolution_subgraph.self_s", "s", "lower"),
    ("digraph.save.self_s", "s", "lower"),
    ("digraph.save.bytes", "count", "lower"),
    ("digraph.load.self_s", "s", "lower"),
    ("digraph.find_cycles.self_s", "s", "lower"),
    ("sampling.draw.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio, by name."""
    calls, items, self_s = tracer.calls(), tracer.items(), tracer.self_times()
    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls[layer]
        elif kind == "self_s":
            values[name] = self_s.get(layer, 0.0)
    values["blowup.enumerate_bases.bases"] = items["blowup.enumerate_bases.bases"]
    values["blowup.basis_sums.sums"] = items["blowup.basis_sums.sums"]
    values["blowup.pareto_filter.kept_ratio"] = _ratio(
        items["blowup.pareto_filter.points_kept"], items["blowup.pareto_filter.points_in"]
    )
    values["cones.vertices.vertex_ratio"] = _ratio(
        items["cones.vertices.vertices"], items["cones.vertices.points"]
    )
    values["blowup.nash_children.children"] = items["blowup.nash_children.children"]
    values["blowup.nash_charts_kept_ratio"] = _ratio(
        items["blowup.nash_children.children"],
        tracer.count_within("cones.dual_description", "blowup.nash_children"),
    )
    values["semigroups.minimalize.kept_ratio"] = _ratio(
        items["semigroups.minimalize.gens_kept"], items["semigroups.minimalize.gens_in"]
    )
    values["digraph.save.bytes"] = items["digraph.save.bytes"]
    return values


def repeatable_counts(tracer: Tracer) -> dict[str, int]:
    """Call and item counts, which must repeat exactly between passes."""
    out = {f"{name}.calls": n for name, n in tracer.calls().items()}
    out.update(tracer.items())
    return out
