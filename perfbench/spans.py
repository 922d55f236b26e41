"""Span tracing of the ``lcn`` layers, installed from outside the package.

The traced run replaces module and class attributes of ``lcn`` with thin
wrappers; the package source is not edited.  A name imported elsewhere with
``from .x import y`` is replaced in every ``lcn`` namespace that holds the
same object, and recursion through module globals (``merge_tree``,
``vanishing_generators``) is caught too.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory and are written once when the pass ends; a layer's self time
is its span's duration minus the durations of its child spans.  A few hot
callees get wrappers that only count.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# (module, attribute, span name)
SPANNED = (
    ("lcn.cli", "main", "cli.main"),
    ("lcn.polyring", "MultiPoly.evaluate", "polyring.evaluate"),
    ("lcn.polyring", "MultiPoly.text", "polyring.text"),
    ("lcn.polyring", "determinant", "polyring.determinant"),
    ("lcn.decomp", "s_decompose", "decomp.s_decompose"),
    ("lcn.resultant", "two_layer_ideal", "resultant.two_layer_ideal"),
    ("lcn.idealgen", "vanishing_generators", "idealgen.vanishing_generators"),
    ("lcn.arch", "sample_neuromanifold", "arch.sample_neuromanifold"),
    ("lcn.verify", "verify_ideal", "verify.verify_ideal"),
    ("lcn.verify", "smoke_nonmembership", "verify.smoke_nonmembership"),
    ("lcn.verify", "parametrization_jacobian", "verify.jacobian"),
    ("lcn.critpoints", "training_reduce", "critpoints.training_reduce"),
    ("lcn.critpoints", "solve_critical_points", "critpoints.solve"),
    ("lcn.eddegree", "generic_ed_degree", "eddegree.generic_ed_degree"),
    ("lcn.eddegree", "merge_tree", "eddegree.merge_tree"),
)
# (module, attribute, counter name): wrappers that only count calls, or for
# the minor generator, the minors it yields.
COUNTED = (
    ("lcn.polyring", "MultiPoly.__mul__", "polyring.mul"),
    ("lcn.polyring", "minor_expansion", "resultant.minor"),
    ("numpy.linalg", "solve", "critpoints.linalg_solve"),
)

# Per-layer metrics of the traced run, in the order they are printed.
LAYER_METRICS = (
    ("polyring.evaluate.calls", "count"),
    ("polyring.evaluate.self_s", "s"),
    ("polyring.evaluate.ns_per_term", "ns"),
    ("polyring.determinant.calls", "count"),
    ("polyring.determinant.self_s", "s"),
    ("polyring.mul.calls", "count"),
    ("polyring.text.self_s", "s"),
    ("decomp.s_decompose.self_s", "s"),
    ("resultant.two_layer_ideal.calls", "count"),
    ("resultant.two_layer_ideal.self_s", "s"),
    ("resultant.raw_minors", "count"),
    ("resultant.useful_minor_frac", "ratio"),
    ("idealgen.vanishing_generators.calls", "count"),
    ("idealgen.vanishing_generators.self_s", "s"),
    ("idealgen.vanishing_generators.repeat_frac", "ratio"),
    ("arch.sample_neuromanifold.calls", "count"),
    ("arch.sample_neuromanifold.self_s", "s"),
    ("verify.verify_ideal.self_s", "s"),
    ("verify.smoke_nonmembership.self_s", "s"),
    ("verify.jacobian.self_s", "s"),
    ("critpoints.training_reduce.self_s", "s"),
    ("critpoints.solve.self_s", "s"),
    ("critpoints.ms_per_start", "ms"),
    ("critpoints.starts_used", "count"),
    ("critpoints.linalg_solve.calls", "count"),
    ("critpoints.new_point_frac", "ratio"),
    ("eddegree.generic_ed_degree.calls", "count"),
    ("eddegree.generic_ed_degree.self_s", "s"),
    ("eddegree.merge_tree.calls", "count"),
    ("eddegree.merge_tree.self_s", "s"),
    ("eddegree.merge_tree.repeat_frac", "ratio"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "count"),
    ("trace.overhead_s", "s"),
)


def _note_evaluate(tally, keys, args, result):
    tally["polyring.evaluate.terms"] += len(args[0].terms)


def _note_two_layer_ideal(tally, keys, args, result):
    tally["resultant.generators"] += len(result.generators)


def _note_vanishing_generators(tally, keys, args, result):
    keys["idealgen.vanishing_generators"].add(repr(args[0]))


def _note_merge_tree(tally, keys, args, result):
    keys["eddegree.merge_tree"].add(tuple(sorted(args[0])))


def _note_solve(tally, keys, args, result):
    tally["critpoints.starts_used"] += result.starts_used
    tally["critpoints.distinct"] += result.distinct_count


# What a wrapper records about a call beyond its span, by span name.
_NOTES = {
    "polyring.evaluate": _note_evaluate,
    "resultant.two_layer_ideal": _note_two_layer_ideal,
    "idealgen.vanishing_generators": _note_vanishing_generators,
    "eddegree.merge_tree": _note_merge_tree,
    "critpoints.solve": _note_solve,
}


class Tracer:
    """Installs the wrappers, holds spans and counts, and removes them again."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start ns, end ns, parent index, op id]
        self.tally = Counter()
        self.keys = defaultdict(set)  # distinct arguments, by span name
        self.op = -1
        self._stack = []
        self._restore = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = _NOTES.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
            if note is not None:
                note(self.tally, self.keys, args, result)
            return result

        wrapper.perfbench_wrapper = True
        return wrapper

    def _counted(self, fn, name):
        tally = self.tally
        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    tally[name] += 1
                    yield item

        else:

            @wraps(fn)
            def wrapper(*args, **kwargs):
                tally[name] += 1
                return fn(*args, **kwargs)

        wrapper.perfbench_wrapper = True
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every namespace that holds it."""
        import lcn.cli  # noqa: F401  (loads every lcn module the workloads use)

        for module, attr, name in SPANNED:
            self._replace(module, attr, self._spanned, name)
        for module, attr, name in COUNTED:
            self._replace(module, attr, self._counted, name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _replace(self, module, attr, make, name):
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        wrapper = make(original, name)
        for holder in [owner, *lcn_modules()]:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, key, value))
                    setattr(holder, key, wrapper)

    # -- output ---------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "tally": dict(self.tally),
            "keys": {name: len(found) for name, found in self.keys.items()},
        }


def lcn_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "lcn" or n.startswith("lcn.")]


def layer_metrics(dump: dict, stdout_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics from one traced pass, keyed as in LAYER_METRICS."""
    names, spans, tally = dump["names"], dump["spans"], dump["tally"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = Counter()
    self_ns = Counter()
    total_ns = Counter()
    for (name_id, start, end, _, _), nested in zip(spans, child_ns):
        name = names[name_id]
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - nested

    def ratio(num, den):
        return num / den if den else 0.0

    def repeat_frac(name):
        return ratio(calls[name] - dump["keys"].get(name, 0), calls[name])

    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out.update(
        {
            "polyring.evaluate.ns_per_term": ratio(
                self_ns["polyring.evaluate"], tally.get("polyring.evaluate.terms", 0)
            ),
            "polyring.mul.calls": tally.get("polyring.mul", 0),
            "resultant.raw_minors": tally.get("resultant.minor", 0),
            "resultant.useful_minor_frac": ratio(
                tally.get("resultant.generators", 0), tally.get("resultant.minor", 0)
            ),
            "idealgen.vanishing_generators.repeat_frac": repeat_frac("idealgen.vanishing_generators"),
            "critpoints.ms_per_start": ratio(
                total_ns["critpoints.solve"] / 1e6, tally.get("critpoints.starts_used", 0)
            ),
            "critpoints.starts_used": tally.get("critpoints.starts_used", 0),
            "critpoints.linalg_solve.calls": tally.get("critpoints.linalg_solve", 0),
            "critpoints.new_point_frac": ratio(
                tally.get("critpoints.distinct", 0), tally.get("critpoints.starts_used", 0)
            ),
            "eddegree.merge_tree.repeat_frac": repeat_frac("eddegree.merge_tree"),
            "cli.stdout_bytes": stdout_bytes,
            "trace.overhead_s": overhead_s,
        }
    )
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS}
