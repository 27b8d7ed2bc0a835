"""Per-layer tracing for the pma benchmark, from outside the program.

While one traced operation runs, public functions of the pma modules are
replaced by wrappers that record spans and counters; afterwards the
originals are put back. A function another module imported by name is
replaced wherever the package holds it (module attributes, and module
level dicts such as the harness's scheme table), so the wrapper is the
object that actually gets called.

Spans are kept in memory as one tree per operation. Repeated calls of one
function under the same parent span are merged into one span record that
keeps the call count, the first start, the last end, the summed duration
and the summed self time (duration minus the time of child spans). That
keeps memory bounded when a function runs 10^5 times per operation.

A target that no longer exists (renamed, removed or moved) is skipped, and
the metrics that depend only on skipped targets are reported as absent.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# target path (relative to the pma package) -> (span name or None, counter,
# argument names fed to the counter's amount, amount)
# A counter is not advanced by a call nested directly in a span of the same
# name: such a call is part of the enclosing unit of work (draw in draw_vector).
TARGETS = {
    "model.RandomSource.draw": ("model.rng", "model.rng_draws", (), lambda: 1),
    "model.RandomSource.draw_vector": ("model.rng", "model.rng_draws", ("k",),
                                       lambda k: k),
    "model.generate_datasets": ("model.datasets", None, (), None),
    "model.load_datasets": ("model.datasets", None, (), None),
    "model.incidence": ("model.incidence", None, (), None),
    "field.PrimeField.check": (None, "field.check_calls", (), lambda: 1),
    "field.noise_pad_vector": ("field.pad", "field.madds", ("base", "noise_rows"),
                               lambda base, rows: len(base) * len(rows)),
    "field.noise_pad_scalar": ("field.pad", "field.madds", ("noise",), len),
    "field.PrimeField.dot": ("field.dot", "field.madds", ("u",), len),
    "field.build_upsilon": ("field.upsilon", None, (), None),
    "field.solve_linear": ("field.solve", "field.madds", ("m",),
                           lambda m: len(m) * len(m) * (len(m) + 1)),
    "pma1.gen_queries": ("pma1.queries", None, (), None),
    "pma1.gen_masks": ("pma1.masks", None, (), None),
    "pma1.answer": ("pma1.answer", None, (), None),
    "pma1.decode": ("pma1.decode", None, (), None),
    "pma1.run": ("pma1.run", None, (), None),
    "spma1.draw_party_noise": ("spma1.blinding", None, (), None),
    "spma1.answer": ("spma1.answer", None, (), None),
    "spma1.run": ("spma1.run", None, (), None),
    "spma2.encode_storage": ("spma2.encode", None, (), None),
    "spma2.aggregate": ("spma2.aggregate", None, (), None),
    "spma2.gen_queries": ("spma2.queries", None, (), None),
    "spma2.answer": ("spma2.answer", None, (), None),
    "spma2.decode": ("spma2.decode", None, (), None),
    "spma2.run": ("spma2.run", None, (), None),
    "transcript.Transcript.emit": ("transcript.emit", "transcript.payload_values",
                                   ("values",), len),
    "transcript.Transcript.digest": ("transcript.digest", None, (), None),
    "harness.resolve_config": ("harness.resolve", None, (), None),
    "model.true_count": ("harness.oracle", None, (), None),
    "harness.measure_costs": ("harness.costs", None, (), None),
    "harness.run_protocol": ("harness", None, (), None),
    "harness.run_audit_suite": ("harness", None, (), None),
    "audit.enumerate_distribution": ("audit.enumerate", "audit.assignments",
                                     ("dims", "p"), lambda dims, p: p ** dims),
}
# RandomSource instances created during an op give model.rng_blocks
INSTANCES = "model.RandomSource.__init__"
# each audit case the suite builds gets a span "audit.case.<case name>"
CASES = "harness.build_audit_suite"

# name -> (unit, source). Sources: ("self", span) summed self time;
# ("calls", span); ("counter", name); ("per_result", span) calls per checked
# result; ("case", case name) and ("controls",) inclusive case time;
# ("blocks",) summed RandomSource.position.
METRICS = {
    "model.rng_draws": ("count", ("counter", "model.rng_draws")),
    "model.rng_blocks": ("count", ("blocks",)),
    "model.rng_s": ("s", ("self", "model.rng")),
    "model.datasets_s": ("s", ("self", "model.datasets")),
    "model.incidence_s": ("s", ("self", "model.incidence")),
    "field.check_calls": ("count", ("counter", "field.check_calls")),
    "field.madds": ("count", ("counter", "field.madds")),
    "field.pad_s": ("s", ("self", "field.pad")),
    "field.dot_s": ("s", ("self", "field.dot")),
    "field.upsilon_s": ("s", ("self", "field.upsilon")),
    "field.solve_s": ("s", ("self", "field.solve")),
    "field.solve_calls": ("count", ("calls", "field.solve")),
    "pma1.queries_s": ("s", ("self", "pma1.queries")),
    "pma1.masks_s": ("s", ("self", "pma1.masks")),
    "pma1.answer_s": ("s", ("self", "pma1.answer")),
    "pma1.decode_s": ("s", ("self", "pma1.decode")),
    "pma1.run_s": ("s", ("self", "pma1.run")),
    "spma1.blinding_s": ("s", ("self", "spma1.blinding")),
    "spma1.answer_s": ("s", ("self", "spma1.answer")),
    "spma1.run_s": ("s", ("self", "spma1.run")),
    "spma2.encode_s": ("s", ("self", "spma2.encode")),
    "spma2.encodes_per_count": ("encodes/count", ("per_result", "spma2.encode")),
    "spma2.aggregate_s": ("s", ("self", "spma2.aggregate")),
    "spma2.queries_s": ("s", ("self", "spma2.queries")),
    "spma2.answer_s": ("s", ("self", "spma2.answer")),
    "spma2.decode_s": ("s", ("self", "spma2.decode")),
    "spma2.run_s": ("s", ("self", "spma2.run")),
    "transcript.emit_s": ("s", ("self", "transcript.emit")),
    "transcript.events": ("count", ("calls", "transcript.emit")),
    "transcript.payload_values": ("count", ("counter", "transcript.payload_values")),
    "transcript.digest_s": ("s", ("self", "transcript.digest")),
    "harness.resolve_s": ("s", ("self", "harness.resolve")),
    "harness.oracle_s": ("s", ("self", "harness.oracle")),
    "harness.costs_s": ("s", ("self", "harness.costs")),
    "harness.self_s": ("s", ("self", "harness")),
    "audit.enumerate_s": ("s", ("self", "audit.enumerate")),
    "audit.assignments": ("count", ("counter", "audit.assignments")),
    "audit.blind-estimation.spma1_s": ("s", ("case", "blind-estimation:spma1")),
    "audit.blind-estimation.pma1_s": ("s", ("case", "blind-estimation:pma1")),
    "audit.eavesdropper.spma2_s": ("s", ("case", "eavesdropper:spma2")),
    "audit.symmetric-privacy.spma1_s": ("s", ("case", "symmetric-privacy:spma1")),
    "audit.controls_s": ("s", ("controls",)),
}
CASE_PREFIX = "audit.case."
CONTROL_PREFIX = CASE_PREFIX + "control:"


class _Span:
    """One merged span record: every call of ``name`` under ``parent``."""

    __slots__ = ("name", "parent", "children", "calls", "total", "self_time",
                 "child", "start", "end")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.child = 0.0  # child-span time of the call in progress
        self.start = None
        self.end = None

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()


def _resolve(package, path):
    """(owner, attribute, original) for a dotted target, or None if gone."""
    *owner_path, attr = path.split(".")
    owner = package
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _arg_reader(func, names):
    """Reader of the named arguments of ``func`` from (args, kwargs)."""
    params = list(inspect.signature(func).parameters.values())
    slots = []
    for name in names:
        index = [p.name for p in params].index(name)  # ValueError: renamed
        slots.append((index, name, params[index].default))

    def read(args, kwargs):
        return [args[i] if i < len(args) else kwargs.get(n, d)
                for i, n, d in slots]
    return read


class Tracer:
    def __init__(self, package):
        self.package = package
        self.ops = []  # (op id, root span, counters, rng blocks)
        self.skipped = set()  # targets that could not be wrapped
        self._stack = []
        self._counters = Counter()
        self._instances = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, func, counter=None, read=None, amount=None):
        stack, counters, clock = self._stack, self._counters, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if counter is not None and parent.name != name:
                counters[counter] += amount(*read(args, kwargs))
            span = parent.children.get(name)
            if span is None:
                span = parent.children[name] = _Span(name, parent)
            span.child = 0.0
            stack.append(span)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                span.calls += 1
                span.total += duration
                span.self_time += duration - span.child
                parent.child += duration
                if span.start is None:
                    span.start = start
                span.end = end
        return wrapper

    def _count(self, counter, func):
        counters = self._counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return func(*args, **kwargs)
        return wrapper

    def _capture(self, func):
        instances = self._instances

        def wrapper(obj, *args, **kwargs):
            instances.append(obj)
            return func(obj, *args, **kwargs)
        return wrapper

    def _wrap_cases(self, func):
        def wrapper(*args, **kwargs):
            cases = func(*args, **kwargs)
            for case in cases:
                case.build = self._span(CASE_PREFIX + case.name, case.build)
            return cases
        return wrapper

    def _wrapper(self, path, original):
        if path == INSTANCES:
            return self._capture(original)
        if path == CASES:
            return self._wrap_cases(original)
        span, counter, names, amount = TARGETS[path]
        if span is None:
            return self._count(counter, original)
        read = _arg_reader(original, names) if counter else None
        return self._span(span, original, counter, read, amount)

    # -- install / remove -------------------------------------------------

    def _install(self):
        """Wrap every target; return the (container, key, original) undo list."""
        prefix = self.package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith(prefix) and m is not None]
        undo = []
        for path in (*TARGETS, INSTANCES, CASES):
            found = _resolve(self.package, path)
            if found is None:
                self.skipped.add(path)
                continue
            owner, attr, original = found
            try:
                wrapper = self._wrapper(path, original)
            except (ValueError, TypeError):  # a counted argument was renamed
                self.skipped.add(path)
                continue
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapper
                                undo.append((value, k, original))
        return undo

    @staticmethod
    def _remove(undo):
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    @contextmanager
    def op(self, op_id):
        """Trace one operation; the wrappers exist only inside this block."""
        root = _Span("op", None)
        self._stack[:] = [root]
        self._counters.clear()
        self._instances.clear()
        undo = self._install()
        root.start = time.perf_counter()
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._remove(undo)
            root.total = root.end - root.start
            root.calls = 1
            if not all(hasattr(r, "position") for r in self._instances):
                self.skipped.add(INSTANCES)
            blocks = sum(getattr(r, "position", 0) for r in self._instances)
            self.ops.append((op_id, root, Counter(self._counters), blocks))

    # -- metrics ----------------------------------------------------------

    def absent(self):
        """Metric names whose every source target was skipped."""
        fed = {}
        for path, (span, counter, _, _) in TARGETS.items():
            for key in (span, counter):
                if key is not None:
                    fed.setdefault(key, []).append(path)
        out = []
        for name, (_, source) in METRICS.items():
            kind = source[0]
            if kind in ("case", "controls"):
                paths = [CASES]
            elif kind == "blocks":
                paths = [INSTANCES]
            else:
                paths = fed[source[1]]
            if all(p in self.skipped for p in paths):
                out.append(name)
        return out

    def op_metrics(self, index, results, slowdown=1.0):
        """Per-layer values of the ``index``-th traced operation; ``results``
        is its number of checked results, and times are divided by the
        machine ``slowdown`` measured around it (see speed.py)."""
        _, root, counters, blocks = self.ops[index]
        self_time, calls, total = Counter(), Counter(), Counter()
        for span in root.walk():
            self_time[span.name] += span.self_time
            calls[span.name] += span.calls
            total[span.name] += span.total
        out = {}
        for name, (_, source) in METRICS.items():
            kind, key = source[0], source[-1]
            if kind == "self":
                out[name] = self_time[key]
            elif kind == "calls":
                out[name] = calls[key]
            elif kind == "counter":
                out[name] = counters[key]
            elif kind == "per_result":
                out[name] = calls[key] / results if results else 0.0
            elif kind == "case":
                out[name] = total[CASE_PREFIX + key]
            elif kind == "controls":
                out[name] = sum(v for k, v in total.items()
                                if k.startswith(CONTROL_PREFIX))
            else:  # blocks
                out[name] = blocks
            if METRICS[name][0] == "s":
                out[name] /= slowdown
        return out

    def medians(self, results_per_op, slowdowns):
        """Median over the traced operations of every per-layer metric."""
        per_op = [self.op_metrics(i, r, f)
                  for i, (r, f) in enumerate(zip(results_per_op, slowdowns))]
        return {name: statistics.median(m[name] for m in per_op)
                for name in METRICS}

    def write(self, path):
        """Write every span of every traced operation as JSON lines."""
        with open(path, "w") as out:
            for op_id, root, _, _ in self.ops:
                ids = {}
                for span in root.walk():
                    ids[span] = len(ids)
                    out.write(json.dumps({
                        "op": op_id, "id": ids[span], "name": span.name,
                        "parent": ids.get(span.parent),
                        "start": span.start, "end": span.end,
                        "calls": span.calls, "total_s": span.total,
                        "self_s": span.self_time}) + "\n")
