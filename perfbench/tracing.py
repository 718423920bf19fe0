"""Spans and counters at the layer boundaries of shakyladder, recorded from
outside the package.

While :meth:`Tracer.installed` is active, every public function and method
of each layer module (plus ``__init__`` of its public classes) is replaced,
in its defining module and in every other module that imported it by name,
by a wrapper that records one span: name, start, end, parent span and
operation id. Nothing in the package itself is edited, and leaving the
context puts the originals back, so untraced operations run the package
exactly as shipped. Calls made outside an operation pass straight through.

Spans live in flat integer columns in memory until the run ends; the
per-layer metrics are derived from them afterwards. A layer's self time is
its spans' durations minus the time covered by their direct child spans.
Every layer is synchronous and single-threaded, so child spans nest inside
their parent and never overlap; the self times of one operation plus the
operation root's own self time (the remainder spent in benchmark glue) sum
to the operation's traced wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("noise", "core", "mechanisms", "reduction", "analysts", "audit", "experiments", "cli")
PACKAGE = "shakyladder"
ROOT = "op"


def _drawn(counts, args, result):
    counts["noise.bytes_drawn"] += getattr(result, "nbytes", 8)


def _laplace(counts, args, result):
    counts["noise.laplace_calls"] += 1


def _model(counts, args, result):
    counts["core.models_built"] += 1


def _trace(counts, args, result):
    counts["core.trace_rounds"] += len(args[0])


def _answer(counts, args, outcome):
    counts["reduction.queries"] += 1
    counts["reduction.submissions"] += outcome.submissions
    counts["reduction.triggered"] += int(outcome.triggered)
    counts["reduction.clamped"] += int(outcome.clamped)
    counts["reduction.no_trigger"] += int(outcome.no_trigger)


def _attack(counts, args, result):
    report = result[0] if isinstance(result, tuple) else result
    counts["analysts.attacks"] += 1
    counts["analysts.queries_issued"] += report.queries_issued
    counts["analysts.selected"] += report.selected_count
    counts["analysts.feedback"] += report.feedback_received


def _session_submit(counts, args, result):
    counts["audit.session_submits"] += 1


def _envelope(counts, args, report):
    counts["audit.envelope_checks"] += 1
    counts["audit.envelope_satisfied"] += int(report.envelope_satisfied)
    counts["audit.faithfulness_violations"] += report.faithfulness_violations


def _cells(counts, args, rows):
    counts["experiments.cells"] += len(rows)


#: Counters taken from arguments and return values at named boundaries.
HOOKS = {
    "noise.Rng.random": _drawn,
    "noise.Rng.integers": _drawn,
    "noise.Rng.standard_normal": _drawn,
    "noise.laplace": _laplace,
    "core.SubmittedModel.__init__": _model,
    "core.Trace.__init__": _trace,
    "reduction.AdaptiveEstimator.answer": _answer,
    "analysts.majority_attack_direct": _attack,
    "analysts.majority_attack_vs_mechanism": _attack,
    "analysts.shifted_majority_attack": _attack,
    "audit.EvaluationSession.submit": _session_submit,
    "audit.envelope_check": _envelope,
    "experiments.run_experiment": _cells,
}


def is_submit(name: str) -> bool:
    return name.startswith("mechanisms.") and name.endswith(".submit")


class Tracer:
    """In-memory span recorder with per-name counters.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.name_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.op_col = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._mechanisms: dict = {}
        self._patches = None

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, parent: int) -> int:
        idx = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(parent)
        self.op_col.append(self._op)
        self.end_col.append(0)
        self._stack.append(idx)
        self.start_col.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end_col[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def operation(self):
        """Root span of one operation; spans recorded inside share its id."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._op += 1
        idx = self._open(0, -1)
        try:
            yield
        finally:
            self._close(idx)
            self.counts["mechanisms.updates"] += sum(self._mechanisms.values())
            self._mechanisms.clear()

    @property
    def operations(self) -> int:
        return self._op + 1

    def wrap(self, fn, name: str):
        """``fn`` recording a span called ``name`` when inside an operation."""
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        if is_submit(name):
            mechanisms = self._mechanisms

            def hook(counts, args, result):
                counts["mechanisms.submits"] += 1
                mechanisms[args[0]] = args[0].update_count

        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(name_id, stack[-1])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped_functions = {}
        patches = []
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped_functions[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    patches.extend(self._class_patches(layer, obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in vars(module).items():
                entry = wrapped_functions.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((module, attr, obj, entry[1]))
        return patches

    def _class_patches(self, layer: str, cls: type):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                yield cls, attr, member, type(member)(self.wrap(member.__func__, name))
            elif inspect.isfunction(member):
                yield cls, attr, member, self.wrap(member, name)

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int64),
            "start": np.frombuffer(self.start_col, dtype=np.int64),
            "end": np.frombuffer(self.end_col, dtype=np.int64),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64),
            "op": np.frombuffer(self.op_col, dtype=np.int64),
        }

    def layer_of(self, name: str) -> str:
        return name.split(".", 1)[0] if name != ROOT else "remainder"

    def self_times(self) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
        """Per-op self nanoseconds by layer, layer labels, per-op wall ns.

        Column ``j`` of the matrix is layer ``labels[j]``; the last label is
        ``remainder``, the root span's own time.
        """
        cols = self.columns()
        duration = cols["end"] - cols["start"]
        nested = cols["parent"] >= 0
        covered = np.zeros_like(duration)
        np.add.at(covered, cols["parent"][nested], duration[nested])
        own = duration - covered
        labels = LAYERS + ("remainder",)
        layer_index = np.array([labels.index(self.layer_of(n)) for n in self.names], dtype=np.int64)
        matrix = np.zeros((self.operations, len(labels)), dtype=np.int64)
        np.add.at(matrix, (cols["op"], layer_index[cols["name"]]), own)
        wall = np.zeros(self.operations, dtype=np.int64)
        wall[cols["op"][~nested]] = duration[~nested]
        return matrix, labels, wall

    def inclusive_ns(self, predicate) -> int:
        """Total duration of spans whose name satisfies ``predicate``."""
        cols = self.columns()
        ids = [i for i, name in enumerate(self.names) if predicate(name)]
        mask = np.isin(cols["name"], ids)
        return int((cols["end"][mask] - cols["start"][mask]).sum())

    def span_count(self, layer: str) -> int:
        ids = [i for i, name in enumerate(self.names) if self.layer_of(name) == layer]
        return int(np.isin(self.columns()["name"], ids).sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())
