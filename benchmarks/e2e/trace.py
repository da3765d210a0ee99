"""Per-layer tracing from outside the program.

The traced pass installs timing hooks by class / module attribute around
the public functions that form each layer's boundary, from this file —
nothing inside ``src/`` knows about it.  A hook records one span
(name, start, end, parent) per call; spans stay in memory (compact
``array`` columns) until the pass ends.  A layer's **self time** is the
sum of its spans' durations minus the part their child spans cover, so
the layers partition the root span (``Simulation.run``) exactly.

In Python a hook costs about as much as the cheapest hooked function
(``EventQueue.push`` is ~1 us), so raw self times would overstate every
layer that has many hooked children.  :meth:`Tracer.calibrate` measures
the hook's cost on a no-op — the part inside the span and the part that
falls into the parent — and :func:`rollup` subtracts it, reporting the
total as the pseudo-layer ``trace.hooks``.  Layer shares are taken over
the traced wall minus hooks; ``trace.residual_x`` (that difference over
the untraced median) says how well the compensation worked: 1.0 means
the per-layer microseconds add up to an untraced pass.

Only the second (verification + traced) child imports this module; the
timed children never do, so end-to-end numbers cannot be affected.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

#: layer -> hook targets as (module, class or None, attribute).  Layer
#: names are the modules they time; a target that no longer exists makes
#: its layer report ``null`` (with a note) instead of breaking the run.
TARGETS: dict[str, list[tuple[str, str | None, str]]] = {
    "engine.runtime": [
        ("repro.engine.runtime", "Simulation", "run"),
    ],
    "engine.events": [
        ("repro.engine.events", "EventQueue", "push"),
        ("repro.engine.events", "EventQueue", "pop"),
    ],
    "engine.buffers": [
        ("repro.engine.buffers", "InputBuffer", "push"),
        ("repro.engine.buffers", "InputBuffer", "pop"),
        ("repro.engine.buffers", "OutputBuffer", "push_many"),
    ],
    "engine.cpu": [
        ("repro.engine.cpu", "CpuModel", "begin"),
        ("repro.engine.cpu", "CpuModel", "idle_cores"),
    ],
    "core.basic_windows.insert": [
        ("repro.core.basic_windows", "PartitionedWindow", "insert"),
    ],
    "core.basic_windows.slice_cut": [
        ("repro.core.basic_windows", "PartitionedWindow", "full_slices"),
        ("repro.core.basic_windows", "PartitionedWindow",
         "logical_span_slices"),
        ("repro.core.basic_windows", "PartitionedWindow",
         "logical_window_slices"),
        ("repro.core.harvesting", "HarvestConfiguration", "slices_for_hop"),
        ("repro.core.harvesting", "HarvestConfiguration",
         "run_slices_for_hop"),
        ("repro.core.shredding", None, "shredded_slices"),
    ],
    "core.windex.candidates": [
        ("repro.core.windex", "WindowIndexState", "candidate_rows"),
        ("repro.core.windex", "WindowIndexState", "table_for"),
        ("repro.core.windex", "WindowIndexState", "probe_parts"),
        ("repro.core.windex", "WindowIndexState", "hash_part"),
    ],
    "core.windex.upkeep": [
        ("repro.core.windex", "WindowIndexState", "observe"),
        ("repro.core.windex", "WindowIndexState", "tick"),
        ("repro.core.windex", "WindowIndexState", "mark_frozen"),
    ],
    # must be patched before the operator is built: select_kernel()
    # resolves the module global when the operator is constructed
    "joins.columnar.kernel": [
        ("repro.joins.columnar", None, "run_pipeline_columnar"),
    ],
}

#: layers hooked per operator instance by :meth:`Tracer.wrap_operator`
OPERATOR_LAYERS = ("operator.process", "operator.adapt")

#: every timing layer, in report order
LAYERS = (*TARGETS, *OPERATOR_LAYERS)


class Tracer:
    """Span recorder plus the hooks that feed it."""

    def __init__(self) -> None:
        self.layers: list[str] = list(LAYERS)
        #: span columns; slot ``i`` is written when span ``i`` closes
        self.layer_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._on = [False]
        self._undo: list[tuple[object, str, object]] = []
        #: layer -> the targets that could not be hooked
        self.missing: dict[str, list[str]] = {}
        self.hook_in_s = 0.0
        self.hook_out_s = 0.0

    # -- hooks ---------------------------------------------------------

    def _hook(self, fn, layer: str):
        lid = self.layers.index(layer)
        on = self._on
        stack = self._stack
        layer_id, parent = self.layer_id, self.parent
        start, end = self.start, self.end
        clock = time.perf_counter

        def hooked(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            idx = len(layer_id)
            layer_id.append(lid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return hooked

    def install(self) -> None:
        """Patch every target that still exists; note the ones that don't."""
        for layer, targets in TARGETS.items():
            for module_name, class_name, attr in targets:
                label = ".".join(
                    p for p in (module_name, class_name, attr) if p
                )
                try:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.setdefault(layer, []).append(label)
                    continue
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._hook(fn, layer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def wrap_operator(self, operator) -> None:
        """Instance-level hooks on ``process`` / ``on_adapt``."""
        for attr, layer in zip(("process", "on_adapt"), OPERATOR_LAYERS):
            setattr(operator, attr, self._hook(getattr(operator, attr), layer))

    # -- recording -----------------------------------------------------

    def begin(self) -> None:
        for column in (self.layer_id, self.parent, self.start, self.end):
            del column[:]
        del self._stack[:]
        self._on[0] = True

    def finish(self) -> "Spans":
        self._on[0] = False
        return Spans(
            layers=list(self.layers),
            layer_id=np.array(self.layer_id, dtype=np.intp),
            parent=np.array(self.parent, dtype=np.intp),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )

    def calibrate(self, calls: int = 50_000) -> None:
        """Measure what one hook costs inside its own span (``hook_in_s``)
        and inside its parent (``hook_out_s``) on a no-op."""

        def noop():
            return None

        hooked = self._hook(noop, self.layers[0])
        clock = time.perf_counter
        rounds = range(calls)
        t0 = clock()
        for _ in rounds:
            pass
        loop = (clock() - t0) / calls
        t0 = clock()
        for _ in rounds:
            noop()
        bare = (clock() - t0) / calls - loop
        self.begin()
        t0 = clock()
        for _ in rounds:
            hooked()
        total = (clock() - t0) / calls - loop
        spans = self.finish()
        inside = float(np.mean(spans.end - spans.start))
        self.hook_in_s = max(inside - bare, 0.0)
        self.hook_out_s = max(total - inside, 0.0)


class Spans:
    """The spans of one traced pass, as parallel numpy columns."""

    def __init__(self, layers, layer_id, parent, start, end) -> None:
        self.layers = layers
        self.layer_id = layer_id
        self.parent = parent
        self.start = start
        self.end = end

    def __len__(self) -> int:
        return len(self.layer_id)

    def write(self, path: str) -> None:
        """Dump the spans (name table + columns) as one JSON document."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "layers": self.layers,
                    "layer_id": self.layer_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                f,
            )


def rollup(spans: Spans, hook_in_s: float, hook_out_s: float) -> dict:
    """Per-layer span counts and hook-compensated self seconds.

    Returns ``{"layers": {layer: {"self_s", "raw_self_s", "spans"}},
    "hooks_s", "root_s"}``; ``sum(self_s) + hooks_s == root_s`` up to
    the clamping of layers whose compensation would go negative.
    """
    n_layers = len(spans.layers)
    duration = spans.end - spans.start
    nested = spans.parent >= 0
    covered = np.zeros(len(spans), dtype=np.float64)
    np.add.at(covered, spans.parent[nested], duration[nested])
    self_time = duration - covered
    raw = np.bincount(spans.layer_id, weights=self_time, minlength=n_layers)
    count = np.bincount(spans.layer_id, minlength=n_layers)
    children = np.bincount(
        spans.layer_id[spans.parent[nested]], minlength=n_layers
    )
    cost = count * hook_in_s + children * hook_out_s
    adjusted = np.maximum(raw - cost, 0.0)
    return {
        "layers": {
            layer: {
                "self_s": float(adjusted[i]),
                "raw_self_s": float(raw[i]),
                "spans": int(count[i]),
            }
            for i, layer in enumerate(spans.layers)
        },
        "hooks_s": float(np.sum(raw - adjusted)),
        "root_s": float(np.sum(duration[~nested])),
    }
