"""Per-layer spans for leafaudio, recorded from outside the package.

:class:`Tracer` replaces public functions of the leafaudio modules with
timing wrappers, in every module namespace that holds them, so calls made
through ``from .frontend import features_graph`` are seen as well as calls
through ``frontend.features_graph``.  Tape primitives are read from
``tape.__all__`` (plus the helpers that ``Var``'s operators call) when the
tracer is created, so fusing or renaming primitives changes the spans and
does not break the tracer.

Every tape node a traced primitive creates gets its ``vjp`` wrapped, which
yields a backward span.  A node created while a ``frontend.*`` span is open
is also charged to that span's backward time.

Spans stay in memory as ``[name, start, end, parent, op, charge]`` lists
and are summarized per op by :func:`summarize`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

# Module functions timed as one span each, by home module.  Every namespace
# in leafaudio that holds the same function object is patched too.
MODULE_FUNCTIONS = {
    "frontend": ("features_graph", "frontend_forward", "pcen_graph", "gabor_kernel_graph",
                 "pool_kernel_graph", "mel_power_features"),
    "training": ("multitask_loss_and_grad", "adam_step", "evaluate"),
    "params": ("project_params", "init_params"),
    "gabor": ("gabor_params_from_mels",),
    "tasks": ("sample_batch", "test_set"),
    "signal": ("load_wav",),
    "io": ("write_feature_file",),
    "cli": ("main",),
}

LAYERS = ("tape", "frontend", "training", "params", "gabor", "tasks", "signal", "io", "cli")

# tape primitives reported under their own name; every other tape function
# is summed into ``tape.elementwise``
NAMED_PRIMITIVES = ("bank_correlate", "paired_square_sum", "depthwise_pool", "softmax_cross_entropy")

OP_SPAN = "op"


def tape_functions(tape) -> list[str]:
    """Names of the tape functions to trace: ``__all__`` plus operator helpers."""
    names = [n for n in tape.__all__ if inspect.isfunction(getattr(tape, n, None))]
    for attr, member in vars(tape.Var).items():
        if attr.startswith("__") and inspect.isfunction(member):
            names += [n for n in member.__code__.co_names
                      if inspect.isfunction(getattr(tape, n, None))]
    return list(dict.fromkeys(names))


class _TracedVjp:
    """A node's vector-Jacobian product, timed as a backward span."""

    __slots__ = ("tracer", "fn", "name", "charge")

    def __init__(self, tracer, fn, name, charge):
        self.tracer, self.fn, self.name, self.charge = tracer, fn, name, charge

    def __call__(self, g):
        idx = self.tracer.enter(self.name, self.charge)
        try:
            return self.fn(g)
        finally:
            self.tracer.exit(idx)


class Tracer:
    """Span recorder plus the patches that feed it.

    Each traced op runs through :meth:`op`, which applies the patches
    (:meth:`install`) for the op's duration only.  Exact counts (nodes,
    bytes) accumulate per op in ``counts``.
    """

    def __init__(self, package):
        """Plan the patches of ``package`` (the imported leafaudio); apply none."""
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: list[dict] = []
        self.op_id = -1
        self._last_node = None
        self.patches = self._plan(package)  # (namespace, attribute, original, wrapper)

    # -- span recording ------------------------------------------------
    def enter(self, name, charge=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, charge])
        self.stack.append(idx)
        return idx

    def exit(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def op(self, fn, *args):
        """Run ``fn(*args)`` as the next op, patched and under a root span."""
        self.op_id += 1
        self.counts.append({})
        self.install()
        idx = self.enter(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self.exit(idx)
            self.restore()
            self._last_node = None

    def _count(self, key, amount) -> None:
        bucket = self.counts[self.op_id]
        bucket[key] = bucket.get(key, 0) + amount

    def _count_max(self, key, amount) -> None:
        bucket = self.counts[self.op_id]
        bucket[key] = max(bucket.get(key, 0), amount)

    def _frontend_charge(self):
        for idx in reversed(self.stack):
            name = self.spans[idx][0]
            if name.startswith("frontend."):
                return name
        return None

    # -- wrappers --------------------------------------------------------
    def _wrap_tape(self, fn, op_name):
        tracer, var_type = self, self._tape.Var
        span = f"tape.{op_name}.fwd"
        bwd_span = f"tape.{op_name}.bwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            # a composite op returns the node its last inner op made
            if isinstance(out, var_type) and out is not tracer._last_node:
                tracer._last_node = out
                tracer._count("tape.nodes", 1)
                if op_name == "bank_correlate":
                    tracer._count("tape.bank_correlate.out_bytes", out.value.nbytes)
                if out.vjp is not None and not isinstance(out.vjp, _TracedVjp):
                    out.vjp = _TracedVjp(tracer, out.vjp, bwd_span, tracer._frontend_charge())
            return out

        return traced

    def _wrap_backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(root, *args, **kwargs):
            tracer._count_max("tape.retained_bytes", retained_bytes(root, tracer._tape.Var))
            idx = tracer.enter("tape.backward")
            try:
                return fn(root, *args, **kwargs)
            finally:
                tracer.exit(idx)

        return traced

    def _wrap_module(self, fn, span):
        tracer, var_type = self, self._tape.Var

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if span == "frontend.features_graph" and isinstance(out, var_type):
                tracer._count_max("tape.retained_bytes", retained_bytes(out, var_type))
            elif span == "io.write_feature_file":
                tracer._count("io.write_feature_file.bytes", os.path.getsize(args[0]))
            return out

        return traced

    # -- installation ----------------------------------------------------
    def _plan(self, package) -> list[tuple]:
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in (*MODULE_FUNCTIONS, "tape", "autodiff")}
        tape = self._tape = modules["tape"]
        wrappers = {}
        for name in tape_functions(tape):
            original = getattr(tape, name)
            wrap = self._wrap_backward(original) if name == "backward" else self._wrap_tape(original, name)
            wrappers[id(original)] = (original, wrap)
        for home, names in MODULE_FUNCTIONS.items():
            for name in names:
                original = getattr(modules[home], name)
                wrappers[id(original)] = (original, self._wrap_module(original, f"{home}.{name}"))
        patches = []
        for module in (package, *modules.values()):
            for attr, value in vars(module).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value, hit[1]))
        return patches

    def install(self) -> None:
        """Replace every planned function with its timing wrapper."""
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every original that :meth:`install` replaced."""
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line; times in seconds."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, charge in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "charge": charge}) + "\n")


def retained_bytes(root, var_type) -> int:
    """Bytes of the arrays held by Vars reachable from ``root`` (exact).

    Views are charged once, through the array that owns their memory.
    """
    seen, owners, stack = set(), {}, [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        base = node.value
        while base.base is not None and hasattr(base.base, "nbytes"):
            base = base.base
        owners[id(base)] = base.nbytes
        stack.extend(p for p in node.parents if isinstance(p, var_type))
    return sum(owners.values())


# -- summaries -------------------------------------------------------------


def self_times(spans) -> tuple[list[float], list[float]]:
    """Duration and self time of every span, in seconds.

    Self time is the duration minus the time covered by direct children
    (children of one span never overlap: the program is single-threaded).
    """
    duration = [end - start for _, start, end, *_ in spans]
    own = list(duration)
    for idx, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            own[parent] -= duration[idx]
    return duration, own


def _metric_keys(name: str, charge):
    """(metric, kind) pairs a span feeds; kind is 'self', 'total' or 'calls'."""
    keys = []
    layer = name.split(".", 1)[0]
    if name == OP_SPAN:
        return [("unattributed_ms", "self"), ("traced_op_ms", "total")]
    if layer in LAYERS:
        keys.append((f"{layer}.self_ms", "self"))
    if name.startswith("tape.") and name.endswith((".fwd", ".bwd")):
        op_name, direction = name[5:-4], name[-3:]
        group = op_name if op_name in NAMED_PRIMITIVES else "elementwise"
        keys.append((f"tape.{group}.{direction}_ms", "self"))
        keys.append((f"tape.{group}.calls" if direction == "fwd" else f"tape.{group}.bwd_calls", "calls"))
        if direction == "bwd" and charge is not None:
            keys.append((f"{charge}.bwd_ms", "total"))
    else:
        keys += [(f"{name}.self_ms", "self"), (f"{name}.ms", "total"), (f"{name}.calls", "calls")]
        if name.startswith("frontend."):
            keys.append((f"{name}.fwd_ms", "total"))
    return keys


def summarize(spans, n_ops: int) -> list[dict]:
    """Per-op sums of every metric the spans feed, in ms (calls as counts).

    Along with the per-name metrics each op gets ``<layer>.self_ms`` for
    every layer and ``unattributed_ms`` (the op span's own self time): these
    partition the op's duration ``traced_op_ms`` exactly.
    """
    duration, own = self_times(spans)
    per_op = [{} for _ in range(n_ops)]
    for idx, (name, _, _, _, op, charge) in enumerate(spans):
        if op < 0:
            continue
        bucket = per_op[op]
        for key, kind in _metric_keys(name, charge):
            value = 1 if kind == "calls" else 1e3 * (own[idx] if kind == "self" else duration[idx])
            bucket[key] = bucket.get(key, 0) + value
    return per_op


def partition_gap_ms(op_summary: dict) -> float:
    """|sum of layer self times + unattributed - op duration| for one op."""
    parts = sum(op_summary.get(f"{layer}.self_ms", 0.0) for layer in LAYERS)
    parts += op_summary.get("unattributed_ms", 0.0)
    return abs(parts - op_summary["traced_op_ms"])
