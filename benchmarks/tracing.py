"""In-memory span tracing of the gonosomal package, applied from outside.

A :class:`Tracer` wraps the layers listed in ``layers.json``: the
``GonosomalOperator`` methods on the class, and every module function at
every place a ``gonosomal`` module binds it (``classify_limit``, for one,
is bound in ``invariant_sets``, ``verify``, ``cli`` and the package).
Each call records a span: layer, start, end, parent span and the id of
the benchmark operation it belongs to, plus one layer-specific count
(rows, iterate steps, Newton seeds, output bytes).  Spans stay in memory
until :meth:`Tracer.write`; :meth:`Tracer.restore` puts every original
function object back and checks that it did.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = "bench.op"


@functools.cache
def layers() -> dict:
    """The traced layers of ``layers.json``: name -> {stats, moves}."""
    return json.loads((Path(__file__).parent / "layers.json").read_text())["layers"]


def originals() -> dict[str, tuple[object, str, object]]:
    """Per layer: (defining module or the operator class, attribute, function)."""
    cls = importlib.import_module("gonosomal.operator").GonosomalOperator
    out = {}
    for layer in layers():
        mod_name, attr = layer.rsplit(".", 1)
        home = importlib.import_module(f"gonosomal.{mod_name}")
        owner = home if attr in vars(home) else cls
        out[layer] = (owner, attr, vars(owner)[attr])
    return out


def gonosomal_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gonosomal" or name.startswith("gonosomal."))]


def _rows(state) -> int:
    rows = 1
    for size in np.shape(state)[:-1]:
        rows *= size
    return rows


def _out_bytes(argv) -> int:
    argv = list(argv or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


# Per layer: how to read its count from (args, kwargs, result).
def _count(name, args, kwargs, result):
    if name in ("apply_raw", "apply_normalized", "jacobian_raw", "jacobian_normalized"):
        return _rows(args[1] if len(args) > 1 else kwargs["state"])
    if name == "empirical_limits":
        return _rows(args[1] if len(args) > 1 else kwargs["states"])
    if name == "iterate":
        return result.steps_taken
    if name == "find_fixed_points":
        return (result.n_seeds, result.n_converged)
    if name == "main":
        return _out_bytes(args[0] if args else kwargs.get("argv"))
    return None


class Tracer:
    """Collects spans of the wrapped layers while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent, op_id, count]
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _wrap(self, layer, fn):
        spans, stack, attr = self.spans, self._stack, layer.rsplit(".", 1)[1]

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, perf_counter_ns(), 0, stack[-1] if stack else -1, self._op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            span[5] = _count(attr, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        found = originals()
        modules = gonosomal_modules()
        for layer, (owner, attr, orig) in found.items():
            traced = self._wrap(layer, orig)
            if isinstance(owner, type):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, name, orig))
                        setattr(mod, name, traced)

    def restore(self) -> list[str]:
        """Put every original back; return the bindings that did not come back."""
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        wrong = [f"{getattr(owner, '__name__', owner)}.{name}"
                 for owner, name, orig in self._patches
                 if vars(owner)[name] is not orig]
        self._patches.clear()
        return wrong

    # -- recording an operation --------------------------------------------

    def run_op(self, fn, *args):
        """Run one benchmark operation under a root span; return its result."""
        self._op = op_id = self._ops
        self._ops += 1
        idx = len(self.spans)
        span = [ROOT, perf_counter_ns(), 0, -1, op_id, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
            self._op = -1

    # -- analysis -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Span duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def self_time_defects(self) -> int:
        """Operations whose span self times do not sum to the root span."""
        own = self.self_ns()
        total: dict[int, int] = {}
        root: dict[int, int] = {}
        for span, s in zip(self.spans, own):
            total[span[4]] = total.get(span[4], 0) + s
            if span[0] == ROOT:
                root[span[4]] = span[2] - span[1]
        return sum(total.get(op, 0) != dur for op, dur in root.items())

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, per operation (mean over the traced operations)."""
        ops = max(1, sum(span[0] == ROOT for span in self.spans))
        calls = dict.fromkeys(layers(), 0)
        self_s = dict.fromkeys(layers(), 0)
        count = dict.fromkeys(layers(), 0)
        converged = 0
        for span, own in zip(self.spans, self.self_ns()):
            layer = span[0]
            if layer == ROOT:
                continue
            calls[layer] += 1
            self_s[layer] += own
            if layer == "spectral.find_fixed_points":
                count[layer] += span[5][0]
                converged += span[5][1]
            elif span[5] is not None:
                count[layer] += span[5]
        out = {}
        for layer, spec in layers().items():
            for stat in spec["stats"]:
                if stat == "calls":
                    value = calls[layer] / ops
                elif stat == "self_s":
                    value = self_s[layer] / ops * 1e-9
                elif stat in ("rows", "steps", "seeds", "out_bytes"):
                    value = count[layer] / ops
                elif stat == "ns_per_row":
                    value = self_s[layer] / count[layer] if count[layer] else 0.0
                elif stat == "converged_frac":
                    value = converged / count[layer] if count[layer] else 0.0
                else:
                    raise ValueError(f"unknown layer statistic {stat!r}")
                out[f"{layer}.{stat}"] = value
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzip CSV: op, span, parent, layer, start_ns, end_ns, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,span,parent,layer,start_ns,end_ns,count\n")
            for i, (layer, start, end, parent, op, count) in enumerate(self.spans):
                if isinstance(count, tuple):
                    count = "/".join(map(str, count))
                fh.write(f"{op},{i},{parent},{layer},{start},{end},{'' if count is None else count}\n")
