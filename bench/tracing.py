"""Span recorder installed around ``tbsl`` layer boundaries for traced runs.

A span is (name, start, end, parent span, op id).  Spans live in flat
arrays until the run ends; ``Tracer.layer_totals`` then derives each
layer's call count and self time (duration minus the time covered by its
child spans).  ``install`` rebinds every alias of a wrapped function: the
package re-exports ``classify``, ``even_expand``, ``lspace_region`` and
friends by name into other modules and into ``tbsl`` itself, and classes
alias methods (``__contains__ = contains``).  The untraced run never
imports this module's wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

#: (module, attribute path) of every layer recorded as a span.
SPANS = (
    ("twobridge", "classify"),
    ("twobridge", "parse_link"),
    ("exactq", "even_expand"),
    ("monodromy", "twist_word"),
    ("monodromy", "sign_census"),
    ("regions", "Region2.union"),
    ("regions", "Region2.intersect"),
    ("regions", "Region2.difference"),
    ("regions", "Region2.complement"),
    ("regions", "Region2.covers"),
    ("regions", "Region2.equals"),
    ("regions", "Region2.is_empty"),
    ("regions", "Region2.canonical"),
    ("regions", "Region2.to_json_dict"),
    ("regions", "Region2.contains"),
    ("surgery", "SurgeryDiagram.__init__"),
    ("surgery", "is_qhs"),
    ("surgery", "framing_convert"),
    ("surgery", "rolfsen_fill"),
    ("surgery", "presentation_matrix"),
    ("lspace", "lspace_region"),
    ("lspace", "verify_ln_chain"),
    ("foliation", "foliation_region"),
    ("foliation", "verdict"),
    ("foliation", "ln_taut_witness_strips"),
    ("foliation", "cover_witnesses"),
    ("svgplot", "region_svg"),
    ("cli", "main"),
)

#: Layers too fine-grained for a span each; only their calls are counted.
COUNTED = (("exactq", "CircleInterval.contains"),)


def layer_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self.span_name = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name_id: int):
        names, ops, parents = self.span_name, self.span_op, self.span_parent
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            ops.append(self.op)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer and rebind each module- and class-level alias."""
        for module, _ in SPANS + COUNTED:
            importlib.import_module(f"tbsl.{module}")
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "tbsl"]
        for module, path in SPANS + COUNTED:
            owner = importlib.import_module(f"tbsl.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = layer_name(module, path)
            if (module, path) in COUNTED:
                wrapped = self._count_wrapper(original, name)
            else:
                self.names.append(name)
                wrapped = self._span_wrapper(original, len(self.names) - 1)
            holders = [owner] if cls_path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self, op_scale=None) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` and ``self_ms``; ``op_scale[op]`` rescales times."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out = {name: {"calls": 0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            scale = 1.0 if op_scale is None else op_scale[self.span_op[i]]
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_ms"] += (dur[i] - child[i]) * 1e3 * scale
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        return out


def all_layer_names() -> list[str]:
    return [layer_name(m, p) for m, p in SPANS + COUNTED]
