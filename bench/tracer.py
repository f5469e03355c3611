"""Per-layer spans and counts, recorded from outside rotoreig.

A ``Tracer`` wraps the public functions and class methods of each layer
module and patches the wrappers in at every module attribute a caller looks
them up through (``models.rotor_from_vectors``, ``oracle.eig_dense``,
``Multivector.__mul__``), so the source is never edited.  ``install`` and
``uninstall`` swap the wrappers in and out; untraced code runs the
originals.

Every wrapped call is counted.  A call that crosses into another layer also
opens a span (name, start, end, parent span, op id); a call within the same
layer is folded into the enclosing span, except for functions named in
``always_span``, which keep their own span so that their time can be
reported.  Spans stay in memory until ``save`` writes them out.

Importing this module loads neither numpy nor rotoreig.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array

LAYERS = ("algebra", "rotors", "spinors", "models", "oracle", "cli")
# dunder methods that do a layer's work; other dunders (repr, eq, hash) do not
_WORK_DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__xor__", "__or__", "__invert__",
}
# Multivector-by-Multivector products; a scalar operand is no product
_PRODUCTS = {"Multivector.__mul__", "Multivector.__xor__", "Multivector.__or__"}
PRODUCT_COUNTER = "Multivector products"
ENTRY_COUNTER = "entries"


class Tracer:
    def __init__(self, always_span=()):
        self.names: list[str] = []      # "<layer>.<qualname>" per function id
        self.layer_of: list[int] = []   # layer index per function id
        self.calls: list[int] = []      # calls per function id
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open = [-1]               # span stack; -1 is the benchmark
        self._layer = [-1]              # layer stack, parallel to _open
        self.ops: list[tuple[str, int, int]] = []  # (model, first span, end span)
        # for counted ops: model -> [ops, per-function call totals]
        self.counted: dict[str, list] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._always = set(always_span)
        self._build()

    # ---- function table ----------------------------------------------
    def _fid(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def fid(self, name: str) -> int:
        return self.names.index(name)

    def _wrap(self, fn, name: str, layer: int):
        fid = self._fid(name, layer)
        product = self._product if name.split(".", 1)[1] in _PRODUCTS else -1
        always = name in self._always
        entry = self._entries[layer]
        mv = self._mv
        calls, open_, layers = self.calls, self._open, self._layer
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if product >= 0 and isinstance(args[1], mv):
                calls[product] += 1
            if layers[-1] == layer:
                if not always:
                    return fn(*args, **kwargs)
            else:
                calls[entry] += 1
            idx = len(s_name)
            s_name.append(fid)
            s_parent.append(open_[-1])
            s_end.append(0)
            open_.append(idx)
            layers.append(layer)
            s_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                open_.pop()
                layers.pop()

        return wrapper

    def _build(self) -> None:
        mods = {name: importlib.import_module(f"rotoreig.{name}") for name in LAYERS}
        self._mv = mods["algebra"].Multivector
        self._product = self._fid(f"algebra.{PRODUCT_COUNTER}", LAYERS.index("algebra"))
        # calls that enter a layer from another one, counted per layer
        self._entries = [self._fid(f"{name}.{ENTRY_COUNTER}", i)
                         for i, name in enumerate(LAYERS)]
        callers = [m for n, m in sys.modules.items()
                   if n == "rotoreig" or n.startswith("rotoreig.")]
        for layer, (lname, mod) in enumerate(mods.items()):
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    w = self._wrap(obj, f"{lname}.{public}", layer)
                    for caller in callers:
                        for attr, val in list(vars(caller).items()):
                            if val is obj:
                                self._patches.append((caller, attr, val, w))
                elif isinstance(obj, type):
                    self._wrap_class(obj, lname, layer)

    def _wrap_class(self, cls: type, lname: str, layer: int) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WORK_DUNDERS:
                continue
            name = f"{lname}.{cls.__name__}.{attr}"
            if isinstance(val, types.FunctionType):
                w = self._wrap(val, name, layer)
            elif isinstance(val, (classmethod, staticmethod)):
                w = type(val)(self._wrap(val.__func__, name, layer))
            else:
                continue  # properties and constants are not calls
            self._patches.append((cls, attr, val, w))

    # ---- switching ---------------------------------------------------
    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, model: str, counted: bool, fn, *args):
        """Run one op with the wrappers installed; returns fn's result.

        The calls of a counted op are added to ``counted[model]``."""
        first = len(self.span_name)
        before = list(self.calls)
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()
            self.ops.append((model, first, len(self.span_name)))
            if counted:
                entry = self.counted.setdefault(model, [0, [0] * len(before)])
                entry[0] += 1
                entry[1] = [t + c - b for t, c, b in zip(entry[1], self.calls, before)]

    # ---- results -----------------------------------------------------
    def spans(self) -> dict:
        """All spans as arrays, with each span's op id and self time."""
        import numpy as np

        # copies: a buffer view would stop the arrays from growing
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        start = np.array(self.span_start, dtype=np.int64)
        end = np.array(self.span_end, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        op = np.empty(len(dur), dtype=np.int64)
        for i, (_, lo, hi) in enumerate(self.ops):
            op[lo:hi] = i
        return {"name": name, "parent": parent, "start": start, "end": end,
                "op": op, "self_ns": dur - covered}

    def save(self, path) -> None:
        """Write every span, with the function and op tables, as ``.npz``."""
        import numpy as np

        s = self.spans()
        np.savez(path, function=np.array(self.names),
                 op_model=np.array([m for m, _, _ in self.ops]),
                 **{k: s[k] for k in ("name", "parent", "start", "end", "op")})
