"""Span tracer for the gmem layers.

Spans are recorded by wrapping, for the length of the traced phase, every
function through which one gmem module (or the benchmark) reaches another:

* the public functions of each layer module, in the namespace that defines
  them (callers reach them as ``module.function``);
* functions one layer imported from another (``from .x import f`` binds a
  second name that must be wrapped too);
* function tables built at import time, such as ``scenarios._STRESS_FN``
  and ``membrane_material._PRODUCT`` (their entries were bound before any
  wrapping, so without this their time would land in the caller's layer);
* callbacks handed to ``numdiff``, which is the one layer that runs code of
  its caller; each callback becomes a span of the module that defined it.

Methods of the value types (``SurfTensor2.det`` and the like) are not
wrapped; their time counts in the layer that calls them.

A span is (index, name, parent, start_ns, end_ns, pass). Spans stay in
memory and are analysed and written out after the traced phase.
"""

from __future__ import annotations

import functools
import time
import types
from array import array

import numpy as np

LAYERS = ("surface_tensors", "lattice", "invariants", "membrane_material",
          "bending_geometry", "numdiff", "scenarios", "cli")
PACKAGE = "gmem"
_CALLBACK_LAYERS = ("numdiff",)
_FIELDS = 6


def layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", None) or ""
    head, _, tail = mod.rpartition(".")
    return tail if head == PACKAGE and tail in LAYERS else None


class Tracer:
    """Installs span wrappers on the gmem layer modules and restores them."""

    def __init__(self, modules):
        self.modules = modules
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._spans = array("q")
        # [current span, next span index, current pass]
        self._state = [-1, 0, -1]
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[dict, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        spans = self._spans
        st = self._state
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = st[0]
            idx = st[1]
            st[1] = idx + 1
            st[0] = idx
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                st[0] = parent
                spans.extend((idx, nid, parent, start, end, st[2]))
        return traced

    def _callback(self, obj):
        """Span-wrap a gmem function passed as an argument, else return it."""
        layer = layer_of(obj) if type(obj) is types.FunctionType else None
        if layer is None:
            return obj
        return self._span_wrapper(obj, f"{layer}.{obj.__qualname__}")

    def _wrapper_for(self, fn):
        w = self._wrappers.get(id(fn))
        if w is None:
            layer = layer_of(fn)
            w = self._span_wrapper(fn, f"{layer}.{fn.__qualname__}")
            if layer in _CALLBACK_LAYERS:
                inner, callback = w, self._callback

                def w(*args, **kwargs):
                    return inner(*[callback(a) for a in args], **kwargs)
            functools.update_wrapper(w, fn)
            self._wrappers[id(fn)] = w
        return w

    # -- installing --------------------------------------------------------

    def _patch(self, table: dict, key, fn) -> None:
        self._patches.append((table, key, fn))
        table[key] = self._wrapper_for(fn)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for mod in self.modules:
                here = mod.__name__
                for key, val in list(vars(mod).items()):
                    if isinstance(val, types.FunctionType) and layer_of(val):
                        if val.__module__ != here or not key.startswith("_"):
                            self._patch(mod.__dict__, key, val)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if isinstance(v, types.FunctionType) and layer_of(v):
                                self._patch(val, k, v)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            table, key, fn = self._patches.pop()
            table[key] = fn

    def set_pass(self, pass_id: int) -> None:
        self._state[2] = pass_id

    # -- results -----------------------------------------------------------

    def spans(self) -> np.ndarray:
        """(n, 6) int64 array ordered by span index:
        index, name id, parent index, start ns, end ns, pass."""
        raw = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, _FIELDS)
        out = np.empty_like(raw)
        out[raw[:, 0]] = raw
        return out

    def write(self, path, passes_ns) -> None:
        np.savez(path, names=np.array(self.names), spans=self.spans(),
                 passes_ns=np.asarray(passes_ns, dtype=np.int64))


class SpanTable:
    """Per-pass call counts and self times derived from recorded spans."""

    def __init__(self, names, spans: np.ndarray, passes_ns):
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.spans = spans
        self.passes_ns = np.asarray(passes_ns, dtype=np.int64).reshape(-1, 2)
        n_pass = len(self.passes_ns)
        n_names = len(self.names)
        name = spans[:, 1]
        parent = spans[:, 2]
        dur = spans[:, 4] - spans[:, 3]
        child = parent >= 0
        child_ns = np.bincount(parent[child], weights=dur[child],
                               minlength=len(spans)).astype(np.int64)
        self.self_ns = dur - child_ns
        cell = spans[:, 5] * n_names + name
        size = n_pass * n_names
        self.calls = np.bincount(cell, minlength=size).reshape(n_pass, n_names)
        self.self_by_name = np.bincount(
            cell, weights=self.self_ns, minlength=size).reshape(n_pass, n_names)
        self.root_ns = np.bincount(spans[~child, 5], weights=dur[~child],
                                   minlength=n_pass)

    def calls_of(self, name: str) -> np.ndarray:
        """Calls per pass of one span name (zeros if never called)."""
        i = self.index.get(name)
        return (np.zeros(len(self.passes_ns), dtype=np.int64) if i is None
                else self.calls[:, i])

    def self_ns_of(self, name: str) -> np.ndarray:
        i = self.index.get(name)
        return (np.zeros(len(self.passes_ns)) if i is None
                else self.self_by_name[:, i])

    def layer_self_ns(self, layer: str) -> np.ndarray:
        cols = [i for i, n in enumerate(self.names)
                if n.split(".", 1)[0] == layer]
        return self.self_by_name[:, cols].sum(axis=1)

    def count_under(self, name: str, ancestor: str, depth: int) -> int:
        """Spans called `name` that have an `ancestor` span at most `depth`
        levels above them."""
        i, a = self.index.get(name), self.index.get(ancestor)
        if i is None or a is None:
            return 0
        sel = np.nonzero(self.spans[:, 1] == i)[0]
        up = self.spans[sel, 2]
        found = np.zeros(len(sel), dtype=bool)
        for _ in range(depth):
            ok = up >= 0
            found[ok] |= self.spans[up[ok], 1] == a
            up[ok] = self.spans[up[ok], 2]
        return int(found.sum())

    def children_per_span(self, name: str, child: str | None) -> np.ndarray:
        """For each span called `name`, the number of its direct children
        called `child` (any name if `child` is None)."""
        i = self.index.get(name)
        if i is None:
            return np.zeros(0, dtype=np.int64)
        kids = self.spans[self.spans[:, 2] >= 0]
        if child is not None:
            kids = kids[kids[:, 1] == self.index.get(child, -1)]
        per_parent = np.bincount(kids[:, 2], minlength=len(self.spans))
        return per_parent[self.spans[:, 1] == i]

    def accounting_errors(self) -> list[str]:
        """Structural checks: spans nest inside their parent, root spans lie
        inside their pass and do not overlap, and no self time is negative."""
        errs = []
        s = self.spans
        if len(s) == 0:
            return errs
        if np.any(s[:, 4] < s[:, 3]):
            errs.append("span ends before it starts")
        child = s[:, 2] >= 0
        par = s[s[child, 2]]
        if np.any((s[child, 3] < par[:, 3]) | (s[child, 4] > par[:, 4])):
            errs.append("child span outside its parent")
        if np.any(s[child, 5] != par[:, 5]):
            errs.append("child span in another pass than its parent")
        roots = s[~child]
        lo = self.passes_ns[roots[:, 5], 0]
        hi = self.passes_ns[roots[:, 5], 1]
        if np.any((roots[:, 3] < lo) | (roots[:, 4] > hi)):
            errs.append("root span outside its pass")
        order = np.lexsort((roots[:, 3], roots[:, 5]))
        r = roots[order]
        same = r[1:, 5] == r[:-1, 5]
        if np.any(r[1:, 3][same] < r[:-1, 4][same]):
            errs.append("overlapping root spans")
        if np.any(self.self_ns < 0):
            errs.append("negative self time")
        return errs
