"""Span tracer that times the steinberg layers from outside the package.

`Tracer.install()` replaces the public functions and methods of the layer
modules with wrappers, and rebinds every module attribute that still points
at an original, so names imported by other modules (`rref`, `row_basis`,
`kernel`, `spin`, ...) are traced wherever they are called from.
`Tracer.uninstall()` puts the originals back.

Each wrapped call records one span: name, start, end and parent span.
Spans are kept in flat arrays while the run lasts and written out by
`save()` when it ends.  A span nested inside a span of the same name (a
recursive call, or `_spin_rows` under `spin`) is part of that outer call:
it adds to self time but not to the call count or the inclusive time.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "steinberg"
LAYERS = ("bngroup", "hecke", "gf", "meataxe", "modrep", "polynomials")

# Methods of these classes are named after the layer alone (`gf.mat_mul`,
# `bngroup.weyl_of`); methods of other classes carry the class name too.
PRIMARY_CLASS = {"bngroup": "GLGroup", "gf": "FiniteField"}

# FiniteField's element and row helpers (add, mul, scale, mat_sub, ...) run
# millions of times a pass, and a span each would cost more than the work.
# mat_mul is the one FiniteField kernel with a per-layer metric.
FIELD_METHODS = frozenset({"mat_mul"})

# Private functions that are called directly in place of a public one and
# are traced under its name.
ALIASES = {("meataxe", "_spin_rows"): "meataxe.spin"}


def _mat_mul_work(work, F, A, B):
    shape_a, shape_b = np.shape(A), np.shape(B)
    if len(shape_a) == 2 and len(shape_b) == 2:
        madds = shape_a[0] * shape_a[1] * shape_b[1]
        work["gf.mat_mul.madds"] += madds * (F.k ** 2 if F.k > 1 else 1)


def _rref_work(work, F, A):
    shape = np.shape(A)
    if len(shape) == 2:
        work["gf.rref.cells"] += shape[0] * shape[1]
        work["gf.rref.max_rows"] = max(work["gf.rref.max_rows"], shape[0])


def _hom_space_work(work, A, B):
    rows = len(A.mats) * A.dim * B.dim
    work["meataxe.hom_space.max_rows"] = max(
        work["meataxe.hom_space.max_rows"], rows)


def _borel_matrices_work(work, G):
    work["hecke.borel_matrices_int.bytes"] += G.weyl.order * G.index ** 2 * 8


# Work counts computed from argument shapes when a traced call starts.
WORK = {
    "gf.mat_mul": _mat_mul_work,
    "gf.rref": _rref_work,
    "meataxe.hom_space": _hom_space_work,
    "hecke.borel_matrices_int": _borel_matrices_work,
}
WORK_METRICS = ("gf.mat_mul.madds", "gf.rref.cells", "gf.rref.max_rows",
                "meataxe.hom_space.max_rows", "hecke.borel_matrices_int.bytes")


class Tracer:
    """Records spans of the wrapped layer calls; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth: list[int] = []
        self.work = dict.fromkeys(WORK_METRICS, 0)
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        nid = self._ids[name]
        count_work = WORK.get(name)
        work, depth, stack = self.work, self._depth, self._stack
        name_ids, parents, outers = self.name_id, self.parent, self.outer
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_work is not None:
                count_work(work, *args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            outers.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] -= 1
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls) -> None:
        primary = PRIMARY_CLASS.get(layer) == cls.__name__
        prefix = layer if primary else f"{layer}.{cls.__name__}"
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if cls.__name__ == "FiniteField" and attr not in FIELD_METHODS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, functools.cached_property):
                prop = functools.cached_property(self._wrap(name, member.func))
                prop.__set_name__(cls, attr)
                self._patch(cls, attr, prop)

    def install(self) -> None:
        """Wrap every layer; rebind imported names in all package modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and obj not in wrapped:
                    # named by __name__, so an alias such as
                    # `gelfand_graev_k = gelfand_graev` shares one span name
                    name = ALIASES.get((layer, obj.__name__))
                    if name is None and not obj.__name__.startswith("_"):
                        name = f"{layer}.{obj.__name__}"
                    if name is not None:
                        wrapped[obj] = self._wrap(name, obj)
                elif isinstance(obj, type) and not attr.startswith("_"):
                    self._wrap_class(layer, obj)
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def mark(self) -> int:
        """Start a pass: reset the work counts, return the first span index."""
        for key in self.work:
            self.work[key] = 0
        return len(self.start)

    def summarize(self, first: int, wall: float) -> dict:
        """Per-name calls, inclusive and self time of the spans from `first`.

        Also gives the share of `wall` that top-level spans cover and the
        work counts of the pass.
        """
        nid = np.frombuffer(self.name_id[first:], dtype=np.int32)
        parent = np.frombuffer(self.parent[first:], dtype=np.int64) - first
        outer = np.frombuffer(self.outer[first:], dtype=np.int8).astype(bool)
        dur = (np.frombuffer(self.end[first:], dtype=np.float64)
               - np.frombuffer(self.start[first:], dtype=np.float64))
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid[outer], minlength=k)
        incl = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(incl[i])
            out[f"{name}.self_s"] = float(own[i])
        out.update(self.work)
        out["trace.spans"] = int(dur.size)
        out["trace.cover_frac"] = float(dur[~nested].sum() / wall)
        return out

    def save(self, path) -> None:
        """Write every span recorded so far as a compressed numpy archive."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            outer=np.frombuffer(self.outer, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
