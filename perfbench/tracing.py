"""Spans around calls into each ginvlab module, and the per-layer numbers.

A span is (name, start, end, parent).  Spans live in flat arrays while the
traced pass runs and are written out once at the end.  Wrappers are placed
at every name a caller can reach: each module's public functions, the
same functions where other modules imported them by name (theoremlab
imports ref_decomposition and friends from ginv, ginv imports is_regular
from rings), and a few methods of the ring classes.  Ring._tables is the
one private boundary timed, because building op tables has no public
entry point; only calls that actually build are recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("cli", "fixture", "ginv", "gfmatrix", "parsing", "rings", "theoremlab")

SET_KERNELS = ("inner_inverses", "outer_inverses", "reflexive_inverses",
               "inner_annihilator", "left_annihilator", "right_annihilator")


class Tracer:
    """Records nested spans; install() wraps ginvlab, uninstall() undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.elems: dict[str, int] = {}
        self.table_bytes = 0
        self._stack = [-1]
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, size_of=None):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, elems, clock = self._stack, self.elems, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if size_of is not None:
                elems[name] = elems.get(name, 0) + size_of(out)
            return out

        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap public functions of every module, where defined and imported."""
        mods = {m: importlib.import_module(f"ginvlab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in [importlib.import_module("ginvlab"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

        rings = mods["rings"]
        for cls, meth in ((rings.Ring, "idx_mul"), (rings.Ring, "idx_add")):
            self._set(cls, meth, self.wrap(f"rings.{meth}", cls.__dict__[meth],
                                           size_of=np.size))
        for cls in (rings.Ring, rings.ZmodRing):
            self._set(cls, "unit_indices", self.wrap(
                f"rings.{cls.__name__}.unit_indices", cls.__dict__["unit_indices"]))
        from_indices = rings.ElemSet.__dict__["from_indices"].__func__
        self._set(rings.ElemSet, "from_indices", classmethod(self.wrap(
            "rings.ElemSet.from_indices", from_indices, size_of=len)))

        plain = rings.Ring.__dict__["_tables"]

        def build(ring):
            out = plain(ring)
            self.table_bytes += sum(t.nbytes for t in out)
            return out

        traced_build = self.wrap("rings.Ring._tables", build)

        def tables(ring):
            # every table lookup passes through here; record only real builds
            return plain(ring) if ring._mul_table is not None else traced_build(ring)

        self._set(rings.Ring, "_tables", tables)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, n in enumerate(self.names)}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    t = tracer.totals()

    def calls(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[1] for n in names)

    ideals = ("ginv.principal_right_ideal", "ginv.principal_left_ideal")
    kernels = tuple(f"ginv.{k}" for k in SET_KERNELS)
    units = ("rings.Ring.unit_indices", "rings.ZmodRing.unit_indices")
    out = {
        "ginv.ref_decomposition_s": secs("ginv.ref_decomposition"),
        "ginv.ref_decomposition_calls": calls("ginv.ref_decomposition"),
        "ginv.principal_ideal_s": secs(*ideals),
        "ginv.principal_ideal_calls": calls(*ideals),
        "ginv.set_kernel_s": secs(*kernels),
        "ginv.set_kernel_calls": calls(*kernels),
        "rings.elemset_from_indices_s": secs("rings.ElemSet.from_indices"),
        "rings.elemset_from_indices_calls": calls("rings.ElemSet.from_indices"),
        "rings.elemset_members": tracer.elems.get("rings.ElemSet.from_indices", 0),
        "rings.table_build_s": secs("rings.Ring._tables"),
        "rings.table_builds": calls("rings.Ring._tables"),
        "rings.table_bytes": tracer.table_bytes,
    }
    for op in ("idx_mul", "idx_add"):
        out[f"rings.{op}_calls"] = calls(f"rings.{op}")
        out[f"rings.{op}_elems"] = tracer.elems.get(f"rings.{op}", 0)
        out[f"rings.{op}_s"] = secs(f"rings.{op}")
    out.update({
        "rings.is_semiprime_s": secs("rings.is_semiprime"),
        "rings.is_semiprime_calls": calls("rings.is_semiprime"),
        "rings.regular_elements_s": secs("rings.regular_elements"),
        "rings.units_s": secs(*units),
        "rings.is_regular_s": secs("rings.is_regular"),
        "rings.build_table_algebra_s": secs("rings.build_table_algebra"),
        "cli.load_ring_s": secs("cli.load_ring"),
        "cli.load_ring_calls": calls("cli.load_ring"),
        "fixture.build_example_ring_s": secs("fixture.build_example_ring"),
        "gfmatrix.row_reduce_s": secs("gfmatrix.row_reduce"),
        "gfmatrix.row_reduce_calls": calls("gfmatrix.row_reduce"),
        "parsing.parse_element_s": secs("parsing.parse_element"),
        "parsing.render_elem_s": secs("parsing.render_elem"),
        "parsing.render_elem_calls": calls("parsing.render_elem"),
    })
    for mod in MODULES:
        # the cli layer's own time is main's work: argv, reports and JSON
        key = "cli.main_self_s" if mod == "cli" else f"layer.{mod}_self_s"
        out[key] = sum(v[2] for n, v in t.items() if n.split(".", 1)[0] == mod)
    out["trace.spans"] = len(tracer.start)
    return out
