"""Spans around the calls into each dtnpos layer, installed from outside the program.

A wrap replaces a module-level name in the *caller's* module, because that is
where the caller looks it up at call time (``dtnpos.sweep.assemble_outer`` is
the name the sweep loop calls).  The program's source stays untouched.  Spans
are kept in memory as (name, start, end, parent) columns; a span's self time
is its duration minus the durations of its child spans, and the root span of
a request identifies every span under it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (caller module, name looked up there, metric name, layer doing the work, kind)
#   span:    one span per call, counts calls and raised exceptions
#   count:   counter of returned calls only (metric name is the counter), for
#            names called per matrix entry or once per solved level
#   vectors: generator; one span per generator whose duration is the time spent
#            inside it (it interleaves with its caller), counts yielded items
WRAPS = [
    ("dtnpos.cli", "load_graph", "graphs.load_graph", "graphs", "span"),
    ("dtnpos.cli", "sweep", "sweep.sweep", "sweep", "span"),
    ("dtnpos.cli", "write_csv", "sweep.write_csv", "sweep", "span"),
    ("dtnpos.cli", "report", "sweep.report", "sweep", "span"),
    ("dtnpos.cli", "pole_scan", "spectra.pole_scan", "spectra", "span"),
    ("dtnpos.cli", "kirchhoff_spectrum", "spectra.kirchhoff_spectrum", "spectra", "span"),
    ("dtnpos.cli", "commensurable_family", "search.commensurable_family", "search", "span"),
    ("dtnpos.cli", "find_strongly_positive_above", "search.find", "search", "span"),
    ("dtnpos.cli", "find_not_eventually_positive_above", "search.find", "search", "span"),
    ("dtnpos.cli", "find_eventual_not_positive_above", "search.find", "search", "span"),
    ("dtnpos.cli", "kronecker_sequence", "search.kronecker_sequence", "search", "span"),
    ("dtnpos.cli", "verify_limit", "search.verify_limit", "search", "span"),
    ("dtnpos.sweep", "pole_scan", "spectra.pole_scan", "spectra", "span"),
    ("dtnpos.sweep", "assemble_outer", "assembly.assemble_outer", "assembly", "span"),
    ("dtnpos.sweep", "classify", "positivity.classify", "positivity", "span"),
    ("dtnpos.assembly", "assemble_full", "assembly.assemble_full", "assembly", "span"),
    ("dtnpos.assembly", "schur_reduce", "assembly.schur_reduce", "assembly", "span"),
    ("dtnpos.assembly", "reduced_graph", "graphs.reduced_graph", "graphs", "span"),
    ("dtnpos.assembly", "adjacency_pattern", "graphs.adjacency_pattern", "graphs", "span"),
    ("dtnpos.assembly", "edge_alpha_beta", "assembly.edge_alpha_beta.calls", "assembly", "count"),
    ("dtnpos.positivity", "is_metzler", "positivity.is_metzler", "positivity", "span"),
    ("dtnpos.positivity", "is_irreducible", "positivity.is_irreducible", "positivity", "span"),
    ("dtnpos.spectra", "assemble_full", "spectra.assemble_full", "assembly", "span"),
    ("dtnpos.spectra", "kirchhoff_spectrum", "spectra.kirchhoff_spectrum", "spectra", "span"),
    ("dtnpos.search", "assemble_outer", "assembly.assemble_outer", "assembly", "span"),
    ("dtnpos.search", "assemble_full", "assembly.assemble_full", "assembly", "span"),
    ("dtnpos.search", "classify", "positivity.classify", "positivity", "span"),
    ("dtnpos.search", "reduced_graph", "graphs.reduced_graph", "graphs", "span"),
    ("dtnpos.search", "limit_schur", "search.limit_schur", "search", "span"),
    ("dtnpos.search", "_solve_level", "search.levels_solved", "search", "count"),
    ("dtnpos.search", "lll_reduce", "lattice.lll_reduce", "lattice", "span"),
    ("dtnpos.search", "enumerate_near", "lattice.enumerate_near", "lattice", "vectors"),
    ("dtnpos.lattice", "gram_schmidt", "lattice.gram_schmidt", "lattice", "span"),
    ("dtnpos.lattice", "babai_nearest", "lattice.babai_nearest", "lattice", "span"),
]
# the verifier's own exponential oracle, traced in its own phase
ORACLE_WRAP = ("dtnpos.positivity", "expm_oracle", "positivity.expm_oracle", "positivity", "span")
ROOT = "cli.main"
LAYERS = ("graphs", "assembly", "positivity", "spectra", "sweep", "search", "lattice", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(layer)
        return self._ids[name]

    def _open(self, name_id: int, t: float) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(t)
        self.end.append(t)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span; used for the per-request root span."""
        i = self._open(self._id(name, layer), perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def _span(self, fn, name: str, layer: str):
        nid = self._id(name, layer)
        raised = name + ".raised"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid, perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[raised] += 1
                raise
            finally:
                self._close(i)
        return wrapper

    def _count(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts[name] += 1
            return out
        return wrapper

    def _vectors(self, fn, name: str, layer: str):
        nid = self._id(name, layer)
        key = name + ".vectors"

        def drive(gen):
            i = None
            busy = 0.0
            n = 0
            try:
                while True:
                    t0 = perf_counter()
                    if i is None:
                        i = self._open(nid, t0)
                    else:
                        self._stack.append(i)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - t0
                        self._stack.pop()
                    n += 1
                    yield item
            finally:
                gen.close()
                self.counts[key] += n
                if i is not None:
                    self.end[i] = self.start[i] + busy

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return drive(fn(*args, **kwargs))
        return wrapper

    def install(self, wraps=WRAPS) -> None:
        for module, attr, name, layer, kind in wraps:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            make = {"span": self._span, "count": self._count, "vectors": self._vectors}[kind]
            setattr(mod, attr, make(original, name, layer))
            self._undo.append((mod, attr, original))

    @contextlib.contextmanager
    def installed(self, wraps=WRAPS):
        self.install(wraps)
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        # spans are stored in opening order, so a parent precedes its children
        root = np.arange(len(parent), dtype=np.int64)
        for i in np.flatnonzero(has_parent):
            root[i] = root[parent[i]]
        return {"name": name, "parent": parent, "dur": dur, "self": dur - child, "root": root}

    def summary(self, root_name: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, over spans under root_name roots."""
        a = self.arrays()
        out: dict[str, dict[str, float]] = {}
        if root_name not in self._ids or not len(a["name"]):
            return out
        under = a["name"][a["root"]] == self._ids[root_name]
        for nid, name in enumerate(self.names):
            sel = under & (a["name"] == nid)
            if sel.any():
                out[name] = {"calls": int(sel.sum()), "total_s": float(a["dur"][sel].sum()),
                             "self_s": float(a["self"][sel].sum()), "layer": self.layer[nid]}
        return out

    def dump(self, path) -> None:
        """Write every span as JSON columns (times in seconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "names": self.names,
                "layers": self.layer,
                "name": list(self.name),
                "parent": list(self.parent),
                "root": self.arrays()["root"].tolist(),
                "start": [round(t - t0, 7) for t in self.start],
                "end": [round(t - t0, 7) for t in self.end],
                "counts": dict(self.counts),
            }, f)
