"""Spans recorded by the benchmark's own wrappers around the public
functions of each layer.

A span is (operation id, name, start, end, parent).  Spans live in flat
arrays while the workload runs and are written out once at the end.  A
layer's self time is its span's duration minus the durations of its
child spans; the calls are sequential in one thread, so children never
overlap.
"""
from __future__ import annotations

import csv
import functools
import gzip
import inspect
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (layer, owner, attribute): owner is the module itself or a class in it.
TARGETS = [
    ("boolfn", None, "parse_gbf"),
    ("boolfn", None, "check_path_after_deletion"),
    ("boolfn", None, "sequence_of"),
    ("boolfn", None, "pbf_sequence"),
    ("construct", None, "build_ccc"),
    ("construct", None, "build_zccs"),
    ("construct", None, "build_zccs_by_concatenation"),
    ("correlate", None, "code_accf"),
    ("correlate", None, "profile"),
    ("algebra", "CycInt", "is_zero"),
    ("algebra", "CycInt", "to_complex"),
    ("verify", None, "check_zccs"),
    ("verify", None, "max_zcz"),
    ("verify", None, "check_ccc"),
    ("verify", None, "verify_code_set"),
    ("cli", None, "read_code_set"),
    ("cli", None, "write_code_set"),
    ("cli", None, "main"),
]
SPAN_NAMES = [f"{layer}.{attr}" for layer, _, attr in TARGETS]
COUNTERS = {
    "cli.read.bytes": "bytes",
    "cli.write.bytes": "bytes",
    "construct.entries_built": "count",
    "verify.cells_needed": "count",
    "verify.cells_evaluated": "count",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.verdicts: list[tuple] = []
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation; spans inside share its id."""
        self.op_id += 1
        i = self._open(self._intern("op." + kind))
        try:
            yield
        finally:
            self._close(i)

    def _inside(self, layer: str) -> bool:
        prefix = layer + "."
        return any(self.names[self.name_id[i]].startswith(prefix) for i in self.stack[1:])

    def wrap(self, name: str, fn, hook=None):
        nid = self._intern(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- hooks: counts taken at the layer boundary ------------------------

    def _hooks(self, z) -> dict:
        def count(key, amount):
            self.counters[key] += amount

        def read(args, kwargs, result):
            count("cli.read.bytes", os.path.getsize(args[0]))

        def write(args, kwargs, result):
            count("cli.write.bytes", os.path.getsize(args[1]))

        def built(args, kwargs, result):
            pp = result.params
            count("construct.entries_built", pp.K * pp.M * pp.N)

        def accf(args, kwargs, result):
            if self._inside("verify"):
                count("verify.cells_evaluated", 1)

        def report(args, kwargs, result):
            if not self._inside("verify"):
                call = inspect.signature(z.verify.verify_code_set).bind(*args, **kwargs)
                call.apply_defaults()
                pp = call.args[0].params
                z_ = call.arguments["z"] or pp.Z
                self.verdicts.append((pp.K, pp.M, pp.N, z_, result.is_zccs_at_claimed_z,
                                      result.witness, result.max_zcz, result.is_ccc))

        def ccc(args, kwargs, result):
            if not self._inside("verify"):
                pp = args[0].params
                self.verdicts.append((pp.K, pp.M, pp.N, 0, True, None, None, result))

        return {
            "cli.read_code_set": read,
            "cli.write_code_set": write,
            "construct.build_ccc": built,
            "construct.build_zccs": built,
            "construct.build_zccs_by_concatenation": built,
            "correlate.code_accf": accf,
            "verify.verify_code_set": report,
            "verify.check_ccc": ccc,
        }

    def install(self, z) -> None:
        """Wrap every target in the package ``z`` (a namespace of its
        modules), rebinding each name in every loaded ``zccs`` module that
        refers to the original function."""
        hooks = self._hooks(z)
        modules = [m for n, m in sys.modules.items() if n == "zccs" or n.startswith("zccs.")]
        for layer, owner_name, attr in TARGETS:
            name = f"{layer}.{attr}"
            module = getattr(z, layer, None)
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, fn, hooks.get(name))
            if owner_name:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    # -- aggregation ------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return nid, parent, dur, dur - child

    def summary(self) -> dict:
        """Per-layer metrics: {name: (value, unit)}."""
        nid, parent, dur, self_t = self._arrays()
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        self_s = np.bincount(nid, weights=self_t, minlength=n_names)
        out = {}
        for name in SPAN_NAMES:
            i = self._ids.get(name)
            out[name + ".calls"] = (int(calls[i]) if i is not None else 0, "count")
            out[name + ".self_s"] = (float(self_s[i]) if i is not None else 0.0, "s")
        self.counters["verify.cells_needed"] = sum(cells_needed(*v) for v in self.verdicts)
        for key, unit in COUNTERS.items():
            out[key] = (int(self.counters[key]), unit)
        evaluated = self.counters["verify.cells_evaluated"]
        out["verify.useful_ratio"] = (self.counters["verify.cells_needed"] / evaluated if evaluated else 0.0, "ratio")
        roots = parent < 0
        op_wall = float(dur[roots].sum())
        out["trace.layer_frac"] = (1.0 - float(self_t[roots].sum()) / op_wall if op_wall else 0.0, "frac")
        out["trace.spans"] = (len(dur), "count")
        return out

    def accounting_error(self) -> float:
        """Largest |sum of self times in an operation - its wall time|, in s."""
        nid, parent, dur, self_t = self._arrays()
        op = np.frombuffer(self.op, dtype=np.int32)
        if not len(op):
            return 0.0
        total = np.bincount(op, weights=self_t)
        wall = np.zeros_like(total)
        wall[op[parent < 0]] = dur[parent < 0]
        return float(np.max(np.abs(total - wall)))

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed CSV, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "name", "start_s", "end_s", "parent"])
            names = self.names
            for op, nid, s, e, p in zip(self.op, self.name_id, self.start, self.end, self.parent):
                out.writerow([op, names[nid], f"{s - t0:.9f}", f"{e - t0:.9f}", p])


def cells_needed(K, M, N, z, ok, witness, w, is_ccc) -> int:
    """Distinct (mu1, mu2, tau >= 0) cells a single pass must decide to give
    the same report.

    The zone verdict at z needs every cell with tau < z when it holds, or
    the cells up to the witness in lexicographic order; an exact max_zcz
    of w needs every cell with tau < w plus one failing cell at tau = w; a
    true is_ccc on a set with K = M needs every cell.  ``z = 0`` marks a
    bare ``check_ccc`` call.
    """
    mask = np.zeros((K, K, N), dtype=bool)
    if z and ok:
        mask[:, :, :z] = True
    elif z:
        mu1, mu2, tau = witness
        zone = np.zeros(K * K * z, dtype=bool)
        zone[: (mu1 * K + mu2) * z + tau + 1] = True
        mask[:, :, :z] |= zone.reshape(K, K, z)
    if w is not None:
        mask[:, :, :w] = True
    if is_ccc and K == M:
        mask[:] = True
    extra = 1 if w is not None and w < N and not mask[:, :, w].any() else 0
    return int(mask.sum()) + extra
