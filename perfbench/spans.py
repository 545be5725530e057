"""Spans recorded from outside the program.

``Tracer.install`` wraps public functions of ``delpezzo``'s four modules in
every module namespace that binds them (``classify`` and ``gallery`` import
names from ``lattice``; the package re-exports them), plus
``SurfaceModel.__eq__``.  A span is (name, start, end, parent, op id); spans
stay in compact arrays in memory and are written out at the end.  Self time
is a span's duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import reference as R

CLI_SUBCOMMANDS = ("classify", "bound", "examples", "oracle", "lattice")


def _form_entries(counts, bound, result):
    counts["lattice.form_entries_built"] += result.rank**2


def _intersect_rank(counts, bound, result):
    counts["lattice.intersect.rank_sum"] += bound.args[0].model.rank


def _oracle_cells(counts, bound, result):
    counts["classify.oracle.cells"] += R.oracle_cells(*bound.args[:3])
    counts["classify.oracle.cases"] += len(result)


def _cli_span(bound):
    return f"cli.main.{bound.args[0][0]}"


#: (span name or a function of the bound arguments, module, function, count hook)
TARGETS = (
    ("lattice.model_from_json", "lattice", "model_from_json", None),
    ("lattice.class_from_json", "lattice", "class_from_json", None),
    ("lattice.to_json", "lattice", "model_to_json", None),
    ("lattice.to_json", "lattice", "class_to_json", None),
    ("lattice.blowup", "lattice", "blowup", _form_entries),
    ("lattice.intersect", "lattice", "intersect", _intersect_rank),
    ("lattice.cone_predicates", "lattice", "is_effective", None),
    ("lattice.cone_predicates", "lattice", "is_nef", None),
    ("lattice.cone_predicates", "lattice", "is_ample", None),
    ("lattice.cone_predicates", "lattice", "is_cartier", None),
    ("classify.restriction_cases", "classify", "restriction_cases", None),
    ("classify.classify_rows", "classify", "classify_rows", None),
    ("classify.audit_m_filters", "classify", "audit_m_filters", None),
    ("classify.oracle", "classify", "restriction_cases_oracle", _oracle_cells),
    ("gallery.verify_gallery", "gallery", "verify_gallery", None),
    (_cli_span, "cli", "main", None),
)
#: spans reported as ``<name>.calls`` and ``<name>.self_ms``
SPAN_NAMES = tuple(dict.fromkeys(
    [t[0] for t in TARGETS if isinstance(t[0], str)]
    + ["lattice.model_eq"]
    + [f"cli.main.{s}" for s in CLI_SUBCOMMANDS]
))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self.active = True
        return self.open("op")

    def end_op(self, i: int) -> None:
        self.close(i)
        self.active = False

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn) if hook or callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            i = self.open(name(bound) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook:
                hook(self.counts, bound, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, mods) -> None:
        """Wrap every target in every ``delpezzo`` namespace that binds it.
        A target the program no longer has is skipped; its metrics read 0."""
        namespaces = [m for n, m in list(sys.modules.items()) if n == "delpezzo" or n.startswith("delpezzo.")]
        for name, module, attr, hook in TARGETS:
            orig = getattr(getattr(mods, module), attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._restore.append((ns, key, orig))
                        setattr(ns, key, wrapper)
        model = getattr(mods.lattice, "SurfaceModel", None)
        if model is not None and "__eq__" in vars(model):
            orig = vars(model)["__eq__"]
            self._restore.append((model, "__eq__", orig))
            model.__eq__ = self._wrap("lattice.model_eq", orig, None)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self time (ms) and work counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - covered[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_s[name] * 1e3
        c = self.counts
        out["lattice.form_entries_built"] = c["lattice.form_entries_built"]
        out["lattice.intersect.rank_mean"] = _ratio(c["lattice.intersect.rank_sum"], calls["lattice.intersect"])
        out["classify.oracle.cells"] = c["classify.oracle.cells"]
        out["classify.oracle.yield"] = _ratio(c["classify.oracle.cases"], c["classify.oracle.cells"])
        out["gallery.classify_rows_per_verify"] = _ratio(self._rows_under_verify(), calls["gallery.verify_gallery"])
        return out

    def _rows_under_verify(self) -> int:
        ids = self._ids
        rows, verify = ids.get("classify.classify_rows"), ids.get("gallery.verify_gallery")
        count = 0
        for i in range(len(self.start)):
            if self.name[i] != rows:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != verify:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name[i]],
                    "start": round(self.start[i] - t0, 9),
                    "end": round(self.end[i] - t0, 9),
                    "parent": self.parent[i],
                    "op": self.op[i],
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
