"""In-memory span tracer that wraps the public functions of each sl2frob layer.

Nothing in the package is edited: `Tracer.install` replaces each traced
function or method everywhere it is looked up (module globals of every
loaded sl2frob module, and the defining class for methods), so names bound
with `from .homology import hom_space` are traced too.

A span is (op id, span id, parent span id, name, start, end).  Self time is
a span's duration minus the time covered by its direct child spans.
`exactfield.matrix_new` (Matrix.__init__) is counted but gets no span: it
runs millions of times per pass, so its cost stays in its caller.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def module_key(M) -> bytes:
    """Content identity of a ModuleRep: field, grading, p-character, level actions."""
    h = hashlib.sha1(repr(M.ctx).encode())
    h.update(np.ascontiguousarray(M.grading).tobytes())
    h.update(repr([s.coeffs for s in M.pchar_scalars]).encode())
    for G in list(M.E) + list(M.F):
        h.update(repr(G.arr.shape).encode())
        h.update(np.ascontiguousarray(G.arr).tobytes())
    return h.digest()


def _hom_unknowns(M, N, degree) -> int:
    """Width of the blocked Hom system, summed over the degrees solved."""
    wM, wN = M.weight_indices(), N.weight_indices()
    if degree is not None:
        deltas = [degree]
    else:
        deltas = {int(wn) - int(wm) for wn in N.weights() for wm in M.weights()}
    return sum(len(wM[w]) * len(wN[w + d]) for d in deltas for w in wM if (w + d) in wN)


def _hom_space(args, kwargs, result, st, seen):
    M, N = args[0], args[1]
    degree = args[2] if len(args) > 2 else kwargs.get("degree")
    st["unknowns"] += _hom_unknowns(M, N, degree)
    key = (module_key(M), module_key(N), degree)
    st["repeats"] += key in seen
    seen.add(key)


def _extended_projective(args, kwargs, result, st, seen):
    ctx, i = args[0], args[1]
    key = (repr(ctx), i, kwargs.get("seed", args[2] if len(args) > 2 else 0))
    st["repeats"] += key in seen
    seen.add(key)


def _rref(args, kwargs, result, st, seen):
    r, c, k = args[0].arr.shape
    st["cells"] += r * c * k


def _matmul(args, kwargs, result, st, seen):
    a, b = args
    st["mults"] += a.rows * a.cols * b.cols * a.ctx.k ** 2


def _tensor(args, kwargs, result, st, seen):
    st["out_dim"] += result.dim


# (module, attribute path, span name, counter run after each call)
TARGETS = [
    ("exactfield", "Matrix.rref", "exactfield.rref", _rref),
    ("exactfield", "Matrix.__matmul__", "exactfield.matmul", _matmul),
    ("exactfield", "Matrix.kron", "exactfield.kron", None),
    ("exactfield", "Matrix.solve", "exactfield.solve", None),
    ("exactfield", "Matrix.kernel", "exactfield.kernel", None),
    ("exactfield", "Matrix.rank", "exactfield.rank", None),
    ("smallalg", "UChiAlgebra.random_weight_zero_right_mult", "smallalg.right_mult_sample", None),
    ("smallalg", "regular_module", "smallalg.regular_module", None),
    ("repcore", "tensor", "repcore.tensor", _tensor),
    ("repcore", "submodule", "repcore.submodule", None),
    ("homology", "hom_space", "homology.hom_space", _hom_space),
    ("homology", "extended_projective", "homology.extended_projective", _extended_projective),
    ("homology", "split_indecomposables", "homology.split_indecomposables", None),
    ("homology", "is_simple", "homology.is_simple", None),
    ("homology", "spin", "homology.spin", None),
    ("homology", "radical_and_head", "homology.radical_and_head", None),
    ("homology", "EndAlgebra.center", "homology.end_center", None),
    ("vermatwist", "WindowedEnd.compose_twisted", "vermatwist.compose_twisted", None),
    ("vermatwist", "WindowedEnd.__init__", "vermatwist.windowed_end", None),
    ("vermatwist", "verma_map", "vermatwist.verma_map", None),
    ("endpresent", "FixedMaps.__init__", "endpresent.fixed_maps", None),
    ("endpresent", "verify_relations", "endpresent.pipeline", None),
    ("endpresent", "verify_generation", "endpresent.pipeline", None),
    ("endpresent", "verify_center", "endpresent.pipeline", None),
    ("steinberg", "verify_steinberg", "steinberg.pipeline", None),
    ("steinberg", "verify_restriction_simplicity", "steinberg.pipeline", None),
    ("steinberg", "hat_borel_irreducibles", "steinberg.pipeline", None),
    ("steinberg", "steinberg_block_equivalence", "steinberg.pipeline", None),
    ("steinberg", "verify_projective_construction", "steinberg.pipeline", None),
    ("steinberg", "dimension_accounting", "steinberg.pipeline", None),
    ("cli", "run_command", "cli.run_command", None),
]

# Per-layer metrics reported by a traced run: name -> (unit, better).
PER_LAYER = {}
for _name in ("exactfield.rref", "exactfield.matmul", "exactfield.kron",
              "smallalg.right_mult_sample", "smallalg.regular_module",
              "repcore.tensor", "repcore.submodule", "homology.hom_space",
              "homology.extended_projective", "homology.split_indecomposables",
              "homology.is_simple", "homology.spin", "homology.radical_and_head",
              "vermatwist.compose_twisted", "vermatwist.windowed_end",
              "vermatwist.verma_map", "endpresent.fixed_maps"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
for _name in ("homology.end_center", "endpresent.pipeline", "steinberg.pipeline",
              "cli.run_command"):
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
for _name in ("exactfield.solve", "exactfield.kernel", "exactfield.rank",
              "exactfield.matrix_new"):
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
PER_LAYER.update({
    "exactfield.rref.cells": ("count", "lower"),
    "exactfield.matmul.mults": ("count", "lower"),
    "repcore.tensor.out_dim": ("count", "lower"),
    "homology.hom_space.unknowns": ("count", "lower"),
    "homology.hom_space.repeat_share": ("ratio", "lower"),
    "homology.extended_projective.repeat_share": ("ratio", "lower"),
    "cli.serialize_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.batch_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
})

# Metrics that are exact counts: they must repeat across traced runs of one seed.
COUNT_METRICS = [n for n, (unit, _) in PER_LAYER.items() if unit != "s" and not n.startswith("trace.")]


class Tracer:
    """Collects spans and per-name counters for the ops of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []   # [start, child time, span id]
        self._seen = defaultdict(set)  # per-op repeat keys, by span name
        self._next_id = 0
        self.op_id = -1

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen.clear()

    def _wrap(self, fn, name, counter):
        tracer = self
        st = self.stats[name]
        seen = self._seen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st["calls"] += 1
            parent = tracer._stack[-1][2] if tracer._stack else None
            tracer._next_id += 1
            frame = [time.perf_counter(), 0.0, tracer._next_id]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[0]
                st["self_s"] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans.append((tracer.op_id, frame[2], parent, name, frame[0], end))
            if counter is not None:
                counter(args, kwargs, result, st, seen[name])
            return result

        return traced

    def _count_only(self, fn, name):
        st = self.stats[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every target in the loaded sl2frob modules."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "sl2frob" or n.startswith("sl2frob.")]
        replace = []
        for modname, path, name, counter in TARGETS:
            owner = sys.modules[f"sl2frob.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            replace.append((owner, attr, orig, self._wrap(orig, name, counter)))
        Matrix = sys.modules["sl2frob.exactfield"].Matrix
        init = Matrix.__dict__["__init__"]
        replace.append((Matrix, "__init__", init,
                        self._count_only(init, "exactfield.matrix_new")))
        for owner, attr, orig, new in replace:
            setattr(owner, attr, new)
            for m in mods:
                for gname, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, gname, new)

    def add(self, name: str, field: str, value: float) -> None:
        self.stats[name][field] += value

    def metrics(self) -> dict:
        """Every per-layer metric of the pass; spans that never ran read 0."""
        out = {}
        for metric, (unit, _) in PER_LAYER.items():
            if metric.startswith("trace."):
                continue
            span, field = metric.rsplit(".", 1)
            st = self.stats[span]
            if field == "repeat_share":
                value = st["repeats"] / st["calls"] if st["calls"] else 0.0
            elif unit in ("count", "bytes"):
                value = int(st[field])
            else:
                value = st[field]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write the spans of the pass, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
