"""Per-layer tracing by wrapping the library's public functions.

The library binds names with ``from .linalg import invariant_factors``, so a
wrapper is installed in every module namespace that holds the original
object (the benchmark's own modules included) and, for ``Mat`` methods, on
the class.  Each call records a span (layer name, start, end, parent span,
item id) in flat arrays; self time is a span's duration minus the durations
of its direct children.  Timed runs never call ``install``.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Dict, List

# (module, attribute, layer).  "Mat.x" is a method of linalg.Mat.
LAYERS = [
    ("linalg", "Mat.__matmul__", "linalg.matmul"),
    ("linalg", "mat_poly_eval", "linalg.mat_poly_eval"),
    ("linalg", "invariant_factors", "linalg.invariant_factors"),
    ("linalg", "Mat.rank", "linalg.rref"),
    ("linalg", "Mat.inverse", "linalg.rref"),
    ("linalg", "Mat.solve", "linalg.rref"),
    ("linalg", "Mat.kernel_basis", "linalg.rref"),
    ("linalg", "Mat.column_space_basis", "linalg.rref"),
    ("poly", "roots_in_field", "poly.roots_in_field"),
    ("decide", "pair_context", "decide.pair_context"),
    ("decide", "decide_extension", "decide.decide_extension"),
    ("decide", "decide_pair", "decide.decide_pair"),
    ("sympform", "validate_pair", "sympform.validate_pair"),
    ("sympform", "frobenius_symmetrizer", "sympform.frobenius_symmetrizer"),
    ("witness", "w_algebra_block", "witness.w_algebra_block"),
    ("witness", "verify_witness", "witness.verify_witness"),
    ("witness", "compose_witness", "witness.compose_witness"),
    ("witness", "brute_force_witness", "witness.brute_force_witness"),
    ("atlas", "indecomposable_reps", "atlas.indecomposable_reps"),
    ("exprparse", "parse_poly", "exprparse"),
    ("exprparse", "parse_scalar", "exprparse"),
    ("cli", "cli_run", "cli"),
] + [
    ("serialize", name, "serialize")
    for name in (
        "encode_scalar", "decode_scalar", "encode_poly", "decode_poly",
        "encode_mat", "decode_mat", "encode_pair", "decode_pair",
        "encode_witness", "decode_witness", "encode_case_tag",
        "encode_decision_report", "encode_verification_report",
        "encode_validity_report", "encode_table_row", "encode_sweep_report",
    )
]

ITEM = "bench.item"  # root span of one item: benchmark glue plus untraced code
LAYER_NAMES = list(dict.fromkeys(layer for _, _, layer in LAYERS))


class Tracer:
    def __init__(self):
        self.names: List[str] = [ITEM] + LAYER_NAMES
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.item_id = -1
        self.counts: Dict[str, float] = {
            "linalg.matmul.calls_numpy": 0,
            "linalg.matmul.calls_generic": 0,
            "linalg.invariant_factors.max_n": 0,
            "witness.brute_force_witness.found": 0,
            "witness.brute_force_witness.searched": 0,
            "witness.brute_force_witness.candidate_space": 0,
            "atlas.indecomposable_reps.rows": 0,
        }

    # -- spans -----------------------------------------------------------

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        # an interrupted item may leave deeper spans open; drop them too
        while self.stack and self.stack.pop() != idx:
            pass

    def begin_item(self, item_id: int) -> int:
        self.item_id = item_id
        return self.open(0)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        nid = self.name_id[layer]
        tr = self
        counts = self.counts

        # Calls made while building inputs, outside any item, are not traced.
        if layer == "linalg.matmul":
            def wrapper(a, b):
                if not tr.stack:
                    return fn(a, b)
                ctx = a.ctx
                numpy_path = (
                    ctx.kind == "prime" and a.rows and b.cols and a.cols
                    and a.cols * (ctx.p - 1) ** 2 < 2 ** 62
                )
                counts["linalg.matmul.calls_numpy" if numpy_path
                       else "linalg.matmul.calls_generic"] += 1
                idx = tr.open(nid)
                try:
                    return fn(a, b)
                finally:
                    tr.close(idx)
        elif layer == "linalg.invariant_factors":
            def wrapper(M, *args, **kwargs):
                if not tr.stack:
                    return fn(M, *args, **kwargs)
                if M.rows > counts["linalg.invariant_factors.max_n"]:
                    counts["linalg.invariant_factors.max_n"] = M.rows
                idx = tr.open(nid)
                try:
                    return fn(M, *args, **kwargs)
                finally:
                    tr.close(idx)
        elif layer == "witness.brute_force_witness":
            def wrapper(P, pctx, *args, **kwargs):
                if not tr.stack:
                    return fn(P, pctx, *args, **kwargs)
                idx = tr.open(nid)
                try:
                    found = fn(P, pctx, *args, **kwargs)
                finally:
                    tr.close(idx)
                n = P.dimension
                counts["witness.brute_force_witness.searched"] += 1
                counts["witness.brute_force_witness.found"] += found is not None
                # labelled "as computed": the full space, not candidates scanned
                counts["witness.brute_force_witness.candidate_space"] += (
                    P.ctx.order ** (n * (n - 1) // 2)
                )
                return found
        elif layer == "atlas.indecomposable_reps":
            def wrapper(*args, **kwargs):
                if not tr.stack:
                    return fn(*args, **kwargs)
                idx = tr.open(nid)
                try:
                    rows = fn(*args, **kwargs)
                finally:
                    tr.close(idx)
                counts["atlas.indecomposable_reps.rows"] += len(rows)
                return rows
        else:
            def wrapper(*args, **kwargs):
                if not tr.stack:
                    return fn(*args, **kwargs)
                idx = tr.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every entry of LAYERS wherever the original is bound."""
        from sympdiff.linalg import Mat

        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "sympdiff" or name.startswith("sympdiff."))
        ] + list(extra_modules)
        for mod_name, attr, layer in LAYERS:
            if attr.startswith("Mat."):
                meth = attr[4:]
                setattr(Mat, meth, self._wrap(getattr(Mat, meth), layer))
                continue
            original = getattr(sys.modules[f"sympdiff.{mod_name}"], attr)
            wrapper = self._wrap(original, layer)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per layer name."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {
            name: (calls[i], self_s[i]) for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        """Write every span as numpy arrays (``numpy.load`` reads them)."""
        import numpy

        numpy.savez(
            path,
            names=numpy.array(self.names),
            name=numpy.frombuffer(self.name, dtype=numpy.uint16),
            parent=numpy.frombuffer(self.parent, dtype=numpy.int32),
            item=numpy.frombuffer(self.item, dtype=numpy.int32),
            start=numpy.frombuffer(self.start, dtype=numpy.float64),
            end=numpy.frombuffer(self.end, dtype=numpy.float64),
        )
