"""JSON encoding and decoding of the package's values.

Stable schemas::

    scalar      int                       (prime fields; accepted everywhere)
                int | "a/b"               (rationals)
                [c0, ..., c_{k-1}]        (extension fields GF(p^k))
                {"num": [...], "den": [...]}   (rational function fields)
    polynomial  {"field": spec, "coeffs": [scalar, ...]}    # constant first
    matrix      {"field": spec, "rows": n, "cols": m,
                 "entries": [[scalar, ...], ...]}           # row-major
    pair        {"B": matrix, "U": matrix}
    witness     {"B": matrix, "U": matrix, "U1": matrix, "U2": matrix}

Decoders additionally accept strings in the expression grammar wherever a
scalar or polynomial is expected, and plain ints for scalars of any field.
Reports (decisions, verifications, catalogue rows, sweeps) are encoded as
plain dictionaries with polynomials rendered as grammar strings; they are
human-facing output and have no decoder.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from .decide import CaseTag, DecisionReport, PairCtx, _fmt
from .errors import SerializationError
from .exprparse import parse_poly, parse_scalar
from .fields import FieldCtx, field_make, field_spec
from .linalg import Mat
from .oracle import SweepReport
from .poly import Poly
from .sympform import SymplecticPair, ValidityReport, Witness
from .witness import VerificationReport
from .atlas import TableRow

__all__ = [
    "encode_scalar", "decode_scalar",
    "encode_poly", "decode_poly",
    "encode_mat", "decode_mat",
    "encode_pair", "decode_pair",
    "encode_witness", "decode_witness",
    "encode_case_tag", "encode_decision_report", "encode_verification_report",
    "encode_validity_report", "encode_table_row", "encode_sweep_report",
]


# ----------------------------------------------------------------------
# scalars
# ----------------------------------------------------------------------


def encode_scalar(ctx: FieldCtx, a) -> Any:
    kind = ctx.kind
    if kind == "prime":
        return int(a)
    if kind == "rationals":
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
    if kind == "extension":
        return [int(c) for c in a]
    if kind == "ratfunc":
        return {"num": [int(c) for c in a[0]], "den": [int(c) for c in a[1]]}
    raise SerializationError(f"no JSON scalar encoding for field kind {kind!r}")


def decode_scalar(ctx: FieldCtx, obj) -> Any:
    if isinstance(obj, bool):
        raise SerializationError("booleans are not scalars")
    if isinstance(obj, int):
        return ctx.from_int(obj)
    if isinstance(obj, str):
        return parse_scalar(ctx, obj)
    kind = ctx.kind
    if kind == "extension" and isinstance(obj, list):
        cs = _int_coeffs(obj, obj)
        if len(cs) > ctx.k:
            raise SerializationError(
                f"extension scalar has {len(cs)} coefficients, field degree is {ctx.k}"
            )
        return ctx._pad(tuple(c % ctx.p for c in cs))
    if kind == "ratfunc" and isinstance(obj, dict):
        try:
            num, den = obj["num"], obj["den"]
        except KeyError as exc:
            raise SerializationError(
                f"rational-function scalar missing {exc}"
            ) from None
        return ctx.from_polys(_int_coeffs(num, obj), _int_coeffs(den, obj))
    raise SerializationError(f"cannot decode {obj!r} as a scalar over {ctx}")


def _int_coeffs(cs, obj) -> list:
    """The coefficient list ``cs`` of the scalar ``obj``: plain JSON integers
    only, so floats, strings and booleans are refused rather than cast."""
    if not isinstance(cs, list) or any(
        type(c) is not int for c in cs  # bool is a subclass of int
    ):
        raise SerializationError(f"{obj!r} has a coefficient that is not an integer")
    return cs


# ----------------------------------------------------------------------
# polynomials and matrices
# ----------------------------------------------------------------------


def _field_of(obj: Dict[str, Any], ctx: Optional[FieldCtx]) -> FieldCtx:
    spec = obj.get("field")
    if spec is None:
        if ctx is None:
            raise SerializationError("no 'field' key and no field context given")
        return ctx
    if not isinstance(spec, str):
        raise SerializationError(f"field spec {spec!r} is not a string")
    found = field_make(spec)
    if ctx is not None and found != ctx:
        raise SerializationError(f"field {spec!r} does not match expected {ctx}")
    return found


def encode_poly(f: Poly) -> Dict[str, Any]:
    ctx = f.ctx
    return {
        "field": field_spec(ctx),
        "coeffs": [encode_scalar(ctx, c) for c in f.coeffs],
    }


def decode_poly(obj, ctx: Optional[FieldCtx] = None) -> Poly:
    if isinstance(obj, str):
        if ctx is None:
            raise SerializationError("a grammar-string polynomial needs a field context")
        return parse_poly(ctx, obj)
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise SerializationError(f"cannot decode {obj!r} as a polynomial")
    fctx = _field_of(obj, ctx)
    return Poly(fctx, tuple(decode_scalar(fctx, c) for c in obj["coeffs"]))


def encode_mat(m: Mat) -> Dict[str, Any]:
    """Each distinct entry is encoded once, so equal entries share one JSON
    value: copy the result before changing one of its entries in place."""
    ctx = m.ctx
    memo: Dict[Any, Any] = {}

    def enc(a):
        obj = memo.get(a, memo)
        if obj is memo:
            obj = memo[a] = encode_scalar(ctx, a)
        return obj

    return {
        "field": field_spec(ctx),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [list(map(enc, row)) for row in m.entries],
    }


def decode_mat(obj, ctx: Optional[FieldCtx] = None) -> Mat:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise SerializationError(f"cannot decode {obj!r} as a matrix")
    fctx = _field_of(obj, ctx)
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise SerializationError("matrix entries must be a list of rows")
    rows = obj.get("rows", len(entries))
    cols = obj.get("cols", len(entries[0]) if entries else 0)
    for key, n in (("rows", rows), ("cols", cols)):
        if type(n) is not int or n < 0:  # as in _int_coeffs: no bools, floats, strings
            raise SerializationError(f"matrix {key!r} {n!r} is not a nonnegative integer")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise SerializationError("matrix entries do not match the declared shape")
    return Mat(fctx, _decode_grid(fctx, entries), cols=cols)


def _decode_grid(ctx: FieldCtx, entries: list) -> list:
    """``decode_scalar`` of every entry, called once per distinct JSON value.

    A plain int or str is its own memo key; any other value is keyed by its
    type and ``repr``, so ``True``, ``1.0``, ``"1"`` and ``1`` (equal or
    equal-hashing in Python) never share a key.  A refused value raises on
    its first occurrence, so it is never kept."""
    memo: Dict[Any, Any] = {}

    def dec(e):
        t = type(e)
        key = e if t is int or t is str else (t, repr(e))
        a = memo.get(key, memo)
        if a is memo:
            a = memo[key] = decode_scalar(ctx, e)
        return a

    return [tuple(map(dec, row)) for row in entries]


# ----------------------------------------------------------------------
# pairs and witnesses
# ----------------------------------------------------------------------


def encode_pair(P: SymplecticPair) -> Dict[str, Any]:
    return {"B": encode_mat(P.B), "U": encode_mat(P.U)}


def decode_pair(obj, ctx: Optional[FieldCtx] = None) -> SymplecticPair:
    if not isinstance(obj, dict) or "B" not in obj or "U" not in obj:
        raise SerializationError("a pair needs 'B' and 'U' matrices")
    return SymplecticPair(B=decode_mat(obj["B"], ctx), U=decode_mat(obj["U"], ctx))


def encode_witness(w: Witness) -> Dict[str, Any]:
    return {
        "B": encode_mat(w.B),
        "U": encode_mat(w.U),
        "U1": encode_mat(w.U1),
        "U2": encode_mat(w.U2),
    }


def decode_witness(obj, ctx: Optional[FieldCtx] = None) -> Witness:
    try:
        return Witness(
            B=decode_mat(obj["B"], ctx),
            U=decode_mat(obj["U"], ctx),
            U1=decode_mat(obj["U1"], ctx),
            U2=decode_mat(obj["U2"], ctx),
        )
    except (KeyError, TypeError):
        raise SerializationError("a witness needs 'B', 'U', 'U1', 'U2' matrices") from None


# ----------------------------------------------------------------------
# reports (encode only)
# ----------------------------------------------------------------------


def encode_case_tag(tag: CaseTag, ctx: FieldCtx) -> Dict[str, Any]:
    return {
        "family": tag.family.value,
        "swapped": tag.swapped,
        "ys": None if tag.ys is None else [_fmt(ctx, y) for y in tag.ys],
        "zs": None if tag.zs is None else [_fmt(ctx, z) for z in tag.zs],
    }


def _encode_evidence(value):
    """Exceptional evidence as fresh JSON values: a dataclass becomes the
    dict of its fields that are not None, a tuple a list."""
    if isinstance(value, tuple):
        return [_encode_evidence(v) for v in value]
    if not dataclasses.is_dataclass(value):
        return value
    fields = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
    return {name: _encode_evidence(v) for name, v in fields if v is not None}


def encode_decision_report(report: DecisionReport, pctx: PairCtx) -> Dict[str, Any]:
    """The report as a fresh dictionary of fresh lists and dicts."""
    return {
        "verdict": report.verdict,
        "case": encode_case_tag(report.case, pctx.ctx),
        "p": str(pctx.p),
        "q": str(pctx.q),
        "dimension": report.dimension,
        "invariant_factors": [str(f) for f in report.invariant_factors],
        "regular_ok": report.regular_ok,
        "exceptional_ok": report.exceptional_ok,
        "regular": [dataclasses.asdict(ev) for ev in report.regular],
        "exceptional": _encode_evidence(report.exceptional),
        "pair_level": _encode_evidence(report.pair_level),
        "failing_evidence": report.failing_evidence,
    }


def _encode_checks(report, **encoded) -> Dict[str, Any]:
    """``ok``, each check in field order (``encoded`` in place of the raw
    value), then ``failures``."""
    return {
        "ok": report.ok,
        **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)},
        **encoded,
        "failures": list(report.failures()),
    }


def encode_verification_report(report: VerificationReport) -> Dict[str, Any]:
    return _encode_checks(report)


def encode_validity_report(report: ValidityReport) -> Dict[str, Any]:
    factors = [str(f) for f in report.invariant_factors.factors]
    return _encode_checks(report, invariant_factors=factors)


def encode_table_row(row: TableRow) -> Dict[str, Any]:
    return {
        "table": row.table,
        "params": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in row.params.items()
        },
        "dim": row.dim,
        "rep": encode_mat(row.rep),
    }


def encode_sweep_report(report: SweepReport) -> Dict[str, Any]:
    def inst(i):
        return {
            "p": str(i.p),
            "q": str(i.q),
            "chain": [str(f) for f in i.chain],
            "decide": "yes" if i.decide_yes else "no",
            "brute": "yes" if i.brute_yes else "no",
        }

    return {
        "field": report.field,
        "pair_dim": report.pair_dim,
        "total": report.total,
        "matrix": report.matrix,
        "ok": report.ok,
        "disagreements": [inst(i) for i in report.disagreements],
        "seconds": round(report.seconds, 3),
    }
