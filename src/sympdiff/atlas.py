"""Catalogue of indecomposable symplectic (p,q)-differences.

Every case of the classification admits an explicit list of endomorphisms
``v`` — given here in companion form — whose symplectic extensions ``S(v)``
represent the indecomposable symplectic (p,q)-differences up to isometry.
This module enumerates those representatives up to a dimension bound on
``v``:

* **regular rows** (family id 1, present in every case): ``C(r^n(s))`` with
  ``s = t^2 - delta*t`` and ``r`` monic irreducible such that ``r(s)`` is
  coprime to the fundamental quartic ``F``;
* **exceptional rows** (family ids 2-10, one id per case): shapes built from
  the in-field roots of ``F``, the translates ``p(t + y)`` by roots of ``q``,
  the norm quadratics of out-of-field root differences, or powers of ``F``
  itself.  A norm quadratic is ``h = t^2 - delta*t - s`` for a root ``s`` of
  ``Lam`` (``F = Lam(t^2 - delta*t)``) where ``h`` has no root in the field:
  its roots are a difference ``x - y`` of roots of ``p`` and ``q`` and its
  conjugate.

Each emitted representative is self-checked against the decision procedure —
its extension must decide YES — so a bug in either module surfaces as
``ConstructionInvariantViolated`` rather than a silently wrong catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .decide import Family, PairCtx, decide_extension
from .errors import (
    ConstructionInvariantViolated,
    DifferenceInBaseField,
    InvalidArgument,
    NeedsIrreducibleInventory,
    NotIrreducible,
)
from .fields import FieldCtx
from .linalg import Mat, companion, direct_sum
from .poly import Poly, irreducible_polys, is_irreducible

__all__ = ["TableRow", "indecomposable_reps", "norm_quadratic"]


# family id of the exceptional rows contributed by each case; regular rows
# are family id 1 in every case.
_EXCEPTIONAL_ID = {
    Family.SPLIT_DOUBLE_DOUBLE: 2,
    Family.SPLIT_SIMPLE_SIMPLE: 3,
    Family.SPLIT_MIXED: 4,
    Family.IRR_SPLIT_EQ: 5,
    Family.IRR_SPLIT_NEQ: 6,
    Family.IRR_SAME_FIELD: 7,
    Family.IRR_DISTINCT_GENERIC: 8,
    Family.IRR_DISTINCT_INSEP: 9,
    Family.IRR_DISTINCT_SPECIAL: 10,
}


@dataclass(frozen=True)
class TableRow:
    """One indecomposable representative.

    ``table``  -- numeric family id: 1 for the regular rows shared by all
                  cases, 2-10 for the case-specific exceptional rows (in
                  classification order).
    ``params`` -- the defining parameters of the row, rendered as strings
                  (polynomials, field scalars) and ints (exponents).
    ``rep``    -- the endomorphism ``v`` in companion/direct-sum form; the
                  representative pair itself is ``symplectic_extension(rep)``.
    ``dim``    -- dimension of ``v`` (the pair has dimension ``2*dim``).
    """

    table: int
    params: Dict[str, object]
    rep: Mat
    dim: int


def _fmt(ctx: FieldCtx, x) -> str:
    return str(Poly.constant(ctx, x))


def _linear(ctx: FieldCtx, z) -> Poly:
    """t - z."""
    return Poly(ctx, (ctx.neg(z), ctx.one))


def _row(pctx: PairCtx, table: int, params: Dict[str, object], *blocks: Poly) -> TableRow:
    rep = direct_sum(*(companion(f) for f in blocks))
    row = TableRow(table=table, params=params, rep=rep, dim=rep.rows)
    report = decide_extension(rep, pctx)
    if not report.ok:
        raise ConstructionInvariantViolated(
            f"catalogue row (family {table}, params {params}) failed the "
            f"decision procedure: {report.failing_evidence}"
        )
    return row


# ----------------------------------------------------------------------
# regular rows (family id 1)
# ----------------------------------------------------------------------


def _inventory(pctx: PairCtx, dim_bound: int, irreducibles) -> List[Poly]:
    """Monic irreducibles r with deg r^1(s) <= dim_bound, coprimality not yet
    applied.  Finite fields are enumerated exhaustively; infinite fields need
    a caller-supplied list."""
    ctx = pctx.ctx
    if irreducibles is None:
        if ctx.order is None:
            raise NeedsIrreducibleInventory(
                f"enumerating regular rows over the infinite field {ctx} "
                "requires an explicit list of monic irreducibles"
            )
        return list(irreducible_polys(ctx, dim_bound // 2))
    pool = []
    for r in irreducibles:
        if r.ctx is not ctx:
            raise InvalidArgument("inventory polynomial over the wrong field")
        if r.degree < 1 or not r.is_monic:
            raise InvalidArgument(f"inventory entry {r} is not monic of degree >= 1")
        try:
            if not is_irreducible(r):
                raise InvalidArgument(f"inventory entry {r} is reducible")
        except NotIrreducible:
            pass  # undecidable degree over an infinite field: trust the caller
        pool.append(r)
    return pool


def _regular_rows(pctx: PairCtx, dim_bound: int, irreducibles) -> List[TableRow]:
    sigma = pctx.sigma
    rows: List[TableRow] = []
    for r in _inventory(pctx, dim_bound, irreducibles):
        if 2 * r.degree > dim_bound:
            continue
        # r(s) must share no root with F (checked via gcd, which detects
        # common roots over any extension of the base field).
        if r.compose(sigma).gcd(pctx.F).degree > 0:
            continue
        n = 1
        while 2 * n * r.degree <= dim_bound:
            rows.append(
                _row(pctx, 1, {"r": str(r), "n": n}, (r ** n).compose(sigma))
            )
            n += 1
    return rows


# ----------------------------------------------------------------------
# exceptional rows, one builder per case
# ----------------------------------------------------------------------


def _rows_double_double(pctx: PairCtx, bound: int) -> List[TableRow]:
    # single root difference z = x - y; indecomposables C((t-z)^n).
    ctx = pctx.ctx
    (z,) = pctx.F_roots
    return [
        _row(pctx, 2, {"x": _fmt(ctx, z), "n": n}, _linear(ctx, z) ** n)
        for n in range(1, bound + 1)
    ]


def _rows_simple_simple(pctx: PairCtx, bound: int) -> List[TableRow]:
    # per root difference x: pairs of Jordan blocks at x and delta - x with
    # sizes (n, n) or (n+1, n); a single block when x = delta - x.
    ctx = pctx.ctx
    delta = pctx.delta
    rows: List[TableRow] = []
    for z in pctx.F_roots:
        w = ctx.sub(delta, z)
        lin_z, lin_w = _linear(ctx, z), _linear(ctx, w)
        fz, fw = _fmt(ctx, z), _fmt(ctx, w)
        if z == w:
            for n in range(1, bound + 1):
                rows.append(_row(pctx, 3, {"x": fz, "n": n}, lin_z ** n))
            continue
        for n in range(1, bound // 2 + 1):
            rows.append(
                _row(pctx, 3, {"x": fz, "partner": fw, "sizes": (n, n)},
                     lin_z ** n, lin_w ** n)
            )
        for n in range(0, (bound - 1) // 2 + 1):
            blocks = (lin_z ** (n + 1),) if n == 0 else (lin_z ** (n + 1), lin_w ** n)
            rows.append(
                _row(pctx, 3, {"x": fz, "partner": fw, "sizes": (n + 1, n)}, *blocks)
            )
    return rows


def _rows_mixed(pctx: PairCtx, bound: int) -> List[TableRow]:
    # per root difference x: block pairs at x and delta - x with sizes
    # (n, n), (n+1, n) or (n+2, n).
    ctx = pctx.ctx
    delta = pctx.delta
    rows: List[TableRow] = []
    for z in pctx.F_roots:
        w = ctx.sub(delta, z)
        lin_z, lin_w = _linear(ctx, z), _linear(ctx, w)
        fz, fw = _fmt(ctx, z), _fmt(ctx, w)
        for n in range(1, bound // 2 + 1):
            rows.append(
                _row(pctx, 4, {"x": fz, "partner": fw, "sizes": (n, n)},
                     lin_z ** n, lin_w ** n)
            )
        for gap in (1, 2):
            for n in range(0, (bound - gap) // 2 + 1):
                blocks = (lin_z ** (n + gap),) if n == 0 else (lin_z ** (n + gap), lin_w ** n)
                rows.append(
                    _row(pctx, 4, {"x": fz, "partner": fw, "sizes": (n + gap, n)},
                         *blocks)
                )
    return rows


def _rows_irr_split_eq(pctx: PairCtx, bound: int) -> List[TableRow]:
    # equal translates g = p(t + y1) = p(t + y2); indecomposables C(g^n).
    ctx = pctx.ctx
    rows: List[TableRow] = []
    for y in pctx.case.ys:
        g = pctx.p_norm.translate(y)
        for n in range(1, bound // 2 + 1):
            rows.append(
                _row(pctx, 5, {"y": _fmt(ctx, y), "translate": str(g), "n": n},
                     g ** n)
            )
    return rows


def _rows_irr_split_neq(pctx: PairCtx, bound: int) -> List[TableRow]:
    # distinct translates g1, g2: companion pairs with exponents (n, n),
    # (n+1, n) and its mirror.
    ctx = pctx.ctx
    y1, y2 = pctx.case.ys
    g1 = pctx.p_norm.translate(y1)
    g2 = pctx.p_norm.translate(y2)
    rows: List[TableRow] = []
    base = {"translates": (str(g1), str(g2))}
    for n in range(1, bound // 4 + 1):
        rows.append(_row(pctx, 6, {**base, "sizes": (n, n)}, g1 ** n, g2 ** n))
    for first, second, label in ((g1, g2, "first"), (g2, g1, "second")):
        for n in range(0, (bound - 2) // 4 + 1):
            blocks = (first,) if n == 0 else (first ** (n + 1), second ** n)
            rows.append(
                _row(pctx, 6, {**base, "larger": label, "sizes": (n + 1, n)},
                     *blocks)
            )
    return rows


def _rows_same_field(pctx: PairCtx, bound: int) -> List[TableRow]:
    # a root s of Lam with h = t^2 - delta*t - s irreducible (the difference
    # x - y out of the field) contributes C(h^n); in-field differences z
    # contribute doubled Jordan blocks in odd sizes and single blocks in
    # even sizes.
    ctx = pctx.ctx
    rows: List[TableRow] = []
    for s in dict.fromkeys(pctx.Lam_roots):
        h = pctx.sigma - Poly.constant(ctx, s)
        if any(ctx.is_zero(h.eval(z)) for z in pctx.F_roots):
            continue  # in-field difference, handled via the shift rows below
        for n in range(1, bound // 2 + 1):
            rows.append(
                _row(pctx, 7, {"norm_quadratic": str(h), "n": n}, h ** n)
            )
    for z in pctx.case.zs:
        lin = _linear(ctx, z)
        fz = _fmt(ctx, z)
        for n in range(1, bound + 1):
            if n % 2 == 1:
                if 2 * n <= bound:
                    rows.append(
                        _row(pctx, 7, {"shift": fz, "n": n, "blocks": 2},
                             lin ** n, lin ** n)
                    )
            else:
                rows.append(
                    _row(pctx, 7, {"shift": fz, "n": n, "blocks": 1}, lin ** n)
                )
    return rows


def _rows_distinct_generic(pctx: PairCtx, bound: int) -> List[TableRow]:
    # powers of the fundamental quartic itself.
    return [
        _row(pctx, 8, {"n": n}, pctx.F ** n) for n in range(1, bound // 4 + 1)
    ]


def _rows_distinct_insep(pctx: PairCtx, bound: int) -> List[TableRow]:
    # powers of t^2 - p(0) - q(0).
    ctx = pctx.ctx
    c = ctx.neg(ctx.add(pctx.p_norm.coeffs[0], pctx.q_norm.coeffs[0]))
    g = Poly(ctx, (c, ctx.zero, ctx.one))
    return [
        _row(pctx, 9, {"quadratic": str(g), "n": n}, g ** n)
        for n in range(1, bound // 2 + 1)
    ]


def _rows_distinct_special(pctx: PairCtx, bound: int) -> List[TableRow]:
    # powers of the shared-trace quadratic: doubled in odd exponents, single
    # in even exponents.
    from .decide import special_quadratic

    g = special_quadratic(pctx)
    rows: List[TableRow] = []
    for n in range(1, bound // 2 + 1):
        if n % 2 == 1:
            if 4 * n <= bound:
                rows.append(
                    _row(pctx, 10, {"quadratic": str(g), "n": n, "blocks": 2},
                         g ** n, g ** n)
                )
        else:
            rows.append(
                _row(pctx, 10, {"quadratic": str(g), "n": n, "blocks": 1},
                     g ** n)
            )
    return rows


_EXCEPTIONAL_BUILDER = {
    Family.SPLIT_DOUBLE_DOUBLE: _rows_double_double,
    Family.SPLIT_SIMPLE_SIMPLE: _rows_simple_simple,
    Family.SPLIT_MIXED: _rows_mixed,
    Family.IRR_SPLIT_EQ: _rows_irr_split_eq,
    Family.IRR_SPLIT_NEQ: _rows_irr_split_neq,
    Family.IRR_SAME_FIELD: _rows_same_field,
    Family.IRR_DISTINCT_GENERIC: _rows_distinct_generic,
    Family.IRR_DISTINCT_INSEP: _rows_distinct_insep,
    Family.IRR_DISTINCT_SPECIAL: _rows_distinct_special,
}


def indecomposable_reps(
    pctx: PairCtx,
    dim_bound: int,
    irreducibles: Optional[Sequence[Poly]] = None,
) -> List[TableRow]:
    """All catalogue rows with dim(v) <= dim_bound, regular rows first.

    Finite fields enumerate the regular-row irreducibles exhaustively; over
    an infinite field the caller must supply ``irreducibles`` (monic, degree
    >= 1) or NeedsIrreducibleInventory is raised.  Exceptional rows never
    need an inventory.  Rows whose defining parameters coincide (e.g. equal
    translates, conjugate norm quadratics) are emitted once; apart from that
    the output is closed under the parameter symmetry x <-> delta - x.
    """
    if dim_bound < 1:
        raise InvalidArgument("dim_bound must be >= 1")
    rows = _regular_rows(pctx, dim_bound, irreducibles)
    rows.extend(_EXCEPTIONAL_BUILDER[pctx.case.family](pctx, dim_bound))
    seen = set()
    unique: List[TableRow] = []
    for row in rows:
        key = (row.table, row.rep)
        if key in seen:
            continue
        seen.add(key)
        unique.append(row)
    return unique


def norm_quadratic(pctx: PairCtx, root_index: int) -> Poly:
    """Norm quadratic h = t^2 - delta*t - s of an out-of-field difference.

    ``s`` is the root of Lam selected by ``root_index`` (0 or 1, counted
    with multiplicity in ``sort_key`` order).  Each root is s = sigma(x - y)
    for a root x of p and a root y of q, and h has the roots x - y and its
    conjugate, so h = t^2 - delta*t + N(x - y).  Raises
    DifferenceInBaseField when h has a root in the base field (that
    difference contributes shift rows instead, carrying no norm quadratic).
    """
    ctx = pctx.ctx
    if not 0 <= root_index < len(pctx.Lam_roots):
        raise InvalidArgument(f"root_index {root_index} out of range")
    h = pctx.sigma - Poly.constant(ctx, pctx.Lam_roots[root_index])
    zs = [z for z in pctx.F_roots if ctx.is_zero(h.eval(z))]
    if zs:
        raise DifferenceInBaseField(
            f"x - y = {_fmt(ctx, zs[0])} lies in the base field"
        )
    return h
