"""Catalogue of indecomposable symplectic (p,q)-differences.

Every case of the classification admits an explicit list of endomorphisms
``v`` — given here in companion form — whose symplectic extensions ``S(v)``
represent the indecomposable symplectic (p,q)-differences up to isometry.
This module enumerates those representatives up to a dimension bound on
``v``:

* **regular rows** (family id 1, present in every case): ``C(r^n(s))`` with
  ``s = t^2 - delta*t`` and ``r`` monic irreducible such that ``r(s)`` is
  coprime to the fundamental quartic ``F``;
* **exceptional rows** (family ids 2-10, one id per case), each family
  built from three shapes: the powers ``C(g^n)`` of one polynomial ``g``;
  the *even powers*, ``g^n`` doubled for odd ``n`` and single for even
  ``n``; and the *root pairs*, Jordan blocks at a root ``x`` of ``F`` and
  at its partner ``delta - x`` with sizes ``(n, n)`` up to ``(n + gap, n)``.
  ``g`` is a linear factor ``t - x`` at a root of ``F``, a translate
  ``p(t + y)`` by a root of ``q``, a norm quadratic, ``F`` itself, or the
  quadratic factor of ``F``.  Only the distinct translates of the
  split-irreducible case pair two polynomials, in a loop of their own.  A
  norm quadratic is ``h = t^2 - delta*t - s`` for a root ``s`` of ``Lam``
  (``F = Lam(t^2 - delta*t)``) where ``h`` has no root in the field: its
  roots are a difference ``x - y`` of roots of ``p`` and ``q`` and its
  conjugate.

Each emitted representative is self-checked against the decision procedure —
its extension must decide YES — so a bug in either module surfaces as
``ConstructionInvariantViolated`` rather than a silently wrong catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .decide import (
    ROOT_PAIR_SHIFT,
    Family,
    PairCtx,
    _fmt,
    _linear,
    decide_extension,
    special_quadratic,
)
from .errors import (
    ConstructionInvariantViolated,
    DifferenceInBaseField,
    InvalidArgument,
    NeedsIrreducibleInventory,
    NotIrreducible,
)
from .linalg import Mat, companion, direct_sum
from .poly import Poly, irreducible_polys, is_irreducible

__all__ = ["TableRow", "indecomposable_reps", "norm_quadratic"]


# family id of each case's exceptional rows, in classification order;
# regular rows are family id 1 in every case.
_EXCEPTIONAL_ID = {family: i for i, family in enumerate(Family, start=2)}


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
# exceptional rows (family ids 2-10), built from three shapes
# ----------------------------------------------------------------------


def _powers(pctx: PairCtx, table: int, g: Poly, bound: int, **params) -> List[TableRow]:
    """C(g^n) for every n with deg g^n <= bound."""
    return [
        _row(pctx, table, {**params, "n": n}, g ** n)
        for n in range(1, bound // g.degree + 1)
    ]


def _even_powers(pctx: PairCtx, table: int, g: Poly, bound: int, **params) -> List[TableRow]:
    """g^n doubled for odd n, single for even n, within the bound."""
    rows: List[TableRow] = []
    for n in range(1, bound // g.degree + 1):
        blocks = 2 if n % 2 else 1
        if blocks * n * g.degree <= bound:
            rows.append(
                _row(pctx, table, {**params, "n": n, "blocks": blocks}, *[g ** n] * blocks)
            )
    return rows


def _root_pairs(pctx: PairCtx, table: int, gap: int, bound: int) -> List[TableRow]:
    """Per root x of F: Jordan blocks at x and its partner delta - x with
    sizes (n, n), then (n + j, n) for j = 1..gap; a single block at a
    fixed point x = delta - x."""
    ctx = pctx.ctx
    rows: List[TableRow] = []
    for z in pctx.F_roots:
        w = ctx.sub(pctx.delta, z)
        lin_z, lin_w = _linear(ctx, z), _linear(ctx, w)
        if z == w:
            rows.extend(_powers(pctx, table, lin_z, bound, x=_fmt(ctx, z)))
            continue
        base = {"x": _fmt(ctx, z), "partner": _fmt(ctx, w)}
        for j in range(gap + 1):
            for n in range(0 if j else 1, (bound - j) // 2 + 1):
                blocks = (lin_z ** (n + j),) + ((lin_w ** n,) if n else ())
                rows.append(_row(pctx, table, {**base, "sizes": (n + j, n)}, *blocks))
    return rows


def _exceptional_rows(pctx: PairCtx, bound: int) -> List[TableRow]:
    """The rows of the case's own family."""
    ctx = pctx.ctx
    family = pctx.case.family
    table = _EXCEPTIONAL_ID[family]
    if family in ROOT_PAIR_SHIFT:
        return _root_pairs(pctx, table, ROOT_PAIR_SHIFT[family], bound)
    if family is Family.SPLIT_DOUBLE_DOUBLE:
        # the single root difference z = x - y
        (z,) = pctx.F_roots
        return _powers(pctx, table, _linear(ctx, z), bound, x=_fmt(ctx, z))
    if family is Family.IRR_SPLIT_EQ:
        # equal translates g = p(t + y1) = p(t + y2)
        rows: List[TableRow] = []
        for y in pctx.case.ys:
            g = pctx.p_norm.translate(y)
            rows.extend(_powers(pctx, table, g, bound, y=_fmt(ctx, y), translate=str(g)))
        return rows
    if family is Family.IRR_SPLIT_NEQ:
        # distinct translates g1, g2: exponents (n, n), (n + 1, n) and its
        # mirror
        g1, g2 = (pctx.p_norm.translate(y) for y in pctx.case.ys)
        base = {"translates": (str(g1), str(g2))}
        rows = [
            _row(pctx, table, {**base, "sizes": (n, n)}, g1 ** n, g2 ** n)
            for n in range(1, bound // 4 + 1)
        ]
        for first, second, label in ((g1, g2, "first"), (g2, g1, "second")):
            for n in range(0, (bound - 2) // 4 + 1):
                blocks = (first,) if n == 0 else (first ** (n + 1), second ** n)
                rows.append(
                    _row(pctx, table, {**base, "larger": label, "sizes": (n + 1, n)}, *blocks)
                )
        return rows
    if family is Family.IRR_SAME_FIELD:
        # a root s of Lam whose norm quadratic h has no root in the field,
        # then the in-field differences z (translation shifts)
        rows = []
        for s in dict.fromkeys(pctx.Lam_roots):
            h = pctx.sigma - Poly.constant(ctx, s)
            if not any(ctx.is_zero(h.eval(z)) for z in pctx.F_roots):
                rows.extend(_powers(pctx, table, h, bound, norm_quadratic=str(h)))
        for z in pctx.case.zs:
            rows.extend(_even_powers(pctx, table, _linear(ctx, z), bound, shift=_fmt(ctx, z)))
        return rows
    if family is Family.IRR_DISTINCT_GENERIC:
        return _powers(pctx, table, pctx.F, bound)
    if family is Family.IRR_DISTINCT_INSEP:
        # t^2 - p(0) - q(0)
        c = ctx.neg(ctx.add(pctx.p_norm.coeffs[0], pctx.q_norm.coeffs[0]))
        g = Poly(ctx, (c, ctx.zero, ctx.one))
        return _powers(pctx, table, g, bound, quadratic=str(g))
    g = special_quadratic(pctx)  # IRR_DISTINCT_SPECIAL
    return _even_powers(pctx, table, g, bound, quadratic=str(g))


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
    rows.extend(_exceptional_rows(pctx, dim_bound))
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
