"""Catalogue of indecomposable symplectic (p,q)-differences.

Every case of the classification admits an explicit list of endomorphisms
``v`` — given here in companion form — whose symplectic extensions ``S(v)``
represent the indecomposable symplectic (p,q)-differences up to isometry.
This module enumerates those representatives up to a dimension bound on
``v``:

* **regular rows** (family id 1, present in every case): ``C(r^n(s))`` with
  ``s = t^2 - delta*t`` and ``r`` monic irreducible such that ``r(s)`` is
  coprime to the fundamental quartic ``F``;
* **exceptional rows** (family ids 2-10, one id per case), built per
  entry of the case's table ``decide.exceptional_shapes``, in its order,
  from three shapes: the powers ``C(g^n)`` of an unconstrained ``g``; the
  *even powers* of an even ``g``, ``g^n`` doubled for odd ``n`` and single
  for even ``n``; and the *pairs* of a partnered ``g``, blocks ``g^(n+j)``
  and ``h^n`` at ``g`` and its partner ``h`` with sizes ``(n, n)`` up to
  ``(n + shift, n)``.  Each root ``x`` of ``F`` is an entry of its own,
  partnered with ``delta - x``, so a pair's rows are listed at both of
  its roots.  The distinct translates ``p(t + y)`` of the
  split-irreducible case are one entry, so their rows are built in a
  loop of their own: ``(n, n)`` once, then each translate the larger.  A
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

from .decide import Family, PairCtx, _fmt, decide_extension
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
        if r.ctx != ctx:
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
# exceptional rows (family ids 2-10), per entry of exceptional_shapes
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


def _sized_pairs(
    pctx: PairCtx, table: int, g: Poly, h: Poly, j: int, bound: int, **params
) -> List[TableRow]:
    """Blocks g^(n + j) and h^n with sizes (n + j, n), n >= 1 for j = 0
    and n >= 0 otherwise, within the bound."""
    return [
        _row(pctx, table, {**params, "sizes": (n + j, n)}, g ** (n + j), *([h ** n] if n else []))
        for n in range(0 if j else 1, (bound // g.degree - j) // 2 + 1)
    ]


def _exceptional_rows(pctx: PairCtx, bound: int) -> List[TableRow]:
    """The rows of the case's own family, per entry of its
    ``exceptional_shapes`` table."""
    table = _EXCEPTIONAL_ID[pctx.case.family]
    listed = {s.g for s in pctx.shapes}
    rows: List[TableRow] = []
    for s in pctx.shapes:
        labels = dict(s.labels)
        if s.partner is None or s.partner == s.g:
            rows += (_even_powers if s.even else _powers)(pctx, table, s.g, bound, **labels)
        elif s.partner in listed:
            # a root x of F, listed at each root: sizes (n, n), then
            # (n + j, n) for j = 1..shift, with x the larger
            for j in range(s.shift + 1):
                rows += _sized_pairs(pctx, table, s.g, s.partner, j, bound, **labels)
        else:
            # the distinct translates, one entry: (n, n) once, then
            # (n + j, n) with each one the larger
            rows += _sized_pairs(pctx, table, s.g, s.partner, 0, bound, **labels)
            for g, h, larger in ((s.g, s.partner, "first"), (s.partner, s.g, "second")):
                for j in range(1, s.shift + 1):
                    rows += _sized_pairs(pctx, table, g, h, j, bound, **labels, larger=larger)
    return rows


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
