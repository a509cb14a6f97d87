"""Reference brute-force search: one candidate at a time over any finite
field.

Independent of the chunked scan in ``sympdiff.witness``: it enumerates the
free coordinates of the linear prefilter's solution space with
``ctx.elements()`` and rebuilds M and B^{-1} * M for every candidate, so it
is slow, and serves only as a test oracle.  Its prefilter is the n^2
equations q(U1 - U) = 0 themselves (``_n2_solution_space``), not the k
alternating ones ``brute_force_witness`` solves.
"""

import itertools
from typing import Optional

from sympdiff.decide import PairCtx
from sympdiff.errors import DimensionBoundExceeded
from sympdiff.linalg import Mat, mat_poly_eval
from sympdiff.poly import Poly
from sympdiff.sympform import SymplecticPair, Witness, is_alternating


def _n2_solution_space(Binv: Mat, U: Mat, pctx: PairCtx):
    """``sympdiff.witness._solution_space`` from the n^2 equations
    q(U1 - U) = 0 themselves: the upper-triangle coordinates of M (U1 =
    B^{-1} * M, M alternating) that can give a witness, as an affine
    space, or None when none can.  It needs neither B nor B*U alternating.

    With p = t^2 + p1*t + p0 and q = t^2 + q1*t + q0, any U1 with
    p(U1) = 0 has q(U1 - U) = (q1 - p1)*U1 - (U1*U + U*U1) + U^2 - q1*U
    + (q0 - p0)*I, so the witnesses lie in the solutions of one linear
    system in the coordinates.  It is brought to reduced row echelon form
    with the columns reversed: each dependent coordinate is then a
    function of earlier (more significant) free coordinates only, so
    candidates in lexicographic order of the free coordinates are the full
    lexicographic order restricted to the solutions.  Returns
    ``(base, directions)``: the solution with every free coordinate zero,
    and per free coordinate, most significant first, the k-vector that
    moves it by one and the dependent coordinates with it.
    """
    ctx = U.ctx
    add, mul, sub = ctx.add, ctx.mul, ctx.sub
    n = U.rows
    k = n * (n - 1) // 2
    p0, p1 = pctx.p.coeffs[0], pctx.p.coeffs[1]
    q0, q1 = pctx.q.coeffs[0], pctx.q.coeffs[1]
    # Coordinate (a, b) of M stands for E = e_a e_b^T - e_b e_a^T, and
    # (q1 - p1)*X - (X*U + U*X) at X = B^{-1} * E is W*E - B^{-1}*E*U with
    # W = (q1 - p1)*B^{-1} - U*B^{-1}.  W*E has column a of W as its
    # column b and minus column b of W as its column a; B^{-1}*E*U is
    # (column a of B^{-1})(row b of U) - (column b of B^{-1})(row a of U).
    W = Binv.scale(sub(q1, p1)) - U @ Binv
    Bi, Ue, We = Binv.entries, U.entries, W.entries
    upper = [(a, b) for a in range(n) for b in range(a + 1, n)]
    columns = []
    for a, b in reversed(upper):
        col = []
        for r in range(n):
            for c in range(n):
                e = sub(mul(Bi[r][b], Ue[a][c]), mul(Bi[r][a], Ue[b][c]))
                if c == b:
                    e = add(e, We[r][a])
                elif c == a:
                    e = sub(e, We[r][b])
                col.append(e)
        columns.append(col)
    # the right-hand side is -g(U) with g = t^2 - q1*t + (q0 - p0); the
    # system is reduced with g(U) in its place, which negates the last
    # column of the result
    g = Poly(ctx, (sub(q0, p0), ctx.neg(q1), ctx.one))
    columns.append([e for row in mat_poly_eval(g, U).entries for e in row])
    system = Mat(ctx, list(zip(*columns)))
    rows, pivots = system._rref()
    if pivots and pivots[-1] == k:
        return None
    base = [ctx.zero] * k
    for row, c in zip(rows, pivots):
        base[k - 1 - c] = ctx.neg(row[k])
    directions = []
    for f in range(k):
        c_f = k - 1 - f
        if c_f in pivots:
            continue
        d = [ctx.zero] * k
        d[f] = ctx.one
        for row, c in zip(rows, pivots):
            d[k - 1 - c] = ctx.neg(row[c_f])
        directions.append(d)
    return base, directions


def _alternating_from_upper(ctx, n: int, vals) -> Mat:
    grid = [[ctx.zero] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            grid[i][j] = v
            grid[j][i] = ctx.neg(v)
    return Mat(ctx, grid)


def _generic_search(P: SymplecticPair, pctx: PairCtx) -> Optional[Witness]:
    """The first witness in lexicographic order of the free coordinates
    (each in ``ctx.elements()`` order), or None.  Raises
    DimensionBoundExceeded when the solutions number 2^63 or more, as
    ``brute_force_witness`` does."""
    ctx = P.ctx
    n = P.dimension
    B, U = P.B, P.U
    Binv = B.inverse()
    space = _n2_solution_space(Binv, U, pctx)
    if space is None:
        return None
    base, directions = space
    if ctx.order ** len(directions) >= 2**63:
        raise DimensionBoundExceeded(f"{ctx.order}^{len(directions)} candidates")
    for coords in itertools.product(*(ctx.elements() for _ in directions)):
        vals = list(base)
        for c, d in zip(coords, directions):
            vals = [ctx.add(v, ctx.mul(c, e)) for v, e in zip(vals, d)]
        M = _alternating_from_upper(ctx, n, vals)
        U1 = Binv @ M
        if not mat_poly_eval(pctx.p, U1).is_zero:
            continue
        U2 = U1 - U
        if not mat_poly_eval(pctx.q, U2).is_zero:
            continue
        if not is_alternating(B @ U2):
            continue
        return Witness(B=B, U=U, U1=U1, U2=U2)
    return None
