"""Reference brute-force search: one candidate at a time over any finite
field.

Independent of the chunked scan in ``sympdiff.witness``: it enumerates the
free coordinates of the linear prefilter's solution space with
``ctx.elements()`` and rebuilds M and B^{-1} * M for every candidate, so it
is slow, and serves only as a test oracle.
"""

import itertools
from typing import Optional

from sympdiff.decide import PairCtx
from sympdiff.errors import DimensionBoundExceeded
from sympdiff.linalg import Mat, mat_poly_eval
from sympdiff.sympform import SymplecticPair, Witness, is_alternating
from sympdiff.witness import _solution_space


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
    space = _solution_space(Binv, U, pctx)
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
