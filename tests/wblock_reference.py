"""Reference for ``witness.w_algebra_block``: the duplication block expanded
entry by entry over R = F[t]/(r).

Each entry of the 4x4 tables is a polynomial reduced mod r and becomes its
multiplication matrix on the power basis (``mat_poly_eval`` at C(r), a
constant c as c*I); the d x d pieces are glued with ``Mat.block``.  The
library builds the same matrices as Kronecker products of 4x4 tables over F
with I, C(r) and the symmetrizer; the tests compare the two entry by entry.
"""

import functools
from typing import Sequence

from sympdiff.linalg import Mat, companion, mat_poly_eval
from sympdiff.poly import Poly, trace_of
from sympdiff.sympform import frobenius_symmetrizer


def r_expansion_block(pctx, r: Poly):
    """(A, B, H) of the duplication block for (p, q) and the monic r."""
    ctx = pctx.ctx
    p, q = pctx.p, pctx.q
    lam, mu = trace_of(p), trace_of(q)
    alpha, beta = p.coeffs[0], q.coeffs[0]
    d = r.degree
    Cr = companion(r)

    def cst(c) -> Poly:
        return Poly.constant(ctx, c)

    zero, one = cst(ctx.zero), cst(ctx.one)
    x = Poly(ctx, (ctx.add(alpha, beta), ctx.one)) % r
    lam_mu = cst(ctx.mul(lam, mu))
    lmx = (lam_mu - x) % r
    a4 = [
        [zero, cst(ctx.neg(alpha)), zero, zero],
        [one, cst(lam), zero, zero],
        [zero, zero, zero, cst(ctx.neg(alpha))],
        [zero, zero, one, cst(lam)],
    ]
    b4 = [
        [zero, -x, cst(ctx.neg(beta)), cst(ctx.neg(ctx.mul(lam, beta)))],
        [zero, cst(mu), zero, cst(beta)],
        [one, cst(lam), cst(mu), lmx],
        [zero, cst(ctx.neg(ctx.one)), zero, zero],
    ]
    # multiplication matrix of an R-entry on the power basis, once per entry
    # (a constant c multiplies as c*I)
    mult = functools.lru_cache(maxsize=None)(
        lambda e: mat_poly_eval(e, Cr)
        if e.degree > 0
        else Mat.identity(ctx, d).scale(e.coefficient(0))
    )

    def expand(grid: Sequence[Sequence[Poly]]) -> Mat:
        return Mat.block(ctx, [[mult(e) for e in row] for row in grid])

    A, B = expand(a4), expand(b4)
    s = frobenius_symmetrizer(r)
    zd = Mat.zeros(ctx, d)
    ls = s.scale(lam)
    H = Mat.block(
        ctx,
        [
            [zd, zd, zd, s],
            [zd, zd, s, ls],
            [zd, -s, zd, zd],
            [-s, -ls, zd, zd],
        ],
    )
    return A, B, H
