"""Reference invariant factors: the Smith normal form of tI - M.

Independent of the Krylov-chain route in ``sympdiff.linalg``: it works on the
full n x n polynomial matrix, so it is slow at large n and over fields with
costly arithmetic, and serves only as a test oracle.
"""

from typing import Tuple

from sympdiff.errors import ConstructionInvariantViolated
from sympdiff.linalg import Mat
from sympdiff.poly import Poly, poly_ops


_SNF_MAX_STEPS_PER_PIVOT = 4096


def snf_invariant_factors(M: Mat) -> Tuple[Poly, ...]:
    """Nonconstant diagonal of the Smith normal form of the n x n matrix
    tI - M over F[t], in divisibility order.

    Pivoting picks the minimal-degree nonzero entry (row-major tie-break);
    after clearing a row/column the pivot is made to divide the remaining
    submatrix by row additions.  The pivot search only considers entries
    of degree at most 4n: a trailing block with no such entry is left as it
    stands and the diagonal is read off it (a zero diagonal entry raises
    ConstructionInvariantViolated).
    """
    M._square()
    ctx = M.ctx
    n = M.rows
    if n == 0:
        return ()
    ops = poly_ops(ctx)
    padd, psubmul, pdiv = ops.add, ops.submul, ops.divmod
    zero, one = ctx.zero, ctx.one

    grid = [
        [(c,) if c != zero else () for c in map(ctx.neg, row)] for row in M.entries
    ]
    for i, row in enumerate(grid):
        row[i] = (row[i][0] if row[i] else zero, one)

    deg_guard = 4 * n

    for k in range(n):
        steps = 0
        while True:
            steps += 1
            if steps > _SNF_MAX_STEPS_PER_PIVOT:
                raise ConstructionInvariantViolated(
                    "Smith normal form failed to converge"
                )
            # minimal-degree nonzero pivot in the trailing submatrix
            bi = bj = -1
            blen = deg_guard + 2
            for i in range(k, n):
                row = grid[i]
                for j in range(k, n):
                    e = row[j]
                    if e and len(e) < blen:
                        bi, bj, blen = i, j, len(e)
                        if blen == 1:
                            break
                if blen == 1:
                    break
            if bi < 0:
                break  # trailing block is zero
            if bi != k:
                grid[bi], grid[k] = grid[k], grid[bi]
            if bj != k:
                for row in grid:
                    row[bj], row[k] = row[k], row[bj]
            piv = grid[k][k]
            clean = True
            if blen == 1:
                # constant pivot: one full clearing pass suffices
                rowk = grid[k]
                ipiv = ctx.inv(piv[0])
                live = [j for j in range(k + 1, n) if rowk[j]]
                for i in range(k + 1, n):
                    rowi = grid[i]
                    e = rowi[k]
                    if e:
                        q = ops.scale(e, ipiv)
                        rowi[k] = ()  # e - (e / piv) * piv
                        for j in live:
                            rowi[j] = psubmul(rowi[j], q, rowk[j])
                for j in range(k + 1, n):
                    rowk[j] = ()
                break
            for i in range(k + 1, n):
                e = grid[i][k]
                if e:
                    q, rem = pdiv(e, piv)
                    if q:
                        rowi, rowk = grid[i], grid[k]
                        for j in range(k, n):
                            if rowk[j]:
                                rowi[j] = psubmul(rowi[j], q, rowk[j])
                    if rem:
                        clean = False
            if not clean:
                continue
            for j in range(k + 1, n):
                e = grid[k][j]
                if e:
                    q, rem = pdiv(e, piv)
                    if q:
                        for i in range(k, n):
                            if grid[i][k]:
                                grid[i][j] = psubmul(grid[i][j], q, grid[i][k])
                    if rem:
                        clean = False
            if not clean:
                continue
            # pivot row/col clear; enforce divisibility into the rest
            offender = None
            for i in range(k + 1, n):
                row = grid[i]
                for j in range(k + 1, n):
                    e = row[j]
                    if e and pdiv(e, piv)[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            rowo = grid[offender]
            rowk = grid[k]
            for j in range(k, n):
                rowk[j] = padd(rowk[j], rowo[j])

    diag = []
    for k in range(n):
        e = grid[k][k]
        if not e:
            raise ConstructionInvariantViolated("zero diagonal in SNF of tI - M")
        diag.append(ops.monic(e))
    return tuple(Poly(ctx, e) for e in diag if len(e) > 1)
