"""Reference elimination and entrywise kernels: every entry, over any field.

Independent of the per-nonzero loops in ``sympdiff.linalg``: rank, inverse,
solve and kernel basis read the reduced row echelon form of
``witness_reference.rref``; the entrywise ops call the field on every
entry.  It is slow, and serves only as a test oracle.  Matrix results are
entry grids (lists of rows).
"""

from typing import List, Tuple

from sympdiff.linalg import Mat

from witness_reference import rref


def dense_rref(M: Mat) -> Tuple[List[list], List[int]]:
    """(rows, pivot columns) of the reduced row echelon form of M."""
    return rref(M.ctx, M.entries, M.cols)


def dense_rank(M: Mat) -> int:
    return len(dense_rref(M)[1])


def dense_inverse(M: Mat):
    """Entries of M^-1, or None when M is singular."""
    n = M.rows
    rows, pivots = dense_rref(Mat.block(M.ctx, [[M, Mat.identity(M.ctx, n)]]))
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows]


def dense_solve(M: Mat, rhs: Mat):
    """Entries of the rref solution X of M X = rhs, or None if inconsistent."""
    n = M.cols
    rows, pivots = dense_rref(Mat.block(M.ctx, [[M, rhs]]))
    if pivots and pivots[-1] >= n:
        return None
    out = [[M.ctx.zero] * rhs.cols for _ in range(n)]
    for i, c in enumerate(pivots):
        out[c] = rows[i][n:]
    return out


def dense_kernel_basis(M: Mat) -> List[list]:
    """Entries of the n x (n - rank) kernel basis, free columns ascending."""
    ctx = M.ctx
    rows, pivots = dense_rref(M)
    n = M.cols
    cols = []
    for j in (j for j in range(n) if j not in pivots):
        v = [ctx.zero] * n
        v[j] = ctx.one
        for i, c in enumerate(pivots):
            v[c] = ctx.neg(rows[i][j])
        cols.append(v)
    return [[col[i] for col in cols] for i in range(n)]


def dense_entrywise(fn, *mats: Mat) -> List[list]:
    """fn applied to every entry (or tuple of same-place entries)."""
    return [list(map(fn, *rows)) for rows in zip(*(A.entries for A in mats))]
