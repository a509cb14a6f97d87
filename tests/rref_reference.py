"""Reference elimination and entrywise kernels: every entry, over any field.

Independent of the per-nonzero loops in ``sympdiff.linalg``: the reduced
row echelon form normalises every entry of the pivot row and subtracts a
multiple of the whole pivot row from every other row with a nonzero in the
pivot column; the entrywise ops call the field on every entry.  It is slow,
and serves only as a test oracle.  Matrix results are entry grids (lists
of rows).
"""

from typing import List, Tuple

from sympdiff.linalg import Mat


def dense_rref(M: Mat) -> Tuple[List[list], List[int]]:
    """(rows, pivot columns) of the reduced row echelon form of M."""
    ctx = M.ctx
    zero = ctx.zero
    rows = [list(r) for r in M.entries]
    m, n = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ctx.inv(rows[r][c])
        if rows[r][c] != ctx.one:
            rows[r] = [ctx.mul(x, inv) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [
                    ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


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


def dense_is_alternating(M: Mat) -> bool:
    """Zero diagonal and M[i][j] = -M[j][i], tested at every entry."""
    ctx = M.ctx
    n = M.rows
    for i in range(n):
        if M.entries[i][i] != ctx.zero:
            return False
        for j in range(i + 1, n):
            if M.entries[i][j] != ctx.neg(M.entries[j][i]):
                return False
    return True
