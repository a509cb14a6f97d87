"""Reference matrix kernels: one inner product per entry, over any field.

Independent of the row-combination product in ``sympdiff.linalg``: entry
(i, k) sums A[i][j] * B[j][k] over ascending j, skipping the pairs with a
zero factor, and Horner's rule adds the full matrix c*I at every step.  It
reads n^3 pairs, so it is slow, and serves only as a test oracle.
"""

from typing import List

from sympdiff.linalg import Mat
from sympdiff.poly import Poly


def naive_product(A: Mat, B: Mat) -> List[list]:
    """Entries of A @ B, one inner product per entry."""
    ctx = A.ctx
    zero = ctx.zero
    out = []
    for i in range(A.rows):
        row = []
        for k in range(B.cols):
            acc = zero
            for j in range(A.cols):
                x, y = A[i, j], B[j, k]
                if x != zero and y != zero:
                    acc = ctx.add(acc, ctx.mul(x, y))
            row.append(acc)
        out.append(row)
    return out


def naive_poly_eval(f: Poly, M: Mat) -> List[list]:
    """Entries of f(M) by Horner's rule: acc <- acc @ M + c*I."""
    ctx, n = M.ctx, M.rows
    acc = Mat.zeros(ctx, n)
    for c in reversed(f.coeffs):
        prod = naive_product(acc, M)
        acc = Mat(ctx, [
            [ctx.add(prod[i][j], ctx.mul(ctx.one if i == j else ctx.zero, c))
             for j in range(n)]
            for i in range(n)
        ], cols=n)
    return [list(row) for row in acc.entries]
