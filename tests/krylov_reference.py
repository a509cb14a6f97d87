"""Reference Krylov relation matrix on field scalars.

The chain elimination of ``sympdiff.linalg._relation_matrix`` with field
arithmetic only: every echelon row is scaled to lead one and every
operation normalises a field scalar.  Over Q and GF(p)(s) the library runs
the same chains fraction-free, over Z and GF(p)[s], and over GF(p^k) it
steps them on the lift to GF(p); the relation matrix (diagonal and entries
above it) is unique, so both must agree exactly.
Slow where scalars swell, so it serves only as a test oracle.
"""

import functools
from typing import List, Tuple

from sympdiff.linalg import Mat
from sympdiff.poly import poly_ops


def field_relation_matrix(M: Mat) -> Tuple[List[tuple], dict]:
    """(diagonal, {(i, j): entry above the diagonal}) of the relations that
    close the Krylov chains of M, from field scalars alone."""
    ctx, rows = M.ctx, M.entries
    n = M.rows
    zero, one, sub, mul = ctx.zero, ctx.one, ctx.sub, ctx.mul
    trim = poly_ops(ctx).trim

    def reduce(w, echelon):
        for c, row in echelon:
            f = w[c]
            if f != zero:
                w = [x if y == zero else sub(x, mul(f, y)) for x, y in zip(w, row)]
        return w

    def apply(x):
        live = [(j, c) for j, c in enumerate(x) if c != zero]
        return [
            functools.reduce(ctx.add, (mul(r[j], c) for j, c in live if r[j] != zero), zero)
            for r in rows
        ]

    echelon = []  # (pivot column, [vector | coordinates over the basis])
    starts: List[int] = []
    diag: List[tuple] = []
    above: dict = {}
    size = 0
    for s in range(n):
        if size == n:
            break
        start = size
        x = [zero] * n
        x[s] = one
        while True:
            w = x + [zero] * (n + 1)
            w[n + size] = one
            w = reduce(w, echelon)
            for piv in range(n):
                if w[piv] != zero:
                    break
            else:
                break
            inv = ctx.inv(w[piv])
            echelon.append((piv, [x if x == zero else mul(x, inv) for x in w]))
            size += 1
            x = apply(x)
        if size > start:
            j = len(starts)
            for i, (lo, hi) in enumerate(zip(starts, starts[1:] + [start])):
                h = trim(w[n + lo:n + hi])
                if h:
                    above[i, j] = h
            starts.append(start)
            diag.append(tuple(w[n + start:n + size + 1]))
    return diag, above
