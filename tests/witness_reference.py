"""Reference matrix arithmetic and witness checker on nested lists, over
any field.

Independent of ``sympdiff.linalg``: it reads ``Mat.entries`` and polynomial
coefficients, and does every scalar operation through the field context.
``product`` forms each entry as one inner product over ascending j,
skipping the pairs with a zero factor, ``poly_eval`` is Horner's rule, and
``rref`` eliminates every entry; they are the oracles for the library's
kernels.  ``check_witness`` is built on them alone, so a fault shared by
the matrix kernels and ``verify_witness`` cannot pass here too.  It is
slow, and serves only as a test oracle.
"""


def product(ctx, X, Y, cols):
    """X Y for X with len(Y) columns and Y with ``cols`` columns."""
    out = []
    for row in X:
        acc = [ctx.zero] * cols
        for x, y_row in zip(row, Y):
            if not ctx.is_zero(x):
                acc = [a if ctx.is_zero(y) else ctx.add(a, ctx.mul(x, y))
                       for a, y in zip(acc, y_row)]
        out.append(acc)
    return out


def poly_eval(ctx, f, X):
    """f(X) by Horner's rule: acc <- acc X + c I."""
    n = len(X)
    acc = [[ctx.zero] * n for _ in X]
    for c in reversed(f.coeffs):
        acc = product(ctx, acc, X, n)
        for i, row in enumerate(acc):
            row[i] = ctx.add(row[i], c)
    return acc


def rref(ctx, rows, cols):
    """(rows, pivot columns) of the reduced row echelon form of a grid with
    ``cols`` columns: every entry of the pivot row is normalised, and a
    multiple of the whole pivot row is subtracted from every other row with
    a nonzero in the pivot column."""
    rows, pivots, m = [list(row) for row in rows], [], len(rows)
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if not ctx.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if rows[r][c] != ctx.one:
            inv = ctx.inv(rows[r][c])
            rows[r] = [ctx.mul(x, inv) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not ctx.is_zero(row[c]):
                rows[i] = [ctx.sub(x, ctx.mul(row[c], y)) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def alternating(ctx, X) -> bool:
    """Zero diagonal and X[i][j] = -X[j][i], tested at every entry."""
    n = len(X)
    return all(ctx.is_zero(X[i][i]) for i in range(n)) and all(
        X[i][j] == ctx.neg(X[j][i]) for i in range(n) for j in range(i)
    )


def check_witness(w, p, q) -> list:
    """The names of the properties w fails as a witness for (p, q)."""
    ctx, n = w.B.ctx, w.B.rows
    mats = B, U, U1, U2 = [M.entries for M in (w.B, w.U, w.U1, w.U2)]
    if ({len(M) for M in mats} | {len(row) for M in mats for row in M}) - {n}:
        return ["shapes"]
    checks = {
        "B alternating": alternating(ctx, B),
        "B invertible": len(rref(ctx, B, n)[1]) == n,
        "B U1 alternating": alternating(ctx, product(ctx, B, U1, n)),
        "B U2 alternating": alternating(ctx, product(ctx, B, U2, n)),
        "p(U1) = 0": all(ctx.is_zero(a) for row in poly_eval(ctx, p, U1) for a in row),
        "q(U2) = 0": all(ctx.is_zero(a) for row in poly_eval(ctx, q, U2) for a in row),
        "U1 - U2 = U": all(
            ctx.sub(a, b) == u
            for ra, rb, ru in zip(U1, U2, U) for a, b, u in zip(ra, rb, ru)
        ),
    }
    return [name for name, ok in checks.items() if not ok]
