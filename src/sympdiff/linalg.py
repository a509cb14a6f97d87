"""Exact dense linear algebra over a field context.

Provides the :class:`Mat` value class (immutable, tuple-backed), companion
matrices, evaluation of polynomials at matrices, invariant factors,
similarity testing, Jordan / primary multiplicities, and the Fitting split.

Invariant factors come from Krylov chains e, Me, M^2 e, ... built with field
arithmetic only: the relations that close the chains form a small
upper-triangular matrix over ``F[t]`` presenting the same module as
``tI - M``, and only that k x k matrix (k = number of chains) is brought to
Smith normal form.

Matrix products and polynomial evaluation over prime fields go through
numpy int64 (exact: the entry bound is checked against the int64 range); a
matrix keeps its array, so a chain of products converts each operand once.
The chain elimination over prime fields runs on plain ints.  Everything else
is pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul as _mul
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from .errors import (
    ConstructionInvariantViolated,
    DimensionMismatch,
    MixedFieldContexts,
    NonMonic,
    NotIrreducible,
    NotSquare,
    NotStable,
    SingularMatrix,
    WrongDegree,
    ZeroPolynomial,
)
from .fields import FieldCtx
from .poly import Poly, is_irreducible, poly_ops


def _numpy_exact(ctx: FieldCtx, terms: int) -> bool:
    """Whether sums of ``terms`` products of GF(p) entries fit in int64."""
    return ctx.kind == "prime" and terms * (ctx.p - 1) ** 2 < 2 ** 62


def _to_np(M: "Mat"):
    if M._arr is None:  # read-only, so the Mat stays immutable
        object.__setattr__(M, "_arr", _np.array(M.entries, dtype=_np.int64))
        M._arr.flags.writeable = False
    return M._arr


def _from_np(ctx: FieldCtx, a) -> "Mat":
    M = Mat(ctx, a.tolist())
    a.flags.writeable = False
    object.__setattr__(M, "_arr", a)
    return M


class Mat:
    """Immutable dense matrix over a field context."""

    __slots__ = ("ctx", "rows", "cols", "entries", "_arr")

    def __init__(self, ctx: FieldCtx, entries: Iterable[Iterable], cols: int = None):
        rows = tuple(map(tuple, entries))
        m = len(rows)
        n = len(rows[0]) if m else (cols or 0)
        if m and len(set(map(len, rows))) != 1:
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "cols", n)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_arr", None)  # int64 copy over GF(p)

    def __setattr__(self, *_):
        raise AttributeError("Mat is immutable")

    def __reduce__(self):  # the immutability guard blocks default unpickling
        return (Mat, (self.ctx, self.entries, self.cols))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_ints(cls, ctx, grid):
        return cls(ctx, [[ctx.from_int(int(e)) for e in row] for row in grid])

    @classmethod
    def zeros(cls, ctx, m, n=None):
        n = m if n is None else n
        z = ctx.zero
        return cls(ctx, [[z] * n for _ in range(m)])

    @classmethod
    def identity(cls, ctx, n):
        z, o = ctx.zero, ctx.one
        return cls(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, ctx, n, c):
        z = ctx.zero
        return cls(ctx, [[c if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, ctx, scalars):
        scalars = list(scalars)
        z = ctx.zero
        n = len(scalars)
        return cls(
            ctx, [[scalars[i] if i == j else z for j in range(n)] for i in range(n)]
        )

    @classmethod
    def block(cls, ctx, grid: Sequence[Sequence["Mat"]]):
        """Assemble from a rectangular grid of matrices with matching shapes."""
        out_rows: List[List] = []
        for brow in grid:
            h = brow[0].rows
            for b in brow:
                if b.rows != h:
                    raise DimensionMismatch("block row heights differ")
            for i in range(h):
                out_rows.append([e for b in brow for e in b.entries[i]])
        return cls(ctx, out_rows)

    @classmethod
    def column(cls, ctx, vec):
        return cls(ctx, [[x] for x in vec])

    # -- shape and access -------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        z = self.ctx.zero
        return all(e == z for row in self.entries for e in row)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j) -> tuple:
        return tuple(row[j] for row in self.entries)

    def take_cols(self, indices) -> "Mat":
        return Mat(self.ctx, [[row[j] for j in indices] for row in self.entries])

    def _check(self, other: "Mat"):
        if self.ctx != other.ctx:
            raise MixedFieldContexts(f"{self.ctx} vs {other.ctx}")

    def _square(self):
        if not self.is_square:
            raise NotSquare(f"{self.rows}x{self.cols}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add shapes differ")
        add = self.ctx.add
        return Mat(
            self.ctx,
            [
                map(add, ra, rb)
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("sub shapes differ")
        sub = self.ctx.sub
        return Mat(
            self.ctx,
            [
                map(sub, ra, rb)
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        neg = self.ctx.neg
        return Mat(self.ctx, [map(neg, row) for row in self.entries])

    def scale(self, c) -> "Mat":
        mul = self.ctx.mul
        return Mat(self.ctx, [[mul(a, c) for a in row] for row in self.entries])

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ctx = self.ctx
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat.zeros(ctx, self.rows, other.cols)
        if _numpy_exact(ctx, self.cols):
            return _from_np(ctx, (_to_np(self) @ _to_np(other)) % ctx.p)
        add, mul, zero = ctx.add, ctx.mul, ctx.zero
        bt = tuple(zip(*other.entries))
        out = []
        for ra in self.entries:
            row = []
            for cb in bt:
                acc = zero
                for x, y in zip(ra, cb):
                    if x != zero and y != zero:
                        acc = add(acc, mul(x, y))
                row.append(acc)
            out.append(row)
        return Mat(ctx, out)

    def __pow__(self, e: int):
        self._square()
        if e < 0:
            return self.inverse() ** (-e)
        result = Mat.identity(self.ctx, self.rows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def transpose(self) -> "Mat":
        if self.rows == 0:
            return Mat(self.ctx, [[] for _ in range(self.cols)])
        if self.cols == 0:
            return Mat(self.ctx, [], cols=self.rows)
        return Mat(self.ctx, tuple(zip(*self.entries)))

    # -- elimination-based queries ------------------------------------------

    def _rref(self):
        """Reduced row echelon form; returns (rows as lists, pivot column list)."""
        ctx = self.ctx
        zero = ctx.zero
        rows = [list(r) for r in self.entries]
        m, n = self.rows, self.cols
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

    def rank(self) -> int:
        return len(self._rref()[1])

    def is_invertible(self) -> bool:
        return self.is_square and self.rank() == self.rows

    def inverse(self) -> "Mat":
        self._square()
        n = self.rows
        aug = Mat.block(self.ctx, [[self, Mat.identity(self.ctx, n)]])
        rows, pivots = aug._rref()
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is not invertible")
        return Mat(self.ctx, [row[n:] for row in rows])

    def solve(self, rhs: "Mat") -> "Mat":
        """X with self @ X = rhs; raises when no solution exists.

        For a unique solution the coefficient matrix must have full column
        rank; otherwise the deterministic rref representative is returned.
        """
        self._check(rhs)
        if self.rows != rhs.rows:
            raise DimensionMismatch("solve: row counts differ")
        n = self.cols
        aug = Mat.block(self.ctx, [[self, rhs]])
        rows, pivots = aug._rref()
        zero = self.ctx.zero
        for p in pivots:
            if p >= n:
                raise SingularMatrix("inconsistent linear system")
        out = [[zero] * rhs.cols for _ in range(n)]
        for i, c in enumerate(pivots):
            out[c] = rows[i][n:]
        return Mat(self.ctx, out)

    def kernel_basis(self) -> "Mat":
        """Columns form a basis of the nullspace (free-variable convention,
        free columns in ascending order)."""
        ctx = self.ctx
        rows, pivots = self._rref()
        n = self.cols
        free = [j for j in range(n) if j not in pivots]
        cols = []
        for j in free:
            v = [ctx.zero] * n
            v[j] = ctx.one
            for i, c in enumerate(pivots):
                v[c] = ctx.neg(rows[i][j])
            cols.append(v)
        return Mat(ctx, [[col[i] for col in cols] for i in range(n)])

    def column_space_basis(self) -> "Mat":
        """Columns of self at the rref pivot positions."""
        _, pivots = self._rref()
        return self.take_cols(pivots)

    # -- comparisons and display ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.ctx == self.ctx
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.ctx, self.entries))

    def __str__(self):
        fmt = self.ctx.format
        rows = [[fmt(e) for e in row] for row in self.entries]
        if not rows:
            return "[]"
        widths = [
            max(len(rows[i][j]) for i in range(self.rows)) for j in range(self.cols)
        ]
        return "\n".join(
            "[" + "  ".join(e.rjust(w) for e, w in zip(row, widths)) + "]"
            for row in rows
        )

    def __repr__(self):
        return f"Mat({self.ctx!r}, {self.rows}x{self.cols})"


def direct_sum(*mats: Mat) -> Mat:
    if not mats:
        raise DimensionMismatch("direct_sum of nothing")
    ctx = mats[0].ctx
    for m in mats:
        if m.ctx != ctx:
            raise MixedFieldContexts("direct_sum over mixed contexts")
    total_r = sum(m.rows for m in mats)
    total_c = sum(m.cols for m in mats)
    z = ctx.zero
    out = []
    co = 0
    for m in mats:
        left, right = (z,) * co, (z,) * (total_c - co - m.cols)
        out.extend(left + row + right for row in m.entries)
        co += m.cols
    return Mat(ctx, out)


def companion(r: Poly) -> Mat:
    """Companion matrix: subdiagonal ones, last column the negated lower
    coefficients of the monic input."""
    if r.is_zero or r.degree < 1:
        raise WrongDegree("companion needs degree >= 1")
    if not r.is_monic:
        raise NonMonic(f"companion of non-monic {r}")
    ctx = r.ctx
    n = r.degree
    z = ctx.zero
    out = [[z] * n for _ in range(n)]
    for i in range(n - 1):
        out[i + 1][i] = ctx.one
    for i in range(n):
        out[i][n - 1] = ctx.neg(r.coeffs[i])
    return Mat(ctx, out)


def mat_poly_eval(f: Poly, M: Mat) -> Mat:
    """f(M) by Horner's rule."""
    M._square()
    if f.ctx != M.ctx:
        raise MixedFieldContexts(f"{f.ctx} vs {M.ctx}")
    n = M.rows
    if n and _numpy_exact(M.ctx, n + 1):  # acc @ M + c*I < (n+1)(p-1)^2
        acc = _np.zeros((n, n), dtype=_np.int64)
        diag = acc.reshape(-1)[:: n + 1]  # a view of acc's diagonal
        for c in reversed(f.coeffs):
            _np.matmul(acc, _to_np(M), out=acc)
            diag += c
            acc %= M.ctx.p
        return _from_np(M.ctx, acc)
    acc = Mat.zeros(M.ctx, n)
    ident = Mat.identity(M.ctx, n)
    for c in reversed(f.coeffs):
        acc = acc @ M + ident.scale(c)
    return acc


# ----------------------------------------------------------------------
# invariant factors from Krylov chains
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InvFactors:
    """Nonconstant invariant factors in ascending divisibility order."""

    ctx: FieldCtx
    factors: Tuple[Poly, ...]
    dimension: int

    def __post_init__(self):
        total = 0
        prev = None
        for f in self.factors:
            if not f.is_monic or f.degree < 1:
                raise ConstructionInvariantViolated(f"bad invariant factor {f}")
            if prev is not None and f != prev and (f % prev).coeffs:
                raise ConstructionInvariantViolated(
                    f"divisibility chain broken: {prev} does not divide {f}"
                )
            prev = f
            total += f.degree
        if total != self.dimension:
            raise ConstructionInvariantViolated(
                f"invariant factor degrees sum to {total}, dimension is {self.dimension}"
            )

    def doubled_halves(self) -> Optional[Tuple[Poly, ...]]:
        """If the list reads f1,f1,f2,f2,..., return (f1,f2,...), else None."""
        fs = self.factors
        if len(fs) % 2:
            return None
        half = []
        for i in range(0, len(fs), 2):
            if fs[i] != fs[i + 1]:
                return None
            half.append(fs[i])
        return tuple(half)

    def __str__(self):
        return "[" + ", ".join(str(f) for f in self.factors) + "]"


def _vector_kernel(M: Mat):
    """(reduce, scale, apply) on coordinate lists: w minus the multiples of
    echelon rows that clear their pivot columns, c*v, and M @ x.  Over
    GF(p) they run on plain ints."""
    ctx, rows = M.ctx, M.entries
    if ctx.kind == "prime":
        p = ctx.p

        def reduce(w, echelon):
            for c, row in echelon:
                f = w[c]
                if f:
                    w = [(x - f * y) % p for x, y in zip(w, row)]
            return w

        def scale(v, c):
            return [x * c % p for x in v]

        def apply(x):
            return [sum(map(_mul, r, x)) % p for r in rows]

        return reduce, scale, apply
    zero, sub, mul = ctx.zero, ctx.sub, ctx.mul

    def reduce(w, echelon):
        for c, row in echelon:
            f = w[c]
            if f != zero:
                w = [x if y == zero else sub(x, mul(f, y)) for x, y in zip(w, row)]
        return w

    def scale(v, c):
        return [x if x == zero else mul(x, c) for x in v]

    def apply(x):
        live = [(j, c) for j, c in enumerate(x) if c != zero]
        return [
            ctx.sum(mul(r[j], c) for j, c in live if r[j] != zero) for r in rows
        ]

    return reduce, scale, apply


def _relation_matrix(M: Mat) -> Tuple[List[tuple], dict]:
    """Upper-triangular k x k presentation over F[t] of the module of M, as
    (diagonal, {(i, j): nonzero entry above the diagonal}).

    Chain j starts at the first unit vector e_s outside the span so far and
    runs e_s, M e_s, ..., M^(d-1) e_s.  Each new vector is reduced against
    one echelon form whose rows carry their coordinates over the chain
    basis; M^d e_s reduces to zero, leaving the relation
    M^d e_s - sum_i h_ij(M) e_i = 0 with h_ij read off chain i's
    coordinates.  Column j of the matrix is that relation: g_j = t^d - h_jj
    on the diagonal and -h_ij above it, with deg h_ij < deg g_i.
    """
    ctx = M.ctx
    n = M.rows
    zero, one = ctx.zero, ctx.one
    trim = poly_ops(ctx).trim
    reduce, scale, apply = _vector_kernel(M)
    echelon = []  # (pivot column, [vector | coordinates over the basis])
    starts: List[int] = []  # basis index of each chain's first vector
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
            # x with its coordinates, as if it were basis vector number size
            w = x + [zero] * (n + 1)
            w[n + size] = one
            w = reduce(w, echelon)
            for piv in range(n):
                if w[piv] != zero:
                    break
            else:
                break
            lead = w[piv]
            echelon.append((piv, w if lead == one else scale(w, ctx.inv(lead))))
            size += 1
            x = apply(x)
        if size > start:
            # w's coordinate half is now the relation closing this chain
            j = len(starts)
            for i, (lo, hi) in enumerate(zip(starts, starts[1:] + [start])):
                h = trim(w[n + lo:n + hi])
                if h:
                    above[i, j] = h
            starts.append(start)
            diag.append(tuple(w[n + start:n + size + 1]))
    return diag, above


def _divisibility_chain(orders: List[tuple], ops) -> List[tuple]:
    """Smith diagonal of diag(orders): replace each pair by (gcd, lcm).
    Ascending degrees make most pairs divide already."""
    d = sorted(orders, key=len)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if a == b or len(a) == 1 or not ops.divmod(b, a)[1]:
                continue  # a divides b already
            g = ops.gcd(a, b)
            if g != a:
                d[i], d[j] = g, ops.mul(ops.divmod(a, g)[0], b)
    return d


def _smith_diagonal(grid: List[List[tuple]], ops) -> List[tuple]:
    """Monic diagonal of the Smith normal form of a nonsingular square
    matrix over F[t] (entries as coefficient tuples), in divisibility order.

    Each pass moves a minimal-degree entry of the trailing block to the
    pivot (row-major tie-break) and divides it into its row and column;
    once both are clear, a row holding an entry the pivot does not divide
    is added to the pivot row.  A pass that leaves a remainder lowers the
    pivot degree, so the loop ends.
    """
    submul, pdiv = ops.submul, ops.divmod
    n = len(grid)
    for k in range(n):
        while True:
            _, bi, bj = min(
                (len(e), i, j)
                for i in range(k, n)
                for j, e in enumerate(grid[i][k:], k)
                if e
            )
            grid[bi], grid[k] = grid[k], grid[bi]
            if bj != k:
                for row in grid:
                    row[bj], row[k] = row[k], row[bj]
            rowk = grid[k]
            piv = rowk[k]
            clean = True
            for i in range(k + 1, n):
                if grid[i][k]:
                    q, rem = pdiv(grid[i][k], piv)
                    grid[i] = [
                        submul(a, q, b) if b else a for a, b in zip(grid[i], rowk)
                    ]
                    clean = clean and not rem
            if not clean:
                continue
            if len(piv) == 1:
                break  # a unit pivot: column operations clear row k
            # column k is clear but for the pivot, so a column operation
            # changes row k only: each entry becomes its remainder
            rowk[k + 1:] = [e and pdiv(e, piv)[1] for e in rowk[k + 1:]]
            if any(rowk[k + 1:]):
                continue
            offender = next(
                (
                    row
                    for row in grid[k + 1:]
                    if any(e and pdiv(e, piv)[1] for e in row[k + 1:])
                ),
                None,
            )
            if offender is None:
                break
            grid[k] = [ops.add(a, b) for a, b in zip(rowk, offender)]
    return [ops.monic(grid[k][k]) for k in range(n)]


def invariant_factors(M: Mat) -> InvFactors:
    """Invariant factors of M, from the relation matrix R of its Krylov
    chains (:func:`_relation_matrix`), which presents the same F[t]-module
    as tI - M.

    A diagonal R (no entries above the diagonal) gives them by gcd/lcm of
    the chains' closing polynomials, and R = [[g1, h], [0, g2]] has Smith
    diagonal (d, g1*g2/d) with d = gcd(g1, h, g2); any other R goes through
    :func:`_smith_diagonal`.
    """
    M._square()
    ctx = M.ctx
    n = M.rows
    if n == 0:
        return InvFactors(ctx, (), 0)
    ops = poly_ops(ctx)
    diag, above = _relation_matrix(M)
    k = len(diag)
    if not above:
        chain = _divisibility_chain(diag, ops)
    elif k == 2:
        (g1, g2), h = diag, above[0, 1]
        d = ops.gcd(g2, ops.gcd(g1, h))
        chain = [d, ops.mul(ops.divmod(g1, d)[0] if len(d) > 1 else g1, g2)]
    else:
        chain = _smith_diagonal(
            [
                [diag[i] if i == j else above.get((i, j), ()) for j in range(k)]
                for i in range(k)
            ],
            ops,
        )
    return InvFactors(ctx, tuple(Poly(ctx, e) for e in chain if len(e) > 1), n)


def similar(M1: Mat, M2: Mat) -> bool:
    if M1.ctx != M2.ctx:
        raise MixedFieldContexts(f"{M1.ctx} vs {M2.ctx}")
    M1._square()
    M2._square()
    if M1.rows != M2.rows:
        return False
    return invariant_factors(M1).factors == invariant_factors(M2).factors


# ----------------------------------------------------------------------
# Jordan / primary multiplicities and the Fitting split
# ----------------------------------------------------------------------


def _check_primary_modulus(g: Poly):
    """Irreducibility obligation: verified where decidable, trusted beyond."""
    try:
        ok = is_irreducible(g)
    except NotIrreducible:
        return  # undecidable here (deg >= 4 over an infinite field): trusted
    if not ok:
        raise NotIrreducible(f"{g} is not irreducible")


def primary_sequence(M: Mat, g: Poly) -> Tuple[int, ...]:
    """(n_1, n_2, ...): n_k = number of primary invariants g^l of M with
    l >= k; stops at the first zero."""
    M._square()
    _check_primary_modulus(g)
    d = g.degree
    G = mat_poly_eval(g, M)
    out = []
    P = G
    prev_rank = M.rows
    while True:
        rk = P.rank()
        diff = prev_rank - rk
        if diff == 0:
            break
        if diff % d:
            raise ConstructionInvariantViolated(
                f"rank drop {diff} not divisible by deg {g} = {d}"
            )
        out.append(diff // d)
        prev_rank = rk
        P = P @ G
    return tuple(out)


def jordan_sequence(M: Mat, z) -> Tuple[int, ...]:
    """Counts of Jordan cells at eigenvalue z of size >= 1, >= 2, ..."""
    lin = Poly(M.ctx, (M.ctx.neg(z), M.ctx.one))
    return primary_sequence(M, lin)


def exact_cell_counts(seq: Tuple[int, ...]) -> Tuple[int, ...]:
    """From counts of cells of size >= k to counts of size exactly k."""
    out = []
    for k in range(len(seq)):
        nxt = seq[k + 1] if k + 1 < len(seq) else 0
        out.append(seq[k] - nxt)
    return tuple(out)


def fitting_split(M: Mat, f: Poly) -> Tuple[Mat, Mat]:
    """Bases (as column matrices) of E = ker f(M)^n and R = im f(M)^n,
    iterated to stabilization; E + R is a direct sum spanning everything."""
    M._square()
    if f.is_zero:
        raise ZeroPolynomial("fitting_split of the zero polynomial")
    G = mat_poly_eval(f, M)
    P = G
    rk = P.rank()
    while True:
        Q = P @ G
        rk2 = Q.rank()
        if rk2 == rk:
            break
        P, rk = Q, rk2
    E = P.kernel_basis()
    R = P.column_space_basis()
    if E.cols + R.cols != M.rows:
        raise ConstructionInvariantViolated("Fitting split dimensions do not add up")
    return E, R


def restrict(M: Mat, W: Mat) -> Mat:
    """Matrix of M restricted to the span of W's columns, in that basis.

    Raises NotStable when M does not map the span into itself.
    """
    if W.rows != M.rows:
        raise DimensionMismatch("basis has wrong ambient dimension")
    try:
        return W.solve(M @ W)
    except SingularMatrix as e:
        raise NotStable("subspace is not stable") from e
