"""Exact dense linear algebra over a field context.

Provides the :class:`Mat` value class (immutable, tuple-backed), companion
matrices, Kronecker products, evaluation of polynomials at matrices,
invariant factors, similarity testing, and exact cell counts.

Invariant factors come from Krylov chains e, Me, M^2 e, ...: the relations
that close the chains form a small upper-triangular matrix over ``F[t]``
presenting the same module as ``tI - M``.  Elementary operations bring that
k x k matrix (k = number of chains) to a diagonal, and gcd/lcm of its
entries give the Smith diagonal.

Matrix products and polynomial evaluation over finite fields go through
numpy int64 on the lift to GF(p) (:func:`_lift`, as in the brute-force
search), exact where :func:`_numpy_exact` allows; a matrix keeps its lift,
so a chain of products converts each operand once.  Their results are born
from the lift alone: the entry tuples are built when first read, and sums,
differences, negations, scalings, ``==`` and ``is_zero`` of matrices that
carry a lift stay in int64, so checks that only combine and compare
products never build tuples.  The chain elimination
runs on plain ints over prime fields, and fraction-free over Z and GF(p)[s]
for Q and GF(p)(s): one content gcd per row operation instead of one gcd
per scalar operation.  Over GF(p^k) it reduces in field arithmetic, and a
chain step is one numpy product of the lift with the flattened coordinates.
Everything else is pure Python and pays per nonzero entry: products and
Horner steps skip zero factors, elimination reduces by the pivot row's
nonzero entries (plain int rows over GF(p)), and entrywise ops pass zeros
through.  Over Q zero tests compare against the int 0, which Fraction
answers fastest.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add as _add, mul as _mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import (
    ConstructionInvariantViolated,
    DegreeBoundExceeded,
    DimensionMismatch,
    MixedFieldContexts,
    NonMonic,
    NotSquare,
    SingularMatrix,
    WrongDegree,
)
from .fields import (
    RATFUNC_MAX_DEGREE,
    FieldCtx,
    PrimeField,
    _power,
    _zdivmod,
    _zgcd,
    _zmul,
    _zneg,
    _ztrim,
)
from .poly import Poly, poly_ops

# numpy, bound by _numpy() in each function that builds an array from
# entries (_regular, _to_np, mat_poly_eval, _vector_kernel's lift path and
# the brute-force scan); every other use holds an array already.  So a
# request that builds no array never imports numpy.
_np = None


def _numpy():
    """numpy, imported on first use and bound to ``_np``, which later calls
    read as a plain global."""
    global _np
    if _np is None:
        import numpy as _np
    return _np


def _nil(ctx: FieldCtx):
    """What a scalar is compared against to test it for zero: the int 0
    over Q, whose comparison takes Fraction's int fast path, else zero."""
    return 0 if ctx.kind == "rationals" else ctx.zero


def _numpy_exact(ctx: FieldCtx, terms: int) -> bool:
    """Whether sums of ``terms`` products of lifted entries fit in int64."""
    return ctx.order is not None and terms * ctx.k * (ctx.p - 1) ** 2 < 2 ** 62


@functools.lru_cache(maxsize=64)
def _regular(p: int, modulus: tuple):
    """The table of :func:`_lift` over GF(p^k), built once per modulus (a
    key that holds no context): row i is the block C^i of g^i, row-major, C
    the companion of the modulus."""
    Fp, k = PrimeField(p), len(modulus) - 1
    C = companion(Poly(Fp, modulus))
    table = [sum((C ** i).entries, ()) for i in range(k)]
    _numpy()
    # k terms over GF(p) bound the same sums as one term over GF(p^k)
    return _np.array(table, _np.int64 if _numpy_exact(Fp, k) else object)


def _lift(ctx: FieldCtx, X):
    """The regular representation, the one map from GF(p^k) to GF(p): block
    (r, c) of the (..., mk, nk) lift of an (..., m, n, k) coordinate array
    multiplies by entry (r, c) in the basis 1, g, ..., g^(k-1), its column j
    the entry times g^j."""
    k = X.shape[-1]
    if k == 1:
        return X[..., 0]
    m, n = X.shape[-3:-1]
    blocks = (X @ _regular(ctx.p, ctx.modulus) % ctx.p).reshape(X.shape[:-1] + (k, k))
    return blocks.swapaxes(-3, -2).reshape(X.shape[:-3] + (m * k, n * k))


def _to_np(M: "Mat", dtype=None):
    """M's lift (:func:`_lift`): the int64 one, kept on M read-only, unless
    ``dtype`` is ``object``."""
    if M._arr is None or dtype is object:
        _numpy()
        a = _np.array(M.entries, dtype or _np.int64)
        if M.ctx.kind != "prime" or not M.rows:  # else a is its own lift
            a = _lift(M.ctx, a.reshape(M.rows, M.cols, M.ctx.k))
        if dtype is object:
            return a
        a.flags.writeable = False
        object.__setattr__(M, "_arr", a)
    return M._arr


def _unlift(ctx: FieldCtx, a) -> tuple:
    """The rows of the matrix lifted to ``a``: column 0 of each block."""
    if ctx.kind == "prime":
        return tuple(map(tuple, a.tolist()))
    k = ctx.k
    rows = a.reshape(len(a) // k, k, a.shape[1] // k, k)[..., 0].swapaxes(1, 2)
    return tuple(tuple(map(tuple, row)) for row in rows.tolist())


def _from_np(ctx: FieldCtx, a) -> "Mat":
    """The Mat lifted to ``a``, which it keeps read-only; its entries are
    built from ``a`` when first read (:meth:`Mat.__getattr__`)."""
    a.setflags(write=False)
    M = object.__new__(Mat)
    k = ctx.k
    _set_ctx(M, ctx)
    _set_rows(M, len(a) // k)
    _set_cols(M, a.shape[1] // k)
    _set_arr(M, a)
    return M


def _lifts(*mats: "Mat"):
    """The int64 lifts of ``mats`` when one of them carries its lift, and
    sums of one product of lifted entries (k over GF(p^k)) fit; else None."""
    for M in mats:
        if M._arr is not None:
            return [_to_np(X) for X in mats] if _numpy_exact(M.ctx, 1) else None
    return None


class Mat:
    """Immutable dense matrix over a field context.

    ``entries`` is a tuple of row tuples.  A Mat born from numpy
    (:func:`_from_np`) holds only its int64 lift at first and builds them
    on first read; entrywise ops, ``==`` and ``is_zero`` answer from the
    lifts when an operand carries one (:func:`_lifts`).
    """

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
        object.__setattr__(self, "_arr", None)  # its int64 lift (_to_np)

    def __getattr__(self, name):
        # reached only when a slot is unset: the entries of a numpy-born Mat
        if name != "entries":
            raise AttributeError(name)
        rows = _unlift(self.ctx, self._arr)
        object.__setattr__(self, "entries", rows)
        return rows

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
        return cls(ctx, [[z] * n for _ in range(m)], cols=n)

    @classmethod
    def identity(cls, ctx, n):
        z, o = ctx.zero, ctx.one
        return cls(ctx, [[o if i == j else z for j in range(n)] for i in range(n)])

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
        return cls(ctx, out_rows, sum(b.cols for b in grid[0]) if grid else 0)

    # -- shape and access -------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        lifts = _lifts(self)
        if lifts:
            return not _np.count_nonzero(lifts[0])
        z, n = _nil(self.ctx), self.cols
        return all(row.count(z) == n for row in self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

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
        lifts = _lifts(self, other)
        if lifts:
            return _from_np(self.ctx, (lifts[0] + lifts[1]) % self.ctx.p)
        add, z = self.ctx.add, _nil(self.ctx)
        return Mat(self.ctx, [
            [x if y == z else y if x == z else add(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ], self.cols)

    def __sub__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("sub shapes differ")
        lifts = _lifts(self, other)
        if lifts:
            return _from_np(self.ctx, (lifts[0] - lifts[1]) % self.ctx.p)
        sub, z = self.ctx.sub, _nil(self.ctx)
        return Mat(self.ctx, [
            [x if y == z else sub(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)
        ], self.cols)

    def __neg__(self):
        lifts = _lifts(self)
        if lifts:
            return _from_np(self.ctx, -lifts[0] % self.ctx.p)
        neg, z = self.ctx.neg, _nil(self.ctx)
        return Mat(self.ctx, [
            [x if x == z else neg(x) for x in row] for row in self.entries
        ], self.cols)

    def scale(self, c) -> "Mat":
        lifts = _lifts(self)
        if lifts:
            ctx, a = self.ctx, lifts[0]
            if ctx.kind == "prime":
                return _from_np(ctx, a * c % ctx.p)
            # each k-column block of the lift times the k x k lift of c
            k = ctx.k
            lc = _lift(ctx, _np.array(c, _np.int64).reshape(1, 1, k))
            return _from_np(ctx, (a.reshape(-1, k) @ lc % ctx.p).reshape(a.shape))
        mul, z = self.ctx.mul, _nil(self.ctx)
        return Mat(self.ctx, [
            [x if x == z else mul(x, c) for x in row] for row in self.entries
        ], self.cols)

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
        return Mat(ctx, _sparse_product(ctx, self.entries, other.entries, other.cols))

    def __pow__(self, e: int):
        self._square()
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, Mat.identity(self.ctx, self.rows), Mat.__matmul__)

    def transpose(self) -> "Mat":
        if self.rows == 0:
            return Mat(self.ctx, [[] for _ in range(self.cols)])
        if self.cols == 0:
            return Mat(self.ctx, [], cols=self.rows)
        return Mat(self.ctx, tuple(zip(*self.entries)))

    # -- elimination-based queries ------------------------------------------

    def _rref(self):
        """Reduced row echelon form; returns (rows as lists, pivot column list).

        The pivot row at column c is zero left of c.  Over GF(p) the rows
        are int lists reduced from column c on; elsewhere a reduction step
        touches only the pivot row's nonzero entries.
        """
        ctx = self.ctx
        z = _nil(ctx)
        rows = [list(r) for r in self.entries]
        m = self.rows
        pivots = []
        r = 0
        for c in range(self.cols):
            piv = next((i for i in range(r, m) if rows[i][c] != z), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            head = rows[r]
            if ctx.kind == "prime":
                p = ctx.p
                if head[c] != 1:
                    inv = pow(head[c], -1, p)
                    head[c:] = [x * inv % p for x in head[c:]]
                tail = head[c:]
                for i, row in enumerate(rows):
                    f = row[c]
                    if f and i != r:
                        row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
            else:
                mul, sub = ctx.mul, ctx.sub
                if head[c] != ctx.one:
                    inv = ctx.inv(head[c])
                    head[c:] = [x if x == z else mul(x, inv) for x in head[c:]]
                live = [(j, y) for j, y in enumerate(head[c:], c) if y != z]
                for i, row in enumerate(rows):
                    f = row[c]
                    if f != z and i != r:
                        for j, y in live:
                            row[j] = sub(row[j], mul(f, y))
            pivots.append(c)
            r += 1
            if r == m:
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def is_invertible(self) -> bool:
        return self.is_square and self.rank() == self.rows

    def _solutions(self, width: int):
        """The solutions of A X = R, read off one rref of self = [A | R]
        with R its last ``width`` columns: None when the system is
        inconsistent, else ``(X0, kernel)``, X0 the rows of the solution
        with every free variable zero and ``kernel`` one vector of A's
        kernel per free column, free columns in ascending order."""
        ctx = self.ctx
        n = self.cols - width
        rows, pivots = self._rref()
        if pivots and pivots[-1] >= n:
            return None
        X0 = [[ctx.zero] * width for _ in range(n)]
        kernel = []
        for row, c in zip(rows, pivots):
            X0[c] = row[n:]
        for j in range(n):
            if j not in pivots:
                v = [ctx.zero] * n
                v[j] = ctx.one
                for row, c in zip(rows, pivots):
                    v[c] = ctx.neg(row[j])
                kernel.append(v)
        return X0, kernel

    def inverse(self) -> "Mat":
        # [A | I] has rank n, so it is inconsistent exactly when A is singular
        self._square()
        try:
            return self.solve(Mat.identity(self.ctx, self.rows))
        except SingularMatrix:
            raise SingularMatrix("matrix is not invertible") from None

    def solve(self, rhs: "Mat") -> "Mat":
        """X with self @ X = rhs; raises when no solution exists.

        For a unique solution the coefficient matrix must have full column
        rank; otherwise the deterministic rref representative is returned.
        """
        self._check(rhs)
        if self.rows != rhs.rows:
            raise DimensionMismatch("solve: row counts differ")
        solved = Mat.block(self.ctx, [[self, rhs]])._solutions(rhs.cols)
        if solved is None:
            raise SingularMatrix("inconsistent linear system")
        return Mat(self.ctx, solved[0], cols=rhs.cols)

    def kernel_basis(self) -> "Mat":
        """Columns form a basis of the nullspace (free-variable convention,
        free columns in ascending order)."""
        kernel = self._solutions(0)[1]
        return Mat(self.ctx, [[v[i] for v in kernel] for i in range(self.cols)])

    def column_space_basis(self) -> "Mat":
        """Columns of self at the rref pivot positions."""
        _, pivots = self._rref()
        return Mat(self.ctx, [[row[j] for j in pivots] for row in self.entries])

    # -- comparisons and display ---------------------------------------------

    def __eq__(self, other):
        if not (
            isinstance(other, Mat)
            and other.ctx == self.ctx
            and (other.rows, other.cols) == (self.rows, self.cols)
        ):
            return False
        lifts = _lifts(self, other)
        if lifts:  # equal shapes and dtypes: equal exactly when their bytes are
            return lifts[0].tobytes() == lifts[1].tobytes()
        return other.entries == self.entries

    def __hash__(self):
        return hash((self.ctx, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Mat({self.ctx!r}, {self.rows}x{self.cols})"


_set_ctx, _set_rows, _set_cols, _set_arr = (
    getattr(Mat, name).__set__ for name in ("ctx", "rows", "cols", "_arr")
)


def _sparse_product(ctx: FieldCtx, A, B, cols: int) -> List[list]:
    """Rows of A @ B for entry grids A, B with B's width ``cols``.

    Row i is the sum of A[i][j] * (row j of B) over the nonzero A[i][j] in
    ascending j, with each row of B listed once as its nonzero (column,
    entry) pairs.  Each entry adds the same products in the same order as
    the inner product over the nonzero pairs, at 2 n^2 zero tests.
    """
    add, mul, zero, z = ctx.add, ctx.mul, ctx.zero, _nil(ctx)
    live = [[(j, y) for j, y in enumerate(rb) if y != z] for rb in B]
    out = []
    for ra in A:
        row = [zero] * cols
        for x, rb in zip(ra, live):
            if x != z:
                for j, y in rb:
                    row[j] = add(row[j], mul(x, y))
        out.append(row)
    return out


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
    return Mat(ctx, out, total_c)


def kron(X: Mat, Y: Mat) -> Mat:
    """The Kronecker product: block (i, j) is X[i][j] * Y.  Entries 0 and 1
    of X give 0 and Y; each other distinct entry scales Y's nonzeros once."""
    X._check(Y)
    mul, z = X.ctx.mul, _nil(X.ctx)
    blocks = {z: [(X.ctx.zero,) * Y.cols] * Y.rows, X.ctx.one: Y.entries}  # x*Y
    for x in set(sum(X.entries, ())) - blocks.keys():
        blocks[x] = [tuple(y if y == z else mul(x, y) for y in row) for row in Y.entries]
    return Mat(X.ctx, [
        sum((blocks[x][i] for x in xrow), ()) for xrow in X.entries for i in range(Y.rows)
    ], X.cols * Y.cols)


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
    if n and f.coeffs and _numpy_exact(M.ctx, n + 1):  # sums < (n+1)k(p-1)^2
        _numpy()
        k = M.ctx.k
        N = n * k
        cs = f.coeffs if k == 1 else _lift(  # c's k x k block (over GF(p), c)
            M.ctx, _np.array(f.coeffs, dtype=_np.int64)[:, None]).reshape(-1, k, k)
        acc = _np.zeros((N, N), dtype=_np.int64)  # + c*I: on diag, its n diagonal blocks
        diag = _np.ndarray((n, k, k), acc.dtype, acc, 0, (8 * k * (N + 1), 8 * N, 8))
        diag += cs[-1]  # the first step, from acc = 0
        for c in cs[-2::-1]:
            _np.matmul(acc, _to_np(M), out=acc)
            diag += c
            acc %= M.ctx.p
        return _from_np(M.ctx, acc)
    ctx = M.ctx
    acc = Mat.zeros(ctx, n).entries
    for c in reversed(f.coeffs):
        acc = _sparse_product(ctx, acc, M.entries, n)
        for i, row in enumerate(acc):  # + c*I, on the diagonal only
            row[i] = ctx.add(row[i], c)
    return Mat(ctx, acc)


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


def _vector_kernel(M: Mat):
    """(zero, one, reduce, push, apply, relation) for the chain loop of
    :func:`_relation_matrix`.

    reduce(w, echelon) clears w at the echelon's pivot columns, push(w, piv)
    is the echelon row kept for w, apply(x) is the chain vector after x, and
    relation(coords) turns the coordinate half of the vector that closes a
    chain into the field coefficients of the chain's monic relation.  Over
    GF(p) they run on plain ints, over Q and GF(p)(s) on integral vectors
    (:func:`_ring_kernel`).  Over GF(p^k) reduce and push run on field
    scalars with every echelon row scaled to lead one, and apply multiplies
    M's lift (:func:`_lift`) by x's flattened coordinates, in int64 where
    the sums fit (M's own lift when it has one) and on Python ints beyond.
    """
    ctx = M.ctx
    if ctx.kind in ("rationals", "ratfunc"):
        return _ring_kernel(M)
    p = ctx.p
    if ctx.kind == "prime":
        rows = M.entries

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

    else:
        zero, sub, mul, n = ctx.zero, ctx.sub, ctx.mul, M.rows
        _numpy()
        dtype = _np.int64 if _numpy_exact(ctx, n) else object
        lift = _to_np(M, dtype)

        def reduce(w, echelon):
            for c, row in echelon:
                f = w[c]
                if f != zero:
                    w = [x if y == zero else sub(x, mul(f, y)) for x, y in zip(w, row)]
            return w

        def scale(v, c):
            return [x if x == zero else mul(x, c) for x in v]

        def apply(x):
            y = lift @ _np.array(x, dtype).reshape(-1) % p
            return list(map(tuple, y.reshape(n, -1).tolist()))

    one = ctx.one

    def push(w, piv):
        lead = w[piv]
        return w if lead == one else scale(w, ctx.inv(lead))

    def relation(coords):
        return coords

    return ctx.zero, one, reduce, push, apply, relation


def _ring_kernel(M: Mat):
    """The kernel over Q and GF(p)(s), fraction-free over Z and GF(p)[s].

    M's denominators are cleared once: Mz = D M.  A chain vector is a
    primitive ring vector x (content divided out) with a field scalar lam,
    the true chain vector being lam x; Mz x is its content g times the next
    x, whose lam is lam g / D.  An echelon row [vector | coordinates over
    the x's] is a primitive ring vector too: reducing w against it is
    w <- lead(row) w - w[c] row, then the content is divided out.  The
    closing relation sum c_i x_i = 0 is sum (c_i / lam_i) b_i = 0 over the
    true chain vectors b_i; dividing it by its lead coordinate makes it
    monic.  Over GF(p)[s] an entry of degree above ``RATFUNC_MAX_DEGREE``
    raises DegreeBoundExceeded.
    """
    ctx = M.ctx
    zero, one, D, Mz, comb, dot, primitive, to_field = (
        _integers(M) if ctx.kind == "rationals" else _polys_mod_p(M)
    )
    D = to_field(D)  # a field scalar from here on, for the lam updates
    lams = []  # lam of each echelon row's chain vector
    lam = ctx.one  # lam of the current chain vector

    def reduce(w, echelon):
        for c, row in echelon:
            f = w[c]
            if f:
                w = primitive(comb(row[c], w, f, row))[0]
        return w

    def push(w, piv):
        lams.append(lam)
        return w

    def apply(x):
        nonlocal lam
        y, g = primitive([dot(r, x) for r in Mz])
        lam = ctx.div(ctx.mul(lam, to_field(g)), D)  # 0 once the chain hits 0
        return y

    def relation(coords):
        nonlocal lam
        r = ctx.div(lam, to_field(coords[-1]))
        lam = ctx.one  # the next chain starts at a unit vector
        return [
            ctx.div(ctx.mul(to_field(c), r), l) if c else ctx.zero
            for c, l in zip(coords, lams)
        ] + [ctx.one]

    return zero, one, reduce, push, apply, relation


def _integers(M: Mat):
    """Z for a matrix over Q: (zero, one, D, D M, comb, dot, primitive,
    to_field) with comb(a, w, f, row) = a w - f row, dot the inner product
    and primitive(v) = (v / content, content)."""
    D = math.lcm(*(a.denominator for row in M.entries for a in row))
    Mz = [[a.numerator * (D // a.denominator) for a in row] for row in M.entries]

    def comb(a, w, f, row):
        return [a * x - f * y for x, y in zip(w, row)]

    def dot(r, x):
        return sum(map(_mul, r, x))

    def primitive(v):
        g = math.gcd(*v)
        return ([x // g for x in v] if g > 1 else v), g

    return 0, 1, D, Mz, comb, dot, primitive, Fraction


def _polys_mod_p(M: Mat):
    """GF(p)[s] for a matrix over GF(p)(s), as :func:`_integers` for Z;
    the content is made monic."""
    ctx = M.ctx
    p = ctx.p
    D = (1,)
    for row in M.entries:
        for _, d in row:
            g = _zgcd(D, d, p)
            if g != d:
                D = _zmul(D, _zdivmod(d, g, p)[0], p)
    Mz = [
        [_zmul(num, _zdivmod(D, d, p)[0], p) if num else () for num, d in row]
        for row in M.entries
    ]

    def comb(a, w, f, row):
        nf = _zneg(f, p)
        return [
            _zdot(((a, x), (nf, y)), p) if x or y else x for x, y in zip(w, row)
        ]

    def dot(r, x):
        return _zdot(zip(r, x), p)

    def primitive(v):
        g = ()  # the smallest entries first: a unit content stops early
        for x in sorted((x for x in v if x), key=len):
            g = _zgcd(x, g, p)
            if len(g) == 1:
                break
        if len(g) > 1:
            v = [_zdivmod(x, g, p)[0] for x in v]
        if max(map(len, v)) > RATFUNC_MAX_DEGREE + 1:
            raise DegreeBoundExceeded(
                f"polynomial degree exceeds cap {RATFUNC_MAX_DEGREE}"
            )
        return v, g

    def to_field(c):
        return (c, (1,)) if c else ctx.zero

    return (), (1,), D, Mz, comb, dot, primitive, to_field


def _zdot(pairs, p):
    """The sum of the products a b over the (a, b) pairs, over GF(p)[s]:
    each nonzero coefficient of a adds a scaled slice of b."""
    out = []
    for a, b in pairs:
        if a and b:
            m = len(b)
            short = len(a) + m - 1 - len(out)
            if short > 0:
                out += [0] * short
            for i, c in enumerate(a):
                if c:
                    out[i:i + m] = map(
                        _add, out[i:i + m], b if c == 1 else map(_mul, b, repeat(c))
                    )
    return _ztrim([c % p for c in out])


def _relation_matrix(M: Mat) -> Tuple[List[tuple], dict]:
    """Upper-triangular k x k presentation over F[t] of the module of M, as
    (diagonal, {(i, j): nonzero entry above the diagonal}).

    Chain j starts at the first unit vector e_s outside the span so far and
    runs e_s, M e_s, ..., M^(d-1) e_s.  Each new vector is reduced against
    one echelon form whose rows carry their coordinates over the chain
    basis; M^d e_s reduces to zero, leaving the relation
    M^d e_s - sum_i h_ij(M) e_i = 0 with h_ij read off chain i's
    coordinates.  Column j of the matrix is that relation: g_j = t^d - h_jj
    on the diagonal and -h_ij above it, with deg h_ij < deg g_i.  The
    arithmetic is :func:`_vector_kernel`'s.
    """
    n = M.rows
    trim = poly_ops(M.ctx).trim
    zero, one, reduce, push, apply, relation = _vector_kernel(M)
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
            echelon.append((piv, push(w, piv)))
            size += 1
            x = apply(x)
        if size > start:
            # w's coordinate half is now the relation closing this chain
            coords = relation(w[n:n + size + 1])
            j = len(starts)
            for i, (lo, hi) in enumerate(zip(starts, starts[1:] + [start])):
                h = trim(coords[lo:hi])
                if h:
                    above[i, j] = h
            starts.append(start)
            diag.append(tuple(coords[start:]))
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


def _diagonalize(grid: List[List[tuple]], ops) -> List[tuple]:
    """A diagonal reached from a nonsingular square matrix over F[t]
    (entries as coefficient tuples) by elementary row and column
    operations, which keep its Smith form; unordered and not monic.

    Each pass moves a minimal-degree entry of the trailing block to the
    pivot (row-major tie-break) and divides it into its column; once the
    column is clear, it divides it into its row.  A pass that leaves a
    remainder lowers the pivot degree, so the loop ends.
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
            if not any(rowk[k + 1:]):
                break
    return [grid[k][k] for k in range(n)]


def invariant_factors(M: Mat) -> InvFactors:
    """Invariant factors of M, from the relation matrix R of its Krylov
    chains (:func:`_relation_matrix`), which presents the same F[t]-module
    as tI - M.

    An R with entries above the diagonal is first brought to a diagonal by
    :func:`_diagonalize`; the Smith diagonal of a diagonal matrix is its
    gcd/lcm divisibility chain (:func:`_divisibility_chain`).
    """
    M._square()
    ctx = M.ctx
    n = M.rows
    if n == 0:
        return InvFactors(ctx, (), 0)
    ops = poly_ops(ctx)
    diag, above = _relation_matrix(M)
    if above:
        k = len(diag)
        grid = [
            [diag[i] if i == j else above.get((i, j), ()) for j in range(k)]
            for i in range(k)
        ]
        diag = [ops.monic(e) for e in _diagonalize(grid, ops)]
    chain = _divisibility_chain(diag, ops)
    return InvFactors(ctx, tuple(Poly(ctx, e) for e in chain if len(e) > 1), n)


# ----------------------------------------------------------------------
# cell counts
# ----------------------------------------------------------------------


def exact_cell_counts(seq: Tuple[int, ...]) -> Tuple[int, ...]:
    """From counts of cells of size >= k to counts of size exactly k."""
    out = []
    for k in range(len(seq)):
        nxt = seq[k + 1] if k + 1 < len(seq) else 0
        out.append(seq[k] - nxt)
    return tuple(out)
