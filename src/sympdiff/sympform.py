"""Symplectic-pair structures.

A symplectic pair is an invertible alternating Gram matrix B together with
an endomorphism U such that B*U is alternating ("U is b-alternating");
"alternating" always means skew-symmetric with zero diagonal, the two being
independent conditions in characteristic 2.  Valid pairs have doubled
invariant factors, and every valid pair is isometric to the standard
extension S(v) of some endomorphism v.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    DimensionMismatch,
    InvalidPair,
    NotSquare,
    SearchExhausted,
)
from .fields import FieldCtx
from .linalg import InvFactors, Mat, companion, direct_sum, invariant_factors, restrict, similar
from .poly import Poly


@dataclass(frozen=True)
class SymplecticPair:
    B: Mat
    U: Mat

    @property
    def ctx(self) -> FieldCtx:
        return self.B.ctx

    @property
    def dimension(self) -> int:
        return self.B.rows


@dataclass(frozen=True)
class Witness:
    B: Mat
    U: Mat
    U1: Mat
    U2: Mat

    @property
    def ctx(self) -> FieldCtx:
        return self.B.ctx

    @property
    def dimension(self) -> int:
        return self.B.rows


@dataclass(frozen=True)
class ValidityReport:
    nondegenerate: bool
    alternating: bool
    b_alternating: bool
    doubled: bool
    invariant_factors: Optional[InvFactors]

    @property
    def ok(self) -> bool:
        return (
            self.nondegenerate
            and self.alternating
            and self.b_alternating
            and self.doubled
        )

    def failures(self) -> Tuple[str, ...]:
        out = []
        if not self.nondegenerate:
            out.append("Gram matrix is singular")
        if not self.alternating:
            out.append("Gram matrix is not alternating")
        if not self.b_alternating:
            out.append("B*U is not alternating (U is not b-alternating)")
        if not self.doubled:
            out.append("invariant factors of U are not doubled")
        return tuple(out)


def is_alternating(M: Mat) -> bool:
    """Skew-symmetric with zero diagonal (both checked; char-2-safe)."""
    if not M.is_square:
        raise NotSquare(f"{M.rows}x{M.cols}")
    ctx = M.ctx
    n = M.rows
    for i in range(n):
        if not ctx.is_zero(M.entries[i][i]):
            return False
        for j in range(i + 1, n):
            if M.entries[i][j] != ctx.neg(M.entries[j][i]):
                return False
    return True


def is_b_alternating(B: Mat, U: Mat) -> bool:
    if B.rows != U.rows or B.cols != U.cols:
        raise DimensionMismatch("Gram and endomorphism sizes differ")
    return is_alternating(B @ U)


def standard_gram(ctx: FieldCtx, n: int) -> Mat:
    """The 2n x 2n Gram matrix [[0, -I], [I, 0]]."""
    ident = Mat.identity(ctx, n)
    zero = Mat.zeros(ctx, n)
    return Mat.block(ctx, [[zero, -ident], [ident, zero]])


def symplectic_extension(v: Mat) -> SymplecticPair:
    """S(v): the pair ([[0,-I],[I,0]], diag(v, v^T)) on primal+dual space."""
    if not v.is_square:
        raise NotSquare(f"{v.rows}x{v.cols}")
    return SymplecticPair(
        standard_gram(v.ctx, v.rows), direct_sum(v, v.transpose())
    )


def validate_pair(B: Mat, U: Mat) -> ValidityReport:
    if not B.is_square or not U.is_square or B.rows != U.rows:
        raise DimensionMismatch("pair matrices must be square of equal size")
    if B.ctx != U.ctx:
        raise DimensionMismatch("pair matrices over different fields")
    alt = is_alternating(B)
    nondeg = B.is_invertible()
    balt = is_alternating(B @ U)
    inv = invariant_factors(U)
    doubled = inv.doubled_halves() is not None
    return ValidityReport(nondeg, alt, balt, doubled, inv)


def require_valid(B: Mat, U: Mat) -> ValidityReport:
    report = validate_pair(B, U)
    if not report.ok:
        err = InvalidPair("; ".join(report.failures()))
        err.report = report
        raise err
    return report


def isometry_test(P1: SymplecticPair, P2: SymplecticPair) -> bool:
    """Scharlau: valid pairs are isometric iff their endomorphisms are
    similar."""
    require_valid(P1.B, P1.U)
    require_valid(P2.B, P2.U)
    if P1.dimension != P2.dimension:
        return False
    return similar(P1.U, P2.U)


# ----------------------------------------------------------------------
# Frobenius symmetrizer
# ----------------------------------------------------------------------

_SYMMETRIZER_CACHE: dict = {}


def frobenius_symmetrizer(r: Poly) -> Mat:
    """An invertible symmetric s with s*C(r) symmetric.

    Solves the linear system {s = s^T, s*C(r) symmetric} and picks an
    invertible point deterministically: nullspace basis vectors first, then
    0/1 combinations, then seeded pseudo-random combinations.  Existence is
    classical, so exhaustion signals a bug.
    """
    key = (r.ctx, r.coeffs)
    cached = _SYMMETRIZER_CACHE.get(key)
    if cached is not None:
        return cached
    ctx = r.ctx
    C = companion(r)
    d = r.degree
    # unknowns: s_{ij} for i <= j (s symmetric by construction)
    unknowns = [(i, j) for i in range(d) for j in range(i, d)]
    index = {ij: k for k, ij in enumerate(unknowns)}

    def s_entry_coeffs(i, j):
        # coefficient vector of s_{ij} as a linear form in the unknowns
        vec = [ctx.zero] * len(unknowns)
        vec[index[(i, j) if i <= j else (j, i)]] = ctx.one
        return vec

    rows = []
    # (s C)_{ij} = sum_k s_{ik} C_{kj}; impose (s C)_{ij} = (s C)_{ji}, i < j
    for i in range(d):
        for j in range(i + 1, d):
            row = [ctx.zero] * len(unknowns)
            for k in range(d):
                cij = C.entries[k][j]
                if not ctx.is_zero(cij):
                    for pos, coef in enumerate(s_entry_coeffs(i, k)):
                        if not ctx.is_zero(coef):
                            row[pos] = ctx.add(row[pos], ctx.mul(coef, cij))
                cji = C.entries[k][i]
                if not ctx.is_zero(cji):
                    for pos, coef in enumerate(s_entry_coeffs(j, k)):
                        if not ctx.is_zero(coef):
                            row[pos] = ctx.sub(row[pos], ctx.mul(coef, cji))
            rows.append(row)
    system = Mat(ctx, rows) if rows else Mat(ctx, [], cols=len(unknowns))
    basis = system.kernel_basis()  # columns = solutions

    def to_matrix(coords):
        grid = [[ctx.zero] * d for _ in range(d)]
        for (i, j), k in index.items():
            grid[i][j] = coords[k]
            grid[j][i] = coords[k]
        return Mat(ctx, grid)

    candidates = []
    ncols = basis.cols
    for c in range(ncols):
        candidates.append(basis.col(c))

    def combos():
        for c in candidates:
            yield c
        for mask in itertools.product((0, 1), repeat=ncols):
            if sum(mask) <= 1:
                continue
            vec = [ctx.zero] * len(unknowns)
            for c, m in zip(candidates, mask):
                if m:
                    vec = [ctx.add(a, b) for a, b in zip(vec, c)]
            yield tuple(vec)
        rng = random.Random(20110209)
        if ctx.order is not None:
            elems = list(ctx.elements())
            pick = lambda: elems[rng.randrange(len(elems))]
        else:
            pick = lambda: ctx.from_int(rng.randrange(1, 10))
        for _ in range(10000):
            vec = [ctx.zero] * len(unknowns)
            for c in candidates:
                w = pick()
                vec = [ctx.add(a, ctx.mul(w, b)) for a, b in zip(vec, c)]
            yield tuple(vec)

    for coords in combos():
        s = to_matrix(coords)
        if s.is_invertible():
            sc = s @ C
            if sc != sc.transpose() or s != s.transpose():
                raise SearchExhausted("symmetrizer solution fails symmetry")
            _SYMMETRIZER_CACHE[key] = s
            return s
    raise SearchExhausted(f"no invertible symmetrizer found for {r}")


# ----------------------------------------------------------------------
# induced pairs on stable subspaces
# ----------------------------------------------------------------------


def induced_pair(P: SymplecticPair, W: Mat) -> SymplecticPair:
    """The pair induced on W / (W ∩ W^perp) for a U-stable subspace W
    (columns of W a basis)."""
    B, U = P.B, P.U
    if W.rows != B.rows:
        raise DimensionMismatch("subspace basis has wrong ambient dimension")
    if W.cols == 0:
        return SymplecticPair(Mat(P.ctx, []), Mat(P.ctx, []))
    u_res = restrict(U, W)  # raises NotStable if U does not stabilize span(W)
    gram = W.transpose() @ B @ W
    rad = gram.kernel_basis()  # radical coordinates inside W
    if rad.cols == 0:
        return SymplecticPair(gram, u_res)
    # complete the radical to a basis: standard vectors at the non-pivot
    # columns of the row-echelon form of rad^T (lexicographic pivots)
    _, pivots = rad.transpose()._rref()
    comp = [j for j in range(W.cols) if j not in pivots]
    ctx = P.ctx
    sel = Mat(
        ctx,
        [[ctx.one if j == c else ctx.zero for c in comp] for j in range(W.cols)],
        cols=len(comp),
    )
    newW = W @ sel
    if not comp:
        return SymplecticPair(Mat(ctx, []), Mat(ctx, []))
    gram_bar = newW.transpose() @ B @ newW
    # express U*newW in the basis (newW | W*rad); the quotient matrix is the
    # newW-component
    full = Mat.block(ctx, [[newW, W @ rad]])
    coords = full.solve(U @ newW)
    u_bar = Mat(ctx, coords.entries[: len(comp)])
    return SymplecticPair(gram_bar, u_bar)
