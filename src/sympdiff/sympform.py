"""Symplectic-pair structures.

A symplectic pair is an invertible alternating Gram matrix B together with
an endomorphism U such that B*U is alternating ("U is b-alternating");
"alternating" always means skew-symmetric with zero diagonal, the two being
independent conditions in characteristic 2.  Valid pairs have doubled
invariant factors, and every valid pair is isometric to the standard
extension S(v) of some endomorphism v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    DimensionMismatch,
    InvalidPair,
    NonMonic,
    NotSquare,
    WrongDegree,
)
from .fields import FieldCtx
from .linalg import InvFactors, Mat, direct_sum, invariant_factors, restrict, similar
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


def frobenius_symmetrizer(r: Poly) -> Mat:
    """An invertible symmetric s with s*C(r) symmetric: the Hankel
    (trace-form) matrix s_ij = h_(i+j) of the monic r of degree d.

    h_0 = ... = h_(d-2) = 0, h_(d-1) = 1 and h_k = -sum_i r_i*h_(k-d+i)
    for k >= d, so (s*C(r))_ij = h_(i+j+1).  s is anti-triangular with
    ones on the anti-diagonal, hence invertible.
    """
    if r.degree < 1:
        raise WrongDegree("symmetrizer needs degree >= 1")
    if not r.is_monic:
        raise NonMonic(f"symmetrizer of non-monic {r}")
    ctx = r.ctx
    d = r.degree
    low = r.coeffs[:-1]
    h = [ctx.zero] * (d - 1) + [ctx.one]
    for k in range(d, 2 * d - 1):
        acc = ctx.zero
        for ri, hj in zip(low, h[k - d:]):
            acc = ctx.sub(acc, ctx.mul(ri, hj))
        h.append(acc)
    return Mat(ctx, [h[i:i + d] for i in range(d)])


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
