"""Reference subspace routines: the Fitting split, restriction to a stable
subspace and the pair induced on it.

The library decides from invariant factors and never splits a space.  The
tests use these routines as a second route: they split and restrict with
ranks, kernels and linear solves only.
"""

from typing import Tuple

from sympdiff.errors import (
    ConstructionInvariantViolated,
    DimensionMismatch,
    SingularMatrix,
    SympdiffError,
    ZeroPolynomial,
)
from sympdiff.linalg import Mat, mat_poly_eval
from sympdiff.poly import Poly
from sympdiff.sympform import SymplecticPair


class NotStable(SympdiffError):
    """A subspace is not stable under the given endomorphism."""


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
