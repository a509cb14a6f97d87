"""Symplectic-pair structures.

A symplectic pair is an invertible alternating Gram matrix B together with
an endomorphism U such that B*U is alternating ("U is b-alternating");
"alternating" always means skew-symmetric with zero diagonal, the two being
independent conditions in characteristic 2.  Valid pairs have doubled
invariant factors, and every valid pair is isometric to the standard
extension S(v) of some endomorphism v.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

from .errors import (
    DimensionMismatch,
    InvalidPair,
    MixedFieldContexts,
    NonMonic,
    NotSquare,
    WrongDegree,
)
from .fields import FieldCtx
from .linalg import InvFactors, Mat, _nil, direct_sum, invariant_factors, kron
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
class Witness(SymplecticPair):
    U1: Mat
    U2: Mat


class _Checks:
    """``ok`` and ``failures()`` of a report of named checks: ``_messages``
    maps each check to its message when it fails, and a check fails when it
    is False (None means not checked)."""

    _messages: Dict[str, str]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> Tuple[str, ...]:
        return tuple(
            msg for name, msg in self._messages.items() if getattr(self, name) is False
        )


@dataclass(frozen=True)
class ValidityReport(_Checks):
    nondegenerate: bool
    alternating: bool
    b_alternating: bool
    doubled: bool
    invariant_factors: InvFactors

    _messages = {
        "nondegenerate": "Gram matrix is singular",
        "alternating": "Gram matrix is not alternating",
        "b_alternating": "B*U is not alternating (U is not b-alternating)",
        "doubled": "invariant factors of U are not doubled",
    }


def is_alternating(M: Mat) -> bool:
    """Skew-symmetric with zero diagonal (both checked; char-2-safe).  Only
    the nonzero entries below the diagonal are negated."""
    if not M.is_square:
        raise NotSquare(f"{M.rows}x{M.cols}")
    neg, z = M.ctx.neg, _nil(M.ctx)
    rows = M.entries
    for i, row in enumerate(rows):
        if row[i] != z:
            return False
        for j in range(i + 1, M.rows):
            y = rows[j][i]
            if y == z:
                if row[j] != z:
                    return False
            elif row[j] != neg(y):
                return False
    return True


@functools.lru_cache(maxsize=64)
def standard_gram(ctx: FieldCtx, n: int) -> Mat:
    """The 2n x 2n Gram matrix [[0, -I], [I, 0]] = kron([[0, -1], [1, 0]],
    I_n), built once per (ctx, n)."""
    return kron(Mat.from_ints(ctx, [[0, -1], [1, 0]]), Mat.identity(ctx, n))


def symplectic_extension(v: Mat) -> SymplecticPair:
    """S(v): the pair ([[0,-I],[I,0]], diag(v, v^T)) on primal+dual space."""
    if not v.is_square:
        raise NotSquare(f"{v.rows}x{v.cols}")
    return SymplecticPair(
        standard_gram(v.ctx, v.rows), direct_sum(v, v.transpose())
    )


def validate_pair(B: Mat, U: Mat) -> ValidityReport:
    if B.ctx != U.ctx:
        raise MixedFieldContexts(f"{B.ctx} vs {U.ctx}")
    if not B.is_square or not U.is_square or B.rows != U.rows:
        raise DimensionMismatch("pair matrices must be square of equal size")
    alt = is_alternating(B)
    nondeg = B.is_invertible()
    balt = is_alternating(B @ U)
    inv = invariant_factors(U)
    doubled = inv.doubled_halves() is not None
    return ValidityReport(nondeg, alt, balt, doubled, inv)


def require_valid(B: Mat, U: Mat) -> ValidityReport:
    report = validate_pair(B, U)
    if not report.ok:
        raise InvalidPair("; ".join(report.failures()), report=report)
    return report


def isometry_test(P1: SymplecticPair, P2: SymplecticPair) -> bool:
    """Scharlau: valid pairs are isometric iff their endomorphisms are
    similar, that is, have the same invariant factors."""
    if P1.ctx != P2.ctx:
        raise MixedFieldContexts(f"{P1.ctx} vs {P2.ctx}")
    # the factors' degrees add up to the dimension, so equal factors mean
    # equal dimensions
    factors1 = require_valid(P1.B, P1.U).invariant_factors.factors
    return factors1 == require_valid(P2.B, P2.U).invariant_factors.factors


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
