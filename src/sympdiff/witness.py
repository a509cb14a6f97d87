"""Witness construction and certification.

A witness for a symplectic (p,q)-difference (B, U) is an explicit pair
(U1, U2) of B-alternating endomorphisms with p(U1) = 0, q(U2) = 0 and
U = U1 - U2.  The constructive route is the duplication block: a 4d x 4d
pair realizing u with exactly two invariant factors r(t^2 - delta*t),
built from a four-dimensional algebra over R = F[t]/(r).  Brute-force
search over small finite fields provides the independent certification
route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .decide import DecisionReport, PairCtx, decide_extension
from .errors import (
    ConstructionInvariantViolated,
    DecisionWasNo,
    DimensionBoundExceeded,
    InfiniteField,
    InvalidPair,
    MixedFieldContexts,
    NonMonic,
    WrongDegree,
)
from .linalg import Mat, companion, direct_sum, invariant_factors, mat_poly_eval
from .poly import Poly, decompose_base_sigma, trace_of
from .sympform import (
    SymplecticPair,
    Witness,
    frobenius_symmetrizer,
    is_alternating,
    symplectic_extension,
)

DEFAULT_SEARCH_BOUND = 6


@dataclass(frozen=True)
class VerificationReport:
    gram_alternating: bool
    gram_invertible: bool
    u1_b_alternating: bool
    u2_b_alternating: bool
    p_annihilates_u1: bool
    q_annihilates_u2: bool
    difference_matches: bool
    u1_commutes_with_sigma_of_u: bool
    u2_commutes_with_sigma_of_u: bool
    kernel_stable: Optional[bool]  # only checked when p = q

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> Tuple[str, ...]:
        return tuple(
            msg for name, msg in _CHECK_FAILURES.items() if getattr(self, name) is False
        )


# the message of each check of a VerificationReport when it fails
_CHECK_FAILURES = {
    "gram_alternating": "Gram matrix is not alternating",
    "gram_invertible": "Gram matrix is singular",
    "u1_b_alternating": "B*U1 is not alternating",
    "u2_b_alternating": "B*U2 is not alternating",
    "p_annihilates_u1": "p(U1) is nonzero",
    "q_annihilates_u2": "q(U2) is nonzero",
    "difference_matches": "U1 - U2 differs from U",
    "u1_commutes_with_sigma_of_u": "U1 does not commute with U^2 - delta*U",
    "u2_commutes_with_sigma_of_u": "U2 does not commute with U^2 - delta*U",
    "kernel_stable": "Ker(U1 - U2) is not stable under U1 and U2",
}


@dataclass(frozen=True)
class WBlock:
    """The duplication block for (p, q) and a monic r of degree d: 4x4
    matrices over R = F[t]/(r), expanded to 4d x 4d over F in the basis
    grouped by module generator, powers of the class of t within each
    group."""

    r: Poly
    A: Mat
    B: Mat
    C: Mat
    H: Mat

    @property
    def d(self) -> int:
        return self.r.degree

    @property
    def dimension(self) -> int:
        return 4 * self.r.degree


def w_algebra_block(pctx: PairCtx, r: Poly) -> WBlock:
    """The four-generator algebra block: matrices A, B with p(A) = 0,
    q(B) = 0, AB + BA = mu*A + lambda*B - x*I4 over R = F[t]/(r) with
    x = (p(0) + q(0)) + class(t), expanded over F, together with C = AB
    and the alternating Gram matrix H built from a symmetrizer of C(r).

    Checks only the two facts that ``verify_witness`` cannot see on the
    witness (H, A - B, A, B): the relation AB + BA = mu*A + lambda*B - x*I
    and the invariant factors (r(sigma), r(sigma)) of A - B.  Everything
    else -- p(A) = 0, q(B) = 0, H alternating and invertible, HA and HB
    alternating -- is left to ``verify_witness``, which every caller that
    returns a witness runs.  A failure signals a bug, not bad input.
    """
    if not r.is_monic:
        raise NonMonic(f"r must be monic, got {r}")
    if r.degree < 1:
        raise WrongDegree("r must be nonconstant")
    ctx = pctx.ctx
    p, q = pctx.p, pctx.q
    lam, mu = trace_of(p), trace_of(q)
    alpha, beta = p.coeffs[0], q.coeffs[0]
    d = r.degree
    Cr = companion(r)

    def cst(c) -> Poly:
        return Poly.constant(ctx, c)

    zero, one = cst(ctx.zero), cst(ctx.one)
    x = Poly(ctx, (ctx.add(alpha, beta), ctx.one)) % r
    lam_mu = cst(ctx.mul(lam, mu))
    lmx = (lam_mu - x) % r
    a4 = [
        [zero, cst(ctx.neg(alpha)), zero, zero],
        [one, cst(lam), zero, zero],
        [zero, zero, zero, cst(ctx.neg(alpha))],
        [zero, zero, one, cst(lam)],
    ]
    b4 = [
        [zero, -x, cst(ctx.neg(beta)), cst(ctx.neg(ctx.mul(lam, beta)))],
        [zero, cst(mu), zero, cst(beta)],
        [one, cst(lam), cst(mu), lmx],
        [zero, cst(ctx.neg(ctx.one)), zero, zero],
    ]
    c4 = [
        [zero, cst(ctx.neg(ctx.mul(alpha, mu))), zero,
         cst(ctx.neg(ctx.mul(alpha, beta)))],
        [zero, lmx, cst(ctx.neg(beta)), zero],
        [zero, cst(alpha), zero, zero],
        [one, zero, cst(mu), lmx],
    ]
    # multiplication matrix of an R-entry on the power basis, once per entry
    # (a constant c multiplies as c*I)
    mult = functools.lru_cache(maxsize=None)(
        lambda e: mat_poly_eval(e, Cr)
        if e.degree > 0
        else Mat.scalar(ctx, d, e.coefficient(0))
    )

    def expand(grid: Sequence[Sequence[Poly]]) -> Mat:
        return Mat.block(ctx, [[mult(e) for e in row] for row in grid])

    A, B, C = expand(a4), expand(b4), expand(c4)
    s = frobenius_symmetrizer(r)
    zd = Mat.zeros(ctx, d)
    ls = s.scale(lam)
    H = Mat.block(
        ctx,
        [
            [zd, zd, zd, s],
            [zd, zd, s, ls],
            [zd, -s, zd, zd],
            [-s, -ls, zd, zd],
        ],
    )
    X4 = direct_sum(*[mult(x)] * 4)
    if A @ B + B @ A != A.scale(mu) + B.scale(lam) - X4:
        raise ConstructionInvariantViolated(
            f"duplication block for r={r}: AB + BA != mu*A + lambda*B - x*I"
        )
    rs = r.compose(pctx.sigma)
    if invariant_factors(A - B).factors != (rs, rs):
        raise ConstructionInvariantViolated(
            f"duplication block for r={r}: A - B does not have doubled "
            f"invariant factor r(t^2 - delta*t)"
        )
    return WBlock(r=r, A=A, B=B, C=C, H=H)


def _block_witness(block: WBlock) -> Witness:
    return Witness(B=block.H, U=block.A - block.B, U1=block.A, U2=block.B)


def _verified(
    w: Witness, pctx: PairCtx, what: str
) -> Tuple[Witness, VerificationReport]:
    report = verify_witness(w, pctx)
    if not report.ok:
        raise ConstructionInvariantViolated(
            f"{what} fails verification: {'; '.join(report.failures())}"
        )
    return w, report


def duplication_witness(pctx: PairCtx, r: Poly) -> Witness:
    """A verified witness whose endomorphism has exactly two invariant
    factors, both r(t^2 - delta*t)."""
    return _verified(
        _block_witness(w_algebra_block(pctx, r)), pctx,
        f"duplication witness for r={r}",
    )[0]


def _merge_witnesses(ctx, parts: Sequence[Witness]) -> Witness:
    return Witness(
        B=direct_sum(*(w.B for w in parts)) if parts else Mat(ctx, []),
        U=direct_sum(*(w.U for w in parts)) if parts else Mat(ctx, []),
        U1=direct_sum(*(w.U1 for w in parts)) if parts else Mat(ctx, []),
        U2=direct_sum(*(w.U2 for w in parts)) if parts else Mat(ctx, []),
    )


def compose_witness(
    v: Mat, pctx: PairCtx, bound: int = DEFAULT_SEARCH_BOUND
) -> Optional[Witness]:
    """A verified witness for a pair isometric to S(v), or None when the
    implemented constructions do not cover the instance (the YES decision
    stands either way).

    The invariant factors of v come from the one ``decide_extension`` call;
    a NO raises ``DecisionWasNo`` carrying that report.  Factors that are
    polynomials in t^2 - delta*t each yield a ``w_algebra_block``, which
    checks its own AB + BA relation and invariant factors; the remaining
    factors are bundled into one residual extension and searched by brute
    force, which needs a finite field and a residual search within the
    bound.  ``verify_witness`` then runs once, on the assembled direct
    sum: each of its checks holds for a block-diagonal witness exactly
    when it holds for every block, so the blocks are not verified apart.
    """
    report = decide_extension(v, pctx)
    if not report.ok:
        raise DecisionWasNo(
            report.failing_evidence or "decision is NO", report=report
        )
    found = _witness_for_decision(report, pctx, bound)
    return None if found is None else found[0]


def _witness_for_decision(
    report: DecisionReport, pctx: PairCtx, bound: int
) -> Optional[Tuple[Witness, VerificationReport]]:
    """``compose_witness`` from a YES decision already made: the witness
    for the invariant factors in ``report``, with the report of its one
    verification, or None."""
    parts: List[Witness] = []
    residual: List[Poly] = []
    for f in report.invariant_factors:
        rr = decompose_base_sigma(f, pctx.delta)
        if rr is not None:
            parts.append(_block_witness(w_algebra_block(pctx, rr)))
        else:
            residual.append(f)
    if residual:
        P_res = symplectic_extension(
            direct_sum(*(companion(f) for f in residual))
        )
        try:
            found = brute_force_witness(P_res, pctx, bound=bound)
        except (InfiniteField, DimensionBoundExceeded):
            return None
        if found is None:
            return None
        parts.append(found)
    return _verified(
        _merge_witnesses(pctx.ctx, parts), pctx, "assembled witness"
    )


# ----------------------------------------------------------------------
# brute force
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _upper(n: int):
    """``np.triu_indices(n, 1)``: the strict upper triangle of an n x n
    matrix, row by row, built once per n."""
    return np.triu_indices(n, 1)


@functools.lru_cache(maxsize=None)
def _alternating_system(n: int):
    """The shape of ``_solution_space``'s system for n x n matrices: its
    rows, the strict upper triangle (a, b) in order, and the (row, column,
    i, j) at which U[i][j] is added to (``plus``) or subtracted from
    (``minus``) a coefficient.  Column k - 1 - f is coordinate f."""
    upper = [(a, b) for a in range(n) for b in range(a + 1, n)]
    k = len(upper)
    at = {ab: r for r, ab in enumerate(upper)}
    plus, minus = [], []
    for f, (c, d) in enumerate(upper):
        col = k - 1 - f
        # M = e_c e_d^T - e_d e_c^T: entry (a, b) of M*U is [a = c]*U[d][b]
        # - [a = d]*U[c][b], that of U^T*M is [b = d]*U[c][a] - [b = c]*U[d][a]
        minus += [(at[c, b], col, d, b) for b in range(c + 1, n)]
        minus += [(at[a, d], col, c, a) for a in range(d)]
        plus += [(at[d, b], col, c, b) for b in range(d + 1, n)]
        plus += [(at[a, c], col, d, a) for a in range(c)]
    return upper, plus, minus


def _solution_space(B: Mat, U: Mat, pctx: PairCtx):
    """The upper-triangle coordinates of M (U1 = B^{-1} * M, M alternating)
    that can give a witness, as an affine space, or None when none can.

    B must be invertible and alternating and B*U alternating, as in every
    symplectic pair.  With p = t^2 + p1*t + p0 and q = t^2 + q1*t + q0,
    any U1 with p(U1) = 0 has q(U1 - U) = (q1 - p1)*U1 - (U1*U + U*U1) +
    g(U), g = t^2 - q1*t + (q0 - p0).  B*U alternating gives U^T =
    B*U*B^{-1}, so B times it is (q1 - p1)*M - (M*U + U^T*M) + B*g(U),
    an alternating matrix; as B is invertible, q(U1 - U) = 0 exactly when
    its k = n(n-1)/2 strict-upper entries vanish.  These k equations use
    only the definition of a witness and of a symplectic pair, not the
    decision procedure.  The coefficient of coordinate (c, d) of M in
    entry (a, b) is q1 - p1 at (c, d) plus or minus entries of U, so
    building the system takes no field products and no B^{-1}.  It is
    brought to reduced row echelon form with the columns reversed: each
    dependent coordinate is then a function of earlier (more significant)
    free coordinates only, so candidates in lexicographic order of the
    free coordinates are the full lexicographic order restricted to the
    solutions.  Returns ``(base, directions)``: the solution with every
    free coordinate zero, and per free coordinate, most significant first,
    the k-vector that moves it by one and the dependent coordinates with
    it.
    """
    ctx = U.ctx
    add, sub = ctx.add, ctx.sub
    n = U.rows
    upper, plus, minus = _alternating_system(n)
    k = len(upper)
    p0, p1 = pctx.p.coeffs[0], pctx.p.coeffs[1]
    q0, q1 = pctx.q.coeffs[0], pctx.q.coeffs[1]
    Ue = U.entries
    rows = [[ctx.zero] * (k + 1) for _ in range(k)]
    dq = sub(q1, p1)
    for r in range(k):
        rows[r][k - 1 - r] = dq
    for r, col, i, j in plus:
        rows[r][col] = add(rows[r][col], Ue[i][j])
    for r, col, i, j in minus:
        rows[r][col] = sub(rows[r][col], Ue[i][j])
    g = Poly(ctx, (sub(q0, p0), ctx.neg(q1), ctx.one))
    G = (B @ mat_poly_eval(g, U)).entries
    for r, (a, b) in enumerate(upper):
        rows[r][k] = G[a][b]
    # the system is reduced with B*g(U) in place of its negation, the
    # right-hand side, which negates the last column of the result
    rows, pivots = Mat(ctx, rows)._rref()
    if pivots and pivots[-1] == k:
        return None
    base = [ctx.zero] * k
    for row, c in zip(rows, pivots):
        base[k - 1 - c] = ctx.neg(row[k])
    directions = []
    for f in range(k):
        c_f = k - 1 - f
        if c_f in pivots:
            continue
        d = [ctx.zero] * k
        d[f] = ctx.one
        for row, c in zip(rows, pivots):
            d[k - 1 - c] = ctx.neg(row[c_f])
        directions.append(d)
    return base, directions


# The search scans its candidates in chunks that double from the first
# size to the last, so a witness at index i costs O(i) candidates and a
# scan of N candidates O(log N + N / _LAST_CHUNK) chunks.  The sizes count
# n x n candidates; a candidate lifted from GF(p^k) has k^2 times as many
# entries and counts k^2 times, so a chunk's memory does not grow with k.
_FIRST_CHUNK, _LAST_CHUNK = 64, 1 << 15


def _digits(idx, pr: int, width: int):
    """The ``width`` base-``pr`` digits of each index, most significant
    first."""
    return idx[:, None] // pr ** np.arange(width - 1, -1, -1, dtype=np.int64) % pr


def _regular(ctx, X):
    """Each GF(p^k) entry of X, given by its k coordinates on the last
    axis, as the k x k matrix over GF(p) of multiplication by it in the
    basis 1, g, ..., g^(k-1): column j holds the coordinates of the entry
    times g^j."""
    k = ctx.k
    g = (0, 1) + (0,) * (k - 2)
    pw = [ctx.one]
    for _ in range(2 * k - 2):
        pw.append(ctx.mul(pw[-1], g))
    # row i of G is the matrix of multiplication by g^i (column b holds
    # g^(i+b)); that of x = sum_i x_i * g^i is sum_i x_i * row i
    G = np.array(
        [[pw[i + b][a] for a in range(k) for b in range(k)] for i in range(k)],
        dtype=X.dtype,
    )
    return (X @ G % ctx.p).reshape(X.shape + (k,))


def brute_force_witness(
    P: SymplecticPair, pctx: PairCtx, bound: int = DEFAULT_SEARCH_BOUND
) -> Optional[Witness]:
    """Exhaustive search straight from the definition: U1 ranges over
    B^{-1} * (alternating M) in lexicographic order of the strict upper
    triangle of M, U2 := U1 - U; the first candidate with p(U1) = 0,
    q(U2) = 0 and B*U2 alternating wins.

    A linear prefilter (``_solution_space``) skips the candidates that
    cannot win.  A witness has B*U = B*U1 - B*U2 alternating, so a U
    without it gets None at once.  Otherwise, given p(U1) = 0, q(U1 - U)
    = 0 is linear in U1, and B times it is alternating, so it is k =
    n(n-1)/2 equations, one per strict-upper entry, whose coefficients
    are entries of U and q1 - p1.  They use only p(U1) = 0, q(U2) = 0 and
    the alternating B, B*U1 and B*U2 of the definition, not the decision
    procedure.  The search solves them once, returns None at once when
    they are inconsistent, and otherwise scans only their affine solution
    space, still checking all three conditions on every hit.  The
    candidates it scans keep their lexicographic order, so the first
    witness (or None) is the one the full scan finds.  B*U2 is
    alternating on every solution, because B*U1 = M and B*U are.

    U1 = B^{-1} * M is linear in M, so the candidate with free coordinates
    c is U1 = U0 + sum_f c_f * D_f, with U0 = B^{-1} * M(base) and D_f =
    B^{-1} * M(direction f) computed once.  Over GF(p^k) every n x n
    matrix is replaced by its nk x nk image over GF(p) (each entry becomes
    the k x k block of multiplication by it), an injective ring
    homomorphism, so p(U1) = 0 can be tested there; each c_f = a_0 +
    a_1*g + ... becomes k digits a_j with directions g^j * D_f, a_0 most
    significant, which is the order of ``ctx.elements()``.  Candidates
    are the integers below p^(digits), read in base p; the sum over the
    lowest digits is tabulated once, and the scan goes in chunks that
    double from 64 to 2^15 candidates (k^2 times fewer over GF(p^k)) and
    stops at the chunk of its first hit, so a witness at index i costs
    O(i) candidates.  A hit is checked
    again as a ``Mat`` over the field itself.  The sums are int64 where
    they cannot overflow and exact Python ints otherwise.

    Raises MixedFieldContexts when P and pctx live over different fields,
    SingularMatrix when B is singular, InvalidPair when B is not
    alternating, and DimensionBoundExceeded above the dimension bound, or
    when the solution space holds 2^63 or more candidates (the int64
    index range)."""
    ctx = P.ctx
    if ctx != pctx.ctx:
        raise MixedFieldContexts(f"{ctx} vs {pctx.ctx}")
    if ctx.order is None:
        raise InfiniteField("brute force needs a finite field")
    n = P.dimension
    if n > bound:
        raise DimensionBoundExceeded(f"pair dimension {n} exceeds bound {bound}")
    if n == 0:
        empty = Mat(ctx, [])
        return Witness(B=empty, U=empty, U1=empty, U2=empty)
    Binv = P.B.inverse()
    if not is_alternating(P.B):
        raise InvalidPair("Gram matrix is not alternating")
    if not is_alternating(P.B @ P.U):
        return None  # B*U1 and B*U2 are alternating, so B*U would be
    space = _solution_space(P.B, P.U, pctx)
    if space is None:
        return None
    base, directions = space
    if ctx.order ** len(directions) >= 2**63:
        raise DimensionBoundExceeded(
            f"pair dimension {n} over {ctx} leaves at least 2^63 candidates"
        )
    pr = ctx.characteristic
    k = getattr(ctx, "k", 1)  # GF(p^k) is k-dimensional over GF(p)
    nk = n * k
    # every sum below stays under max(terms, nk + k) * p^2: U0 + sum of
    # digits times directions adds a residue to at most terms products of
    # residues, and B^{-1} * M, U1 * (U1 + p1*I) and the lift add at most
    # nk + k (the k entries of U1 + p1*I in a sum from p1's diagonal block
    # are below 2p)
    terms = k * n * (n - 1) // 2
    dtype = np.int64 if max(terms, nk + k) * pr**2 < 2**63 else object
    to_np = lambda rows: np.array(rows, dtype=dtype)
    vals = to_np([base] + directions)
    if k == 1:
        lift = lambda X: X
        unlift = lambda A: Mat.from_ints(ctx, A.tolist())
    else:
        lift = lambda X: np.swapaxes(_regular(ctx, X), -3, -2).reshape(
            X.shape[:-3] + (X.shape[-3] * k, X.shape[-2] * k)
        )
        # entry (r, c) is column 0 of block (r, c): the entry times 1
        unlift = lambda A: Mat(
            ctx,
            [
                list(map(tuple, row))
                for row in A.reshape(n, k, n, k)[..., 0].swapaxes(1, 2).tolist()
            ],
        )
        # digit a_j of free coordinate f moves M by g^j * direction f
        steps = np.moveaxis(_regular(ctx, vals[1:]), -1, 1)
        vals = np.concatenate([vals[:1], steps.reshape((-1,) + vals.shape[1:])])
    d = len(vals) - 1
    M = np.zeros((d + 1, n, n) + vals.shape[2:], dtype=dtype)
    iu = _upper(n)
    M[:, iu[0], iu[1]] = vals
    M[:, iu[1], iu[0]] = -vals
    UM = (lift(to_np(Binv.entries)) @ lift(M) % pr).reshape(d + 1, nk * nk)
    U0, D = UM[:1], UM[1:]
    m = 0
    while m < d and pr ** (m + 1) <= _FIRST_CHUNK:
        m += 1
    low = U0
    if m:
        low = (U0 + _digits(np.arange(pr**m), pr, m) @ D[d - m :]) % pr
    highs = pr ** (d - m)
    scalar = lambda c: lift(np.multiply.outer(np.eye(n, dtype=dtype), to_np(c)))
    p1_ident = scalar(pctx.p.coeffs[1])
    # p(U1) = 0 exactly when U1 * (U1 + p1*I) = -p0*I
    minus_p0 = scalar(ctx.neg(pctx.p.coeffs[0]))
    # chunk sizes count values of the high digits, len(low) candidates each
    per_high = len(low) * k * k
    start, size = 0, max(1, _FIRST_CHUNK // per_high)
    last = max(1, _LAST_CHUNK // per_high)
    while start < highs:
        U1 = low
        if m < d:
            hi = np.arange(start, min(start + size, highs), dtype=np.int64)
            U1 = (_digits(hi, pr, d - m) @ D[: d - m] % pr)[:, None] + low
            U1 -= pr * (U1 >= pr)
        start, size = start + size, min(2 * size, last)
        U1 = U1.reshape(-1, nk, nk)
        PU1 = U1 @ (U1 + p1_ident) % pr
        for c in np.flatnonzero((PU1 == minus_p0).all(axis=(1, 2))):
            U1c = unlift(U1[c])
            U2c = U1c - P.U
            # B*U2 is tested over the field: the transpose of a lifted
            # matrix is not the lift of the transpose
            if mat_poly_eval(pctx.q, U2c).is_zero and is_alternating(P.B @ U2c):
                return Witness(B=P.B, U=P.U, U1=U1c, U2=U2c)
    return None


def verify_witness(w: Witness, pctx: PairCtx) -> VerificationReport:
    """Check every defining property of a witness, plus the derived
    commutation with U^2 - delta*U and, when p = q, stability of
    Ker(U1 - U2) under both U1 and U2."""
    B, U, U1, U2 = w.B, w.U, w.U1, w.U2
    sig = U @ U - U.scale(pctx.delta)
    kernel_stable = None
    if pctx.p == pctx.q:
        K = (U1 - U2).kernel_basis()
        if K.cols == 0:
            kernel_stable = True
        else:
            base_rank = K.rank()
            kernel_stable = all(
                Mat.block(B.ctx, [[K, M @ K]]).rank() == base_rank
                for M in (U1, U2)
            )
    return VerificationReport(
        gram_alternating=is_alternating(B),
        gram_invertible=B.is_invertible(),
        u1_b_alternating=is_alternating(B @ U1),
        u2_b_alternating=is_alternating(B @ U2),
        p_annihilates_u1=mat_poly_eval(pctx.p, U1).is_zero,
        q_annihilates_u2=mat_poly_eval(pctx.q, U2).is_zero,
        difference_matches=(U1 - U2) == U,
        u1_commutes_with_sigma_of_u=(U1 @ sig) == (sig @ U1),
        u2_commutes_with_sigma_of_u=(U2 @ sig) == (sig @ U2),
        kernel_stable=kernel_stable,
    )
