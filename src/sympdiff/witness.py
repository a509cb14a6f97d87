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
from .linalg import Mat, companion, direct_sum, invariant_factors, kron, mat_poly_eval
from .linalg import _lift, _numpy, _numpy_exact, _to_np, _unlift
from .poly import Poly, decompose_base_sigma, trace_of
from .sympform import (
    SymplecticPair,
    Witness,
    _Checks,
    frobenius_symmetrizer,
    is_alternating,
    symplectic_extension,
)

DEFAULT_SEARCH_BOUND = 6


@dataclass(frozen=True)
class VerificationReport(_Checks):
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

    _messages = {
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


def w_algebra_block(pctx: PairCtx, r: Poly) -> Witness:
    """The duplication block for (p, q) and a monic r of degree d, as the
    witness (B = H, U = A - B, U1 = A, U2 = B) of dimension 4d.

    A and B are 4x4 matrices over R = F[t]/(r) with p(A) = 0, q(B) = 0 and
    AB + BA = mu*A + lambda*B - x*I4, x = (p(0) + q(0)) + class(t), and H
    is their alternating Gram.  They are expanded over F in the basis
    grouped by module generator, powers of the class of t within each
    group: every entry has degree at most 1 in t, so X0 + X1*t (X0, X1
    over F) becomes kron(X0, I_d) + kron(X1, C(r)), and H is kron(H4, s),
    s the Hankel symmetrizer of r.

    Checks only the two facts that ``verify_witness`` cannot see on the
    witness: the relation AB + BA = mu*A + lambda*B - x*I and the invariant
    factors (r(sigma), r(sigma)) of A - B.  Everything else -- p(A) = 0,
    q(B) = 0, H alternating and invertible, HA and HB alternating -- is
    left to ``verify_witness``, which every caller that returns a witness
    runs.  A failure raises ConstructionInvariantViolated and signals a
    bug, not bad input.
    """
    if not r.is_monic:
        raise NonMonic(f"r must be monic, got {r}")
    if r.degree < 1:
        raise WrongDegree("r must be nonconstant")
    ctx = pctx.ctx
    neg, mul = ctx.neg, ctx.mul
    lam, mu = trace_of(pctx.p), trace_of(pctx.q)
    alpha, beta = pctx.p.coeffs[0], pctx.q.coeffs[0]
    x0 = ctx.add(alpha, beta)
    lmx = ctx.sub(mul(lam, mu), x0)  # the F-part of lambda*mu - x; its t-part is -1
    z, o, m1 = ctx.zero, ctx.one, neg(ctx.one)
    ident, Cr = Mat.identity(ctx, r.degree), companion(r)
    A = kron(Mat(ctx, [
        (z, neg(alpha), z, z), (o, lam, z, z), (z, z, z, neg(alpha)), (z, z, o, lam)
    ]), ident)
    B = kron(Mat(ctx, [
        (z, neg(x0), neg(beta), neg(mul(lam, beta))),
        (z, mu, z, beta),
        (o, lam, mu, lmx),
        (z, m1, z, z),
    ]), ident) + kron(Mat(ctx, [(z, m1, z, z), (z,) * 4, (z, z, z, m1), (z,) * 4]), Cr)
    H = kron(Mat(ctx, [
        (z, z, z, o), (z, z, o, lam), (z, m1, z, z), (m1, neg(lam), z, z)
    ]), frobenius_symmetrizer(r))
    X4 = kron(Mat.identity(ctx, 4), ident.scale(x0) + Cr)
    if A @ B + B @ A != A.scale(mu) + B.scale(lam) - X4:
        raise ConstructionInvariantViolated(
            f"duplication block for r={r}: AB + BA != mu*A + lambda*B - x*I"
        )
    rs = r.compose(pctx.sigma)
    U = A - B
    if invariant_factors(U).factors != (rs, rs):
        raise ConstructionInvariantViolated(
            f"duplication block for r={r}: A - B does not have doubled "
            f"invariant factor r(t^2 - delta*t)"
        )
    return Witness(B=H, U=U, U1=A, U2=B)


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
        w_algebra_block(pctx, r), pctx, f"duplication witness for r={r}"
    )[0]


def _merge_witnesses(ctx, parts: Sequence[Witness]) -> Witness:
    """The direct sum of the parts; of no part, the witness on the zero
    space."""
    if not parts:
        empty = Mat(ctx, [])
        return Witness(B=empty, U=empty, U1=empty, U2=empty)
    return Witness(*(
        direct_sum(*mats) for mats in zip(*((w.B, w.U, w.U1, w.U2) for w in parts))
    ))


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
            parts.append(w_algebra_block(pctx, rr))
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
def _alternating_system(n: int):
    """The shape of ``_solution_space``'s system for n x n matrices: its
    rows, the strict upper triangle (a, b) in order, also as the index
    arrays ``np.triu_indices(n, 1)``, and the (row, column, i, j) at which
    U[i][j] is added to (``plus``) or subtracted from (``minus``) a
    coefficient.  Column k - 1 - f is coordinate f."""
    iu = _numpy().triu_indices(n, 1)
    upper = list(zip(*(a.tolist() for a in iu)))
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
    return upper, iu, plus, minus


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
    upper, _, plus, minus = _alternating_system(n)
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
    # the right-hand side is -B*g(U) = B*(-g)(U)
    minus_g = Poly(ctx, (sub(p0, q0), q1, ctx.neg(ctx.one)))
    G = (B @ mat_poly_eval(minus_g, U)).entries
    for r, (a, b) in enumerate(upper):
        rows[r][k] = G[a][b]
    # the columns are reversed, so solution row k - 1 - f and entry f of a
    # reversed kernel vector are coordinate f
    solved = Mat(ctx, rows)._solutions(1)
    if solved is None:
        return None
    X0, kernel = solved
    return [x for x, in reversed(X0)], [v[::-1] for v in reversed(kernel)]


# The search scans its candidates in chunks that double from the first
# size to the last, so a witness at index i costs O(i) candidates and a
# scan of N candidates O(log N + N / _LAST_CHUNK) chunks.  The sizes count
# n x n candidates; a candidate lifted from GF(p^k) has k^2 times as many
# entries and counts k^2 times, so a chunk's memory does not grow with k.
_FIRST_CHUNK, _LAST_CHUNK = 64, 1 << 15


def _digits(idx, pr: int, width: int):
    """The ``width`` base-``pr`` digits of each index, most significant
    first."""
    np = _numpy()
    return idx[:, None] // pr ** np.arange(width - 1, -1, -1, dtype=np.int64) % pr


@functools.lru_cache(maxsize=64)
def _gram_inverse(B: Mat) -> Mat:
    """B^-1, once per distinct Gram matrix (a sweep meets few)."""
    return B.inverse()


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
    B^{-1} * M(direction f) computed once.  The scan runs on the lift to
    GF(p) (``linalg._lift``), an injective ring homomorphism that maps
    n x n matrices over GF(p^k) to nk x nk ones, so p(U1) = 0 can be tested
    there; each c_f = a_0 + a_1*g + ... becomes k digits a_j with
    directions g^j * D_f, a_0 most significant, which is the order of
    ``ctx.elements()``.  Candidates are the integers below p^(digits), read
    in base p; the sum over the lowest digits is tabulated once, and the
    scan goes in chunks that double from 64 to 2^15 candidates (k^2 times
    fewer over GF(p^k)) and stops at the chunk of its first hit, so a
    witness at index i costs O(i) candidates.  A hit is checked again as a
    ``Mat`` over the field itself.  The sums are int64 where
    ``linalg._numpy_exact`` allows and exact Python ints otherwise.

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
        return _merge_witnesses(ctx, ())
    Binv = _gram_inverse(P.B)
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
    np = _numpy()
    pr, k = ctx.characteristic, ctx.k
    nk = n * k
    K = n * (n - 1) // 2
    # sums: U0 + k*K digit-direction products, nk products by U1 + p1*I < 2p
    dtype = np.int64 if _numpy_exact(ctx, max(K, n)) else object
    vals = np.array([base] + directions, dtype).reshape(-1, K, k)
    # digit a_j of coordinate f moves M by g^j * direction f (lifted column j)
    steps = _lift(ctx, vals[1:, :, None]).reshape(-1, K, k, k)
    vals = np.concatenate([vals[:1], steps.transpose(0, 3, 1, 2).reshape(-1, K, k)])
    d = len(vals) - 1
    M = np.zeros((d + 1, n, n, k), dtype=dtype)
    iu = _alternating_system(n)[1]
    M[:, iu[0], iu[1]] = vals
    M[:, iu[1], iu[0]] = -vals
    UM = (_to_np(Binv, dtype) @ _lift(ctx, M) % pr).reshape(d + 1, nk * nk)
    U0, D = UM[:1], UM[1:]
    m = 0
    while m < d and pr ** (m + 1) <= _FIRST_CHUNK:
        m += 1
    low = U0
    if m:
        low = (U0 + _digits(np.arange(pr**m), pr, m) @ D[d - m :]) % pr
    highs = pr ** (d - m)
    eye = np.eye(n, dtype=dtype)[..., None]  # c*I is eye * (c's coordinates)
    p1_ident = _lift(ctx, eye * np.array(pctx.p.coeffs[1], dtype).reshape(k))
    # p(U1) = 0 exactly when U1 * (U1 + p1*I) = -p0*I
    minus_p0 = _lift(ctx, eye * np.array(ctx.neg(pctx.p.coeffs[0]), dtype).reshape(k))
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
            U1c = Mat(ctx, _unlift(ctx, U1[c]))
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
    diff = U1 - U2
    kernel_stable = None
    if pctx.p == pctx.q:
        # a kernel basis has full column rank, so M keeps Ker exactly when
        # [K | M K] has rank K.cols (rank 0 for an n x 0 block)
        K = diff.kernel_basis()
        kernel_stable = all(
            Mat.block(B.ctx, [[K, M @ K]]).rank() == K.cols for M in (U1, U2)
        )
    return VerificationReport(
        gram_alternating=is_alternating(B),
        gram_invertible=B.is_invertible(),
        u1_b_alternating=is_alternating(B @ U1),
        u2_b_alternating=is_alternating(B @ U2),
        p_annihilates_u1=mat_poly_eval(pctx.p, U1).is_zero,
        q_annihilates_u2=mat_poly_eval(pctx.q, U2).is_zero,
        difference_matches=diff == U,
        u1_commutes_with_sigma_of_u=(U1 @ sig) == (sig @ U1),
        u2_commutes_with_sigma_of_u=(U2 @ sig) == (sig @ U2),
        kernel_stable=kernel_stable,
    )
