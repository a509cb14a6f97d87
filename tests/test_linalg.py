"""Matrices: elimination, companion forms, invariant factors, Jordan data."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sympdiff.errors import NotStable, SingularMatrix
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make
from sympdiff.linalg import (
    Mat,
    companion,
    direct_sum,
    exact_cell_counts,
    fitting_split,
    invariant_factors,
    jordan_sequence,
    mat_poly_eval,
    restrict,
    similar,
)
from sympdiff.poly import Poly

from snf_reference import snf_invariant_factors


def gf5_mat(n):
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda grid: Mat(field_make("GF(5)"), grid))


@settings(max_examples=60, deadline=None)
@given(M=gf5_mat(3), N=gf5_mat(3))
def test_rank_and_product_bound(M, N):
    assert (M @ N).rank() <= min(M.rank(), N.rank())
    assert M.rank() == M.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(M=gf5_mat(3), v=st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3))
def test_solve_and_kernel(M, v):
    ctx = M.ctx
    rhs = M @ Mat.column(ctx, v)
    x = M.solve(rhs)  # consistent by construction
    assert M @ x == rhs
    K = M.kernel_basis()
    assert K.cols == M.cols - M.rank()
    if K.cols:
        assert (M @ K).is_zero


def test_solve_inconsistent_raises(F5):
    M = Mat.from_ints(F5, [[1, 0], [1, 0]])
    rhs = Mat.from_ints(F5, [[1], [2]])
    with pytest.raises(SingularMatrix):
        M.solve(rhs)


@settings(max_examples=40, deadline=None)
@given(M=gf5_mat(3))
def test_det_vs_invertibility(M):
    if M.is_invertible():
        assert M.inverse() @ M == Mat.identity(M.ctx, 3)
    else:
        with pytest.raises(SingularMatrix):
            M.inverse()


def test_companion_annihilates_its_polynomial(F5, Q):
    for ctx in (F5, Q):
        for text in ("t^2+1", "t^3-2*t+4", "t^4+t^3+1"):
            r = parse_poly(ctx, text)
            C = companion(r)
            assert mat_poly_eval(r, C).is_zero
            assert invariant_factors(C).factors == (r,)


def test_invariant_factors_goldens(F5):
    t = Poly.t(F5)
    one = Poly.one(F5)

    # nilpotent with cells of sizes 1 and 2: factors [t, t^2]
    M = direct_sum(Mat.zeros(F5, 1), companion(t * t))
    assert invariant_factors(M).factors == (t, t * t)

    # diag(1, 2): coprime linear factors merge into one invariant factor
    D = Mat.diag(F5, [F5.from_int(1), F5.from_int(2)])
    lin = (t - one) * (t - Poly.constant(F5, F5.from_int(2)))
    assert invariant_factors(D).factors == (lin,)

    # scalar matrix: the factor repeats
    S = Mat.scalar(F5, 3, F5.from_int(2))
    lin2 = t - Poly.constant(F5, F5.from_int(2))
    assert invariant_factors(S).factors == (lin2, lin2, lin2)


def test_invariant_factors_divisibility_and_degree_sum(F3):
    # every 2x2 over GF(3) exhaustively, plus random 3x3 and 4x4 samples
    import itertools
    import random

    mats = [
        Mat.from_ints(F3, [flat[0:2], flat[2:4]])
        for flat in itertools.product(range(3), repeat=4)
    ]
    rng = random.Random(3)
    for n in (3, 4):
        for _ in range(150):
            mats.append(
                Mat.from_ints(
                    F3, [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
                )
            )
    for M in mats:
        inv = invariant_factors(M)
        assert sum(f.degree for f in inv.factors) == M.rows
        for a, b in zip(inv.factors, inv.factors[1:]):
            assert (b % a).is_zero
        # the last factor is the minimal polynomial
        assert mat_poly_eval(inv.factors[-1], M).is_zero


def test_char_poly_is_factor_product(F5):
    # product of the invariant factors = characteristic polynomial, checked
    # against an independent cofactor-expansion determinant of tI - M
    import itertools
    import random

    rng = random.Random(7)
    t = Poly.t(F5)

    def char_poly_direct(M):
        n = M.rows
        grid = [
            [
                (t if i == j else Poly.zero(F5))
                - Poly.constant(F5, M[i, j])
                for j in range(n)
            ]
            for i in range(n)
        ]

        def det(g):
            if len(g) == 1:
                return g[0][0]
            total = Poly.zero(F5)
            for j in range(len(g)):
                minor = [row[:j] + row[j + 1 :] for row in g[1:]]
                term = g[0][j] * det(minor)
                total = total + term if j % 2 == 0 else total - term
            return total

        return det(grid)

    for _ in range(25):
        n = rng.choice([2, 3, 4])
        M = Mat.from_ints(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        prod = Poly.one(F5)
        for f in invariant_factors(M).factors:
            prod = prod * f
        assert prod == char_poly_direct(M)


def test_similarity_invariance(F5):
    import random

    rng = random.Random(11)
    r = parse_poly(F5, "t^3+2*t+1")
    C = companion(r)
    for _ in range(10):
        while True:
            P = Mat.from_ints(
                F5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            )
            if P.is_invertible():
                break
        assert similar(C, P @ C @ P.inverse())
    assert not similar(C, Mat.zeros(F5, 3))


def test_jordan_sequence_and_cells(F5):
    t = Poly.t(F5)
    # cells at 0 of sizes 3, 1, 1
    M = direct_sum(companion(t ** 3), Mat.zeros(F5, 1), Mat.zeros(F5, 1))
    seq = jordan_sequence(M, F5.zero)
    assert seq == (3, 1, 1)
    assert exact_cell_counts(seq) == (2, 0, 1)
    assert jordan_sequence(M, F5.one) == ()


def test_fitting_split(F5):
    t = Poly.t(F5)
    one = Poly.one(F5)
    M = direct_sum(companion(t ** 2), companion((t - one) ** 2))
    E, R = fitting_split(M, t)
    assert E.cols == 2 and R.cols == 2
    # restrictions: nilpotent on E, invertible on R
    ME = restrict(M, E)
    MR = restrict(M, R)
    assert (ME @ ME).is_zero
    assert MR.is_invertible()


def test_restrict_unstable_raises(F5):
    M = Mat.from_ints(F5, [[0, 1], [0, 0]])
    W = Mat.from_ints(F5, [[1], [1]])  # span{(1,1)} is not M-stable
    with pytest.raises(NotStable):
        restrict(M, W)


def test_block_and_direct_sum_layout(F3):
    A = Mat.from_ints(F3, [[1, 2], [0, 1]])
    B = Mat.from_ints(F3, [[2]])
    S = direct_sum(A, B)
    assert S.rows == S.cols == 3
    assert S[0, 0] == 1 and S[0, 1] == 2 and S[2, 2] == 2
    assert S[0, 2] == 0 and S[2, 0] == 0
    assert Mat.block(F3, [[A]]) == A


def test_matmul_matches_pure_python_path(F5, Q):
    # the prime-field product uses numpy; cross-check against rationals
    a = [[1, 2, 3], [4, 0, 1], [2, 2, 2]]
    b = [[2, 1, 0], [1, 1, 1], [0, 3, 4]]
    P5 = Mat.from_ints(F5, a) @ Mat.from_ints(F5, b)
    PQ = Mat.from_ints(Q, a) @ Mat.from_ints(Q, b)
    for i in range(3):
        for j in range(3):
            assert P5[i, j] == int(PQ[i, j]) % 5


def test_invariant_factors_over_ratfunc(F2s):
    # SNF runs over non-prime coefficient fields too
    s = F2s.gen
    t = Poly.t(F2s)
    r = t * t + Poly.constant(F2s, s)
    C = companion(r)
    assert invariant_factors(C).factors == (r,)
    D = direct_sum(C, C)
    assert invariant_factors(D).factors == (r, r)
    assert invariant_factors(D).doubled_halves() == (r,)


@settings(max_examples=60, deadline=None)
@given(
    M=gf5_mat(4),
    cs=st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=6),
)
def test_mat_poly_eval_matches_rational_horner(M, cs):
    # over GF(5) Horner's rule runs in int64; the same evaluation over Q,
    # reduced mod 5, is the reference
    Q = field_make("Q")
    got = mat_poly_eval(Poly.from_ints(M.ctx, cs), M)
    ref = mat_poly_eval(Poly.from_ints(Q, cs), Mat.from_ints(Q, M.entries))
    assert got.entries == tuple(
        tuple(int(e) % 5 for e in row) for row in ref.entries
    )


def test_prime_products_leave_operands_unchanged(F5):
    M = Mat.from_ints(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]])
    before = M.entries
    P = M @ M
    mat_poly_eval(parse_poly(F5, "t^3+2*t+1"), M)
    mat_poly_eval(parse_poly(F5, "t^2+4"), P)
    assert M.entries == before
    assert M @ Mat.identity(F5, 3) == M
    assert P @ Mat.identity(F5, 3) == P == M @ M


# ----------------------------------------------------------------------
# invariant factors against the n x n Smith normal form of tI - M
# ----------------------------------------------------------------------

F4 = field_make("GF(4)|t^2+t+1")
ORACLE_CONTEXTS = [
    field_make("GF(2)"),
    field_make("GF(3)"),
    field_make("GF(5)"),
    field_make("GF(100003)"),
    F4,
    field_make("GF(27)|t^3+2*t+1"),
    field_make("Q"),
    field_make("GF(2)(s)"),
    field_make("GF(3)(s)"),
]


def _scalar(ctx, a: int, b: int):
    """A scalar of ctx from two small integers."""
    if ctx.kind == "extension":
        return ctx._pad((a % ctx.p, b % ctx.p))
    if ctx.kind == "ratfunc":
        return ctx.from_polys((a % ctx.p, b % ctx.p))
    return ctx.from_int(a + 2 * b)


def _conjugate(D: Mat, ops) -> Mat:
    """P D P^-1 for P the product of the elementary matrices E_ij(c) in
    ``ops``: row_i += c * row_j, then col_j -= c * col_i."""
    ctx = D.ctx
    g = [list(row) for row in D.entries]
    for i, j, c in ops:
        g[i] = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(g[i], g[j])]
        for row in g:
            row[j] = ctx.sub(row[j], ctx.mul(c, row[i]))
    return Mat(ctx, g)


@st.composite
def oracle_matrices(draw):
    ctx = draw(st.sampled_from(ORACLE_CONTEXTS))
    small = st.integers(min_value=-2, max_value=2)
    scalar = st.builds(lambda a, b: _scalar(ctx, a, b), small, small)
    kind = draw(st.sampled_from(["random", "scalar", "blocks", "companions"]))
    n = draw(st.integers(min_value=1, max_value=8))
    if kind == "random":
        return Mat(ctx, draw(st.lists(
            st.lists(scalar, min_size=n, max_size=n), min_size=n, max_size=n
        )))
    if kind == "scalar":
        return Mat.scalar(ctx, n, draw(scalar))
    if kind == "blocks":
        # repeated small blocks: many equal and shared invariant factors
        b = draw(st.integers(min_value=1, max_value=3))
        pool = [
            Mat(ctx, draw(st.lists(
                st.lists(scalar, min_size=b, max_size=b), min_size=b, max_size=b
            )))
            for _ in range(2)
        ]
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8 // b))
        return direct_sum(*picks)
    polys = draw(st.lists(
        st.lists(scalar, min_size=1, max_size=3), min_size=1, max_size=3
    ))
    while sum(map(len, polys)) > 8:
        polys.pop()
    D = direct_sum(*(companion(Poly(ctx, tuple(cs) + (ctx.one,))) for cs in polys))
    n = D.rows
    if n == 1:
        return D
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda ij: ij[0] != ij[1])
    # the oracle's entries swell with each operation over GF(p)(s)
    ops = draw(st.lists(
        st.tuples(pairs, scalar), max_size=n if ctx.kind == "ratfunc" else 2 * n
    ))
    return _conjugate(D, [(i, j, c) for (i, j), c in ops])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(M=oracle_matrices())
def test_invariant_factors_match_smith_form_of_tI_minus_M(M):
    assert invariant_factors(M).factors == snf_invariant_factors(M)


def _sweeps(n: int, count: int, mults, seed: int):
    """Elementary operations of ``count`` bidiagonal sweeps, |i - j| = 1."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        pairs = [(i + 1, i) for i in range(n - 1)]
        out += pairs if k % 2 == 0 else [(j, i) for i, j in reversed(pairs)]
    return [(i, j, rng.choice(mults)) for i, j in out]


def test_dense_ratfunc_conjugate_answers(F2s):
    # a companion conjugated by six sweeps over GF(2)(s): the entries are
    # dense rational functions, where the n x n Smith form of tI - M swells
    # past the degree cap
    s = F2s.gen
    mults = [F2s.one, s, F2s.add(s, F2s.one)]
    f = parse_poly(F2s, "t^6+s*t^3+t+s+1")
    g = parse_poly(F2s, "t^2+s*t+1")
    for D, want in [
        (companion(f), (f,)),
        (direct_sum(companion(g), companion(g), companion(g)), (g, g, g)),
    ]:
        M = _conjugate(D, _sweeps(6, 6, mults, seed=6))
        assert sum(e != F2s.zero for row in M.entries for e in row) > 30
        assert invariant_factors(M).factors == want


def test_rational_conjugate_at_n32(Q):
    # P D P^-1 with D a direct sum of companions along a divisibility chain
    poly = lambda text: parse_poly(Q, text)
    a = poly("t^2+1")
    b = a * poly("t^3-2*t+5")
    c = b * poly("(t-1)^2*(t^2+t+3)")
    d = c * poly("(t+4)^7")
    D = direct_sum(*(companion(f) for f in (a, b, c, d)))
    assert D.rows == 32
    mults = [Q.from_int(c) for c in (-2, -1, 1, 2)]
    M = _conjugate(D, _sweeps(32, 2, mults, seed=32))
    assert invariant_factors(M).factors == (a, b, c, d)
