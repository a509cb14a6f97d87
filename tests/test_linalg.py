"""Matrices: elimination, companion forms, invariant factors, Jordan data."""

import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sympdiff.errors import (
    DegreeBoundExceeded,
    MixedFieldContexts,
    SingularMatrix,
)
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make
import sympdiff.linalg
from sympdiff.linalg import (
    Mat,
    _from_np,
    _relation_matrix,
    _to_np,
    _unlift,
    companion,
    direct_sum,
    exact_cell_counts,
    invariant_factors,
    kron,
    mat_poly_eval,
)
from sympdiff.poly import Poly
from sympdiff.sympform import is_alternating

from jordan_reference import jordan_sequence
from krylov_reference import field_relation_matrix
from rref_reference import (
    dense_entrywise,
    dense_inverse,
    dense_kernel_basis,
    dense_rank,
    dense_rref,
    dense_solve,
)
from snf_reference import snf_invariant_factors
from subspace_reference import NotStable, fitting_split, restrict
from witness_reference import alternating, poly_eval, product


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
    rhs = M @ Mat(ctx, [[x] for x in v])
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
    D = Mat.from_ints(F5, [[1, 0], [0, 2]])
    lin = (t - one) * (t - Poly.constant(F5, F5.from_int(2)))
    assert invariant_factors(D).factors == (lin,)

    # scalar matrix: the factor repeats
    S = Mat.identity(F5, 3).scale(F5.from_int(2))
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
                (t if i == j else Poly(F5))
                - Poly.constant(F5, M[i, j])
                for j in range(n)
            ]
            for i in range(n)
        ]

        def det(g):
            if len(g) == 1:
                return g[0][0]
            total = Poly(F5)
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
    factors = invariant_factors(C).factors
    for _ in range(10):
        while True:
            P = Mat.from_ints(
                F5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            )
            if P.is_invertible():
                break
        assert invariant_factors(P @ C @ P.inverse()).factors == factors
    assert invariant_factors(Mat.zeros(F5, 3)).factors != factors


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
    got = mat_poly_eval(Poly(M.ctx, map(M.ctx.from_int, cs)), M)
    ref = mat_poly_eval(Poly(Q, map(Q.from_int, cs)), Mat.from_ints(Q, M.entries))
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
        return Mat.identity(ctx, n).scale(draw(scalar))
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


def _upper_shift(ctx, n):
    """The nilpotent Jordan block with ones above the diagonal."""
    return Mat(ctx, [[ctx.one if j == i + 1 else ctx.zero for j in range(n)]
                     for i in range(n)])


# matrices whose relation matrix has entries above the diagonal: the
# upper-shift Jordan blocks (n chains, n - 1 units above), a 2 x 2
# R = [[t^2, 2t], [0, t]] over GF(3), and R = [[t+1, 0, 1], [0, t, 1],
# [0, 0, t]] over GF(2), where a pivot row keeps an entry the pivot does not
# divide once its column is clear
UPPER_SHIFTS = [
    _upper_shift(ORACLE_CONTEXTS[i], n)
    for i in (0, 1, 4, 6, 7)  # GF(2), GF(3), GF(4), Q, GF(2)(s)
    for n in (2, 3, 6)
]
NONUNIT_ABOVE = Mat.from_ints(ORACLE_CONTEXTS[1], [[0, 0, 0], [0, 0, 0], [1, 1, 0]])
ROW_REMAINDER = Mat.from_ints(ORACLE_CONTEXTS[0], [[1, 0, 1], [0, 0, 1], [0, 0, 0]])


def test_example_shapes_have_entries_above_the_diagonal():
    for M in UPPER_SHIFTS:
        diag, above = _relation_matrix(M)
        assert len(diag) == M.rows
        assert sorted(above) == [(i, i + 1) for i in range(M.rows - 1)]
        assert all(len(h) == 1 for h in above.values())
    assert _relation_matrix(NONUNIT_ABOVE) == ([(0, 0, 1), (0, 1)], {(0, 1): (0, 2)})
    assert _relation_matrix(ROW_REMAINDER) == (
        [(1, 1), (0, 1), (0, 1)], {(0, 2): (1,), (1, 2): (1,)}
    )


def _with_examples(test):
    for M in UPPER_SHIFTS + [NONUNIT_ABOVE, ROW_REMAINDER]:
        test = example(M=M)(test)
    return test


@_with_examples
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


# ----------------------------------------------------------------------
# the fraction-free chains over Q and GF(p)(s) against field arithmetic
# ----------------------------------------------------------------------

KRYLOV_CONTEXTS = [field_make("Q"), field_make("GF(2)(s)"), field_make("GF(3)(s)")]


def _krylov_scalars(ctx):
    """Q: small fractions and integers near 10^12; GF(p)(s): quotients of
    polynomials of degree <= 2 by monic ones of degree <= 1."""
    if ctx.kind == "rationals":
        return st.one_of(
            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
            st.integers(-3, 3).map(lambda c: Fraction(10 ** 12 + c)),
        )
    coeff = st.integers(min_value=0, max_value=ctx.p - 1)
    return st.builds(
        lambda num, den: ctx.from_polys(num, den + [1]),
        st.lists(coeff, max_size=3),
        st.lists(coeff, max_size=1),
    )


@st.composite
def krylov_matrices(draw):
    ctx = draw(st.sampled_from(KRYLOV_CONTEXTS))
    scalar = _krylov_scalars(ctx)
    shape = draw(st.sampled_from(["zero", "scalar", "nilpotent", "companions"]))
    n = draw(st.integers(min_value=1, max_value=6))
    if shape == "zero":
        return Mat.zeros(ctx, n)
    if shape == "scalar":
        return Mat.identity(ctx, n).scale(draw(scalar))
    if shape == "nilpotent":
        # strictly upper triangular: the chain of e_0 hits 0 at once
        return Mat(ctx, [
            [draw(scalar) if j > i else ctx.zero for j in range(n)] for i in range(n)
        ])
    polys = draw(st.lists(
        st.lists(scalar, min_size=1, max_size=3), min_size=1, max_size=3
    ))
    while sum(map(len, polys)) > 6:
        polys.pop()
    D = direct_sum(*(companion(Poly(ctx, tuple(cs) + (ctx.one,))) for cs in polys))
    if D.rows == 1:
        return D
    pairs = st.tuples(
        st.integers(min_value=0, max_value=D.rows - 1),
        st.integers(min_value=0, max_value=D.rows - 1),
    ).filter(lambda ij: ij[0] != ij[1])
    ops = draw(st.lists(st.tuples(pairs, scalar), max_size=D.rows))
    return _conjugate(D, [(i, j, c) for (i, j), c in ops])


Q_FIELD, F2S_FIELD = KRYLOV_CONTEXTS[0], KRYLOV_CONTEXTS[1]


@example(M=Mat.zeros(Q_FIELD, 3))
@example(M=Mat.zeros(F2S_FIELD, 2))
@example(M=_upper_shift(Q_FIELD, 3))
@example(M=_upper_shift(F2S_FIELD, 4))
@example(M=Mat(Q_FIELD, [[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(0)]]))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(M=krylov_matrices())
def test_fraction_free_relation_matrix_matches_field_arithmetic(M):
    assert _relation_matrix(M) == field_relation_matrix(M)


def _dense_ratfunc(n: int, seed: int) -> Mat:
    """n x n over GF(2)(s), every entry drawn from 0, 1, s, s + 1."""
    rng = random.Random(seed)
    return Mat(F2S_FIELD, [
        [F2S_FIELD.from_polys([rng.randrange(2), rng.randrange(2)]) for _ in range(n)]
        for _ in range(n)
    ])


def test_dense_ratfunc_n20_answers():
    # the field-arithmetic chains raise DegreeBoundExceeded on this matrix
    M = _dense_ratfunc(20, seed=20)
    factors = invariant_factors(M).factors
    assert [f.degree for f in factors] == [20]
    assert mat_poly_eval(factors[-1], M).is_zero


def test_integral_degree_cap_raises_quickly():
    # the smallest shape that trips the cap: clearing the denominator s + 1
    # lifts the entry s^256 to degree 257
    F = F2S_FIELD
    M = Mat(F, [
        [F.from_polys([0] * 256 + [1]), F.zero],
        [F.from_polys([1], [1, 1]), F.zero],
    ])
    start = time.perf_counter()
    with pytest.raises(DegreeBoundExceeded):
        invariant_factors(M)
    assert time.perf_counter() - start < 2


# ----------------------------------------------------------------------
# generic products and Horner steps against one inner product per entry
# ----------------------------------------------------------------------

KERNEL_CONTEXTS = [
    field_make("Q"),
    F4,
    field_make("GF(27)|t^3+2*t+1"),
    field_make("GF(2)(s)"),
    field_make(f"GF({2**61 - 1})"),  # too wide for int64: the generic branch
    field_make("GF(9)|t^2+1"),
    field_make("GF(32)|t^5+t^2+1"),
    # 14 (p-1)^2 < 2^62: products of inner size 6 and Horner at n = 6 are
    # lifted to int64 with sums just under the bound
    field_make("GF(573939143^2)|t^2+1"),
    field_make(f"GF({2**31 - 1}^2)|t^2+1"),  # 2 (p-1)^2 > 2^62: generic
]


def _random_scalar(ctx, rng):
    if ctx.kind == "rationals":
        return ctx.from_int(rng.randint(-9, 9)) / rng.randint(1, 4)
    if ctx.kind == "extension":
        return tuple(rng.randrange(ctx.p) for _ in range(ctx.k))
    if ctx.kind == "ratfunc":
        den = [rng.randrange(2) for _ in range(rng.randint(0, 2))] + [1]
        return ctx.from_polys([rng.randrange(2) for _ in range(3)], den)
    return rng.randrange(ctx.p)


def _random_mat(ctx, rng, m, n, density):
    return Mat(ctx, [
        [_random_scalar(ctx, rng) if rng.random() < density else ctx.zero
         for _ in range(n)]
        for _ in range(m)
    ], cols=n)


def _kernel_shapes(ctx, rng):
    """(A, B) pairs: rectangular, empty, all-zero, identity, dense, sparse."""
    dense = _random_mat(ctx, rng, 5, 5, 1.0)
    return [
        (_random_mat(ctx, rng, 3, 5, 0.7), _random_mat(ctx, rng, 5, 2, 0.7)),
        (_random_mat(ctx, rng, 0, 3, 1.0), _random_mat(ctx, rng, 3, 4, 1.0)),
        (_random_mat(ctx, rng, 3, 0, 1.0), _random_mat(ctx, rng, 0, 4, 1.0)),
        (_random_mat(ctx, rng, 3, 4, 1.0), _random_mat(ctx, rng, 4, 0, 1.0)),
        (Mat.zeros(ctx, 3, 5), dense),
        (Mat.identity(ctx, 5), dense),
        (dense, Mat.identity(ctx, 5)),
        (dense, _random_mat(ctx, rng, 5, 5, 1.0)),
        (_random_mat(ctx, rng, 6, 6, 0.2), _random_mat(ctx, rng, 6, 6, 0.2)),
    ]


def _same_entries(got: Mat, want):
    """Equal entry for entry, by == and by type."""
    assert [list(row) for row in got.entries] == want
    assert [[type(e) for e in row] for row in got.entries] == [
        [type(e) for e in row] for row in want
    ]


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=repr)
def test_generic_product_matches_inner_products(ctx):
    rng = random.Random(f"product:{ctx!r}")
    for A, B in _kernel_shapes(ctx, rng):
        P = A @ B
        assert (P.rows, P.cols) == (A.rows, B.cols)
        _same_entries(P, product(ctx, A.entries, B.entries, B.cols))


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=repr)
def test_generic_horner_matches_inner_products(ctx):
    rng = random.Random(f"horner:{ctx!r}")
    squares = [
        Mat.zeros(ctx, 0),
        Mat.zeros(ctx, 3),
        Mat.identity(ctx, 4),
        _random_mat(ctx, rng, 5, 5, 1.0),
        _random_mat(ctx, rng, 6, 6, 0.2),
    ]
    for M in squares:
        for deg in (-1, 0, 1, 3):
            f = Poly(ctx, [_random_scalar(ctx, rng) for _ in range(deg)]
                     + [ctx.one] * (deg >= 0))
            _same_entries(mat_poly_eval(f, M), poly_eval(ctx, f, M.entries))


@pytest.mark.parametrize("spec, lifted", [
    ("GF(573939143^2)|t^2+1", True),
    # 7 (p-1)^2 < 2^62 < 12 (p-1)^2: only the k-fold count goes generic
    ("GF(700000031^2)|t^2+1", False),
    (f"GF({2**31 - 1}^2)|t^2+1", False),
])
def test_lift_boundary_picks_the_branch(spec, lifted, monkeypatch):
    ctx = field_make(spec)
    generic = []
    sparse = sympdiff.linalg._sparse_product

    def counted(*args):
        generic.append(1)
        return sparse(*args)

    monkeypatch.setattr(sympdiff.linalg, "_sparse_product", counted)
    rng = random.Random(spec)
    M = _random_mat(ctx, rng, 6, 6, 1.0)
    M @ M
    mat_poly_eval(Poly(ctx, [ctx.one] * 4), M)
    assert len(generic) == (0 if lifted else 1 + 4)
    # the Krylov step on the lift, in int64 or on Python ints
    assert _relation_matrix(M) == field_relation_matrix(M)


LIFT_CONTEXTS = [
    field_make("GF(3)"),
    F4,
    field_make("GF(9)|t^2+1"),
    field_make("GF(27)|t^3+2*t+1"),
    field_make("GF(32)|t^5+t^2+1"),
    field_make("GF(5)|t+1"),  # a degree-1 extension: 1-tuple entries
    field_make("GF(573939143^2)|t^2+1"),
]


@pytest.mark.parametrize("ctx", LIFT_CONTEXTS, ids=repr)
def test_lift_is_an_injective_ring_map(ctx):
    rng = random.Random(f"lift:{ctx!r}")
    for A, B in _kernel_shapes(ctx, rng):
        for X in (A, B):
            assert _to_np(X).shape == (X.rows * ctx.k, X.cols * ctx.k)
            assert Mat(ctx, _unlift(ctx, _to_np(X)), cols=X.cols) == X
        AB = Mat(ctx, product(ctx, A.entries, B.entries, B.cols), cols=B.cols)
        assert ((_to_np(A) @ _to_np(B)) % ctx.p == _to_np(AB)).all()


@pytest.mark.parametrize("ctx", LIFT_CONTEXTS, ids=repr)
def test_numpy_born_matrices_are_read_only(ctx):
    rng = random.Random(f"frozen:{ctx!r}")
    M = _random_mat(ctx, rng, 4, 4, 1.0)
    before = M.entries
    for born in (M @ M, mat_poly_eval(Poly(ctx, [ctx.one] * 3), M)):
        for arr in (born._arr, _to_np(M)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1
    assert M.entries == before


# ----------------------------------------------------------------------
# elimination and entrywise ops against the every-entry reference
# ----------------------------------------------------------------------

RREF_CONTEXTS = [
    field_make("Q"),
    field_make("GF(3)"),
    field_make("GF(10000019)"),
    F4,
    field_make("GF(27)|t^3+2*t+1"),
    field_make("GF(2)(s)"),
]


def _rref_cases(ctx, rng):
    """Dense and <= 20%-nonzero matrices: square, singular, rectangular;
    then the empty shapes 0 x 0, 3 x 0 and 0 x 3."""
    out = [Mat.zeros(ctx, 3, 4), Mat.identity(ctx, 4)]
    for density in (1.0, 0.2):
        out += [
            _random_mat(ctx, rng, 6, 6, density),
            _random_mat(ctx, rng, 4, 7, density),
            _random_mat(ctx, rng, 7, 4, density),
        ]
        # singular: row 4 a multiple of row 0 plus row 1
        rows = [list(r) for r in _random_mat(ctx, rng, 6, 6, density).entries]
        c = _random_scalar(ctx, rng)
        rows[4] = [ctx.add(ctx.mul(c, x), y) for x, y in zip(rows[0], rows[1])]
        out.append(Mat(ctx, rows))
    return out + [Mat.zeros(ctx, m, n) for m, n in ((0, 0), (3, 0), (0, 3))]


def _alternating_cases(ctx, rng, cases):
    """A - A^T with its diagonal zeroed (alternating in every
    characteristic) for each square case, and copies broken at one entry."""
    out = []
    for A in cases:
        if A.is_square and A.rows:
            n = A.rows
            S = A - A.transpose()
            alt = Mat(ctx, [[ctx.zero if i == j else S[i, j] for j in range(n)]
                            for i in range(n)])
            out.append(alt)
            # one nonzero with a zero mirror, above or below; a diagonal one
            flips = ((0, n - 1, n - 1, 0), (n - 1, 0, 0, n - 1), (1, 1, 1, 1))
            for i, j, k, l in flips:
                bad = [list(r) for r in alt.entries]
                bad[k][l], bad[i][j] = ctx.zero, ctx.one
                out.append(Mat(ctx, bad))
    return out


@pytest.mark.parametrize("ctx", RREF_CONTEXTS, ids=repr)
def test_elimination_matches_dense_reference(ctx):
    rng = random.Random(f"rref:{ctx!r}")
    for M in _rref_cases(ctx, rng):
        rows, pivots = M._rref()
        want_rows, want_pivots = dense_rref(M)
        assert pivots == want_pivots
        _same_entries(Mat(ctx, rows, cols=M.cols), want_rows)
        assert M.rank() == dense_rank(M)
        _same_entries(M.kernel_basis(), dense_kernel_basis(M))
        if M.is_square:
            want = dense_inverse(M)
            if want is None:
                with pytest.raises(SingularMatrix, match="^matrix is not invertible$"):
                    M.inverse()
            else:
                _same_entries(M.inverse(), want)
        X = _random_mat(ctx, rng, M.cols, 2, 0.5)
        for rhs in (M @ X, _random_mat(ctx, rng, M.rows, 2, 0.5)):
            want = dense_solve(M, rhs)
            if want is None:
                with pytest.raises(SingularMatrix, match="^inconsistent linear system$"):
                    M.solve(rhs)
            else:
                _same_entries(M.solve(rhs), want)


@pytest.mark.parametrize("ctx", RREF_CONTEXTS, ids=repr)
def test_solve_with_no_unknowns_keeps_the_rhs_width(ctx):
    X = Mat.zeros(ctx, 3, 0).solve(Mat.zeros(ctx, 3, 2))
    assert (X.rows, X.cols) == (0, 2)


@pytest.mark.parametrize("ctx", RREF_CONTEXTS, ids=repr)
def test_entrywise_ops_match_dense_reference(ctx):
    rng = random.Random(f"entrywise:{ctx!r}")
    cases = _rref_cases(ctx, rng)
    for A in cases:
        B = _random_mat(ctx, rng, A.rows, A.cols, rng.choice((1.0, 0.2)))
        _same_entries(A + B, dense_entrywise(ctx.add, A, B))
        _same_entries(A - B, dense_entrywise(ctx.sub, A, B))
        _same_entries(-A, dense_entrywise(ctx.neg, A))
        for c in (_random_scalar(ctx, rng), ctx.zero, ctx.one):
            _same_entries(A.scale(c), dense_entrywise(lambda x: ctx.mul(x, c), A))
        assert A.is_zero == all(x == ctx.zero for row in A.entries for x in row)
    alternating_cases = _alternating_cases(ctx, rng, cases)
    assert any(map(is_alternating, alternating_cases))
    for M in alternating_cases + [A for A in cases if A.is_square]:
        assert is_alternating(M) == alternating(M.ctx, M.entries)


# ----------------------------------------------------------------------
# numpy-born matrices: entries built on first read, ops from the lift
# ----------------------------------------------------------------------

ARRAY_BORN_CONTEXTS = [
    field_make("GF(2)"),
    field_make("GF(3)"),
    field_make("GF(5)"),
    F4,
    field_make("GF(9)|t^2+1"),
    field_make("GF(27)|t^3+2*t+1"),
    # 2 (p-1)^2 < 2^62: scale's k-fold sums at the edge of int64
    field_make("GF(573939143^2)|t^2+1"),
]


def _entries_built(M: Mat) -> bool:
    """Whether M's entry tuples exist yet (read from the slot, not built)."""
    try:
        Mat.entries.__get__(M)
    except AttributeError:
        return False
    return True


def _plain(X: Mat) -> Mat:
    """An entry-built copy of X that carries no lift."""
    return Mat(X.ctx, X.entries, cols=X.cols)


def _born(X: Mat) -> Mat:
    """X born from numpy the way products are: its lift, and no entries."""
    M = _from_np(X.ctx, _to_np(_plain(X)))
    assert not _entries_built(M) and (M.rows, M.cols) == (X.rows, X.cols)
    return M


_BINARY_OPS = [Mat.__add__, Mat.__sub__, Mat.__eq__, Mat.__ne__,
               lambda a, b: Mat.block(a.ctx, [[a, b], [b, a]]),
               lambda a, b: direct_sum(a, b, a)]
_UNARY_OPS = [Mat.__neg__, Mat.transpose, Mat.rank, hash,
              lambda a: a.is_zero, lambda a: pickle.loads(pickle.dumps(a))]


def _same_answer(got, want):
    """Equal answers; Mats equal entry for entry and by type, lifts frozen."""
    if not isinstance(want, Mat):
        assert got == want
        return
    assert (got.rows, got.cols) == (want.rows, want.cols)
    _same_entries(got, [list(row) for row in want.entries])
    if got._arr is not None:
        assert not got._arr.flags.writeable


@pytest.mark.parametrize("ctx", ARRAY_BORN_CONTEXTS, ids=repr)
def test_array_born_matches_entry_built(ctx):
    rng = random.Random(f"born:{ctx!r}")
    for m, n in ((3, 5), (4, 4), (0, 3), (3, 0), (0, 0)):
        for density in (1.0, 0.3, 0.0):
            X, Y = (_random_mat(ctx, rng, m, n, density) for _ in range(2))
            mats = [X, Y]
            if m and n:  # X but for one entry
                rows = [list(r) for r in X.entries]
                rows[-1][-1] = ctx.add(rows[-1][-1], ctx.one)
                mats.append(Mat(ctx, rows))
            if m == n:  # X - X^T with a zero diagonal: alternating
                S = X - X.transpose()
                mats.append(Mat(ctx, [[ctx.zero if i == j else S[i, j]
                                       for j in range(n)] for i in range(n)]))
            for a in mats:
                # the reference runs on entry-built copies, which stay unlifted
                ref_a = _plain(a)
                unary = _UNARY_OPS + [lambda M, c=c: M.scale(c) for c in
                                      (_random_scalar(ctx, rng), ctx.zero, ctx.one)]
                if m == n:
                    unary.append(is_alternating)
                for op in unary:
                    _same_answer(op(_born(a)), op(ref_a))
                for b in mats:
                    ref_b = _plain(b)
                    for op in _BINARY_OPS:
                        want = op(ref_a, ref_b)
                        for pair in ((_born(a), _born(b)), (_born(a), _plain(b)),
                                     (_plain(a), _born(b))):
                            _same_answer(op(*pair), want)
                    assert ref_b._arr is None
                assert ref_a._arr is None
    # the first read builds the tuples once; later reads return them
    A = _born(_random_mat(ctx, rng, 3, 4, 1.0))
    first = A.entries
    assert _entries_built(A) and A.entries is first
    assert not A._arr.flags.writeable
    assert A == _plain(A) and hash(A) == hash(_plain(A))


def test_empty_matrices_differ_by_column_count(F3):
    a, b = Mat.zeros(F3, 0, 3), Mat.zeros(F3, 0, 5)
    assert a != b and hash(a) != hash(b)
    born = [_from_np(F3, np.zeros((0, n), np.int64)) for n in (3, 5)]
    assert born[0] == a and born[1] == b and born[0] != born[1]
    assert hash(born[0]) == hash(a) != hash(born[1])
    assert Mat.zeros(F3, 3, 0).transpose() == a


# ----------------------------------------------------------------------
# Kronecker products against the block definition
# ----------------------------------------------------------------------

KRON_CONTEXTS = [
    field_make("Q"),
    field_make("GF(3)"),
    F4,
    field_make("GF(27)|t^3+2*t+1"),
    field_make("GF(2)(s)"),
]


@pytest.mark.parametrize("ctx", KRON_CONTEXTS, ids=repr)
def test_kron_is_the_block_matrix(ctx):
    rng = random.Random(22)
    for (m, n), (p, q) in [
        ((1, 1), (1, 1)), ((2, 3), (3, 2)), ((3, 3), (2, 2)),
        ((0, 3), (2, 2)), ((2, 0), (2, 2)), ((2, 2), (0, 3)), ((2, 2), (3, 0)),
    ]:
        X = _random_mat(ctx, rng, m, n, 0.6)
        Y = _random_mat(ctx, rng, p, q, 0.7)
        K = kron(X, Y)
        assert (K.rows, K.cols) == (m * p, n * q)
        # block (i, j) is X[i][j] * Y, entry by entry and by type
        _same_entries(K, [
            [ctx.mul(X[i, j], Y[a, b]) for j in range(n) for b in range(q)]
            for i in range(m) for a in range(p)
        ])
    Y = Mat.identity(ctx, 2)
    assert kron(Mat.identity(ctx, 3), Y) == Mat.identity(ctx, 6)
    assert kron(Mat.zeros(ctx, 2, 3), Y) == Mat.zeros(ctx, 4, 6)
    with pytest.raises(MixedFieldContexts):
        kron(Y, Mat.identity(field_make("GF(5)"), 2))


def test_kron_of_array_born_operands(F3):
    rng = random.Random(5)
    for ctx in (F3, F4):
        X, Y = _random_mat(ctx, rng, 2, 3, 1.0), _random_mat(ctx, rng, 3, 2, 1.0)
        assert kron(_born(X), _born(Y)) == kron(X, Y)
