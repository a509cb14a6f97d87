"""Symplectic pairs: validity, standard extensions, isometry, symmetrizers."""

import pytest

import sympdiff.linalg
import sympdiff.sympform
from sympdiff.errors import InvalidPair, MixedFieldContexts
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make
from sympdiff.linalg import Mat, companion, direct_sum, invariant_factors
from sympdiff.poly import Poly
from sympdiff.sympform import (
    SymplecticPair,
    frobenius_symmetrizer,
    is_alternating,
    isometry_test,
    require_valid,
    standard_gram,
    symplectic_extension,
    validate_pair,
)

from subspace_reference import NotStable, induced_pair


def test_alternating_is_not_just_skew_in_char2(F2):
    # symmetric with zero diagonal is skew in characteristic 2, but a nonzero
    # diagonal must still be rejected
    M = Mat.from_ints(F2, [[0, 1], [1, 0]])
    assert is_alternating(M)
    N = Mat.from_ints(F2, [[1, 1], [1, 0]])
    assert not is_alternating(N)  # N == N^T == -N^T, but diag != 0


def test_standard_gram(F5):
    G = standard_gram(F5, 2)
    assert G.rows == 4
    assert is_alternating(G)
    assert G.is_invertible()
    assert G[0, 2] == F5.neg(F5.one) and G[2, 0] == F5.one


def test_symplectic_extension_is_valid_with_doubled_factors(F3):
    v = companion(parse_poly(F3, "t^2+t+2"))
    P = symplectic_extension(v)
    rep = validate_pair(P.B, P.U)
    assert rep.ok
    assert rep.invariant_factors.doubled_halves() == invariant_factors(v).factors


def test_validate_pair_failure_modes(F5):
    B2 = standard_gram(F5, 1)

    # singular Gram matrix
    rep = validate_pair(Mat.zeros(F5, 2), Mat.zeros(F5, 2))
    assert not rep.nondegenerate and not rep.ok
    assert "singular" in " ".join(rep.failures())

    # non-alternating Gram matrix
    rep = validate_pair(Mat.identity(F5, 2), Mat.zeros(F5, 2))
    assert not rep.alternating

    # B*U not alternating
    U = Mat.from_ints(F5, [[0, 0], [0, 1]])
    rep = validate_pair(B2, U)
    assert rep.alternating and rep.nondegenerate and not rep.b_alternating
    with pytest.raises(InvalidPair):
        require_valid(B2, U)

    # with this Gram matrix, b-alternating forces a scalar endomorphism,
    # whose invariant factors are automatically doubled
    for a in range(5):
        Ua = Mat.identity(F5, 2).scale(F5.from_int(a))
        assert is_alternating(B2 @ Ua)
        assert validate_pair(B2, Ua).ok


def test_validate_pair_over_two_fields_is_a_field_mismatch(F3, F5):
    # the fields are compared before the shapes, as in decide_pair
    with pytest.raises(MixedFieldContexts):
        validate_pair(Mat.zeros(F3, 2), Mat.zeros(F5, 2))
    with pytest.raises(MixedFieldContexts):
        validate_pair(Mat.zeros(F3, 2), Mat.zeros(F5, 4))


def test_isometry_test_similarity(F3, F5):
    r = parse_poly(F5, "t^2+2")
    v = companion(r)
    P1 = symplectic_extension(v)
    # conjugated copy of v: same invariant factors, so isometric pairs
    T = Mat.from_ints(F5, [[1, 1], [0, 1]])
    P2 = symplectic_extension(T @ v @ T.inverse())
    assert isometry_test(P1, P2)
    P3 = symplectic_extension(companion(parse_poly(F5, "t^2+1")))
    assert not isometry_test(P1, P3)
    assert not isometry_test(P1, symplectic_extension(companion(parse_poly(F5, "t+1"))))
    with pytest.raises(MixedFieldContexts):
        isometry_test(P1, symplectic_extension(companion(parse_poly(F3, "t^2+2"))))


def test_isometry_test_computes_invariant_factors_once_per_pair(F5, monkeypatch):
    calls = []

    def counted(M):
        calls.append(M.rows)
        return invariant_factors(M)

    for module in (sympdiff.sympform, sympdiff.linalg):
        monkeypatch.setattr(module, "invariant_factors", counted)
    P1 = symplectic_extension(companion(parse_poly(F5, "t^2+2")))
    P2 = symplectic_extension(companion(parse_poly(F5, "t^2+3")))
    assert not isometry_test(P1, P2)
    assert calls == [4, 4]


def test_frobenius_symmetrizer_properties(F2, F5, Q, F2s):
    F4 = field_make("GF(4)|t^2+t+1")
    g = (0, 1)  # a generator of GF(4)
    for ctx, r in [
        (F5, "t^3+2*t+1"),
        (F5, "t^2+2"),
        (F5, "t+3"),
        (Q, "t^4-2"),
        (Q, "t-1/2"),
        (Q, "t^6-3*t^4+t-5"),
        (F2, "t^2+t+1"),
        (F4, Poly(F4, (F4.one, g, F4.zero, F4.one))),  # t^3 + g*t + 1
        (F4, Poly(F4, (g, F4.one))),  # t + g
        (F2s, "t^2+s*t+1"),
        (F2s, "t^3+(s+1)/s*t^2+s"),
    ]:
        if isinstance(r, str):
            r = parse_poly(ctx, r)
        s = frobenius_symmetrizer(r)
        assert s.is_invertible()
        assert s == s.transpose()
        sc = s @ companion(r)
        assert sc == sc.transpose()


def test_induced_pair_on_nondegenerate_subspace(F5):
    v1 = companion(parse_poly(F5, "t^2+2"))
    v2 = companion(parse_poly(F5, "t^2+3"))
    P = symplectic_extension(direct_sum(v1, v2))
    # primal/dual coordinates of the first summand: rows 0,1 and 4,5
    cols = []
    for j in (0, 1, 4, 5):
        cols.append([F5.one if i == j else F5.zero for i in range(8)])
    W = Mat(F5, list(map(list, zip(*cols))))
    sub = induced_pair(P, W)
    assert sub.dimension == 4
    assert validate_pair(sub.B, sub.U).ok
    assert isometry_test(sub, symplectic_extension(v1))


def test_induced_pair_with_radical(F5):
    # U-stable Lagrangian subspace: the induced pair is trivial
    v = companion(parse_poly(F5, "t^2+2"))
    P = symplectic_extension(v)
    cols = []
    for j in (0, 1):  # the primal summand: totally isotropic, v-stable
        cols.append([F5.one if i == j else F5.zero for i in range(4)])
    W = Mat(F5, list(map(list, zip(*cols))))
    sub = induced_pair(P, W)
    assert sub.dimension == 0


def test_induced_pair_unstable_raises(F5):
    v = companion(parse_poly(F5, "t^2+2"))
    P = symplectic_extension(v)
    W = Mat.from_ints(F5, [[1], [0], [1], [0]])
    with pytest.raises(NotStable):
        induced_pair(P, W)
