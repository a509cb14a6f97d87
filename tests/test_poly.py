"""Polynomial arithmetic, the difference-root quartic, roots."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sympdiff.decide import pair_context
from sympdiff.errors import InvalidArgument, NotIrreducible, ParseError, WrongDegree
from sympdiff.exprparse import parse_poly
from sympdiff.fields import ExtensionField, field_make
from sympdiff.poly import (
    Poly,
    decompose_base_sigma,
    delta_of,
    fundamental_poly,
    irreducible_polys,
    is_irreducible,
    lambda_poly,
    monic_polys,
    poly_ops,
    roots_in_field,
    sigma_poly,
)


def gf5_poly(max_deg=4):
    return st.lists(
        st.integers(min_value=0, max_value=4), min_size=0, max_size=max_deg + 1
    ).map(lambda cs: Poly(field_make("GF(5)"), tuple(cs)))


@settings(max_examples=100, deadline=None)
@given(a=gf5_poly(), b=gf5_poly())
def test_divmod_law(a, b):
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=100, deadline=None)
@given(a=gf5_poly(3), b=gf5_poly(3), c=gf5_poly(3))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100, deadline=None)
@given(a=gf5_poly(3), q=gf5_poly(2), b=gf5_poly(3))
def test_submul_is_difference_with_product(a, q, b):
    ops = poly_ops(a.ctx)
    assert ops.submul(a.coeffs, q.coeffs, b.coeffs) == (a - q * b).coeffs


def test_submul_over_an_extension_field():
    ctx = field_make("GF(4)|t^2+t+1")
    elems = list(ctx.elements())
    rng = random.Random(5)
    ops = poly_ops(ctx)
    for _ in range(200):
        a, q, b = (
            Poly(ctx, [rng.choice(elems) for _ in range(rng.randint(0, 4))])
            for _ in range(3)
        )
        assert ops.submul(a.coeffs, q.coeffs, b.coeffs) == (a - q * b).coeffs


@settings(max_examples=100, deadline=None)
@given(a=gf5_poly(3), b=gf5_poly(3))
def test_gcd_divides_both(a, b):
    g = a.gcd(b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
        return
    assert (a % g).is_zero and (b % g).is_zero
    assert g.is_monic


def quadratics_over(ctx, consts):
    out = []
    for c1 in consts:
        for c0 in consts:
            out.append(Poly(ctx, (c0, c1, ctx.one)))
    return out


def test_fundamental_poly_matches_root_differences(Q, F5):
    # split quadratics: F must be exactly prod (t - (x_i - y_j))
    splits = {
        Q: ([(1, 2), (0, 3), (-1, -1)], [(0, 1), (2, 2), (-3, 5)]),
        F5: ([(1, 2), (0, 4), (3, 3)], [(0, 1), (2, 2), (4, 3)]),
    }
    for ctx, (p_splits, q_splits) in splits.items():
        t = Poly.t(ctx)

        def from_roots(rr):
            f = Poly.one(ctx)
            for r in rr:
                f = f * (t - Poly.constant(ctx, ctx.from_int(r)))
            return f

        for p_roots in p_splits:
            for q_roots in q_splits:
                p, q = from_roots(p_roots), from_roots(q_roots)
                F = fundamental_poly(p, q)
                expected = Poly.one(ctx)
                for x in p_roots:
                    for y in q_roots:
                        expected = expected * from_roots([x - y])
                assert F == expected


def test_fundamental_equals_lambda_of_sigma(F2, F3, F5, Q, F2s):
    # in characteristic 2 the x-coefficient delta - 2t of q(x - t) mod p
    # collapses to the constant delta
    F4 = field_make("GF(4)|t^2+t+1")
    s = parse_poly(F2s, "s").coefficient(0)
    consts = {ctx: [ctx.from_int(n) for n in range(-1, 2)] for ctx in (F2, F3, F5, Q)}
    consts[F4] = list(F4.elements())
    consts[F2s] = [F2s.zero, F2s.one, s, F2s.inv(s), F2s.add(s, F2s.one)]
    for ctx, cs in consts.items():
        for p in quadratics_over(ctx, cs):
            for q in quadratics_over(ctx, cs):
                F = fundamental_poly(p, q)
                lam = lambda_poly(p, q)
                sig = sigma_poly(ctx, delta_of(p, q))
                assert lam.compose(sig) == F


def test_resultant_vanishes_iff_common_root(F5):
    # Lambda(0) = F(0) = res(a, b)
    t = Poly.t(F5)
    a = (t - Poly.constant(F5, 2)) * (t - Poly.constant(F5, 3))
    b = (t - Poly.constant(F5, 3)) * (t - Poly.constant(F5, 4))
    c = (t - Poly.constant(F5, 1)) * (t - Poly.constant(F5, 4))
    assert F5.is_zero(lambda_poly(a, b).coefficient(0))
    assert not F5.is_zero(lambda_poly(a, c).coefficient(0))


def test_decompose_base_sigma_round_trip(F5):
    delta = F5.from_int(3)
    sig = sigma_poly(F5, delta)
    for coeffs in [(1,), (2, 1), (0, 3, 1), (4, 0, 2, 1)]:
        s = Poly(F5, coeffs)
        f = s.compose(sig)
        assert decompose_base_sigma(f, delta) == s
        if f.degree >= 1:
            assert decompose_base_sigma(f + Poly.t(F5), delta) is None


def _scan_roots(f):
    """Reference: every field element tested by evaluation, each root
    repeated by its multiplicity."""
    ctx = f.ctx
    out = []
    for x in ctx.elements():
        g, lin = f, Poly(ctx, (ctx.neg(x), ctx.one))
        while g.degree > 0 and ctx.is_zero(g.eval(x)):
            out.append(x)
            g = g // lin
    return sorted(out, key=ctx.sort_key)


def test_roots_in_field_double_root(Q, F3, F2, F2s):
    for ctx, text, root in [
        (Q, "t^2-4*t+4", Q.from_int(2)),
        (Q, "4*t^2+4*t+1", Fraction(-1, 2)),
        (F3, "t^2+t+1", 1),  # (t - 1)^2
        (F2, "t^2+1", 1),
        (F2s, "t^2+s^2", F2s.gen),
    ]:
        assert roots_in_field(parse_poly(ctx, text)) == [root, root]


def test_roots_via_sigma_repeated_roots(Q):
    # p = t^2, q = t^2 - 1: F = (t - 1)^2 (t + 1)^2, two distinct roots
    p, q = parse_poly(Q, "t^2"), parse_poly(Q, "t^2-1")
    F = fundamental_poly(p, q)
    assert F == parse_poly(Q, "(t^2-1)^2")
    assert pair_context(p, q).F_roots == (Q.from_int(-1), Q.from_int(1))
    # p = q = t^2: F = t^4, one root
    p = parse_poly(Q, "t^2")
    assert pair_context(p, p).F_roots == (Q.zero,)
    with pytest.raises(WrongDegree):  # quartics go through pair_context
        roots_in_field(F)


_SMALL_FIELDS = [
    "GF(2)", "GF(3)", "GF(4)|t^2+t+1", "GF(5)", "GF(9)|t^2+1", "GF(27)|t^3+2*t+1",
]


@pytest.mark.parametrize("spec", _SMALL_FIELDS)
def test_quadratic_roots_match_exhaustive_scan(spec):
    ctx = field_make(spec)
    for f in monic_polys(ctx, 2):
        assert roots_in_field(f) == _scan_roots(f), f


def _rand_ratfunc(ctx, rng):
    num = [rng.randrange(ctx.p) for _ in range(rng.randrange(4))]
    den = [rng.randrange(ctx.p) for _ in range(rng.randrange(3))] + [1]
    return ctx.from_polys(num, den)


def test_seeded_products_and_irreducibles(Q):
    rng = random.Random(4)
    big = 10**12
    draws = {
        "Q": lambda ctx: Fraction(rng.randrange(-big, big), rng.randrange(1, big)),
        "GF(3)(s)": lambda ctx: _rand_ratfunc(ctx, rng),
        "GF(2)(s)": lambda ctx: _rand_ratfunc(ctx, rng),
    }
    irreducible = {
        "Q": ["t^2-2", "t^2+1", "t^2-1000000000039", "3*t^2+t+5"],
        # s is not a square; t^2 + t + s and t^2 + s*t + 1 have no root and
        # t^2 + t + 1/s needs a square denominator
        "GF(3)(s)": ["t^2-s", "t^2-s^3-s-1", "t^2+(s^2+1)*t+s"],
        "GF(2)(s)": ["t^2+s", "t^2+t+s", "t^2+s*t+1", "s*t^2+s*t+1"],
    }
    for spec, draw in draws.items():
        ctx = field_make(spec)
        t = Poly.t(ctx)
        for _ in range(40):
            a, b = draw(ctx), draw(ctx)
            f = (t - Poly.constant(ctx, a)) * (t - Poly.constant(ctx, b))
            assert roots_in_field(f) == sorted([a, b], key=ctx.sort_key)
            lead = draw(ctx)
            if not ctx.is_zero(lead):
                assert roots_in_field(f.scale(lead)) == roots_in_field(f)
        for text in irreducible[spec]:
            assert roots_in_field(parse_poly(ctx, text)) == [], text


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(4)|t^2+t+1", "GF(5)"])
def test_roots_via_sigma_matches_scan_of_F(spec):
    ctx = field_make(spec)
    quadratics = list(monic_polys(ctx, 2))
    for p in quadratics:
        for q in quadratics:
            want = list(dict.fromkeys(_scan_roots(fundamental_poly(p, q))))
            assert list(pair_context(p, q).F_roots) == want


def test_roots_rational_fractions(Q):
    f = parse_poly(Q, "2*t^2-3*t+1")  # roots 1 and 1/2
    assert set(roots_in_field(f)) == {Q.from_int(1), Q.inv(Q.from_int(2))}


def test_roots_over_rational_functions(F2s):
    s = F2s.gen
    t = Poly.t(F2s)
    f = (t - Poly.constant(F2s, s)) * (
        t - Poly.constant(F2s, F2s.div(F2s.one, F2s.add(s, F2s.one)))
    )
    roots = roots_in_field(f)
    assert sorted(roots, key=F2s.sort_key) == sorted(
        [s, F2s.div(F2s.one, F2s.add(s, F2s.one))], key=F2s.sort_key
    )


def _shifts(p, q):
    """The z with q(t) = p(t + z) for irreducible p, q: the in-field roots
    of F = Lambda(sigma)."""
    return list(pair_context(p, q).F_roots)


def test_translate_shifts(F5, F2):
    p = parse_poly(F5, "t^2+t+1")
    assert _shifts(p, p.translate(F5.from_int(2))) == [F5.from_int(2)]
    assert _shifts(p, parse_poly(F5, "t^2+t+2")) == []
    # characteristic 2: t^2 + t + 1 is fixed by both shifts z = 0 and z = 1
    r = parse_poly(F2, "t^2+t+1")
    assert _shifts(r, r) == [0, 1]
    for ctx in (F5, F2):
        elems = list(ctx.elements())
        irr = [f for f in monic_polys(ctx, 2) if not roots_in_field(f)]
        for p in irr:
            for q in irr:
                assert _shifts(p, q) == [z for z in elems if p.translate(z) == q]


def test_quad_ext_roots_against_evaluation(F3, F5):
    # K = GF(p)[X]/(p(X)); the roots of Lambda are sigma(X - y) for the
    # roots y of q in K, and the in-field roots of F are the differences
    # x - y of roots that land in the base field
    for ctx in (F3, F5):
        irr = [f for f in monic_polys(ctx, 2) if not roots_in_field(f)]
        for p in irr:
            K = ExtensionField(ctx.p, 2, p.coeffs)
            X = (0, 1)
            X2 = K.sub(K.from_int(-p.coeffs[1]), X)  # the conjugate root

            def embed(c):
                return K.from_int(c)

            for q in irr:
                found = [
                    y for y in K.elements()
                    if K.add(K.mul(y, y), K.add(K.mul(embed(q.coeffs[1]), y),
                                                embed(q.coeffs[0]))) == K.zero
                ]
                assert len(found) == 2  # q splits in the unique quadratic extension
                delta = delta_of(p, q)

                def sigma(w):
                    return K.sub(K.mul(w, w), K.mul(embed(delta), w))

                want = sorted(sigma(K.sub(X, y)) for y in found)
                assert all(s[1] == 0 for s in want)  # Lambda splits over GF(p)
                got = sorted(embed(s) for s in roots_in_field(lambda_poly(p, q)))
                assert got == want, (p, q)
                diffs = {K.sub(x, y) for x in (X, X2) for y in found}
                in_base = sorted(d[0] for d in diffs if d[1] == 0)
                assert _shifts(p, q) == in_base, (p, q)


def test_quad_ext_roots_inseparable_ratfunc(F2s):
    # p = t^2 + s is irreducible and inseparable over GF(2)(s); its one root
    # r = sqrt(s) is double, so Lambda(p, p) = (t - sigma(r - r))^2 = t^2
    p = parse_poly(F2s, "t^2+s")
    Lam = lambda_poly(p, p)
    assert Lam == parse_poly(F2s, "t^2")
    assert roots_in_field(Lam) == [F2s.zero, F2s.zero]
    assert _shifts(p, p) == [F2s.zero]
    assert _shifts(p, parse_poly(F2s, "t^2+s+1")) == [F2s.one]


def test_irreducible_counts(F3):
    assert sum(1 for _ in irreducible_polys(F3, 1)) == 3
    assert sum(1 for f in irreducible_polys(F3, 2) if f.degree == 2) == 3
    assert sum(1 for f in irreducible_polys(F3, 3) if f.degree == 3) == 8


def test_is_irreducible_degree_bounds(Q):
    assert is_irreducible(parse_poly(Q, "t^2+1"))
    assert not is_irreducible(parse_poly(Q, "t^2-1"))
    assert is_irreducible(parse_poly(Q, "t^3-2"))
    with pytest.raises(NotIrreducible):
        is_irreducible(parse_poly(Q, "t^4+1"))


def test_is_irreducible_cubic_rule(Q, F2s):
    # cubics over Q: reducible exactly when a rational root exists
    assert not is_irreducible(parse_poly(Q, "t^3-8"))
    assert not is_irreducible(parse_poly(Q, "t^3-1/8"))
    assert not is_irreducible(parse_poly(Q, "(t-2/3)*(t^2+1)"))
    assert not is_irreducible(parse_poly(Q, "(t+1000000000039)*(t-7)*(t-1/2)"))
    assert is_irreducible(parse_poly(Q, "t^3-t-1"))
    assert is_irreducible(parse_poly(Q, "t^3+1000000000000000000*t+3"))
    # cubics over GF(p)(s) are trusted, as degree >= 4 is
    with pytest.raises(NotIrreducible):
        is_irreducible(parse_poly(F2s, "t^3+s"))


def test_parse_requires_explicit_multiplication(Q):
    with pytest.raises(ParseError):
        parse_poly(Q, "2t")


def test_parse_rejects_huge_powers_before_computing_them(Q, F3):
    start = time.monotonic()
    for ctx, text in [
        (Q, "t^100000000"),
        (Q, "2^100000000"),
        (F3, "(t^2+1)^600"),
        (F3, "t^2^1000"),
        (Q, "(t+2)^257"),
        (Q, "(2^0+2^0)^100000000"),
        (Q, "(t^0+t^0)^100000000"),
    ]:
        with pytest.raises(ParseError):
            parse_poly(ctx, text)
    assert time.monotonic() - start < 1.0
    assert parse_poly(F3, "t^256").degree == 256


@pytest.mark.parametrize("text", [
    "(t+2)^256*(t+2)^256",  # a product of degree 512
    "2^256^256^256",  # exponents 256 * 256 on one base
    "(2^256)^256",  # the same through parentheses
])
def test_parse_rejects_large_products_and_chained_powers(Q, text):
    start = time.monotonic()
    with pytest.raises(ParseError):
        parse_poly(Q, text)
    assert time.monotonic() - start < 1.0


def test_parse_keeps_chained_powers_within_the_cap(Q):
    assert parse_poly(Q, "(t+1)^16^16") == parse_poly(Q, "(t+1)^256")
    assert parse_poly(Q, "2^16^16") == parse_poly(Q, "2^256")
    assert parse_poly(Q, "(t+1)^128*(t-1)^128").degree == 256


def test_negative_power_is_invalid_argument(F3):
    with pytest.raises(InvalidArgument):
        Poly.t(F3) ** -1


def test_poly_str_round_trips_through_parser(F5, Q):
    for ctx in (F5, Q):
        for coeffs in [(1, 2, 1), (0, 0, 3), (4,), (0, 1)]:
            f = Poly(ctx, tuple(ctx.from_int(c) for c in coeffs))
            assert parse_poly(ctx, str(f)) == f
