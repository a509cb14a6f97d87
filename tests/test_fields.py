"""Field contexts: arithmetic laws, canonical forms, spec round-trips."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sympdiff.errors import (
    DegreeBoundExceeded,
    DivisionByZero,
    FieldSpecError,
    NonPrimeCharacteristic,
    ReducibleModulus,
)
from sympdiff.exprparse import parse_scalar
from sympdiff.fields import (
    RATFUNC_MAX_DEGREE,
    ExtensionField,
    PrimeField,
    field_make,
    field_spec,
)


def gf7_elems():
    return st.integers(min_value=0, max_value=6)


@settings(max_examples=50, deadline=None)
@given(a=gf7_elems(), b=gf7_elems())
def test_prime_field_matches_int_arithmetic(a, b):
    ctx = field_make("GF(7)")
    assert ctx.add(a, b) == (a + b) % 7
    assert ctx.sub(a, b) == (a - b) % 7
    assert ctx.mul(a, b) == (a * b) % 7
    if b:
        assert ctx.mul(ctx.inv(b), b) == 1


def test_prime_field_division_by_zero():
    ctx = field_make("GF(5)")
    with pytest.raises(DivisionByZero):
        ctx.inv(0)


def test_rationals_are_fractions(Q):
    a = Q.from_int(3)
    b = parse_scalar(Q, "-3/4")
    assert b == Fraction(-3, 4)
    assert Q.mul(a, b) == Fraction(-9, 4)
    assert Q.inv(b) == Fraction(-4, 3)


def test_extension_field_structure():
    ctx = field_make("GF(4)|t^2+t+1")
    elems = list(ctx.elements())
    assert len(elems) == 4 and ctx.order == 4
    g = (0, 1)
    # the multiplicative group has order 3
    g2 = ctx.mul(g, g)
    assert ctx.mul(g2, g) == ctx.one
    # Frobenius x -> x^2 is additive over characteristic 2
    for a in elems:
        for b in elems:
            lhs = ctx.mul(ctx.add(a, b), ctx.add(a, b))
            rhs = ctx.add(ctx.mul(a, a), ctx.mul(b, b))
            assert lhs == rhs


def test_extension_field_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        field_make("GF(4)|t^2+1")  # (t+1)^2 over GF(2)


def ratfunc_elems(ctx):
    # small rational functions over GF(2)(s), built from the generator
    s = ctx.gen
    one = ctx.one
    pool = [ctx.zero, one, s, ctx.add(s, one), ctx.mul(s, s)]
    pool.append(ctx.div(one, ctx.add(ctx.mul(s, s), s)))  # 1/(s^2+s)
    return pool


def test_ratfunc_canonical_form(F2s):
    a = parse_scalar(F2s, "(s^2+s)/(s+1)")  # reduces to s
    assert a == F2s.gen
    num, den = a
    assert den == (1,)  # monic denominator after reduction


def test_ratfunc_degree_cap(F2s):
    s_power = lambda k: (0,) * k + (1,)
    top = F2s.from_polys(s_power(RATFUNC_MAX_DEGREE))
    assert F2s.mul(F2s.from_polys(s_power(RATFUNC_MAX_DEGREE - 1)), F2s.gen) == top
    with pytest.raises(DegreeBoundExceeded, match=f"exceeds cap {RATFUNC_MAX_DEGREE}"):
        F2s.mul(top, F2s.gen)
    with pytest.raises(DegreeBoundExceeded):  # the denominator is capped too
        F2s.from_polys((1,), s_power(RATFUNC_MAX_DEGREE + 1))


def test_ratfunc_field_laws(F2s):
    pool = ratfunc_elems(F2s)
    for a in pool:
        for b in pool:
            assert F2s.add(a, b) == F2s.add(b, a)
            assert F2s.mul(a, b) == F2s.mul(b, a)
            if b != F2s.zero:
                assert F2s.mul(F2s.div(a, b), b) == a
        for c in pool:
            lhs = F2s.mul(a, F2s.add(b, c))
            rhs = F2s.add(F2s.mul(a, b), F2s.mul(a, c))
            assert lhs == rhs


def test_field_spec_round_trip():
    for spec in ("Q", "GF(2)", "GF(3)", "GF(5)", "GF(2)(s)", "GF(4)|t^2+t+1"):
        ctx = field_make(spec)
        assert field_make(field_spec(ctx)) == ctx


def test_field_make_rejections():
    with pytest.raises(FieldSpecError, match="6 is neither a prime nor a prime power"):
        field_make("GF(6)")
    with pytest.raises(FieldSpecError, match="need an explicit modulus"):
        field_make("GF(9)")
    with pytest.raises(FieldSpecError):
        field_make("R")
    with pytest.raises(NonPrimeCharacteristic):
        field_make("GF(4^2)|t^2+t+1")


def test_large_prime_fields_build_quickly():
    m61 = 2**61 - 1
    start = time.monotonic()
    assert isinstance(field_make(f"GF({m61})"), PrimeField)
    # -1 is a non-residue mod 2^61 - 1 (it is 3 mod 4), so t^2+1 is irreducible
    ext = field_make(f"GF({m61 ** 2})|t^2+1")
    assert isinstance(ext, ExtensionField) and (ext.p, ext.k) == (m61, 2)
    assert time.monotonic() - start < 1.0


def test_strong_pseudoprime_is_rejected():
    # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(FieldSpecError):
        field_make("GF(3215031751)")


def test_elements_enumeration_is_deterministic(F3):
    assert list(F3.elements()) == list(F3.elements())
    assert sorted(F3.elements(), key=F3.sort_key) == [0, 1, 2]
