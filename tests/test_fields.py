"""Field contexts: arithmetic laws, canonical forms, spec round-trips."""

import gc
import itertools
import pickle
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sympdiff.fields
from sympdiff.decide import pair_context
from sympdiff.errors import (
    DegreeBoundExceeded,
    DivisionByZero,
    FieldSpecError,
    NonPrimeCharacteristic,
    ReducibleModulus,
)
from sympdiff.exprparse import parse_poly, parse_scalar
from sympdiff.fields import (
    EXT_MUL_MEMO_MAX,
    RATFUNC_MAX_DEGREE,
    ExtensionField,
    PrimeField,
    _prime_power,
    field_make,
    field_spec,
)
from sympdiff import linalg, sympform, witness
from sympdiff.linalg import Mat, companion
from sympdiff.poly import Poly, _pow_mod, is_irreducible, monic_polys, poly_ops


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


def _unmemoized(ctx, op, a, b=None):
    """a op b (or 1/a) in GF(p^k) as polynomials over GF(p) modulo the
    modulus; an inverse is found by search."""
    if op == "inv":
        return next(
            c for c in ctx.elements() if _unmemoized(ctx, "mul", a, c) == ctx.one
        )
    Fp = PrimeField(ctx.p)
    x, y, m = Poly(Fp, a), Poly(Fp, b), Poly(Fp, ctx.modulus)
    r = {"add": x + y, "sub": x - y, "mul": (x * y) % m}[op]
    return r.coeffs + (0,) * (ctx.k - len(r.coeffs))


def _operands(ctx, op):
    if op == "inv":
        return [(a,) for a in ctx.elements() if a != ctx.zero]
    return list(itertools.product(ctx.elements(), repeat=2))


MEMOS = ("add", "sub", "mul", "inv")


def _fresh(ctx):
    """A new context equal to the interned ``ctx``, with empty memos."""
    return ExtensionField(ctx.p, ctx.k, ctx.modulus)


@pytest.mark.parametrize("spec", ["GF(4)|t^2+t+1", "GF(9)|t^2+1", "GF(27)|t^3+2*t+1"])
def test_memoized_products_match_unmemoized(spec):
    """Products, and also sums, differences and inverses."""
    ctx = _fresh(field_make(spec))  # memos not yet filled by other tests
    for op in MEMOS:
        memo, args = getattr(ctx, op), _operands(ctx, op)
        want = [_unmemoized(ctx, op, *a) for a in args]
        assert [memo(*a) for a in args] == want
        filled = memo.cache_info()
        assert filled.misses == filled.currsize == len(args) <= EXT_MUL_MEMO_MAX
        assert [memo(*a) for a in args] == want  # the second pass hits
        again = memo.cache_info()
        assert (again.hits - filled.hits, again.misses) == (len(args), filled.misses)


def test_product_memo_is_capped(monkeypatch):
    """Every memo, products, sums, differences and inverses."""
    ctx = _fresh(field_make("GF(256)|t^8+t^4+t^3+t+1"))
    for op in MEMOS:
        args = _operands(ctx, op)
        for a in args:
            getattr(ctx, op)(*a)
        info = getattr(ctx, op).cache_info()
        assert info.currsize == min(len(args), EXT_MUL_MEMO_MAX)
        assert info.maxsize == EXT_MUL_MEMO_MAX
    monkeypatch.setattr(sympdiff.fields, "EXT_MUL_MEMO_MAX", 100)
    small = _fresh(ctx)  # the cap is read when the context is built
    for op in MEMOS:
        memo, args = getattr(small, op), _operands(small, op)[:300]
        for a in args:
            memo(*a)
        assert memo.cache_info().currsize == 100
        last, first = args[-1], args[0]  # kept, and evicted when it filled
        full = memo.cache_info()
        assert memo(*last) == _unmemoized(small, op, *last)
        assert memo(*first) == _unmemoized(small, op, *first)
        after = memo.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            full.hits + 1, full.misses + 1, 100
        )


def test_field_make_interns_one_context_per_spec():
    spec = "GF(9)|t^2+1"
    ctx = field_make(spec)
    assert field_make(spec) is ctx
    ctx.mul((1, 1), (1, 2))
    assert field_make(spec).mul.cache_info().currsize  # the memos come along
    assert field_make(" GF(9)|t^2+1 ") == ctx  # equal, under another key
    # a refused spec is not cached: it raises on every call
    for _ in range(3):
        with pytest.raises(ReducibleModulus):
            field_make("GF(9)|t^2+2")
        with pytest.raises(FieldSpecError):
            field_make("GF(6)")
    # bounded: the least recently used spec is dropped
    cap = sympdiff.fields.FIELD_CTX_MAX
    assert field_make.cache_info().maxsize == cap
    for p in [p for p in range(3, 1000) if sympdiff.fields._is_prime(p)][:cap + 1]:
        field_make(f"GF({p})")
    assert field_make.cache_info().currsize == cap
    assert field_make(spec) is not ctx and field_make(spec) == ctx


def test_context_with_filled_memo_pickles():
    ctx = field_make("GF(27)|t^3+2*t+1")
    elems = list(ctx.elements())
    for a in elems:
        ctx.mul(a, elems[5]), ctx.add(a, elems[5]), ctx.sub(a, elems[5])
        if a != ctx.zero:
            ctx.inv(a)
    linalg._regular.cache_clear()
    M = Mat(ctx, [elems[1:3], elems[3:5]])
    square = M @ M  # builds the table of the lift to GF(3)
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone is not ctx and clone == ctx and hash(clone) == hash(ctx)
    for op in MEMOS:  # no memo is shipped
        assert getattr(ctx, op).cache_info().currsize
        assert getattr(clone, op).cache_info().currsize == 0
    M = Mat(clone, M.entries)
    assert M @ M == Mat(clone, square.entries)
    for op in ("add", "sub", "mul"):
        assert [getattr(clone, op)(a, elems[5]) for a in elems] == [
            getattr(ctx, op)(a, elems[5]) for a in elems
        ]
    assert [clone.inv(a) for a in elems[1:]] == [ctx.inv(a) for a in elems[1:]]
    # one lift table per context, shared by its equal clone
    assert linalg._regular.cache_info().misses == 1
    assert linalg._regular(clone.p, clone.modulus) is linalg._regular(ctx.p, ctx.modulus)


_ONE_OF_EACH_KIND = ["Q", "GF(5)", "GF(9)|t^2+1", "GF(2)(s)"]


def test_contexts_are_equal_exactly_when_their_specs_are():
    a, b = field_make("GF(4)|t^2+t+1"), field_make("GF(2^2)|t^2+t+1")
    assert a is not b and a == b and hash(a) == hash(b)
    # the same characteristic, or the same order, in another kind
    for x, y in [("GF(3)", "GF(3^1)|t+1"), ("GF(2)", "GF(2)(s)")]:
        assert field_make(x) != field_make(y) and field_make(y) != field_make(x)
    for spec in _ONE_OF_EACH_KIND:
        ctx = field_make(spec)
        assert repr(ctx) == field_spec(ctx)
        assert ctx != field_spec(ctx)  # a context is not its spec string


@pytest.mark.parametrize("spec", _ONE_OF_EACH_KIND)
def test_every_field_kind_pickles_as_a_fresh_equal_context(spec):
    ctx = field_make(spec)
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone is not ctx and type(clone) is type(ctx)
    assert clone == ctx and hash(clone) == hash(ctx) and repr(clone) == repr(ctx)
    assert (clone.zero, clone.one, clone.characteristic, clone.order) == (
        ctx.zero, ctx.one, ctx.characteristic, ctx.order
    )


def test_contexts_do_not_outlive_field_make():
    """A context and its memos are kept by field_make, and otherwise only by
    the capped Gram-matrix caches: the polynomial kernels live on the
    context and the lift tables are keyed by (p, modulus)."""
    F3 = field_make("GF(3)")
    moduli = [f for f in monic_polys(F3, 4) if is_irreducible(f)]
    assert len(moduli) > sympdiff.fields.FIELD_CTX_MAX
    refs = []
    for f in moduli:
        ctx = field_make(f"GF(3^4)|{f}")
        pc = pair_context(parse_poly(ctx, "t^2+1"), parse_poly(ctx, "t^2+1"))
        witness.duplication_witness(pc, parse_poly(ctx, "t+1"))
        refs.append(weakref.ref(ctx))
    del ctx, pc
    field_make.cache_clear()
    sympform.standard_gram.cache_clear()
    witness._gram_inverse.cache_clear()
    gc.collect()
    assert [r for r in refs if r() is not None] == []


@pytest.mark.parametrize("spec", ["Q", "GF(2)(s)", "GF(3)", "GF(4)|t^2+t+1"])
def test_polys_and_mats_pickle_after_poly_ops(spec):
    ctx = field_make(spec)
    f = parse_poly(ctx, "t^2+t+1")
    g = f * f  # builds ctx's polynomial kernels
    assert ctx._poly_ops is not None
    assert pickle.loads(pickle.dumps(ctx))._poly_ops is None  # not shipped
    for x in (g, companion(g)):
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.ctx == ctx


@pytest.mark.parametrize("spec", ["GF(5)", "GF(9)|t^2+1", "Q"])
def test_every_power_matches_repeated_products(spec):
    """ctx.power, Mat ** e, Poly ** e and poly._pow_mod share one
    square-and-multiply: e = 0 and 1, larger e, and negative e where the
    caller inverts."""
    ctx = field_make(spec)
    one = ctx.one
    a = ctx.add(one, one) if ctx.kind != "extension" else (1, 2)
    M = Mat(ctx, [[a, one], [ctx.zero, one]])  # invertible
    f = Poly(ctx, (a, one))
    mod = Poly(ctx, (one, ctx.zero, ctx.zero, one))
    ops = poly_ops(ctx)
    x, X, g, h = one, Mat.identity(ctx, 2), Poly.one(ctx), Poly.one(ctx)
    for e in range(12):
        assert ctx.power(a, e) == x
        assert M ** e == X
        assert f ** e == g
        assert _pow_mod(ops, f.coeffs, e, mod.coeffs) == h.coeffs
        if e:
            assert ctx.power(a, -e) == ctx.inv(x)
            assert M ** -e == X.inverse()
        x, X, g, h = ctx.mul(x, a), X @ M, g * f, (h * f) % mod


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


_ZCOEFFS = st.lists(st.integers(min_value=0, max_value=4), max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    spec=st.sampled_from(["GF(2)(s)", "GF(3)(s)", "GF(5)(s)"]),
    parts=st.lists(
        st.tuples(_ZCOEFFS, _ZCOEFFS, st.integers(min_value=1, max_value=4)),
        min_size=1, max_size=3,
    ),
)
def test_ratfunc_text_round_trips_with_denominators(spec, parts):
    """Scalars num/den (den with a nonzero leading coefficient) come back
    from parse_scalar(format(a)), and the polynomial with them as
    coefficients from parse_poly(str(f))."""
    ctx = field_make(spec)
    coeffs = [ctx.from_polys(num, den + [lead % ctx.p or 1]) for num, den, lead in parts]
    for a in coeffs:
        assert parse_scalar(ctx, ctx.format(a)) == a
    f = Poly(ctx, coeffs)
    assert parse_poly(ctx, str(f)) == f


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
    for spec, message in [
        ("GF(1)", "1 is neither a prime nor a prime power"),
        ("GF(0)", "0 is neither a prime nor a prime power"),
        ("GF(6)|t+1", "6 is not a prime power"),
    ]:
        with pytest.raises(FieldSpecError, match=message):
            field_make(spec)


def test_large_prime_fields_build_quickly():
    m61 = 2**61 - 1
    start = time.monotonic()
    assert isinstance(field_make(f"GF({m61})"), PrimeField)
    # -1 is a non-residue mod 2^61 - 1 (it is 3 mod 4), so t^2+1 is irreducible
    ext = field_make(f"GF({m61 ** 2})|t^2+1")
    assert isinstance(ext, ExtensionField) and (ext.p, ext.k) == (m61, 2)
    assert time.monotonic() - start < 1.0


def test_huge_composite_spec_is_rejected_quickly():
    start = time.monotonic()
    with pytest.raises(FieldSpecError):
        field_make(f"GF({'7' * 4000})")
    assert time.monotonic() - start < 1.0


def test_prime_power_exponents():
    m61 = 2**61 - 1
    for p, k in [(2, 1), (2, 4), (3, 4), (2, 64), (3, 40), (7, 30), (m61, 6)]:
        assert _prime_power(p**k) == (p, k)
    for n in (0, 1, 6, 36, 6**10, 2**10 * 3**10, 10**12, m61**2 * 2):
        assert _prime_power(n) is None
    for spec, (p, k) in [("GF(16)|t^4+t+1", (2, 4)), ("GF(81)|t^4+t+2", (3, 4))]:
        ctx = field_make(spec)
        assert isinstance(ctx, ExtensionField) and (ctx.p, ctx.k) == (p, k)


def test_strong_pseudoprime_is_rejected():
    # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(FieldSpecError):
        field_make("GF(3215031751)")


def test_elements_enumeration_is_deterministic(F3):
    assert list(F3.elements()) == list(F3.elements())
    assert sorted(F3.elements(), key=F3.sort_key) == [0, 1, 2]


@pytest.mark.parametrize("spec", ["GF(9)|t^2+1", "GF(27)|t^3+2*t+1"])
def test_extension_elements_keep_their_order(spec):
    ctx = field_make(spec)
    old_order = itertools.product(range(ctx.p), repeat=ctx.k)
    first = itertools.islice(ctx.elements(), 50)
    assert list(first) == list(itertools.islice(old_order, 50))
    assert len(set(ctx.elements())) == ctx.order


@pytest.mark.parametrize("spec", ["GF(573939143^2)|t^2+1", f"GF({2**31 - 1}^2)|t^2+1"])
def test_square_roots_over_a_large_extension_answer_quickly(spec, poly):
    # t^2 - 1 needs a square root of its discriminant, and Tonelli-Shanks a
    # non-square: the first p elements, c*g, are all squares here
    ctx = field_make(spec)
    start = time.perf_counter()
    pctx = pair_context(poly(ctx, "t^2-1"), poly(ctx, "t^2-1"))
    assert time.perf_counter() - start < 1.0
    assert sorted(pctx.Lam_roots) == sorted([ctx.zero, ctx.from_int(4)])
