"""Case classification and the two-route decision procedure."""

import dataclasses
import itertools
import math
import pickle
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sympdiff.decide
from sympdiff.decide import (
    DECIDE_MEMO_MAX,
    Family,
    PairCtx,
    classify_case,
    count_sequence,
    decide_extension,
    decide_pair,
    intertwined,
    pair_context,
    swap_pair,
)
import sympdiff.linalg
import sympdiff.poly
from sympdiff.atlas import indecomposable_reps
from sympdiff.errors import (
    DegreeBoundExceeded,
    InvalidArgument,
    InvalidPair,
    MixedFieldContexts,
    NotNonIncreasing,
    NotSquare,
    WrongDegree,
)
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make
from sympdiff.oracle import oracle_sweep
from sympdiff.linalg import (
    Mat,
    companion,
    direct_sum,
    exact_cell_counts,
    invariant_factors,
)
from sympdiff.poly import (
    Poly,
    decompose_base_sigma,
    delta_of,
    is_irreducible,
    monic_polys,
    roots_in_field,
)
from sympdiff.sympform import (
    SymplecticPair,
    require_valid,
    symplectic_extension,
)

from jordan_reference import jordan_sequence, primary_sequence
from subspace_reference import fitting_split, induced_pair, restrict


# ----------------------------------------------------------------------
# second routes, used only as oracles for the decision procedure
# ----------------------------------------------------------------------


def split_parts(P: SymplecticPair, pctx: PairCtx):
    """(regular, exceptional) orthogonal parts of a valid pair, via the
    Fitting decomposition along F(U)."""
    require_valid(P.B, P.U)
    E, R = fitting_split(P.U, pctx.F)
    return induced_pair(P, R), induced_pair(P, E)


def _restricted(v: Mat, W: Mat) -> Mat:
    return restrict(v, W) if W.cols else Mat(v.ctx, [])


# the families where p or q splits
PQ_SPLITS = (
    Family.SPLIT_DOUBLE_DOUBLE,
    Family.SPLIT_SIMPLE_SIMPLE,
    Family.SPLIT_MIXED,
    Family.IRR_SPLIT_EQ,
    Family.IRR_SPLIT_NEQ,
)


def experimental_synthesis_check(v: Mat, pctx: PairCtx):
    """Second route for the families where p or q splits: Fitting-split v
    itself, test the regular half by base-sigma decomposition and the
    exceptional half by the endomorphism-level count criteria (computed by
    matrix ranks, not from invariant factors).  None outside those
    families."""
    family = pctx.case.family
    if family not in PQ_SPLITS:
        return None
    if v.ctx != pctx.ctx:
        raise MixedFieldContexts(f"{v.ctx} vs {pctx.ctx}")
    E, R = fitting_split(v, pctx.F)
    v_reg = _restricted(v, R)
    v_exc = _restricted(v, E)
    reg_ok = all(
        decompose_base_sigma(f, pctx.delta) is not None
        for f in invariant_factors(v_reg).factors
    )
    if family in (Family.SPLIT_DOUBLE_DOUBLE, Family.IRR_SPLIT_EQ):
        return reg_ok
    if family in (Family.SPLIT_SIMPLE_SIMPLE, Family.SPLIT_MIXED):
        shift = 1 if family is Family.SPLIT_SIMPLE_SIMPLE else 2
        # each root z of F with its partner delta - z; the criterion is
        # symmetric in the two, so each pair is checked from both ends
        ctx = pctx.ctx
        exc_ok = all(
            intertwined(
                jordan_sequence(v_exc, z),
                jordan_sequence(v_exc, ctx.sub(pctx.delta, z)),
                shift,
            )
            for z in pctx.F_roots
        )
        return reg_ok and exc_ok
    # p irreducible, q split with distinct translates
    y1, y2 = pctx.case.ys
    g1 = pctx.p_norm.translate(y1)
    g2 = pctx.p_norm.translate(y2)
    exc_ok = intertwined(
        primary_sequence(v_exc, g1), primary_sequence(v_exc, g2), 1
    )
    return reg_ok and exc_ok


def test_classify_goldens(Q, F2, F2s):
    cases = [
        (Q, "t^2-3*t+2", "t^2-1", Family.SPLIT_SIMPLE_SIMPLE),
        (Q, "t^2-2*t+1", "t^2", Family.SPLIT_DOUBLE_DOUBLE),
        (Q, "t^2-1", "t^2-2*t+1", Family.SPLIT_MIXED),
        (Q, "t^2+1", "t^2-1", Family.IRR_SPLIT_NEQ),
        (Q, "t^2+1", "t^2", Family.IRR_SPLIT_EQ),
        (Q, "t^2+1", "t^2+4", Family.IRR_SAME_FIELD),
        (Q, "t^2+1", "t^2-2", Family.IRR_DISTINCT_GENERIC),
        (F2s, "t^2+t+1", "t^2+s*t+s", Family.IRR_DISTINCT_GENERIC),
        (F2s, "t^2+t+s", "t^2+t+s+1", Family.IRR_DISTINCT_SPECIAL),
    ]
    for ctx, pt, qt, family in cases:
        tag = classify_case(parse_poly(ctx, pt), parse_poly(ctx, qt))
        assert tag.family is family, (pt, qt)
        assert not tag.swapped

    # any two inseparable irreducible quadratics over GF(2)(s) generate the
    # same extension (adjoining one square root of s-degree-1 reaches both),
    # so the inseparable-distinct-fields family has no instances here
    for qt in ("t^2+s+1", "t^2+s^3"):
        tag = classify_case(parse_poly(F2s, "t^2+s"), parse_poly(F2s, qt))
        assert tag.family is Family.IRR_SAME_FIELD


def test_classify_applies_swap(Q):
    p = parse_poly(Q, "t^2-1")  # split
    q = parse_poly(Q, "t^2+1")  # irreducible
    tag = classify_case(p, q)
    assert tag.swapped
    assert tag.family is Family.IRR_SPLIT_NEQ
    # double-root vs simple-roots also swaps
    tag2 = classify_case(parse_poly(Q, "t^2"), parse_poly(Q, "t^2-1"))
    assert tag2.swapped and tag2.family is Family.SPLIT_MIXED


def test_swap_preserves_decisions(F3):
    quads = [Poly(F3, (c0, c1, F3.one)) for c0 in range(3) for c1 in range(3)]
    rng = random.Random(5)
    for p, q in itertools.product(quads, repeat=2):
        ps, qs = swap_pair(p, q)
        pc = pair_context(p, q)
        pc_s = pair_context(ps, qs)
        for _ in range(3):
            n = rng.choice([1, 2])
            v = Mat.from_ints(
                F3, [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
            )
            assert decide_extension(v, pc).ok == decide_extension(v, pc_s).ok


def test_same_field_shifts_recorded(Q):
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+1"))
    assert pc.case.family is Family.IRR_SAME_FIELD
    assert pc.case.zs == (Q.zero,)
    pc2 = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+4"))
    assert pc2.case.zs == ()


def _disc(p: Poly):
    ctx = p.ctx
    lam, alpha = p.coeffs[1], p.coeffs[0]
    return ctx.sub(ctx.mul(lam, lam), ctx.mul(ctx.from_int(4), alpha))


def _is_square_q(d: Fraction) -> bool:
    return d >= 0 and all(
        math.isqrt(n) ** 2 == n for n in (d.numerator, d.denominator)
    )


F3_BASE = field_make("GF(3)")


def _is_square_gf3s(d) -> bool:
    """d = N/D in GF(3)(s) is a square iff N*D = g^2 in GF(3)[s]; found by
    scanning the monic g of half the degree (1 is the only nonzero square
    of GF(3))."""
    nd = Poly(F3_BASE, d[0]) * Poly(F3_BASE, d[1])
    if nd.is_zero or nd.degree % 2 or nd.coeffs[-1] != 1:
        return nd.is_zero
    return any(g * g == nd for g in monic_polys(F3_BASE, nd.degree // 2))


def test_same_field_and_shifts_against_references():
    # finite fields: the quadratic extension is unique, so every pair of
    # irreducible quadratics shares it, and the shifts are a scan of the field
    for spec in ("GF(3)", "GF(4)|t^2+t+1", "GF(5)", "GF(9)|t^2+1"):
        ctx = field_make(spec)
        elems = list(ctx.elements())
        irr = [
            f for f in monic_polys(ctx, 2)
            if all(not ctx.is_zero(f.eval(x)) for x in elems)
        ]
        for p, q in itertools.product(irr, repeat=2):
            tag = classify_case(p, q)
            assert tag.family is Family.IRR_SAME_FIELD and not tag.swapped
            scan = [z for z in elems if p.translate(z) == q]
            assert tag.zs == tuple(sorted(scan, key=ctx.sort_key)), (spec, p, q)

    # Q and GF(3)(s): same field iff disc(p) * disc(q) is a square; the only
    # shift candidate is delta / 2
    Q, F3s = field_make("Q"), field_make("GF(3)(s)")
    rng = random.Random(8)
    draws = {
        Q: (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3)), _is_square_q),
        F3s: (
            lambda: F3s.from_polys([rng.randrange(3) for _ in range(2)]),
            _is_square_gf3s,
        ),
    }
    for ctx, (draw, is_square) in draws.items():
        seen = {True: 0, False: 0}
        while min(seen.values()) < 40:
            p = Poly(ctx, (draw(), draw(), ctx.one))
            dp = _disc(p)
            if is_square(dp):
                continue
            mu, c = draw(), draw()
            if rng.random() < 0.5:  # disc(q) = disc(p) * c^2
                beta = ctx.div(
                    ctx.sub(ctx.mul(mu, mu), ctx.mul(dp, ctx.mul(c, c))),
                    ctx.from_int(4),
                )
            else:
                beta = draw()
            q = Poly(ctx, (beta, ctx.neg(mu), ctx.one))
            dq = _disc(q)
            if is_square(dq):
                continue
            same = is_square(ctx.mul(dp, dq))
            seen[same] += 1
            tag = classify_case(p, q)
            assert (tag.family is Family.IRR_SAME_FIELD) == same, (p, q)
            z = ctx.div(delta_of(p, q), ctx.from_int(2))
            if same:
                assert tag.zs == ((z,) if p.translate(z) == q else ()), (p, q)

    # GF(2)(s), separable: t^2 + lam*t + alpha has the splitting field of
    # y^2 + y + alpha/lam^2, and two such fields agree iff y^2 + y + (a + b)
    # has a root.  p carries a = c_p + y1^2 + y1 with c_p of odd pole order
    # at infinity (so p is irreducible); q adds c0 + y0^2 + y0 to a, and
    # c0 + (y^2 + y) is never 0 for c0 in {1, 1/s, 1/(s+1)}: a constant
    # outside GF(2) or an odd-order pole.
    F2s = field_make("GF(2)(s)")
    s = F2s.gen
    t = Poly.t(F2s)

    def k(x):
        return Poly.constant(F2s, x)

    def artin_schreier(c):
        return t * t + t + k(c)

    pool = [F2s.zero, F2s.one, s, F2s.add(s, F2s.one), F2s.inv(s)]
    for c_p in (s, F2s.mul(s, F2s.mul(s, s))):
        for c0 in (F2s.zero, F2s.one, F2s.inv(s), F2s.inv(F2s.add(s, F2s.one))):
            for y0, y1, lam, mu in itertools.islice(
                itertools.product(pool, pool, pool[1:], pool[1:]), 0, None, 7
            ):
                a = F2s.add(c_p, F2s.add(F2s.mul(y1, y1), y1))
                b = F2s.add(F2s.add(a, c0), F2s.add(F2s.mul(y0, y0), y0))
                p = t * t + k(lam) * t + k(F2s.mul(a, F2s.mul(lam, lam)))
                q = t * t + k(mu) * t + k(F2s.mul(b, F2s.mul(mu, mu)))
                same = bool(roots_in_field(artin_schreier(F2s.add(a, b))))
                assert same == (c0 == F2s.zero)
                tag = classify_case(p, q)
                assert (tag.family is Family.IRR_SAME_FIELD) == same, (p, q)
                if same:
                    assert all(p.translate(z) == q for z in tag.zs)
                    if lam != mu:
                        assert tag.zs == ()

    # GF(2)(s), inseparable: any two share F^(1/2); q(t) = p(t + z) iff
    # z^2 = p(0) + q(0)
    p = parse_poly(F2s, "t^2+s")
    for qt, zs in (
        ("t^2+s", (F2s.zero,)), ("t^2+s+1", (F2s.one,)),
        ("t^2+s^3", ()), ("t^2+1/s", ()),
    ):
        tag = classify_case(p, parse_poly(F2s, qt))
        assert tag.family is Family.IRR_SAME_FIELD and tag.zs == zs, qt


def test_intertwined_sequences():
    assert intertwined([2, 1], [1, 1], 1)
    assert not intertwined([2, 2], [], 1)
    assert intertwined([2, 2], [1], 2)
    assert intertwined([], [], 1)
    # depth-1 sequences are unconstrained against an empty partner...
    assert intertwined([3], [], 1)
    # ...but depth 2 needs support on the other side at depth 1
    assert not intertwined([1, 1], [], 1)
    assert intertwined([1, 1], [1], 1)
    # trailing zero counts are dropped
    assert intertwined([2, 1, 0], [1, 0], 1) == intertwined([2, 1], [1], 1)
    with pytest.raises(NotNonIncreasing):
        intertwined([1, 2], [1], 1)
    with pytest.raises(ValueError):
        intertwined([1], [1], 0)
    with pytest.raises(InvalidArgument):
        intertwined([1], [1], -1)


def test_decide_regular_golden(Q):
    # the minimal counterexample shape: C(t^2+2) for p = q = t^2+1 is a
    # symplectic difference; C(t) and C(t+1) are not (not polynomials in
    # t^2 after stripping nothing)
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+1"))
    yes = decide_extension(companion(parse_poly(Q, "t^2+2")), pc)
    assert yes.ok and yes.verdict == "yes"
    assert yes.regular[0].base_sigma is not None

    no = decide_extension(companion(parse_poly(Q, "t+1")), pc)
    assert not no.ok and no.verdict == "no"
    assert not no.regular_ok and no.exceptional_ok
    assert "not a polynomial in" in no.failing_evidence


def test_decide_exceptional_simple_simple(Q):
    p = parse_poly(Q, "t^2-1")
    q = parse_poly(Q, "t^2-1")
    pc = pair_context(p, q)
    assert pc.case.family is Family.SPLIT_SIMPLE_SIMPLE
    # F = t^2 (t-2)(t+2); the involution z -> -z pairs the roots 2 and -2
    two = Poly(Q, (Q.from_int(-2), Q.one))
    # a lone 1-cell at +2 is a legitimate (1,0) representative
    assert decide_extension(Mat.from_ints(Q, [[2]]), pc).ok
    # a size-2 cell at +2 with nothing at -2 breaks the intertwining
    rep = decide_extension(companion(two ** 2), pc)
    assert not rep.ok and rep.regular_ok and not rep.exceptional_ok
    assert "not 1-intertwined" in rep.failing_evidence
    # restore balance with a 1-cell at -2: the (2,1) shape is accepted
    v_good = direct_sum(companion(two ** 2), Mat.from_ints(Q, [[-2]]))
    assert decide_extension(v_good, pc).ok


def test_decide_pair_delegates_to_halved_extension(F3):
    quads = [Poly(F3, (c0, c1, F3.one)) for c0 in range(3) for c1 in range(3)]
    rng = random.Random(17)
    for _ in range(60):
        p, q = rng.choice(quads), rng.choice(quads)
        pc = pair_context(p, q)
        n = rng.choice([1, 2])
        v = Mat.from_ints(
            F3, [[rng.randrange(3) for _ in range(n)] for _ in range(n)]
        )
        P = symplectic_extension(v)
        assert decide_pair(P, pc).ok == decide_extension(v, pc).ok


def test_decide_pair_rejects_invalid(F5):
    pc = pair_context(parse_poly(F5, "t^2+2"), parse_poly(F5, "t^2+2"))
    with pytest.raises(InvalidPair):
        decide_pair(SymplecticPair(Mat.zeros(F5, 2), Mat.zeros(F5, 2)), pc)


def test_decide_pair_checks_the_field_before_validity(F3, F5):
    # B = I is not alternating, but a pair over another field is refused
    # as such before it is validated
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    with pytest.raises(MixedFieldContexts):
        decide_pair(SymplecticPair(Mat.identity(F5, 2), Mat.zeros(F5, 2)), pc)


def test_decide_mixed_contexts_raise(F3, F5):
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    with pytest.raises(MixedFieldContexts):
        decide_extension(Mat.zeros(F5, 1), pc)


def test_split_parts_dimensions(Q):
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+1"))
    # v = C(t^2+2) + one cell at the F-root 0: regular part dim 4, exceptional 2
    v = direct_sum(companion(parse_poly(Q, "t^2+2")), Mat.zeros(Q, 1))
    P = symplectic_extension(v)
    regular, exceptional = split_parts(P, pc)
    assert regular.dimension == 4 and exceptional.dimension == 2
    from sympdiff.sympform import validate_pair

    assert validate_pair(regular.B, regular.U).ok
    assert validate_pair(exceptional.B, exceptional.U).ok


def test_synthesis_check_agrees_with_decision(F3, F5):
    for ctx in (F3, F5):
        order = ctx.order
        quads = [
            Poly(ctx, (ctx.from_int(c0), ctx.from_int(c1), ctx.one))
            for c0 in range(order)
            for c1 in range(order)
        ]
        rng = random.Random(order)
        checked = 0
        for _ in range(200):
            p, q = rng.choice(quads), rng.choice(quads)
            pc = pair_context(p, q)
            if pc.case.family not in PQ_SPLITS:
                continue
            n = rng.choice([1, 2, 3])
            v = Mat.from_ints(
                ctx, [[rng.randrange(order) for _ in range(n)] for _ in range(n)]
            )
            second = experimental_synthesis_check(v, pc)
            assert second is not None
            assert second == decide_extension(v, pc).ok
            checked += 1
        assert checked > 50


def test_synthesis_check_none_outside_split_families(Q):
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2-2"))
    assert experimental_synthesis_check(Mat.zeros(Q, 1), pc) is None


def test_always_yes_families_ignore_exceptional_part(F2s):
    # distinct splitting fields, generic: any endomorphism passes the
    # exceptional criterion; the regular criterion still bites
    p = parse_poly(F2s, "t^2+t+1")
    q = parse_poly(F2s, "t^2+s*t+s")
    pc = pair_context(p, q)
    assert pc.case.family.always_yes
    F_comp = companion(pc.F)
    rep = decide_extension(F_comp, pc)
    assert rep.exceptional_ok and rep.ok
    t_comp = companion(parse_poly(F2s, "t+1"))
    rep2 = decide_extension(t_comp, pc)
    assert rep2.exceptional_ok and not rep2.regular_ok and not rep2.ok


# ----------------------------------------------------------------------
# each pair fact is derived once
# ----------------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    """Route every sympdiff binding of module.name through a counter; the
    returned list grows by one per call."""
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("sympdiff") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_pair_context_solves_each_quadratic_once(monkeypatch, cold, Q, F3):
    calls = _count_calls(monkeypatch, sympdiff.poly, "roots_in_field")
    pairs = [(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+4"))]
    for ctx in (F3, field_make("GF(4)|t^2+t+1")):
        pairs += itertools.product(monic_polys(ctx, 2), repeat=2)
    for p, q in pairs:
        cold(p.ctx)
        calls.clear()
        pc = pair_context(p, q)
        assert len(calls) <= 5, (p, q)
        # p, q, Lambda and t^2 - delta*t - s per distinct root s of Lambda
        assert len(calls) == 3 + len(set(pc.Lam_roots)), (p, q)
        calls.clear()
        assert pair_context(p, q) is pc  # warm: the memo answers
        assert calls == [], (p, q)


def test_decide_and_catalogue_solve_no_roots(monkeypatch, F3):
    pc = pair_context(parse_poly(F3, "t^2-1"), parse_poly(F3, "t^2+t"))
    assert pc.case.family is Family.SPLIT_SIMPLE_SIMPLE
    vs = [companion(parse_poly(F3, text)) for text in ("t", "t^2+2", "(t-1)^3")]
    pair = symplectic_extension(vs[1])
    calls = _count_calls(monkeypatch, sympdiff.poly, "roots_in_field")
    for v in vs:
        decide_extension(v, pc)
    decide_pair(pair, pc)
    assert indecomposable_reps(pc, 4)
    assert calls == []


def test_memos_hold_at_most_the_bound(cold, F5):
    cold(F5)
    quads = list(monic_polys(F5, 2))
    pairs = list(itertools.product(quads, repeat=2))[: DECIDE_MEMO_MAX + 5]
    for p, q in pairs:
        pair_context(p, q)
    assert F5._pair_memo.cache_info().currsize == DECIDE_MEMO_MAX
    pc = pair_context(*pairs[0])  # evicted, so computed again
    assert F5._pair_memo.cache_info().misses == len(pairs) + 1
    for f in quads[: DECIDE_MEMO_MAX + 5]:
        decide_extension(companion(f), pc)
    assert F5._decision_memo.cache_info().currsize == DECIDE_MEMO_MAX
    assert F5._decision_memo.cache_info().misses == DECIDE_MEMO_MAX + 5


def test_memos_key_by_value(cold, F3):
    cold(F3)
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2-1"))
    assert pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+2")) is pc
    assert pair_context(parse_poly(F3, "t^2-1"), parse_poly(F3, "t^2+1")) is not pc
    report = decide_extension(companion(parse_poly(F3, "t^2+2")), pc)
    assert decide_extension(companion(parse_poly(F3, "t^2-1")), pc) is report
    # the pair context over a rebuilt context is equal and shares no memo
    pc_g = pickle.loads(pickle.dumps(pc))
    G3 = pc_g.ctx
    assert pc_g == pc and G3 is not F3 and G3._decision_memo is None
    fresh = decide_extension(companion(parse_poly(G3, "t^2+2")), pc_g)
    assert fresh == report and fresh is not report


def test_raising_inputs_are_not_cached(monkeypatch, cold, F3, F5):
    cold(F3)
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    for _ in range(2):  # the checks run before the lookup, every time
        with pytest.raises(WrongDegree):
            pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^3"))
        with pytest.raises(MixedFieldContexts):
            pair_context(parse_poly(F3, "t^2+1"), parse_poly(F5, "t^2+1"))
        with pytest.raises(NotSquare):
            decide_extension(Mat.zeros(F3, 2, 3), pc)
        with pytest.raises(MixedFieldContexts):
            decide_extension(Mat.zeros(F5, 2, 2), pc)
    assert F3._pair_memo.cache_info().currsize == 1
    assert F3._decision_memo.cache_info().currsize == 0

    def failing(M):
        raise DegreeBoundExceeded("refused once")

    v = companion(parse_poly(F3, "t^2+2"))
    monkeypatch.setattr(sympdiff.decide, "invariant_factors", failing)
    for _ in range(2):
        with pytest.raises(DegreeBoundExceeded):
            decide_extension(v, pc)
    assert F3._decision_memo.cache_info().currsize == 0
    monkeypatch.undo()
    assert decide_extension(v, pc).ok
    assert F3._decision_memo.cache_info().currsize == 1


def _mutable_parts(value, path):
    """The paths below ``path`` to values that an edit could change in
    place: anything but frozen dataclasses, tuples, strings, ints and
    None."""
    if dataclasses.is_dataclass(value):
        if not type(value).__dataclass_params__.frozen:
            return [path]
        return [
            found
            for f in dataclasses.fields(value)
            for found in _mutable_parts(getattr(value, f.name), f"{path}.{f.name}")
        ]
    if isinstance(value, tuple):
        return [found for i, v in enumerate(value) for found in _mutable_parts(v, f"{path}[{i}]")]
    return [] if isinstance(value, (str, int, type(None))) else [path]


def test_an_edit_of_a_decision_cannot_reach_the_memo(cold, F3):
    """Decisions are memoized, so their evidence is immutable all through:
    an intertwined-pairs NO, and an even-parts pair decision with its
    pair-level evidence."""
    cold(F3)
    pc = pair_context(parse_poly(F3, "t^2-1"), parse_poly(F3, "t^2+t"))
    v = direct_sum(companion(parse_poly(F3, "t^2+2")), companion(parse_poly(F3, "(t-1)^3")))
    report = decide_extension(v, pc)
    assert not report.ok and report.exceptional.pairs
    with pytest.raises(AttributeError):
        report.exceptional.pairs.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.exceptional.pairs[0].ok = True
    assert decide_extension(v, pc) is report
    even = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    P = symplectic_extension(companion(parse_poly(F3, "t^2+2")))
    pair_report = decide_pair(P, even)
    assert pair_report.pair_level.parts
    for evidence in ("exceptional", "pair_level"):
        assert _mutable_parts(getattr(report, evidence), evidence) == []
        assert _mutable_parts(getattr(pair_report, evidence), evidence) == []


def test_decide_pair_runs_one_snf(monkeypatch, F3):
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    v = direct_sum(companion(parse_poly(F3, "t^2+2")), companion(parse_poly(F3, "t")))
    P = symplectic_extension(v)
    calls = _count_calls(monkeypatch, sympdiff.linalg, "invariant_factors")
    report = decide_pair(P, pc)
    assert len(calls) == 1
    assert report == replace(decide_extension(v, pc), pair_level=report.pair_level)


# ----------------------------------------------------------------------
# cell counts: invariant factors against rank drops
# ----------------------------------------------------------------------


def _same_counts(M, z):
    t_minus_z = Poly(M.ctx, (M.ctx.neg(z), M.ctx.one))
    seq = count_sequence(invariant_factors(M).factors, t_minus_z)
    assert seq == jordan_sequence(M, z)
    return exact_cell_counts(seq)


def test_cell_counts_match_rank_drops_on_criterion_12():
    # the instances criterion 12 visits: dimension-4 brute-force YES with
    # p = q irreducible and nilpotent v, read at eigenvalue 0
    visited = 0
    for spec in ("GF(2)", "GF(3)"):
        ctx = field_make(spec)
        for inst in oracle_sweep(ctx, 4).instances:
            if inst.p != inst.q or not is_irreducible(inst.p) or not inst.brute_yes:
                continue
            if not (inst.v ** inst.v.rows).is_zero:
                continue
            _same_counts(symplectic_extension(inst.v).U, ctx.zero)
            visited += 1
    assert visited == 8  # criterion 12's "8 nilpotent YES instances"


def test_cell_counts_match_rank_drops_at_nonzero_eigenvalues(F5):
    rng = random.Random(12)
    for _ in range(40):
        # Jordan cells at random eigenvalues, conjugated by a random P
        cells = [(rng.randrange(1, 5), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))]
        J = direct_sum(*(
            companion(Poly(F5, (F5.from_int(-z), F5.one)) ** k) for z, k in cells
        ))
        n = J.rows
        while True:
            P = Mat.from_ints(F5, [[rng.randrange(5) for _ in range(n)]
                                   for _ in range(n)])
            if P.is_invertible():
                break
        M = P @ J @ P.inverse()
        for z in range(1, 5):
            got = _same_counts(M, F5.from_int(z))
            want = [sum(1 for zc, k in cells if zc == z and k == size)
                    for size in range(1, len(got) + 1)]
            assert list(got) == want
