"""Witness construction: duplication blocks, composition, brute force."""

import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

from sympdiff import acceptance, decide, oracle, witness
from sympdiff.decide import pair_context
from sympdiff.errors import (
    ConstructionInvariantViolated,
    DecisionWasNo,
    DimensionBoundExceeded,
    InfiniteField,
    InvalidPair,
    MixedFieldContexts,
    SingularMatrix,
)
from sympdiff.exprparse import parse_poly
from sympdiff.fields import field_make
from sympdiff.linalg import Mat, companion, direct_sum, invariant_factors, mat_poly_eval
from sympdiff.oracle import admissible_chains, oracle_sweep
from sympdiff.poly import Poly, monic_polys
from sympdiff.sympform import (
    SymplecticPair,
    Witness,
    is_alternating,
    standard_gram,
    symplectic_extension,
)
from sympdiff.witness import (
    DEFAULT_SEARCH_BOUND,
    VerificationReport,
    _solution_space,
    brute_force_witness,
    compose_witness,
    duplication_witness,
    verify_witness,
    w_algebra_block,
)

from search_reference import _generic_search, _n2_solution_space
from wblock_reference import r_expansion_block
from witness_reference import check_witness


def test_w_block_golden_nilpotent(Q):
    # p = q = t^2, r = t: the 4x4 generators in closed form
    pc = pair_context(parse_poly(Q, "t^2"), parse_poly(Q, "t^2"))
    w = w_algebra_block(pc, Poly.t(Q))
    assert w.dimension == 4
    assert w.U1 == Mat.from_ints(
        Q, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    )
    assert w.U2 == Mat.from_ints(
        Q, [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0]]
    )


def _matches_r_expansion(pc, r):
    """The Kronecker-built block equals the per-entry expansion over R as
    entry tuples, value and type."""
    block = w_algebra_block(pc, r)
    A, B, H = r_expansion_block(pc, r)
    got = [M.entries for M in (block.U1, block.U2, block.B, block.U)]
    want = [M.entries for M in (A, B, H, A - B)]
    assert got == want, (pc.p, pc.q, r)
    assert [[type(e) for row in g for e in row] for g in got] == [
        [type(e) for row in w for e in row] for w in want
    ]


def test_w_block_matches_r_expansion_exhaustively(F2, F3):
    # every (p, q, r) over GF(2) and GF(3) with deg r <= 2
    for ctx in (F2, F3):
        quads = list(monic_polys(ctx, 2))
        rs = list(monic_polys(ctx, 1)) + quads
        for p, q in itertools.product(quads, repeat=2):
            pc = pair_context(p, q)
            for r in rs:
                _matches_r_expansion(pc, r)


@pytest.mark.parametrize("spec", ["GF(5)", "GF(4)|t^2+t+1", "GF(27)|t^3+2*t+1"])
def test_w_block_matches_r_expansion_sampled(spec):
    ctx = field_make(spec)
    rng = random.Random(22)
    scalars = list(ctx.elements())

    def monic(d):
        return Poly(ctx, tuple(rng.choice(scalars) for _ in range(d)) + (ctx.one,))

    for i in range(30):
        _matches_r_expansion(pair_context(monic(2), monic(2)), monic(1 + i % 3))


def test_w_block_matches_r_expansion_infinite_fields(Q):
    F2s = field_make("GF(2)(s)")
    for ctx, pt, qt, rt in [
        (Q, "t^2+1", "t^2+4", "t-3"),
        (Q, "t^2-2", "t^2+1", "t^2+5"),
        (Q, "t^2-2", "t^2+1", "t^3-t/2+7"),
        (F2s, "t^2+t+s", "t^2+s", "t+s"),
        (F2s, "t^2+s*t+1", "t^2+t+s", "t^3+s*t+1/s"),
    ]:
        pc = pair_context(parse_poly(ctx, pt), parse_poly(ctx, qt))
        _matches_r_expansion(pc, parse_poly(ctx, rt))


def test_duplication_witness_factors(F3, F5, Q):
    for ctx, pt, qt, rt in [
        (F3, "t^2+1", "t^2+1", "t+2"),
        (F5, "t^2+2", "t^2+t+1", "t^2+t+1"),
        (Q, "t^2+1", "t^2+4", "t-3"),
        (Q, "t^2-2", "t^2+1", "t^2+5"),
    ]:
        pc = pair_context(parse_poly(ctx, pt), parse_poly(ctx, qt))
        r = parse_poly(ctx, rt)
        w = duplication_witness(pc, r)
        assert w.dimension == 4 * r.degree
        rs = r.compose(pc.sigma)
        assert invariant_factors(w.U).factors == (rs, rs)
        assert verify_witness(w, pc).ok


def test_verify_witness_detects_corruption(F3):
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    w = duplication_witness(pc, parse_poly(F3, "t+1"))
    ident = Mat.identity(F3, w.dimension)

    shifted = dataclasses.replace(w, U1=w.U1 + ident)
    rep = verify_witness(shifted, pc)
    assert not rep.ok
    assert not rep.p_annihilates_u1
    assert not rep.difference_matches
    assert "p(U1) is nonzero" in rep.failures()

    bad_gram = dataclasses.replace(w, B=Mat.zeros(F3, w.dimension))
    rep2 = verify_witness(bad_gram, pc)
    assert not rep2.gram_invertible and not rep2.ok


def test_kernel_stable_is_not_checked_when_p_differs_from_q(F5):
    pc = pair_context(parse_poly(F5, "t^2+2"), parse_poly(F5, "t^2+t+1"))
    rep = verify_witness(duplication_witness(pc, parse_poly(F5, "t+1")), pc)
    assert rep.ok and rep.kernel_stable is None


def test_kernel_stable_on_empty_full_and_unstable_kernels(F3):
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    # r(0) != 0 and sigma(0) = 0, so U, with factors r(sigma), is invertible
    w = duplication_witness(pc, parse_poly(F3, "t+1"))
    assert w.U.is_invertible() and verify_witness(w, pc).kernel_stable is True
    # criterion 5's witness: U = 0, so Ker(U1 - U2) is the whole space
    B = standard_gram(F3, 2)
    w = brute_force_witness(SymplecticPair(B=B, U=Mat.zeros(F3, 4)), pc)
    assert w.U1 == w.U2 and verify_witness(w, pc).kernel_stable is True
    # Ker(diag(1, 0, 0, 0)) = span(e1, e2, e3), and U1 sends e1 to e0
    U = Mat.from_ints(F3, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    U1 = Mat.from_ints(F3, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    rep = verify_witness(Witness(B=B, U=U, U1=U1, U2=U1 - U), pc)
    assert rep.kernel_stable is False
    assert "Ker(U1 - U2) is not stable under U1 and U2" in rep.failures()


def test_reference_checker_flags_broken_witnesses(F3):
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    w = duplication_witness(pc, parse_poly(F3, "t+1"))
    n, (p, q) = w.dimension, (pc.p, pc.q)
    shifted = dataclasses.replace(w, U1=w.U1 + Mat.identity(F3, n))
    assert check_witness(shifted, p, q) == ["p(U1) = 0", "U1 - U2 = U"]
    flat = dataclasses.replace(w, B=Mat.zeros(F3, n))
    assert check_witness(flat, p, q) == ["B invertible"]
    plain = dataclasses.replace(w, B=Mat.identity(F3, n))  # nor is B U2 = U2
    assert check_witness(plain, p, q) == ["B alternating", "B U2 alternating"]


def test_session_hook_rechecks_every_accepted_witness(
    F3, reference_checked_witnesses, monkeypatch
):
    # conftest wraps witness._verified: each witness it accepts is checked
    # again by the reference, and one that fools verify_witness fails
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    r = parse_poly(F3, "t+1")
    before = len(reference_checked_witnesses)
    w = duplication_witness(pc, r)
    assert reference_checked_witnesses[before:] == [f"duplication witness for r={r}"]
    shifted = dataclasses.replace(w, U1=w.U1 + Mat.identity(F3, w.dimension))
    passing = VerificationReport(*[True] * len(dataclasses.fields(VerificationReport)))
    monkeypatch.setattr(witness, "verify_witness", lambda w, pctx: passing)
    with pytest.raises(AssertionError, match=r"^shifted fails the reference checker"):
        witness._verified(shifted, pc, "shifted")


def test_reference_checker_passes_criteria_witnesses(F3, Q, F2s):
    # criterion 5's brute-force witness, 6's and 10's composed witnesses
    pc5 = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    zero4 = SymplecticPair(B=standard_gram(F3, 2), U=Mat.zeros(F3, 4))
    pc6 = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+1"))
    pc10 = pair_context(parse_poly(F2s, "t^2+t+1"), parse_poly(F2s, "t^2+t+s"))
    f = parse_poly(F2s, "t^2+t+(1+s)")
    found = [
        (brute_force_witness(zero4, pc5), pc5),
        (compose_witness(companion(parse_poly(Q, "t^2+2")), pc6), pc6),
        (compose_witness(companion(f * f), pc10), pc10),
    ]
    # one duplication block per (field, p, q) of criterion 2, r cycling
    # through its r of degree 1 and 2
    for spec in ("GF(2)", "GF(3)", "GF(5)"):
        ctx = field_make(spec)
        quads = list(monic_polys(ctx, 2))
        rs = itertools.cycle(list(monic_polys(ctx, 1)) + quads)
        pcs = itertools.starmap(pair_context, itertools.product(quads, repeat=2))
        found += [(w_algebra_block(pc, r), pc) for pc, r in zip(pcs, rs)]
    assert len(found) == 3 + 16 + 81 + 625
    for w, pc in found:
        assert check_witness(w, pc.p, pc.q) == [], (pc.p, pc.q)


def test_reference_checker_passes_extension_field_blocks():
    # every product of these blocks goes through the lift to GF(p):
    # all 256 (p, q) over GF(4), and 27 seeded ones over GF(27), with r
    # cycling through degree 1 and 2
    F4 = field_make("GF(4)|t^2+t+1")
    quads = list(monic_polys(F4, 2))
    rs = itertools.cycle(list(monic_polys(F4, 1)) + quads)
    pcs = itertools.starmap(pair_context, itertools.product(quads, repeat=2))
    found = [(w_algebra_block(pc, r), pc) for pc, r in zip(pcs, rs)]
    F27 = field_make("GF(27)|t^3+2*t+1")
    lins, quads = list(monic_polys(F27, 1)), list(monic_polys(F27, 2))
    rng = random.Random(27)
    pairs = [(rng.choice(quads), rng.choice(quads)) for _ in range(27)]
    rs = [rng.choice(quads if i % 2 else lins) for i in range(27)]
    pcs = itertools.starmap(pair_context, pairs)
    found += [(w_algebra_block(pc, r), pc) for pc, r in zip(pcs, rs)]
    assert len(found) == 256 + 27
    for w, pc in found:
        assert check_witness(w, pc.p, pc.q) == [], (pc.p, pc.q)


def _collect_hits(module, monkeypatch):
    """The list that every witness ``module``'s brute-force search finds
    from now on goes to, with its context."""
    hits, search = [], module.brute_force_witness

    def collect(pair, pctx, **kw):
        w = search(pair, pctx, **kw)
        if w is not None:
            assert (w.B.entries, w.U.entries) == (pair.B.entries, pair.U.entries)
            hits.append((w, pctx))
        return w

    monkeypatch.setattr(module, "brute_force_witness", collect)
    return hits


def test_reference_checker_passes_the_dimension_4_sweep_hits(F2, F3, monkeypatch):
    hits = _collect_hits(oracle, monkeypatch)
    reports = [oracle_sweep(ctx, 4) for ctx in (F2, F3)]
    assert len(hits) == sum(i.brute_yes for r in reports for i in r.instances) > 0
    for w, pc in hits:
        assert check_witness(w, pc.p, pc.q) == [], (pc.p, pc.q)


def test_reference_checker_passes_criterion_8_hits(monkeypatch):
    hits = _collect_hits(acceptance, monkeypatch)
    assert acceptance.criterion_8().passed
    assert hits
    for w, pc in hits:
        assert check_witness(w, pc.p, pc.q) == [], (pc.p, pc.q)


def _short_dup_sweep(monkeypatch):
    """Cuts criteria 2-3's sweep to two quadratics and four r per field,
    and returns the (label, p, q, r) of its blocks in sweep order."""

    def short(ctx, degree):
        return list(monic_polys(ctx, degree))[:2]

    monkeypatch.setattr(acceptance, "monic_polys", short)
    return [
        (f"{spec} p={p} q={q} r={r}", p, q, r)
        for spec in ("GF(2)", "GF(3)", "GF(5)")
        for p, q in itertools.product(short(field_make(spec), 2), repeat=2)
        for r in short(field_make(spec), 1) + short(field_make(spec), 2)
    ]


def test_dup_sweep_runs_one_factor_check_per_block(monkeypatch):
    blocks = _short_dup_sweep(monkeypatch)
    calls = []

    def counted(M):
        calls.append(M.rows)
        return invariant_factors(M)

    for module in (acceptance, witness):
        monkeypatch.setattr(module, "invariant_factors", counted)
    sweep = acceptance._dup_sweep(None)
    assert sweep["total"] == len(blocks) == 48
    assert sweep["witness_bad"] == sweep["relation_bad"] == []
    assert calls == [4 * r.degree for _, _, _, r in blocks]


def test_dup_sweep_records_a_block_with_wrong_factors(monkeypatch):
    # the first GF(3) block's own factor check fails: the sweep goes on and
    # lists that block as failing both criteria
    blocks = _short_dup_sweep(monkeypatch)
    bad = next(label for label, p, _, _ in blocks if p.ctx == field_make("GF(3)"))
    wrong = []

    def first_gf3_block_wrong(M):
        inv = invariant_factors(M)
        if not wrong and M.ctx == field_make("GF(3)"):
            wrong.append(M)
            return dataclasses.replace(
                inv, factors=inv.factors[:1], dimension=inv.dimension // 2
            )
        return inv

    monkeypatch.setattr(witness, "invariant_factors", first_gf3_block_wrong)
    sweep = acceptance._dup_sweep(None)
    assert len(wrong) == 1
    assert sweep["total"] == len(blocks)
    assert sweep["witness_bad"] == sweep["relation_bad"] == [bad]
    assert not acceptance.criterion_2(shared={"dup": sweep}).passed
    assert not acceptance.criterion_3(shared={"dup": sweep}).passed


def test_compose_witness_mixed_routes(F3):
    # p = q = t^2 - 1 over GF(3): one sigma-decomposable factor handled by a
    # duplication block, one residual factor handled by brute force
    pc = pair_context(parse_poly(F3, "t^2-1"), parse_poly(F3, "t^2-1"))
    v = direct_sum(companion(parse_poly(F3, "t^2+2")), Mat.from_ints(F3, [[2]]))
    w = compose_witness(v, pc)
    assert w is not None
    assert w.dimension == 6
    assert verify_witness(w, pc).ok
    # the witness realizes a pair isometric to S(v): doubled factors of v
    assert invariant_factors(w.U).doubled_halves() == invariant_factors(v).factors


def test_compose_witness_checks_each_fact_once(F3, monkeypatch, cold):
    # two duplication-block factors (t^2+2 twice) and a brute-forced
    # residual (t+1): one SNF of v, one verification of the direct sum
    cold(F3)
    pc = pair_context(parse_poly(F3, "t^2-1"), parse_poly(F3, "t^2-1"))
    c = companion(parse_poly(F3, "t^2+2"))
    v = direct_sum(c, c, Mat.from_ints(F3, [[2]]))
    verified, snf_of_v = [], []

    def counting_verify(w, pctx):
        verified.append(w.dimension)
        return verify_witness(w, pctx)

    def counting_snf(M):
        if M is v:
            snf_of_v.append(M)
        return invariant_factors(M)

    monkeypatch.setattr(witness, "verify_witness", counting_verify)
    monkeypatch.setattr(witness, "invariant_factors", counting_snf)
    monkeypatch.setattr(decide, "invariant_factors", counting_snf)
    w = compose_witness(v, pc)
    assert w is not None and w.dimension == 10
    assert verified == [10]  # the assembled witness only, no block on its own
    assert len(snf_of_v) == 1


def test_wrong_symmetrizer_is_caught(Q, monkeypatch):
    # the identity is symmetric but does not symmetrize C(r) for
    # r = t^2+3t+5, so H*A is not alternating; verify_witness must catch it
    pc = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+1"))
    r = parse_poly(Q, "t^2+3*t+5")
    monkeypatch.setattr(
        witness, "frobenius_symmetrizer", lambda f: Mat.identity(Q, f.degree)
    )
    with pytest.raises(ConstructionInvariantViolated):
        duplication_witness(pc, r)
    with pytest.raises(ConstructionInvariantViolated):
        compose_witness(companion(r.compose(pc.sigma)), pc)


def test_compose_witness_decision_no_raises(Q):
    pc = pair_context(parse_poly(Q, "t^2-1"), parse_poly(Q, "t^2-1"))
    two = Poly(Q, (Q.from_int(-2), Q.one))
    with pytest.raises(DecisionWasNo) as info:
        compose_witness(companion(two ** 2), pc)
    assert info.value.report is not None and not info.value.report.ok


def test_compose_witness_residual_over_infinite_field_is_none(Q):
    # YES instance whose factor is not a polynomial in sigma: no implemented
    # construction over Q, so the witness is declined while the decision stands
    pc = pair_context(parse_poly(Q, "t^2-1"), parse_poly(Q, "t^2-1"))
    v = Mat.from_ints(Q, [[2]])
    assert compose_witness(v, pc) is None


def test_compose_witness_residual_bound(F3):
    pc = pair_context(parse_poly(F3, "t^2-1"), parse_poly(F3, "t^2-1"))
    v = Mat.from_ints(F3, [[2]])
    assert compose_witness(v, pc, bound=1) is None  # residual needs dim 2
    assert compose_witness(v, pc, bound=2) is not None


def test_brute_force_golden_first_hit(F3):
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    P = symplectic_extension(Mat.zeros(F3, 2))
    w = brute_force_witness(P, pc)
    assert w.U1 == Mat.from_ints(
        F3, [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    )
    assert w.U2 == w.U1  # U = 0
    assert verify_witness(w, pc).ok


def test_grams_are_built_and_inverted_once(F3, monkeypatch):
    inverted = []
    inverse = Mat.inverse
    monkeypatch.setattr(Mat, "inverse", lambda M: inverted.append(M) or inverse(M))
    witness._gram_inverse.cache_clear()
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    # equal fields and sizes share one Gram; each distinct Gram is inverted once
    assert standard_gram(F3, 2) is standard_gram(field_make("GF(3)"), 2)
    found = [brute_force_witness(symplectic_extension(v), pc)
             for v in (Mat.zeros(F3, 2), Mat.zeros(F3, 2), Mat.identity(F3, 2))]
    assert found[0] == found[1] is not None
    B = Mat.from_ints(F3, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])
    for _ in range(2):
        brute_force_witness(SymplecticPair(B, Mat.zeros(F3, 4)), pc)
    assert inverted == [standard_gram(F3, 2), B]


def _sampled_instances(ctx, pair_dim, count, seed):
    """``count`` seeded draws of (pctx, pair) from the instances of
    ``oracle_sweep(ctx, pair_dim)``."""
    quads = list(monic_polys(ctx, 2))
    chains = admissible_chains(ctx, pair_dim // 2)
    rng = random.Random(seed)
    for _ in range(count):
        pc = pair_context(rng.choice(quads), rng.choice(quads))
        chain = rng.choice(chains)
        yield pc, symplectic_extension(direct_sum(*(companion(f) for f in chain)))


def _assert_agrees_with_reference(instances):
    """The chunked search returns the reference search's first witness, or
    None where the reference finds none; returns the number of witnesses."""
    hits = 0
    for pc, P in instances:
        a = brute_force_witness(P, pc, bound=P.dimension)
        b = _generic_search(P, pc)
        if b is None:
            assert a is None
        else:
            assert a is not None
            assert (a.U1, a.U2) == (b.U1, b.U2)
            hits += 1
    return hits


def test_prime_and_generic_search_agree(F2, F3):
    cases = [
        # YES instances: the first hit must be identical
        (F3, "t^2+1", "t^2+1", Mat.zeros(F3, 2)),
        (F2, "t^2+t+1", "t^2+t+1", Mat.zeros(F2, 2)),
        # decided-NO instance: both searches must exhaust
        (F3, "t^2+1", "t^2+2", companion(parse_poly(F3, "t+1"))),
    ]
    instances = [
        (pair_context(parse_poly(ctx, pt), parse_poly(ctx, qt)),
         symplectic_extension(v))
        for ctx, pt, qt, v in cases
    ]
    assert _assert_agrees_with_reference(instances) == 2
    # extension fields: every GF(4) dimension-2 sweep instance, and seeded
    # samples of GF(8) and GF(9) in dimension 2 and of GF(4) in dimension 4
    F4 = field_make("GF(4)|t^2+t+1")
    F8 = field_make("GF(8)|t^3+t+1")
    F9 = field_make("GF(9)|t^2+1")
    assert _assert_agrees_with_reference(_sweep_instances(F4, 2)) == 232
    assert _assert_agrees_with_reference(_sampled_instances(F8, 2, 300, 8)) == 28
    assert _assert_agrees_with_reference(_sampled_instances(F9, 2, 300, 9)) == 41
    assert _assert_agrees_with_reference(_sampled_instances(F4, 4, 60, 4)) == 23


def test_brute_force_no_instance_returns_none(F3):
    # size-2 cell at +2, nothing at -2: decided NO, so the search must fail
    pc = pair_context(parse_poly(F3, "t^2-1"), parse_poly(F3, "t^2-1"))
    two = Poly(F3, (F3.from_int(-2), F3.one))
    P = symplectic_extension(companion(two ** 2))
    assert brute_force_witness(P, pc) is None
    # the linear condition leaves one candidate, and p(U1) = 0 rejects it
    assert _solution_space(P.B, P.U, pc)[1] == []
    # p = t^2, q = t^2+t, v = t+1: the linear condition has no solution at
    # all, so nothing is enumerated
    pc = pair_context(parse_poly(F3, "t^2"), parse_poly(F3, "t^2+t"))
    P = symplectic_extension(companion(parse_poly(F3, "t+1")))
    assert _solution_space(P.B, P.U, pc) is None
    assert brute_force_witness(P, pc) is None


def _full_prime_search(P, pctx, chunk=1 << 15):
    """Reference: every alternating Gram M in lexicographic order of its
    strict upper triangle, U1 = B^{-1} * M, no linear prefilter."""
    ctx = P.ctx
    pr = ctx.characteristic
    n = P.dimension
    k = n * (n - 1) // 2
    to_np = lambda m: np.array(
        [[int(e) for e in row] for row in m.entries], dtype=np.int64
    )
    Bnp = to_np(P.B)
    Binv = to_np(P.B.inverse())
    Unp = to_np(P.U)
    ident = np.eye(n, dtype=np.int64)
    p0, p1 = int(pctx.p.coeffs[0]), int(pctx.p.coeffs[1])
    q0, q1 = int(pctx.q.coeffs[0]), int(pctx.q.coeffs[1])
    iu = np.triu_indices(n, 1)
    pows = pr ** np.arange(k - 1, -1, -1, dtype=np.int64)
    total = pr**k
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        vals = (idx[:, None] // pows[None, :]) % pr
        M = np.zeros((len(idx), n, n), dtype=np.int64)
        M[:, iu[0], iu[1]] = vals
        M[:, iu[1], iu[0]] = (-vals) % pr
        U1 = np.einsum("ij,cjk->cik", Binv, M) % pr
        PU1 = (U1 @ U1 + p1 * U1 + p0 * ident) % pr
        hits = np.nonzero((PU1 == 0).all(axis=(1, 2)))[0]
        for c in hits:
            U1c = U1[c]
            U2 = (U1c - Unp) % pr
            if ((U2 @ U2 + q1 * U2 + q0 * ident) % pr).any():
                continue
            BU2 = (Bnp @ U2) % pr
            if ((BU2 + BU2.T) % pr).any() or np.diag(BU2).any():
                continue
            return Witness(
                B=P.B,
                U=P.U,
                U1=Mat.from_ints(ctx, U1c.tolist()),
                U2=Mat.from_ints(ctx, U2.tolist()),
            )
    return None


def _sweep_instances(ctx, pair_dim):
    """(pctx, pair) for every instance of ``oracle_sweep(ctx, pair_dim)``."""
    chains = admissible_chains(ctx, pair_dim // 2)
    for p in monic_polys(ctx, 2):
        for q in monic_polys(ctx, 2):
            pc = pair_context(p, q)
            for chain in chains:
                v = direct_sum(*(companion(f) for f in chain))
                yield pc, symplectic_extension(v)


def _assert_same_first_hit(instances, pair_dim):
    """The linearized search returns the full enumeration's first witness,
    or None where it finds none; returns the number of witnesses."""
    found = 0
    for pc, P in instances:
        got = brute_force_witness(P, pc, bound=pair_dim)
        want = _full_prime_search(P, pc)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.U1, got.U2) == (want.U1, want.U2)
            found += 1
    return found


def test_linearized_search_matches_full_enumeration(F2, F3):
    # every GF(3) and GF(2) dimension-4 sweep instance
    assert _assert_same_first_hit(_sweep_instances(F3, 4), 4) == 414
    assert _assert_same_first_hit(_sweep_instances(F2, 4), 4) == 59


def test_linearized_search_matches_full_enumeration_dim6(F2):
    # a seeded sample of the GF(2) dimension-6 sweep, plus the eight sweep
    # instances whose linear system leaves all 15 coordinates free: scalar
    # v (0 or I3) with the (p, q) for which the condition is vacuous
    instances = list(_sweep_instances(F2, 6))
    spaces = [_solution_space(P.B, P.U, pc) for pc, P in instances]
    free15 = [
        inst for inst, space in zip(instances, spaces)
        if space is not None and len(space[1]) == 15
    ]
    assert len(free15) == 8
    assert all(P.U.is_zero or P.U == Mat.identity(F2, 6) for _, P in free15)
    sample = random.Random(6).sample(instances, 10)
    assert _assert_same_first_hit(sample + free15, 6) == 3 + 6
    # v = I3, p = t^2+1, q = t^2: with every coordinate free, the index of
    # a candidate is its upper triangle of M = B*U1 read in base 2; 1184
    # lies in the fifth chunk of the doubling scan
    pc = pair_context(parse_poly(F2, "t^2+1"), parse_poly(F2, "t^2"))
    P = symplectic_extension(Mat.identity(F2, 3))
    M = P.B @ brute_force_witness(P, pc, bound=6).U1
    upper = [int(M.entries[a][b]) for a in range(6) for b in range(a + 1, 6)]
    assert int("".join(map(str, upper)), 2) == 1184


def test_prime_search_over_a_prime_near_1000(monkeypatch):
    # U = u*I with q(t) = p(t + u), so that the linear condition is
    # vacuous: the one coordinate x of U1 = x*B^{-1}*E is free, and the
    # first hit is the first root of p in that order (or none)
    F = field_make("GF(997)")
    chunks = []
    digits = witness._digits
    monkeypatch.setattr(
        witness, "_digits", lambda *a: chunks.append(a) or digits(*a)
    )
    hits = 0
    for pt, qt in [
        ("(t-700)*(t-900)", "(t-695)*(t-895)"),
        ("t^2+1", "t^2+10*t+26"),
        ("t^2-5", "t^2+10*t+20"),  # 5 is not a square mod 997
    ]:
        pc = pair_context(parse_poly(F, pt), parse_poly(F, qt))
        P = symplectic_extension(Mat.identity(F, 1).scale(F.from_int(5)))
        assert len(_solution_space(P.B, P.U, pc)[1]) == 1
        chunks.clear()
        a = brute_force_witness(P, pc)
        b = _generic_search(P, pc)
        if a is None:
            assert b is None
            # all 997 candidates in chunks of 64, 128, 256, 512 and the
            # rest (p > 64 leaves no low coordinates to tabulate)
            assert len(chunks) == 5
        else:
            assert b is not None and (a.U1, a.U2) == (b.U1, b.U2)
            hits += 1
    assert hits == 2
    # over GF(100003) the chunks stop doubling at 2^15 candidates: 12
    # chunks, not one per value of the coordinate
    F = field_make("GF(100003)")
    pc = pair_context(parse_poly(F, "t^2-5"), parse_poly(F, "t^2+10*t+20"))
    P = symplectic_extension(Mat.identity(F, 1).scale(F.from_int(5)))
    chunks.clear()
    assert brute_force_witness(P, pc) is None
    assert len(chunks) == 12


def test_extension_field_chunks_keep_the_prime_field_size(monkeypatch):
    # over GF(16) a candidate is a 16 x 16 matrix over GF(2), 16 times the
    # entries of a 4 x 4 one, so a chunk holds 16 times fewer candidates
    # than over a prime field; U = I with q(t) = p(t + 1) leaves all six
    # coordinates free, and the first hit lies past the point where the
    # chunks stop doubling
    F = field_make("GF(16)|t^4+t+1")
    p = parse_poly(F, "t^2+t+1")
    pc = pair_context(p, p.compose(Poly.t(F) + Poly.constant(F, F.one)))
    P = symplectic_extension(Mat.identity(F, 2))
    assert len(_solution_space(P.B, P.U, pc)[1]) == 6
    sizes = []
    digits = witness._digits
    monkeypatch.setattr(
        witness, "_digits", lambda *a: sizes.append(len(a[0])) or digits(*a)
    )
    w = brute_force_witness(P, pc)
    assert w is not None and verify_witness(w, pc).ok
    # the first call tabulates the 2^6 lowest digits; each later one is a
    # chunk of values of the high digits, 64 candidates each
    low, chunks = sizes[0], sizes[1:]
    assert low == 64
    assert chunks[:6] == [1, 2, 4, 8, 16, 32]
    assert max(chunks) * low * 4 * 4 == witness._LAST_CHUNK


def test_brute_force_over_a_large_prime_field():
    # over GF(2^61 - 1) products of two field elements overflow int64; the
    # linear system leaves one candidate, and it is a witness
    F = field_make("GF(2305843009213693951)")
    t2m1 = parse_poly(F, "t^2-1")
    pc = pair_context(t2m1, t2m1)
    P = symplectic_extension(companion(parse_poly(F, "t-2")))
    _, directions = _solution_space(P.B, P.U, pc)
    assert directions == []
    w = brute_force_witness(P, pc)
    assert w is not None
    assert mat_poly_eval(t2m1, w.U1).is_zero
    assert mat_poly_eval(t2m1, w.U2).is_zero
    assert w.U1 - w.U2 == P.U


def test_brute_force_over_a_large_prime_field_with_a_free_coordinate():
    # over GF(2^61 - 1) with p = t^2-1, q = (t+4)(t+6) and U = 5*I the
    # linear system leaves one free coordinate x, U1 = -x*I: the scan runs
    # on exact Python ints and stops at its first hit, x = 1
    F = field_make("GF(2305843009213693951)")
    pc = pair_context(parse_poly(F, "t^2-1"), parse_poly(F, "(t+4)*(t+6)"))
    P = symplectic_extension(companion(parse_poly(F, "t-5")))
    assert len(_solution_space(P.B, P.U, pc)[1]) == 1
    start = time.monotonic()
    w = brute_force_witness(P, pc)
    assert time.monotonic() - start < 1.0
    assert w is not None and verify_witness(w, pc).ok
    assert w.U1 == Mat.identity(F, 2).scale(F.from_int(-1))


def test_brute_force_guards(Q, F3):
    pc_q = pair_context(parse_poly(Q, "t^2+1"), parse_poly(Q, "t^2+1"))
    with pytest.raises(InfiniteField):
        brute_force_witness(symplectic_extension(Mat.zeros(Q, 1)), pc_q)
    pc_3 = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    big = symplectic_extension(Mat.zeros(F3, DEFAULT_SEARCH_BOUND))
    with pytest.raises(DimensionBoundExceeded):
        brute_force_witness(big, pc_3)


def test_brute_force_rejects_a_pair_over_another_field(F3):
    # a GF(3) pair against a GF(7) context raises, as decide_pair does,
    # instead of a None that reads as a NO
    F7 = field_make("GF(7)")
    pc = pair_context(parse_poly(F7, "t^2+1"), parse_poly(F7, "t^2+1"))
    for n in (1, 2):
        P = symplectic_extension(Mat.zeros(F3, n))
        with pytest.raises(MixedFieldContexts):
            decide.decide_pair(P, pc)
        with pytest.raises(MixedFieldContexts):
            brute_force_witness(P, pc)


def test_brute_force_rejects_a_gram_that_is_not_alternating(F2, F3):
    # the k-equation system needs B alternating; a singular Gram still
    # raises from the inverse, and an invertible Gram that is not
    # alternating raises instead of returning a witness that
    # verify_witness rejects
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    with pytest.raises(SingularMatrix):
        brute_force_witness(SymplecticPair(Mat.zeros(F3, 2), Mat.zeros(F3, 2)), pc)
    for ctx, gram, pt in [
        (F2, [[1, 0], [0, 1]], "t^2"),  # symmetric is skew in char 2
        (F3, [[0, 1], [1, 0]], "t^2-1"),
    ]:
        pc = pair_context(parse_poly(ctx, pt), parse_poly(ctx, pt))
        P = SymplecticPair(Mat.from_ints(ctx, gram), Mat.zeros(ctx, 2))
        with pytest.raises(InvalidPair):
            brute_force_witness(P, pc)


def test_brute_force_without_b_u_alternating_returns_none_at_once(F3, monkeypatch):
    # B*U = B*U1 - B*U2 is alternating for every witness, so a U without it
    # has none, and the linear system is not even built
    monkeypatch.setattr(witness, "_solution_space", lambda *a: pytest.fail("built"))
    pc = pair_context(parse_poly(F3, "t^2"), parse_poly(F3, "t^2"))
    B = symplectic_extension(Mat.zeros(F3, 2)).B
    U = Mat.from_ints(F3, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert not is_alternating(B @ U)
    assert brute_force_witness(SymplecticPair(B, U), pc) is None


def _congruent_instances(ctx, pair_dim, count, seed):
    """``count`` seeded sweep instances moved by a random change of basis
    T: (T^T * B * T, T^{-1} * U * T), whose Gram is not the standard one."""
    rng = random.Random(seed)
    elements = list(ctx.elements())
    for pc, P in _sampled_instances(ctx, pair_dim, count, seed):
        T = Mat.zeros(ctx, pair_dim)
        while not T.is_invertible():
            T = Mat(ctx, [[rng.choice(elements) for _ in range(pair_dim)]
                          for _ in range(pair_dim)])
        yield pc, SymplecticPair(T.transpose() @ P.B @ T, T.inverse() @ P.U @ T)


def test_alternating_system_matches_the_n2_system(F2, F3, F5):
    # the k strict-upper equations give the same (base, directions) as the
    # n^2 entries of q(U1 - U), or None with them: the consistent systems
    # have one solution set, and an rref depends only on it and the
    # column order
    F4 = field_make("GF(4)|t^2+t+1")
    F9 = field_make("GF(9)|t^2+1")

    def consistent(instances):
        spaces = [
            (_solution_space(P.B, P.U, pc), _n2_solution_space(P.B.inverse(), P.U, pc))
            for pc, P in instances
        ]
        assert all(new == old for new, old in spaces)
        return sum(new is not None for new, _ in spaces)

    assert consistent(_sweep_instances(F3, 4)) == 810
    assert consistent(_sweep_instances(F2, 6)) == 148
    for ctx, seed in [(F5, 5), (F4, 4), (F9, 9)]:
        for pair_dim, count in [(2, 60), (4, 30), (6, 6)]:
            instances = _congruent_instances(ctx, pair_dim, count, seed)
            assert consistent(instances) > count // 2


def test_brute_force_candidate_cap(F5):
    # 5^28 alternating Grams in dimension 8 do not fit the int64 index
    pc = pair_context(parse_poly(F5, "t^2"), parse_poly(F5, "t^2"))
    v = Mat.zeros(F5, 4)
    start = time.monotonic()
    with pytest.raises(DimensionBoundExceeded):
        brute_force_witness(symplectic_extension(v), pc, bound=8)
    assert compose_witness(v, pc, bound=8) is None  # decided YES, no search
    assert time.monotonic() - start < 5.0


def test_candidate_cap_counts_only_the_solution_space(F5):
    # dimension 8 has 5^28 >= 2^63 alternating Grams, but the linear
    # system leaves a single candidate, so the residual is searched
    pc = pair_context(parse_poly(F5, "t^2-1"), parse_poly(F5, "t^2-1"))
    v = Mat.identity(F5, 4).scale(2)
    P = symplectic_extension(v)
    assert _solution_space(P.B, P.U, pc)[1] == []
    w = compose_witness(v, pc, bound=8)
    assert w is not None and verify_witness(w, pc).ok


def test_brute_force_trivial_pair(F3):
    pc = pair_context(parse_poly(F3, "t^2+1"), parse_poly(F3, "t^2+1"))
    empty = Mat(F3, [])
    w = brute_force_witness(
        symplectic_extension(Mat(F3, [], cols=0)), pc
    )
    assert w is not None and w.dimension == 0
    assert verify_witness(w, pc).ok
