"""Case classification and the decision procedure.

Whether a symplectic pair is a symplectic (p,q)-difference depends only on
the invariant factors of its endomorphism.  The decision splits into a
regular criterion (every invariant factor of the part coprime to the
fundamental quartic F_{p,q} must be a polynomial in sigma = t^2 - delta*t)
and an exceptional criterion that depends on how p and q factor: always-yes
families, intertwining inequalities between Jordan or primary count
sequences, and evenness conditions on cell counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    ConstructionInvariantViolated,
    InvalidArgument,
    MixedFieldContexts,
    NotNonIncreasing,
    WrongDegree,
)
from .fields import FieldCtx
from .linalg import Mat, exact_cell_counts, invariant_factors
from .poly import (
    Poly,
    decompose_base_sigma,
    delta_of,
    fundamental_poly,
    lambda_poly,
    roots_in_field,
    sigma_poly,
    trace_of,
)
from .sympform import SymplecticPair, require_valid


class Family(enum.Enum):
    """Factorization pattern of (p, q), after normalization."""

    SPLIT_DOUBLE_DOUBLE = "split-double-double"
    SPLIT_SIMPLE_SIMPLE = "split-simple-simple"
    SPLIT_MIXED = "split-mixed"
    IRR_SPLIT_EQ = "irreducible-split-equal-translates"
    IRR_SPLIT_NEQ = "irreducible-split-distinct-translates"
    IRR_SAME_FIELD = "irreducible-same-splitting-field"
    IRR_DISTINCT_GENERIC = "irreducible-distinct-fields-generic"
    IRR_DISTINCT_INSEP = "irreducible-distinct-fields-inseparable"
    IRR_DISTINCT_SPECIAL = "irreducible-distinct-fields-special"

    @property
    def always_yes(self) -> bool:
        return self in (
            Family.SPLIT_DOUBLE_DOUBLE,
            Family.IRR_SPLIT_EQ,
            Family.IRR_DISTINCT_GENERIC,
            Family.IRR_DISTINCT_INSEP,
        )


# the split families whose root pairs {z, delta - z} carry intertwined
# Jordan counts, with the shift: a_{n+shift} <= b_n and b_{n+shift} <= a_n;
# their indecomposable block pairs have sizes (n + j, n) for j <= shift.
ROOT_PAIR_SHIFT = {Family.SPLIT_SIMPLE_SIMPLE: 1, Family.SPLIT_MIXED: 2}


@dataclass(frozen=True)
class CaseTag:
    family: Family
    swapped: bool
    # roots (y1, y2) of the normalized split q when the normalized p is
    # irreducible
    ys: Optional[Tuple[object, object]] = None
    # base-field translation shifts z with q(t) = p(t+z), same-field case
    zs: Optional[Tuple[object, ...]] = None


@dataclass(frozen=True)
class PairCtx:
    """A (p, q) instance with its derived data.

    p_norm, q_norm are (q(-t), p(-t)) when the classification applied the
    swap symmetry, else (p, q); F, Lam and delta are swap-invariant.
    Lam_roots are the base-field roots of Lam with multiplicity, F_roots
    the distinct base-field roots of F, both in ``sort_key`` order.
    """

    p: Poly
    q: Poly
    p_norm: Poly
    q_norm: Poly
    case: CaseTag
    F: Poly
    Lam: Poly
    delta: object
    Lam_roots: Tuple[object, ...]
    F_roots: Tuple[object, ...]

    @property
    def ctx(self) -> FieldCtx:
        return self.p.ctx

    @property
    def sigma(self) -> Poly:
        return sigma_poly(self.ctx, self.delta)


@dataclass(frozen=True)
class RegularEvidence:
    factor: str
    regular_factor: str
    base_sigma: Optional[str]  # r with regular_factor = r(t^2 - delta*t)
    ok: bool


@dataclass(frozen=True)
class DecisionReport:
    ok: bool
    regular_ok: bool
    exceptional_ok: bool
    case: CaseTag
    dimension: int
    invariant_factors: Tuple[Poly, ...]
    regular: Tuple[RegularEvidence, ...]
    exceptional: Dict[str, object]
    failing_evidence: Optional[str] = None
    pair_level: Optional[Dict[str, object]] = None

    @property
    def verdict(self) -> str:
        return "yes" if self.ok else "no"


def _require_quadratic(f: Poly, name: str) -> None:
    if f.degree != 2 or not f.is_monic:
        raise WrongDegree(f"{name} must be monic of degree 2, got {f}")


def _fmt(ctx: FieldCtx, x) -> str:
    return str(Poly.constant(ctx, x))


def swap_pair(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    """(p, q) -> (q(-t), p(-t)); a pair difference for one is one for the
    other, with the same endomorphism."""
    ctx = p.ctx
    neg_t = Poly(ctx, (ctx.zero, ctx.neg(ctx.one)))
    return q.compose(neg_t), p.compose(neg_t)


def classify_case(p: Poly, q: Poly) -> CaseTag:
    """Deterministic classification of the (p, q) instance."""
    return pair_context(p, q).case


def _classify(p: Poly, q: Poly, p_roots, q_roots, Lam_roots, F_roots) -> CaseTag:
    """The case of (p, q) from the base-field roots of p, q, Lam and F.

    The swap symmetry is applied exactly when {p split, q irreducible} or
    {p double root, q simple roots}.  The swapped pair (q(-t), p(-t)) has
    the negated roots.

    Two irreducible quadratics share a splitting field exactly when
    Lam = lambda_poly(p, q) has a root in F.  Its roots are s1 = sigma(x - y)
    and s2 = sigma(x - y') for a root x of p and the roots y, y' of q, and
    s1 - s2 = (y' - y)(x - x').  In a shared field conjugation fixes both.
    Otherwise, for p and q separable, an automorphism of the compositum
    swaps them and they differ, so neither lies in F.  In characteristic 2,
    if exactly one of p, q is inseparable, s1 = s2 = alpha + beta + c*r lies
    outside F (c the nonzero trace, r the root of the inseparable one).  If
    both are, s1 = alpha + beta lies in F, and the rule relies on
    [F : F^2] <= 2 (true over GF(2^k) and GF(2)(s)): both then split over
    F^(1/2).  The shifts z with q(t) = p(t + z) are the in-field roots of
    F = Lam(sigma).
    """
    ctx = p.ctx
    swapped = bool(p_roots) and (
        not q_roots or (p_roots[0] == p_roots[1] and q_roots[0] != q_roots[1])
    )
    if swapped:  # q(-t) has roots -q_roots: only their split/double pattern is read
        p, q = swap_pair(p, q)
        p_roots, q_roots = q_roots, sorted(map(ctx.neg, p_roots), key=ctx.sort_key)
    if p_roots and q_roots:
        p_double = p_roots[0] == p_roots[1]
        q_double = q_roots[0] == q_roots[1]
        if p_double and q_double:
            return CaseTag(Family.SPLIT_DOUBLE_DOUBLE, swapped)
        if not p_double and not q_double:
            return CaseTag(Family.SPLIT_SIMPLE_SIMPLE, swapped)
        return CaseTag(Family.SPLIT_MIXED, swapped)
    if q_roots:
        y1, y2 = q_roots
        if p.translate(y1) == p.translate(y2):
            return CaseTag(Family.IRR_SPLIT_EQ, swapped, ys=(y1, y2))
        return CaseTag(Family.IRR_SPLIT_NEQ, swapped, ys=(y1, y2))
    # both irreducible
    if Lam_roots:
        return CaseTag(Family.IRR_SAME_FIELD, swapped, zs=F_roots)
    if ctx.characteristic == 2:
        lam, mu = trace_of(p), trace_of(q)
        if ctx.is_zero(lam) and ctx.is_zero(mu):
            return CaseTag(Family.IRR_DISTINCT_INSEP, swapped)
        if lam == mu:
            return CaseTag(Family.IRR_DISTINCT_SPECIAL, swapped)
    return CaseTag(Family.IRR_DISTINCT_GENERIC, swapped)


def pair_context(p: Poly, q: Poly) -> PairCtx:
    """Classify (p, q) and derive its invariants, solving each of p, q and
    Lam once.  A root z of F has z^2 - delta*z = s for a root s of Lam, so
    F's roots are those of t^2 - delta*t - s over the distinct s: two
    quadratic stages instead of a quartic."""
    p._check(q)
    _require_quadratic(p, "p")
    _require_quadratic(q, "q")
    ctx = p.ctx
    F = fundamental_poly(p, q)
    Lam = lambda_poly(p, q)
    delta = delta_of(p, q)
    sigma = sigma_poly(ctx, delta)
    if Lam.compose(sigma) != F:
        raise ConstructionInvariantViolated(
            f"factorization identity fails for p={p}, q={q}"
        )
    Lam_roots = tuple(roots_in_field(Lam))
    F_roots = []
    for s in dict.fromkeys(Lam_roots):
        F_roots += roots_in_field(sigma - Poly.constant(ctx, s))
    F_roots = tuple(sorted(dict.fromkeys(F_roots), key=ctx.sort_key))
    tag = _classify(p, q, roots_in_field(p), roots_in_field(q), Lam_roots, F_roots)
    p_norm, q_norm = swap_pair(p, q) if tag.swapped else (p, q)
    return PairCtx(
        p=p, q=q, p_norm=p_norm, q_norm=q_norm, case=tag, F=F, Lam=Lam,
        delta=delta, Lam_roots=Lam_roots, F_roots=F_roots,
    )


# ----------------------------------------------------------------------
# count sequences and intertwining
# ----------------------------------------------------------------------


def _as_count_sequence(seq: Sequence[int]) -> Tuple[int, ...]:
    out = tuple(int(n) for n in seq)
    if any(n < 0 for n in out):
        raise NotNonIncreasing(f"negative count in {out}")
    if any(a < b for a, b in zip(out, out[1:])):
        raise NotNonIncreasing(f"{out} is not non-increasing")
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def intertwined(a: Sequence[int], b: Sequence[int], shift: int) -> bool:
    """a_{n+shift} <= b_n and b_{n+shift} <= a_n for all n >= 1, for
    non-increasing, eventually-zero count sequences."""
    if shift < 1:
        raise InvalidArgument("shift must be a positive integer")
    a = _as_count_sequence(a)
    b = _as_count_sequence(b)

    def get(s, i):  # 1-indexed, zero-padded
        return s[i - 1] if i <= len(s) else 0

    top = max(len(a), len(b))
    return all(
        get(a, n + shift) <= get(b, n) and get(b, n + shift) <= get(a, n)
        for n in range(1, top + 1)
    )


def factor_multiplicity(f: Poly, g: Poly) -> int:
    """Largest m with g^m dividing f."""
    m = 0
    while f.degree >= g.degree > 0:
        quo, rem = divmod(f, g)
        if not rem.is_zero:
            break
        f, m = quo, m + 1
    return m


def count_sequence(factors: Sequence[Poly], g: Poly) -> Tuple[int, ...]:
    """(n_1, n_2, ...): n_k = number of factors divisible by g^k."""
    mults = [factor_multiplicity(f, g) for f in factors]
    top = max(mults, default=0)
    return tuple(sum(1 for m in mults if m >= k) for k in range(1, top + 1))


def _strip_supported(f: Poly, F: Poly) -> Poly:
    """Remove from f every irreducible factor shared with F."""
    r = f
    while r.degree > 0:
        g = r.gcd(F)
        if g.degree == 0:
            break
        r = r // g
    return r


def _linear(ctx: FieldCtx, z) -> Poly:
    return Poly(ctx, (ctx.neg(z), ctx.one))


def _root_orbits(pctx: PairCtx):
    """Distinct base-field roots of F, grouped into {z, delta-z} pairs and
    fixed points of the involution."""
    ctx = pctx.ctx
    distinct = pctx.F_roots
    pairs, fixed, seen = [], [], []
    for z in distinct:
        if z in seen:
            continue
        w = ctx.sub(pctx.delta, z)
        if w == z:
            fixed.append(z)
            seen.append(z)
            continue
        if w not in distinct:
            raise ConstructionInvariantViolated(
                f"root {_fmt(ctx, z)} of F has partner outside the root set"
            )
        pairs.append((z, w))
        seen.extend((z, w))
    return pairs, fixed


def special_quadratic(pctx: PairCtx) -> Poly:
    """t^2 - (tr p) t + (p(0) + q(0)), the repeated irreducible factor of F
    in the characteristic-2 equal-nonzero-trace family."""
    ctx = pctx.ctx
    p, q = pctx.p_norm, pctx.q_norm
    return Poly(
        ctx,
        (ctx.add(p.coeffs[0], q.coeffs[0]), ctx.neg(trace_of(p)), ctx.one),
    )


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------


def _regular_evidence(pctx: PairCtx, factors: Sequence[Poly]):
    out = []
    ok = True
    failing = None
    for f in factors:
        r = _strip_supported(f, pctx.F)
        rep = decompose_base_sigma(r, pctx.delta)
        good = rep is not None
        out.append(
            RegularEvidence(
                factor=str(f),
                regular_factor=str(r),
                base_sigma=None if rep is None else str(rep),
                ok=good,
            )
        )
        if not good and failing is None:
            failing = (
                f"regular part {r} of invariant factor {f} is not a "
                f"polynomial in t^2-({_fmt(pctx.ctx, pctx.delta)})*t"
            )
            ok = False
    return tuple(out), ok, failing


def _odd_size_violations(factors: Sequence[Poly], g: Poly, m: int):
    """The exact cell counts of g among the factors, and the odd sizes
    whose count is not a multiple of m."""
    cells = exact_cell_counts(count_sequence(factors, g))
    return cells, [k for k in range(1, len(cells) + 1, 2) if cells[k - 1] % m]


def _exceptional_evidence(pctx: PairCtx, factors: Sequence[Poly]):
    family = pctx.case.family
    ctx = pctx.ctx
    if family.always_yes:
        return {"criterion": "none (always satisfied)"}, True, None
    if family in ROOT_PAIR_SHIFT:
        shift = ROOT_PAIR_SHIFT[family]
        pairs, fixed = _root_orbits(pctx)
        details = []
        ok = True
        failing = None
        for z, w in pairs:
            a = count_sequence(factors, _linear(ctx, z))
            b = count_sequence(factors, _linear(ctx, w))
            good = intertwined(a, b, shift)
            details.append(
                {
                    "at": _fmt(ctx, z),
                    "partner": _fmt(ctx, w),
                    "counts": list(a),
                    "partner_counts": list(b),
                    "ok": good,
                }
            )
            if not good and failing is None:
                failing = (
                    f"Jordan count sequences {list(a)} at {_fmt(ctx, z)} and "
                    f"{list(b)} at {_fmt(ctx, w)} are not {shift}-intertwined"
                )
                ok = False
        return (
            {
                "criterion": f"{shift}-intertwined Jordan counts on root pairs",
                "pairs": details,
                "unconstrained_fixed_points": [_fmt(ctx, z) for z in fixed],
            },
            ok,
            failing,
        )
    if family is Family.IRR_SPLIT_NEQ:
        y1, y2 = pctx.case.ys
        g1 = pctx.p_norm.translate(y1)
        g2 = pctx.p_norm.translate(y2)
        a = count_sequence(factors, g1)
        b = count_sequence(factors, g2)
        good = intertwined(a, b, 1)
        failing = None
        if not good:
            failing = (
                f"primary count sequences {list(a)} at {g1} and {list(b)} "
                f"at {g2} are not 1-intertwined"
            )
        return (
            {
                "criterion": "1-intertwined primary counts at the two "
                "translates of p",
                "translates": [str(g1), str(g2)],
                "counts": list(a),
                "partner_counts": list(b),
            },
            good,
            failing,
        )
    if family is Family.IRR_SAME_FIELD:
        details = []
        ok = True
        failing = None
        for z in pctx.case.zs:
            cells, bad = _odd_size_violations(factors, _linear(ctx, z), 2)
            details.append(
                {
                    "shift": _fmt(ctx, z),
                    "cell_counts": list(cells),
                    "odd_size_violations": bad,
                    "ok": not bad,
                }
            )
            if bad and failing is None:
                failing = (
                    f"{cells[bad[0] - 1]} Jordan cells of odd size {bad[0]} "
                    f"at eigenvalue {_fmt(ctx, z)}; an even count is required"
                )
                ok = False
        return (
            {
                "criterion": "even count of each odd Jordan cell size at "
                "every in-field translation shift",
                "shifts": details,
            },
            ok,
            failing,
        )
    if family is Family.IRR_DISTINCT_SPECIAL:
        g = special_quadratic(pctx)
        cells, bad = _odd_size_violations(factors, g, 2)
        failing = None
        if bad:
            failing = (
                f"{cells[bad[0] - 1]} invariant factors with {g}-primary "
                f"part of odd exponent {bad[0]}; an even count is required"
            )
        return (
            {
                "criterion": "even multiplicity of each odd power of the "
                "special quadratic among invariant factors",
                "quadratic": str(g),
                "exact_multiplicities": list(cells),
                "odd_exponent_violations": bad,
            },
            not bad,
            failing,
        )
    raise ConstructionInvariantViolated(f"unhandled family {family}")


def _decide(pctx: PairCtx, factors: Tuple[Poly, ...], dimension: int) -> DecisionReport:
    """The decision for an extension S(v) of the given dimension from the
    invariant factors of v."""
    regular, reg_ok, reg_fail = _regular_evidence(pctx, factors)
    exceptional, exc_ok, exc_fail = _exceptional_evidence(pctx, factors)
    failing = reg_fail if reg_fail is not None else exc_fail
    return DecisionReport(
        ok=reg_ok and exc_ok,
        regular_ok=reg_ok,
        exceptional_ok=exc_ok,
        case=pctx.case,
        dimension=dimension,
        invariant_factors=factors,
        regular=regular,
        exceptional=exceptional,
        failing_evidence=failing,
    )


def decide_extension(v: Mat, pctx: PairCtx) -> DecisionReport:
    """Decide whether the standard extension S(v) is a symplectic
    (p,q)-difference, from the invariant factors of v."""
    if v.ctx != pctx.ctx:
        raise MixedFieldContexts(f"{v.ctx} vs {pctx.ctx}")
    return _decide(pctx, invariant_factors(v).factors, v.rows)


def _pair_level_mod4(pctx: PairCtx, factors: Sequence[Poly]):
    """Evenness criteria recomputed on the pair's own (doubled) invariant
    factors: the relevant counts must be multiples of 4."""
    ctx = pctx.ctx
    family = pctx.case.family
    if family is Family.IRR_SAME_FIELD:
        details = []
        ok = True
        for z in pctx.case.zs:
            cells, bad = _odd_size_violations(factors, _linear(ctx, z), 4)
            details.append(
                {
                    "shift": _fmt(ctx, z),
                    "cell_counts": list(cells),
                    "odd_size_violations": bad,
                }
            )
            ok = ok and not bad
        return ok, {
            "criterion": "odd-size Jordan cell counts at in-field shifts "
            "are multiples of 4",
            "shifts": details,
        }
    if family is Family.IRR_DISTINCT_SPECIAL:
        g = special_quadratic(pctx)
        cells, bad = _odd_size_violations(factors, g, 4)
        return (
            not bad,
            {
                "criterion": "odd-power multiplicities of the special "
                "quadratic are multiples of 4",
                "quadratic": str(g),
                "exact_multiplicities": list(cells),
                "odd_exponent_violations": bad,
            },
        )
    return None, None


def decide_pair(P: SymplecticPair, pctx: PairCtx) -> DecisionReport:
    """Decide a symplectic pair: halve the doubled invariant factors of U,
    which are those of the v with P isometric to S(v), decide from them,
    and cross-check the pair-level multiple-of-4 criteria where the family
    has one."""
    inv = require_valid(P.B, P.U).invariant_factors
    if P.ctx != pctx.ctx:
        raise MixedFieldContexts(f"{P.ctx} vs {pctx.ctx}")
    report = _decide(pctx, inv.doubled_halves(), inv.dimension // 2)
    pair_ok, pair_ev = _pair_level_mod4(pctx, inv.factors)
    if pair_ok is None:
        return report
    if pair_ok != report.exceptional_ok:
        raise ConstructionInvariantViolated(
            "pair-level multiple-of-4 criterion disagrees with the halved "
            f"extension decision: {pair_ev}"
        )
    return replace(report, pair_level=pair_ev)
