"""Case classification and the decision procedure.

Whether a symplectic pair is a symplectic (p,q)-difference depends only on
the invariant factors of its endomorphism.  The decision splits into a
regular criterion (every invariant factor of the part coprime to the
fundamental quartic F_{p,q} must be a polynomial in sigma = t^2 - delta*t)
and an exceptional criterion that depends on how p and q factor: always-yes
families, intertwining inequalities between Jordan or primary count
sequences, and evenness conditions on cell counts.  ``exceptional_shapes``
is the one place that names each family's exceptional polynomials and
their criteria; the decision and the catalogue (``atlas``) both read it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

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
class Shape:
    """An exceptional polynomial g of a family and its criterion.

    With a ``partner``, the count sequences of g and the partner must be
    ``shift``-intertwined, a_{n+shift} <= b_n and b_{n+shift} <= a_n; a
    root of F that is its own partner is unconstrained.  With ``even``,
    the odd-size cell counts of g must be even.  With neither, g is
    unconstrained.  ``labels`` name g in its catalogue rows.
    """

    g: Poly
    labels: Tuple[Tuple[str, object], ...]
    partner: Optional[Poly] = None
    shift: int = 0
    even: bool = False


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

    @functools.cached_property
    def shapes(self) -> Tuple[Shape, ...]:
        """The family's ``exceptional_shapes`` table, built on first read
        and kept on the context.  It derives from the fields, so it takes
        no part in equality, hashing or ``repr``."""
        return exceptional_shapes(self)

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
class PairCounts:
    """The count sequences at a polynomial and at its partner."""

    at: str
    partner: str
    counts: Tuple[int, ...]
    partner_counts: Tuple[int, ...]
    ok: bool


@dataclass(frozen=True)
class CellCounts:
    """The exact cell counts at a target and its odd sizes in violation."""

    at: str
    cell_counts: Tuple[int, ...]
    odd_size_violations: Tuple[int, ...]
    ok: bool


@dataclass(frozen=True)
class ExceptionalEvidence:
    """The exceptional criterion with, by its kind, the intertwined
    ``pairs`` and ``unconstrained_fixed_points`` or the even ``parts``;
    the fields of the other kinds are None."""

    criterion: str
    pairs: Optional[Tuple[PairCounts, ...]] = None
    unconstrained_fixed_points: Optional[Tuple[str, ...]] = None
    parts: Optional[Tuple[CellCounts, ...]] = None


@dataclass(frozen=True)
class DecisionReport:
    ok: bool
    regular_ok: bool
    exceptional_ok: bool
    case: CaseTag
    dimension: int
    invariant_factors: Tuple[Poly, ...]
    regular: Tuple[RegularEvidence, ...]
    exceptional: ExceptionalEvidence
    failing_evidence: Optional[str] = None
    pair_level: Optional[ExceptionalEvidence] = None

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


# cap on each per-context memo of this module (pair contexts, extension
# decisions): each keeps its most recently used inputs
DECIDE_MEMO_MAX = 16


def _ctx_memo(ctx: FieldCtx, name: str, fn):
    """ctx's memo of fn, built on first use and kept on ctx, so it goes
    with it; a context pickles without it.  An input whose call raises is
    not cached."""
    memo = getattr(ctx, name)
    if memo is None:
        memo = functools.lru_cache(maxsize=DECIDE_MEMO_MAX)(fn)
        setattr(ctx, name, memo)
    return memo


def pair_context(p: Poly, q: Poly) -> PairCtx:
    """Classify (p, q) and derive its invariants, solving each of p, q and
    Lam once.  A root z of F has z^2 - delta*z = s for a root s of Lam, so
    F's roots are those of t^2 - delta*t - s over the distinct s: two
    quadratic stages instead of a quartic.  The context is a pure function
    of (p, q): after the argument checks, the field context's memo of the
    ``DECIDE_MEMO_MAX`` most recently used (p, q) answers a repeat."""
    p._check(q)
    _require_quadratic(p, "p")
    _require_quadratic(q, "q")
    return _ctx_memo(p.ctx, "_pair_memo", _pair_context)(p, q)


def _pair_context(p: Poly, q: Poly) -> PairCtx:
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


def _label(g: Poly) -> str:
    """How the evidence names g: a linear t - z by its root z."""
    return _fmt(g.ctx, g.ctx.neg(g.coeffs[0])) if g.degree == 1 else str(g)


def exceptional_shapes(pctx: PairCtx) -> Tuple[Shape, ...]:
    """The exceptional polynomials of the case's family, in catalogue order.

    * split: t - z at each root z of F, partnered with t - (delta - z),
      shift 1 (simple-simple) or 2 (mixed); the double-double family's
      single root is its own partner;
    * p irreducible, q split: the translates p(t + y) by the roots y of q,
      one entry per translate when they are equal, else one entry pairing
      them with shift 1;
    * same splitting field: each norm quadratic t^2 - delta*t - s (s a root
      of Lam) without a root in the field, then t - z, even, at each
      translation shift z;
    * distinct fields: F (generic), t^2 - p(0) - q(0) (inseparable), or,
      even, the special quadratic t^2 - (tr p) t + p(0) + q(0), which is the
      repeated factor of F in the characteristic-2 equal-trace family.

    So a family that is not always-yes either has a partnered entry and
    intertwines, or flags its constrained entries even.
    """
    ctx, case = pctx.ctx, pctx.case
    family = case.family
    p, q = pctx.p_norm, pctx.q_norm
    if case.ys is not None:
        g1, g2 = (p.translate(y) for y in case.ys)
        if family is Family.IRR_SPLIT_EQ:
            return tuple(
                Shape(g, (("y", _fmt(ctx, y)), ("translate", str(g))))
                for y, g in zip(case.ys, (g1, g2))
            )
        return (Shape(g1, (("translates", (str(g1), str(g2))),), partner=g2, shift=1),)
    if family is Family.IRR_SAME_FIELD:
        norms = (pctx.sigma - Poly.constant(ctx, s) for s in dict.fromkeys(pctx.Lam_roots))
        return tuple(
            Shape(h, (("norm_quadratic", str(h)),))
            for h in norms
            if not any(ctx.is_zero(h.eval(z)) for z in pctx.F_roots)
        ) + tuple(
            Shape(_linear(ctx, z), (("shift", _fmt(ctx, z)),), even=True)
            for z in case.zs
        )
    if family is Family.IRR_DISTINCT_GENERIC:
        return (Shape(pctx.F, ()),)
    c0 = ctx.add(p.coeffs[0], q.coeffs[0])
    if family is Family.IRR_DISTINCT_INSEP:
        g = Poly(ctx, (ctx.neg(c0), ctx.zero, ctx.one))
        return (Shape(g, (("quadratic", str(g)),)),)
    if family is Family.IRR_DISTINCT_SPECIAL:
        g = Poly(ctx, (c0, ctx.neg(trace_of(p)), ctx.one))
        return (Shape(g, (("quadratic", str(g)),), even=True),)
    # the split families
    shift = 2 if family is Family.SPLIT_MIXED else 1
    shapes = []
    for z in pctx.F_roots:
        w = ctx.sub(pctx.delta, z)
        if w not in pctx.F_roots:
            raise ConstructionInvariantViolated(
                f"root {_fmt(ctx, z)} of F has partner outside the root set"
            )
        labels = (("x", _fmt(ctx, z)),) + ((("partner", _fmt(ctx, w)),) if w != z else ())
        shapes.append(Shape(_linear(ctx, z), labels, partner=_linear(ctx, w), shift=shift))
    return tuple(shapes)


# ----------------------------------------------------------------------
# the decision procedure
# ----------------------------------------------------------------------


def _regular_evidence(pctx: PairCtx, factors: Sequence[Poly]):
    out = []
    failing = None
    for f in factors:
        r = _strip_supported(f, pctx.F)
        rep = decompose_base_sigma(r, pctx.delta)
        out.append(
            RegularEvidence(
                factor=str(f),
                regular_factor=str(r),
                base_sigma=None if rep is None else str(rep),
                ok=rep is not None,
            )
        )
        if rep is None and failing is None:
            failing = (
                f"regular part {r} of invariant factor {f} is not a "
                f"polynomial in t^2-({_fmt(pctx.ctx, pctx.delta)})*t"
            )
    return tuple(out), failing


def _intertwined_parts(factors: Sequence[Poly], shapes):
    """The intertwining criterion on the count sequences of each partnered
    g and its partner among the factors, once per pair."""
    pairs, fixed, seen, failing = [], [], set(), None
    for s in shapes:
        if s.partner == s.g:
            fixed.append(_label(s.g))
        elif s.partner not in seen:
            at, partner = _label(s.g), _label(s.partner)
            a, b = count_sequence(factors, s.g), count_sequence(factors, s.partner)
            good = intertwined(a, b, s.shift)
            pairs.append(PairCounts(at, partner, a, b, good))
            if not good and failing is None:
                failing = (
                    f"count sequences {list(a)} at {at} and {list(b)} at "
                    f"{partner} are not {s.shift}-intertwined"
                )
        seen.add(s.g)
    return ExceptionalEvidence(
        criterion=f"{shapes[0].shift}-intertwined count sequences at each pair",
        pairs=tuple(pairs),
        unconstrained_fixed_points=tuple(fixed),
    ), failing


def _even_parts(factors: Sequence[Poly], shapes, m: int):
    """For each g flagged even: the exact cell counts of g among the
    factors, whose odd-size entries must be multiples of m."""
    parts, failing = [], None
    for s in shapes:
        if not s.even:
            continue
        at = _label(s.g)
        cells = tuple(exact_cell_counts(count_sequence(factors, s.g)))
        bad = tuple(k for k in range(1, len(cells) + 1, 2) if cells[k - 1] % m)
        parts.append(CellCounts(at, cells, bad, not bad))
        if bad and failing is None:
            failing = (
                f"{cells[bad[0] - 1]} cells of odd size {bad[0]} at {at}; "
                f"a multiple of {m} is required"
            )
    return ExceptionalEvidence(
        criterion=f"odd-size cell counts at each target are multiples of {m}",
        parts=tuple(parts),
    ), failing


def _exceptional_evidence(pctx: PairCtx, factors: Sequence[Poly]):
    if pctx.case.family.always_yes:
        return ExceptionalEvidence("none (always satisfied)"), None
    if any(s.partner is not None for s in pctx.shapes):
        return _intertwined_parts(factors, pctx.shapes)
    return _even_parts(factors, pctx.shapes, 2)


def _decide(pctx: PairCtx, factors: Tuple[Poly, ...], dimension: int) -> DecisionReport:
    """The decision for an extension S(v) of the given dimension from the
    invariant factors of v."""
    regular, reg_fail = _regular_evidence(pctx, factors)
    exceptional, exc_fail = _exceptional_evidence(pctx, factors)
    return DecisionReport(
        ok=reg_fail is None and exc_fail is None,
        regular_ok=reg_fail is None,
        exceptional_ok=exc_fail is None,
        case=pctx.case,
        dimension=dimension,
        invariant_factors=factors,
        regular=regular,
        exceptional=exceptional,
        failing_evidence=reg_fail if reg_fail is not None else exc_fail,
    )


def decide_extension(v: Mat, pctx: PairCtx) -> DecisionReport:
    """Decide whether the standard extension S(v) is a symplectic
    (p,q)-difference, from the invariant factors of v.  The report is a
    pure function of (v, pctx): after the argument checks, the field
    context's memo of the ``DECIDE_MEMO_MAX`` most recently used (v, pctx)
    answers a repeat, such as a witness request for the v just decided."""
    if v.ctx != pctx.ctx:
        raise MixedFieldContexts(f"{v.ctx} vs {pctx.ctx}")
    v._square()
    return _ctx_memo(pctx.ctx, "_decision_memo", _decide_extension)(v, pctx)


def _decide_extension(v: Mat, pctx: PairCtx) -> DecisionReport:
    return _decide(pctx, invariant_factors(v).factors, v.rows)


def decide_pair(P: SymplecticPair, pctx: PairCtx) -> DecisionReport:
    """Decide a symplectic pair: halve the doubled invariant factors of U,
    which are those of the v with P isometric to S(v), decide from them,
    and, in the evenness families, cross-check that the pair's own odd-size
    cell counts are multiples of 4."""
    if P.ctx != pctx.ctx:
        raise MixedFieldContexts(f"{P.ctx} vs {pctx.ctx}")
    inv = require_valid(P.B, P.U).invariant_factors
    report = _decide(pctx, inv.doubled_halves(), inv.dimension // 2)
    if report.exceptional.parts is None:
        return report
    pair_level, pair_fail = _even_parts(inv.factors, pctx.shapes, 4)
    if (pair_fail is None) != report.exceptional_ok:
        raise ConstructionInvariantViolated(
            "pair-level multiple-of-4 criterion disagrees with the halved "
            f"extension decision: {pair_level}"
        )
    return replace(report, pair_level=pair_level)
