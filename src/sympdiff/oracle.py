"""Exhaustive small-field certification of the decision procedure.

Over a small finite field the difference question can be settled straight
from the definition by enumerating every candidate summand, so the algebraic
decision procedure can be cross-checked wholesale.  A sweep fixes a pair
dimension, enumerates every admissible invariant-factor profile of the
endomorphism — profiles of symplectic pairs are doubled divisibility chains,
so the chains of the half-dimensional ``v`` enumerate them exactly — and
every pair of monic quadratics (p, q) over the field, then runs both the
decision procedure and the brute-force search on ``S(v)`` and tallies the
agreement matrix.  A correct implementation reports zero disagreements.

The search (``brute_force_witness``) does not scan every candidate: given
p(U1) = 0, the condition q(U1 - U) = 0 is linear in U1.  With U1 = B^{-1} * M,
M alternating, and B*U alternating, B times q(U1 - U) is alternating, so the
condition is k = n(n-1)/2 equations, one per strict-upper entry, whose
coefficients are entries of U.  The search solves them once and scans only
their solutions, in the full enumeration's order, in growing chunks that
stop at the first hit.  Over GF(p^k) it scans the same candidates as
matrices over GF(p) (the regular representation), so one scan serves every
finite field.  It finds the same first witness.  The k equations, like the
rest of the search, use only the definition of a witness -- p(U1) = 0,
q(U2) = 0, B*U1 and B*U2 alternating -- and never the decision procedure,
so the two routes stay independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .decide import decide_pair, pair_context
from .errors import InvalidArgument
from .fields import FieldCtx, field_spec
from .linalg import Mat, companion, direct_sum
from .poly import Poly, monic_polys
from .sympform import symplectic_extension
from .witness import brute_force_witness

__all__ = [
    "SweepInstance",
    "SweepReport",
    "admissible_chains",
    "oracle_sweep",
]


@dataclass(frozen=True)
class SweepInstance:
    """One (p, q, profile) triple with the verdicts of both routes.

    ``chain`` holds the invariant factors of the endomorphism ``v``; the
    pair under test is ``symplectic_extension(v)`` with ``v`` the direct sum
    of the chain's companion matrices, so the pair's own invariant factors
    are the chain doubled.
    """

    p: Poly
    q: Poly
    chain: Tuple[Poly, ...]
    v: Mat
    decide_yes: bool
    brute_yes: bool

    @property
    def agree(self) -> bool:
        return self.decide_yes == self.brute_yes


@dataclass
class SweepReport:
    field: str
    pair_dim: int
    instances: List[SweepInstance]
    seconds: float

    @property
    def total(self) -> int:
        return len(self.instances)

    @property
    def matrix(self) -> Dict[str, int]:
        """Instance counts by decide/brute verdict."""
        matrix = {"yes/yes": 0, "yes/no": 0, "no/yes": 0, "no/no": 0}
        for i in self.instances:
            matrix[f"{'yes' if i.decide_yes else 'no'}/{'yes' if i.brute_yes else 'no'}"] += 1
        return matrix

    @property
    def disagreements(self) -> List[SweepInstance]:
        return [i for i in self.instances if not i.agree]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _chains_below(g: Poly, total: int) -> List[Tuple[Poly, ...]]:
    """Divisibility chains (f_1 | ... | f_k | g) of total degree ``total``,
    excluding g itself."""
    if total == 0:
        return [()]
    out: List[Tuple[Poly, ...]] = []
    for m in range(1, min(total, g.degree) + 1):
        for f in monic_polys(g.ctx, m):
            if (g % f).is_zero:
                for rest in _chains_below(f, total - m):
                    out.append(rest + (f,))
    return out


def admissible_chains(ctx: FieldCtx, half_dim: int) -> List[Tuple[Poly, ...]]:
    """All invariant-factor chains (f_1 | f_2 | ... | f_k) of total degree
    ``half_dim`` over a finite field, in deterministic order.

    Doubling such a chain gives exactly the admissible invariant-factor
    profiles of a symplectic pair of dimension ``2 * half_dim``.
    """
    if half_dim < 0:
        raise InvalidArgument("half_dim must be >= 0")
    if half_dim == 0:
        return [()]
    out: List[Tuple[Poly, ...]] = []
    for m in range(1, half_dim + 1):
        for g in monic_polys(ctx, m):
            for rest in _chains_below(g, half_dim - m):
                out.append(rest + (g,))
    return out


def oracle_sweep(
    ctx: FieldCtx,
    pair_dim: int,
    ps: Optional[Sequence[Poly]] = None,
    qs: Optional[Sequence[Poly]] = None,
) -> SweepReport:
    """Run both routes on every (p, q, profile) combination.

    ``ps``/``qs`` default to all monic quadratics over the field; pass
    singletons to sweep one pair.  The pair dimension must be even and
    positive (alternating nondegenerate forms only exist in even dimension).
    """
    if ctx.order is None:
        raise InvalidArgument("oracle sweeps require a finite field")
    if pair_dim < 2 or pair_dim % 2:
        raise InvalidArgument("pair_dim must be a positive even integer")
    start = time.monotonic()
    if ps is None:
        ps = list(monic_polys(ctx, 2))
    if qs is None:
        qs = list(monic_polys(ctx, 2))
    chains = admissible_chains(ctx, pair_dim // 2)
    reps = [direct_sum(*(companion(f) for f in chain)) for chain in chains]
    pairs = [symplectic_extension(v) for v in reps]
    instances: List[SweepInstance] = []
    for p in ps:
        for q in qs:
            pctx = pair_context(p, q)
            for chain, v, pair in zip(chains, reps, pairs):
                decide_yes = decide_pair(pair, pctx).ok
                brute_yes = brute_force_witness(pair, pctx, bound=pair_dim) is not None
                instances.append(SweepInstance(
                    p=p, q=q, chain=chain, v=v,
                    decide_yes=decide_yes, brute_yes=brute_yes,
                ))
    return SweepReport(
        field=field_spec(ctx),
        pair_dim=pair_dim,
        instances=instances,
        seconds=time.monotonic() - start,
    )
