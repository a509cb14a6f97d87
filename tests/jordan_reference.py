"""Reference for Jordan and primary cell counts by rank drops.

``primary_sequence(M, g)`` reads the counts n_k of primary invariants g^l
with l >= k from the ranks of g(M)^j.  The library reads the same counts
from the invariant factors (``decide.count_sequence``); the tests compare
the two routes.
"""

from typing import Tuple

from sympdiff.errors import ConstructionInvariantViolated, NotIrreducible
from sympdiff.linalg import Mat, mat_poly_eval
from sympdiff.poly import Poly, is_irreducible


def _check_primary_modulus(g: Poly):
    """Irreducibility obligation: verified where decidable, trusted beyond."""
    try:
        ok = is_irreducible(g)
    except NotIrreducible:
        return  # undecidable here (deg >= 4 over an infinite field): trusted
    if not ok:
        raise NotIrreducible(f"{g} is not irreducible")


def primary_sequence(M: Mat, g: Poly) -> Tuple[int, ...]:
    """(n_1, n_2, ...): n_k = number of primary invariants g^l of M with
    l >= k; stops at the first zero."""
    M._square()
    _check_primary_modulus(g)
    d = g.degree
    G = mat_poly_eval(g, M)
    out = []
    P = G
    prev_rank = M.rows
    while True:
        rk = P.rank()
        diff = prev_rank - rk
        if diff == 0:
            break
        if diff % d:
            raise ConstructionInvariantViolated(
                f"rank drop {diff} not divisible by deg {g} = {d}"
            )
        out.append(diff // d)
        prev_rank = rk
        P = P @ G
    return tuple(out)


def jordan_sequence(M: Mat, z) -> Tuple[int, ...]:
    """Counts of Jordan cells at eigenvalue z of size >= 1, >= 2, ..."""
    lin = Poly(M.ctx, (M.ctx.neg(z), M.ctx.one))
    return primary_sequence(M, lin)
