#!/usr/bin/env python3
"""Per-call time of ``Mat`` products, differences, ranks, ``mat_poly_eval``,
``invariant_factors`` and duplication blocks.

Run from the repository root (point ``PYTHONPATH`` at another checkout's
``src`` to time that one)::

    PYTHONPATH=src python3 scripts/bench_kernels.py \\
        --fields "GF(3)" "GF(4)|t^2+t+1" Q "GF(2)(s)" --sizes 4 8 14 --reps 101 \\
        --density 0.2

Every call gets fresh operands, seeded random n x n matrices whose entries
are nonzero with probability ``--density`` (1 by default), so its time
includes converting them; the polynomial is a seeded monic quadratic.
A duplication block is built and verified (``duplication_witness``: one
``w_algebra_block`` and one ``verify_witness``) for the pair of that
quadratic and a second one, each call with a fresh seeded monic r of degree
max(1, n // 4), so the block is 4 max(1, n // 4) square.
Scalars are uniform over a finite field, ``a/b`` with |a| <= 9 and
1 <= b <= 4 over Q, and quotients of polynomials of degree <= 2 over
GF(p)(s).  Prints one JSON object: field -> n -> the median microseconds per
call of ``A @ B`` (``matmul_us``), ``A - B`` (``sub_us``), ``A.rank()``
(``rank_us``), ``mat_poly_eval(f, A)`` (``horner_us``),
``invariant_factors(A)`` (``invfac_us``) and the duplication block
(``block_us``).
"""

import argparse
import json
import random
import statistics
import time

from sympdiff.decide import pair_context
from sympdiff.fields import field_make
from sympdiff.linalg import Mat, invariant_factors, mat_poly_eval
from sympdiff.poly import Poly
from sympdiff.witness import duplication_witness


def _scalar(ctx, rng):
    if ctx.kind == "rationals":
        return ctx.from_int(rng.randint(-9, 9)) / rng.randint(1, 4)
    if ctx.kind == "ratfunc":
        def poly():
            return [rng.randrange(ctx.p) for _ in range(3)]

        return ctx.from_polys(poly(), poly() + [1])
    if ctx.kind == "extension":
        return tuple(rng.randrange(ctx.p) for _ in range(ctx.k))
    return rng.randrange(ctx.p)


def _timed(fn, args_list):
    out = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        out.append(time.perf_counter() - start)
    return round(statistics.median(out) * 1e6, 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fields", nargs="+", required=True)
    ap.add_argument("--sizes", nargs="+", type=int, required=True)
    ap.add_argument("--reps", type=int, default=101)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--density", type=float, default=1.0)
    args = ap.parse_args(argv)
    result = {}
    for spec in args.fields:
        ctx = field_make(spec)
        rng = random.Random(f"{args.seed}:{spec}")
        def monic(degree):
            return Poly(ctx, [_scalar(ctx, rng) for _ in range(degree)] + [ctx.one])

        f = monic(2)
        pctx = pair_context(f, monic(2))

        def entry():
            return _scalar(ctx, rng) if rng.random() < args.density else ctx.zero

        row = result[spec] = {}
        for n in args.sizes:
            grids = [
                [[entry() for _ in range(n)] for _ in range(n)]
                for _ in range(2 * args.reps)
            ]

            def pairs():
                fresh = [Mat(ctx, g, cols=n) for g in grids]
                return list(zip(fresh[::2], fresh[1::2]))

            def singles():
                return [(Mat(ctx, g, cols=n),) for g in grids[: args.reps]]

            row[n] = {
                "matmul_us": _timed(Mat.__matmul__, pairs()),
                "sub_us": _timed(Mat.__sub__, pairs()),
                "rank_us": _timed(Mat.rank, singles()),
                "horner_us": _timed(mat_poly_eval, [(f,) + A for A in singles()]),
                "invfac_us": _timed(invariant_factors, singles()),
                "block_us": _timed(duplication_witness, [
                    (pctx, monic(max(1, n // 4))) for _ in range(args.reps)
                ]),
            }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
