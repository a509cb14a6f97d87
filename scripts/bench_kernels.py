#!/usr/bin/env python3
"""Per-call time of ``Mat`` products and ``mat_poly_eval`` over finite fields.

Run from the repository root (point ``PYTHONPATH`` at another checkout's
``src`` to time that one)::

    PYTHONPATH=src python3 scripts/bench_kernels.py \\
        --fields "GF(3)" "GF(4)|t^2+t+1" --sizes 4 8 14 32 --reps 101

Every call gets fresh operands, seeded dense random n x n matrices, so its
time includes converting them; the polynomial is a seeded monic quadratic.
Prints one JSON object: field -> n -> the median microseconds per call of
``A @ B`` (``matmul_us``) and of ``mat_poly_eval(f, A)`` (``horner_us``).
"""

import argparse
import json
import random
import statistics
import time

from sympdiff.fields import field_make
from sympdiff.linalg import Mat, mat_poly_eval
from sympdiff.poly import Poly


def _scalar(ctx, rng):
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fields", nargs="+", required=True)
    ap.add_argument("--sizes", nargs="+", type=int, required=True)
    ap.add_argument("--reps", type=int, default=101)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    result = {}
    for spec in args.fields:
        ctx = field_make(spec)
        rng = random.Random(f"{args.seed}:{spec}")
        f = Poly(ctx, [_scalar(ctx, rng), _scalar(ctx, rng), ctx.one])
        row = result[spec] = {}
        for n in args.sizes:
            grids = [
                [[_scalar(ctx, rng) for _ in range(n)] for _ in range(n)]
                for _ in range(2 * args.reps)
            ]
            fresh = [Mat(ctx, g) for g in grids]
            pairs = list(zip(fresh[::2], fresh[1::2]))
            row[n] = {"matmul_us": _timed(Mat.__matmul__, pairs)}
            fresh = [Mat(ctx, g) for g in grids[: args.reps]]
            row[n]["horner_us"] = _timed(mat_poly_eval, [(f, A) for A in fresh])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
