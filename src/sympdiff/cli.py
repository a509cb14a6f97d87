"""Command-line interface: JSON in, JSON out.

Subcommands::

    classify   --field F --p P --q Q           case tag + derived data
    decide     --field F --p P --q Q (--v V | --pair J)
    witness    --field F --p P --q Q (--v V | --pair J) [--bound N]
    verify     --field F --p P --q Q --witness J
    enumerate  --field F --p P --q Q --dim N [--inventory "r1;r2;..."]
    oracle     --field F --dim N [--p P --q Q] [--jobs N]
    selftest   [--seed N]

``P``/``Q`` are monic quadratics in the expression grammar.  ``V`` is either
``companion:f`` (semicolon-separated polynomials give a direct sum of
companion blocks) or a matrix in JSON.  ``J`` arguments accept inline JSON,
a file path, or ``-`` for stdin.

Exit codes: 0 success; 2 semantic NO (a NO verdict from ``decide`` or
``witness``, or a failed ``verify``); 1 error, reported as
``{"error": {"type": ..., "message": ...}}`` on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import serialize as ser
from .atlas import indecomposable_reps
from .decide import decide_extension, decide_pair, pair_context
from .errors import SympdiffError
from .exprparse import parse_poly
from .fields import field_make
from .linalg import Mat, companion, direct_sum
from .oracle import SweepReport, oracle_sweep
from .poly import Poly, monic_polys
from .witness import DEFAULT_SEARCH_BOUND, _witness_for_decision, verify_witness

__all__ = ["cli_run", "main"]


class _UsageError(SympdiffError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors into structured JSON
        raise _UsageError(message)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_json(text: str):
    if text == "-":
        return json.load(sys.stdin)
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"{text!r} is neither a file, '-', nor valid inline JSON: {exc}"
        ) from None


def _parse_v(ctx, text: str) -> Mat:
    if text.startswith("companion:"):
        blocks = [
            companion(parse_poly(ctx, part))
            for part in text[len("companion:"):].split(";")
            if part.strip()
        ]
        if not blocks:
            raise _UsageError("companion: needs at least one polynomial")
        return direct_sum(*blocks)
    return ser.decode_mat(_load_json(text), ctx)


def _pair_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--field", required=True, help="field spec, e.g. Q, GF(3), GF(2)(s)")
    sub.add_argument("--p", required=True, help="monic quadratic p")
    sub.add_argument("--q", required=True, help="monic quadratic q")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sympdiff", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="case of a quadratic pair (p, q)")
    _pair_args(sub)

    for name in ("decide", "witness"):
        sub = subs.add_parser(name, help=f"{name} for a pair or an extension S(v)")
        _pair_args(sub)
        sub.add_argument("--v", help='endomorphism: companion:"f[;g;...]" or matrix JSON')
        sub.add_argument("--pair", help="symplectic pair JSON (inline, path, or -)")
        if name == "witness":
            sub.add_argument("--bound", type=int, default=DEFAULT_SEARCH_BOUND,
                             help="dimension cap for the brute-force fallback")

    sub = subs.add_parser("verify", help="check every property of a witness")
    _pair_args(sub)
    sub.add_argument("--witness", required=True, help="witness JSON (inline, path, or -)")

    sub = subs.add_parser("enumerate", help="indecomposable representatives, one JSON line each")
    _pair_args(sub)
    sub.add_argument("--dim", type=int, required=True, help="dimension bound on v")
    sub.add_argument("--inventory",
                     help="semicolon-separated monic irreducibles (required for "
                          "regular rows over infinite fields)")

    sub = subs.add_parser("oracle", help="exhaustive decide-vs-brute-force sweep")
    sub.add_argument("--field", required=True)
    sub.add_argument("--dim", type=int, required=True, help="pair dimension (even)")
    sub.add_argument("--p", help="restrict the sweep to this p")
    sub.add_argument("--q", help="restrict the sweep to this q")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes")

    sub = subs.add_parser("selftest", help="run the acceptance suite")
    sub.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_classify(args) -> int:
    ctx = field_make(args.field)
    pctx = pair_context(parse_poly(ctx, args.p), parse_poly(ctx, args.q))
    out = ser.encode_case_tag(pctx.case, ctx)
    out.update({
        "p": str(pctx.p),
        "q": str(pctx.q),
        "normalized_p": str(pctx.p_norm),
        "normalized_q": str(pctx.q_norm),
        "delta": str(Poly.constant(ctx, pctx.delta)),
        "F": str(pctx.F),
        "Lambda": str(pctx.Lam),
    })
    _emit(out)
    return 0


def _instance(args):
    """(pctx, v or None, pair or None) from --v/--pair."""
    ctx = field_make(args.field)
    pctx = pair_context(parse_poly(ctx, args.p), parse_poly(ctx, args.q))
    if (args.v is None) == (args.pair is None):
        raise _UsageError("provide exactly one of --v and --pair")
    if args.v is not None:
        return pctx, _parse_v(ctx, args.v), None
    return pctx, None, ser.decode_pair(_load_json(args.pair), ctx)


def _cmd_decide(args) -> int:
    pctx, v, pair = _instance(args)
    report = decide_extension(v, pctx) if v is not None else decide_pair(pair, pctx)
    _emit(ser.encode_decision_report(report, pctx))
    return 0 if report.ok else 2


def _emit_no(report, pctx) -> int:
    _emit({"verdict": "no",
           "decision": ser.encode_decision_report(report, pctx)})
    return 2


def _cmd_witness(args) -> int:
    pctx, v, pair = _instance(args)
    report = decide_extension(v, pctx) if v is not None else decide_pair(pair, pctx)
    if not report.ok:
        return _emit_no(report, pctx)
    found = _witness_for_decision(report, pctx, bound=args.bound)
    if found is None:
        _emit({
            "verdict": "yes",
            "witness": None,
            "note": "decision is YES but no constructive witness is implemented "
                    "for this instance (infinite field, or a residual search "
                    "above the dimension bound or 2^63 candidates)",
        })
        return 0
    w, verification = found
    _emit({
        "verdict": "yes",
        "witness": ser.encode_witness(w),
        "verification": ser.encode_verification_report(verification),
    })
    return 0


def _cmd_verify(args) -> int:
    ctx = field_make(args.field)
    pctx = pair_context(parse_poly(ctx, args.p), parse_poly(ctx, args.q))
    w = ser.decode_witness(_load_json(args.witness), ctx)
    report = verify_witness(w, pctx)
    _emit(ser.encode_verification_report(report))
    return 0 if report.ok else 2


def _cmd_enumerate(args) -> int:
    ctx = field_make(args.field)
    pctx = pair_context(parse_poly(ctx, args.p), parse_poly(ctx, args.q))
    inventory = None
    if args.inventory is not None:
        inventory = [parse_poly(ctx, part)
                     for part in args.inventory.split(";") if part.strip()]
    for row in indecomposable_reps(pctx, args.dim, irreducibles=inventory):
        json.dump(ser.encode_table_row(row), sys.stdout)
        sys.stdout.write("\n")
    return 0


def _merge_sweeps(parts: List[SweepReport]) -> SweepReport:
    merged = parts[0]
    for part in parts[1:]:
        merged.instances.extend(part.instances)
        merged.seconds += part.seconds
    return merged


def _cmd_oracle(args) -> int:
    ctx = field_make(args.field)
    ps = [parse_poly(ctx, args.p)] if args.p else list(monic_polys(ctx, 2))
    qs = [parse_poly(ctx, args.q)] if args.q else None
    # the pool starts every worker up front: no more than the p's or the CPUs
    workers = min(args.jobs, len(ps), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                oracle_sweep,
                [ctx] * len(ps),
                [args.dim] * len(ps),
                [[p] for p in ps],
                [qs] * len(ps),
            ))
        report = _merge_sweeps(parts)
    else:
        report = oracle_sweep(ctx, args.dim, ps=ps, qs=qs)
    _emit(ser.encode_sweep_report(report))
    return 0 if report.ok else 1


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(seed=args.seed)
    _emit([
        {
            "criterion": r.number,
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "seconds": round(r.seconds, 3),
        }
        for r in results
    ])
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "decide": _cmd_decide,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "oracle": _cmd_oracle,
    "selftest": _cmd_selftest,
}


def cli_run(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SympdiffError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
