"""Seeded inputs, item execution and answer checks for the three workloads.

A workload yields ``Item`` objects from a seed, and ``None`` after each
round: a fixed mix of item structures, so that a run made of whole rounds
has the same mix whatever the seed.  Building an item (choosing
fields, polynomials and matrices) happens outside the timed region; only
``Item.run`` is timed.  ``run`` makes the library calls of one item and then
checks the answer against what is known independently of the route that
produced it, raising ``WrongAnswer`` on a mismatch.

The library is reached only through its public functions.  Input generation
uses the public value classes (``Poly``, ``Mat``, field contexts and the JSON
encoder) to build the inputs; the decisions under test are never used to
build or to predict an answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import sympdiff
from sympdiff import (
    Poly,
    companion,
    decide_pair,
    delta_of,
    direct_sum,
    duplication_witness,
    field_make,
    fundamental_poly,
    invariant_factors,
    pair_context,
    parse_poly,
    sigma_poly,
    symplectic_extension,
    trace_of,
    verify_witness,
)
from sympdiff import serialize as ser
from sympdiff.cli import cli_run
from sympdiff.linalg import mat_poly_eval
from sympdiff.oracle import admissible_chains
from sympdiff.poly import monic_polys
from sympdiff.sympform import is_alternating
from sympdiff.witness import brute_force_witness

HERE = Path(__file__).resolve().parent


class WrongAnswer(Exception):
    """The library returned an answer that the benchmark's check rejects."""


class Item:
    """One unit of work: ``key`` identifies its inputs (for the seed digest),
    ``kind`` groups items for per-kind reporting, ``run`` does the work."""

    __slots__ = ("kind", "key", "run")

    def __init__(self, kind: str, key: str, run: Callable[[], None]):
        self.kind = kind
        self.key = key
        self.run = run


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


# ----------------------------------------------------------------------
# dup_blocks: duplication blocks over GF(3) and GF(5)
# ----------------------------------------------------------------------


def _walk(rng: random.Random, population: list) -> Iterator:
    """The population in seeded order, reshuffled after each pass."""
    population = list(population)
    while True:
        rng.shuffle(population)
        yield from population


def _round_counts(sizes: List[int], per_round: int) -> List[int]:
    """Items per round from each population, in proportion to its size."""
    total = sum(sizes)
    return [max(1, round(per_round * n / total)) for n in sizes]


class DupBlocks:
    """(field, p, q, monic r of degree <= 2) over GF(3) and GF(5), drawn
    uniformly over the tuples that acceptance criteria 2 and 3 enumerate
    (972 over GF(3), 18750 over GF(5)).  A round of ``PER_ROUND`` items
    takes from each (field, degree of r) stratum in proportion to its number
    of tuples, and walks each stratum in seeded order.

    Each item builds the block with ``duplication_witness`` and re-checks it
    as the criteria do.  Criterion 2: the witness verifies and U has
    invariant factors (r(s), r(s)), s = t^2 - delta*t.  Criterion 3,
    recomputed on A = U1, B = U2, H = B of the witness: p(A) = 0, q(B) = 0,
    AB + BA = mu*A + lambda*B - x with x = (alpha + beta + t)(C(r)) on each
    of the four diagonal blocks, H alternating of full rank, HA and HB
    alternating."""

    name = "dup_blocks"
    specs = ("GF(3)", "GF(5)")
    PER_ROUND = 81
    deadline_s = 2.0

    def __init__(self):
        self.pctx = {}  # (p, q) -> pair context, built with the inputs
        self.fields = [(spec, field_make(spec)) for spec in self.specs]

    def _item(self, spec, p, q, r) -> Item:
        pc = self.pctx.get((p, q))
        if pc is None:
            pc = self.pctx[p, q] = pair_context(p, q)
        ctx = p.ctx
        lam, mu = trace_of(p), trace_of(q)
        x_poly = Poly.constant(ctx, ctx.add(p.coefficient(0), q.coefficient(0))) + Poly.t(ctx)

        def run():
            w = duplication_witness(pc, r)
            # criterion 2
            _check(verify_witness(w, pc).ok, "duplication witness fails verification")
            rs = r.compose(pc.sigma)
            _check(
                invariant_factors(w.U).factors == (rs, rs),
                "U does not have invariant factors (r(s), r(s))",
            )
            # criterion 3, recomputed from the returned matrices
            A, B, H = w.U1, w.U2, w.B
            xm = mat_poly_eval(x_poly % r, companion(r))
            _check(mat_poly_eval(p, A).is_zero, "p(A) != 0")
            _check(mat_poly_eval(q, B).is_zero, "q(B) != 0")
            _check(A @ B + B @ A == A.scale(mu) + B.scale(lam) - direct_sum(xm, xm, xm, xm),
                   "AB + BA != mu*A + lambda*B - x")
            _check(is_alternating(H) and H.rank() == H.rows, "H not alternating of full rank")
            _check(is_alternating(H @ A) and is_alternating(H @ B), "HA or HB not alternating")

        return Item(spec, f"{spec}|{p}|{q}|{r}", run)

    def warmup(self) -> Item:
        spec, ctx = self.fields[0]
        quads = list(monic_polys(ctx, 2))
        return self._item(spec, quads[1], quads[2], quads[-1])

    def items(self, seed: int) -> Iterator[Optional[Item]]:
        rng = random.Random(f"dup_blocks:{seed}")
        strata = []  # (spec, [(p, q, r)]) per field and degree of r
        for spec, ctx in self.fields:
            quads = list(monic_polys(ctx, 2))
            for degree in (1, 2):
                strata.append((spec, [(p, q, r) for p in quads for q in quads
                                      for r in monic_polys(ctx, degree)]))
        counts = _round_counts([len(tuples) for _, tuples in strata], self.PER_ROUND)
        walks = [(spec, _walk(rng, tuples)) for spec, tuples in strata]
        while True:
            batch = [(spec, next(walk)) for (spec, walk), k in zip(walks, counts)
                     for _ in range(k)]
            rng.shuffle(batch)
            for spec, pqr in batch:
                yield self._item(spec, *pqr)
            yield None


# ----------------------------------------------------------------------
# oracle_sweep: decide-vs-brute-force sweep instances
# ----------------------------------------------------------------------

ORACLE_EXPECTED = HERE / "oracle_expected.json"


def oracle_instance_key(spec: str, dim: int, p, q, chain) -> str:
    return f"{spec}|{dim}|{p}|{q}|{';'.join(str(f) for f in chain)}"


class OracleSweep:
    """Instances of ``oracle_sweep`` over GF(3) at pair dimension 4 and GF(2)
    at pair dimension 6.  One item is one (p, q, profile) instance, run the
    way ``oracle_sweep`` runs it: ``decide_pair`` and ``brute_force_witness``
    on S(v), with the pair context of each (p, q) built once.  A round of
    ``PER_ROUND`` items takes from the two sweeps in proportion to their
    instance counts (972 and 224, so 13 and 3), and walks each sweep's
    instances in seeded order.

    The check: both routes agree, and both verdicts equal the ones recorded
    by ``oracle_sweep`` itself in ``oracle_expected.json``."""

    name = "oracle_sweep"
    cells = (("GF(3)", 4), ("GF(2)", 6))
    PER_ROUND = 16
    deadline_s = 10.0

    def __init__(self):
        self.pctx = {}  # (p, q) -> pair context, built once per cell as oracle_sweep does
        self.expected: Dict[str, str] = json.loads(ORACLE_EXPECTED.read_text())
        self.pops = []
        for spec, dim in self.cells:
            ctx = field_make(spec)
            quads = list(monic_polys(ctx, 2))
            chains = admissible_chains(ctx, dim // 2)
            reps = [direct_sum(*(companion(f) for f in ch)) for ch in chains]
            self.pops.append((spec, dim, quads, list(zip(chains, reps))))

    def _item(self, spec, dim, p, q, chain, v) -> Item:
        key = oracle_instance_key(spec, dim, p, q, chain)
        expected = self.expected[key]
        pc = self.pctx.get((p, q))
        if pc is None:
            pc = self.pctx[p, q] = pair_context(p, q)

        def run():
            pair = symplectic_extension(v)
            decide_yes = decide_pair(pair, pc).ok
            brute_yes = brute_force_witness(pair, pc, bound=dim) is not None
            got = f"{'yes' if decide_yes else 'no'}/{'yes' if brute_yes else 'no'}"
            _check(decide_yes == brute_yes, f"disagreement {got}")
            _check(got == expected, f"agreement {got}, recorded {expected}")

        return Item(f"{spec}/dim{dim}", key, run)

    def warmup(self) -> Item:
        spec, dim, quads, chains = self.pops[0]
        return self._item(spec, dim, quads[1], quads[2], *chains[-1])

    def items(self, seed: int) -> Iterator[Optional[Item]]:
        rng = random.Random(f"oracle_sweep:{seed}")
        pops = [
            (spec, dim, [(p, q, c) for p in quads for q in quads for c in chains])
            for spec, dim, quads, chains in self.pops
        ]
        counts = _round_counts([len(inst) for _, _, inst in pops], self.PER_ROUND)
        walks = [(spec, dim, _walk(rng, inst)) for spec, dim, inst in pops]
        while True:
            batch = [(spec, dim, next(walk)) for (spec, dim, walk), k in zip(walks, counts)
                     for _ in range(k)]
            rng.shuffle(batch)
            for spec, dim, (p, q, (chain, v)) in batch:
                yield self._item(spec, dim, p, q, chain, v)
            yield None


def record_oracle_expected() -> Dict[str, str]:
    """Verdicts of the full sweeps, as ``oracle_sweep`` reports them."""
    from sympdiff import oracle_sweep

    out: Dict[str, str] = {}
    for spec, dim in OracleSweep.cells:
        report = oracle_sweep(field_make(spec), dim)
        if not report.ok:
            raise WrongAnswer(f"{spec} dim {dim}: {len(report.disagreements)} disagreements")
        for inst in report.instances:
            key = oracle_instance_key(spec, dim, inst.p, inst.q, inst.chain)
            out[key] = (
                f"{'yes' if inst.decide_yes else 'no'}/"
                f"{'yes' if inst.brute_yes else 'no'}"
            )
    return out


# ----------------------------------------------------------------------
# cli_queries: classify / decide / witness / verify / enumerate requests
# ----------------------------------------------------------------------

_PRIMES_NEAR_1E5 = [
    n for n in range(95000, 100004)
    if n % 2 and all(n % d for d in range(3, int(n ** 0.5) + 1, 2))
]

# Family names grouped by how many of (p, q) split over the field.
_SPLIT_FAMILIES = {
    2: {"split-double-double", "split-simple-simple", "split-mixed"},
    1: {"irreducible-split-equal-translates",
        "irreducible-split-distinct-translates"},
    0: {"irreducible-same-splitting-field",
        "irreducible-distinct-fields-generic",
        "irreducible-distinct-fields-inseparable",
        "irreducible-distinct-fields-special"},
}


class CliError(Exception):
    """The CLI answered with a structured error (exit code 1)."""

    def __init__(self, type_name: str, text: str):
        super().__init__(text[:300])
        self.type_name = type_name


_ERROR_TYPE_RE = re.compile(r'"error":\s*\{\s*"type":\s*"([^"]+)"')


def cli_call(argv: List[str]):
    """``sympdiff <argv>`` in-process: (exit code, captured stdout).  An
    error answer raises ``CliError`` named after the library's error type."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_run(argv)
    out = buf.getvalue()
    if rc == 1:
        m = _ERROR_TYPE_RE.search(out)
        raise CliError(m.group(1) if m else "CliExit1", out)
    return rc, out


class _FieldGen:
    """Random scalars and quadratics over one field, with the splitting of
    every quadratic known by construction."""

    def __init__(self, spec: str, rng: random.Random):
        self.spec = spec
        self.ctx = ctx = field_make(spec)
        self.rng = rng

    # scalars as (grammar string, field element) --------------------------

    def coeff(self):
        """A scalar written in the expression grammar (p and q are passed
        on the command line, so extension fields use prime-field
        coefficients)."""
        rng, ctx = self.rng, self.ctx
        if ctx.kind == "rationals":
            c = rng.randint(-9, 9)
            return str(c), ctx.from_int(c)
        if ctx.kind == "ratfunc":
            bits = [rng.randint(0, 1) for _ in range(3)]
            text = "+".join(
                ["1", "s", "s^2"][i] for i, b in enumerate(bits) if b
            ) or "0"
            return text, ctx.from_polys(bits)
        c = rng.randrange(ctx.characteristic)
        return str(c), ctx.from_int(c)

    def element(self):
        """Any scalar of the field (for v, which travels as JSON)."""
        rng, ctx = self.rng, self.ctx
        if ctx.kind == "extension":
            return tuple(rng.randrange(ctx.p) for _ in range(ctx.k))
        if ctx.kind == "prime":
            return ctx.from_int(rng.randrange(ctx.p))
        return self.coeff()[1]

    # quadratics --------------------------------------------------------------

    def split_quadratic(self, double: bool):
        a_txt, a = self.coeff()
        b_txt, b = (a_txt, a) if double else self.coeff()
        if not double:
            while b == a:
                b_txt, b = self.coeff()
        return f"(t-({a_txt}))*(t-({b_txt}))"

    def irreducible_quadratic(self, big: bool) -> Optional[str]:
        """A quadratic irreducible by construction, or None where every
        command-line quadratic splits (GF(4))."""
        rng, ctx = self.rng, self.ctx
        if ctx.kind == "rationals":
            return f"t^2+{rng.randint(1, 9) + (10 ** 12 if big else 0)}"
        if ctx.kind == "ratfunc":
            # t^2 + t + g(s), deg g odd: a root would be a polynomial x with
            # x^2 + x = g, whose degree is even.
            g = rng.choice(["s", "s+1", "s^3+s", "s^3+s^2+1"])
            return f"t^2+t+{g}"
        if ctx.kind == "extension":
            if ctx.p == 2:
                return None
            # irreducible over GF(3) and GF(3^k) with k odd
            return rng.choice(["t^2+1", "t^2+t+2", "t^2+2*t+2"])
        p = ctx.p
        while True:
            n = rng.randrange(2, p)
            if pow(n, (p - 1) // 2, p) == p - 1:
                return f"t^2-{n}"

    def quadratic(self, shape: str):
        """(text, split?, double?) for shape "simple", "double", "irr" or
        "irrbig" (over Q, a constant term above 10^12).  Where every
        command-line quadratic splits (GF(4)), "irr" becomes "simple"."""
        if shape in ("irr", "irrbig"):
            text = self.irreducible_quadratic(big=shape == "irrbig")
            if text is not None:
                return text, False, False
            shape = "simple"
        return self.split_quadratic(shape == "double"), True, shape == "double"

    # polynomials and matrices ------------------------------------------------

    def monic(self, degree: int) -> Poly:
        ctx = self.ctx
        lower = [self.element() for _ in range(degree)]
        return Poly(ctx, tuple(lower) + (ctx.one,))

    def coprime_base(self, degree: int, pc) -> Poly:
        """A monic r of the given degree with r(s) coprime to F."""
        for _attempt in range(200):
            r = self.monic(degree)
            if r.compose(pc.sigma).gcd(pc.F).degree == 0:
                return r
        raise RuntimeError(f"no r of degree {degree} with r(s) coprime to F")

    def conjugate(self, D, sweeps: int):
        """P * D * P^-1, P a product of ``sweeps`` bidiagonal sweeps of
        elementary matrices E_ij(c), |i - j| = 1, with seeded nonzero
        multipliers c (unimodular over Q and GF(p)[s])."""
        ctx, rng = self.ctx, self.rng
        n = D.rows
        g = [list(row) for row in D.entries]
        if ctx.kind == "rationals":
            mults = [ctx.from_int(c) for c in (-2, -1, 1, 2)]
        elif ctx.kind == "ratfunc":
            mults = [ctx.one, ctx.gen, ctx.add(ctx.gen, ctx.one)]
        else:
            mults = None
        ops = []
        for k in range(sweeps):
            pairs = [(i + 1, i) for i in range(n - 1)]
            ops += pairs if k % 2 == 0 else [(j, i) for i, j in reversed(pairs)]
        for i, j in ops:
            if mults:
                c = rng.choice(mults)
            else:
                c = ctx.zero
                while c == ctx.zero:
                    c = self.element()
            # row_i += c * row_j, then col_j -= c * col_i
            g[i] = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(g[i], g[j])]
            for row in g:
                row[j] = ctx.sub(row[j], ctx.mul(c, row[i]))
        return sympdiff.Mat(ctx, g)


class _Invariants:
    def __init__(self, F: Poly, delta):
        self.F = F
        self.delta = delta
        self.sigma = sigma_poly(F.ctx, delta)


def _is_sigma_poly(f: Poly, delta) -> bool:
    """f is a polynomial in s = t^2 - delta*t: f(delta - t) = f(t), except in
    characteristic 2 with delta = 0, where s = t^2 and only even powers may
    occur."""
    ctx = f.ctx
    if ctx.characteristic == 2 and ctx.is_zero(delta):
        return all(ctx.is_zero(c) for c in f.coeffs[1::2])
    return f.compose(Poly(ctx, (delta, ctx.neg(ctx.one)))) == f


def _strip(f: Poly, F: Poly) -> Poly:
    """f without its factors that share a root with F."""
    while True:
        g = f.gcd(F)
        if g.degree <= 0:
            return f
        f = divmod(f, g)[0]


class CliQueries:
    """A seeded stream of CLI requests through ``cli_run``.

    Each round is a fixed schedule of instance slots (``SLOTS``).  An instance is (p, q, v) with p and q split or irreducible by
    construction and v = P * D * P^-1, P a product of elementary matrices:

    * YES: D is a direct sum of companions C(r(s)), r(s) coprime to F.
    * mutated: D = C(f + t), f the product of those blocks; the regular
      verdict is predicted by the symmetry test of acceptance criterion 7,
      and the whole verdict when f + t is coprime to F.

    Every instance sends classify, decide and witness; a returned witness is
    sent back through verify; some slots add enumerate.
    """

    name = "cli_queries"
    deadline_s = 10.0
    # One round.  Each slot fixes the structure of an instance and the seed
    # picks its values: (field, p shape, q shape, degrees of the base
    # polynomials r, mutated?, conjugation sweeps, enumerate dim or 0).
    # n = dim v = 2 * sum of the r degrees.
    SLOTS = [
        ("Q", "simple", "double", (1, 1), False, 2, 4),
        ("GFp", "irr", "simple", (1, 2), False, 2, 0),
        ("GF4", "simple", "double", (1, 2), True, 2, 4),
        ("GF27", "irr", "irr", (2, 2), False, 2, 0),
        ("GF2s", "irr", "simple", (1, 1), True, 2, 4),
        ("Q", "irrbig", "irr", (1, 2, 1, 2), False, 2, 0),
        ("GF27", "simple", "irr", (1, 2), True, 2, 2),
        ("GF2s", "double", "irr", (1, 2), False, 1, 0),
        ("Q", "irr", "simple", (2, 2), True, 2, 0),
        ("GF4", "double", "simple", (1, 2, 2, 2), False, 2, 0),
        ("GFp", "double", "double", (1, 1, 1, 2, 2), True, 2, 0),
        ("Q", "simple", "irrbig", (1, 2, 2, 2), True, 2, 0),
        # dense over GF(2)(s): the SNF raises DegreeBoundExceeded
        ("GF2s", "simple", "simple", (1, 2), True, 6, 0),
        ("GF27", "double", "irr", (1, 1, 2, 2), False, 2, 0),
        ("GF4", "irr", "simple", (1, 2, 2), True, 2, 0),
    ]

    def __init__(self):
        for spec in ("Q", "GF(2)(s)", "GF(4)|t^2+t+1", "GF(27)|t^3+2*t+1", "GF(100003)"):
            field_make(spec)

    def _spec(self, kind: str, rng) -> str:
        if kind == "GFp":
            return f"GF({rng.choice(_PRIMES_NEAR_1E5)})"
        return {"Q": "Q", "GF2s": "GF(2)(s)", "GF4": "GF(4)|t^2+t+1",
                "GF27": "GF(27)|t^3+2*t+1"}[kind]

    def _instance(self, rng, slot):
        kind, p_shape, q_shape, degrees, mutated, sweeps, _enum = slot
        spec = self._spec(kind, rng)
        gen = _FieldGen(spec, rng)
        ctx = gen.ctx
        p_txt, p_split, p_double = gen.quadratic(p_shape)
        q_txt, q_split, q_double = gen.quadratic(q_shape)
        p, q = parse_poly(ctx, p_txt), parse_poly(ctx, q_txt)
        # the pair invariants F and s, without the case classification
        pc = _Invariants(fundamental_poly(p, q), delta_of(p, q))
        blocks = [gen.coprime_base(d, pc).compose(pc.sigma) for d in degrees]
        if mutated:
            f = blocks[0]
            for b in blocks[1:]:
                f = f * b
            f = f + Poly.t(ctx)
            regular = _is_sigma_poly(_strip(f, pc.F), pc.delta)
            verdict = ("yes" if regular else "no") if f.gcd(pc.F).degree == 0 else None
            D = companion(f)
        else:
            regular, verdict = True, "yes"
            D = direct_sum(*(companion(b) for b in blocks))
        # enumerate over an infinite field needs an inventory of irreducibles:
        # two linear r with r(s) coprime to F, each giving floor(dim / 2) rows
        inventory = []
        if ctx.order is None:
            while len(inventory) < 2:
                r = gen.coprime_base(1, pc)
                if r not in inventory:
                    inventory.append(r)
        v = gen.conjugate(D, sweeps)
        return {
            "spec": spec, "p": p_txt, "q": q_txt, "mutated": mutated,
            "split": (p_split, p_double, q_split, q_double),
            "regular": regular, "verdict": verdict,
            "v": json.dumps(ser.encode_mat(v), separators=(",", ":")),
            "inventory": inventory, "infinite": ctx.order is None,
        }

    def _classify(self, inst) -> Item:
        argv = ["classify", "--field", inst["spec"], "--p", inst["p"], "--q", inst["q"]]
        p_split, p_double, q_split, q_double = inst["split"]

        def run():
            rc, out = cli_call(argv)
            _check(rc == 0, f"classify exit {rc}: {out[:200]}")
            family = json.loads(out)["family"]
            _check(family in _SPLIT_FAMILIES[p_split + q_split],
                   f"family {family} with {p_split + q_split} split quadratics")
            if p_split and q_split:
                want = ("split-double-double" if p_double and q_double else
                        "split-simple-simple" if not (p_double or q_double) else
                        "split-mixed")
                _check(family == want, f"family {family}, constructed {want}")

        return Item("classify", " ".join(argv), run)

    def _decide(self, inst) -> Item:
        argv = ["decide", "--field", inst["spec"], "--p", inst["p"], "--q", inst["q"],
                "--v", inst["v"]]

        def run():
            rc, out = cli_call(argv)
            _check(rc in (0, 2), f"decide exit {rc}: {out[:200]}")
            rep = json.loads(out)
            _check(rc == (0 if rep["verdict"] == "yes" else 2), "exit code vs verdict")
            _check(rep["regular_ok"] == inst["regular"],
                   f"regular_ok {rep['regular_ok']}, predicted {inst['regular']}")
            if inst["verdict"] is not None:
                _check(rep["verdict"] == inst["verdict"],
                       f"verdict {rep['verdict']}, constructed {inst['verdict']}")

        return Item("decide", " ".join(argv), run)

    def _witness(self, inst, box: dict) -> Item:
        argv = ["witness", "--field", inst["spec"], "--p", inst["p"], "--q", inst["q"],
                "--v", inst["v"]]

        def run():
            rc, out = cli_call(argv)
            _check(rc in (0, 2), f"witness exit {rc}: {out[:200]}")
            rep = json.loads(out)
            _check(rc == (0 if rep["verdict"] == "yes" else 2), "exit code vs verdict")
            if inst["verdict"] is not None:
                _check(rep["verdict"] == inst["verdict"],
                       f"verdict {rep['verdict']}, constructed {inst['verdict']}")
            if not inst["regular"]:
                _check(rep["verdict"] == "no", "YES for a non-regular instance")
            if rep.get("witness") is not None:
                _check(rep["verification"]["ok"], "attached verification fails")
                box["witness"] = json.dumps(rep["witness"], separators=(",", ":"))
            elif not inst["mutated"]:
                # every factor of a YES instance is a polynomial in s, so a
                # witness is always constructible
                raise WrongAnswer("no witness for an all-duplication-block instance")

        return Item("witness", " ".join(argv), run)

    def _verify(self, inst, witness_json: str) -> Item:
        argv = ["verify", "--field", inst["spec"], "--p", inst["p"], "--q", inst["q"],
                "--witness", witness_json]

        def run():
            rc, out = cli_call(argv)
            _check(rc == 0, f"verify exit {rc}: {out[:200]}")
            _check(json.loads(out)["ok"] is True, "round-tripped witness fails verify")

        return Item("verify", " ".join(argv), run)

    def _enumerate(self, inst, dim: int) -> Item:
        argv = ["enumerate", "--field", inst["spec"], "--p", inst["p"], "--q", inst["q"],
                "--dim", str(dim)]
        expected_regular = None
        if inst["infinite"]:
            argv += ["--inventory", ";".join(str(r) for r in inst["inventory"])]
            expected_regular = len(inst["inventory"]) * (dim // 2)

        def run():
            rc, out = cli_call(argv)
            _check(rc == 0, f"enumerate exit {rc}: {out[:200]}")
            rows = [json.loads(line) for line in out.splitlines() if line.strip()]
            for row in rows:
                _check(1 <= row["dim"] <= dim, f"row of dimension {row['dim']}")
                _check(row["rep"]["rows"] == row["dim"], "rep shape != dim")
            if expected_regular is not None:
                got = sum(1 for row in rows if row["table"] == 1)
                _check(got == expected_regular,
                       f"{got} regular rows, constructed {expected_regular}")

        return Item("enumerate", " ".join(argv), run)

    def warmup(self) -> Item:
        argv = ["classify", "--field", "Q", "--p", "t^2+1", "--q", "(t-1)*(t-2)"]

        def run():
            rc, out = cli_call(argv)
            _check(rc == 0 and json.loads(out)["family"] in _SPLIT_FAMILIES[1],
                   f"warm-up classify: {out[:200]}")

        return Item("classify", " ".join(argv), run)

    def items(self, seed: int) -> Iterator[Optional[Item]]:
        rng = random.Random(f"cli_queries:{seed}")
        while True:
            for slot in self.SLOTS:
                inst = self._instance(rng, slot)
                enum_dim = slot[-1]
                yield self._classify(inst)
                yield self._decide(inst)
                box: dict = {}
                yield self._witness(inst, box)
                if "witness" in box:
                    yield self._verify(inst, box["witness"])
                if enum_dim:
                    yield self._enumerate(inst, enum_dim)
            yield None


WORKLOADS = {w.name: w for w in (DupBlocks, OracleSweep, CliQueries)}
