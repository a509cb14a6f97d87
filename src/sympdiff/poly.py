"""Univariate polynomials over an exact field context.

Two layers:

* low-level functions on trimmed coefficient tuples (constant term first,
  ``()`` is the zero polynomial), packaged per-context by :func:`poly_ops`
  so hot loops pay no wrapper overhead — prime fields get an int-mod
  specialization;
* the :class:`Poly` value class used by everything else.

Degree of the zero polynomial is the sentinel ``-1``.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Optional

from . import fields
from .errors import (
    ConstructionInvariantViolated,
    DivisionByZero,
    InfiniteField,
    MixedFieldContexts,
    NonMonic,
    NotIrreducible,
    WrongDegree,
    ZeroPolynomial,
)
from .fields import FieldCtx, QuadraticExtension


# ----------------------------------------------------------------------
# low-level coefficient-tuple arithmetic
# ----------------------------------------------------------------------


class PolyOps:
    """Bundle of coefficient-tuple operations bound to one field context."""

    __slots__ = ("ctx", "add", "sub", "neg", "mul", "scale", "divmod", "monic")

    def __init__(self, ctx, add, sub, neg, mul, scale, divmod_, monic):
        self.ctx = ctx
        self.add = add
        self.sub = sub
        self.neg = neg
        self.mul = mul
        self.scale = scale
        self.divmod = divmod_
        self.monic = monic


def _generic_poly_ops(ctx: FieldCtx) -> PolyOps:
    zero = ctx.zero
    cadd, csub, cneg, cmul, cinv = ctx.add, ctx.sub, ctx.neg, ctx.mul, ctx.inv

    def trim(cs):
        n = len(cs)
        while n and cs[n - 1] == zero:
            n -= 1
        return tuple(cs[:n])

    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = cadd(out[i], c)
        return trim(out)

    def neg(a):
        return tuple(cneg(c) for c in a)

    def sub(a, b):
        return add(a, neg(b))

    def mul(a, b):
        if not a or not b:
            return ()
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != zero:
                for j, y in enumerate(b):
                    out[i + j] = cadd(out[i + j], cmul(x, y))
        return trim(out)

    def scale(a, c):
        if c == zero:
            return ()
        return trim(tuple(cmul(x, c) for x in a))

    def divmod_(a, b):
        if not b:
            raise DivisionByZero("polynomial division by zero")
        rem = list(a)
        db = len(b) - 1
        ilb = cinv(b[-1])
        q = [zero] * max(len(a) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = cmul(rem[i], ilb)
            if c != zero:
                q[i - db] = c
                for j, y in enumerate(b):
                    rem[i - db + j] = csub(rem[i - db + j], cmul(c, y))
        return trim(q), trim(rem)

    def monic(a):
        if not a or a[-1] == ctx.one:
            return a
        il = cinv(a[-1])
        return tuple(cmul(c, il) for c in a)

    return PolyOps(ctx, add, sub, neg, mul, scale, divmod_, monic)


def _prime_poly_ops(ctx) -> PolyOps:
    p = ctx.p

    def add(a, b):
        return fields._zadd(a, b, p)

    def sub(a, b):
        return fields._zsub(a, b, p)

    def neg(a):
        return fields._zneg(a, p)

    def mul(a, b):
        return fields._zmul(a, b, p)

    def scale(a, c):
        return fields._zscale(a, c, p)

    def divmod_(a, b):
        return fields._zdivmod(a, b, p)

    def monic(a):
        return fields._zmonic(a, p)

    return PolyOps(ctx, add, sub, neg, mul, scale, divmod_, monic)


_OPS_CACHE: dict = {}


def poly_ops(ctx: FieldCtx) -> PolyOps:
    ops = _OPS_CACHE.get(ctx)
    if ops is None:
        if ctx.kind == "prime":
            ops = _prime_poly_ops(ctx)
        else:
            ops = _generic_poly_ops(ctx)
        _OPS_CACHE[ctx] = ops
    return ops


# ----------------------------------------------------------------------
# the Poly value class
# ----------------------------------------------------------------------


class Poly:
    """Immutable univariate polynomial over a field context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable = ()):
        zero = ctx.zero
        cs = tuple(coeffs)
        n = len(cs)
        while n and cs[n - 1] == zero:
            n -= 1
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", cs[:n])

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):  # the immutability guard blocks default unpickling
        return (Poly, (self.ctx, self.coeffs))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one,))

    @classmethod
    def t(cls, ctx):
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (c,))

    @classmethod
    def from_ints(cls, ctx, ints: Iterable[int]):
        return cls(ctx, tuple(ctx.from_int(n) for n in ints))

    @classmethod
    def monomial(cls, ctx, e: int, c=None):
        c = ctx.one if c is None else c
        return cls(ctx, (ctx.zero,) * e + (c,))

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise MixedFieldContexts(f"{self.ctx} vs {other.ctx}")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Poly(self.ctx, poly_ops(self.ctx).add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return Poly(self.ctx, poly_ops(self.ctx).sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly(self.ctx, poly_ops(self.ctx).neg(self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return Poly(self.ctx, poly_ops(self.ctx).mul(self.coeffs, other.coeffs))

    def scale(self, c):
        return Poly(self.ctx, poly_ops(self.ctx).scale(self.coeffs, c))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        self._check(other)
        q, r = poly_ops(self.ctx).divmod(self.coeffs, other.coeffs)
        return Poly(self.ctx, q), Poly(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        return Poly(self.ctx, poly_ops(self.ctx).monic(self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        self._check(other)
        ops = poly_ops(self.ctx)
        a, b = self.coeffs, other.coeffs
        while b:
            a, b = b, ops.divmod(a, b)[1]
        return Poly(self.ctx, ops.monic(a))

    # -- evaluation and substitution ---------------------------------------

    def eval(self, x):
        ctx = self.ctx
        acc = ctx.zero
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc

    def compose(self, other: "Poly") -> "Poly":
        self._check(other)
        acc = Poly.zero(self.ctx)
        for c in reversed(self.coeffs):
            acc = acc * other + Poly.constant(self.ctx, c)
        return acc

    def translate(self, z) -> "Poly":
        """self(t + z)."""
        shift = Poly(self.ctx, (z, self.ctx.one))
        return self.compose(shift)

    def derivative(self) -> "Poly":
        ctx = self.ctx
        return Poly(
            ctx,
            tuple(
                ctx.mul(ctx.from_int(i), c)
                for i, c in enumerate(self.coeffs)
                if i >= 1
            ),
        )

    # -- comparisons and display -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ctx == self.ctx
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def sort_key(self):
        ctx = self.ctx
        return (len(self.coeffs), tuple(ctx.sort_key(c) for c in self.coeffs))

    def __str__(self):
        ctx = self.ctx
        if not self.coeffs:
            return "0"
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == ctx.zero:
                continue
            cs = ctx.format(c)
            if e == 0:
                terms.append(cs if _is_simple(cs) else f"({cs})")
                continue
            v = "t" if e == 1 else f"t^{e}"
            if c == ctx.one:
                terms.append(v)
            elif _is_simple(cs):
                terms.append(f"{cs}*{v}")
            else:
                terms.append(f"({cs})*{v}")
        out = terms[0]
        for term in terms[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    def __repr__(self):
        return f"Poly({self.ctx!r}, {self})"


def _is_simple(s: str) -> bool:
    return not any(op in s[1:] for op in "+-") and "/" not in s


# ----------------------------------------------------------------------
# resultants and the difference-root polynomial
# ----------------------------------------------------------------------


def sylvester_matrix(a: Poly, b: Poly):
    """Sylvester matrix of (a, b) as nested lists, rows of ``a`` first."""
    if a.is_zero or b.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    m, n = a.degree, b.degree
    size = m + n
    zero = a.ctx.zero
    rows = []
    ra = list(reversed(a.coeffs))
    rb = list(reversed(b.coeffs))
    for i in range(n):
        rows.append([zero] * i + ra + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + rb + [zero] * (size - i - n - 1))
    return rows


def resultant(a: Poly, b: Poly):
    """res(a, b) as the Sylvester determinant (scalar in the base field)."""
    a._check(b)
    ctx = a.ctx
    rows = sylvester_matrix(a, b)
    n = len(rows)
    det = ctx.one
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k] != ctx.zero), None)
        if piv is None:
            return ctx.zero
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = ctx.neg(det)
        det = ctx.mul(det, rows[k][k])
        ipiv = ctx.inv(rows[k][k])
        for i in range(k + 1, n):
            c = rows[i][k]
            if c != ctx.zero:
                f = ctx.mul(c, ipiv)
                rows[i] = [
                    ctx.sub(x, ctx.mul(f, y)) for x, y in zip(rows[i], rows[k])
                ]
    return det


def _require_monic_quadratic(f: Poly, name: str):
    if f.degree != 2:
        raise WrongDegree(f"{name} must have degree 2, got {f.degree}")
    if not f.is_monic:
        raise NonMonic(f"{name} must be monic")


def _poly_grid_det(grid):
    """Determinant of a small square grid of Poly entries (cofactor expansion)."""
    n = len(grid)
    if n == 0:
        raise ValueError("empty grid")
    if n == 1:
        return grid[0][0]
    total = None
    for j, top in enumerate(grid[0]):
        if top.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = top * _poly_grid_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return Poly.zero(grid[0][0].ctx) if total is None else total


def fundamental_poly(p: Poly, q: Poly) -> Poly:
    """The monic quartic whose roots are all differences x - y over the
    algebraic closure, x a root of p and y a root of q.

    Computed as res_x(p(x), q(x - t)), a 4x4 Sylvester determinant over
    the polynomial ring in t.  Monicity is asserted, not assumed.
    """
    p._check(q)
    _require_monic_quadratic(p, "p")
    _require_monic_quadratic(q, "q")
    ctx = p.ctx
    t = Poly.t(ctx)
    minus_t = -t
    one = Poly.one(ctx)
    # coefficients (in t) of q(x - t) as a polynomial in x
    qx = [Poly.zero(ctx), Poly.zero(ctx), Poly.zero(ctx)]
    for k, qk in enumerate(q.coeffs):
        qk_c = Poly.constant(ctx, qk)
        for j in range(k + 1):
            binom = Poly.constant(ctx, ctx.from_int(math.comb(k, j)))
            qx[j] = qx[j] + qk_c * binom * minus_t ** (k - j)
    px = [Poly.constant(ctx, c) for c in p.coeffs]
    zero = Poly.zero(ctx)
    # 4x4 Sylvester grid, p-rows first, highest x-coefficient first
    grid = [
        [px[2], px[1], px[0], zero],
        [zero, px[2], px[1], px[0]],
        [qx[2], qx[1], qx[0], zero],
        [zero, qx[2], qx[1], qx[0]],
    ]
    F = _poly_grid_det(grid)
    if F.degree != 4 or not F.is_monic:
        raise ConstructionInvariantViolated(
            f"difference-root polynomial is not a monic quartic: {F}"
        )
    return F


def trace_of(f: Poly):
    """For monic t^2 - a*t + b, the coefficient a (sum of the roots)."""
    _require_monic_quadratic(f, "f")
    return f.ctx.neg(f.coeffs[1])


def delta_of(p: Poly, q: Poly):
    """trace(p) - trace(q)."""
    return p.ctx.sub(trace_of(p), trace_of(q))


def lambda_poly(p: Poly, q: Poly) -> Poly:
    """The monic quadratic L with F(t) = L(t^2 - delta*t) for F the
    difference-root quartic and delta = trace(p) - trace(q)."""
    p._check(q)
    _require_monic_quadratic(p, "p")
    _require_monic_quadratic(q, "q")
    ctx = p.ctx
    lam, mu = trace_of(p), trace_of(q)
    lin = ctx.sub(
        ctx.mul(ctx.from_int(2), ctx.add(p.coeffs[0], q.coeffs[0])),
        ctx.mul(lam, mu),
    )
    const = resultant(p, q)
    return Poly(ctx, (const, lin, ctx.one))


def sigma_poly(ctx: FieldCtx, delta) -> Poly:
    """t^2 - delta*t."""
    return Poly(ctx, (ctx.zero, ctx.neg(delta), ctx.one))


def decompose_base_sigma(f: Poly, delta) -> Optional[Poly]:
    """If f(t) = s(t^2 - delta*t) for some polynomial s, return s, else None.

    Works by repeated division by t^2 - delta*t: every digit must be a
    constant.
    """
    sigma = sigma_poly(f.ctx, delta)
    digits = []
    cur = f
    while not cur.is_zero:
        cur, rem = divmod(cur, sigma)
        if rem.degree > 0:
            return None
        digits.append(rem.coefficient(0))
    return Poly(f.ctx, digits)


# ----------------------------------------------------------------------
# roots and factorization
# ----------------------------------------------------------------------


def _root_multiplicity(f: Poly, r):
    ctx = f.ctx
    lin = Poly(ctx, (ctx.neg(r), ctx.one))
    m = 0
    while True:
        q, rem = divmod(f, lin)
        if not rem.is_zero:
            return m
        f, m = q, m + 1


def _roots_by_scan(f: Poly):
    out = []
    for x in f.ctx.elements():
        if f.ctx.is_zero(f.eval(x)):
            out.extend([x] * _root_multiplicity(f, x))
    return out


def _int_divisors(n: int):
    n = abs(n)
    out = set()
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def _roots_rational(f: Poly):
    from fractions import Fraction

    # clear denominators, divide by integer content
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    g = math.gcd(*ints)
    if g:
        ints = [c // g for c in ints]
    # strip roots at zero
    out = []
    k = 0
    while ints[k] == 0:
        k += 1
    out.extend([Fraction(0)] * k)
    ints = ints[k:]
    if len(ints) == 1:
        return out
    lead, const = ints[-1], ints[0]
    seen = set()
    for c in _int_divisors(const):
        for d in _int_divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * c, d)
                if cand in seen:
                    continue
                seen.add(cand)
                if f.eval(cand) == 0:
                    out.extend([cand] * _root_multiplicity(f, cand))
    return out


def _roots_ratfunc(f: Poly):
    """Roots over GF(p)(s): clear denominators, then use that roots of monic
    integral polynomials are polynomial and divide the constant coefficient."""
    ctx = f.ctx
    p = ctx.p
    # common denominator
    den = (1,)
    for (num, d) in f.coeffs:
        den = fields._zdivmod(fields._zmul(den, d, p), fields._zgcd(den, d, p), p)[0]
    ints = []  # GF(p)[s] coefficient tuples
    for (num, d) in f.coeffs:
        ints.append(fields._zmul(num, fields._zdivmod(den, d, p)[0], p))
    # content
    content = ()
    for c in ints:
        content = fields._zgcd(content, c, p) if content else c
    if len(content) > 1:
        ints = [fields._zdivmod(c, content, p)[0] for c in ints]
    out = []
    k = 0
    while not ints[k]:
        k += 1
    out.extend([ctx.zero] * k)
    ints = ints[k:]
    n = len(ints) - 1
    if n == 0:
        return out
    lead = ints[-1]
    # h(w) = lead^(n-1) * f(w / lead) is monic integral; its roots are
    # lead * (roots of f), polynomial, and divide h(0).
    h0 = fields._zmul(ints[0], _zpow(lead, n - 1, p), p)
    if not h0:
        raise ConstructionInvariantViolated("constant term vanished unexpectedly")
    base = fields.PrimeField(p)
    factors = factor_ff(Poly(base, h0))
    divisors = [(1,)]
    for (g, mult) in factors:
        powers = []
        acc = (1,)
        for _ in range(mult + 1):
            powers.append(acc)
            acc = fields._zmul(acc, g.coeffs, p)
        divisors = [fields._zmul(d, pw, p) for d in divisors for pw in powers]
    lead_inv_scalar = ctx.from_polys((1,), lead)
    seen = set()
    for d in sorted(set(divisors)):
        for c in range(1, p):
            w = fields._zscale(d, c, p)
            z = ctx.mul(ctx.from_polys(w), lead_inv_scalar)
            if z in seen:
                continue
            seen.add(z)
            if ctx.is_zero(f.eval(z)):
                out.extend([z] * _root_multiplicity(f, z))
    return out


def _zpow(a, e, p):
    result = (1,)
    while e:
        if e & 1:
            result = fields._zmul(result, a, p)
        a = fields._zmul(a, a, p)
        e >>= 1
    return result


def roots_in_field(f: Poly):
    """All roots of f in its own coefficient field, with multiplicity,
    deterministically ordered."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has every root")
    ctx = f.ctx
    if f.degree == 0:
        return []
    if f.degree == 1:
        c0, c1 = f.coeffs
        return [ctx.neg(ctx.div(c0, c1))]
    if ctx.order is not None:
        roots = _roots_by_scan(f)
    elif ctx.kind == "rationals":
        roots = _roots_rational(f)
    elif ctx.kind == "ratfunc":
        roots = _roots_ratfunc(f)
    else:
        raise InfiniteField(f"cannot find roots over {ctx}")
    return sorted(roots, key=ctx.sort_key)


# -- finite-field factorization ------------------------------------------


def _pth_root(f: Poly) -> Poly:
    ctx = f.ctx
    p = ctx.characteristic
    q = ctx.order
    e = q // p
    return Poly(
        ctx, tuple(ctx.power(f.coeffs[i], e) for i in range(0, len(f.coeffs), p))
    )


def _squarefree_parts(f: Poly):
    """[(monic squarefree, multiplicity)] with product f (up to the leading
    coefficient); characteristic-p aware."""
    out = []
    e = 1
    f = f.monic()
    while f.degree > 0:
        df = f.derivative()
        if df.is_zero:
            f = _pth_root(f)
            e *= f.ctx.characteristic
            continue
        g = f.gcd(df)
        w = f // g
        i = 1
        while w.degree > 0:
            y = w.gcd(g)
            z = w // y
            if z.degree > 0:
                out.append((z, e * i))
            w = y
            g = g // y
            i += 1
        f = g
    return out


def _pow_mod(a: Poly, e: int, mod: Poly) -> Poly:
    result = Poly.one(a.ctx)
    a = a % mod
    while e:
        if e & 1:
            result = result * a % mod
        a = a * a % mod
        e >>= 1
    return result


def _random_poly(ctx, deg, rng, elems):
    return Poly(ctx, tuple(elems[rng.randrange(len(elems))] for _ in range(deg + 1)))


def _equal_degree_split(f: Poly, d: int, rng, elems):
    """Cantor-Zassenhaus splitting of a product of distinct irreducibles of
    degree d."""
    ctx = f.ctx
    q = ctx.order
    one = Poly.one(ctx)
    n = f.degree
    if n == d:
        return [f]
    while True:
        a = _random_poly(ctx, rng.randrange(1, n), rng, elems)
        if a.degree < 1:
            continue
        g = f.gcd(a)
        if 0 < g.degree < n:
            split = g
        elif q % 2 == 1:
            b = _pow_mod(a, (q ** d - 1) // 2, f)
            split = f.gcd(b - one)
        else:
            # characteristic 2: use the trace map
            k = q.bit_length() - 1  # q = 2^k
            tr = Poly.zero(ctx)
            cur = a % f
            for _ in range(d * k):
                tr = (tr + cur) % f
                cur = cur * cur % f
            split = f.gcd(tr)
        if 0 < split.degree < n:
            return _equal_degree_split(split, d, rng, elems) + _equal_degree_split(
                f // split, d, rng, elems
            )


def factor_ff(f: Poly):
    """Factor f over a finite field into monic irreducibles.

    Returns a deterministically sorted list of (factor, multiplicity); the
    unit leading coefficient is dropped.
    """
    ctx = f.ctx
    if ctx.order is None:
        raise InfiniteField(f"factor_ff needs a finite field, got {ctx}")
    if f.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    rng = random.Random(0xC0FFEE)
    elems = list(ctx.elements())
    q = ctx.order
    t = Poly.t(ctx)
    out = []
    for sqf, mult in _squarefree_parts(f):
        # distinct-degree stage
        h = t % sqf
        rest = sqf
        d = 0
        while rest.degree >= 2 * (d + 1):
            d += 1
            h = _pow_mod(h, q, rest)
            g = rest.gcd(h - t)
            if g.degree > 0:
                for irr in _equal_degree_split(g, d, rng, elems):
                    out.append((irr.monic(), mult))
                rest = rest // g
                h = h % rest
        if rest.degree > 0:
            out.append((rest.monic(), mult))
    out.sort(key=lambda fm: fm[0].sort_key())
    return out


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over the coefficient field.

    Complete over finite fields (Rabin test) and for degree <= 3 anywhere
    (reducible iff it has a root); degree >= 4 over infinite fields raises.
    """
    if f.degree <= 0:
        return False
    if f.degree == 1:
        return True
    ctx = f.ctx
    if ctx.order is not None:
        q = ctx.order
        d = f.degree
        fm = f.monic()
        t = Poly.t(ctx)
        h = _pow_mod(t, q ** d, fm)
        if not (h - t % fm).is_zero:
            return False
        for ell in fields._prime_factors(d):
            g = _pow_mod(t, q ** (d // ell), fm)
            if fm.gcd(g - t).degree > 0:
                return False
        return True
    if f.degree <= 3:
        return not roots_in_field(f)
    raise NotIrreducible(
        f"cannot decide irreducibility of degree {f.degree} over {ctx}"
    )


def monic_polys(ctx: FieldCtx, degree: int):
    """All monic polynomials of exact degree over a finite field, in
    deterministic order."""
    if ctx.order is None:
        raise InfiniteField(f"cannot enumerate polynomials over {ctx}")
    for lower in itertools.product(list(ctx.elements()), repeat=degree):
        yield Poly(ctx, tuple(lower) + (ctx.one,))


def irreducible_polys(ctx: FieldCtx, max_degree: int):
    """All monic irreducibles of degree 1..max_degree over a finite field."""
    for d in range(1, max_degree + 1):
        for f in monic_polys(ctx, d):
            if is_irreducible(f):
                yield f


# ----------------------------------------------------------------------
# monic quadratics: utilities used by the case classifier
# ----------------------------------------------------------------------


def quad_irreducible(f: Poly) -> bool:
    _require_monic_quadratic(f, "f")
    return not roots_in_field(f)


def translate_shifts(p: Poly, q: Poly):
    """All z in the base field with q(t) = p(t + z), by coefficient matching.

    Away from characteristic 2 there is at most one candidate; in
    characteristic 2 the matching reduces to a quadratic in z.
    """
    p._check(q)
    _require_monic_quadratic(p, "p")
    _require_monic_quadratic(q, "q")
    ctx = p.ctx
    if ctx.characteristic != 2:
        z = ctx.div(delta_of(p, q), ctx.from_int(2))
        return [z] if p.translate(z) == q else []
    if trace_of(p) != trace_of(q):
        return []
    # constant terms: z^2 - lam*z + p0 = q0
    lam = trace_of(p)
    g = Poly(ctx, (ctx.sub(p.coeffs[0], q.coeffs[0]), ctx.neg(lam), ctx.one))
    zs = []
    for z in roots_in_field(g):
        if z not in zs and p.translate(z) == q:
            zs.append(z)
    return zs


def quad_ext_roots(p: Poly, q: Poly):
    """Roots of q inside K = F[t]/(p), for p a monic irreducible quadratic.

    Returns (K, roots) where K is the quadratic-extension context and roots
    is the multiplicity-counted list of (a, b) scalars a + b*X, X the class
    of t.  Solved by coefficient matching over the base field — never by
    constructing a splitting field.
    """
    p._check(q)
    _require_monic_quadratic(p, "p")
    _require_monic_quadratic(q, "q")
    ctx = p.ctx
    alpha, lam = p.coeffs[0], ctx.neg(p.coeffs[1])
    beta, mu = q.coeffs[0], ctx.neg(q.coeffs[1])
    K = QuadraticExtension(ctx, alpha, lam)
    roots = []
    if ctx.characteristic != 2:
        # X-component of q(a + bX) vanishes iff 2a + lam*b = mu (b = 0 would
        # put a root of q in the base field)
        half = ctx.inv(ctx.from_int(2))
        a_of_b = Poly(ctx, (ctx.mul(mu, half), ctx.neg(ctx.mul(lam, half))))
        b_poly = Poly.t(ctx)
        P = (
            a_of_b * a_of_b
            - Poly.constant(ctx, alpha) * b_poly * b_poly
            - Poly.constant(ctx, mu) * a_of_b
            + Poly.constant(ctx, beta)
        )
        for b0 in roots_in_field(P):
            if not ctx.is_zero(b0):
                roots.append((a_of_b.eval(b0), b0))
    elif not ctx.is_zero(lam):
        if ctx.is_zero(mu):
            return K, []  # q inseparable, p separable: fields differ
        b0 = ctx.div(mu, lam)
        g = Poly(
            ctx,
            (
                ctx.add(beta, ctx.mul(alpha, ctx.mul(b0, b0))),
                mu,
                ctx.one,
            ),
        )
        for a0 in roots_in_field(g):
            roots.append((a0, b0))
    else:
        # p inseparable (char 2, trace 0)
        if not ctx.is_zero(mu):
            return K, []
        if ctx.order is not None:
            # every scalar of a finite field of characteristic 2 is a square,
            # so an inseparable quadratic over it is never irreducible
            raise NotIrreducible("inseparable quadratics over perfect fields split")
        ae, ao = ctx.frobenius_parts(alpha)
        be, bo = ctx.frobenius_parts(beta)
        if ctx.is_zero(ao):
            raise NotIrreducible("p is a square, not irreducible")
        b0 = ctx.div(bo, ao)
        a0 = ctx.add(be, ctx.mul(ae, b0))
        roots = [(a0, b0), (a0, b0)]  # (t - y)^2
    for y in roots:
        val = K.add(K.mul(y, y), K.add(K.mul(K.embed(ctx.neg(mu)), y), K.embed(beta)))
        if val != K.zero:
            raise ConstructionInvariantViolated("claimed extension root fails q")
    return K, sorted(roots, key=K.sort_key)
