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

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional

from . import fields
from .errors import (
    ConstructionInvariantViolated,
    DivisionByZero,
    FieldSpecError,
    InfiniteField,
    InvalidArgument,
    MixedFieldContexts,
    NonMonic,
    NotIrreducible,
    WrongDegree,
    ZeroPolynomial,
)
from .fields import FieldCtx


# ----------------------------------------------------------------------
# low-level coefficient-tuple arithmetic
# ----------------------------------------------------------------------


class PolyOps:
    """Bundle of coefficient-tuple operations bound to one field context."""

    __slots__ = (
        "ctx", "trim", "add", "sub", "neg", "mul", "scale", "divmod", "monic",
        "submul", "gcd",
    )

    def __init__(
        self, ctx, trim, add, sub, neg, mul, scale, divmod_, monic, submul, gcd
    ):
        self.ctx = ctx
        self.trim = trim  # drop trailing zeros, as a tuple
        self.add = add
        self.sub = sub
        self.neg = neg
        self.mul = mul
        self.scale = scale
        self.divmod = divmod_
        self.monic = monic
        self.submul = submul  # submul(a, q, b) = a - q*b
        self.gcd = gcd  # monic gcd


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

    def submul(a, q, b):
        return sub(a, mul(q, b))

    def gcd(a, b):
        while b:
            if len(b) == 1:
                return (ctx.one,)
            a, b = b, divmod_(a, b)[1]
        return monic(a)

    return PolyOps(
        ctx, trim, add, sub, neg, mul, scale, divmod_, monic, submul, gcd
    )


def _prime_poly_ops(ctx) -> PolyOps:
    p = ctx.p
    return PolyOps(
        ctx,
        fields._ztrim,
        *(
            functools.partial(f, p=p)
            for f in (
                fields._zadd, fields._zsub, fields._zneg, fields._zmul,
                fields._zscale, fields._zdivmod, fields._zmonic,
                fields._zsubmul, fields._zgcd,
            )
        ),
    )


def poly_ops(ctx: FieldCtx) -> PolyOps:
    """ctx's kernels, built on first use and kept on ctx, so they go with it."""
    ops = ctx._poly_ops
    if ops is None:
        if ctx.kind == "prime":
            ops = _prime_poly_ops(ctx)
        else:
            ops = _generic_poly_ops(ctx)
        ctx._poly_ops = ops
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
    def one(cls, ctx):
        return cls(ctx, (ctx.one,))

    @classmethod
    def t(cls, ctx):
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (c,))

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
            raise InvalidArgument("negative polynomial power")
        return fields._power(self, n, Poly.one(self.ctx), Poly.__mul__)

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
        return Poly(self.ctx, poly_ops(self.ctx).gcd(self.coeffs, other.coeffs))

    # -- evaluation and substitution ---------------------------------------

    def eval(self, x):
        ctx = self.ctx
        acc = ctx.zero
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc

    def compose(self, other: "Poly") -> "Poly":
        self._check(other)
        ops = poly_ops(self.ctx)
        acc = ()
        for c in reversed(self.coeffs):
            acc = ops.add(ops.mul(acc, other.coeffs), (c,))
        return Poly(self.ctx, acc)

    def translate(self, z) -> "Poly":
        """self(t + z)."""
        shift = Poly(self.ctx, (z, self.ctx.one))
        return self.compose(shift)

    # -- comparisons and display -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ctx == self.ctx
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

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
# the difference-root polynomial
# ----------------------------------------------------------------------


def _require_monic_quadratic(f: Poly, name: str):
    if f.degree != 2:
        raise WrongDegree(f"{name} must have degree 2, got {f.degree}")
    if not f.is_monic:
        raise NonMonic(f"{name} must be monic")


def _norm_over_p(p: Poly, a: Poly, b: Poly) -> Poly:
    """N(a*x + b) = a^2*alpha + a*b*lambda + b^2: the norm from F[x]/(p) of
    a*x + b, for p = x^2 - lambda*x + alpha and a, b polynomials in t."""
    lam, alpha = trace_of(p), p.coeffs[0]
    return (a * a).scale(alpha) + (a * b).scale(lam) + b * b


def fundamental_poly(p: Poly, q: Poly) -> Poly:
    """The monic quartic whose roots are all differences x - y over the
    algebraic closure, x a root of p and y a root of q.

    F(t) = res_x(p(x), q(x - t)) is the norm from F[x]/(p) of q(x - t)
    reduced mod p.  With p = x^2 - lambda*x + alpha, q = x^2 - mu*x + beta
    and delta = lambda - mu that remainder is
    (delta - 2t)*x + (t^2 + mu*t + beta - alpha), so
    F = N((delta - 2t)*x + (t^2 + mu*t + beta - alpha)).
    Monicity is asserted, not assumed.
    """
    p._check(q)
    _require_monic_quadratic(p, "p")
    _require_monic_quadratic(q, "q")
    ctx = p.ctx
    mu, alpha, beta = trace_of(q), p.coeffs[0], q.coeffs[0]
    a = Poly(ctx, (delta_of(p, q), ctx.from_int(-2)))
    b = Poly(ctx, (ctx.sub(beta, alpha), mu, ctx.one))
    F = _norm_over_p(p, a, b)
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
    difference-root quartic and delta = trace(p) - trace(q).

    L(0) = F(0) = res(p, q) is the norm from F[x]/(p) of q mod p, that is
    N(delta*x + (beta - alpha)) for p = x^2 - lambda*x + alpha and
    q = x^2 - mu*x + beta.
    """
    p._check(q)
    _require_monic_quadratic(p, "p")
    _require_monic_quadratic(q, "q")
    ctx = p.ctx
    lam, mu = trace_of(p), trace_of(q)
    alpha, beta = p.coeffs[0], q.coeffs[0]
    lin = ctx.sub(ctx.mul(ctx.from_int(2), ctx.add(alpha, beta)), ctx.mul(lam, mu))
    const = _norm_over_p(
        p, Poly.constant(ctx, delta_of(p, q)), Poly.constant(ctx, ctx.sub(beta, alpha))
    ).coefficient(0)
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
# roots of quadratics, by square roots
# ----------------------------------------------------------------------


def _sqrt_finite(ctx: FieldCtx, a):
    """A square root of a in a finite field of odd order, or None
    (Tonelli-Shanks, with the first non-square among the candidates below;
    another non-square can only flip the sign of the root).

    Over GF(p^k), k >= 2, the candidates g + c, c in GF(p), come before
    ``ctx.elements()``: the norm of g + c is +-f(-c), f the modulus, a
    non-square for about half of the c, whereas for even k the first p
    elements, c g^(k-1), can all be squares (they are over
    GF(p^2)|t^2+1, whose g^2 = -1 has order 4)."""
    power, mul, one = ctx.power, ctx.mul, ctx.one
    half = (ctx.order - 1) // 2
    if ctx.is_zero(a):
        return a
    if power(a, half) != one:
        return None
    odd, m = ctx.order - 1, 0
    while odd % 2 == 0:
        odd, m = odd // 2, m + 1
    minus_one = ctx.neg(one)
    candidates = ctx.elements()
    if ctx.kind == "extension" and ctx.k > 1:
        shifts = ((c, 1) + ctx.zero[2:] for c in range(ctx.p))
        candidates = itertools.chain(shifts, candidates)
    nonsquare = next(z for z in candidates if power(z, half) == minus_one)
    z = power(nonsquare, odd)  # of order 2^m
    x, b = power(a, (odd + 1) // 2), power(a, odd)  # x^2 = a*b throughout
    while b != one:
        i, c = 0, b
        while c != one:  # b has order 2^i, i < m
            c, i = mul(c, c), i + 1
        for _ in range(m - i - 1):
            z = mul(z, z)
        x, z = mul(x, z), mul(z, z)
        b, m = mul(b, z), i
    return x


def _sqrt_rational(a):
    """A square root of a over Q, or None."""
    if a < 0:
        return None
    n, d = math.isqrt(a.numerator), math.isqrt(a.denominator)
    if n * n != a.numerator or d * d != a.denominator:
        return None
    return Fraction(n, d)


def _sqrt_ratfunc(ctx, a):
    """A square root of a over GF(p)(s), or None: for a = N/D it is
    sqrt(w)/D, w = N*D.  For p = 2, w = w_0(s)^2 + s*w_1(s)^2 with w_0, w_1
    its even and odd coefficients, so w is a square exactly when w_1 = 0,
    and w_0 is its root.  For odd p the polynomial square root r of w is
    matched coefficient by coefficient from the top."""
    p = ctx.p
    w = fields._zmul(a[0], a[1], p)
    if not w:
        return a
    if p == 2:
        return None if any(w[1::2]) else ctx.from_polys(w[::2], a[1])
    if len(w) % 2 == 0:  # odd degree
        return None
    m = len(w) // 2
    lead = _sqrt_finite(fields.PrimeField(p), w[-1])
    if lead is None:
        return None
    # the s^(2m-k) coefficient of r^2 is 2*r_m*r_(m-k) plus products of
    # coefficients r_(m-k+1), ..., r_(m-1) already found
    r = [0] * m + [lead]
    inv = pow(2 * lead, -1, p)
    for k in range(1, m + 1):
        known = sum(r[i] * r[2 * m - k - i] for i in range(m - k + 1, m))
        r[m - k] = (w[2 * m - k] - known) * inv % p
    r = fields._ztrim(r)
    if fields._zmul(r, r, p) != w:
        return None
    return ctx.from_polys(r, a[1])


def _sqrt(ctx, a):
    """A square root of a in ctx, or None: ``isqrt`` of numerator and
    denominator over Q, a polynomial square root over GF(p)(s), the inverse
    of Frobenius, a^(q/2), over GF(2^k), and Tonelli-Shanks over the other
    finite fields."""
    if ctx.kind == "rationals":
        return _sqrt_rational(a)
    if ctx.kind == "ratfunc":
        return _sqrt_ratfunc(ctx, a)
    if ctx.order is None:
        raise InfiniteField(f"cannot find roots over {ctx}")
    if ctx.characteristic == 2:
        return ctx.power(a, ctx.order // 2)
    return _sqrt_finite(ctx, a)


def _gf2_solve(columns, target):
    """A bit mask x such that the XOR of the columns[i] with bit i set in x
    is target, or None; vectors are int bit masks (Gaussian elimination
    over GF(2))."""
    pivots = {}  # leading bit -> (vector, mask of the columns it sums)

    def reduce(v, x):
        while v and v.bit_length() in pivots:
            pv, px = pivots[v.bit_length()]
            v, x = v ^ pv, x ^ px
        return v, x

    for i, col in enumerate(columns):
        v, x = reduce(col, 1 << i)
        if v:
            pivots[v.bit_length()] = (v, x)
    v, x = reduce(target, 0)
    return None if v else x


def _bits(cs):
    return sum(c << i for i, c in enumerate(cs))


def _artin_schreier(ctx, e):
    """One y with y^2 + y = e in characteristic 2, or None (the other is
    y + 1).  y -> y^2 + y is GF(2)-linear, so it is solved by linear
    algebra over GF(2)."""
    if ctx.kind == "prime":  # over GF(2), y^2 + y vanishes identically
        return ctx.zero if ctx.is_zero(e) else None
    if ctx.kind == "extension":  # on the k coordinates
        k = ctx.k
        basis = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        x = _gf2_solve([_bits(ctx.add(ctx.mul(g, g), g)) for g in basis], _bits(e))
        return None if x is None else tuple((x >> i) & 1 for i in range(k))
    if ctx.kind != "ratfunc":
        raise FieldSpecError(f"no root finder in characteristic 2 over {ctx}")
    # GF(2)(s): y = A/E in lowest terms has y^2 + y = (A^2 + E*A)/E^2 in
    # lowest terms, so e = N/E^2 needs a square denominator, and then
    # A^2 + E*A = N with deg A <= max(deg E, deg N / 2)
    num, den = e
    if any(den[1::2]):
        return None
    E = den[::2]  # den = E(s)^2 = E(s^2)
    m = max(len(E) - 1, (len(num) - 1) // 2)
    cols = [(1 << 2 * i) ^ (_bits(E) << i) for i in range(m + 1)]
    x = _gf2_solve(cols, _bits(num))
    if x is None:
        return None
    return ctx.from_polys(tuple((x >> i) & 1 for i in range(m + 1)), E)


def roots_in_field(f: Poly):
    """All roots of f, of degree at most 2, in its own coefficient field,
    with multiplicity, in ``ctx.sort_key`` order.

    A quadratic costs one square root (:func:`_sqrt`).  In odd
    characteristic the quadratic formula takes the square root of the
    discriminant.  In characteristic 2, x^2 + c has the double root sqrt(c),
    and x^2 + b*x + c with b != 0 becomes y^2 + y = c/b^2 (x = b*y), solved
    by GF(2)-linear algebra.  The roots of the quartic F = Lam(t^2 - delta*t)
    come in two such stages (:func:`sympdiff.decide.pair_context`).
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has every root")
    if f.degree > 2:
        raise WrongDegree(f"roots_in_field solves degree <= 2, got {f.degree}")
    ctx = f.ctx
    if f.degree == 0:
        return []
    f = f.monic()
    c = f.coeffs[0]
    if f.degree == 1:
        return [ctx.neg(c)]
    b = f.coeffs[1]
    if ctx.characteristic == 2:
        if ctx.is_zero(b):
            r = _sqrt(ctx, c)
            return [] if r is None else [r, r]
        y = _artin_schreier(ctx, ctx.div(c, ctx.mul(b, b)))
        if y is None:
            return []
        roots = [ctx.mul(b, y), ctx.mul(b, ctx.add(y, ctx.one))]
    else:
        r = _sqrt(ctx, ctx.sub(ctx.mul(b, b), ctx.mul(ctx.from_int(4), c)))
        if r is None:
            return []
        half, nb = ctx.inv(ctx.from_int(2)), ctx.neg(b)
        roots = [ctx.mul(ctx.add(nb, r), half), ctx.mul(ctx.sub(nb, r), half)]
    return sorted(roots, key=ctx.sort_key)


def _has_rational_root(f: Poly) -> bool:
    """Whether a cubic over Q has a rational root.

    For D the common denominator of monic f, h(w) = D^3 * f(w/D) is a
    monic integer cubic whose rational roots are integers, all inside the
    Cauchy bound.  Cut at the integers around the critical points of h, it
    is monotone on each stretch, which is bisected for an integer zero.
    """
    f = f.monic()
    D = math.lcm(*(c.denominator for c in f.coeffs))
    h0, h1, h2 = (int(c * D ** (3 - i)) for i, c in enumerate(f.coeffs[:3]))

    def h(w):
        return ((w + h2) * w + h1) * w + h0

    bound = 1 + max(abs(h0), abs(h1), abs(h2))
    cuts = {-bound, bound}
    disc = h2 * h2 - 3 * h1  # critical points (-h2 +- sqrt(disc)) / 3
    if disc > 0:
        r = math.isqrt(disc)
        for c in ((-h2 - r) // 3, (-h2 + r) // 3):  # critical point in (c-1, c+2)
            cuts.update(x for x in range(c - 1, c + 3) if -bound < x < bound)
    cuts = sorted(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        a, b = h(lo), h(hi)
        if a == 0 or b == 0:
            return True
        if (a < 0) == (b < 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            v = h(mid)
            if v == 0:
                return True
            lo, hi = (mid, hi) if (v < 0) == (a < 0) else (lo, mid)
    return False


def _pow_mod(ops: PolyOps, a, e: int, mod):
    """a^e modulo ``mod``, on coefficient tuples."""
    def mulmod(x, y):
        return ops.divmod(ops.mul(x, y), mod)[1]

    return fields._power(ops.divmod(a, mod)[1], e, (ops.ctx.one,), mulmod)


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over the coefficient field.

    Decided over finite fields in every degree (Rabin test); over infinite
    fields for quadratics (irreducible iff :func:`roots_in_field` finds no
    root) and for cubics over Q (iff no rational root).  Every other case
    -- cubics over GF(p)(s), degree >= 4 over Q or GF(p)(s) -- raises
    NotIrreducible, which the callers read as "trusted".
    """
    if f.degree <= 0:
        return False
    if f.degree == 1:
        return True
    ctx = f.ctx
    if ctx.order is not None:
        ops = poly_ops(ctx)
        q = ctx.order
        d = f.degree
        fm = f.monic().coeffs
        t = (ctx.zero, ctx.one)  # reduced modulo fm, as d >= 2
        if ops.sub(_pow_mod(ops, t, q ** d, fm), t):
            return False
        for ell in fields._prime_factors(d):
            g = _pow_mod(ops, t, q ** (d // ell), fm)
            if len(ops.gcd(fm, ops.sub(g, t))) > 1:
                return False
        return True
    if f.degree == 2:
        return not roots_in_field(f)
    if f.degree == 3 and ctx.kind == "rationals":
        return not _has_rational_root(f)
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
