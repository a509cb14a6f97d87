"""Exact field arithmetic.

A *field context* (FieldCtx) bundles the arithmetic of one exact field.
Scalars are plain hashable Python values whose type depends on the context:

================================  =============================================
context                           scalar representation
================================  =============================================
``RationalField``                 ``fractions.Fraction`` (auto-canonical)
``PrimeField(p)``                 ``int`` in ``[0, p)``
``ExtensionField(p, k, mod)``     ``tuple`` of ``k`` ints (coeffs of 1, g, ...)
``RationalFunctionField(p)``      ``(num, den)`` pair of int tuples over GF(p),
                                  denominator monic, fraction reduced
================================  =============================================

Representations are canonical, so scalar equality is structural ``==``.
All context methods are total on canonical inputs except ``inv``/``div``
(:class:`~sympdiff.errors.DivisionByZero`) and ``elements``
(:class:`~sympdiff.errors.InfiniteField` over Q and GF(p)(s)).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from .errors import (
    DegreeBoundExceeded,
    DivisionByZero,
    FieldSpecError,
    InfiniteField,
    NonPrimeCharacteristic,
    ReducibleModulus,
)

# ----------------------------------------------------------------------
# dense polynomial helpers over GF(p), used internally by the extension
# and rational-function contexts.  Coefficient tuples are constant-first
# with no trailing zeros; () is the zero polynomial.
# ----------------------------------------------------------------------


def _ztrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _zadd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    out += a[len(out):]
    return _ztrim(out)


def _zneg(a, p):
    return tuple((-c) % p for c in a)


def _zsub(a, b, p):
    return _zadd(a, _zneg(b, p), p)


def _zscale(a, c, p):
    if c % p == 0:
        return ()
    return tuple((x * c) % p for x in a)


def _zmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _ztrim([c % p for c in out])


def _zsubmul(a, q, b, p):
    """a - q*b in one pass."""
    out = list(a) + [0] * (len(q) + len(b) - 1 - len(a))
    for i, x in enumerate(q):
        for j, y in enumerate(b, i):
            out[j] -= x * y
    return _ztrim([c % p for c in out])


def _zdivmod(a, b, p):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    ilb = pow(lb, -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = (a[i] * ilb) % p
        if c:
            q[i - db] = c
            for j, y in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * y) % p
    return _ztrim(q), _ztrim(a)


def _zmonic(a, p):
    if not a:
        return a
    il = pow(a[-1], -1, p)
    return tuple((c * il) % p for c in a)


def _zgcd(a, b, p):
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, _zdivmod(a, b, p)[1]
    return _zmonic(a, p)


def _zxgcd(a, b, p):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _zdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zsub(s0, _zmul(q, s1, p), p)
        t0, t1 = t1, _zsub(t0, _zmul(q, t1, p), p)
    if r0:
        il = pow(r0[-1], -1, p)
        r0 = tuple((c * il) % p for c in r0)
        s0 = tuple((c * il) % p for c in s0)
        t0 = tuple((c * il) % p for c in t0)
    return r0, s0, t0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the prime bases up to 41 is exact below this bound
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldSpecError above the range
    where the fixed bases are proven exact."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_EXACT_BELOW:
        raise FieldSpecError(f"primality of {n} is not decided above 3.3e24")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _zformat(cs, var="s"):
    if not cs:
        return "0"
    terms = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            v = var if e == 1 else f"{var}^{e}"
            terms.append(v if c == 1 else f"{c}*{v}")
    return "+".join(terms)


# ----------------------------------------------------------------------
# field contexts
# ----------------------------------------------------------------------


class FieldCtx:
    """Common interface of all field contexts."""

    kind: str = "?"
    characteristic: int = 0
    order = None  # int for finite fields, None otherwise

    # subclasses fill in: zero, one, add, sub, mul, neg, inv, from_int,
    # elements, format, sort_key

    def is_zero(self, a) -> bool:
        return a == self.zero

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        result, base = self.one, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def sum(self, xs):
        acc = self.zero
        for x in xs:
            acc = self.add(acc, x)
        return acc

    def elements(self) -> Iterator:
        raise InfiniteField(f"cannot enumerate elements of {self}")

    def __repr__(self):
        return field_spec(self)


class RationalField(FieldCtx):
    """The rational numbers; scalars are ``fractions.Fraction``."""

    kind = "rationals"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if a == 0:
            raise DivisionByZero("1/0 over Q")
        return 1 / a

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def format(a):
        return str(a)

    @staticmethod
    def sort_key(a):
        return (a.numerator, a.denominator)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(FieldCtx):
    """GF(p); scalars are ints in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"1/0 over GF({self.p})")
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return iter(range(self.p))

    @staticmethod
    def format(a):
        return str(a)

    @staticmethod
    def sort_key(a):
        return (a,)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class ExtensionField(FieldCtx):
    """GF(p^k) presented by an explicit monic irreducible modulus over GF(p).

    Scalars are length-``k`` int tuples ``(c0, ..., c_{k-1})`` for
    ``c0 + c1*g + ... + c_{k-1}*g^{k-1}`` where ``g`` is the class of ``t``
    modulo the modulus.
    """

    kind = "extension"

    def __init__(self, p: int, k: int, modulus):
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        modulus = _ztrim(tuple(c % p for c in modulus))
        if len(modulus) != k + 1:
            raise ReducibleModulus(
                f"modulus degree {len(modulus) - 1} does not match extension degree {k}"
            )
        if modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic")
        from .poly import Poly, is_irreducible  # late import; avoids a cycle

        if not is_irreducible(Poly(PrimeField(p), modulus)):
            raise ReducibleModulus(
                f"{_zformat(modulus, 't')} is reducible over GF({p})"
            )
        self.p = p
        self.k = k
        self.modulus = modulus
        self.characteristic = p
        self.order = p ** k
        self.zero = (0,) * k
        self.one = tuple([1] + [0] * (k - 1))

    def _pad(self, cs):
        return tuple(cs) + (0,) * (self.k - len(cs))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        prod = _zmul(_ztrim(a), _ztrim(b), self.p)
        return self._pad(_zdivmod(prod, self.modulus, self.p)[1])

    def inv(self, a):
        ta = _ztrim(a)
        if not ta:
            raise DivisionByZero(f"1/0 over GF({self.p}^{self.k})")
        g, s, _ = _zxgcd(ta, self.modulus, self.p)
        if g != (1,):  # impossible for an irreducible modulus
            raise DivisionByZero("modulus not irreducible?")
        return self._pad(s)

    def from_int(self, n):
        return self._pad((n % self.p,) if n % self.p else ())

    def elements(self):
        for cs in itertools.product(range(self.p), repeat=self.k):
            yield cs

    def format(self, a):
        return _zformat(_ztrim(a), "g")

    @staticmethod
    def sort_key(a):
        return tuple(a)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("GFext", self.p, self.modulus))


# cap on the numerator and denominator degrees of a GF(p)(s) scalar
RATFUNC_MAX_DEGREE = 256


class RationalFunctionField(FieldCtx):
    """GF(p)(s): rational functions in one variable over GF(p).

    Scalars are pairs ``(num, den)`` of GF(p)[s] coefficient tuples with the
    denominator monic and ``gcd(num, den) = 1``; the zero scalar is
    ``((), (1,))``.  Numerator/denominator degrees are capped by
    ``RATFUNC_MAX_DEGREE`` to turn accidental coefficient blowup into a hard
    error.
    """

    kind = "ratfunc"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = ((), (1,))
        self.one = ((1,), (1,))
        self.gen = ((0, 1), (1,))  # the variable s

    def _canon(self, num, den):
        p = self.p
        if not den:
            raise DivisionByZero(f"zero denominator over GF({p})(s)")
        if not num:
            return ((), (1,))
        g = _zgcd(num, den, p)
        if len(g) > 1:
            num = _zdivmod(num, g, p)[0]
            den = _zdivmod(den, g, p)[0]
        il = pow(den[-1], -1, p)
        if il != 1:
            num = tuple((c * il) % p for c in num)
            den = tuple((c * il) % p for c in den)
        if max(len(num), len(den)) - 1 > RATFUNC_MAX_DEGREE:
            raise DegreeBoundExceeded(
                f"rational function degree exceeds cap {RATFUNC_MAX_DEGREE}"
            )
        return (num, den)

    def from_polys(self, num, den=(1,)):
        p = self.p
        return self._canon(
            _ztrim(tuple(c % p for c in num)), _ztrim(tuple(c % p for c in den))
        )

    def add(self, a, b):
        p = self.p
        (n1, d1), (n2, d2) = a, b
        return self._canon(
            _zadd(_zmul(n1, d2, p), _zmul(n2, d1, p), p), _zmul(d1, d2, p)
        )

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return (_zneg(a[0], self.p), a[1])

    def mul(self, a, b):
        p = self.p
        (n1, d1), (n2, d2) = a, b
        return self._canon(_zmul(n1, n2, p), _zmul(d1, d2, p))

    def inv(self, a):
        num, den = a
        if not num:
            raise DivisionByZero(f"1/0 over GF({self.p})(s)")
        return self._canon(den, num)

    def from_int(self, n):
        c = n % self.p
        return ((c,), (1,)) if c else ((), (1,))

    def format(self, a):
        num, den = a
        ns = _zformat(num, "s")
        if den == (1,):
            return ns
        if len(num) > 1 and ("+" in ns or "-" in ns):
            ns = f"({ns})"
        ds = _zformat(den, "s")
        if len(den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    @staticmethod
    def sort_key(a):
        num, den = a
        return (len(den), den, len(num), num)

    def frobenius_parts(self, a):
        """Write ``a = u^2 + s*v^2`` and return ``(u, v)`` (characteristic 2 only).

        Over GF(2)(s) the Frobenius image is GF(2)(s^2), of index 2 with basis
        {1, s}; the decomposition is unique.
        """
        if self.p != 2:
            raise FieldSpecError("frobenius_parts only applies in characteristic 2")
        num, den = a
        w = _zmul(num, den, 2)  # a = w / den^2 and den^2 = den(s^2)
        w_even = _ztrim(tuple(w[i] for i in range(0, len(w), 2)))
        w_odd = _ztrim(tuple(w[i] for i in range(1, len(w), 2)))
        return (self._canon(w_even, den), self._canon(w_odd, den))

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.p == self.p

    def __hash__(self):
        return hash(("ratfunc", self.p))


# ----------------------------------------------------------------------
# field specification strings
# ----------------------------------------------------------------------

import re

_GF_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)$")
_GF_MOD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)\|(.+)$")
_GF_RATF_RE = re.compile(r"^GF\((\d+)\)\(s\)$")


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by integer Newton iteration."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(n: int):
    """(p, k) with n = p^k and p prime, or None."""
    for k in range(max(n.bit_length() - 1, 1), 0, -1):
        p = _iroot(n, k)
        if p > 1 and p**k == n and _is_prime(p):
            return p, k
    return None


def field_make(spec: str) -> FieldCtx:
    """Build a field context from a specification string.

    Grammar::

        spec     = "Q" | "GF(" n ")" | "GF(" n ")|" modulus
                 | "GF(" p "^" k ")|" modulus | "GF(" p ")(s)"
        modulus  = polynomial in t over GF(p), monic irreducible

    ``GF(n)`` with ``n`` prime gives the prime field; a prime power needs an
    explicit modulus.
    """
    spec = spec.strip()
    if spec == "Q":
        return RationalField()
    m = _GF_RATF_RE.match(spec)
    if m:
        return RationalFunctionField(int(m.group(1)))
    m = _GF_RE.match(spec)
    if m:
        n = int(m.group(1))
        k = int(m.group(2)) if m.group(2) else 1
        if k == 1 and _is_prime(n):
            return PrimeField(n)
        if k == 1 and _prime_power(n) is None:
            raise FieldSpecError(f"{spec}: {n} is neither a prime nor a prime power")
        raise FieldSpecError(
            f"{spec}: extension fields need an explicit modulus, e.g. GF(4)|t^2+t+1"
        )
    m = _GF_MOD_RE.match(spec)
    if m:
        n = int(m.group(1))
        k_in = int(m.group(2)) if m.group(2) else None
        if k_in is not None:
            p, k = n, k_in
            if not _is_prime(p):
                raise NonPrimeCharacteristic(f"{p} is not prime")
        else:
            pk = _prime_power(n)
            if pk is None:
                raise FieldSpecError(f"{n} is not a prime power")
            p, k = pk
        from .exprparse import parse_poly  # late import; avoids a cycle

        mod_poly = parse_poly(PrimeField(p), m.group(3))
        return ExtensionField(p, k, mod_poly.coeffs)
    raise FieldSpecError(f"cannot parse field spec {spec!r}")


def field_spec(ctx: FieldCtx) -> str:
    """Inverse of :func:`field_make` (round-trips on supported kinds)."""
    if ctx.kind == "rationals":
        return "Q"
    if ctx.kind == "prime":
        return f"GF({ctx.p})"
    if ctx.kind == "extension":
        return f"GF({ctx.p}^{ctx.k})|{_zformat(ctx.modulus, 't')}"
    if ctx.kind == "ratfunc":
        return f"GF({ctx.p})(s)"
    raise FieldSpecError(f"unknown field kind {ctx.kind!r}")
