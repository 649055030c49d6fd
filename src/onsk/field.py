"""Exact Gaussian-rational scalars and the spectral-parameter bundle.

All identities in this package are rational identities in (t, z), so they
are checked exactly at random rational points instead of symbolically.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd


class GenericityError(ValueError):
    """Parameter point sits on a degenerate locus (t root of unity, z = 0, ...)."""


class PoleError(ZeroDivisionError):
    """An evaluation hit a pole; the parameter point is not generic enough."""


class BadLiteral(ValueError):
    """A scalar literal could not be parsed."""


class Scalar:
    """Immutable Gaussian rational (a + b*i)/d with gcd(a, b, d) = 1, d > 0."""

    __slots__ = ("a", "b", "d")

    def __new__(cls, a, b=0, d=1):
        a, b, d = int(a), int(b), int(d)
        if d == 0:
            raise PoleError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        return _reduced(a, b, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def from_fraction(x) -> "Scalar":
        f = Fraction(x)
        return Scalar(f.numerator, 0, f.denominator)

    @staticmethod
    def from_pair(re, im) -> "Scalar":
        fr, fi = Fraction(re), Fraction(im)
        den = fr.denominator * fi.denominator
        return Scalar(fr.numerator * fi.denominator, fi.numerator * fr.denominator, den)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_real(self) -> bool:
        return self.b == 0

    def conj(self) -> "Scalar":
        return _raw(self.a, -self.b, self.d)

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, other.a, other.b, other.d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _sum(self, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise PoleError("division by zero scalar")
        return _reduced(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.a}, {self.b}, {self.d})"


_new = object.__new__
_set_a = Scalar.a.__set__
_set_b = Scalar.b.__set__
_set_d = Scalar.d.__set__


def _raw(a, b, d):
    """A Scalar from a triple already in canonical form (d > 0, in lowest terms)."""
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _reduced(a, b, d):
    """A Scalar from a triple with d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _raw(a, b, d)


def _sum(x: Scalar, a, b, e) -> Scalar:
    """x + (a + b*i)/e, for a canonical triple (a, b, e).

    With g = gcd(x.d, e), a prime of x.d/g divides both summed numerators
    only if it divides both numerators of x, which the canonical form of
    x excludes; likewise for e/g.  So only g can share a factor
    with them, as in Fraction addition.
    """
    d = x.d
    if d == e:
        return _reduced(x.a + a, x.b + b, d)
    g = gcd(d, e)
    s, t = d // g, e // g
    a = x.a * t + a * s
    b = x.b * t + b * s
    h = gcd(g, a, b)
    if h != 1:
        a //= h
        b //= h
        g //= h
    return _raw(a, b, g * s * t)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar(x)
    if isinstance(x, Fraction):
        return Scalar(x.numerator, 0, x.denominator)
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def format_scalar(x: Scalar) -> str:
    """Canonical text form "re_num/re_den+im_num/im_den*i" in lowest terms."""
    re, im = x.re, x.im
    return f"{re.numerator}/{re.denominator}+{im.numerator}/{im.denominator}*i"


def parse_scalar(text: str) -> Scalar:
    """Parse "a/b", "a", or "a/b+c/d*i" (signs allowed on numerators)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise BadLiteral("empty scalar literal")
    try:
        if s.endswith("*i"):
            body = s[:-2]
            # split at the '+' or '-' that separates the two parts; skip a leading sign
            for pos in range(len(body) - 1, 0, -1):
                if body[pos] in "+-" and body[pos - 1] not in "+-/":
                    re_part, im_part = body[:pos], body[pos:]
                    break
            else:
                re_part, im_part = "0", body
            if im_part.startswith("+"):
                im_part = im_part[1:]
            return Scalar.from_pair(Fraction(re_part), Fraction(im_part))
        return Scalar.from_fraction(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadLiteral(f"cannot parse scalar literal {text!r}") from exc


class Params:
    """Parameter bundle: spectral point z, deformation t and the derived q, p.

    Conventions: q^(1/2) = i*mu*t, q = -t^2, p = -i*eps/q = i*eps*t^(-2),
    so p^2 = -q^(-2).  eps, mu are independent signs.
    """

    __slots__ = ("t", "z", "eps", "mu", "q", "p")

    def __init__(self, t: Scalar, z: Scalar, eps: int, mu: int):
        if eps not in (1, -1) or mu not in (1, -1):
            raise GenericityError("eps and mu must be +1 or -1")
        if t.is_zero() or t == ONE or t == -ONE or t == I or t == -I:
            raise GenericityError(f"t = {t} is degenerate")
        if z.is_zero():
            raise GenericityError("z = 0 is degenerate")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "q", -(t * t))
        object.__setattr__(self, "p", I * eps * (t ** -2))

    def __setattr__(self, name, value):
        raise AttributeError("Params is immutable")

    def with_z(self, z: Scalar) -> "Params":
        return Params(self.t, z, self.eps, self.mu)

    def inverted_z(self) -> "Params":
        return self.with_z(self.z.inverse())

    def __repr__(self):
        return f"Params(t={self.t}, z={self.z}, eps={self.eps}, mu={self.mu})"


def make_params(t, z, eps=1, mu=1) -> Params:
    """Build a Params bundle, rejecting degenerate points."""
    if not isinstance(t, Scalar):
        t = Scalar.from_fraction(t)
    if not isinstance(z, Scalar):
        z = Scalar.from_fraction(z)
    return Params(t, z, int(eps), int(mu))


# primes up to 50; distinct primes for t and z keep 1 - z*q^m away from zero
_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def sample_params(seed) -> Params:
    """Draw a reproducible generic parameter point.

    t and z are positive ratios of distinct primes below 50, and eps and mu
    random signs.  Either of t and z may exceed 1: the summed-series
    oracle's regime (0 < t^2, z < 1) is the draw with each value above 1
    inverted.
    """
    # a string seed hashes stably, so draws are identical across processes
    rng = random.Random(f"onsk-params:{int(seed)}")
    pa, pb, pc, pd = rng.sample(_PRIMES, 4)
    t = Scalar(pa, 0, pb)
    z = Scalar(pc, 0, pd)
    eps = rng.choice([1, -1])
    mu = rng.choice([1, -1])
    return Params(t, z, eps, mu)
