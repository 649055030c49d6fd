import random
from fractions import Fraction
from math import gcd

import pytest

from onsk.field import (
    BadLiteral,
    GenericityError,
    Params,
    Scalar,
    format_scalar,
    make_params,
    parse_scalar,
    sample_params,
)

from points import contracting_params, unit_circle_point, unit_z_params

I = Scalar(0, 1, 1)


def test_normalization():
    assert Scalar(2, 4, 6) == Scalar(1, 2, 3)
    assert Scalar(1, 0, -2) == Scalar(-1, 0, 2)
    assert Scalar(0, 0, 7) == Scalar(0, 0, 1)


def test_field_axioms_spot():
    xs = [Scalar(3, -2, 5), Scalar(-1, 7, 4), Scalar(2, 2, 3), I, Scalar(5, 0, 1)]
    for a in xs:
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
            for c in xs:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
    for a in xs:
        assert a * a.inverse() == Scalar(1)
        assert (a ** 3) * (a ** -3) == Scalar(1)


def _canonical(x):
    return x.d > 0 and gcd(x.a, x.b, x.d) == 1


def test_arithmetic_matches_fraction_pairs():
    # equal, coprime and overlapping denominators, so every reduction path
    # of add, sub and mul meets a result that needs (or skips) cancelling
    rng = random.Random("onsk-field:arith")
    dens = (1, 2, 3, 4, 6, 9, 12, 15, 35, 36)
    xs = [Scalar(rng.randint(-40, 40), rng.randint(-40, 40), rng.choice(dens))
          for _ in range(40)]
    for x in xs:
        assert _canonical(x) and _canonical(-x) and _canonical(x.conj())
        for y in xs:
            for got, re, im in (
                    (x + y, x.re + y.re, x.im + y.im),
                    (x - y, x.re - y.re, x.im - y.im),
                    (x * y, x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)):
                assert _canonical(got)
                assert (got.re, got.im) == (re, im)
                assert got == Scalar.from_pair(re, im)
                assert hash(got) == hash(Scalar.from_pair(re, im))


def test_conj_abs2():
    x = Scalar(3, -4, 5)
    assert x.conj() == Scalar(3, 4, 5)
    # |x|^2 = x * conj(x) = (9 + 16)/25
    assert x * x.conj() == Scalar(1)
    assert (x * x).conj() == x.conj() * x.conj()


def test_int_fraction_coercion():
    x = Scalar(1, 1, 2)
    assert x * 2 == Scalar(1, 1, 1)
    assert x + Fraction(1, 2) == Scalar(2, 1, 2)
    assert x / Fraction(1, 2) == Scalar(1, 1, 1)


def test_parse_format_roundtrip():
    vals = [Scalar(3, -2, 5), Scalar(0, 1, 7), Scalar(-4, 0, 9), Scalar(0, 0, 1)]
    for v in vals:
        assert parse_scalar(format_scalar(v)) == v
    assert parse_scalar("5") == Scalar(5)
    assert parse_scalar("-3/4") == Scalar(-3, 0, 4)
    with pytest.raises(BadLiteral):
        parse_scalar("2+x*i")


def test_unit_circle_point():
    w = unit_circle_point(2, 1)
    assert w == Scalar(3, 4, 5)
    assert w * w.conj() == Scalar(1)
    v = unit_circle_point(3, 4)
    assert v * v.conj() == Scalar(1)


def test_params_web():
    P = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7), eps=-1, mu=1)
    t, q, p = P.t, P.q, P.p
    assert q == -(t ** 2)
    # the q^(1/2) = i*mu*t convention
    assert (I * P.mu * t) ** 2 == q
    assert p == I * P.eps * t ** -2
    assert p ** 2 == -(q ** -2)
    assert q + q ** -1 == -(t ** 2 + t ** -2)


def test_genericity_rejections():
    good = Scalar(3, 0, 7)
    for bad in (Scalar(0), Scalar(1), Scalar(-1), I, -I):
        with pytest.raises(GenericityError):
            make_params(bad, good)
    with pytest.raises(GenericityError):
        make_params(good, Scalar(0))
    with pytest.raises(GenericityError):
        make_params(good, good, eps=2)


def test_with_z_and_inverted():
    P = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7))
    Q = P.inverted_z()
    assert Q.z == P.z ** -1
    assert Q.t == P.t
    R = P.with_z(Scalar(1, 1, 3))
    assert R.z == Scalar(1, 1, 3)


def test_sample_params_deterministic():
    a = sample_params(11)
    b = sample_params(11)
    assert (a.t, a.z, a.eps, a.mu) == (b.t, b.z, b.eps, b.mu)
    c = sample_params(12)
    assert (a.t, a.z) != (c.t, c.z)
    for seed in (5, 11, 12):
        u = unit_z_params(seed)
        assert u.z * u.z.conj() == Scalar(1)
        w = contracting_params(seed)
        assert w.t.im == 0 and 0 < w.t.re ** 2 < 1
        assert w.z.im == 0 and 0 < w.z.re < 1
