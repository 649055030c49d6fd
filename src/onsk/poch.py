"""Finite q-Pochhammer products and Gaussian binomial coefficients."""

from __future__ import annotations

from .field import ONE, PoleError, Scalar


def poch(x: Scalar, q: Scalar, n: int) -> Scalar:
    """Finite Pochhammer (x; q)_n = prod_{l=0}^{n-1} (1 - x q^l)."""
    if n < 0:
        raise ValueError("poch needs n >= 0")
    out = ONE
    cur = x
    for _ in range(n):
        out = out * (ONE - cur)
        cur = cur * q
    return out


def qbinom(n: int, k: int, q: Scalar) -> Scalar:
    """Gaussian binomial coefficient [n, k]_q evaluated at q."""
    if k < 0 or k > n:
        return Scalar(0)
    num = poch(q ** (n - k + 1), q, k)
    den = poch(q, q, k)
    if den.is_zero():
        raise PoleError("qbinom denominator vanished; q is a root of unity")
    return num / den
