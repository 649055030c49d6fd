"""Sample points that tests need beyond sample_params' plain draw.

Each is rebuilt from sample_params(seed), so every seed names one point.
"""

from onsk.field import Params, Scalar, sample_params


def unit_circle_point(a: int, b: int) -> Scalar:
    """Rational point (a+bi)^2/(a^2+b^2) on the unit circle, (a, b) != (0, 0)."""
    w = Scalar(a, b)
    return w * w / Scalar(a * a + b * b)


def contracting_params(seed) -> Params:
    """The draw with t and z inverted where above 1, so 0 < t^2, z < 1: the
    summed-series oracle's regime."""
    p = sample_params(seed)
    t, z = (x.inverse() if x.re > 1 else x for x in (p.t, p.z))
    return Params(t, z, p.eps, p.mu)


def unit_z_params(seed) -> Params:
    """The draw with z = p/r moved to the unit circle, as (p+ri)^2/(p^2+r^2)."""
    p = sample_params(seed)
    return p.with_z(unit_circle_point(p.z.a, p.z.d))
