import pytest

from onsk.field import Scalar
from onsk.poch import poch, qbinom


def test_poch_values():
    q = Scalar(1, 0, 3)
    x = Scalar(2, 0, 1)
    assert poch(x, q, 0) == Scalar(1)
    assert poch(x, q, 1) == Scalar(1) - x
    assert poch(x, q, 3) == (1 - x) * (1 - x * q) * (1 - x * q ** 2)
    with pytest.raises(ValueError):
        poch(x, q, -1)


def test_qbinom_pascal():
    q = Scalar(2, 0, 7)
    # q-Pascal rule [n,k] = [n-1,k-1] + q^k [n-1,k]
    for n in range(1, 7):
        for k in range(n + 1):
            lhs = qbinom(n, k, q)
            rhs = qbinom(n - 1, k - 1, q) + q ** k * qbinom(n - 1, k, q)
            assert lhs == rhs
    assert qbinom(4, 2, q) == 1 + q + 2 * q ** 2 + q ** 3 + q ** 4
    assert qbinom(3, 5, q) == Scalar(0)
    assert qbinom(3, -1, q) == Scalar(0)
