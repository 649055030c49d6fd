from fractions import Fraction
from math import comb

import pytest

from onsk.field import ONE, Scalar, make_params, sample_params
from onsk.kmatrix import build_kkk, build_ktr
from onsk.linalg import rank_rows
from onsk.spectra import (
    CSV_HEADER,
    DegenerateEigenvalues,
    SpectralReport,
    _certify,
    eval_lambda_k11,
    eval_lambda_k12,
    eval_lambda_k21,
    eval_lambda_k22,
    eval_rho_tr,
    spectra_csv,
    spectrum_family,
    spectrum_suite,
    verify_k11_k21_joint,
    verify_k12_k22,
    verify_tr_middle,
    verify_tr_spectrum,
)
from onsk.spinrep import RangeError, popcount

PARAMS = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7))
Z = Scalar(3, 0, 7)
W = Scalar(5, 0, 11)
Q = PARAMS.q


def test_rho_tr_pinned_values():
    # middle sector of the four-site chain, top to bottom of the wedge
    assert eval_rho_tr(4, 2, 2, Z, PARAMS) == ONE
    mid = (Q ** 2 - Z) / (Q ** 2 * Z - ONE)
    assert eval_rho_tr(4, 2, 1, Z, PARAMS) == mid
    bot = ((Q ** 2 - Z) * (Q ** 4 - Z)) / ((ONE - Q ** 2 * Z) * (ONE - Q ** 4 * Z))
    assert eval_rho_tr(4, 2, 0, Z, PARAMS) == bot


def test_rho_tr_wedge_guard():
    with pytest.raises(RangeError):
        eval_rho_tr(4, 1, 2, Z, PARAMS)
    with pytest.raises(RangeError):
        eval_rho_tr(4, 3, 2, Z, PARAMS)
    with pytest.raises(RangeError):
        eval_rho_tr(3, 1, -1, Z, PARAMS)


def _wedge(n, l, j):
    return 0 <= j <= l if 2 * l <= n else l <= j <= n


def test_rho_tr_identities():
    zi = Z ** -1
    for n in range(1, 7):
        for l in range(n + 1):
            js = range(l + 1) if 2 * l <= n else range(l, n + 1)
            assert eval_rho_tr(n, l, l, Z, PARAMS) == ONE
            for j in js:
                if not _wedge(n, n - l, n - j):
                    continue
                lhs = eval_rho_tr(n, l, j, Z, PARAMS)
                rhs = eval_rho_tr(n, n - l, n - j, zi, PARAMS)
                assert lhs * rhs == ONE


def test_closed_form_wrapper():
    # the closed forms take plain Fractions as well as Scalars, and every
    # family and index outside its range is rejected before any work
    assert eval_rho_tr(4, 2, 1, Fraction(3, 7), PARAMS) == eval_rho_tr(4, 2, 1, Z, PARAMS)
    assert eval_lambda_k11(3, 2, Fraction(3, 7), PARAMS) == eval_lambda_k11(3, 2, Z, PARAMS)
    with pytest.raises(RangeError):
        spectrum_family("nope", 3, PARAMS, W)
    with pytest.raises(RangeError):
        verify_tr_spectrum(3, 4, Z, W, PARAMS)
    with pytest.raises(RangeError):
        eval_rho_tr(4, 1, 2, Z, PARAMS)
    with pytest.raises(RangeError):
        eval_lambda_k22(4, 3, Z, PARAMS)
    with pytest.raises(RangeError):
        eval_lambda_k11(3, 4, Z, PARAMS)


def test_eval_lambda_guards():
    for fn in (eval_lambda_k11, eval_lambda_k21, eval_lambda_k12):
        with pytest.raises(RangeError):
            fn(3, 4, Z, PARAMS)
        with pytest.raises(RangeError):
            fn(3, -1, Z, PARAMS)
    with pytest.raises(RangeError):
        eval_lambda_k22(4, 3, Z, PARAMS)
    with pytest.raises(RangeError):
        eval_lambda_k22(3, 2, Z, PARAMS)


def test_lambda_k11_small_values():
    # two-site values, including the trivial middle one
    assert eval_lambda_k11(2, 1, Z, PARAMS) == ONE
    low = (Q + Z) / (ONE + Q * Z)
    assert eval_lambda_k11(2, 0, Z, PARAMS) == low
    both = low * (Q ** 2 + Z) / (ONE + Q ** 2 * Z)
    assert eval_lambda_k11(2, 2, Z, PARAMS) == both
    # the two matrices assign the scalar 1 to the same component
    for n in (2, 3, 4, 5):
        l1 = n // 2 if n % 2 == 0 else (n - 1) // 2
        assert eval_lambda_k11(n, l1, Z, PARAMS) == ONE
        assert eval_lambda_k21(n, l1, Z, PARAMS) == ONE


def test_lambda_unitarity_inversion():
    zi = Z ** -1
    for n in (2, 3, 4):
        for l in range(n + 1):
            assert eval_lambda_k11(n, l, Z, PARAMS) \
                * eval_lambda_k11(n, l, zi, PARAMS) == ONE
            assert eval_lambda_k21(n, l, Z, PARAMS) \
                * eval_lambda_k21(n, l, zi, PARAMS) == ONE
            assert eval_lambda_k12(n, l, Z, PARAMS) \
                * eval_lambda_k12(n, l, zi, PARAMS) == ONE


# ---------------------------------------------------------------------------
# truncated-product oracle: every finite form must match the four-way
# infinite-product ratio it was reduced from


def _poch_trunc(x: Fraction, base: Fraction, nf: int = 50) -> Fraction:
    val = Fraction(1)
    b = Fraction(1)
    for _ in range(nf):
        val *= 1 - x * b
        b *= base
    return val


def _re(s: Scalar) -> Fraction:
    assert s.im == 0
    return s.re


TOL = Fraction(1, 10 ** 25)
TF, ZF = Fraction(1, 2), Fraction(2, 5)
QF = -TF * TF
OP = make_params(Scalar(1, 0, 2), Scalar(2, 0, 5))
OZ = Scalar(2, 0, 5)


def _oracle_rho_tr(n, l, j):
    el, ej = abs(n - 2 * l) + 2, abs(n - 2 * j) + 2
    q2 = QF * QF
    num = _poch_trunc(QF ** el / ZF, q2) * _poch_trunc(QF ** ej * ZF, q2)
    den = _poch_trunc(QF ** el * ZF, q2) * _poch_trunc(QF ** ej / ZF, q2)
    return ZF ** abs(l - j) * num / den


def _oracle_k11(n, l):
    lv = n - l
    a = QF ** (n + 1 - 2 * lv)
    num = _poch_trunc(-a * ZF, QF) * _poch_trunc(-QF / ZF, QF)
    den = _poch_trunc(-QF * ZF, QF) * _poch_trunc(-a / ZF, QF)
    return ZF ** (n - 2 * lv) * num / den


def _oracle_k21(n, l):
    lv = n - l
    q4 = QF ** 4
    a = QF ** (2 * n + 3 - 4 * lv)
    base = QF ** 3 if n % 2 == 0 else QF
    num = _poch_trunc(-a * ZF ** 2, q4) * _poch_trunc(-base / ZF ** 2, q4)
    den = _poch_trunc(-base * ZF ** 2, q4) * _poch_trunc(-a / ZF ** 2, q4)
    pw = n - 2 * lv if n % 2 == 0 else n + 1 - 2 * lv
    return ZF ** pw * num / den


def _oracle_k12(n, l):
    t4 = TF ** 4
    if n % 2 == 0:
        a, b, pref = TF ** (2 * n + 1 - 4 * l), TF ** (-2 * n + 1 + 4 * l), Fraction(1)
    else:
        a, b, pref = TF ** (2 * n + 3 - 4 * l), TF ** (-2 * n + 3 + 4 * l), ZF
    num = (_poch_trunc(-TF / ZF, t4) * _poch_trunc(-a * ZF, t4)
           * _poch_trunc(TF / ZF, t4) * _poch_trunc(b * ZF, t4))
    den = (_poch_trunc(-a / ZF, t4) * _poch_trunc(-TF * ZF, t4)
           * _poch_trunc(b / ZF, t4) * _poch_trunc(TF * ZF, t4))
    return pref * num / den


def _oracle_k22(n, l):
    t4 = TF ** 4
    a = TF ** (2 * n + 2 - 4 * l)
    b = TF ** (-2 * n + 2 + 4 * l)
    if n % 2 == 0:
        num = (_poch_trunc(-TF ** 2 / ZF, t4) * _poch_trunc(-a * ZF, t4)
               * _poch_trunc(TF ** 2 / ZF, t4) * _poch_trunc(b * ZF, t4))
        den = (_poch_trunc(-a / ZF, t4) * _poch_trunc(-TF ** 2 * ZF, t4)
               * _poch_trunc(b / ZF, t4) * _poch_trunc(TF ** 2 * ZF, t4))
        return num / den
    num = (_poch_trunc(-TF ** 4 / ZF, t4) * _poch_trunc(-a * ZF, t4)
           * _poch_trunc(TF ** 4 / ZF, t4) * _poch_trunc(b * ZF, t4))
    den = (_poch_trunc(-a / ZF, t4) * _poch_trunc(-ZF, t4)
           * _poch_trunc(b / ZF, t4) * _poch_trunc(ZF, t4))
    return -TF / ZF * num / den


def test_finite_forms_match_truncated_products():
    for n in (2, 3, 4, 5):
        for l in range(n + 1):
            js = range(l + 1) if 2 * l <= n else range(l, n + 1)
            for j in js:
                got = _re(eval_rho_tr(n, l, j, OZ, OP))
                assert abs(got - _oracle_rho_tr(n, l, j)) <= TOL
            assert abs(_re(eval_lambda_k11(n, l, OZ, OP)) - _oracle_k11(n, l)) <= TOL
            assert abs(_re(eval_lambda_k21(n, l, OZ, OP)) - _oracle_k21(n, l)) <= TOL
            assert abs(_re(eval_lambda_k12(n, l, OZ, OP)) - _oracle_k12(n, l)) <= TOL
        top = n // 2 if n % 2 == 0 else (n - 1) // 2
        for l in range(top + 1):
            assert abs(_re(eval_lambda_k22(n, l, OZ, OP)) - _oracle_k22(n, l)) <= TOL


# ---------------------------------------------------------------------------
# certificates


def test_tr_middle_display():
    rep = verify_tr_middle(4, Z, PARAMS)
    assert rep.ok
    mid = (Q ** 2 - Z) / (Q ** 2 * Z - ONE)
    bot = ((Q ** 2 - Z) * (Q ** 4 - Z)) / ((ONE - Q ** 2 * Z) * (ONE - Q ** 4 * Z))
    got = [(row.j, row.value, row.rank) for row in rep.rows]
    assert got == [(2, ONE, 2), (1, mid, 3), (0, bot, 1)]
    with pytest.raises(RangeError):
        verify_tr_middle(3, Z, PARAMS)


def test_tr_spectrum_composed():
    for n, l in ((3, 0), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)):
        rep = verify_tr_spectrum(n, l, Z, W, PARAMS)
        assert rep.ok, rep.checks.failures()
        total = sum(row.rank for row in rep.rows)
        assert total == comb(n, l)
    rep = verify_tr_spectrum(3, 1, Z, W, PARAMS)
    assert [(row.j, row.expected) for row in rep.rows] == [(1, 2), (0, 1)]
    with pytest.raises(RangeError):
        verify_tr_spectrum(3, 4, Z, W, PARAMS)


def test_tr_spectrum_inverse_point_degenerates():
    # at w = 1/z the composition is the identity and all eigenvalues collide
    with pytest.raises(DegenerateEigenvalues):
        verify_tr_spectrum(3, 1, Z, Z ** -1, PARAMS)
    kz = build_ktr(3, Z, PARAMS).operator
    kw = build_ktr(3, Z ** -1, PARAMS).operator
    states = [s for s in range(8) if popcount(s) == 1]
    other = [s for s in range(8) if popcount(s) == 2]
    prod = [[sum((kw.get(r, m) * kz.get(m, c) for m in other),
                 start=Scalar(0)) for c in states] for r in states]
    eye = [[ONE if r == c else Scalar(0) for c in range(3)] for r in range(3)]
    assert prod == eye


def test_joint_certificates():
    for n in (2, 3):
        rep = verify_k11_k21_joint(n, Z, W, PARAMS)
        assert rep.ok, rep.checks.failures()
        k11_rows = [row for row in rep.rows if row.family == "k11"]
        k21_rows = [row for row in rep.rows if row.family == "k21"]
        assert [row.rank for row in k11_rows] == [comb(n, l) for l in range(n + 1)]
        assert [row.rank for row in k21_rows] == [comb(n, l) for l in range(n + 1)]
        names = [c.name for c in rep.checks.checks]
        assert "matrices commute" in names
        for l in range(n + 1):
            assert f"joint projector l={l}" in names
            assert f"projector idempotent l={l}" in names
    # dimension bookkeeping: all components together fill the chain space
    rep = verify_k11_k21_joint(3, Z, W, PARAMS)
    assert sum(row.rank for row in rep.rows if row.family == "k11") == 8


def test_certificate_negative_controls():
    n = 3
    k11 = build_kkk(1, 1, n, Z, PARAMS).operator
    lams = [eval_lambda_k11(n, l, Z, PARAMS) for l in range(n + 1)]
    meta = [(l, None, comb(n, l)) for l in range(n + 1)]

    def certify(m, values):
        rep = SpectralReport("k11", n)
        _certify(rep, m, values, meta)
        return rep

    assert certify(k11, lams).ok
    # one closed-form eigenvalue off by a small amount
    off = list(lams)
    off[2] = off[2] + Scalar(1, 0, 97)
    rep = certify(k11, off)
    assert not rep.ok
    assert [c.name for c in rep.checks.failures()] == ["annihilating polynomial"]
    assert not rep.rows[2].annihilated
    # one matrix entry bumped
    bumped = k11.copy()
    bumped.add_to(0, 0, Scalar(1, 0, 97))
    rep = certify(bumped, lams)
    assert not rep.ok
    assert "annihilating polynomial" in [c.name for c in rep.checks.failures()]


def test_joint_on_sampled_points():
    for seed in (0, 1):
        ps = sample_params(seed)
        rep = verify_k11_k21_joint(2, ps.z, W, ps)
        assert rep.ok, rep.checks.failures()


def test_k12_k22_certificates():
    for n in (2, 3, 4):
        rep = verify_k12_k22(n, Z, PARAMS)
        assert rep.ok, rep.checks.failures()
        k12_rows = [row for row in rep.rows if row.family == "k12"]
        assert [row.rank for row in k12_rows] == [comb(n, l) for l in range(n + 1)]
    rep = verify_k12_k22(3, Z, PARAMS)
    k22_rows = [row for row in rep.rows if row.family == "k22"]
    assert [row.rank for row in k22_rows] == [2, 6]
    names = [c.name for c in rep.checks.checks]
    assert "parity sectors swapped" in names
    rep4 = verify_k12_k22(4, Z, PARAMS)
    k22_rows = [row for row in rep4.rows if row.family == "k22"]
    assert [(row.l, row.rank) for row in k22_rows] == [(0, 2), (1, 8), (2, 6)]
    names4 = [c.name for c in rep4.checks.checks]
    assert "parity sectors preserved" in names4
    # the middle component splits evenly across the parity sectors
    mids = [c for c in rep4.checks.checks if c.name.startswith("parity block rank l=2")]
    assert len(mids) == 2 and all(c.ok for c in mids)


def test_k22_evenness_recorded():
    rep = verify_k12_k22(2, Z, PARAMS)
    names = [c.name for c in rep.checks.checks]
    assert "even in z, l=0" in names and "even in z, l=1" in names
    assert eval_lambda_k22(4, 1, Z, PARAMS) == eval_lambda_k22(4, 1, -Z, PARAMS)
    assert eval_lambda_k22(3, 0, Z, PARAMS) == eval_lambda_k22(3, 0, -Z, PARAMS)


def test_spectrum_suite_and_csv():
    reps = spectrum_suite(2, PARAMS, W)
    assert all(rep.ok for rep in reps)
    text = spectra_csv(reps)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    nrows = sum(len(rep.rows) for rep in reps)
    assert len(lines) == nrows + 1
    assert all(line.count(",") == CSV_HEADER.count(",") for line in lines)
