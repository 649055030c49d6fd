from fractions import Fraction
from math import comb

import pytest

import onsk.spectra as spectra
from onsk.field import ONE, Scalar, make_params, sample_params
from onsk.kmatrix import KMatrix, build_kkk, build_ktr
from onsk.linalg import Operator, rank
from onsk.spectra import (
    DegenerateEigenvalues,
    SpectralReport,
    _certify,
    _parity_checks,
    _projector,
    eval_lambda_k11,
    eval_lambda_k12,
    eval_lambda_k21,
    eval_lambda_k22,
    eval_rho_tr,
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
        verify_tr_spectrum(0, Z, W, PARAMS)
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
    for n in (3, 4, 5):
        reports = verify_tr_spectrum(n, Z, W, PARAMS)
        assert len(reports) == n + 1
        for l, rep in enumerate(reports):
            assert rep.ok, rep.checks.failures()
            assert {row.l for row in rep.rows} == {l}
            assert sum(row.rank for row in rep.rows) == comb(n, l)
    rep = verify_tr_spectrum(3, Z, W, PARAMS)[1]
    assert [(row.j, row.expected) for row in rep.rows] == [(1, 2), (0, 1)]
    with pytest.raises(RangeError):
        verify_tr_spectrum(0, Z, W, PARAMS)


def test_tr_spectrum_inverse_point_degenerates(monkeypatch):
    # at w = 1/z the composition is the identity and all eigenvalues
    # collide: rejected before K(z) or K(w) is built
    monkeypatch.setattr(spectra, "build_ktr", None)
    with pytest.raises(DegenerateEigenvalues):
        verify_tr_spectrum(3, Z, Z ** -1, PARAMS)
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
        _certify(rep, "k11", m, values, meta)
        return rep

    assert certify(k11, lams).ok
    # one closed-form eigenvalue off by a small amount
    off = list(lams)
    off[2] = off[2] + Scalar(1, 0, 97)
    rep = certify(k11, off)
    assert not rep.ok
    assert [c.name for c in rep.checks.failures()] == ["annihilating polynomial"]
    assert rep.rows[2].rank == 0
    # one matrix entry bumped
    bumped = k11.copy()
    bumped.add_to(0, 0, Scalar(1, 0, 97))
    rep = certify(bumped, lams)
    assert not rep.ok
    assert "annihilating polynomial" in [c.name for c in rep.checks.failures()]


# ---------------------------------------------------------------------------
# Lagrange-projector oracle: the certificates form no matrix polynomial, so
# their kernel-basis counts, joint eigenspaces and parity ranks are checked
# here against the spectral projectors built as products of shifted matrices


def _lagrange(m, lams):
    """Projectors prod_{j != i} (m - lam_j)/(lam_i - lam_j), after checking
    that the full product annihilates m."""
    eye = Operator.identity(m.nrows)
    factors = [m - eye.scale(lam) for lam in lams]
    full = eye
    for f in factors:
        full = full @ f
    assert full.is_zero()
    projs = []
    for i, lam in enumerate(lams):
        p, den = eye, ONE
        for j, f in enumerate(factors):
            if j != i:
                p = p @ f
                den = den * (lam - lams[j])
        projs.append(p.scale(den ** -1))
    return projs


def _values(rep, family):
    return [row.value for row in rep.rows if row.family == family]


def _counts(rep, family):
    return [row.rank for row in rep.rows if row.family == family]


def _status(rep, name):
    (check,) = [c for c in rep.checks.checks if c.name == name]
    return check


def _parity_op(n, residue):
    out = Operator(1 << n)
    for s in range(1 << n):
        if popcount(s) % 2 == residue:
            out.set(s, s, ONE)
    return out


def _sector_states(n, l):
    return [s for s in range(1 << n) if popcount(s) == l]


@pytest.mark.parametrize("n", (2, 3))
def test_tr_certificates_match_lagrange_oracle(n):
    kz = build_ktr(n, Z, PARAMS).operator
    kw = build_ktr(n, W, PARAMS).operator
    for l, rep in enumerate(verify_tr_spectrum(n, Z, W, PARAMS)):
        vl, vnl = _sector_states(n, l), _sector_states(n, n - l)
        m = kw.block(vl, vnl) @ kz.block(vnl, vl)
        assert [rank(p) for p in _lagrange(m, _values(rep, "tr"))] == _counts(rep, "tr")


@pytest.mark.parametrize("n", (2, 4, 6))
def test_tr_middle_matches_lagrange_oracle(n):
    # the closed forms times (-1)^(n/2), whose sign shows at n = 2 and 6
    rep = verify_tr_middle(n, Z, PARAMS)
    assert rep.ok, rep.checks.failures()
    mid = _sector_states(n, n // 2)
    m = build_ktr(n, Z, PARAMS).operator.block(mid, mid)
    assert [rank(p) for p in _lagrange(m, _values(rep, "tr"))] == _counts(rep, "tr")


@pytest.mark.parametrize("n", (2, 3))
def test_joint_certificates_match_lagrange_oracle(n):
    rep = verify_k11_k21_joint(n, Z, W, PARAMS)
    p11 = _lagrange(build_kkk(1, 1, n, Z, PARAMS).operator, _values(rep, "k11"))
    p21 = _lagrange(build_kkk(2, 1, n, W, PARAMS).operator, _values(rep, "k21"))
    assert [rank(p) for p in p11] == _counts(rep, "k11")
    assert [rank(p) for p in p21] == _counts(rep, "k21")
    for l in range(n + 1):
        assert _status(rep, f"joint projector l={l}").ok == (p11[l] == p21[l])
        assert _status(rep, f"projector idempotent l={l}").ok == (p11[l] @ p11[l] == p11[l])


@pytest.mark.parametrize("n", (2, 3))
def test_k12_k22_certificates_match_lagrange_oracle(n):
    rep = verify_k12_k22(n, Z, PARAMS)
    p12 = _lagrange(build_kkk(1, 2, n, Z, PARAMS).operator, _values(rep, "k12"))
    assert [rank(p) for p in p12] == _counts(rep, "k12")
    c = build_kkk(2, 2, n, Z, PARAMS).operator
    m22 = c if n % 2 == 0 else c @ c
    assert [rank(p) for p in _lagrange(m22, _values(rep, "k22"))] == _counts(rep, "k22")
    for l in range(n // 2 + 1):
        quad = p12[l] if 2 * l == n else p12[l] + p12[n - l]
        expected = comb(n, l) // 2 if 2 * l == n else comb(n, l)
        for name, residue in (("even", 0), ("odd", 1)):
            pr = _parity_op(n, residue)
            got = rank(pr @ quad @ pr)
            check = _status(rep, f"parity block rank l={l} ({name})")
            assert check.detail == f"rank {got}, expected {expected}"
            assert check.ok == (got == expected)


def test_projector_along_other_eigenspaces():
    # onto (1, 0) along (1, 1): the oblique projector [[1, -1], [0, 0]]
    e0, diag = {0: ONE}, {0: ONE, 1: ONE}
    p = _projector([e0], [diag], 2)
    assert [[p.get(r, c) for c in range(2)] for r in range(2)] == \
        [[ONE, -ONE], [Scalar(0), Scalar(0)]]
    # no direct sum of the whole space: no projector
    assert _projector([e0], [{0: Scalar(3)}], 2) is None
    assert _projector([e0], [], 2) is None


def _patched_build(monkeypatch, label, change):
    """Make spectra.build_kkk return change(operator) for one boundary label."""
    real = spectra.build_kkk

    def build(k, kp, n, z, params):
        km = real(k, kp, n, z, params)
        if (k, kp) != label:
            return km
        return KMatrix(change(km.operator), km.kind, km.z, km.n)

    monkeypatch.setattr(spectra, "build_kkk", build)


def _bump(op):
    out = op.copy()
    out.add_to(0, 0, Scalar(1, 0, 97))
    return out


def _reverse_sites(op, n):
    # conjugation by the site reversal, an involution: same spectrum,
    # eigenspaces moved by the permutation
    def flip(s):
        return int(format(s, f"0{n}b")[::-1], 2)

    out = Operator(op.nrows)
    for r, c, v in op.entries():
        out.set(flip(r), flip(c), v)
    return out


def test_joint_projector_negative_control(monkeypatch):
    n = 3
    _patched_build(monkeypatch, (2, 1), lambda op: _reverse_sites(op, n))
    rep = verify_k11_k21_joint(n, Z, W, PARAMS)
    # the conjugated K_{2,1} keeps its spectrum, so its rows still pass
    assert all(row.ok for row in rep.rows)
    p11 = _lagrange(build_kkk(1, 1, n, Z, PARAMS).operator, _values(rep, "k11"))
    p21 = _lagrange(_reverse_sites(build_kkk(2, 1, n, W, PARAMS).operator, n),
                    _values(rep, "k21"))
    moved = [l for l in range(n + 1) if p11[l] != p21[l]]
    assert moved
    failed = [c.name for c in rep.checks.failures()]
    assert [f"joint projector l={l}" for l in moved] == \
        [name for name in failed if name.startswith("joint projector")]
    assert "matrices commute" in failed
    assert not any(name.startswith("projector idempotent") for name in failed)


def test_direct_sum_negative_control(monkeypatch):
    n = 3
    _patched_build(monkeypatch, (1, 1), _bump)
    rep = verify_k11_k21_joint(n, Z, W, PARAMS)
    failed = [c.name for c in rep.checks.failures()]
    assert "annihilating polynomial" in failed
    assert all(f"projector idempotent l={l}" in failed for l in range(n + 1))
    assert all(row.ok for row in rep.rows if row.family == "k21")


def test_parity_block_rank_negative_controls(monkeypatch):
    n = 3
    names = [f"parity block rank l={l} ({p})" for l in range(2) for p in ("even", "odd")]
    a = build_kkk(1, 2, n, Z, PARAMS).operator
    lams = [eval_lambda_k12(n, l, Z, PARAMS) for l in range(n + 1)]
    bases = _certify(SpectralReport("k12", n), "k12", a, lams,
                     [(l, None, comb(n, l)) for l in range(n + 1)])
    rep = SpectralReport("k12", n)
    _parity_checks(rep, n, bases)
    assert rep.ok and [c.name for c in rep.checks.checks] == names
    # the split of the eigenspaces into components swapped
    rep = SpectralReport("k12", n)
    _parity_checks(rep, n, [bases[1], bases[0]] + bases[2:])
    assert [c.name for c in rep.checks.failures()] == names
    # one entry of K_{1,2} bumped: there is no projector to compress
    _patched_build(monkeypatch, (1, 2), _bump)
    rep = verify_k12_k22(n, Z, PARAMS)
    failed = [c.name for c in rep.checks.failures()]
    assert all(name in failed for name in names)


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


def test_spectrum_suite_passes():
    reps = spectrum_suite(2, PARAMS, W)
    assert all(rep.ok for rep in reps)
