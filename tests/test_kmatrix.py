import random
from fractions import Fraction

import pytest

from onsk import kmatrix
from onsk.field import (ONE, GenericityError, PoleError, Scalar, make_params, parse_scalar,
                        sample_params)
from onsk.kmatrix import (
    KMatrix,
    NullspaceDimensionError,
    ZeroNormalizer,
    build_kkk,
    build_ktr,
    build_ktr_multi,
    check_commutativity,
    check_intertwining,
    check_kh_commute,
    check_unitarity,
    gauge_tilde,
    kappa_tr,
    kmatrix_for,
    reference_value,
    solve_intertwiner,
    solve_intertwiner_space,
    vee,
)
from onsk.linalg import Operator, first_entry, rank_rows
from onsk.onsager import (
    CoidealSpec,
    SpecError,
    hamiltonian_from,
    hamiltonian_multi,
    onsager_generators,
)
from onsk.poch import poch
from onsk.qboson import QBosonEngine, boundary_contract, boundary_contract_oracle
from onsk.spinrep import Family, RangeError, global_flip, popcount

from points import contracting_params

PARAMS = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7))


def seeds(k=3):
    return [sample_params(i) for i in range(k)]


def test_ktr_smallest_size():
    q = PARAMS.q
    km = build_ktr(1, PARAMS.z, PARAMS)
    assert km.kind == "tr" and km.n == 1
    assert km.operator.get(0, 1) == q
    assert km.operator.get(1, 0) == q ** -1
    assert km.operator.get(0, 0).is_zero() and km.operator.get(1, 1).is_zero()


def test_ktr_golden_rows():
    one = ONE
    for prm in seeds():
        q, z = prm.q, prm.z
        den = one - q ** 3 * z
        op = build_ktr(3, z, prm).operator
        # in state 011
        assert op.get(4, 6) == -q * (one - q ** 2) * z / den
        assert op.get(2, 6) == -q ** 2 * (one - q ** 2) * z / den
        assert op.get(1, 6) == q ** 2 * (one - q * z) / den
        # in state 101
        assert op.get(4, 5) == -q ** 2 * (one - q ** 2) * z / den
        assert op.get(2, 5) == q ** 2 * (one - q * z) / den
        assert op.get(1, 5) == -q * (one - q ** 2) / den
        # in state 110
        assert op.get(4, 3) == q ** 2 * (one - q * z) / den
        assert op.get(2, 3) == -q * (one - q ** 2) / den
        assert op.get(1, 3) == -q ** 2 * (one - q ** 2) / den


def test_ktr_support_and_reference():
    for n in (2, 3, 4):
        km = build_ktr(n, PARAMS.z, PARAMS)
        assert all(popcount(r) + popcount(c) == n for r, c, _ in km.operator.entries())
        assert km.operator.get((1 << n) - 1, 0) == PARAMS.q ** -n
        assert reference_value("tr", n, PARAMS.z, PARAMS) == PARAMS.q ** -n


def test_kappa_tr_values():
    q, z = PARAMS.q, PARAMS.z
    assert kappa_tr(0, 3, z, q) == q ** -3 * (ONE - q ** 3 * z)
    assert kappa_tr(2, 3, z, q) == ONE - q * z
    assert kappa_tr(3, 4, z, q) == -(ONE - q ** 2 * z)
    assert kappa_tr(1, 4, z, q) == -q ** -2 * (ONE - q ** 2 * z)


def test_ktr_pole_reports_entry():
    prm = PARAMS.with_z(PARAMS.q ** -3)
    with pytest.raises(PoleError) as err:
        build_ktr(3, prm.z, prm)
    assert "entry" in str(err.value)


def unitarity_inputs(n):
    return build_ktr(n, PARAMS.z, PARAMS), build_ktr(n, PARAMS.z.inverse(), PARAMS)


def commutativity_inputs(n, z, w):
    return (build_ktr(n, z, PARAMS), build_ktr(n, w, PARAMS),
            build_kkk(1, 1, n, z, PARAMS), build_kkk(1, 1, n, w, PARAMS))


def test_unitarity():
    for n in (1, 2, 3, 4):
        rep = check_unitarity(*unitarity_inputs(n))
        assert rep.passed, rep.failures()


def test_commutativity_trace_kind():
    rep = check_commutativity(*commutativity_inputs(3, PARAMS.z, Scalar(5, 0, 11)))
    names = {c.name: c for c in rep.checks}
    assert names["trace kind commutes"].ok


def test_commutativity_boundary_kind_also_commutes():
    # expected here was non-commutation; exact computation says otherwise
    # (documented divergence, see the project notes)
    rep = check_commutativity(*commutativity_inputs(2, Scalar(5, 0, 7), Scalar(3, 0, 11)))
    names = {c.name: c for c in rep.checks}
    assert names["boundary kind commutes"].ok
    assert "divergence" in names["boundary kind commutes"].detail


@pytest.mark.xfail(strict=True, reason="boundary K matrices with equal labels "
                   "commute exactly; the expected negative test is refuted "
                   "(see notes)")
def test_commutativity_boundary_kind_negative_expectation():
    a = build_kkk(1, 1, 2, Scalar(5, 0, 7), PARAMS).operator
    b = build_kkk(1, 1, 2, Scalar(3, 0, 11), PARAMS).operator
    assert first_entry(a @ b - b @ a) is not None


def test_commutativity_mixed_labels_fails():
    a = build_kkk(1, 1, 2, PARAMS.z, PARAMS).operator
    b = build_kkk(1, 2, 2, Scalar(5, 0, 11), PARAMS).operator
    assert first_entry(a @ b - b @ a) is not None


def test_kkk_golden_rows_labels_11_12_21():
    one = ONE
    for prm in seeds():
        q, z = prm.q, prm.z
        op = build_kkk(1, 1, 2, z, prm).operator
        d = poch(-q * z, q, 2)
        assert op.get(0, 0) == poch(-q, q, 2) * z ** 2 / d
        assert op.get(2, 0) == (one + q) * (one - z) * z / d
        assert op.get(1, 0) == q * (one + q) * (one - z) * z / d
        assert op.get(3, 0) == poch(z, q, 2) / d

        op = build_kkk(1, 2, 2, z, prm).operator
        d = poch(-q * z ** 2, q ** 2, 2)
        assert op.get(0, 0) == (one + q) * z ** 2 * (one + q ** 2 - q ** 2 * z ** 2 + q ** 3 * z ** 2) / d
        assert op.get(2, 0) == (one + q) * (one - z ** 2) * z / d
        assert op.get(1, 0) == q * (one + q) * (one - z ** 2) * z / d
        assert op.get(3, 0) == poch(z ** 2, q ** 2, 2) / d

        op = build_kkk(2, 1, 2, z, prm).operator
        d = poch(-q * z ** 2, q ** 2, 2)
        assert op.get(0, 0) == (one + q) * z ** 2 * (one - q + q * z ** 2 + q ** 3 * z ** 2) / d
        assert op.get(2, 0) == q * (one + q) * (one - z ** 2) * z ** 2 / d
        assert op.get(1, 0) == q ** 2 * (one + q) * (one - z ** 2) * z ** 2 / d
        assert op.get(3, 0) == poch(z ** 2, q ** 2, 2) / d


def test_kkk_golden_rows_label_22():
    one = ONE
    for prm in seeds():
        q, z = prm.q, prm.z
        op = build_kkk(2, 2, 3, z, prm).operator
        d = poch(z ** 2, q ** 4, 2)
        assert op.get(4, 0) == (one - q ** 2) * z ** 2 / d
        assert op.get(2, 0) == q * (one - q ** 2) * z ** 2 / d
        assert op.get(1, 0) == q ** 2 * (one - q ** 2) * z ** 2 / d
        assert op.get(7, 0) == (one - q ** 2 * z ** 2) / d
        assert op.get(0, 1) == -q ** 3 * (one - q ** 2) * z ** 2 / d
        assert op.get(6, 1) == -q * (one - q ** 2 * z ** 2) / d
        assert op.get(5, 1) == (one - q ** 2) / d
        assert op.get(3, 1) == q * (one - q ** 2) / d
        # corner entry pairing within the same matrix
        assert op.get(7, 0) == -q ** -1 * op.get(6, 1)


def test_kkk_reference_entries():
    for (k, kp) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for n in (2, 3):
            km = build_kkk(k, kp, n, PARAMS.z, PARAMS)
            ref = reference_value((k, kp), n, PARAMS.z, PARAMS)
            assert km.operator.get((1 << n) - 1, 0) == ref
    q, z = PARAMS.q, PARAMS.z
    assert reference_value((2, 2), 4, z, PARAMS) == poch(z ** 2, q ** 4, 2) / poch(q ** 2 * z ** 2, q ** 4, 2)
    assert reference_value((2, 2), 3, z, PARAMS) == poch(q ** 2 * z ** 2, q ** 4, 1) / poch(z ** 2, q ** 4, 2)


def test_kkk_support_parity(monkeypatch):
    calls = []
    mul = QBosonEngine.mul

    def counted(engine, x, y):
        calls.append(None)
        return mul(engine, x, y)

    monkeypatch.setattr(QBosonEngine, "mul", counted)
    km = build_kkk(2, 2, 3, PARAMS.z, PARAMS)
    # the last site takes only right-parity letters: 4 + 16 + 32 products, not 4 + 16 + 64
    assert len(calls) == 52
    assert all((popcount(r) + popcount(c) - 3) % 2 == 0 for r, c, _ in km.operator.entries())
    km = build_kkk(1, 1, 2, PARAMS.z, PARAMS)
    assert sum(1 for _ in km.operator.entries()) == 16  # generically full


def test_kkk_rejects_bad_labels():
    with pytest.raises(SpecError):
        build_kkk(3, 1, 2, PARAMS.z, PARAMS)
    with pytest.raises(RangeError):
        build_kkk(1, 1, 0, PARAMS.z, PARAMS)


def test_gauge_tilde_symmetric():
    for (k, kp, n) in ((1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 3)):
        kt = gauge_tilde(build_kkk(k, kp, n, PARAMS.z, PARAMS), PARAMS)
        assert kt == kt.transpose()


def test_gauge_tilde_guards():
    with pytest.raises(SpecError):
        gauge_tilde(build_ktr(2, PARAMS.z, PARAMS), PARAMS)


def test_vee_is_flip_composed():
    km = build_ktr(2, PARAMS.z, PARAMS)
    assert vee(km, PARAMS) == global_flip(2) @ km.operator
    # flipping the plain boundary kind routes through the symmetric gauge
    kb = build_kkk(2, 2, 3, PARAMS.z, PARAMS)
    assert vee(kb, PARAMS) == global_flip(3) @ gauge_tilde(kb, PARAMS)


def _reference_gauge(op, n, s):
    """D op D^-1 with D = diag(s^|alpha|), as two products with diagonal operators."""
    d, dinv = Operator(1 << n), Operator(1 << n)
    for alpha in range(1 << n):
        d.set(alpha, alpha, s ** popcount(alpha))
        dinv.set(alpha, alpha, s ** -popcount(alpha))
    return d @ op @ dinv


@pytest.mark.parametrize("t, z", [(Scalar(2, 0, 5), Scalar(3, 0, 7)),
                                  (parse_scalar("1/2+1/3*i"), parse_scalar("2/7+1/5*i"))],
                         ids=["real", "complex"])
def test_gauge_and_flip_match_operator_products(t, z):
    # the entry maps equal the diagonal gauge products and the flip product
    for eps in (1, -1):
        for mu in (1, -1):
            prm = make_params(t, z, eps, mu)
            for n in range(1, 5):
                for k in (1, 2):
                    for kp in (1, 2):
                        km = build_kkk(k, kp, n, z, prm)
                        kt = gauge_tilde(km, prm)
                        assert kt == _reference_gauge(km.operator, n, t * -mu), (prm, n, k, kp)
                        assert vee(km, prm) == global_flip(n) @ kt, (prm, n, k, kp)
                ktr = build_ktr(n, z, prm)
                assert vee(ktr, prm) == global_flip(n) @ ktr.operator, (prm, n)


@pytest.mark.parametrize("seed", range(8))
def test_gauge_matches_reference_on_random_operators(seed):
    rng = random.Random(f"gauge:{seed}")

    def gauss():
        return Scalar(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 12))

    n = rng.randint(1, 4)
    t = gauss()
    while t.is_zero() or t * t in (ONE, -ONE):
        t = gauss()
    prm = make_params(t, Scalar(3, 0, 7), rng.choice((1, -1)), rng.choice((1, -1)))
    op = Operator(1 << n)
    for r in range(1 << n):
        for c in range(1 << n):
            if rng.random() < 0.4:
                op.set(r, c, gauss())
    km = KMatrix(op, (rng.randint(1, 2), rng.randint(1, 2)), prm.z, n)
    assert gauge_tilde(km, prm) == _reference_gauge(op, n, t * -prm.mu)
    assert vee(km, prm) == global_flip(n) @ gauge_tilde(km, prm)


def test_vee_preserves_sectors():
    kv = vee(build_ktr(3, PARAMS.z, PARAMS), PARAMS)
    assert all(popcount(r) == popcount(c) for r, c, _ in kv.entries())
    kv = vee(build_kkk(2, 2, 3, PARAMS.z, PARAMS), PARAMS)
    assert all((popcount(r) - popcount(c)) % 2 == 0 for r, c, _ in kv.entries())


def nine_specs():
    yield CoidealSpec(Family("D2", 2), 1, 1)
    yield CoidealSpec(Family("D2", 2), 1, 2)
    yield CoidealSpec(Family("D2", 2), 2, 1)
    yield CoidealSpec(Family("D2", 2), 2, 2)
    yield CoidealSpec(Family("B1", 3), 2, 1)
    yield CoidealSpec(Family("B1", 3), 2, 2)
    yield CoidealSpec(Family("BT1", 3), 1, 2)
    yield CoidealSpec(Family("BT1", 3), 2, 2)
    yield CoidealSpec(Family("D1", 3), 2, 2)


def test_intertwining_cyclic_family():
    for prm in seeds(2):
        spec = CoidealSpec(Family("A1", 3))
        rep = check_intertwining(spec, kmatrix_for(spec, prm), prm)
        assert rep.passed, rep.failures()
        names = [c.name for c in rep.checks]
        assert "b1 free of z" in names and "b2 free of z" in names


def test_intertwining_all_nine():
    for spec in nine_specs():
        rep = check_intertwining(spec, kmatrix_for(spec, PARAMS), PARAMS)
        assert rep.passed, (repr(spec), rep.failures())


def five_recipes():
    return [
        CoidealSpec(Family("A1", 3)),
        CoidealSpec(Family("D2", 2), 1, 1),
        CoidealSpec(Family("B1", 3), 2, 1),
        CoidealSpec(Family("BT1", 3), 1, 2),
        CoidealSpec(Family("D1", 3), 2, 2),
    ]


def test_kh_commute_five_recipes():
    for spec in five_recipes():
        rep = check_kh_commute(spec, kmatrix_for(spec, PARAMS), PARAMS)
        assert rep.passed, (repr(spec), rep.failures())


def test_kh_commute_needs_recipe():
    spec = CoidealSpec(Family("D2", 2), 2, 1)
    with pytest.raises(SpecError):
        check_kh_commute(spec, kmatrix_for(spec, PARAMS), PARAMS)


def test_kmatrix_for_plain_matrix_of_spec():
    spec = CoidealSpec(Family("A1", 3))
    assert kmatrix_for(spec, PARAMS).operator == build_ktr(3, PARAMS.z, PARAMS).operator
    km = kmatrix_for(CoidealSpec(Family("B1", 3), 2, 1), PARAMS)
    assert (km.kind, km.n, km.z) == ((2, 1), 3, PARAMS.z)
    assert km.operator == build_kkk(2, 1, 3, PARAMS.z, PARAMS).operator


def _relabelled(km, **change):
    fields = dict(kind=km.kind, z=km.z, n=km.n)
    fields.update(change)
    return KMatrix(km.operator, **fields)


def test_checks_refuse_other_matrices():
    # a matrix of the wrong kind, size or point is refused, never
    # checked against a different identity
    kz, kinv = unitarity_inputs(2)
    with pytest.raises(SpecError):
        check_unitarity(kz, kz)
    with pytest.raises(SpecError):
        check_unitarity(kz, build_ktr(3, PARAMS.z.inverse(), PARAMS))
    with pytest.raises(SpecError):
        check_unitarity(build_kkk(1, 1, 2, PARAMS.z, PARAMS), kinv)
    with pytest.raises(SpecError):
        check_unitarity(kz, _relabelled(kinv, n=3))
    kz, kw, bz, bw = commutativity_inputs(2, PARAMS.z, Scalar(5, 0, 11))
    with pytest.raises(SpecError):
        check_commutativity(kz, kz, bz, bz)
    with pytest.raises(SpecError):
        check_commutativity(kz, kw, bw, bz)
    with pytest.raises(SpecError):
        check_commutativity(kz, kw, bz, build_kkk(1, 2, 2, Scalar(5, 0, 11), PARAMS))
    with pytest.raises(SpecError):
        check_commutativity(kz, build_ktr_multi((Scalar(5, 0, 11), Scalar(2)), PARAMS), bz, bw)
    spec = CoidealSpec(Family("D2", 2), 1, 1)
    kt = kmatrix_for(spec, PARAMS)
    for check in (check_intertwining, check_kh_commute):
        with pytest.raises(SpecError):
            check(spec, kt, PARAMS.inverted_z())
        with pytest.raises(SpecError):
            check(CoidealSpec(Family("D2", 2), 1, 2), kt, PARAMS)
        with pytest.raises(SpecError):
            check(CoidealSpec(Family("D2", 3), 1, 1), kt, PARAMS)
        with pytest.raises(SpecError):
            check(CoidealSpec(Family("A1", 3)), kt, PARAMS)


def _bumped(km):
    """km with its first nonzero entry moved by 1/97."""
    r, c, _ = first_entry(km.operator)
    op = km.operator.copy()
    op.add_to(r, c, Scalar(1, 0, 97))
    return KMatrix(op, km.kind, km.z, km.n)


def assert_bumps_fail(check, inputs, names):
    """Each input in turn, moved by 1/97 in one entry, fails the check
    names[i] with a named residual, and every failure names a residual."""
    assert check(*inputs).passed
    for i, name in enumerate(names):
        bumped = list(inputs)
        bumped[i] = _bumped(inputs[i])
        failed = check(*bumped).failures()
        assert name in [c.name for c in failed], (i, failed)
        assert all(c.detail.startswith("residual at (") for c in failed), (i, failed)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_unitarity_negative_control(n):
    assert_bumps_fail(check_unitarity, unitarity_inputs(n), ["K(z) K(1/z) = id"] * 2)


@pytest.mark.parametrize("n, z, w", [(3, PARAMS.z, Scalar(5, 0, 11)),
                                     (2, Scalar(5, 0, 7), Scalar(3, 0, 11))], ids=["n3", "n2"])
def test_commutativity_negative_control(n, z, w):
    assert_bumps_fail(check_commutativity, commutativity_inputs(n, z, w),
                      ["trace kind commutes"] * 2 + ["boundary kind commutes"] * 2)


# The first nonzero entry of K_tr(z) is the corner (0, 2^n - 1), alone in
# its weight slice.  Each weight slice of K_tr satisfies the exchange
# relations on its own (test_solver_space_structure_cyclic), and the flip
# takes it to a weight block, which commutes with the weight-preserving H,
# so neither check sees that entry.
CORNER_BLIND = pytest.mark.xfail(strict=True, reason="the corner entry of K_tr "
                                 "is not constrained by the exchange relations or by [K, H]")
RECIPES = [pytest.param(spec, id=spec.fam.tag,
                        marks=CORNER_BLIND if spec.fam.tag == "A1" else ())
           for spec in five_recipes()]


@pytest.mark.parametrize("spec", RECIPES)
def test_intertwining_negative_control(spec):
    assert_bumps_fail(lambda km: check_intertwining(spec, km, PARAMS),
                      [kmatrix_for(spec, PARAMS)], ["K b0 exchange"])


@pytest.mark.parametrize("spec", RECIPES)
def test_kh_commute_negative_control(spec):
    assert_bumps_fail(lambda km: check_kh_commute(spec, km, PARAMS),
                      [kmatrix_for(spec, PARAMS)], ["[K, H] = 0"])


def _corner_scaled(prm):
    """K_tr(z) of A1 at n=3 with its corner entry (0, 7) times 98/97."""
    km = build_ktr(3, prm.z, prm)
    op = km.operator.copy()
    op.add_to(0, 7, op.get(0, 7) * Scalar(1, 0, 97))
    return KMatrix(op, km.kind, km.z, km.n)


@pytest.mark.xfail(strict=True, reason="every weight slice of K_tr satisfies the exchange "
                   "relations on its own, and H preserves weight, so a slice's scale is free")
@pytest.mark.parametrize("check", (check_intertwining, check_kh_commute),
                         ids=("intertwining", "kh_commute"))
def test_scaled_corner_fails(check):
    for prm in seeds():
        assert not check(CoidealSpec(Family("A1", 3)), _corner_scaled(prm), prm).passed


def test_scaled_corner_fails_unitarity():
    # the suite still catches the scaled corner that the two checks above miss
    for prm in seeds():
        rep = check_unitarity(_corner_scaled(prm), build_ktr(3, prm.z.inverse(), prm))
        assert [c.name for c in rep.failures()] == ["K(z) K(1/z) = id", "K(1/z) K(z) = id"]


def test_quasi_commutativity_arbitrary_coefficients():
    # K(z) H(z) = H(1/z) K(z) for any node coefficients, both kinds
    rng = random.Random(11)
    spec = CoidealSpec(Family("A1", 3))
    kop = build_ktr(3, PARAMS.z, PARAMS).operator
    bs = onsager_generators(spec, PARAMS)
    bs_inv = onsager_generators(spec, PARAMS.inverted_z())
    kappas = [Scalar(rng.randint(1, 9), rng.randint(0, 3), rng.randint(1, 5)) for _ in bs]
    h = hamiltonian_from(bs, kappas)
    hinv = hamiltonian_from(bs_inv, kappas)
    assert kop @ h == hinv @ kop

    spec = CoidealSpec(Family("D2", 2), 1, 2)
    kop = gauge_tilde(build_kkk(1, 2, 2, PARAMS.z, PARAMS), PARAMS)
    bs = onsager_generators(spec, PARAMS)
    bs_inv = onsager_generators(spec, PARAMS.inverted_z())
    kappas = [Scalar(rng.randint(1, 9), 0, rng.randint(1, 7)) for _ in bs]
    h = hamiltonian_from(bs, kappas)
    hinv = hamiltonian_from(bs_inv, kappas)
    assert kop @ h == hinv @ kop


def test_multi_parameter_commutes_with_hamiltonian():
    zs = (Scalar(2), Scalar(3), Scalar(5))
    kv = vee(build_ktr_multi(zs, PARAMS), PARAMS)
    h = hamiltonian_multi(zs, PARAMS)
    assert kv @ h == h @ kv


def test_multi_parameter_normalization_and_support():
    zs = (Scalar(2), Scalar(3), Scalar(5))
    km = build_ktr_multi(zs, PARAMS)
    assert km.kind == "tr" and km.z == zs
    assert km.operator.get(7, 0) == ONE
    assert all(popcount(r) + popcount(c) == 3 for r, c, _ in km.operator.entries())


def test_multi_parameter_single_bond_reduction():
    # only the first bond carries z: same matrix as single-z up to one
    # constant per in-sector
    z = PARAMS.z
    km = build_ktr_multi((z, Scalar(1), Scalar(1)), PARAMS).operator
    ks = build_ktr(3, z, PARAMS).operator
    ratios = {}
    for r, c, v in km.entries():
        l = popcount(c)
        ratio = v / ks.get(r, c)
        assert ratios.setdefault(l, ratio) == ratio


def test_multi_parameter_equal_bonds_reduction():
    # all bonds at z: single-z matrix at z^n times an entry monomial in z
    # and one constant per in-sector
    z = PARAMS.z
    n = 3
    km = build_ktr_multi((z, z, z), PARAMS).operator
    ks = build_ktr(n, z ** n, PARAMS).operator
    ratios = {}
    for r, c, v in km.entries():
        e = 0
        for j in range(n):
            pair = ((r >> j) & 1, (c >> j) & 1)
            w = 1 if pair == (0, 0) else (-1 if pair == (1, 1) else 0)
            e += (n - 1 - j) * w
        ratio = v / (ks.get(r, c) * z ** -e)
        assert ratios.setdefault(popcount(c), ratio) == ratio
    assert len(ratios) == 4


def test_multi_parameter_guards():
    with pytest.raises(GenericityError, match="bond parameters must be nonzero"):
        build_ktr_multi((Scalar(2), Scalar(0), Scalar(3)), PARAMS)
    with pytest.raises(RangeError):
        build_ktr_multi((), PARAMS)
    km = build_ktr_multi((Fraction(2), Fraction(3, 7), Fraction(5)), PARAMS)
    assert km.operator.get(7, 0) == ONE


def test_solver_matches_build_bounded_families():
    cases = [("D2", 2, 1, 1), ("D2", 2, 1, 2), ("D2", 2, 2, 1), ("D2", 2, 2, 2),
             ("D2", 3, 1, 1), ("B1", 3, 2, 1), ("B1", 3, 2, 2),
             ("BT1", 3, 1, 2), ("BT1", 3, 2, 2)]
    for tag, n, k, kp in cases:
        spec = CoidealSpec(Family(tag, n), k, kp)
        ks = solve_intertwiner(spec, PARAMS)
        kb = build_kkk(k, kp, n, PARAMS.z, PARAMS)
        assert ks.kind == (k, kp)
        assert ks.operator == kb.operator, (tag, n, k, kp)


def test_solver_matches_build_two_seeds():
    for prm in seeds(2):
        spec = CoidealSpec(Family("D2", 2), 2, 1)
        assert solve_intertwiner(spec, prm).operator == build_kkk(2, 1, 2, prm.z, prm).operator


def test_solver_space_dimensions():
    # the exchange relations alone do not pin the cyclic-family matrix:
    # every generator preserves each weight sector, so sector scales are
    # free; with both boundaries even-shifting, the parity twin survives
    assert len(solve_intertwiner_space(CoidealSpec(Family("A1", 3)), PARAMS)) == 6
    assert len(solve_intertwiner_space(CoidealSpec(Family("A1", 4)), PARAMS)) == 7
    assert len(solve_intertwiner_space(CoidealSpec(Family("D1", 3), 2, 2), PARAMS)) == 2
    assert len(solve_intertwiner_space(CoidealSpec(Family("D2", 2), 1, 1), PARAMS)) == 1


def test_solver_degenerate_raises():
    with pytest.raises(NullspaceDimensionError):
        solve_intertwiner(CoidealSpec(Family("A1", 3)), PARAMS)
    with pytest.raises(NullspaceDimensionError):
        solve_intertwiner(CoidealSpec(Family("D1", 3), 2, 2), PARAMS)


@pytest.mark.parametrize("which", range(4))
def test_solver_generator_negative_control(monkeypatch, which):
    # one generator's first nonzero entry moved by 1/97, at both points:
    # the exchange relations then admit no matrix at all
    spec = CoidealSpec(Family("D2", 3), 1, 1)
    real = kmatrix.onsager_generators

    def bumped(spec, params):
        bs = list(real(spec, params))
        b = bs[which].copy()
        r, c, _ = first_entry(b)
        b.add_to(r, c, Scalar(1, 0, 97))
        bs[which] = b
        return bs

    assert len(real(spec, PARAMS)) == 4
    monkeypatch.setattr(kmatrix, "onsager_generators", bumped)
    assert solve_intertwiner_space(spec, PARAMS) == []
    with pytest.raises(NullspaceDimensionError):
        solve_intertwiner(spec, PARAMS)


@pytest.mark.xfail(strict=True, reason="exchange relations alone leave extra "
                   "freedom for the cyclic family and for both-even boundaries; "
                   "dimension-one expectation refuted (see notes)")
def test_solver_uniqueness_expected_everywhere():
    solve_intertwiner(CoidealSpec(Family("A1", 3)), PARAMS)


def _flat(op, dim):
    return {r * dim + c: v for r, c, v in op.entries()}


def test_solver_space_structure_both_even_boundaries():
    # the two-dimensional space is spanned by the built matrix and its
    # parity twin
    for n in (3, 4):
        spec = CoidealSpec(Family("D1", n), 2, 2)
        basis = solve_intertwiner_space(spec, PARAMS)
        assert len(basis) == 2
        dim = 1 << n
        kt = gauge_tilde(build_kkk(2, 2, n, PARAMS.z, PARAMS), PARAMS)
        pi = Operator(dim, dim)
        for a in range(dim):
            pi.set(a, a, ONE if popcount(a) % 2 == 0 else -ONE)
        rows = [_flat(b, dim) for b in basis]
        assert rank_rows(rows) == 2
        assert rank_rows(rows + [_flat(kt, dim)]) == 2
        assert rank_rows(rows + [_flat(kt @ pi, dim)]) == 2


def test_solver_space_structure_cyclic():
    # six dimensions at n=3: the four weight slices of the built matrix
    # plus the two corner diagonal units
    basis = solve_intertwiner_space(CoidealSpec(Family("A1", 3)), PARAMS)
    dim = 8
    kb = build_ktr(3, PARAMS.z, PARAMS).operator
    rows = [_flat(b, dim) for b in basis]
    assert rank_rows(rows) == 6
    pieces = []
    for l in range(4):
        pl = Operator(dim, dim)
        for a in range(dim):
            if popcount(a) == l:
                pl.set(a, a, ONE)
        pieces.append(kb @ pl)
    for corner in (0, dim - 1):
        unit = Operator(dim, dim)
        unit.set(corner, corner, ONE)
        pieces.append(unit)
    for piece in pieces:
        assert rank_rows(rows + [_flat(piece, dim)]) == 6
    assert rank_rows([_flat(p, dim) for p in pieces]) == 6


def test_solver_gauge_forms_no_product(monkeypatch):
    # the D2 (1,1) solve at n=4 forms products only to build the
    # generators at its two points: the gauge is removed entry by entry,
    # and linalg.kernel's exact check proves the relations
    calls = []
    matmul = Operator.__matmul__

    def counted_matmul(a, b):
        calls.append(None)
        return matmul(a, b)

    monkeypatch.setattr(Operator, "__matmul__", counted_matmul)
    ks = solve_intertwiner(CoidealSpec(Family("D2", 4), 1, 1), PARAMS)
    assert len(calls) == 10
    monkeypatch.undo()
    assert ks.operator == build_kkk(1, 1, 4, PARAMS.z, PARAMS).operator


def test_solver_guard():
    with pytest.raises(RangeError):
        solve_intertwiner(CoidealSpec(Family("A1", 6)), PARAMS)


def entry_letters(engine, beta, alpha, n):
    """Per-site letters of one entry, written out site by site."""
    letters = []
    for site in range(n):
        b, a = (beta >> site) & 1, (alpha >> site) & 1
        if (b, a) == (0, 0):
            letters.append(engine.ap())
        elif (b, a) == (0, 1):
            letters.append(engine.scale(engine.kdiag(), -engine.q))
        elif (b, a) == (1, 0):
            letters.append(engine.kdiag())
        else:
            letters.append(engine.am())
    return letters


def reference_matrix(prm, zs, close, support, factor=lambda alpha: ONE):
    """K matrix built entry by entry, each from its own word on a fresh engine.

    The word of entry (beta, alpha) is X_1 L_1 X_2 L_2 ... with zs holding
    the marker argument of each bond (None for no marker there); close maps
    (engine, word) to a value.  support selects entries by the excess
    |alpha| + |beta| - n, and factor(alpha) scales a column.
    """
    n = len(zs)
    dim = 1 << n
    out = Operator(dim, dim)
    for alpha in range(dim):
        for beta in range(dim):
            if not support(popcount(alpha) + popcount(beta) - n):
                continue
            engine = QBosonEngine(prm)
            factors = []
            for zi, letter in zip(zs, entry_letters(engine, beta, alpha, n)):
                if zi is not None:
                    factors.append(engine.marker(zi))
                factors.append(letter)
            out.set(beta, alpha, factor(alpha) * close(engine, engine.mulseq(factors)))
    return out


@pytest.mark.parametrize("t, z", [(Scalar(2, 0, 5), Scalar(3, 0, 7)),
                                  (parse_scalar("1/2+1/3*i"), parse_scalar("2/7+1/5*i"))],
                         ids=["real", "complex"])
def test_prefix_shared_builds_match_per_entry_words(t, z):
    # prefix sharing and the per-engine base memo leave every entry as it is
    bonds = (Scalar(2), parse_scalar("3/5+1/7*i"), Scalar(5, 0, 3))
    on_weight = lambda excess: excess == 0
    for eps in (1, -1):
        for mu in (1, -1):
            prm = make_params(t, z, eps, mu)
            for n in range(1, 5):
                single = (z,) + (None,) * (n - 1)
                kap = lambda alpha: kappa_tr(popcount(alpha), n, z, prm.q)
                want = reference_matrix(prm, single, QBosonEngine.trace, on_weight, kap)
                assert build_ktr(n, z, prm).operator == want, (prm, n)
                multi = (z,) + bonds[:n - 1]
                want = reference_matrix(prm, multi, QBosonEngine.trace, on_weight)
                want = want.scale(want.get((1 << n) - 1, 0).inverse())
                assert build_ktr_multi(multi, prm).operator == want, (prm, n)
                for k in (1, 2):
                    for kp in (1, 2):
                        want = reference_matrix(
                            prm, single, lambda e, nf: boundary_contract(e, nf, k, kp),
                            lambda excess: (k, kp) != (2, 2) or excess % 2 == 0)
                        assert build_kkk(k, kp, n, z, prm).operator == want, (prm, n, k, kp)


def test_entries_recheck_against_oracle():
    prm = contracting_params(1)
    engine = QBosonEngine(prm)
    rng = random.Random(77)
    n, dim = 3, 8
    for (k, kp) in ((1, 1), (1, 2), (2, 1), (2, 2)):
        km = build_kkk(k, kp, n, prm.z, prm)
        done = 0
        while done < 10:
            alpha, beta = rng.randrange(dim), rng.randrange(dim)
            if (k, kp) == (2, 2) and (popcount(alpha) + popcount(beta) - n) % 2:
                continue
            exact = km.operator.get(beta, alpha)
            nf = engine.mulseq([engine.marker(prm.z)] + entry_letters(engine, beta, alpha, n))
            val, bound = boundary_contract_oracle(prm, nf, k, kp)
            assert bound <= Fraction(1, 10 ** 25)
            assert exact.is_real()
            assert abs(exact.re - val) <= bound
            done += 1
