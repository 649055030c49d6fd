from fractions import Fraction

import pytest

from onsk import onsager
from onsk.field import GenericityError, Scalar, make_params, sample_params
from onsk.linalg import Operator, first_entry
from onsk.onsager import (
    CoidealSpec,
    SpecError,
    check_onsager_relations,
    check_routes_agree,
    check_tl_relations,
    gamma,
    hamiltonian,
    hamiltonian_kappa,
    hamiltonian_multi,
    onsager_generators,
    pauli_generators,
    tl_generators,
)
from onsk.spinrep import Family, RangeError, global_flip, local_spin

from points import unit_z_params

PARAMS = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7), eps=1, mu=1)


def nine_specs(params=None):
    out = [CoidealSpec(Family("D2", 2), k, kp)
           for k, kp in ((1, 1), (2, 1), (1, 2), (2, 2))]
    out += [CoidealSpec(Family("B1", 3), 2, kp) for kp in (1, 2)]
    out += [CoidealSpec(Family("BT1", 3), k, 2) for k in (1, 2)]
    out.append(CoidealSpec(Family("D1", 3), 2, 2))
    return out


def test_spec_validation():
    with pytest.raises(SpecError):
        CoidealSpec(Family("A1", 3), 1, 1)
    with pytest.raises(SpecError):
        CoidealSpec(Family("D2", 2), 3, 1)
    with pytest.raises(SpecError):
        CoidealSpec(Family("D2", 2), 1, None)
    with pytest.raises(SpecError):
        CoidealSpec(Family("B1", 3), 1, 1)   # fork end needs k = 2
    with pytest.raises(SpecError):
        CoidealSpec(Family("BT1", 3), 1, 1)
    with pytest.raises(SpecError):
        CoidealSpec(Family("D1", 3), 2, 1)
    with pytest.raises(SpecError):
        CoidealSpec(Family("D2", 2), 1, 1, variant=True)
    assert CoidealSpec(Family("A1", 3), variant=True).variant


def test_gamma_identity():
    for seed in (0, 1):
        params = sample_params(seed)
        q = params.q
        assert gamma(params) == -((q - q ** -1) ** 2) / ((q + q ** -1) * 4)


def test_routes_agree_everywhere():
    for spec in nine_specs():
        rep = check_routes_agree(spec, onsager_generators(spec, PARAMS), PARAMS)
        assert rep.passed, (spec, rep.failures())
    for variant in (False, True):
        spec = CoidealSpec(Family("A1", 3), variant=variant)
        params = sample_params(2)
        rep = check_routes_agree(spec, onsager_generators(spec, params), params)
        assert rep.passed, rep.failures()


def test_cyclic_generator_display():
    # b_1 = s+ s- + s- s+ + (q+1/q)/4 sz sz + (q-1/q)/4 (sz_1 - sz_2) + Gamma
    params = PARAMS
    q = params.q
    bs = pauli_generators(CoidealSpec(Family("A1", 3)), params)
    sp1, sm1 = local_spin("+", 1, 3), local_spin("-", 1, 3)
    sp2, sm2 = local_spin("+", 2, 3), local_spin("-", 2, 3)
    sz1, sz2 = local_spin("z", 1, 3), local_spin("z", 2, 3)
    want = (sp1 @ sm2 + sm1 @ sp2
            + (sz1 @ sz2).scale((q + q ** -1) / 4)
            + (sz1 - sz2).scale((q - q ** -1) / 4)
            + Operator.identity(8).scale(gamma(params)))
    assert bs[1] == want
    # node 0 carries the spectral weight on the wrapping bond
    z = params.z
    sp3, sm3 = local_spin("+", 3, 3), local_spin("-", 3, 3)
    sz3 = local_spin("z", 3, 3)
    want0 = ((sp3 @ sm1).scale(z ** -1) + (sm3 @ sp1).scale(z)
             + (sz3 @ sz1).scale((q + q ** -1) / 4)
             + (sz3 - sz1).scale((q - q ** -1) / 4)
             + Operator.identity(8).scale(gamma(params)))
    assert bs[0] == want0


def test_single_node_displays():
    params = PARAMS
    t, z, mu = params.t, params.z, params.mu
    eye4 = Operator.identity(4)
    c = (t - t ** -1) * mu / 2
    const = (t - t ** -1) * (t ** 2 - t ** -2) * mu / ((t ** 2 + t ** -2) * 2)

    # head with label 1: hop plus sz and constant corrections
    b0 = pauli_generators(CoidealSpec(Family("D2", 2), 1, 1), params)[0]
    want = (local_spin("+", 1, 2).scale(z) + local_spin("-", 1, 2).scale(z ** -1)
            - local_spin("z", 1, 2).scale(c) - eye4.scale(const))
    assert b0 == want

    # head with label 2: bare hop
    b0 = pauli_generators(CoidealSpec(Family("D2", 2), 2, 1), params)[0]
    assert b0 == local_spin("+", 1, 2).scale(z) + local_spin("-", 1, 2).scale(z ** -1)

    # tail with label 1: sx plus corrections with the opposite sz sign
    bn = pauli_generators(CoidealSpec(Family("D2", 2), 1, 1), params)[2]
    want = (local_spin("+", 2, 2) + local_spin("-", 2, 2)
            + local_spin("z", 2, 2).scale(c) - eye4.scale(const))
    assert bn == want


def test_pair_node_displays():
    params = PARAMS
    q, z = params.q, params.z
    g = gamma(params)
    eye8 = Operator.identity(8)
    sp = [None] + [local_spin("+", s, 3) for s in (1, 2, 3)]
    sm = [None] + [local_spin("-", s, 3) for s in (1, 2, 3)]
    sz = [None] + [local_spin("z", s, 3) for s in (1, 2, 3)]

    b0 = pauli_generators(CoidealSpec(Family("B1", 3), 2, 1), params)[0]
    want = ((sp[1] @ sp[2]).scale(z ** 2) + (sm[1] @ sm[2]).scale(z ** -2)
            - (sz[1] @ sz[2]).scale((q + q ** -1) / 4)
            - (sz[1] + sz[2]).scale((q - q ** -1) / 4)
            + eye8.scale(g))
    assert b0 == want

    bn = pauli_generators(CoidealSpec(Family("BT1", 3), 1, 2), params)[3]
    want = (sp[2] @ sp[3] + sm[2] @ sm[3]
            - (sz[2] @ sz[3]).scale((q + q ** -1) / 4)
            + (sz[2] + sz[3]).scale((q - q ** -1) / 4)
            + eye8.scale(g))
    assert bn == want


def test_onsager_relations_hold():
    cases = [
        (CoidealSpec(Family("A1", 3)), sample_params(0)),
        (CoidealSpec(Family("A1", 3), variant=True), sample_params(0)),
        (CoidealSpec(Family("D2", 2), 2, 1), sample_params(1)),
        (CoidealSpec(Family("B1", 3), 2, 1), sample_params(2)),
        (CoidealSpec(Family("D1", 3), 2, 2), sample_params(3)),
    ]
    for spec, params in cases:
        bs = onsager_generators(spec, params)
        rep = check_onsager_relations(bs, spec.fam.cartan, params)
        assert rep.passed, (spec, rep.failures())


def test_onsager_negative_control_zz_sign():
    # flipping the pair-node zz coefficient must break the quartic relation
    params = sample_params(2)
    spec = CoidealSpec(Family("B1", 3), 2, 1)
    bs = list(pauli_generators(spec, params))
    qq = params.q + params.q ** -1
    zz = local_spin("z", 1, 3) @ local_spin("z", 2, 3)
    bs[0] = bs[0] + zz.scale(qq / 2)
    rep = check_onsager_relations(bs, spec.fam.cartan, params)
    assert not rep.passed
    assert any("b0" in c.name and "b2" in c.name for c in rep.failures())


def test_hamiltonian_kappa_guards():
    with pytest.raises(SpecError):
        hamiltonian_kappa(CoidealSpec(Family("D2", 2), 2, 1), PARAMS)
    with pytest.raises(SpecError):
        hamiltonian_kappa(CoidealSpec(Family("A1", 3), variant=True), PARAMS)
    assert hamiltonian_kappa(CoidealSpec(Family("A1", 4)), PARAMS) == (Scalar(1),) * 4
    t, mu = PARAMS.t, PARAMS.mu
    mt = (t + t ** -1) * (-mu)
    assert hamiltonian_kappa(CoidealSpec(Family("D2", 3), 1, 1), PARAMS) == (
        mt / 2, Scalar(1), Scalar(1), mt / 2)
    assert hamiltonian_kappa(CoidealSpec(Family("B1", 4), 2, 1), PARAMS) == (
        Scalar(1), Scalar(1), Scalar(2), Scalar(2), mt)
    assert hamiltonian_kappa(CoidealSpec(Family("D1", 3), 2, 2), PARAMS) == (
        Scalar(1),) * 4


def hamiltonian_cases():
    yield CoidealSpec(Family("A1", 3)), 3
    yield CoidealSpec(Family("D2", 2), 1, 1), 3
    yield CoidealSpec(Family("B1", 3), 2, 1), 6
    yield CoidealSpec(Family("BT1", 3), 1, 2), 6
    yield CoidealSpec(Family("D1", 3), 2, 2), 4


def _trace(op):
    return sum((op.get(i, i) for i in range(op.nrows)), Scalar(0))


def test_hamiltonian_trace_and_sz_cancellation():
    params = sample_params(4)
    g = gamma(params)
    for spec, mult in hamiltonian_cases():
        n = spec.fam.n
        dim = 1 << n
        h = hamiltonian(spec, params)
        assert _trace(h) == g * mult * dim
        # single-site sz contributions cancel across the kappa-weighted sum
        for s in range(1, n + 1):
            assert _trace(h @ local_spin("z", s, n)) == Scalar(0)


def test_hamiltonian_spin_flip_inverts_z():
    for seed in (0, 1):
        params = sample_params(seed)
        inv = params.inverted_z()
        for spec, _ in hamiltonian_cases():
            n = spec.fam.n
            sx = global_flip(n)
            lhs = sx @ hamiltonian(spec, params) @ sx
            assert lhs == hamiltonian(spec, inv)


def test_hamiltonian_hermitian_on_circle():
    for seed in (0, 1):
        params = unit_z_params(seed)
        h = hamiltonian(CoidealSpec(Family("A1", 3)), params)
        assert h == h.dagger()


def test_hamiltonian_not_hermitian_off_circle():
    params = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7))
    h = hamiltonian(CoidealSpec(Family("A1", 3)), params)
    assert h != h.dagger()


def test_sz_term_anti_hermitian_for_imaginary_q():
    # t = (1+i)/2 gives q = -i/2, purely imaginary
    params = make_params(Scalar(1, 1, 2), Scalar(3, 0, 5))
    q = params.q
    assert q.re == 0 and q.im != 0
    dq = q - q ** -1
    assert dq.re == 0
    # the single-site sz coefficient of the cyclic generator, read off by
    # trace pairing, is (q - 1/q)/4 and hence anti-hermitian here
    bs = pauli_generators(CoidealSpec(Family("A1", 3)), params)
    sz1 = local_spin("z", 1, 3)
    coeff = _trace(bs[1] @ sz1) / Scalar(8)
    assert coeff == dq / 4
    lin = (sz1 - local_spin("z", 2, 3)).scale(coeff)
    assert lin.dagger() == -lin


def test_hamiltonian_multi():
    params = PARAMS
    z = params.z
    h_multi = hamiltonian_multi((z, Scalar(1), Scalar(1)), params)
    h_a = hamiltonian(CoidealSpec(Family("A1", 3)), params)
    assert h_multi == h_a
    # a uniform bond parameter is a different model from the single-z chain
    assert hamiltonian_multi((z, z, z), params) != h_a
    zs = (Scalar(2), Scalar(3, 0, 7), Scalar(5, 0, 2))
    sx = global_flip(3)
    lhs = sx @ hamiltonian_multi(zs, params) @ sx
    assert lhs == hamiltonian_multi(tuple(x ** -1 for x in zs), params)
    assert hamiltonian_multi((Fraction(1, 2), 1, 2), params) == hamiltonian_multi(
        (Scalar(1, 0, 2), Scalar(1), Scalar(2)), params)
    with pytest.raises(GenericityError, match="bond parameters must be nonzero"):
        hamiltonian_multi((Scalar(1), Scalar(0), Scalar(1)), params)
    with pytest.raises(RangeError):
        hamiltonian_multi((z, z), params)


def test_tl_relations():
    qq = PARAMS.q + PARAMS.q ** -1
    ts = tl_generators(4, PARAMS)
    assert len(ts) == 3
    assert ts[0] @ ts[0] == ts[0].scale(qq)
    for n, seed in ((3, 0), (4, 1)):
        rep = check_tl_relations(n, sample_params(seed))
        assert rep.passed, rep.failures()
    with pytest.raises(RangeError):
        tl_generators(2, PARAMS)


def test_tl_negative_control(monkeypatch):
    n, params = 3, sample_params(0)
    ts = list(tl_generators(n, params))
    r, c, v = first_entry(ts[0])
    ts[0] = ts[0].copy()
    ts[0].set(r, c, v + Scalar(1, 0, 97))
    monkeypatch.setattr(onsager, "tl_generators", lambda n, params: tuple(ts))
    rep = check_tl_relations(n, params)
    failed = rep.failures()
    assert failed[0].name == "t1 idempotent-type"
    qq = params.q + params.q ** -1
    w = first_entry(ts[0] @ ts[0] - ts[0].scale(qq))
    assert failed[0].detail == f"residual at ({w[0]},{w[1]}): {w[2]}"
    assert "shifted t1 t2 cubic" in [c.name for c in failed]


def test_routes_agree_negative_control(monkeypatch):
    spec = CoidealSpec(Family("D2", 2), 1, 1)
    local_spin_route = onsager.pauli_generators

    def bumped(spec, params):
        bs = list(local_spin_route(spec, params))
        bs[1] = bs[1].copy()
        bs[1].add_to(2, 1, Scalar(1, 0, 97))
        return tuple(bs)

    monkeypatch.setattr(onsager, "pauli_generators", bumped)
    rep = check_routes_agree(spec, onsager_generators(spec, PARAMS), PARAMS)
    assert [c.name for c in rep.failures()] == ["b1 embedding vs local-spin"]
    assert rep.failures()[0].detail == "residual at (2,1): -1/97+0/1*i"
