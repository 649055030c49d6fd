"""Acceptance gate: ten end-to-end certificates for the whole package.

Each criterion is one test that prints a single summary line (visible under
``pytest -s``) after its exact assertions pass, including the stated runtime
budget where one applies.  Two sub-claims that exact computation refutes are
reported as REFUTED lines by their criterion and are additionally pinned as
strict expected failures, so a future behavior change surfaces loudly; the
structural account lives in the project notes.
"""

import random
import time
from fractions import Fraction

import pytest

from onsk.field import ONE, Scalar, make_params, sample_params
from onsk.kmatrix import (
    build_kkk,
    build_ktr,
    build_ktr_multi,
    check_commutativity,
    check_intertwining,
    check_kh_commute,
    check_unitarity,
    gauge_tilde,
    kmatrix_for,
    solve_intertwiner,
    solve_intertwiner_space,
    vee,
)
from onsk.linalg import first_entry, rank_rows
from onsk.onsager import (
    CoidealSpec,
    check_onsager_relations,
    check_routes_agree,
    check_tl_relations,
    hamiltonian_multi,
    onsager_generators,
)
from onsk.poch import poch
from onsk.qboson import QBosonEngine, boundary_contract, boundary_contract_oracle
from onsk.sp4 import check_annihilation, check_boundary_series, check_lemma_identities
from onsk.spectra import spectrum_family, spectrum_suite, verify_tr_middle
from onsk.spinrep import Family, check_defining_relations, generators

from points import contracting_params

PARAMS = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7))

NINE_BOUNDARY = (("D2", 1, 1), ("D2", 1, 2), ("D2", 2, 1), ("D2", 2, 2),
                 ("B1", 2, 1), ("B1", 2, 2), ("BT1", 1, 2), ("BT1", 2, 2),
                 ("D1", 2, 2))

FAMILY_SIZES = (("A1", (3, 4, 5)), ("D2", (2, 3, 4)), ("B1", (3, 4, 5)),
                ("BT1", (3, 4, 5)), ("D1", (3, 4, 5)))


def seeds(k=3):
    return [sample_params(i) for i in range(k)]


def _done(idx, name, start, budget=None, notes=()):
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {idx} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {idx:02d} {name}: PASS ({elapsed:.2f}s)")
    for note in notes:
        print(f"              {note}")


def test_01_golden_entry_rows():
    start = time.perf_counter()
    one = ONE
    for prm in seeds():
        q, z = prm.q, prm.z
        op = build_ktr(3, z, prm).operator
        den = one - q ** 3 * z
        assert op.get(4, 6) == -q * (one - q ** 2) * z / den
        assert op.get(2, 6) == -q ** 2 * (one - q ** 2) * z / den
        assert op.get(1, 6) == q ** 2 * (one - q * z) / den
        assert op.get(4, 5) == -q ** 2 * (one - q ** 2) * z / den
        assert op.get(2, 5) == q ** 2 * (one - q * z) / den
        assert op.get(1, 5) == -q * (one - q ** 2) / den
        assert op.get(4, 3) == q ** 2 * (one - q * z) / den
        assert op.get(2, 3) == -q * (one - q ** 2) / den
        assert op.get(1, 3) == -q ** 2 * (one - q ** 2) / den

        op = build_kkk(1, 1, 2, z, prm).operator
        d = poch(-q * z, q, 2)
        assert op.get(0, 0) == poch(-q, q, 2) * z ** 2 / d
        assert op.get(2, 0) == (one + q) * (one - z) * z / d
        assert op.get(1, 0) == q * (one + q) * (one - z) * z / d
        assert op.get(3, 0) == poch(z, q, 2) / d

        op = build_kkk(1, 2, 2, z, prm).operator
        d = poch(-q * z ** 2, q ** 2, 2)
        assert op.get(0, 0) == (one + q) * z ** 2 * (
            one + q ** 2 - q ** 2 * z ** 2 + q ** 3 * z ** 2) / d
        assert op.get(2, 0) == (one + q) * (one - z ** 2) * z / d
        assert op.get(1, 0) == q * (one + q) * (one - z ** 2) * z / d
        assert op.get(3, 0) == poch(z ** 2, q ** 2, 2) / d

        op = build_kkk(2, 1, 2, z, prm).operator
        d = poch(-q * z ** 2, q ** 2, 2)
        assert op.get(0, 0) == (one + q) * z ** 2 * (
            one - q + q * z ** 2 + q ** 3 * z ** 2) / d
        assert op.get(2, 0) == q * (one + q) * (one - z ** 2) * z ** 2 / d
        assert op.get(1, 0) == q ** 2 * (one + q) * (one - z ** 2) * z ** 2 / d
        assert op.get(3, 0) == poch(z ** 2, q ** 2, 2) / d

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
    _done(1, "golden entry rows, three seeds", start, budget=1.0)


def test_02_defining_relations_all_families():
    start = time.perf_counter()
    total = 0
    for prm in seeds():
        for tag, sizes in FAMILY_SIZES:
            for n in sizes:
                fam = Family(tag, n)
                rep = check_defining_relations(fam, generators(fam, prm), prm)
                assert rep.passed, (tag, n, rep.failures())
                total += len(rep.checks)
    _done(2, f"defining relations, {total} checks", start, budget=30.0)


def test_03_coideal_relations_and_routes():
    start = time.perf_counter()
    specs = [CoidealSpec(Family("A1", 3))]
    specs += [CoidealSpec(Family(tag, 3), k, kp)
              for tag, k, kp in NINE_BOUNDARY]
    for spec in specs:
        bs = onsager_generators(spec, PARAMS)
        rep = check_routes_agree(spec, bs, PARAMS)
        assert rep.passed, (repr(spec), rep.failures())
        rep = check_onsager_relations(bs, spec.fam.cartan, PARAMS)
        assert rep.passed, (repr(spec), rep.failures())
    _done(3, "coideal relations on ten generator sets", start, budget=60.0)


def test_04_inversion_and_commutativity():
    start = time.perf_counter()
    z = PARAMS.z
    for n in range(1, 6):
        rep = check_unitarity(build_ktr(n, z, PARAMS), build_ktr(n, z.inverse(), PARAMS))
        assert rep.passed, (n, rep.failures())
    w = sample_params(1).z
    for n in range(2, 6):
        rep = check_commutativity(build_ktr(n, z, PARAMS), build_ktr(n, w, PARAMS),
                                  build_kkk(1, 1, n, z, PARAMS), build_kkk(1, 1, n, w, PARAMS))
        assert rep.passed, (n, rep.failures())
    # same-label boundary matrices commute exactly; the honest negative
    # statement is for mixed labels
    a = build_kkk(1, 1, 2, PARAMS.z, PARAMS).operator
    b = build_kkk(1, 2, 2, w, PARAMS).operator
    assert first_entry(a @ b - b @ a) is not None
    _done(4, "inversion relation and commutativity, n <= 5", start, notes=(
        "REFUTED: expected non-commutativity of same-label boundary matrices; "
        "[K_(1,1)(z), K_(1,1)(w)] = 0 exactly (divergence in project notes)",
        "mixed labels do fail to commute: [K_(1,1)(z), K_(1,2)(w)] != 0",
    ))


@pytest.mark.xfail(strict=True, reason="same-label boundary matrices commute "
                   "exactly; the expected negative test is refuted")
def test_04x_expected_boundary_noncommutativity():
    w = sample_params(1).z
    a = build_kkk(1, 1, 2, PARAMS.z, PARAMS).operator
    b = build_kkk(1, 1, 2, w, PARAMS).operator
    assert first_entry(a @ b - b @ a) is not None


def test_05_exchange_relations_and_hamiltonians():
    start = time.perf_counter()
    specs = [CoidealSpec(Family("A1", 3))]
    specs += [CoidealSpec(Family(tag, 3), k, kp)
              for tag, k, kp in NINE_BOUNDARY]
    for spec in specs:
        rep = check_intertwining(spec, kmatrix_for(spec, PARAMS), PARAMS)
        assert rep.passed, (repr(spec), rep.failures())
    recipes = [CoidealSpec(Family("A1", 3)),
               CoidealSpec(Family("D2", 2), 1, 1),
               CoidealSpec(Family("B1", 3), 2, 1),
               CoidealSpec(Family("BT1", 3), 1, 2),
               CoidealSpec(Family("D1", 3), 2, 2)]
    for spec in recipes:
        rep = check_kh_commute(spec, kmatrix_for(spec, PARAMS), PARAMS)
        assert rep.passed, (repr(spec), rep.failures())
    zs = (Scalar(2), Scalar(3), Scalar(5))
    kv = vee(build_ktr_multi(zs, PARAMS), PARAMS)
    h = hamiltonian_multi(zs, PARAMS)
    assert kv @ h == h @ kv
    _done(5, "exchange relations, five Hamiltonian recipes, multi-parameter",
          start)


def test_06_direct_solver():
    start = time.perf_counter()
    unique = [("D2", 1, 1, (2, 3, 4)), ("B1", 2, 1, (3, 4)),
              ("BT1", 1, 2, (3, 4))]
    for tag, k, kp, sizes in unique:
        for n in sizes:
            spec = CoidealSpec(Family(tag, n), k, kp)
            ks = solve_intertwiner(spec, PARAMS)
            kb = build_kkk(k, kp, n, PARAMS.z, PARAMS)
            assert ks.operator == kb.operator, (tag, n)
    # the cyclic family and the both-even boundary keep extra freedom;
    # assert the true dimensions and that the built matrix lies in the space
    def flat(op, dim):
        return {r * dim + c: v for r, c, v in op.entries()}

    space_dims = []
    for n, want in ((3, 6), (4, 7)):
        basis = solve_intertwiner_space(CoidealSpec(Family("A1", n)), PARAMS)
        assert len(basis) == want, (n, len(basis))
        dim = 1 << n
        rows = [flat(b, dim) for b in basis]
        built = flat(build_ktr(n, PARAMS.z, PARAMS).operator, dim)
        assert rank_rows(rows) == want
        assert rank_rows(rows + [built]) == want
        space_dims.append(f"A1 n={n}: {want}")
    for n in (3, 4):
        spec = CoidealSpec(Family("D1", n), 2, 2)
        basis = solve_intertwiner_space(spec, PARAMS)
        assert len(basis) == 2, (n, len(basis))
        dim = 1 << n
        rows = [flat(b, dim) for b in basis]
        built = flat(gauge_tilde(build_kkk(2, 2, n, PARAMS.z, PARAMS), PARAMS), dim)
        assert rank_rows(rows) == 2
        assert rank_rows(rows + [built]) == 2
        space_dims.append(f"D1 (2,2) n={n}: 2")
    _done(6, "direct exchange-relation solver, every family n <= 4", start,
          budget=300.0, notes=(
              "REFUTED: dimension-one expectation for the cyclic and "
              "both-even families; true dimensions " + ", ".join(space_dims)
              + " (built matrix always lies in the solved space)",
              "single-spin boundary families are dimension one and match the "
              "construction entry-wise after pinned normalization",
          ))


@pytest.mark.xfail(strict=True, reason="exchange relations alone do not pin "
                   "the cyclic-family matrix; dimension-one expectation refuted")
def test_06x_expected_solver_uniqueness_everywhere():
    solve_intertwiner(CoidealSpec(Family("A1", 3)), PARAMS)


def test_07_spectral_certificates():
    start = time.perf_counter()
    # literal closed forms on the even middle sector, size 4
    z = Scalar(5, 0, 11)
    q = PARAMS.q
    rep = verify_tr_middle(4, z, PARAMS)
    assert rep.ok
    lam_mid = (q ** 2 - z) / (q ** 2 * z - ONE)
    lam_bot = (q ** 2 - z) * (q ** 4 - z) / ((ONE - q ** 2 * z) * (ONE - q ** 4 * z))
    got = {row.value: row.rank for row in rep.rows}
    assert got == {ONE: 2, lam_mid: 3, lam_bot: 1}
    # certificates are proved at PARAMS.z and a second point w
    w = Scalar(5, 0, 11)
    # boundary certificates exist already at two sites
    for tag in ("k11", "k12"):
        for srep in spectrum_family(tag, 2, PARAMS, w):
            assert srep.ok, repr(srep)
    # full certificate suite: every sector, joint projectors, paired spectra
    for n in (3, 4, 5):
        for srep in spectrum_suite(n, PARAMS, w):
            assert srep.ok, repr(srep)
    _done(7, "spectral certificates, n <= 5", start, budget=300.0)


def test_08_temperley_lieb():
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        rep = check_tl_relations(n, PARAMS)
        assert rep.passed, (n, rep.failures())
    _done(8, "Temperley-Lieb relations, n <= 6", start)


def test_09_boundary_vector_engine():
    start = time.perf_counter()
    rep = check_lemma_identities(PARAMS, 8)
    assert rep.passed, rep.failures()
    assert len(rep.checks) == 12
    assert check_boundary_series(PARAMS, 10).passed
    for r, k in ((1, 1), (1, 2), (2, 2)):
        rep = check_annihilation(r, k, PARAMS, 10)
        assert rep.passed, ((r, k), rep.failures())
    _done(9, "operator dictionary and boundary annihilation", start,
          budget=120.0)


def test_10_engine_vs_series_oracle():
    start = time.perf_counter()
    params = contracting_params(5)
    eng = QBosonEngine(params)
    table = {"+": eng.ap, "-": eng.am, "k": eng.kdiag}
    rng = random.Random("onsk-acceptance:oracle")
    target = Fraction(1, 10 ** 25)
    for bra in (1, 2):
        for ket in (1, 2):
            for _ in range(50):
                letters = [rng.choice("+-k") for _ in range(rng.randint(0, 6))]
                nf = eng.mulseq([eng.marker(params.z)]
                                + [table[c]() for c in letters])
                exact = boundary_contract(eng, nf, bra, ket)
                assert exact.is_real()
                val, bound = boundary_contract_oracle(params, nf, bra, ket)
                assert bound <= target
                assert abs(exact.re - val) <= bound
    _done(10, "engine agrees with the summed-series oracle, 200 contractions",
          start)
