import random

import pytest

from onsk.field import Scalar, make_params, sample_params
from onsk.linalg import Operator
from onsk.onsager import CoidealSpec, check_onsager_relations, onsager_generators
from onsk.report import Report
from onsk.spinrep import (
    _MIN_N,
    FAMILIES,
    Family,
    GeneratorSet,
    RangeError,
    add_cartan_relations,
    check_defining_relations,
    generators,
    global_flip,
    local_spin,
    serre_residual,
)

ONE = Scalar(1)


def test_family_aliases_and_bounds():
    assert Family("a", 3).tag == "A1"
    assert Family("bt1", 4).tag == "BT1"
    assert Family("D2", 2).n == 2
    with pytest.raises(RangeError):
        Family("A1", 2)
    with pytest.raises(RangeError):
        Family("D2", 1)
    with pytest.raises(RangeError):
        Family("B1", 2)
    with pytest.raises(RangeError):
        Family("E8", 3)


def test_cartan_a1():
    assert Family("A1", 3).cartan == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    c4 = Family("A1", 4).cartan
    assert c4[0] == (2, -1, 0, -1)
    assert c4[2] == (0, -1, 2, -1)


def test_cartan_d2():
    assert Family("D2", 2).cartan == ((2, -2, 0), (-1, 2, -1), (0, -2, 2))


def test_cartan_b1():
    assert Family("B1", 3).cartan == (
        (2, 0, -1, 0),
        (0, 2, -1, 0),
        (-1, -1, 2, -1),
        (0, 0, -2, 2),
    )


def test_cartan_bt1():
    assert Family("BT1", 3).cartan == (
        (2, -2, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )


def test_cartan_d1_small_cycle():
    # n = 3 closes into a 4-cycle; n = 4 has a degree-4 middle node
    assert Family("D1", 3).cartan == (
        (2, 0, -1, -1),
        (0, 2, -1, -1),
        (-1, -1, 2, 0),
        (-1, -1, 0, 2),
    )
    c = Family("D1", 4).cartan
    assert c[2] == (-1, -1, 2, -1, -1)
    assert sum(1 for x in c[2] if x == -1) == 4


def test_cartan_symmetrizable():
    # pexp symmetrizes the Cartan matrix: pexp[i] a[i][j] = pexp[j] a[j][i]
    for tag, n in (("A1", 4), ("D2", 3), ("B1", 3), ("BT1", 3), ("D1", 4)):
        fam = Family(tag, n)
        m = fam.nprime + 1
        for i in range(m):
            for j in range(m):
                assert fam.pexp[i] * fam.cartan[i][j] == fam.pexp[j] * fam.cartan[j][i]


def test_pexp():
    assert Family("A1", 3).pexp == (2, 2, 2)
    assert Family("D2", 2).pexp == (1, 2, 1)
    assert Family("B1", 3).pexp == (2, 2, 2, 1)
    assert Family("BT1", 3).pexp == (1, 2, 2, 2)
    assert Family("D1", 3).pexp == (2, 2, 2, 2)


def test_local_spin_actions():
    # state |10> is integer 1: bit i-1 holds the spin at site i
    sz1 = local_spin("z", 1, 2)
    assert sz1.apply({1: ONE}) == {1: ONE}
    assert sz1.apply({2: ONE}) == {2: -ONE}
    assert local_spin("+", 2, 2).apply({3: ONE}) == {}
    assert local_spin("+", 2, 2).apply({1: ONE}) == {3: ONE}
    assert local_spin("-", 1, 2).apply({1: ONE}) == {0: ONE}
    assert global_flip(2).apply({1: ONE}) == {2: ONE}
    with pytest.raises(RangeError):
        local_spin("z", 0, 2)
    with pytest.raises(RangeError):
        local_spin("z", 3, 2)
    for kind in ("w", "x", "y"):
        with pytest.raises(RangeError):
            local_spin(kind, 1, 2)


def test_pauli_algebra():
    i = Scalar(0, 1, 1)
    for site, n in ((1, 2), (2, 3)):
        z = local_spin("z", site, n)
        sp = local_spin("+", site, n)
        sm = local_spin("-", site, n)
        x = sp + sm
        y = (sp - sm).scale(-i)
        dim = 1 << n
        eye = Operator.identity(dim)
        assert x @ x == eye and y @ y == eye and z @ z == eye
        assert x @ y == z.scale(i)
        assert sp == (x + y.scale(i)).scale(Scalar(1, 0, 2))
        assert sm == (x - y.scale(i)).scale(Scalar(1, 0, 2))
        assert sp @ sm - sm @ sp == z


def test_generator_examples():
    params = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7))
    z, p = params.z, params.p

    a1 = generators(Family("A1", 3), params)
    assert a1.e[1].apply({1: ONE}) == {2: ONE}          # e1 |100> = |010>
    assert a1.e[0].apply({4: ONE}) == {1: z}            # e0 |001> = z |100>
    assert a1.kplus[0].get(1, 1) == p ** 2              # k0 on |100>
    assert a1.kplus[2].get(4, 4) == p ** 2              # k2 on |001>

    d2 = generators(Family("D2", 2), params)
    assert d2.kplus[0].get(2, 2) == p ** -1             # k0 |01> = p^{-1} |01>
    assert d2.e[0].apply({0: ONE}) == {1: z}            # e0 |00> = z |10>
    assert d2.e[2].apply({2: ONE}) == {0: ONE}          # e2 |01> = |00>
    assert d2.f[2].apply({0: ONE}) == {2: ONE}

    b1 = generators(Family("B1", 3), params)
    assert b1.e[0].apply({0: ONE}) == {3: z ** 2}       # e0 |000> = z^2 |110>
    assert b1.kplus[0].get(0, 0) == p ** -2

    d1 = generators(Family("D1", 3), params)
    assert d1.f[3].apply({0: ONE}) == {6: ONE}          # f3 |000> = |011>
    assert d1.e[3].apply({6: ONE}) == {0: ONE}
    assert d1.kplus[3].get(0, 0) == p ** 2


def test_k_inverses_and_f_transpose():
    params = sample_params(3)
    for tag, n in (("A1", 3), ("D2", 2), ("BT1", 3)):
        fam = Family(tag, n)
        gens = generators(fam, params)
        dim = 1 << n
        eye = Operator.identity(dim)
        for node in range(fam.nprime + 1):
            assert gens.kplus[node] @ gens.kminus[node] == eye
    # f is the transpose of e up to the spectral weight
    a1 = generators(Family("A1", 3), params)
    z = params.z
    assert a1.f[0] == a1.e[0].transpose().scale(z ** -2)
    assert a1.f[1] == a1.e[1].transpose()


def test_defining_relations_all_families():
    for tag in FAMILIES:
        n = 2 if tag == "D2" else 3
        fam = Family(tag, n)
        for seed in (0, 1):
            params = sample_params(seed)
            rep = check_defining_relations(fam, generators(fam, params), params)
            assert rep.passed, rep.failures()


def test_defining_relations_negative_control():
    fam = Family("A1", 3)
    params = sample_params(0)
    gens = generators(fam, params)
    broken = list(gens.e)
    broken[1] = broken[1].scale(Scalar(2))
    bad = GeneratorSet(fam, gens.z, broken, gens.f, gens.kplus, gens.kminus)
    rep = check_defining_relations(fam, bad, params)
    assert not rep.passed
    assert any("e1 f1" in c.name for c in rep.failures())


def test_serre_residual_every_entry_and_negative_control():
    # D2 n=2 has all three off-diagonal Cartan entries:
    # a[0][2] = 0, a[1][0] = -1, a[0][1] = -2
    fam = Family("D2", 2)
    params = sample_params(0)
    p = params.p
    gens = generators(fam, params)
    bs = onsager_generators(CoidealSpec(fam, 1, 1), params)
    pairs = ((0, 2), (1, 0), (0, 1))
    assert [fam.cartan[i][j] for i, j in pairs] == [0, -1, -2]
    # the bump goes into xi: on two sites e0 and f0 square to zero and b0
    # acts on one site, so the quartic vanishes for every xj
    for xs, inhomogeneous in ((gens.e, False), (gens.f, False), (bs, True)):
        for i, j in pairs:
            aij = fam.cartan[i][j]
            assert serre_residual(xs[i], xs[j], aij, p, inhomogeneous).is_zero()
            bumped = xs[i].copy()
            bumped.add_to(0, 0, Scalar(1, 0, 97))
            assert not serre_residual(bumped, xs[j], aij, p, inhomogeneous).is_zero()
    # the coideal generators need the lower-order terms
    for i, j in pairs[1:]:
        assert not serre_residual(bs[i], bs[j], fam.cartan[i][j], p).is_zero()
    for aij in (-3, 1, 2):
        with pytest.raises(ValueError):
            serre_residual(gens.e[0], gens.e[1], aij, p)


def test_every_cartan_entry_has_a_relation():
    # serre_residual knows the entries 0, -1 and -2, and no family needs another
    for tag in FAMILIES:
        for n in range(_MIN_N[tag], 9):
            cartan = Family(tag, n).cartan
            off = {a for i, row in enumerate(cartan) for j, a in enumerate(row) if i != j}
            assert off <= {0, -1, -2}, (tag, n, off)


def _expanded_serre(xi, xj, aij, p, inhomogeneous):
    """The relation expanded into powers of xi, one Operator product per factor."""
    if aij == 0:
        return xi @ xj - xj @ xi
    x2 = xi @ xi
    if aij == -1:
        diff = x2 @ xj - (xi @ xj @ xi).scale(p ** 2 + p ** -2) + xj @ x2
        return diff - xj if inhomogeneous else diff
    c4 = p ** 2 + ONE + p ** -2
    x3 = x2 @ xi
    xij = xi @ xj
    diff = x3 @ xj - (x2 @ xj @ xi).scale(c4) + (xij @ x2).scale(c4) - xj @ x3
    if inhomogeneous:
        diff = diff - (xij - xj @ xi).scale((p + p ** -1) ** 2)
    return diff


def _triples(op):
    return {r: {c: (x.a, x.b, x.d) for c, x in row.items()} for r, row in op.rows.items()}


def _assert_matches_expanded(xs, p):
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            if i == j:
                continue
            for aij in (0, -1, -2):
                for inhomogeneous in (False, True):
                    got = serre_residual(xi, xj, aij, p, inhomogeneous)
                    want = _expanded_serre(xi, xj, aij, p, inhomogeneous)
                    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
                    assert _triples(got) == _triples(want), (i, j, aij, inhomogeneous)


@pytest.mark.parametrize("tag", FAMILIES)
def test_serre_residual_matches_expanded_polynomial(tag):
    fam = Family(tag, _MIN_N[tag])
    params = sample_params(1)
    gens = generators(fam, params)
    spec = CoidealSpec(fam) if tag == "A1" else CoidealSpec(fam, fam.r, fam.rp)
    for xs in (gens.e, gens.f, onsager_generators(spec, params)):
        _assert_matches_expanded(xs, params.p)


def _random_operator(rng, dim):
    op = Operator(dim, dim)
    for r in range(dim):
        for c in rng.sample(range(dim), rng.randint(0, min(dim, 3))):
            op.set(r, c, Scalar(rng.randint(-9, 9), rng.randint(-9, 9),
                                rng.choice((1, 2, 3, 5, 7, 49))))
    return op


@pytest.mark.parametrize("seed", range(8))
def test_serre_residual_matches_expanded_on_random_operators(seed):
    rng = random.Random(f"serre:{seed}")
    dim = rng.randint(1, 6)
    xs = [_random_operator(rng, dim) for _ in range(3)]
    p = Scalar(rng.randint(1, 9), rng.randint(-3, 3), rng.randint(2, 11))
    _assert_matches_expanded(xs, p)


@pytest.mark.parametrize("seed", range(4))
def test_cartan_rows_match_serre_residual_per_pair(seed):
    # a commuting pair's (j, i) row reuses the negated (i, j) residual; on
    # random operators every row, witness included, equals its own residual
    rng = random.Random(f"cartan:{seed}")
    cartan = Family("D2", 3).cartan
    assert 0 in cartan[0] and -1 in cartan[1] and -2 in cartan[0]
    dim = rng.randint(2, 5)
    xs = [_random_operator(rng, dim) for _ in cartan]
    p = Scalar(rng.randint(1, 9), rng.randint(-3, 3), rng.randint(2, 11))
    for inhomogeneous in (False, True):
        got = Report()
        add_cartan_relations(got, "x", xs, cartan, p, inhomogeneous)
        want = Report()
        for i, xi in enumerate(xs):
            for j, xj in enumerate(xs):
                if i != j:
                    want.add_zero("", serre_residual(xi, xj, cartan[i][j], p, inhomogeneous))
        assert [(c.status, c.detail) for c in got.checks] == \
            [(c.status, c.detail) for c in want.checks]
        assert any(c.detail for c in got.checks)


def _bumped_at(xs, k, r, c):
    out = list(xs)
    out[k] = out[k].copy()
    out[k].add_to(r, c, Scalar(1, 0, 97))
    return out


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND line on the D2 quartic checks: e0^2 = 0 and b0 acts on one "
    "site, so these rows pass for every second generator (ROADMAP item 5)"))
@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("row", ("e0 e1 quartic Serre", "f0 f1 quartic Serre",
                                 "b0 b1 quartic"))
def test_d2_quartic_sees_bumped_second_generator(row, n):
    # each nonzero entry of x1, moved by 1/97 on its own, must fail the row
    fam = Family("D2", n)
    params = sample_params(0)
    gens = generators(fam, params)
    bs = onsager_generators(CoidealSpec(fam, 1, 1), params)
    sym = row[0]
    missed = []
    for r, c, _ in {"e": gens.e, "f": gens.f, "b": bs}[sym][1].entries():
        xs = {"e": gens.e, "f": gens.f, "b": bs}
        xs[sym] = _bumped_at(xs[sym], 1, r, c)
        if sym == "b":
            rep = check_onsager_relations(xs["b"], fam.cartan, params)
        else:
            bad = GeneratorSet(fam, gens.z, xs["e"], xs["f"], gens.kplus, gens.kminus)
            rep = check_defining_relations(fam, bad, params)
        if row not in [ch.name for ch in rep.failures()]:
            missed.append((r, c))
    assert not missed
