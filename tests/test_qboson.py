import functools
from fractions import Fraction

import pytest

from onsk.field import PoleError, Scalar, make_params
from onsk.poch import poch
from onsk.qboson import (
    NormalForm,
    QBosonEngine,
    TailBoundError,
    _base_22,
    _pb_lower,
    boundary_contract,
    boundary_contract_oracle,
    eliminate_annihilators,
)

from points import contracting_params

Z = Scalar(3, 0, 7)
PARAMS = make_params(Scalar(2, 0, 5), Z)


def word(engine, zarg, letters):
    table = {"+": engine.ap, "-": engine.am, "k": engine.kdiag}
    return engine.mulseq([engine.marker(zarg)] + [table[c]() for c in letters])


def test_commutation_relations():
    eng = QBosonEngine(PARAMS)
    q = PARAMS.q
    am_ap = eng.mul(eng.am(), eng.ap())
    assert am_ap.terms == {(0, 0, 0): Scalar(1), (0, 2, 0): -(q ** 2)}
    k_ap = eng.mul(eng.kdiag(), eng.ap())
    assert k_ap.terms == eng.scale(eng.mul(eng.ap(), eng.kdiag()), q).terms
    k_am = eng.mul(eng.kdiag(), eng.am())
    assert k_am.terms == eng.scale(eng.mul(eng.am(), eng.kdiag()), q ** -1).terms


def test_marker_passage():
    # moving a word left through z^h scales it by z^(am count - ap count)
    eng = QBosonEngine(PARAMS)
    out = eng.mul(eng.ap(), eng.marker(Z))
    assert out.xarg == Z
    assert out.terms == {(1, 0, 0): Z ** -1}
    out = eng.mul(eng.am(), eng.marker(Z))
    assert out.terms == {(0, 0, 1): Z}


def test_trace_values():
    eng = QBosonEngine(PARAMS)
    q = PARAMS.q
    one = Scalar(1)
    assert eng.trace(word(eng, Z, "")) == (one - Z).inverse()
    for m in (1, 2, 5):
        assert eng.trace(word(eng, Z, "k" * m)) == (one - Z * q ** m).inverse()
    # off-weight words have no diagonal part
    assert eng.trace(word(eng, Z, "+")) == Scalar(0)
    assert eng.trace(word(eng, Z, "+k-")) == Z / (one - Z * q) - Z * q ** 2 / (one - Z * q ** 3)


def test_trace_respects_ap_am_relation():
    # ap am = 1 - k^2 holds on the Fock space, so traces must match
    eng = QBosonEngine(PARAMS)
    lhs = eng.trace(word(eng, Z, "+-"))
    rhs = eng.trace(word(eng, Z, "")) - eng.trace(word(eng, Z, "kk"))
    assert lhs == rhs
    # k ap k am k = q^{-1} ap am k^3 = q^{-1} (1 - k^2) k^3
    lhs = eng.trace(word(eng, Z, "k+k-k"))
    rhs = eng.trace(word(eng, Z, "kkk")) - eng.trace(word(eng, Z, "kkkkk"))
    assert lhs == rhs * PARAMS.q ** -1


def test_trace_cyclicity():
    # Tr(z^h W1 W2) = z^(j-i) Tr(z^h W2 W1) with (i, j) the ap/am counts of W2
    eng = QBosonEngine(PARAMS)
    pairs = [("+-", "-k+"), ("k", "+-"), ("+k-", "k-+"), ("++--", "-")]
    for w1, w2 in pairs:
        i2 = w2.count("+")
        j2 = w2.count("-")
        lhs = eng.trace(eng.mul(word(eng, Z, w1), word(eng, Scalar(1), w2)))
        rhs = eng.trace(eng.mul(word(eng, Z, w2), word(eng, Scalar(1), w1)))
        assert lhs == Z ** (j2 - i2) * rhs


def test_trace_pole():
    from onsk.field import PoleError

    eng = QBosonEngine(make_params(Scalar(2, 0, 5), Scalar(1)))
    with pytest.raises(PoleError):
        eng.trace(word(eng, Scalar(1), ""))


def test_eliminate_annihilators_ket1():
    # am acts on the first boundary ket as 1 + q k
    eng = QBosonEngine(PARAMS)
    q = PARAMS.q
    nf = word(eng, Z, "+k-")
    lhs = boundary_contract(eng, nf, 1, 1)
    rhs = (boundary_contract(eng, word(eng, Z, "+k"), 1, 1)
           + q * boundary_contract(eng, word(eng, Z, "+kk"), 1, 1))
    assert lhs == rhs


def test_eliminate_annihilators_ket2():
    # am acts on the second boundary ket as ap
    eng = QBosonEngine(PARAMS)
    for bra in (1, 2):
        lhs = boundary_contract(eng, word(eng, Z, "+-"), bra, 2)
        rhs = boundary_contract(eng, word(eng, Z, "++"), bra, 2)
        assert lhs == rhs


def test_eliminate_validation():
    eng = QBosonEngine(PARAMS)
    with pytest.raises(ValueError):
        eliminate_annihilators(eng, eng.one(), 3)
    with pytest.raises(ValueError):
        boundary_contract(eng, eng.one(), 0, 1)


def test_contract_identity_normalized():
    eng = QBosonEngine(PARAMS)
    for bra in (1, 2):
        for ket in (1, 2):
            assert boundary_contract(eng, word(eng, Z, ""), bra, ket) == Scalar(1)


def test_contract_11_k_powers():
    eng = QBosonEngine(PARAMS)
    q = PARAMS.q
    for m in (1, 2, 3):
        got = boundary_contract(eng, word(eng, Z, "k" * m), 1, 1)
        assert got == poch(Z, q, m) / poch(-q * Z, q, m)


def test_contract_12_golden_two_raises():
    eng = QBosonEngine(PARAMS)
    q = PARAMS.q
    got = boundary_contract(eng, word(eng, Z, "++"), 1, 2)
    num = Z ** 2 * (1 + q) * (1 + q ** 2 - q ** 2 * Z ** 2 + q ** 3 * Z ** 2)
    assert got == num / poch(-q * Z ** 2, q ** 2, 2)


# _base_22(j, m) for j = 0, 2, 4 (rows) and m = 0..5, at a real and a
# complex point; odd j gives zero
BASE_22_PINNED = (
    ((Scalar(2, 0, 5), Scalar(3, 0, 7)), (
        (Scalar(1, 0, 1), Scalar(49, 0, 40), Scalar(25000, 0, 30481),
         Scalar(186696125, 0, 153106568),
         Scalar(299036265625000, 0, 364639745489041),
         Scalar(1395886525700235078125, 0, 1144748114039774760968)),
        (Scalar(5481, 0, 30481), Scalar(33571125, 0, 153106568),
         Scalar(53525390625000, 0, 364639745489041),
         Scalar(249824575469970703125, 0, 1144748114039774760968),
         Scalar(250094264509677886962890625000, 0,
                1703963040626497401208556740081),
         Scalar(66331118214026264391839504241943359375, 0,
                303943902714951481324877431086088779928)),
        (Scalar(12043010839041, 0, 364639745489041),
         Scalar(46102150868203828125, 0, 1144748114039774760968),
         Scalar(45940440517581939697265625000, 0,
                1703963040626497401208556740081),
         Scalar(12183099752024918340146541595458984375, 0,
                303943902714951481324877431086088779928),
         Scalar(83849229574860506604090915061533451080322265625000, 0,
                3110400922245825362573783567290468900061550281233201),
         Scalar(339007123363656443458975657989640239975415170192718505859375, 0,
                8457573830940623231103962285422728014798968542498939265811288)),
    )),
    ((Scalar(1, 1, 1), Scalar(1, 1, 2)), (
        (Scalar(1, 0, 1), Scalar(4, 2, 5), Scalar(0, -1, 2), Scalar(-16, 2, 65),
         Scalar(-8, 51, 410), Scalar(2608, -430, 42601)),
        (Scalar(2, 1, 2), Scalar(-17, -6, 65), Scalar(1, -32, 820),
         Scalar(1023, -136, 213005), Scalar(-319, 2008, 3307060),
         Scalar(-2670377, 441624, 35736317461)),
        (Scalar(819, 442, 820), Scalar(2182, 751, 32770),
         Scalar(544, -16383, 6614120), Scalar(-2094968, 279551, 27489474970),
         Scalar(-33998328, 213839821, 88773217234760),
         Scalar(2134206632, -353019649, 28796681973248410)),
    )),
)


def test_base_22_pinned_values():
    for (t, z), rows in BASE_22_PINNED:
        eng = QBosonEngine(make_params(t, z))
        for j, row in zip((0, 2, 4), rows):
            assert [_base_22(eng, z, j, m) for m in range(6)] == list(row), (t, z, j)
        assert _base_22(eng, z, 3, 2) == Scalar(0)


def test_base_22_pole():
    # at z = 1 the odd-m denominator (z^2; q^4) vanishes; even m stays finite
    eng = QBosonEngine(make_params(Scalar(2, 0, 5), Scalar(1)))
    for m in (1, 3):
        with pytest.raises(PoleError):
            _base_22(eng, Scalar(1), 2, m)
    assert _base_22(eng, Scalar(1), 2, 0) == Scalar(1)
    assert _base_22(eng, Scalar(1), 2, 2) == Scalar(0)


WORDS = ["k", "kk", "+k", "++", "+-", "+k-", "++kk", "+kk-", "kkk", "++k"]


def test_shared_engine_contractions_match_fresh_engines():
    # one engine keeps its boundary bases across calls; every value must be
    # the one a fresh engine computes, whatever the labels and the marker
    shared = QBosonEngine(PARAMS)
    for zarg in (Z, Z.inverse()):
        for bra in (1, 2):
            for ket in (1, 2):
                for letters in WORDS:
                    got = boundary_contract(shared, word(shared, zarg, letters), bra, ket)
                    fresh = QBosonEngine(PARAMS)
                    want = boundary_contract(fresh, word(fresh, zarg, letters), bra, ket)
                    assert got == want, (zarg, bra, ket, letters)


def test_oracle_agrees_with_closed_forms():
    for seed in (1, 2):
        params = contracting_params(seed)
        eng = QBosonEngine(params)
        z = params.z
        for bra in (1, 2):
            for ket in (1, 2):
                for letters in WORDS:
                    nf = word(eng, z, letters)
                    exact = boundary_contract(eng, nf, bra, ket)
                    assert exact.is_real()
                    val, bound = boundary_contract_oracle(params, nf, bra, ket)
                    assert bound <= Fraction(1, 10 ** 25)
                    assert abs(exact.re - val) <= bound


def test_oracle_rejects_bad_regimes():
    eng = QBosonEngine(PARAMS)
    nf = word(eng, Z, "k")
    imag_t = make_params(Scalar(0, 2, 1), Z)
    with pytest.raises(TailBoundError):
        boundary_contract_oracle(imag_t, nf, 1, 1)
    big_z = make_params(Scalar(2, 0, 5), Scalar(2))
    with pytest.raises(TailBoundError):
        boundary_contract_oracle(big_z, word(QBosonEngine(big_z), Scalar(2), "k"), 1, 1)


# Each Fock component is formed from its own product, in Fraction
# arithmetic; the cache only spares repeats across words and cutoffs.


@functools.cache
def ket_comp(q, kind, v):
    """eta_kind component of |v>: 1/(b; b)_(v/kind), b = q^(kind^2); 0 off
    multiples of kind."""
    if v % kind:
        return Fraction(0)
    base = q ** (kind * kind)
    out = Fraction(1)
    cur = base
    for _ in range(v // kind):
        out *= 1 - cur
        cur *= base
    return 1 / out


@functools.cache
def bra_comp(q, kind, v):
    """eta_kind component of <v| times (q^2; q^2)_v."""
    out = ket_comp(q, kind, v)
    q2 = q * q
    cur = q2
    for _ in range(v):
        out *= 1 - cur
        cur *= q2
    return out


def _reference_oracle(params, nf, bra, ket, target=Fraction(1, 10 ** 25)):
    # the summed-series oracle in Fraction arithmetic, with every Fock
    # component formed per v; also returns the cutoff reached
    t = params.t.re
    zq = nf.xarg.re
    q = -t * t
    pb = _pb_lower(t * t)
    terms = [(i, m, j, c.re) for (i, m, j), c in nf.terms.items()]
    parity = None
    if bra == 2 and ket == 2:
        pars = {(i + m + j) % 2 for i, m, j, _ in terms}
        assert len(pars) == 1
        parity = pars.pop()

    def word_sum(wterms, cutoff):
        total = Fraction(0)
        for i, m, j, c in wterms:
            for v in range(j, cutoff + 1):
                av = ket_comp(q, ket, v)
                if av == 0:
                    continue
                w = v - j + i
                bw = bra_comp(q, bra, w)
                if bw == 0:
                    continue
                prod = Fraction(1)
                for l in range(j):
                    prod *= 1 - q ** (2 * (v - l))
                total += c * av * bw * (zq ** w) * (q ** (m * (v - j))) * prod
        return total

    def word_tail(wterms, cutoff):
        geo = (zq ** (cutoff + 1)) / (1 - zq)
        return sum(abs(c) * (2 ** j) * (zq ** (i - j)) / (pb * pb) * geo for i, m, j, c in wterms)

    unit = [(0, 0, 0, Fraction(1))]
    cutoff = 64
    while True:
        nhat, dhat = word_sum(terms, cutoff), word_sum(unit, cutoff)
        en, ed = word_tail(terms, cutoff), word_tail(unit, cutoff)
        bound = None
        if parity == 1:
            value = nhat * dhat
            bound = en * abs(dhat) + abs(nhat) * ed + en * ed
        else:
            lbd = abs(dhat) - ed
            if lbd > 0:
                value = nhat / dhat
                bound = (en * abs(dhat) + abs(nhat) * ed) / (lbd * abs(dhat))
        if bound is not None and bound <= target:
            return value, bound, cutoff
        cutoff *= 2


def test_oracle_tables_match_per_component_reference():
    # the integer sums are the same exact Fractions as the per-v Fraction
    # components give, so (value, bound) must be identical, not just close;
    # -+k normal-orders to two odd-weight terms (the odd (2,2) convention),
    # ++k climbs two modes with a k power (i=2, m=1, j=0), and t=1/3,
    # z=1/2 needs one doubling of the cutoff
    points = ((contracting_params(1), ("-+k", "+-", "++k")),
              (make_params(Scalar(1, 0, 3), Scalar(1, 0, 2)), ("k",)))
    cutoffs = set()
    for params, words in points:
        eng = QBosonEngine(params)
        for bra in (1, 2):
            for ket in (1, 2):
                for letters in words:
                    nf = word(eng, params.z, letters)
                    value, bound, cutoff = _reference_oracle(params, nf, bra, ket)
                    assert boundary_contract_oracle(params, nf, bra, ket) == (value, bound)
                    cutoffs.add(cutoff)
    assert cutoffs == {64, 128}


def test_oracle_negative_control():
    # one normal-form coefficient bumped by 1/97: the certified interval
    # around the oracle value must exclude the exact contraction
    params = contracting_params(1)
    eng = QBosonEngine(params)
    for bra, ket in ((1, 1), (1, 2), (2, 1), (2, 2)):
        nf = word(eng, params.z, "-+k")
        exact = boundary_contract(eng, nf, bra, ket)
        key = min(nf.terms)
        bumped = NormalForm(dict(nf.terms), nf.xarg)
        bumped.terms[key] = bumped.terms[key] + Scalar(1, 0, 97)
        value, bound = boundary_contract_oracle(params, bumped, bra, ket)
        assert abs(exact.re - value) > bound
