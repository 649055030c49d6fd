import itertools
import random

import pytest

from onsk import sp4
from onsk.field import ONE, ZERO, Scalar, make_params, parse_scalar, sample_params
from onsk.poch import poch
from onsk.sp4 import (
    DerivationGap,
    TensorOp4,
    TruncationMarginError,
    _LEMMA,
    _PI_TABLE,
    _SLOT_LETTERS,
    _SLOT_OPS,
    _boundary_ops,
    _derive_terms,
    _kills_vector,
    _pure_sum_zero,
    _series,
    _Slot,
    _slot_items,
    _slots,
    check_annihilation,
    check_boundary_series,
    check_lemma_identities,
    delta,
    delta_op,
    ops_agree,
)
from onsk.spinrep import RangeError
from test_qboson import ket_comp

PARAMS = make_params(Scalar(2, 0, 5), Scalar(3, 0, 7))
Q = PARAMS.q


def _apply_basis(op, modes, params, cutoff):
    """Image of the basis vector |m1..m4> under op, as {target modes: coefficient}."""
    slots = _slots(params)
    out: dict = {}
    for coeff, words in op.terms:
        val = coeff
        tgt = []
        for slot, word, m in zip(slots, words, modes):
            mode, c = slot.act(word, m, cutoff)
            val = val * c
            if val.is_zero():
                break
            tgt.append(mode)
        else:
            key = tuple(tgt)
            out[key] = out.get(key, ZERO) + val
    return {key: val for key, val in out.items() if not val.is_zero()}


def _component(factors, modes):
    """Component |m1..m4> of the product of four (slot model, series) factors."""
    val = ONE
    for (_, vec), m in zip(factors, modes):
        val = val * vec[m]
    return val


def test_letter_actions():
    fq2, fq = _slots(PARAMS)[:2]
    assert fq.act(("a+",), 2) == (3, ONE)
    assert fq.act(("a-",), 3) == (2, ONE - Q ** 6)
    assert fq.act(("a-",), 0)[1] == ZERO
    assert fq.act(("k",), 2) == (2, Q ** 2)
    assert fq2.act(("A+",), 2) == (3, ONE)
    assert fq2.act(("A-",), 3) == (2, ONE - Q ** 12)
    assert fq2.act(("K",), 2) == (2, Q ** 4)
    # words act rightmost letter first
    assert fq.act(("k", "a+"), 2) == (3, Q ** 3)
    assert fq2.act(("A-", "K"), 2) == (1, Q ** 4 * (ONE - Q ** 8))
    assert fq.act(("a-", "a+"), 6) == (6, ONE - Q ** 14)
    with pytest.raises(TruncationMarginError):
        fq.act(("a-", "a+"), 6, 6)
    with pytest.raises(RangeError):
        fq.act(("A+",), 1)
    with pytest.raises(RangeError):
        fq2.act(("k",), 1)


def test_word_images():
    fq = _slots(PARAMS)[1]
    vec = (ONE, Scalar(2), ZERO, Scalar(3))
    assert fq.image(("a+",), vec) == (ZERO, ONE, Scalar(2), ZERO)
    assert fq.image(("a-",), vec) == ((ONE - Q ** 2) * 2, ZERO, (ONE - Q ** 6) * 3, ZERO)
    assert fq.image(("k",), vec) == (ONE, Q * 2, ZERO, Q ** 3 * 3)


def test_boundary_vectors():
    fq2, fq = _slots(PARAMS)[:2]
    eta1 = fq.boundary(1, 7)
    eta2 = fq.boundary(2, 7)
    assert len(eta1) == len(eta2) == 8
    assert eta1[0] == ONE
    assert eta1[3] == poch(Q, Q, 3).inverse()
    assert eta2[4] == poch(Q ** 4, Q ** 4, 2).inverse()
    assert all(eta2[m] == ZERO for m in (1, 3, 5, 7))
    chi1 = fq2.boundary(1, 7)
    chi2 = fq2.boundary(2, 7)
    assert chi1[2] == poch(Q ** 2, Q ** 2, 2).inverse()
    assert chi2[6] == poch(Q ** 8, Q ** 8, 3).inverse()
    assert chi2[3] == ZERO
    with pytest.raises(RangeError):
        fq.boundary(3, 7)


def test_boundary_vector_recurrences():
    # the raising characterizations reduce to one-step component recurrences
    fq2, fq = _slots(PARAMS)[:2]
    eta1, chi1 = fq.boundary(1, 9), fq2.boundary(1, 9)
    eta2, chi2 = fq.boundary(2, 9), fq2.boundary(2, 9)
    for m in range(1, 10):
        assert eta1[m - 1] == (ONE - Q ** m) * eta1[m]
        assert chi1[m - 1] == (ONE - Q ** (2 * m)) * chi1[m]
    for m in range(2, 10, 2):
        assert eta2[m - 2] == (ONE - Q ** (2 * m)) * eta2[m]
        assert chi2[m - 2] == (ONE - Q ** (4 * m)) * chi2[m]


def test_boundary_series_match_oracle_tables():
    # the slot model's series against the independent Fraction components
    # of the q-boson oracle's reference; the q2 base is that reference at q^2
    fq2, fq = _slots(PARAMS)[:2]
    q = Q.re
    for slot, oracle_q in ((fq, q), (fq2, q * q)):
        for kind in (1, 2):
            ket = [ket_comp(oracle_q, kind, v) for v in range(13)]
            assert slot.boundary(kind, 12) == tuple(Scalar.from_fraction(x) for x in ket)


def test_pi_matrix_entries():
    # the two 4x4 letter matrices that _delta_t reads: entry (i, j) is
    # sign * q^power times a word, and a missing entry is zero
    assert _PI_TABLE[1][(1, 2)] == (1, 0, ("k",))
    assert _PI_TABLE[1][(2, 1)] == (-1, 1, ("k",))
    assert _PI_TABLE[1][(3, 4)] == (-1, 0, ("k",))
    assert _PI_TABLE[1][(4, 3)] == (1, 1, ("k",))
    assert (1, 3) not in _PI_TABLE[1]
    assert _PI_TABLE[2][(1, 1)] == (1, 0, ())
    assert _PI_TABLE[2][(3, 2)] == (-1, 2, ("K",))
    assert _PI_TABLE[2][(2, 3)] == (1, 0, ("K",))
    assert (4, 1) not in _PI_TABLE[2]
    # matrix 1 acts in the F_q slots, matrix 2 in the F_{q^2} slots, and
    # _delta_t has the powers q^0, q^1 and q^2 at hand
    assert set(_PI_TABLE) == {1, 2}
    for which, letters in ((1, _SLOT_LETTERS[1]), (2, _SLOT_LETTERS[0])):
        for (i, j), (sign, power, word) in _PI_TABLE[which].items():
            assert 1 <= i <= 4 and 1 <= j <= 4
            assert sign in (1, -1) and power in (0, 1, 2)
            assert set(word) <= set(letters)


def test_tensor_word_validation_and_algebra():
    op = TensorOp4.word((("A+",), ("k", "a+"), (), ("a-",))).scale(Q)
    assert op.raise_budget() == (1, 1, 0, 0)
    with pytest.raises(RangeError):
        TensorOp4.word((("k",), (), (), ()))
    with pytest.raises(RangeError):
        TensorOp4.word(((), (), ()))
    two = (op + op).simplified()
    assert len(two.terms) == 1 and two.terms[0][0] == Q + Q
    assert len((op - op).simplified().terms) == 0


def test_apply_basis_values():
    op = TensorOp4.word(((), ("k", "k"), ("K", "K"), ()))
    assert _apply_basis(op, (1, 1, 1, 1), PARAMS, 8) == {(1, 1, 1, 1): Q ** 6}
    rhs = delta([(ONE, ((1, 4), (1, 4))), (-(Q ** -3), ((4, 2), (1, 3)))], PARAMS)
    for modes in ((1, 1, 1, 1), (0, 2, 1, 3), (2, 0, 3, 1)):
        assert _apply_basis(op, modes, PARAMS, 8) == _apply_basis(rhs, modes, PARAMS, 8)


def test_delta_multiplicative_on_box():
    t14 = delta([(ONE, ((1, 4),))], PARAMS)
    t14sq = delta([(ONE, ((1, 4), (1, 4)))], PARAMS)
    assert ops_agree(t14 * t14, t14sq, 8, PARAMS)
    o14 = delta_op([(ONE, ((1, 4),))], PARAMS)
    o14sq = delta_op([(ONE, ((1, 4), (1, 4)))], PARAMS)
    assert ops_agree(o14 * o14, o14sq, 8, PARAMS)


def test_lemma_identities_all_pass():
    rep = check_lemma_identities(PARAMS, 8)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert len(names) == 12
    assert "1*k*K*k == delta(-t14)" in names
    assert "1*k*K*k == delta(q^-4*t41)" in names
    assert "1*kk*KA-*1 == delta(-q^-5*t41*t11 + q^-2*t12*t13)" in names
    assert all(c.detail == "modes <= 5" for c in rep.checks)


def test_lemma_identities_sampled_parameters():
    for seed in (0, 1):
        assert check_lemma_identities(sample_params(seed), 8).passed


def test_lemma_negative_control():
    lhs = TensorOp4.word(((), ("k",), ("K",), ("a+",)))
    rhs = delta([(Q ** -3, ((4, 2),))], PARAMS)
    assert not ops_agree(lhs, rhs, 8, PARAMS)


def test_truncation_margins():
    with pytest.raises(TruncationMarginError):
        check_lemma_identities(PARAMS, 5)
    with pytest.raises(TruncationMarginError):
        check_annihilation(2, 2, PARAMS, 9)


def test_series_helper():
    # eta_k in the F_q slot model, chi_k in the F_{q^2} one, at the cutoff
    series = _series(PARAMS, 6)
    assert list(series) == ["eta1", "eta2", "chi1", "chi2"]
    for name, (slot, vec) in series.items():
        letters = _SLOT_LETTERS[1] if name.startswith("eta") else _SLOT_LETTERS[0]
        assert slot.letters == letters
        assert vec == slot.boundary(int(name[-1]), 6)
    factors = (series["chi2"], series["eta2"]) * 2
    chi2, eta2 = series["chi2"][1], series["eta2"][1]
    assert _component(factors, (2, 4, 0, 6)) == chi2[2] * eta2[4] * chi2[0] * eta2[6]
    assert _component(factors, (1, 2, 2, 2)) == ZERO


def test_annihilation_reports():
    for (r, k) in ((1, 1), (1, 2), (2, 2)):
        rep = check_annihilation(r, k, PARAMS, 10)
        assert rep.passed
        assert len(rep.checks) == 4
        assert all(f"Xi({r},{k})" in c.name and "T = " in c.detail for c in rep.checks)
    rep = check_boundary_series(PARAMS, 10)
    assert rep.passed
    single = [c for c in rep.checks if "annihilates eta" in c.name
              or "annihilates chi" in c.name]
    assert len(single) == 8
    rep = check_annihilation(1, 1, PARAMS, 10)
    slot2 = next(c for c in rep.checks if c.name.startswith("1*k(a+ - a- + (1+q)*k)"))
    assert "indirect entry" in slot2.detail
    with pytest.raises(RangeError):
        check_annihilation(2, 1, PARAMS, 10)


def test_annihilation_negative_control():
    # dropping the K completion must break the identity on Xi(1,2)
    series = _series(PARAMS, 10)
    _, terms = _boundary_ops(2, 2)[0]
    poly, _, _ = _derive_terms(terms, PARAMS, False)
    assert not _kills_vector(delta_op(poly, PARAMS), (series["chi1"], series["eta2"]) * 2, 7)


def test_lemma_sign_flip_renames_and_fails(monkeypatch):
    # one monomial's sign flipped in one row: exactly that row's printed rhs
    # changes, to the flipped polynomial, and exactly that row fails
    base = [c.name for c in check_lemma_identities(PARAMS, 8).checks]
    assert "A+*kk*K*1 == delta(-q^-5*t33*t41 - t34*t13)" in base
    for row, (words, monos) in enumerate(_LEMMA):
        for i, (s, e, factors) in enumerate(monos):
            flipped = monos[:i] + ((-s, e, factors),) + monos[i + 1:]
            rows = _LEMMA[:row] + ((words, flipped),) + _LEMMA[row + 1:]
            monkeypatch.setattr(sp4, "_LEMMA", rows)
            rep = check_lemma_identities(PARAMS, 8)
            names = [c.name for c in rep.checks]
            assert [n for n, b in zip(names, base) if n != b] == [names[row]]
            assert [c.ok for c in rep.checks] == [r != row for r in range(12)]
            if (row, i) == (6, 0):
                assert names[row] == "A+*kk*K*1 == delta(q^-5*t33*t41 - t34*t13)"


def test_slot_op_coefficient_renames_and_fails(monkeypatch):
    # (1+q) -> (1+q^2) in the operator that kills eta1: its series row and
    # the two Xi(1,1) rows that place it print the new coefficient, in the
    # name and the T text, and fail; every other row is unchanged and passes
    base_series = check_boundary_series(PARAMS, 10).checks
    base = check_annihilation(1, 1, PARAMS, 10).checks
    up, down, (_, diag) = _SLOT_OPS["kill", "eta1"]
    monkeypatch.setitem(_SLOT_OPS, ("kill", "eta1"), (up, down, (((1, 0), (1, 2)), diag)))
    series = check_boundary_series(PARAMS, 10).checks
    changed = [(b.name, c.name) for b, c in zip(base_series, series) if b.name != c.name]
    assert changed == [("(a+ - a- + (1+q)*k) annihilates eta1",
                        "(a+ - a- + (1+q^2)*k) annihilates eta1")]
    assert [c.name for c in series if not c.ok] == [changed[0][1]]
    rep = check_annihilation(1, 1, PARAMS, 10).checks
    assert [c.name for c in rep] == [
        "(A+ - A- + (1+q^2)*K)*kk*K*1 annihilates Xi(1,1)",
        "1*k(a+ - a- + (1+q^2)*k)*K*1 annihilates Xi(1,1)",
        "1*kk*K(A+ - A- + (1+q^2)*K)*1 annihilates Xi(1,1)",
        "1*k*K*(a+ - a- + (1+q^2)*k) annihilates Xi(1,1)"]
    assert [c.ok for c in rep] == [True, False, True, False]
    assert [(b.name, b.detail) == (c.name, c.detail) for b, c in zip(base, rep)] == [
        True, False, True, False]
    assert "(1+q)" in base[3].detail
    assert rep[3].detail == base[3].detail.replace("(1+q)", "(1+q^2)")
    assert rep[1].detail == base[1].detail.replace("(1+q)*", "(1+q^2)*")


def test_characterization_negative_control(monkeypatch):
    # one component of one boundary series moved by 1/97: exactly the
    # characterization rows of that series fail, the matches rows included
    fields = {"eta1": ("k", 1), "eta2": ("k", 2), "chi1": ("K", 1), "chi2": ("K", 2)}
    names = [c.name for c in check_boundary_series(PARAMS, 10).checks]
    assert len(names) == 10
    boundary = _Slot.boundary
    for series, (diag, kind) in fields.items():
        def bumped(slot, k, cutoff, diag=diag, kind=kind):
            comps = boundary(slot, k, cutoff)
            if slot.letters[2] != diag or k != kind:
                return comps
            return comps[:2] + (comps[2] + Scalar(1, 0, 97),) + comps[3:]

        monkeypatch.setattr(_Slot, "boundary", bumped)
        rep = check_boundary_series(PARAMS, 10)
        failed = {c.name for c in rep.checks if not c.ok}
        assert failed == {n for n in names if n.endswith(series)}, series
        assert any(n.startswith("a- on") for n in failed) == series.startswith("eta")
    monkeypatch.setattr(_Slot, "boundary", boundary)
    assert check_boundary_series(PARAMS, 10).passed


def test_complex_point():
    prm = make_params(parse_scalar("1/2+1/3*i"), parse_scalar("2/7+1/5*i"))
    assert check_lemma_identities(prm, 10).passed
    assert check_boundary_series(prm, 10).passed
    for r, k in ((1, 1), (1, 2), (2, 2)):
        assert check_annihilation(r, k, prm, 10).passed


def test_annihilation_component_oracle():
    # recompute output components through the basis-image path: exact zeros
    # below the margin, nonzero truncation debris above it
    series = _series(PARAMS, 10)
    factors = (series["chi2"], series["eta2"]) * 2
    _, terms = _boundary_ops(2, 2)[3]
    poly, _, _ = _derive_terms(terms, PARAMS, False)
    dop = delta_op(poly, PARAMS)
    total = {}
    for m1 in range(0, 6, 2):
        for m2 in range(0, 6, 2):
            for m3 in range(0, 6, 2):
                for m4 in range(0, 6, 2):
                    comp = _component(factors, (m1, m2, m3, m4))
                    if comp.is_zero():
                        continue
                    for key, val in _apply_basis(dop, (m1, m2, m3, m4), PARAMS, 10).items():
                        total[key] = total.get(key, ZERO) + val * comp
    low = {k: v for k, v in total.items() if all(m <= 3 for m in k)}
    assert len(low) >= 40
    assert all(v.is_zero() for v in low.values())
    assert any(not v.is_zero() for v in total.values())


def test_derivation_gap():
    with pytest.raises(DerivationGap):
        _derive_terms([(((1, 0),), (("A+", "A+"), (), (), ()))], PARAMS, True)


def _full_box_zero(items):
    # reference: evaluate the four-slot sum on every entry of the full box
    n = len(items[0][1])
    for idx in itertools.product(range(n), repeat=4):
        total = ZERO
        for coeff, *vecs in items:
            term = coeff
            for vec, i in zip(vecs, idx):
                term = term * vec[i]
            total = total + term
        if not total.is_zero():
            return False
    return True


def _gauss(rng):
    while True:
        x = Scalar(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 4))
        if not x.is_zero():
            return x


def _vec(rng, n):
    vec = [_gauss(rng) if rng.random() < 0.5 else ZERO for _ in range(n)]
    vec[rng.randrange(n)] = _gauss(rng)
    return tuple(vec)


def _planted(rng, n):
    # (u + v) (x) w (x) x (x) y - u (x) w (x) x (x) y - v (x) w (x) x (x) y
    # in a random slot, three times over, shuffled: the sum vanishes
    items = []
    for _ in range(3):
        coeff = _gauss(rng)
        vecs = [_vec(rng, n) for _ in range(4)]
        slot = rng.randrange(4)
        u = _vec(rng, n)
        both = tuple(a + b for a, b in zip(u, vecs[slot]))
        items.append((coeff, *vecs[:slot], both, *vecs[slot + 1:]))
        items.append((-coeff, *vecs[:slot], u, *vecs[slot + 1:]))
        items.append((-coeff, *vecs))
    rng.shuffle(items)
    return items


def test_pure_sum_zero_matches_full_box():
    for seed in range(6):
        rng = random.Random(seed)
        items = _planted(rng, 4)
        assert _full_box_zero(items) and _pure_sum_zero(items)
        # one entry of one slot vector moved: c * d e_i (x) w (x) x (x) y != 0
        k, slot, i = rng.randrange(len(items)), rng.randrange(1, 5), rng.randrange(4)
        vec = list(items[k][slot])
        vec[i] = vec[i] + Scalar(1, 0, 97)
        moved = list(items[k])
        moved[slot] = tuple(vec)
        bumped = items[:k] + [tuple(moved)] + items[k + 1:]
        assert not _full_box_zero(bumped) and not _pure_sum_zero(bumped)
        unplanted = [(_gauss(rng), *(_vec(rng, 4) for _ in range(4))) for _ in range(3)]
        assert _pure_sum_zero(unplanted) == _full_box_zero(unplanted)


def test_pure_sum_zero_pivots_of_the_whole_slot_span():
    # the only nonzero entry sits at slot-1 column 2, a pivot of the slot's
    # span but not of the first item's vector e0: pivots taken from a
    # subset of the items would miss it
    e = [tuple(ONE if c == r else ZERO for c in range(3)) for r in range(3)]
    w = (ONE, Scalar(2), ZERO)
    items = [(ONE, e[0], w, w, e[1]), (-ONE, e[0], w, w, e[1]), (Scalar(1, 1), e[2], w, w, e[1])]
    assert not _full_box_zero(items)
    assert not _pure_sum_zero(items)
    assert _pure_sum_zero(items[:2])


def test_slot_items_memo_per_slot_and_word():
    # each distinct (slot, word) is imaged once; the same word in two slots
    # is two images (the empty word acts on chi in slot 1, on eta in slot 2)
    calls = []

    def image(slot, word):
        calls.append((slot, word))
        return (slot, word)

    terms = [(ONE, ((), (), ("K",), ("k",))), (Q, ((), (), ("K",), ("a+",)))]
    items = _slot_items(terms, image)
    assert items == [(ONE, (0, ()), (1, ()), (2, ("K",)), (3, ("k",))),
                     (Q, (0, ()), (1, ()), (2, ("K",)), (3, ("a+",)))]
    assert len(calls) == len(set(calls)) == 5
