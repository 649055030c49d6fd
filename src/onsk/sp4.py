"""Four-slot boundary-vector identities on truncated Fock spaces.

Operators on F_{q^2} (x) F_q (x) F_{q^2} (x) F_q are sums of elementary
tensor words in the boson letters.  One slot model per base, b = q for
a+, a-, k and b = q^2 for A+, A-, K, gives every letter action, word
image and boundary series from one table of powers of b.  Every letter
word is a monomial matrix on a truncated Fock space, so operator
identities are decided exactly on the sub-box of modes whose images
provably stay below the cutoff.
The coproduct images delta/delta_op expand through two 4x4 letter
matrices, and the boundary annihilation checks reduce each four-slot
difference operator to a quadratic word in the t entries via a fixed
operator dictionary before applying it to the product boundary vector.
Each dictionary row, one-slot boundary operator and boundary series is
written once, and every identity a report prints is rendered from the
(sign, q exponent) monomials whose values it checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

from .field import ONE, ZERO, Params, Scalar, _coerce
from .linalg import pivot_columns
from .report import Report
from .spinrep import RangeError


class TruncationMarginError(ArithmeticError):
    """The cutoff is too small to certify the requested comparison."""


class DerivationGap(ValueError):
    """A boundary word has no expansion through the operator dictionary."""


# raise, lower, diag letters of the slots F_{q^2}, F_q, F_{q^2}, F_q
_SLOT_LETTERS = (("A+", "A-", "K"), ("a+", "a-", "k")) * 2


class _Slot:
    """Fock slot at base deformation b: q for a+, a-, k and q^2 for A+, A-, K.

    raise |m> = |m+1>, lower |m> = (1 - b^(2m)) |m-1>, diag |m> = b^m |m>,
    with every b^e read from one power table pw, grown on demand.  The
    oracle tests' Fraction eta_ket components (`ket_comp` in
    tests/test_qboson.py) are the independent reference for the boundary series.
    """

    __slots__ = ("letters", "pw")

    def __init__(self, b: Scalar, letters) -> None:
        self.letters = letters
        self.pw = [ONE, b]

    def power(self, e: int) -> Scalar:
        while len(self.pw) <= e:
            self.pw.append(self.pw[-1] * self.pw[1])
        return self.pw[e]

    def act(self, word, m: int, cutoff=None):
        """(mode, coefficient) of a letter word, rightmost letter first, on |m>.

        A lowering letter at mode 0 gives coefficient 0; with a cutoff,
        climbing above it is an error.
        """
        up, down, diag = self.letters
        coeff = ONE
        for letter in reversed(word):
            if letter == up:
                m += 1
            elif letter == down:
                coeff = coeff * (ONE - self.power(2 * m))
                m -= 1
            elif letter == diag:
                coeff = coeff * self.power(m)
            else:
                raise RangeError(f"letter {letter!r} is not one of {', '.join(self.letters)}")
            if coeff.is_zero():
                return m, ZERO
            if cutoff is not None and m > cutoff:
                raise TruncationMarginError(f"mode {m} escaped the cutoff {cutoff}")
        return m, coeff

    def image(self, word, vec) -> tuple:
        """Image of a dense vector; components past its end drop."""
        out = [ZERO] * len(vec)
        for m, x in enumerate(vec):
            if not x.is_zero():
                mode, coeff = self.act(word, m)
                if 0 <= mode < len(out):
                    out[mode] = out[mode] + coeff * x
        return tuple(out)

    def boundary(self, kind: int, cutoff: int) -> tuple:
        """Modes 0..cutoff of the weight-kind series: 1/(B; B)_m at mode kind*m, B = b^(kind^2)."""
        if kind not in (1, 2):
            raise RangeError(f"boundary kind must be 1 or 2, got {kind}")
        comps = [ONE] + [ZERO] * cutoff
        for m in range(1, cutoff // kind + 1):
            comps[kind * m] = comps[kind * (m - 1)] / (ONE - self.power(kind * kind * m))
        return tuple(comps)


def _slots(params: Params):
    """Slot models of F_{q^2}, F_q, F_{q^2}, F_q: one per base."""
    fq2 = _Slot(params.q * params.q, _SLOT_LETTERS[0])
    fq = _Slot(params.q, _SLOT_LETTERS[1])
    return (fq2, fq, fq2, fq)


def _word_raise(word) -> int:
    return sum(1 for letter in word if letter.endswith("+"))


def _word_lower(word) -> int:
    return sum(1 for letter in word if letter.endswith("-"))


# nonzero entries (i, j) of the two 4x4 letter matrices, as
# (sign, power of q, word): the coefficient is sign * q^power
_PI_TABLE = {
    1: {(1, 1): (1, 0, ("a-",)), (1, 2): (1, 0, ("k",)),
        (2, 1): (-1, 1, ("k",)), (2, 2): (1, 0, ("a+",)),
        (3, 3): (1, 0, ("a-",)), (3, 4): (-1, 0, ("k",)),
        (4, 3): (1, 1, ("k",)), (4, 4): (1, 0, ("a+",))},
    2: {(1, 1): (1, 0, ()), (2, 2): (1, 0, ("A-",)),
        (2, 3): (1, 0, ("K",)), (3, 2): (-1, 2, ("K",)),
        (3, 3): (1, 0, ("A+",)), (4, 4): (1, 0, ())},
}


class TensorOp4:
    """Operator on the four-slot product space, as a sum of tensor words.

    Each term is (coefficient, four letter words); slot bases alternate
    q2, q, q2, q.  Words are monomial matrices, so the raising count per
    slot bounds how far any image can climb.
    """

    __slots__ = ("terms",)

    def __init__(self, terms) -> None:
        self.terms = tuple((c, w) for c, w in terms)

    @classmethod
    def word(cls, words) -> "TensorOp4":
        if len(words) != 4:
            raise RangeError(f"need 4 slot words, got {len(words)}")
        tup = tuple(tuple(w) for w in words)
        for slot, (w, allowed) in enumerate(zip(tup, _SLOT_LETTERS)):
            for letter in w:
                if letter not in allowed:
                    raise RangeError(f"letter {letter!r} invalid in slot {slot + 1}")
        return cls(((ONE, tup),))

    def __add__(self, other: "TensorOp4") -> "TensorOp4":
        return TensorOp4(self.terms + other.terms)

    def __sub__(self, other: "TensorOp4") -> "TensorOp4":
        return TensorOp4(self.terms + tuple((-c, w) for c, w in other.terms))

    def __mul__(self, other: "TensorOp4") -> "TensorOp4":
        out = []
        for c1, w1 in self.terms:
            for c2, w2 in other.terms:
                out.append((c1 * c2, tuple(w1[i] + w2[i] for i in range(4))))
        return TensorOp4(out)

    def scale(self, c) -> "TensorOp4":
        c = _coerce(c)
        return TensorOp4(tuple((c * v, w) for v, w in self.terms))

    def simplified(self) -> "TensorOp4":
        merged: dict = {}
        for c, w in self.terms:
            cur = merged.get(w)
            merged[w] = c if cur is None else cur + c
        return TensorOp4(tuple((c, w) for w, c in merged.items() if not c.is_zero()))

    def raise_budget(self):
        """Per-slot maximum raising count over all terms."""
        budget = [0, 0, 0, 0]
        for _, words in self.terms:
            for i, w in enumerate(words):
                r = _word_raise(w)
                if r > budget[i]:
                    budget[i] = r
        return tuple(budget)

    def __repr__(self) -> str:
        return f"TensorOp4({len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# coproduct images


@lru_cache(maxsize=128)
def _delta_t(i: int, j: int, params: Params, opp: bool) -> TensorOp4:
    # built once per (entry, slot order) and Params bundle, then shared by
    # every polynomial expanded there; 128 entries hold four bundles' 32
    powers = (ONE, params.q, params.q * params.q)
    pi = {(which, a, b): (powers[power] if sign > 0 else -powers[power], word)
          for which, table in _PI_TABLE.items()
          for (a, b), (sign, power, word) in table.items()}
    terms = []
    for k in range(1, 5):
        for l in range(1, 5):
            for m in range(1, 5):
                if opp:
                    slots = ((2, m, j), (1, l, m), (2, k, l), (1, i, k))
                else:
                    slots = ((2, i, k), (1, k, l), (2, l, m), (1, m, j))
                coeff = ONE
                words = []
                for slot in slots:
                    entry = pi.get(slot)
                    if entry is None:
                        break
                    c, w = entry
                    coeff = coeff * c
                    words.append(w)
                else:
                    terms.append((coeff, tuple(words)))
    return TensorOp4(terms)


def _expand(poly, params: Params, opp: bool) -> TensorOp4:
    total = TensorOp4(())
    for coeff, factors in poly:
        cur = None
        for i, j in factors:
            dt = _delta_t(i, j, params, opp)
            cur = dt if cur is None else cur * dt
        if cur is None:
            cur = TensorOp4.word(((), (), (), ()))
        total = total + cur.scale(coeff)
    return total.simplified()


def delta(poly, params: Params) -> TensorOp4:
    """Coproduct image of a polynomial in the t entries.

    poly is an iterable of (coefficient, ((i1, j1), (i2, j2), ...)) monomials;
    the image of each t factor is the 64-term four-slot sum and the map is
    multiplicative over factors.
    """
    return _expand(poly, params, False)


def delta_op(poly, params: Params) -> TensorOp4:
    """Slot-reversed coproduct image of a polynomial in the t entries."""
    return _expand(poly, params, True)


# ---------------------------------------------------------------------------
# exact comparison on margin-safe boxes


def _pure_sum_zero(items) -> bool:
    """Whether sum of coeff * v1 (x) v2 (x) v3 (x) v4 vanishes.

    Each slot's distinct vectors, made sparse, are echelonised; a pivot
    row is zero left of its leading column and 1 there, so restricting
    that slot's span to its pivot columns P_s is injective.  A tensor
    product of injective maps is injective, so the sum vanishes iff it
    vanishes on P1 x P2 x P3 x P4.
    """
    sparse = [{v: {m: x for m, x in enumerate(v) if not x.is_zero()}
               for v in dict.fromkeys(item[slot] for item in items)} for slot in (1, 2, 3, 4)]
    cols = [pivot_columns(vecs.values()) for vecs in sparse]
    total: dict = {}
    for coeff, *vecs in items:
        part = {(): coeff}
        for vec, slot_vecs, pivots in zip(vecs, sparse, cols):
            vec = slot_vecs[vec]
            part = {key + (p,): c * vec[p] for key, c in part.items() for p in pivots if p in vec}
        for key, c in part.items():
            cur = total.get(key)
            total[key] = c if cur is None else cur + c
    return all(c.is_zero() for c in total.values())


def _slot_items(terms, image):
    """(coeff, v1, v2, v3, v4) per term, with image(slot, word) run once per pair."""
    memo: dict = {}
    items = []
    for coeff, words in terms:
        vecs = []
        for slot, word in enumerate(words):
            vec = memo.get((slot, word))
            if vec is None:
                vec = memo[(slot, word)] = image(slot, word)
            vecs.append(vec)
        items.append((coeff, *vecs))
    return items


def ops_agree(a: TensorOp4, b: TensorOp4, M: int, params: Params) -> bool:
    """Exact agreement of two tensor operators on the margin-safe mode box.

    Terms with different net mode shifts cannot overlap, so the difference
    is grouped by shift and each group must cancel identically.
    """
    op = (a - b).simplified()
    if not op.terms:
        return True
    margin = max(3, max(op.raise_budget()) + 1)
    if M < margin:
        raise TruncationMarginError(f"cutoff {M} below margin {margin}")
    modes = range(M - margin + 1)
    slots = _slots(params)

    def coefficients(slot, word):
        return tuple(slots[slot].act(word, m, M)[1] for m in modes)

    groups: dict = {}
    for (_, words), item in zip(op.terms, _slot_items(op.terms, coefficients)):
        groups.setdefault(tuple(_word_raise(w) - _word_lower(w) for w in words), []).append(item)
    return all(_pure_sum_zero(grp) for grp in groups.values())


# ---------------------------------------------------------------------------
# printed forms: every identity a report names is rendered from the
# (sign, q exponent) monomials whose values it checks

_PLUS, _MINUS = ((1, 0),), ((-1, 0),)


def _sum_str(parts, gap: str) -> str:
    """Signed sum of (sign, text) parts, gap on both sides of each inner sign."""
    (sign, text), *rest = parts
    return ("-" if sign < 0 else "") + text + "".join(
        f"{gap}{'-' if s < 0 else '+'}{gap}{t}" for s, t in rest)


def _product_str(e: int, factors) -> str:
    """q^e times the factor texts, or 1 when both are absent."""
    qpart = [] if e == 0 else ["q" if e == 1 else f"q^{e}"]
    return "*".join(qpart + list(factors)) or "1"


def _t_str(factors) -> list:
    """Texts of t factors, a run of one factor as its power: t14^2."""
    runs = [(f, len(list(run))) for f, run in groupby(factors)]
    return [f"t{i}{j}" + (f"^{n}" if n > 1 else "") for (i, j), n in runs]


def _poly_str(monos) -> str:
    """t polynomial of (sign, q exponent, t factors) monomials: t14^2 - q^-3*t42*t13."""
    return _sum_str([(s, _product_str(e, _t_str(factors))) for s, e, factors in monos], " ")


def _coeff_str(coeff) -> str:
    """Coefficient of (sign, q exponent) monomials, unspaced: 1+q^2."""
    return _sum_str([(s, _product_str(e, ())) for s, e in coeff], "")


def _op_str(terms) -> str:
    """One-slot operator of (coefficient, word) terms: (a+ - a- + (1+q)*k)."""
    parts = []
    for coeff, word in terms:
        letters = ("".join(word),) if word else ()
        if len(coeff) > 1:  # a sum prints in parentheses before the word: (1+q)*k
            coeff, letters = _PLUS, (f"({_coeff_str(coeff)})",) + letters
        (s, e), = coeff
        parts.append((s, _product_str(e, letters)))
    return f"({_sum_str(parts, ' ')})"


def _words_str(words) -> str:
    return "*".join("".join(w) if w else "1" for w in words)


def _coeff(coeff, params: Params) -> Scalar:
    return sum((params.q ** e if s > 0 else -(params.q ** e) for s, e in coeff), ZERO)


def _poly(monos, params: Params):
    return [(_coeff(((s, e),), params), factors) for s, e, factors in monos]


# ---------------------------------------------------------------------------
# the operator dictionary

_KK = ("k", "k")

# (lhs words, rhs monomials as (sign, q exponent, t factors))
_LEMMA = (
    (((), _KK, ("K", "K"), ()), ((1, 0, ((1, 4), (1, 4))), (-1, -3, ((4, 2), (1, 3))))),
    (((), ("k",), ("K",), ("k",)), ((-1, 0, ((1, 4),)),)),
    (((), ("k",), ("K",), ("k",)), ((1, -4, ((4, 1),)),)),
    ((("K",), _KK, ("K",), ()), ((1, -1, ((2, 3), (1, 4))), (-1, 0, ((2, 4), (1, 3))))),
    (((), ("k",), ("K",), ("a+",)), ((-1, -3, ((4, 2),)),)),
    (((), ("k",), ("K",), ("a-",)), ((1, 0, ((1, 3),)),)),
    ((("A+",), _KK, ("K",), ()), ((-1, -5, ((3, 3), (4, 1))), (-1, 0, ((3, 4), (1, 3))))),
    ((("A-",), _KK, ("K",), ()), ((1, 1, ((2, 2), (1, 4))), (1, -4, ((2, 1), (4, 2))))),
    (((), ("k", "a+"), ("K",), ()), ((1, 1, ((4, 4), (1, 3))), (1, -4, ((4, 3), (4, 1))))),
    (((), ("k", "a-"), ("K",), ()), ((-1, -3, ((4, 2), (1, 1))), (1, -4, ((4, 1), (1, 2))))),
    (((), _KK, ("K", "A+"), ()), ((-1, -1, ((4, 4), (4, 1))), (-1, -2, ((4, 3), (4, 2))))),
    (((), _KK, ("K", "A-"), ()), ((-1, -5, ((4, 1), (1, 1))), (1, -2, ((1, 2), (1, 3))))),
)

# words -> monomials; of the two 1*k*K*k rows the first is the entry
_DICT = dict(reversed(_LEMMA))

# The 1*kk*K*1 word has no dictionary entry of its own.  Acting right of the
# intertwiner on the (1,1) boundary vector it can be traded for KA+ + KK in
# the third slot (the raising characterization fixes that slot), which the
# dictionary then resolves through the 1*kk*KA+*1 and 1*kk*KK*1 rows.
_X_WORDS = ((), _KK, ("K",), ())
_X_ENTRY = _DICT[((), _KK, ("K", "A+"), ())] + _DICT[((), _KK, ("K", "K"), ())]


def check_lemma_identities(params: Params, M: int) -> Report:
    """Verify the 12 dictionary rows as exact operator identities.

    Both sides climb at most 2 modes per slot, so the comparison runs on
    all basis vectors with every mode at most M - 3.
    """
    if M < 6:
        raise TruncationMarginError(f"need cutoff >= 6, got {M}")
    rep = Report()
    for lhs_words, monos in _LEMMA:
        lhs = TensorOp4.word(lhs_words)
        rhs = delta(_poly(monos, params), params)
        ok = ops_agree(lhs, rhs, M, params)
        rep.add(f"{_words_str(lhs_words)} == delta({_poly_str(monos)})", ok, f"modes <= {M - 3}")
    return rep


# ---------------------------------------------------------------------------
# boundary vectors and annihilation

# one-slot operators as (coefficient, word) terms, each coefficient a tuple
# of (sign, q exponent) monomials: the raising and lowering
# characterizations of eta1 and chi1, then the operators that kill each
# boundary series
_SLOT_OPS = {
    ("raise", "eta1"): ((_PLUS, ("a+",)), (_MINUS, ()), (_PLUS, ("k",))),
    ("raise", "chi1"): ((_PLUS, ("A+",)), (_MINUS, ()), (_PLUS, ("K",))),
    ("lower", "eta1"): ((_PLUS, ("a-",)), (_MINUS, ()), (((-1, 1),), ("k",))),
    ("lower", "chi1"): ((_PLUS, ("A-",)), (_MINUS, ()), (((-1, 2),), ("K",))),
    ("kill", "eta1"): ((_PLUS, ("a+",)), (_MINUS, ("a-",)), (((1, 0), (1, 1)), ("k",))),
    ("kill", "chi1"): ((_PLUS, ("A+",)), (_MINUS, ("A-",)), (((1, 0), (1, 2)), ("K",))),
    ("kill", "eta2"): ((_PLUS, ("a+",)), (_MINUS, ("a-",))),
    ("kill", "chi2"): ((_PLUS, ("A+",)), (_MINUS, ("A-",))),
}

# the four-slot words each boundary operator extends, with the slot it acts
# in: chi_r in slots 1 and 3, eta_k in slots 2 and 4, in slots 3 and 2
# after an extra K and k
_PLACES = ((0, _X_WORDS), (1, ((), ("k",), ("K",), ())),
           (2, _X_WORDS), (3, ((), ("k",), ("K",), ())))


def _series(params: Params, cutoff: int) -> dict:
    """Each boundary series at a cutoff with its slot model: eta_k in F_q, chi_k in F_{q^2}."""
    fq2, fq = _slots(params)[:2]
    return {f"{name}{kind}": (slot, slot.boundary(kind, cutoff))
            for name, slot in (("eta", fq), ("chi", fq2)) for kind in (1, 2)}


def _placed(words, slot: int, tail) -> tuple:
    return words[:slot] + (words[slot] + tail,) + words[slot + 1:]


def _boundary_ops(r: int, k: int):
    """(name, terms) of the four operators annihilating the (r, k) boundary vector."""
    ops = []
    for slot, words in _PLACES:
        op = _SLOT_OPS["kill", f"eta{k}" if slot % 2 else f"chi{r}"]
        ops.append((_words_str(_placed(words, slot, (_op_str(op),))),
                    [(c, _placed(words, slot, w)) for c, w in op]))
    return ops


def _derive_terms(terms, params: Params, allow_indirect: bool):
    """Resolve a boundary operator through the dictionary to a t polynomial."""
    poly = []
    parts = []
    indirect = False
    for coeff, words in terms:
        monos = _DICT.get(words)
        if monos is None:
            if allow_indirect and words == _X_WORDS:
                monos = _X_ENTRY
                indirect = True
            else:
                raise DerivationGap(f"no dictionary entry for {_words_str(words)}")
        c = _coeff(coeff, params)
        poly.extend((c * cm, factors) for cm, factors in _poly(monos, params))
        parts.append(f"({_coeff_str(coeff)})*[{_poly_str(monos)}]")
    return poly, " + ".join(parts), indirect


def _kills_vector(op: TensorOp4, factors, bound: int) -> bool:
    """Whether op kills the product of four (slot model, series) factors up to mode bound."""
    def image(slot, word):
        model, vec = factors[slot]
        return model.image(word, vec)[: bound + 1]

    return _pure_sum_zero(_slot_items(op.simplified().terms, image))


def check_boundary_series(params: Params, M: int) -> Report:
    """Componentwise identities pinning the four boundary series.

    Each row's terms must kill its series on every component that no
    lowering letter reads from above the cutoff.
    """
    rows = [(f"{_op_str(terms)} annihilates {which}", which, terms)
            for (_, which), terms in _SLOT_OPS.items()]
    # the lowering images of eta1 and eta2, restated as matches
    rows += [("a- on eta1 matches (1 + q*k) on eta1", "eta1", _SLOT_OPS["lower", "eta1"]),
             ("a- on eta2 matches a+ on eta2", "eta2", _SLOT_OPS["kill", "eta2"])]
    series = _series(params, M)
    rep = Report()
    for name, which, terms in rows:
        slot, vec = series[which]
        bound = M - max(_word_lower(w) for _, w in terms)
        total = [ZERO] * (bound + 1)
        for coeff, word in terms:
            c = _coeff(coeff, params)
            for m, x in enumerate(slot.image(word, vec)[: bound + 1]):
                total[m] = total[m] + c * x
        rep.add(name, all(x.is_zero() for x in total), f"components <= {bound}")
    return rep


def check_annihilation(r: int, k: int, params: Params, M: int) -> Report:
    """Verify the four boundary annihilation identities for one (r, k) label.

    Each difference operator resolves through the dictionary to a t
    polynomial T; the slot-reversed image of T must kill the product
    boundary vector chi_r, eta_k, chi_r, eta_k on all components with modes
    at most M - 3.
    """
    if (r, k) not in ((1, 1), (1, 2), (2, 2)):
        raise RangeError(f"boundary labels must be (1,1), (1,2) or (2,2), got ({r}, {k})")
    if M < 10:
        raise TruncationMarginError(f"need cutoff >= 10, got {M}")
    bound = M - 3
    rep = Report()
    series = _series(params, M)
    factors = (series[f"chi{r}"], series[f"eta{k}"]) * 2
    for name, terms in _boundary_ops(r, k):
        poly, tstr, indirect = _derive_terms(terms, params, r == 1 and k == 1)
        ok = _kills_vector(delta_op(poly, params), factors, bound)
        note = "indirect entry for 1*kk*K*1; " if indirect else ""
        rep.add(f"{name} annihilates Xi({r},{k})",
                ok, f"{note}T = {tstr}; components <= {bound}")
    return rep
