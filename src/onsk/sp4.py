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
"""

from __future__ import annotations

from functools import lru_cache

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
    with every b^e read from one power table pw, grown on demand.  The ket
    components of qboson._fock_tables, in Fraction arithmetic, are the
    independent reference for the boundary series.
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


def _word_shift(word) -> int:
    return _word_raise(word) - sum(1 for letter in word if letter.endswith("-"))


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
    def word(cls, words, coeff: Scalar = ONE) -> "TensorOp4":
        if len(words) != 4:
            raise RangeError(f"need 4 slot words, got {len(words)}")
        tup = tuple(tuple(w) for w in words)
        for slot, (w, allowed) in enumerate(zip(tup, _SLOT_LETTERS)):
            for letter in w:
                if letter not in allowed:
                    raise RangeError(f"letter {letter!r} invalid in slot {slot + 1}")
        return cls(((coeff, tup),))

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
        groups.setdefault(tuple(_word_shift(w) for w in words), []).append(item)
    return all(_pure_sum_zero(grp) for grp in groups.values())


# ---------------------------------------------------------------------------
# the operator dictionary

_KK = ("k", "k")

# (lhs words, lhs name, monomials as (sign, q exponent, t factors), rhs name)
_LEMMA = (
    (((), _KK, ("K", "K"), ()), "1*kk*KK*1",
     ((1, 0, ((1, 4), (1, 4))), (-1, -3, ((4, 2), (1, 3)))),
     "t14^2 - q^-3*t42*t13"),
    (((), ("k",), ("K",), ("k",)), "1*k*K*k",
     ((-1, 0, ((1, 4),)),),
     "-t14"),
    (((), ("k",), ("K",), ("k",)), "1*k*K*k",
     ((1, -4, ((4, 1),)),),
     "q^-4*t41"),
    ((("K",), _KK, ("K",), ()), "K*kk*K*1",
     ((1, -1, ((2, 3), (1, 4))), (-1, 0, ((2, 4), (1, 3)))),
     "q^-1*t23*t14 - t24*t13"),
    (((), ("k",), ("K",), ("a+",)), "1*k*K*a+",
     ((-1, -3, ((4, 2),)),),
     "-q^-3*t42"),
    (((), ("k",), ("K",), ("a-",)), "1*k*K*a-",
     ((1, 0, ((1, 3),)),),
     "t13"),
    ((("A+",), _KK, ("K",), ()), "A+*kk*K*1",
     ((-1, -5, ((3, 3), (4, 1))), (-1, 0, ((3, 4), (1, 3)))),
     "-q^-5*t33*t41 - t34*t13"),
    ((("A-",), _KK, ("K",), ()), "A-*kk*K*1",
     ((1, 1, ((2, 2), (1, 4))), (1, -4, ((2, 1), (4, 2)))),
     "q*t22*t14 + q^-4*t21*t42"),
    (((), ("k", "a+"), ("K",), ()), "1*ka+*K*1",
     ((1, 1, ((4, 4), (1, 3))), (1, -4, ((4, 3), (4, 1)))),
     "q*t44*t13 + q^-4*t43*t41"),
    (((), ("k", "a-"), ("K",), ()), "1*ka-*K*1",
     ((-1, -3, ((4, 2), (1, 1))), (1, -4, ((4, 1), (1, 2)))),
     "-q^-3*t42*t11 + q^-4*t41*t12"),
    (((), _KK, ("K", "A+"), ()), "1*kk*KA+*1",
     ((-1, -1, ((4, 4), (4, 1))), (-1, -2, ((4, 3), (4, 2)))),
     "-q^-1*t44*t41 - q^-2*t43*t42"),
    (((), _KK, ("K", "A-"), ()), "1*kk*KA-*1",
     ((-1, -5, ((4, 1), (1, 1))), (1, -2, ((1, 2), (1, 3)))),
     "-q^-5*t41*t11 + q^-2*t12*t13"),
)

_DICT: dict = {}
for _words, _, _monos, _rstr in _LEMMA:
    _DICT.setdefault(_words, (_monos, _rstr))

# The 1*kk*K*1 word has no dictionary entry of its own.  Acting right of the
# intertwiner on the (1,1) boundary vector it can be traded for KA+ + KK in
# the third slot (the raising characterization fixes that slot), which the
# dictionary then resolves through the 1*kk*KA+*1 and 1*kk*KK*1 rows.
_X_WORDS = ((), _KK, ("K",), ())
_ROW_KA, _ROW_KK = (_DICT[((), _KK, ("K", w), ())] for w in ("A+", "K"))
_X_ENTRY = (_ROW_KA[0] + _ROW_KK[0], f"{_ROW_KA[1]} + {_ROW_KK[1]}")


def _poly(monos, params: Params):
    q = params.q
    out = []
    for s, e, factors in monos:
        val = q ** e
        out.append((val if s > 0 else -val, factors))
    return out


def check_lemma_identities(params: Params, M: int) -> Report:
    """Verify the 12 dictionary rows as exact operator identities.

    Both sides climb at most 2 modes per slot, so the comparison runs on
    all basis vectors with every mode at most M - 3.
    """
    if M < 6:
        raise TruncationMarginError(f"need cutoff >= 6, got {M}")
    rep = Report(f"operator dictionary at cutoff {M}")
    for lhs_words, lhs_name, monos, rhs_str in _LEMMA:
        lhs = TensorOp4.word(lhs_words)
        rhs = delta(_poly(monos, params), params)
        ok = ops_agree(lhs, rhs, M, params)
        rep.add(f"{lhs_name} == delta({rhs_str})", ok, f"modes <= {M - 3}")
    return rep


# ---------------------------------------------------------------------------
# boundary vectors and annihilation


class XiVector:
    """Truncated product boundary vector: chi_r, eta_k, chi_r, eta_k.

    slots holds the four slot models the factors were built in.
    """

    __slots__ = ("r", "k", "cutoff", "slots", "factors")

    def __init__(self, r: int, k: int, cutoff: int, params: Params) -> None:
        if (r, k) not in ((1, 1), (1, 2), (2, 2)):
            raise RangeError(f"boundary labels must be (1,1), (1,2) or (2,2), got ({r}, {k})")
        self.r = r
        self.k = k
        self.cutoff = cutoff
        self.slots = _slots(params)
        chi = self.slots[0].boundary(r, cutoff)
        eta = self.slots[1].boundary(k, cutoff)
        self.factors = (chi, eta, chi, eta)

    def __repr__(self) -> str:
        return f"XiVector(r={self.r}, k={self.k}, cutoff={self.cutoff})"


def _words_str(words) -> str:
    return "*".join("".join(w) if w else "1" for w in words)


def _boundary_ops(r: int, k: int, params: Params):
    """The four difference operators annihilating the (r, k) boundary vector."""
    q = params.q
    # the chi_r operator acts in slots 1 and 3, the eta_k operator in slots
    # 2 and 4; slots 3 and 2 carry it after an extra K and k
    chi_op = [(ONE, "1", ("A+",)), (-ONE, "-1", ("A-",))]
    eta_op = [(ONE, "1", ("a+",)), (-ONE, "-1", ("a-",))]
    if r == 1:
        chi_op.append((ONE + q * q, "1+q^2", ("K",)))
        big = "(A+ - A- + (1+q^2)*K)"
    else:
        big = "(A+ - A-)"
    if k == 1:
        eta_op.append((ONE + q, "1+q", ("k",)))
        small = "(a+ - a- + (1+q)*k)"
    else:
        small = "(a+ - a-)"
    return (
        (f"{big}*kk*K*1",
         [(c, s, (w, _KK, ("K",), ())) for c, s, w in chi_op]),
        (f"1*k{small}*K*1",
         [(c, s, ((), ("k",) + w, ("K",), ())) for c, s, w in eta_op]),
        (f"1*kk*K{big}*1",
         [(c, s, ((), _KK, ("K",) + w, ())) for c, s, w in chi_op]),
        (f"1*k*K*{small}",
         [(c, s, ((), ("k",), ("K",), w)) for c, s, w in eta_op]),
    )


def _derive_terms(terms, params: Params, allow_indirect: bool):
    """Resolve a boundary operator through the dictionary to a t polynomial."""
    poly = []
    parts = []
    indirect = False
    for coeff, cstr, words in terms:
        entry = _DICT.get(words)
        if entry is None:
            if allow_indirect and words == _X_WORDS:
                entry = _X_ENTRY
                indirect = True
            else:
                raise DerivationGap(f"no dictionary entry for {_words_str(words)}")
        monos, rstr = entry
        for cm, factors in _poly(monos, params):
            poly.append((coeff * cm, factors))
        parts.append(f"({cstr})*[{rstr}]")
    return poly, " + ".join(parts), indirect


def _kills_vector(op: TensorOp4, xi: XiVector, bound: int) -> bool:
    def image(slot, word):
        return xi.slots[slot].image(word, xi.factors[slot])[: bound + 1]

    return _pure_sum_zero(_slot_items(op.simplified().terms, image))


def check_boundary_series(params: Params, M: int) -> Report:
    """Componentwise identities pinning the four boundary series.

    Each row's terms must kill its series on every component that no
    lowering letter reads from above the cutoff.
    """
    q = params.q
    fq2, fq = _slots(params)[:2]
    series = {f"{name}{kind}": (slot, slot.boundary(kind, M))
              for name, slot in (("eta", fq), ("chi", fq2)) for kind in (1, 2)}
    lower_eta1 = ((ONE, ("a-",)), (-ONE, ()), (-q, ("k",)))
    diff_eta2 = ((ONE, ("a+",)), (-ONE, ("a-",)))
    rows = (
        ("(a+ - 1 + k) annihilates eta1", "eta1",
         ((ONE, ("a+",)), (-ONE, ()), (ONE, ("k",)))),
        ("(A+ - 1 + K) annihilates chi1", "chi1",
         ((ONE, ("A+",)), (-ONE, ()), (ONE, ("K",)))),
        ("(a- - 1 - q*k) annihilates eta1", "eta1", lower_eta1),
        ("(A- - 1 - q^2*K) annihilates chi1", "chi1",
         ((ONE, ("A-",)), (-ONE, ()), (-(q * q), ("K",)))),
        ("(a+ - a- + (1+q)*k) annihilates eta1", "eta1",
         ((ONE, ("a+",)), (-ONE, ("a-",)), (ONE + q, ("k",)))),
        ("(A+ - A- + (1+q^2)*K) annihilates chi1", "chi1",
         ((ONE, ("A+",)), (-ONE, ("A-",)), (ONE + q * q, ("K",)))),
        ("(a+ - a-) annihilates eta2", "eta2", diff_eta2),
        ("(A+ - A-) annihilates chi2", "chi2",
         ((ONE, ("A+",)), (-ONE, ("A-",)))),
        # the lowering images of eta1 and eta2, restated as matches
        ("a- on eta1 matches (1 + q*k) on eta1", "eta1", lower_eta1),
        ("a- on eta2 matches a+ on eta2", "eta2", diff_eta2),
    )
    rep = Report(f"boundary series at cutoff {M}")
    for name, which, terms in rows:
        slot, vec = series[which]
        bound = M - max(sum(1 for letter in w if letter.endswith("-")) for _, w in terms)
        total = [ZERO] * (bound + 1)
        for c, word in terms:
            for m, x in enumerate(slot.image(word, vec)[: bound + 1]):
                total[m] = total[m] + c * x
        rep.add(name, all(x.is_zero() for x in total), f"components <= {bound}")
    return rep


def check_annihilation(r: int, k: int, params: Params, M: int) -> Report:
    """Verify the four boundary annihilation identities for one (r, k) label.

    Each difference operator resolves through the dictionary to a t
    polynomial T; the slot-reversed image of T must kill the product
    boundary vector on all components with modes at most M - 3.
    """
    if (r, k) not in ((1, 1), (1, 2), (2, 2)):
        raise RangeError(f"boundary labels must be (1,1), (1,2) or (2,2), got ({r}, {k})")
    if M < 10:
        raise TruncationMarginError(f"need cutoff >= 10, got {M}")
    bound = M - 3
    rep = Report(f"boundary annihilation ({r},{k}) at cutoff {M}")
    xi = XiVector(r, k, M, params)
    allow_indirect = r == 1 and k == 1
    for name, terms in _boundary_ops(r, k, params):
        poly, tstr, indirect = _derive_terms(terms, params, allow_indirect)
        dop = delta_op(poly, params)
        ok = _kills_vector(dop, xi, bound)
        note = "indirect entry for 1*kk*K*1; " if indirect else ""
        rep.add(f"{name} annihilates Xi({r},{k})",
                ok, f"{note}T = {tstr}; components <= {bound}")
    return rep
