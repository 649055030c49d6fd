"""q-boson algebra: normal ordering, traces, and boundary-vector contractions.

Words live in the algebra with generators ap, am, k subject to
    am ap = 1 - q^2 k^2,   ap am = 1 - k^2,   k ap = q ap k,   k am = q^{-1} am k.
A NormalForm stores a word as  X^h * sum c_{imj} ap^i k^m am^j  where X^h is a
diagonal spectral marker (z^h acts on the Fock state |v> as z^v) kept at the
far left.  Closed-form traces and boundary contractions evaluate such words
exactly; a summed-series oracle with certified rational tail bounds provides
an independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from .field import ONE, ZERO, Params, PoleError, Scalar
from .poch import poch, qbinom


class TailBoundError(ArithmeticError):
    """The oracle could not certify its tail below the requested bound."""


class NormalForm:
    """Normally ordered word: marker argument xarg and {(i, m, j): coeff} terms."""

    __slots__ = ("terms", "xarg")

    def __init__(self, terms, xarg: Scalar = ONE):
        self.terms = terms
        self.xarg = xarg

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.terms.items()))
        return f"NormalForm(xarg={self.xarg}, {{{inner}}})"


def _put(terms, key, val):
    cur = terms.get(key)
    new = val if cur is None else cur + val
    if new.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = new


class QBosonEngine:
    """Normal-ordering engine bound to one parameter bundle."""

    def __init__(self, params: Params):
        self.params = params
        self.q = params.q
        self._amap_memo = {}
        self._tracepoly_memo = {}
        self._base_memo = {}

    def one(self) -> NormalForm:
        return NormalForm({(0, 0, 0): ONE})

    def term(self, i: int, m: int, j: int) -> NormalForm:
        return NormalForm({(i, m, j): ONE})

    def ap(self) -> NormalForm:
        return self.term(1, 0, 0)

    def am(self) -> NormalForm:
        return self.term(0, 0, 1)

    def kdiag(self) -> NormalForm:
        return self.term(0, 1, 0)

    def marker(self, zarg: Scalar) -> NormalForm:
        return NormalForm({(0, 0, 0): ONE}, zarg)

    def scale(self, nf: NormalForm, c: Scalar) -> NormalForm:
        if c.is_zero():
            return NormalForm({}, nf.xarg)
        return NormalForm({k: v * c for k, v in nf.terms.items()}, nf.xarg)

    def amap(self, j: int, i: int) -> dict:
        """Normal ordering of am^j ap^i as {(i', m', j'): coeff}."""
        key = (j, i)
        memo = self._amap_memo
        if key in memo:
            return memo[key]
        if j == 0:
            out = {(i, 0, 0): ONE}
        elif i == 0:
            out = {(0, 0, j): ONE}
        else:
            prev = self.amap(j - 1, i - 1)
            out = dict(prev)
            fac = self.q ** (2 * i)
            for (a, b, c), coeff in prev.items():
                _put(out, (a, b + 2, c), -fac * (self.q ** (2 * c)) * coeff)
        memo[key] = out
        return out

    def mul(self, x: NormalForm, y: NormalForm) -> NormalForm:
        terms: dict = {}
        x2 = y.xarg
        for (i1, m1, j1), c1 in x.terms.items():
            # y's marker passes left through x: each am costs x2, each ap costs 1/x2
            cbase = c1 * (x2 ** (j1 - i1)) if x2 != ONE else c1
            for (i2, m2, j2), c2 in y.terms.items():
                cc = cbase * c2
                for (a, b, c), w in self.amap(j1, i2).items():
                    val = cc * w * (self.q ** (m1 * a + c * m2))
                    _put(terms, (i1 + a, m1 + b + m2, c + j2), val)
        return NormalForm(terms, x.xarg * y.xarg)

    def mulseq(self, factors) -> NormalForm:
        out = None
        for f in factors:
            out = f if out is None else self.mul(out, f)
        return self.one() if out is None else out

    def _tracepoly(self, j: int):
        """Coefficients of prod_{l=1}^{j} (1 - q^{2l} x) in x."""
        memo = self._tracepoly_memo
        if j in memo:
            return memo[j]
        coeffs = [ONE]
        for l in range(1, j + 1):
            f = self.q ** (2 * l)
            nxt = [ZERO] * (len(coeffs) + 1)
            for d, cd in enumerate(coeffs):
                nxt[d] = nxt[d] + cd
                nxt[d + 1] = nxt[d + 1] - f * cd
            coeffs = nxt
        memo[j] = coeffs
        return coeffs

    def trace(self, nf: NormalForm) -> Scalar:
        """Fock-space trace of X^h * word, as an exact rational function value."""
        zarg = nf.xarg
        total = ZERO
        for (i, m, j), c in nf.terms.items():
            if i != j:
                continue
            zj = zarg ** j
            for d, cd in enumerate(self._tracepoly(j)):
                den = ONE - zarg * (self.q ** (m + 2 * d))
                total = total + c * cd * zj * den.inverse()
        return total


def eliminate_annihilators(engine: QBosonEngine, nf: NormalForm, ket: int) -> NormalForm:
    """Rewrite am factors against the boundary ket eta_1 or eta_2.

    eta_1:  am |eta_1> = (1 + q k)|eta_1>
    eta_2:  am |eta_2> = ap |eta_2>
    """
    if ket not in (1, 2):
        raise ValueError("ket must be 1 or 2")
    q = engine.q
    done: dict = {}
    work = dict(nf.terms)
    while work:
        (i, m, j), c = work.popitem()
        if j == 0:
            _put(done, (i, m, 0), c)
        elif ket == 1:
            _put(work, (i, m, j - 1), c)
            _put(work, (i, m + 1, j - 1), c * (q ** j))
        elif j >= 2:
            _put(work, (i, m, j - 2), c)
            _put(work, (i, m + 2, j - 2), -c * (q ** (2 * j - 2)))
        else:
            _put(work, (i + 1, m, 0), c * (q ** m))
    return NormalForm(done, nf.xarg)


def _base_11(engine, zarg, j, m):
    q = engine.q
    num = (zarg ** j) * poch(-q, q, j) * poch(zarg, q, m)
    den = poch(-q * zarg, q, j + m)
    if den.is_zero():
        raise PoleError("boundary contraction pole")
    return num / den


def _ratio_q2(engine, zarg, m):
    # (z^2; q^2)_m / (-q z^2; q^2)_m
    q2 = engine.q ** 2
    z2 = zarg ** 2
    den = poch(-engine.q * z2, q2, m)
    if den.is_zero():
        raise PoleError("boundary contraction pole")
    return poch(z2, q2, m) / den


def _base_bra1_ket2(engine, zarg, j, m):
    q = engine.q
    out = ZERO
    for i in range(j + 1):
        out = out + (q ** (i * (i + 1) // 2)) * qbinom(j, i, q) * _ratio_q2(engine, zarg, i + m)
    return (zarg ** j) * out


def _base_bra2_ket1(engine, zarg, j, m):
    q = engine.q
    out = ZERO
    for i in range(j + 1):
        sign = ONE if i % 2 == 0 else -ONE
        out = out + sign * (q ** (i * (i + 1) // 2 - i * j)) * qbinom(j, i, q) * _ratio_q2(engine, zarg, m + i)
    return (q ** (-j * m)) * out


def _base_22(engine, zarg, j, m):
    # The word part (q^{2j+2m+2} z^2; q^4)_inf / (q^{2m} z^2; q^4)_inf times
    # the normalizer (q^2 z^2; q^4)_inf / (z^2; q^4)_inf, divided for even m
    # and multiplied for odd m, cancels to a finite ratio; with m = 2u + r:
    #   r = 0: (z^2; q^4)_u / (q^2 z^2; q^4)_{j/2+u}
    #   r = 1: (q^2 z^2; q^4)_u / (z^2; q^4)_{j/2+u+1}
    if j % 2:
        return ZERO
    q2 = engine.q ** 2
    q4 = q2 * q2
    z2 = zarg ** 2
    u, r = divmod(m, 2)
    top, bottom = (z2, q2 * z2) if r == 0 else (q2 * z2, z2)
    den = poch(bottom, q4, j // 2 + u + r)
    if den.is_zero():
        raise PoleError("boundary contraction pole")
    return (zarg ** j) * poch(q2, q4, j // 2) * poch(top, q4, u) / den


_BASES = {(1, 1): _base_11, (1, 2): _base_bra1_ket2,
          (2, 1): _base_bra2_ket1, (2, 2): _base_22}


def boundary_contract(engine: QBosonEngine, nf: NormalForm, bra: int, ket: int) -> Scalar:
    """Normalized contraction <eta_bra| X^h word |eta_ket> / <eta_bra| X^h |eta_ket>.

    For the (2, 2) pair with odd weight the plain normalizer sits in the wrong
    product tower; there the convention multiplies by it instead.  The value
    of each basis word ap^i k^m is kept in the engine, keyed by (bra, ket,
    marker argument, i, m), so the q-Pochhammer products behind it are
    computed once per engine.
    """
    basefn = _BASES.get((bra, ket))
    if basefn is None:
        raise ValueError("boundary labels must be 1 or 2")
    flat = eliminate_annihilators(engine, nf, ket)
    zarg = nf.xarg
    memo = engine._base_memo
    total = ZERO
    for (i, m, j), c in flat.terms.items():
        key = (bra, ket, zarg, i, m)
        base = memo.get(key)
        if base is None:
            base = memo[key] = basefn(engine, zarg, i, m)
        total = total + c * base
    return total


# --- summed-series oracle -------------------------------------------------

_TARGET = Fraction(1, 10 ** 25)


def _pb_lower(x: Fraction) -> Fraction:
    """Certified rational lower bound for prod_{l>=1} (1 - x^l), 0 < x < 1."""
    head = Fraction(1)
    xl = Fraction(1)
    for _ in range(25):
        xl *= x
        head *= 1 - xl
    rest = 1 - xl * x / (1 - x)
    if rest <= 0:
        raise TailBoundError("tail estimate needs a smaller |q|")
    return head * rest


def _fock_sum(q: Fraction, zq: Fraction, bra: int, ket: int, wterms, cutoff: int) -> Fraction:
    """Truncated Fock sum of <eta_bra| z^h word |eta_ket> over the states v <= cutoff.

    A term (i, m, j, c) of the word gives, at w = v - j + i, the summand
    c B_w zq^w q^(m(v-j)) (q^2; q^2)_v / ((q^2; q^2)_(v-j) K_v).  Here 1/K_v,
    K_v = (b; b)_(v/ket) with b = q^(ket^2), is the eta_ket component of |v>,
    and B_w, the eta_bra component times (q^2; q^2)_w, is (-q; q)_w for
    bra 1 and (q^2; q^4)_(w/2) for bra 2; both vanish off multiples of
    their kind.  With q = qn/qd each factor 1 - s q^e is (qd^e - s qn^e)/qd^e,
    so the sum stays in plain ints, over a growing integer denominator and
    a power of qd, until its one reduction.
    """
    qn, qd, zn, zd = q.numerator, q.denominator, zq.numerator, zq.denominator

    def scaled(e, s=1):
        return qd ** e - s * qn ** e

    num, den = 0, 1
    for i, m, j, c in wterms:
        # the summand at v, less its window, is tn / (sd grow qd^e); those before sum to sn / (sd qd^se)
        tn, grow, e = c.numerator, c.denominator, 0
        sn, sd, se, x, y = 0, 1, 0, 0, 0
        for v in range(j, cutoff + 1):
            w = v - j + i
            while x < v:
                x += 1
                if x % ket == 0:
                    grow *= scaled(ket * x)
                    e -= ket * x
            while y < w:
                y += 1
                tn, grow = tn * zn, grow * zd
                ey, s = (y, -1) if bra == 1 else (2 * y - 2, 1)
                if y % bra == 0:
                    tn *= scaled(ey, s)
                    e += ey
            if v > j:
                tn *= qn ** m
                e += m
            if v % ket or w % bra:
                continue
            rn, te = tn, e
            for u in range(v - j + 1, v + 1):
                rn *= scaled(2 * u)
                te += 2 * u
            lift = max(te - se, 0)
            sn = sn * grow * qd ** lift + rn * qd ** (se + lift - te)
            sd, se, grow = sd * grow, se + lift, 1
        sd *= qd ** se
        num, den = num * sd + sn * den, den * sd
    return Fraction(num, den)


def _real(x: Scalar, what: str) -> Fraction:
    if not x.is_real():
        raise TailBoundError(f"oracle needs real {what}")
    return x.re


def boundary_contract_oracle(params: Params, nf: NormalForm, bra: int, ket: int):
    """Independent contraction value by truncated summation over Fock states.

    Returns (value, bound) with |value - exact| <= bound certified and
    bound <= 1e-25 (`_TARGET`), a fixed target no caller can loosen.  Each
    truncated sum is exact, summed in plain ints and reduced once
    (`_fock_sum`); the cutoff starts at 64 and doubles up to 20000.
    Requires real parameters with 0 < t^2 < 1 and 0 < xarg < 1.  It is the
    reference that tier-1 and perfbench's series workload compare
    boundary_contract against; no CLI suite runs it.
    """
    t = _real(params.t, "t")
    zq = _real(nf.xarg, "marker argument")
    if not (0 < abs(t) < 1) or not (0 < zq < 1):
        raise TailBoundError("oracle needs 0 < |t| < 1 and 0 < z < 1")
    q = -t * t
    absq = t * t
    pb = _pb_lower(absq)
    terms = [(i, m, j, _real(c, "coefficient")) for (i, m, j), c in nf.terms.items()]
    if any(m < 0 for _, m, _, _ in terms):
        raise TailBoundError("oracle handles nonnegative k powers only")
    parity = None
    if bra == 2 and ket == 2:
        pars = {(i + m + j) % 2 for i, m, j, _ in terms}
        if len(pars) > 1:
            raise TailBoundError("mixed weight parity in a (2,2) contraction")
        parity = pars.pop() if pars else 0

    def word_tail(wterms, cutoff):
        tail = Fraction(0)
        geo = (zq ** (cutoff + 1)) / (1 - zq)
        for i, m, j, c in wterms:
            tail += abs(c) * (2 ** j) * (Fraction(zq) ** (i - j)) / (pb * pb) * geo
        return tail

    unit = [(0, 0, 0, Fraction(1))]
    cutoff = 64
    while True:
        nhat = _fock_sum(q, zq, bra, ket, terms, cutoff)
        dhat = _fock_sum(q, zq, bra, ket, unit, cutoff)
        en = word_tail(terms, cutoff)
        ed = word_tail(unit, cutoff)
        if parity == 1:
            value = nhat * dhat
            bound = en * abs(dhat) + abs(nhat) * ed + en * ed
        else:
            lbd = abs(dhat) - ed        # |D| >= |dhat| - ed, dhat exact
            if lbd <= 0:
                bound = None
            else:
                value = nhat / dhat
                bound = (en * abs(dhat) + abs(nhat) * ed) / (lbd * abs(dhat))
        if bound is not None and bound <= _TARGET:
            return value, bound
        cutoff *= 2
        if cutoff > 20000:
            raise TailBoundError("oracle cutoff limit reached before certification")
