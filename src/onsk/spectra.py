"""Exact spectral certificates for the K matrices.

Each conjectured decomposition is verified without constructing the
invariant subspaces themselves: the eigenvalue closed forms must
annihilate the matrix as a polynomial, and the Lagrange projector of
each eigenvalue must have exactly the predicted rank.  Weight-sector
blocks, their products and projector ranks are computed on the sparse
Operator of onsk.linalg.  All arithmetic is exact, so a passing
certificate is a proof for that parameter point.
"""

from __future__ import annotations

from math import comb

from .field import ONE, Params, PoleError, Scalar, _coerce
from .kmatrix import build_kkk, build_ktr
from .linalg import Operator, rank
from .report import Report
from .spinrep import RangeError, popcount


class DegenerateEigenvalues(ArithmeticError):
    """Two closed-form eigenvalues collided at the sample point."""


# ---------------------------------------------------------------------------
# eigenvalue closed forms


class EigenClosedForm:
    """One eigenvalue family member: indices plus its evaluation rule."""

    __slots__ = ("tag", "n", "l", "j", "fn")

    def __init__(self, tag: str, n: int, l: int, j, fn) -> None:
        self.tag = tag
        self.n = n
        self.l = l
        self.j = j
        self.fn = fn

    def value(self, params: Params, z) -> Scalar:
        return self.fn(params, _coerce(z))

    def __repr__(self) -> str:
        idx = f"l={self.l}" if self.j is None else f"l={self.l},j={self.j}"
        return f"EigenClosedForm({self.tag}, n={self.n}, {idx})"


def eval_rho_tr(n: int, l: int, j: int, z, params: Params) -> Scalar:
    """Eigenvalue of the cyclic K matrix on the (l, j) wedge slot."""
    if not _in_wedge(n, l, j):
        raise RangeError(f"(l, j)=({l}, {j}) outside the wedge for n={n}")
    z = _coerce(z)
    q = params.q
    e0 = abs(n - 2 * l) + 2
    val = ONE
    for s in range(abs(l - j)):
        e = q ** (e0 + 2 * s)
        val = val * (e - z) / (e * z - ONE)
    return val


def _in_wedge(n: int, l: int, j: int) -> bool:
    if n < 1:
        return False
    if 2 * l <= n:
        return 0 <= j <= l
    return l <= j <= n


def eval_lambda_k11(n: int, l: int, z, params: Params) -> Scalar:
    """Eigenvalue of K_{1,1} on the l-th joint component."""
    if not 0 <= l <= n:
        raise RangeError(f"l={l} outside 0..{n}")
    z = _coerce(z)
    q = params.q
    c = 2 * l - n if 2 * l >= n else n - 1 - 2 * l
    val = ONE
    for jj in range(1, c + 1):
        e = q ** jj
        val = val * (e + z) / (ONE + e * z)
    return val


def eval_lambda_k21(n: int, l: int, z, params: Params) -> Scalar:
    """Eigenvalue of K_{2,1} on the l-th joint component.

    Labels are aligned with eval_lambda_k11: the shared projector of the
    two matrices carries the same l.
    """
    if not 0 <= l <= n:
        raise RangeError(f"l={l} outside 0..{n}")
    z2 = _coerce(z) ** 2
    q = params.q
    if n % 2 == 0:
        m, e0 = (l - n // 2, 3) if 2 * l >= n else (n // 2 - l, 1)
    else:
        m, e0 = ((2 * l - n + 1) // 2, 1) if 2 * l > n else ((n - 1) // 2 - l, 3)
    val = ONE
    for s in range(m):
        e = q ** (e0 + 4 * s)
        val = val * (e + z2) / (ONE + e * z2)
    return val


def eval_lambda_k12(n: int, l: int, z, params: Params) -> Scalar:
    """Eigenvalue of K_{1,2} on the l-th component."""
    if not 0 <= l <= n:
        raise RangeError(f"l={l} outside 0..{n}")
    z = _coerce(z)
    t = params.t
    val = ONE
    # alternating signs, odd powers of t; the two wedges differ by a flip
    low = 2 * l <= n
    for jj in range(1, abs(n - 2 * l) + 1):
        e = t ** (2 * jj - 1)
        plus = (jj % 2 == 1) == low
        if plus:
            val = val * (z + e) / (ONE + e * z)
        else:
            val = val * (z - e) / (ONE - e * z)
    return val


def eval_lambda_k22(n: int, l: int, z, params: Params) -> Scalar:
    """Eigenvalue of K_{2,2} on the l-th component (even size), or the
    positive representative of the +/- pair (odd size)."""
    top = n // 2 if n % 2 == 0 else (n - 1) // 2
    if not 0 <= l <= top:
        raise RangeError(f"l={l} outside 0..{top}")
    z2 = _coerce(z) ** 2
    q = params.q
    if n % 2 == 0:
        val = ONE
        for s in range((n - 2 * l) // 2):
            e = q ** (4 * s + 2)
            val = val * (z2 - e) / (ONE - e * z2)
        return val
    val = params.t / (ONE - z2)
    for s in range(1, (n + 1) // 2 - l):
        e = q ** (4 * s)
        val = val * (z2 - e) / (ONE - e * z2)
    return val


_FORM_FNS = {
    "tr": eval_rho_tr,
    "k11": eval_lambda_k11,
    "k21": eval_lambda_k21,
    "k12": eval_lambda_k12,
    "k22": eval_lambda_k22,
}


def closed_form(tag: str, n: int, l: int, j: int | None = None) -> EigenClosedForm:
    """Bind one eigenvalue closed form to its indices."""
    if tag not in _FORM_FNS:
        raise RangeError(f"unknown eigenvalue family {tag!r}")
    if tag == "tr":
        if j is None:
            raise RangeError("the cyclic family needs both l and j")
        if not _in_wedge(n, l, j):
            raise RangeError(f"(l, j)=({l}, {j}) outside the wedge for n={n}")
        return EigenClosedForm(tag, n, l, j,
                               lambda p, z, n=n, l=l, j=j: eval_rho_tr(n, l, j, z, p))
    top = n
    if tag == "k22":
        top = n // 2 if n % 2 == 0 else (n - 1) // 2
    if not 0 <= l <= top:
        raise RangeError(f"l={l} outside 0..{top}")
    fn = _FORM_FNS[tag]
    return EigenClosedForm(tag, n, l, None,
                           lambda p, z, n=n, l=l, fn=fn: fn(n, l, z, p))


# ---------------------------------------------------------------------------
# Lagrange projectors


def _sector(n: int, l: int) -> list:
    return [s for s in range(1 << n) if popcount(s) == l]


def _assert_distinct(lams) -> None:
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if lams[i] == lams[j]:
                raise DegenerateEigenvalues(
                    f"eigenvalues {i} and {j} collide at the sample point")


def _lagrange(m, lams, factors, idx):
    """Projector onto the idx-th eigenspace, given all shifted factors."""
    prod = None
    for i, f in enumerate(factors):
        if i == idx:
            continue
        prod = f if prod is None else prod @ f
    if prod is None:
        return Operator.identity(m.nrows)
    den = ONE
    for i, lam in enumerate(lams):
        if i != idx:
            den = den * (lams[idx] - lam)
    return prod.scale(den ** -1)


# ---------------------------------------------------------------------------
# reports


class SpectralRow:
    """Certificate line for one eigenvalue."""

    __slots__ = ("family", "n", "l", "j", "value", "annihilated", "rank", "expected")

    def __init__(self, family, n, l, j, value, annihilated, rank, expected):
        self.family = family
        self.n = n
        self.l = l
        self.j = j
        self.value = value
        self.annihilated = annihilated
        self.rank = rank
        self.expected = expected

    @property
    def ok(self) -> bool:
        return self.annihilated and self.rank == self.expected

    def csv(self) -> str:
        j = "" if self.j is None else str(self.j)
        status = "pass" if self.ok else "fail"
        return (f"{self.n},{self.family},{self.l},{j},{self.value},"
                f"{self.rank},{self.expected},{status}")


class SpectralReport:
    """Rows of eigenvalue certificates plus the structural side checks."""

    __slots__ = ("family", "n", "rows", "checks")

    def __init__(self, family: str, n: int) -> None:
        self.family = family
        self.n = n
        self.rows: list[SpectralRow] = []
        self.checks = Report(f"{family} spectrum n={n}")

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows) and self.checks.passed

    def csv(self) -> str:
        return "\n".join(r.csv() for r in self.rows)

    def __repr__(self) -> str:
        state = "ok" if self.ok else "FAIL"
        return f"SpectralReport({self.family}, n={self.n}, {state})"


CSV_HEADER = "n,family,l,j,value,observed,expected,status"


def spectra_csv(reports) -> str:
    lines = [CSV_HEADER]
    for rep in reports:
        for row in rep.rows:
            lines.append(row.csv())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification routines


def _certify(rep: SpectralReport, m, lams, rows_meta) -> list:
    """Shared annihilation + rank certificate; returns the projectors."""
    _assert_distinct(lams)
    eye = Operator.identity(m.nrows)
    factors = [m - eye.scale(lam) for lam in lams]
    full = None
    for f in factors:
        full = f if full is None else full @ f
    rep.checks.add("annihilating polynomial", full.is_zero())
    projs = []
    dim = m.nrows
    total = 0
    for i, (l, j, expected) in enumerate(rows_meta):
        p = _lagrange(m, lams, factors, i)
        resid = (factors[i] @ p).is_zero()
        rep.rows.append(SpectralRow(rep.family, rep.n, l, j, lams[i],
                                    resid, rank(p), expected))
        total += expected
        projs.append(p)
    rep.checks.add("multiplicity sum", total == dim,
                   f"expected dims sum to {total}, block has {dim}")
    return projs


def verify_tr_spectrum(n: int, l: int, z, w, params: Params) -> SpectralReport:
    """Certify the cyclic K matrix spectrum on one weight sector.

    The matrix maps the sector l to n-l, so the certified object is the
    composition K(w)K(z) restricted to sector l; its eigenvalues are the
    products of the two closed forms over the wedge.
    """
    if not 0 <= l <= n:
        raise RangeError(f"l={l} outside 0..{n}")
    z = _coerce(z)
    w = _coerce(w)
    kz = build_ktr(n, z, params).operator
    kw = build_ktr(n, w, params).operator
    vl = _sector(n, l)
    vnl = _sector(n, n - l)
    m = kw.block(vl, vnl) @ kz.block(vnl, vl)
    js = list(range(l, -1, -1)) if 2 * l <= n else list(range(l, n + 1))
    lams = []
    meta = []
    for j in js:
        lp, jp = n - l, n - j
        if 2 * lp == n and 2 * jp > n:
            jp = n - jp          # the middle sector is indexed up to reflection
        lams.append(eval_rho_tr(n, l, j, z, params)
                    * eval_rho_tr(n, lp, jp, w, params))
        if 2 * l <= n:
            expected = comb(n, j) - (comb(n, j - 1) if j >= 1 else 0)
        else:
            expected = comb(n, j) - (comb(n, j + 1) if j + 1 <= n else 0)
        meta.append((l, j, expected))
    rep = SpectralReport("tr", n)
    _certify(rep, m, lams, meta)
    return rep


def verify_tr_middle(n: int, z, params: Params) -> SpectralReport:
    """Certify the cyclic K matrix directly on the middle weight sector.

    Only even sizes have one: there the matrix is an endomorphism and the
    closed forms themselves (not products of two) are its eigenvalues.
    """
    if n % 2 != 0:
        raise RangeError(f"middle sector needs even size, got {n}")
    z = _coerce(z)
    l = n // 2
    vl = _sector(n, l)
    m = build_ktr(n, z, params).operator.block(vl, vl)
    lams = []
    meta = []
    for j in range(l, -1, -1):
        lams.append(eval_rho_tr(n, l, j, z, params))
        meta.append((l, j, comb(n, j) - (comb(n, j - 1) if j >= 1 else 0)))
    rep = SpectralReport("tr", n)
    _certify(rep, m, lams, meta)
    return rep


def verify_k11_k21_joint(n: int, z, w, params: Params) -> SpectralReport:
    """Certify that K_{1,1}(z) and K_{2,1}(w) share one projector family."""
    z = _coerce(z)
    w = _coerce(w)
    a = build_kkk(1, 1, n, z, params).operator
    b = build_kkk(2, 1, n, w, params).operator
    lams11 = [eval_lambda_k11(n, l, z, params) for l in range(n + 1)]
    lams21 = [eval_lambda_k21(n, l, w, params) for l in range(n + 1)]
    rep = SpectralReport("k11", n)
    meta = [(l, None, comb(n, l)) for l in range(n + 1)]
    p11 = _certify(rep, a, lams11, meta)
    rep21 = SpectralReport("k21", n)
    p21 = _certify(rep21, b, lams21, meta)
    for row in rep21.rows:
        rep.rows.append(row)
    rep.checks.extend(rep21.checks)
    for l in range(n + 1):
        rep.checks.add(f"joint projector l={l}", p11[l] == p21[l])
        rep.checks.add(f"projector idempotent l={l}", p11[l] @ p11[l] == p11[l])
    rep.checks.add("matrices commute", a @ b == b @ a)
    return rep


def verify_k12_k22(n: int, z, params: Params) -> SpectralReport:
    """Certify the two remaining boundary spectra and their parity links."""
    z = _coerce(z)
    a = build_kkk(1, 2, n, z, params).operator
    c = build_kkk(2, 2, n, z, params).operator
    rep = SpectralReport("k12", n)

    lams12 = [eval_lambda_k12(n, l, z, params) for l in range(n + 1)]
    meta12 = [(l, None, comb(n, l)) for l in range(n + 1)]
    p12 = _certify(rep, a, lams12, meta12)

    rep22 = SpectralReport("k22", n)
    even = n % 2 == 0
    top = n // 2 if even else (n - 1) // 2
    lams22 = [eval_lambda_k22(n, l, z, params) for l in range(top + 1)]
    for l in range(top + 1):
        flipped = eval_lambda_k22(n, l, -z, params)
        rep22.checks.add(f"even in z, l={l}", flipped == lams22[l])
    if even:
        meta22 = [(l, None, 2 * comb(n, l) if l < top else comb(n, top))
                  for l in range(top + 1)]
        _certify(rep22, c, lams22, meta22)
    else:
        # the +/- pair structure squares to a scalar on each component
        sq = c @ c
        meta22 = [(l, None, 2 * comb(n, l)) for l in range(top + 1)]
        _certify(rep22, sq, [v * v for v in lams22], meta22)
    swap = not even
    parity_ok = all((popcount(r) + popcount(cc)) % 2 == (1 if swap else 0)
                    for r, cc, _ in c.entries())
    rep22.checks.add("parity sectors swapped" if swap else "parity sectors preserved",
                     parity_ok)
    rep.rows.extend(rep22.rows)
    rep.checks.extend(rep22.checks)

    # subspace pairing: the parity-compressed component projectors of the
    # first matrix must cut out blocks of the conjectured dimensions
    pp = _parity(n, 0)
    pm = _parity(n, 1)
    for l in range(n // 2 + 1):
        if 2 * l == n:
            quad = p12[l]
            expected = comb(n, l) // 2
        else:
            quad = p12[l] + p12[n - l]
            expected = comb(n, l)
        for name, pr in (("even", pp), ("odd", pm)):
            got = rank(pr @ quad @ pr)
            rep.checks.add(f"parity block rank l={l} ({name})", got == expected,
                           f"rank {got}, expected {expected}")
    return rep


def _parity(n: int, residue: int) -> Operator:
    # diagonal projector onto the states whose up-spin count has this parity
    out = Operator(1 << n)
    for s in range(1 << n):
        if popcount(s) % 2 == residue:
            out.set(s, s, ONE)
    return out


# ---------------------------------------------------------------------------
# sampling driver


_Z_CANDIDATES = (
    Scalar(2, 0, 5), Scalar(3, 0, 7), Scalar(5, 0, 11),
    Scalar(7, 0, 13), Scalar(4, 0, 9),
)
_W_CANDIDATES = (
    Scalar(5, 0, 11), Scalar(7, 0, 13), Scalar(4, 0, 9),
    Scalar(2, 0, 5), Scalar(3, 0, 7),
)


def spectrum_suite(n: int, params: Params, attempts: int = 5) -> list:
    """Run every spectral certificate at n, resampling degenerate points."""
    return [rep for tag in ("tr", "k11", "k12")
            for rep in spectrum_family(tag, n, params, attempts)]


def spectrum_family(tag: str, n: int, params: Params, attempts: int = 5) -> list:
    """Certificates for a single eigenvalue family.

    Tags: "tr" (one report per up-spin sector), "k11"/"k21" (certified
    jointly, so either tag returns the shared report) and "k12"/"k22"
    (likewise paired).
    """
    if tag == "tr":
        return [_resample(
            lambda z, w, l=l: verify_tr_spectrum(n, l, z, w, params), attempts)
            for l in range(n + 1)]
    if tag in ("k11", "k21"):
        return [_resample(
            lambda z, w: verify_k11_k21_joint(n, z, w, params), attempts)]
    if tag in ("k12", "k22"):
        return [_resample(
            lambda z, w: verify_k12_k22(n, z, params), attempts)]
    raise RangeError(f"unknown spectral family tag {tag!r}")


def _resample(fn, attempts: int):
    last = None
    for i in range(min(attempts, len(_Z_CANDIDATES))):
        try:
            return fn(_Z_CANDIDATES[i], _W_CANDIDATES[i])
        except (DegenerateEigenvalues, PoleError) as exc:
            last = exc
    raise DegenerateEigenvalues(f"no generic sample point found: {last}")
