"""Exact spectral certificates for the K matrices.

Each conjectured decomposition is proved from exact kernel bases: for
every closed-form eigenvalue lam the kernel of M - lam*I is computed with
onsk.linalg.kernel, whose exact check of every vector against every
row of M - lam*I is the proof that M v = lam v.  The eigenvalues are
pairwise distinct, so when the kernel dimensions sum to dim M the
eigenspaces are a direct sum of the whole space; M is then
diagonalisable, its annihilating polynomial vanishes and its spectral
projectors are the Lagrange projectors, none of which has to be formed.
Shared projectors are equal eigenspaces, and a projector compressed to a
parity sector is V (W^T V)^-1 W^T, with W the annihilator of the other
eigenspaces.  All arithmetic is exact, so a
passing certificate is a proof for that parameter point.

Certificates are proved at the caller's points: the spectral parameter
params.z and, for the trace compositions and K_{2,1}, a second point w.
Nothing here chooses a point.  Each certificate evaluates its closed
forms first and raises DegenerateEigenvalues, naming the point, when two
of them coincide there, before any K matrix is built, and then builds
each matrix it uses once (K_tr(z) and K_tr(w) serve every weight sector).
Every closed form is one product of (x + e)/(1 + e x) over signed powers
e, with x = z or z^2.
"""

from __future__ import annotations

from math import comb

from .field import ONE, Params, Scalar, _coerce, format_scalar
from .kmatrix import build_kkk, build_ktr
from .linalg import Operator, inverse, kernel, rank
from .report import Report
from .spinrep import RangeError, popcount


class DegenerateEigenvalues(ArithmeticError):
    """Two closed-form eigenvalues collided at the sample point."""


# ---------------------------------------------------------------------------
# eigenvalue closed forms


def eval_rho_tr(n: int, l: int, j: int, z, params: Params) -> Scalar:
    """Eigenvalue of the cyclic K matrix on the (l, j) wedge slot."""
    if not (n >= 1 and (0 <= j <= l if 2 * l <= n else l <= j <= n)):
        raise RangeError(f"(l, j)=({l}, {j}) outside the wedge for n={n}")
    e0 = abs(n - 2 * l) + 2
    return _moebius(z, [-params.q ** (e0 + 2 * s) for s in range(abs(l - j))])


def _moebius(x, es) -> Scalar:
    """prod over e in es of (x + e)/(1 + e x)."""
    x = _coerce(x)
    val = ONE
    for e in es:
        val = val * (x + e) / (ONE + e * x)
    return val


def eval_lambda_k11(n: int, l: int, z, params: Params) -> Scalar:
    """Eigenvalue of K_{1,1} on the l-th joint component."""
    if not 0 <= l <= n:
        raise RangeError(f"l={l} outside 0..{n}")
    c = 2 * l - n if 2 * l >= n else n - 1 - 2 * l
    return _moebius(z, [params.q ** jj for jj in range(1, c + 1)])


def eval_lambda_k21(n: int, l: int, z, params: Params) -> Scalar:
    """Eigenvalue of K_{2,1} on the l-th joint component.

    Labels are aligned with eval_lambda_k11: the shared projector of the
    two matrices carries the same l.
    """
    if not 0 <= l <= n:
        raise RangeError(f"l={l} outside 0..{n}")
    if n % 2 == 0:
        m, e0 = (l - n // 2, 3) if 2 * l >= n else (n // 2 - l, 1)
    else:
        m, e0 = ((2 * l - n + 1) // 2, 1) if 2 * l > n else ((n - 1) // 2 - l, 3)
    return _moebius(_coerce(z) ** 2, [params.q ** (e0 + 4 * s) for s in range(m)])


def eval_lambda_k12(n: int, l: int, z, params: Params) -> Scalar:
    """Eigenvalue of K_{1,2} on the l-th component."""
    if not 0 <= l <= n:
        raise RangeError(f"l={l} outside 0..{n}")
    t = params.t
    # alternating signs, odd powers of t; the two wedges differ by a flip
    low = 2 * l <= n
    return _moebius(z, [t ** (2 * jj - 1) if (jj % 2 == 1) == low else -t ** (2 * jj - 1)
                        for jj in range(1, abs(n - 2 * l) + 1)])


def eval_lambda_k22(n: int, l: int, z, params: Params) -> Scalar:
    """Eigenvalue of K_{2,2} on the l-th component (even size), or the
    positive representative of the +/- pair (odd size)."""
    top = n // 2 if n % 2 == 0 else (n - 1) // 2
    if not 0 <= l <= top:
        raise RangeError(f"l={l} outside 0..{top}")
    z2 = _coerce(z) ** 2
    q = params.q
    if n % 2 == 0:
        return _moebius(z2, [-q ** (4 * s + 2) for s in range((n - 2 * l) // 2)])
    return params.t / (ONE - z2) * _moebius(z2, [-q ** (4 * s)
                                                 for s in range(1, (n + 1) // 2 - l)])


# ---------------------------------------------------------------------------
# eigenspaces


def _sector(n: int, l: int) -> list:
    return [s for s in range(1 << n) if popcount(s) == l]


def _assert_distinct(lams, what: str, **point) -> None:
    """Reject a point where two eigenvalues of one certificate coincide."""
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if lams[i] == lams[j]:
                at = ", ".join(f"{k}={format_scalar(v)}" for k, v in point.items())
                raise DegenerateEigenvalues(
                    f"{what} eigenvalues {i} and {j} collide at {at}")


def _projector(vectors, others, dim: int):
    """Projector onto span(vectors) along span(others), or None.

    P = V (W^T V)^-1 W^T, where the columns of W span the annihilator of
    the other eigenspaces (every w has w.u = 0 for each u in others).  It
    exists exactly when the two spans form a direct sum of the whole
    space; then W^T V is square and invertible.
    """
    ws = kernel(others, dim)
    if len(ws) != len(vectors):
        return None
    wt = Operator.from_rows(ws, dim)
    v = Operator.from_rows(vectors, dim).transpose()
    inv = inverse(wt @ v)
    return None if inv is None else (v @ inv) @ wt


# ---------------------------------------------------------------------------
# reports


class SpectralRow:
    """Certificate line for one eigenvalue."""

    __slots__ = ("family", "n", "l", "j", "value", "rank", "expected")

    def __init__(self, family, n, l, j, value, rank, expected):
        self.family = family
        self.n = n
        self.l = l
        self.j = j
        self.value = value
        self.rank = rank
        self.expected = expected

    @property
    def ok(self) -> bool:
        return 0 < self.rank == self.expected


class SpectralReport:
    """Rows of eigenvalue certificates plus the structural side checks."""

    __slots__ = ("family", "n", "rows", "checks")

    def __init__(self, family: str, n: int) -> None:
        self.family = family
        self.n = n
        self.rows: list[SpectralRow] = []
        self.checks = Report()

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows) and self.checks.passed

    def __repr__(self) -> str:
        state = "ok" if self.ok else "FAIL"
        return f"SpectralReport({self.family}, n={self.n}, {state})"


# ---------------------------------------------------------------------------
# verification routines


def _certify(rep: SpectralReport, family: str, m, lams, rows_meta) -> list:
    """Eigenspace certificate of one family, appended to rep; returns the
    kernel bases.

    For each closed-form eigenvalue lam the row's observed count is the
    dimension of the kernel of m - lam*I.  linalg.kernel returns a basis
    only after every row of m - lam*I has annihilated every vector
    exactly, so each vector v is proved to satisfy m v = lam v there.

    The eigenvalues lams must be pairwise distinct; every caller asserts
    that with _assert_distinct before it builds m.  Eigenvectors of
    distinct eigenvalues are linearly independent, so when the counts sum
    to dim m the eigenspaces form a direct sum of the whole space: m is
    diagonalisable with exactly these eigenvalues, each multiplicity
    equals its count, the annihilating polynomial prod (m - lam)
    vanishes, and the Lagrange projectors
    prod_{mu != lam} (m - mu)/(lam - mu) are the idempotent spectral
    projectors onto these eigenspaces.  No Lagrange product is
    formed.
    """
    dim = m.nrows
    bases = [kernel((m - Operator.identity(dim).scale(lam)).rows.values(), dim)
             for lam in lams]
    rep.checks.add("annihilating polynomial", sum(map(len, bases)) == dim)
    total = 0
    for lam, basis, (l, j, expected) in zip(lams, bases, rows_meta):
        rep.rows.append(SpectralRow(family, rep.n, l, j, lam, len(basis), expected))
        total += expected
    rep.checks.add("multiplicity sum", total == dim,
                   f"expected dims sum to {total}, block has {dim}")
    return bases


def _tr_wedge(n: int, l: int) -> list:
    """Row meta (l, j, expected count) of the wedge slots j of sector l."""
    low = 2 * l <= n
    meta = []
    for j in range(l, -1, -1) if low else range(l, n + 1):
        k = j - 1 if low else j + 1
        meta.append((l, j, comb(n, j) - (comb(n, k) if k >= 0 else 0)))
    return meta


def verify_tr_spectrum(n: int, z, w, params: Params) -> list:
    """Certify the cyclic K matrix spectrum, one report per weight sector.

    The matrix maps the sector l to n-l, so the certified object is the
    composition K(w)K(z) restricted to sector l; its eigenvalues are the
    products of the two closed forms over the wedge.  Every sector's
    closed forms are checked distinct before K(z) and K(w) are built,
    once each for all sectors.
    """
    z = _coerce(z)
    w = _coerce(w)
    sectors = []
    for l in range(n + 1):
        meta = _tr_wedge(n, l)
        lams = []
        for _, j, _ in meta:
            lp, jp = n - l, n - j
            if 2 * lp == n and 2 * jp > n:
                jp = n - jp          # the middle sector is indexed up to reflection
            lams.append(eval_rho_tr(n, l, j, z, params) * eval_rho_tr(n, lp, jp, w, params))
        _assert_distinct(lams, f"tr l={l}", z=z, w=w)
        sectors.append((lams, meta))
    kz = build_ktr(n, z, params).operator
    kw = build_ktr(n, w, params).operator
    reports = []
    for l, (lams, meta) in enumerate(sectors):
        vl = _sector(n, l)
        vnl = _sector(n, n - l)
        rep = SpectralReport("tr", n)
        _certify(rep, "tr", kw.block(vl, vnl) @ kz.block(vnl, vl), lams, meta)
        reports.append(rep)
    return reports


def verify_tr_middle(n: int, z, params: Params) -> SpectralReport:
    """Certify the cyclic K matrix directly on the middle weight sector.

    Only even sizes have one: there the matrix is an endomorphism, and its
    eigenvalues are the closed forms themselves (not products of two)
    times (-1)^(n/2).  That sign is the (-1)^l of kappa_tr(l) at
    l = n/2, which multiplies every entry of the middle block.
    """
    if n % 2 != 0:
        raise RangeError(f"middle sector needs even size, got {n}")
    z = _coerce(z)
    l = n // 2
    sign = ONE if l % 2 == 0 else -ONE
    meta = _tr_wedge(n, l)
    lams = [sign * eval_rho_tr(n, l, j, z, params) for _, j, _ in meta]
    _assert_distinct(lams, f"tr l={l}", z=z)
    vl = _sector(n, l)
    m = build_ktr(n, z, params).operator.block(vl, vl)
    rep = SpectralReport("tr", n)
    _certify(rep, "tr", m, lams, meta)
    return rep


def verify_k11_k21_joint(n: int, z, w, params: Params) -> SpectralReport:
    """Certify that K_{1,1}(z) and K_{2,1}(w) share one projector family."""
    z = _coerce(z)
    w = _coerce(w)
    lams11 = [eval_lambda_k11(n, l, z, params) for l in range(n + 1)]
    lams21 = [eval_lambda_k21(n, l, w, params) for l in range(n + 1)]
    _assert_distinct(lams11, "k11", z=z)
    _assert_distinct(lams21, "k21", w=w)
    a = build_kkk(1, 1, n, z, params).operator
    b = build_kkk(2, 1, n, w, params).operator
    rep = SpectralReport("k11", n)
    meta = [(l, None, comb(n, l)) for l in range(n + 1)]
    v11 = _certify(rep, "k11", a, lams11, meta)
    v21 = _certify(rep, "k21", b, lams21, meta)
    # equal eigenspaces give equal spectral projectors, and kernel bases
    # are canonical, so equal eigenspaces have equal bases; eigenvectors of
    # distinct eigenvalues are independent, so counts summing to dim make
    # a direct sum of the whole space and every projector of K_{1,1} idempotent
    direct = sum(map(len, v11)) == 1 << n
    for l in range(n + 1):
        rep.checks.add(f"joint projector l={l}", v11[l] == v21[l])
        rep.checks.add(f"projector idempotent l={l}", direct)
    rep.checks.add("matrices commute", a @ b == b @ a)
    return rep


def verify_k12_k22(n: int, z, params: Params) -> SpectralReport:
    """Certify the two remaining boundary spectra and their parity links."""
    z = _coerce(z)
    even = n % 2 == 0
    top = n // 2 if even else (n - 1) // 2
    lams12 = [eval_lambda_k12(n, l, z, params) for l in range(n + 1)]
    lams22 = [eval_lambda_k22(n, l, z, params) for l in range(top + 1)]
    # odd sizes: the +/- pair structure squares to a scalar on each component,
    # so the squares are certified on K_{2,2}^2
    cert22 = lams22 if even else [v * v for v in lams22]
    _assert_distinct(lams12, "k12", z=z)
    _assert_distinct(cert22, "k22", z=z)
    a = build_kkk(1, 2, n, z, params).operator
    c = build_kkk(2, 2, n, z, params).operator
    rep = SpectralReport("k12", n)

    meta12 = [(l, None, comb(n, l)) for l in range(n + 1)]
    v12 = _certify(rep, "k12", a, lams12, meta12)

    for l in range(top + 1):
        flipped = eval_lambda_k22(n, l, -z, params)
        rep.checks.add(f"even in z, l={l}", flipped == lams22[l])
    if even:
        meta22 = [(l, None, 2 * comb(n, l) if l < top else comb(n, top))
                  for l in range(top + 1)]
        _certify(rep, "k22", c, cert22, meta22)
    else:
        meta22 = [(l, None, 2 * comb(n, l)) for l in range(top + 1)]
        _certify(rep, "k22", c @ c, cert22, meta22)
    swap = not even
    parity_ok = all((popcount(r) + popcount(cc)) % 2 == (1 if swap else 0)
                    for r, cc, _ in c.entries())
    rep.checks.add("parity sectors swapped" if swap else "parity sectors preserved",
                   parity_ok)

    _parity_checks(rep, n, v12)
    return rep


def _parity_checks(rep: SpectralReport, n: int, bases) -> None:
    """Parity-compressed projector ranks of the K_{1,2} eigenspaces.

    The projector of component l (paired with n - l off the middle) along
    the other components must cut out blocks of the conjectured
    dimensions on the even and the odd up-spin sectors.
    """
    dim = 1 << n
    sectors = [[s for s in range(dim) if popcount(s) % 2 == residue]
               for residue in (0, 1)]
    for l in range(n // 2 + 1):
        pair = {l, n - l}
        expected = comb(n, l) // 2 if 2 * l == n else comb(n, l)
        proj = _projector([v for i in sorted(pair) for v in bases[i]],
                          [v for i, basis in enumerate(bases) if i not in pair
                           for v in basis], dim)
        for name, sector in zip(("even", "odd"), sectors):
            # no projector exists when the eigenspaces do not span
            got = None if proj is None else rank(proj.block(sector, sector))
            rep.checks.add(f"parity block rank l={l} ({name})", got == expected,
                           f"rank {got}, expected {expected}")


# ---------------------------------------------------------------------------
# suites


def spectrum_suite(n: int, params: Params, w) -> list:
    """Run every spectral certificate at n, at the points params.z and w."""
    return [rep for tag in ("tr", "k11", "k12")
            for rep in spectrum_family(tag, n, params, w)]


def spectrum_family(tag: str, n: int, params: Params, w) -> list:
    """Certificates for a single eigenvalue family, at params.z and w.

    Tags: "tr" (one report per up-spin sector), "k11"/"k21" (certified
    jointly, so either tag returns the shared report) and "k12"/"k22"
    (likewise paired).  The second point w enters the "tr" compositions
    and K_{2,1}; the k12/k22 certificates use params.z alone.
    """
    if n < 1:
        raise RangeError(f"need n >= 1, got {n}")
    z = params.z
    if tag == "tr":
        return verify_tr_spectrum(n, z, w, params)
    if tag in ("k11", "k21"):
        return [verify_k11_k21_joint(n, z, w, params)]
    if tag in ("k12", "k22"):
        return [verify_k12_k22(n, z, params)]
    raise RangeError(f"unknown spectral family tag {tag!r}")
